//! Criterion micro-benchmarks for the §5.3 prototype numbers:
//!
//! * feature extraction per customer-minute (paper: ~50 ms per customer on
//!   one Xeon thread for 100 MB/min of NetFlow),
//! * one online detection step (paper: <10 ms),
//! * plus component benches: the LSTM dual step, CUSUM update, RF
//!   inference, packet sampling, and the SAFE loss.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use xatu_core::config::XatuConfig;
use xatu_core::eval::VolumeStore;
use xatu_core::model::XatuModel;
use xatu_core::pipeline::{Pipeline, PipelineConfig};
use xatu_core::sample::{Sample, SampleMeta};
use xatu_core::trainer::train;
use xatu_core::FleetDetector;
use xatu_detectors::cusum::Cusum;
use xatu_detectors::rf::{RandomForest, RfConfig};
use xatu_features::blocklist::BlocklistCategory;
use xatu_features::clustering::ClusteringTracker;
use xatu_features::table1::FeatureExtractor;
use xatu_features::volumetric::{distinct_sources, source_key};
use xatu_netflow::addr::{Ipv4, Prefix, Slash24Set, Subnet24};
use xatu_netflow::attack::AttackType;
use xatu_netflow::binning::{MinuteBinner, MinuteFlows};
use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};
use xatu_netflow::sampler::{PacketSampler, SamplingMode};
use xatu_nn::init::Initializer;
use xatu_nn::lstm::{Lstm, ServingLstm};
use xatu_survival::safe_loss::safe_loss_and_grad;

fn bin_with_flows(n: usize) -> MinuteFlows {
    let customer = Ipv4::from_octets(20, 0, 0, 1);
    let flows = (0..n)
        .map(|k| FlowRecord {
            minute: 0,
            src: Ipv4(0x1E00_0000 + k as u32 * 977),
            dst: customer,
            proto: if k % 3 == 0 {
                Protocol::Tcp
            } else {
                Protocol::Udp
            },
            src_port: (k % 7) as u16 * 443,
            dst_port: 80,
            tcp_flags: TcpFlags::ACK,
            bytes: 1000 + k as u64,
            packets: 3,
            sampling: 10,
        })
        .collect();
    MinuteFlows {
        minute: 0,
        customer,
        flows,
    }
}

/// One minute of `per_customer` flows to each of `customers` customers,
/// grouped by customer or interleaved round-robin (the order exporters
/// send a mixed link in).
fn minute_of_flows(per_customer: usize, customers: u32, interleaved: bool) -> Vec<FlowRecord> {
    let flow = |c: u32, k: usize| FlowRecord {
        minute: 0,
        src: Ipv4(0x1E00_0000 + k as u32 * 977),
        dst: Ipv4(0x1400_0001 + (c << 8)),
        proto: Protocol::Udp,
        src_port: (k % 7) as u16 * 443,
        dst_port: 80,
        tcp_flags: TcpFlags::default(),
        bytes: 1000 + k as u64,
        packets: 3,
        sampling: 10,
    };
    if interleaved {
        (0..per_customer)
            .flat_map(|k| (0..customers).map(move |c| flow(c, k)))
            .collect()
    } else {
        (0..customers)
            .flat_map(|c| (0..per_customer).map(move |k| flow(c, k)))
            .collect()
    }
}

/// `MinuteBinner` over one minute per iteration: every flow pushed, then
/// the minute released (`isp_dense`'s 2,400 flows x 32 customers and a
/// `fleet_wide`-like 20 x 450). Divide by the row's flow count (76,800 or
/// 9,000) for ns per flow; interleaved should read within 1.3x of grouped.
fn bench_binner(c: &mut Criterion) {
    for (per_customer, customers) in [(2400, 32), (20, 450)] {
        for interleaved in [false, true] {
            let flows = minute_of_flows(per_customer, customers, interleaved);
            let order = if interleaved {
                "interleaved"
            } else {
                "grouped"
            };
            let mut binner = MinuteBinner::new();
            let mut minute = 0u32;
            c.bench_function(&format!("binner_{per_customer}x{customers}_{order}"), |b| {
                b.iter(|| {
                    for &f in &flows {
                        binner.push(FlowRecord { minute, ..f });
                    }
                    minute += 1;
                    black_box(binner.advance_watermark(minute))
                })
            });
        }
    }
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut ex = FeatureExtractor::new();
    let bin = bin_with_flows(40);
    c.bench_function("feature_extraction_per_customer_minute_40flows", |b| {
        b.iter(|| black_box(ex.extract(black_box(&bin))))
    });

    // The paper's record density (~2.4k flows per customer-minute, §5.3)
    // with every per-flow test live: sources step by 977 addresses, so
    // they cross a /24 every flow; every fifth /24 is on two blocklists,
    // every seventh previously attacked this customer, 30.0.0.0/12 is
    // routed and the bin runs past it into unrouted space.
    let bin = bin_with_flows(2400);
    for (k, f) in bin.flows.iter().enumerate() {
        if k % 5 == 0 {
            ex.blocklists.add_addr(BlocklistCategory::Scanner, f.src);
            ex.blocklists.add_addr(BlocklistCategory::BotMirai, f.src);
        }
        if k % 7 == 0 {
            ex.prev_attackers.record(bin.customer, f.src, 0);
        }
    }
    for third in 0..16u8 {
        let prefix = Prefix::new(Ipv4::from_octets(30, third, 0, 0), 16);
        ex.spoof.announce(prefix, 64_500 + third as u32);
    }
    c.bench_function(
        "feature_extraction_per_customer_minute_2400flows_aux_loaded",
        |b| b.iter(|| black_box(ex.extract(black_box(&bin)))),
    );
}

/// The per-flow source tests and the two per-bin steps beside them, each
/// at the paper's record density: one row is one 2 400-flow bin.
fn bench_source_tests(c: &mut Criterion) {
    // `Slash24Set::contains`, 2 400 probes per iteration, a new /24 every
    // probe (the walk of `bin_with_flows`): through /16s that list nothing
    // (the shared clear page), through the same /16s with every probed /24
    // listed (37 pages), and with every probe in another /16, half of them
    // listed (2 400 pages: the directory and the pages both miss L1).
    let walk: Vec<Ipv4> = bin_with_flows(2400).flows.iter().map(|f| f.src).collect();
    let scattered: Vec<Ipv4> = (0..2400u32)
        .map(|k| Ipv4(k * 0x1B_0000 + k * 977))
        .collect();
    let mut listed = Slash24Set::new();
    let mut split = Slash24Set::new();
    for (k, (a, b)) in walk.iter().zip(&scattered).enumerate() {
        listed.insert(a.subnet24());
        if k % 2 == 0 {
            split.insert(b.subnet24());
        } else {
            split.insert(Subnet24(b.subnet24().0 ^ 1));
        }
    }
    assert_eq!(split.split_slash16s(), 2400);
    for (name, set, probes) in [
        ("unlisted", &Slash24Set::new(), &walk),
        ("listed", &listed, &walk),
        ("split", &split, &scattered),
    ] {
        c.bench_function(&format!("slash24set_contains_{name}"), |b| {
            b.iter(|| {
                let hits = black_box(probes)
                    .iter()
                    .filter(|&&a| set.contains(a))
                    .count();
                black_box(hits)
            })
        });
    }

    // `distinct_sources` over one bin's keys, every source about twice:
    // sources a /24 apart in no order; sources crafted to share the first
    // radix digit (equal low 11 bits); and runs of 128 hosts inside one /24
    // after another — what a NAT pool or a subnet of bots sends, and
    // `bench_e2e`'s fan-out. A different bin every iteration, so a
    // comparison sort meets its branches as it does in the stream, not as
    // it has memorised them.
    let scattered = |bin: u32, k: u32| (k * 769 + bin * 7919) % 1201 + bin * 1201;
    type Shape<'a> = (&'a str, &'a dyn Fn(u32, u32) -> u32);
    let shapes: [Shape; 3] = [
        ("spread", &|bin, k| 0x1E00_0000 + scattered(bin, k) * 977),
        ("crafted", &|bin, k| scattered(bin, k) << 11 | 0x2A5),
        ("subnets", &|bin, k| {
            let subnet = (bin * 19 + k / 128 % 10) * 7919 % 65_536;
            0x1E00_0000 | (subnet << 8) | (k % 128 * 37 % 256)
        }),
    ];
    for (name, address) in shapes {
        let bins: Vec<Vec<u64>> = (0..64)
            .map(|bin| (0..2400).map(|k| source_key(address(bin, k), 1)).collect())
            .collect();
        let mut next = 0;
        c.bench_function(&format!("distinct_sources_2400_{name}"), |b| {
            b.iter(|| {
                next = (next + 1) % bins.len();
                let mut keys = black_box(&bins[next]).clone();
                black_box(distinct_sources(&mut keys))
            })
        });
    }

    // The CDet feed's write: six signature channels out of one bin.
    let bin = bin_with_flows(2400);
    let mut volumes = VolumeStore::new(1);
    c.bench_function("volume_record_2400flows", |b| {
        b.iter(|| volumes.record(black_box(&bin)))
    });
}

/// One minute of a carpet bomb: every customer hit by the same `shared`
/// attacker /24s plus 16 of its own, so every pair of neighbourhoods
/// overlaps.
fn record_carpet(tracker: &mut ClusteringTracker, minute: u32, customers: &[Ipv4], shared: u32) {
    for (i, &customer) in customers.iter().enumerate() {
        for s in 0..shared {
            tracker.record(minute, Subnet24(0x2D_0000 + s), customer);
        }
        for s in 0..16 {
            tracker.record(minute, Subnet24(0x2E_0000 + i as u32 * 16 + s), customer);
        }
    }
}

fn bench_clustering_coefficients(c: &mut Criterion) {
    // The read follows the number of overlapping peers (80 → 320), not the
    // size of the neighbourhoods (64 → 512 shared attackers).
    for (n, shared) in [(80u32, 64u32), (320, 64), (80, 512)] {
        let customers: Vec<Ipv4> = (0..n)
            .map(|i| Ipv4::from_octets(20, (i >> 8) as u8, i as u8, 1))
            .collect();
        let mut tracker = ClusteringTracker::new(60);
        record_carpet(&mut tracker, 0, &customers, shared);
        let name = format!("clustering_coefficients_{n}customers_{shared}shared");
        c.bench_function(&name, |b| {
            b.iter(|| black_box(tracker.coefficients(black_box(customers[40]))))
        });
    }
}

fn bench_clustering_writes(c: &mut Criterion) {
    // The write side of the same carpet bomb, where the cost of the read
    // went: one minute of it (80 × 80 incidences) enters an empty tracker
    // and leaves the window again, so all 6 400 edges are born and die and
    // each shared one walks the customers its attacker already reaches.
    let customers: Vec<Ipv4> = (0..80).map(|i| Ipv4::from_octets(20, 0, i, 1)).collect();
    let mut tracker = ClusteringTracker::new(60);
    let mut minute = 0;
    c.bench_function("clustering_record_expire_carpet", |b| {
        b.iter(|| {
            record_carpet(&mut tracker, minute, &customers, 64);
            minute += 61;
            tracker.expire(minute);
            black_box(tracker.edge_count())
        })
    });
}

fn bench_detection_step(c: &mut Criterion) {
    let cfg = XatuConfig::default();
    // The path that serves: one customer-minute through `observe`.
    let mut det = FleetDetector::new(XatuModel::new(&cfg), AttackType::UdpFlood, 0.5, &cfg);
    let frame = vec![0.3f64; 273];
    let mut minute = 0;
    c.bench_function("xatu_online_detection_step_h24", |b| {
        b.iter(|| {
            minute += 1;
            black_box(det.observe(Ipv4(1), minute, black_box(&frame)))
        })
    });
}

fn bench_cusum(c: &mut Criterion) {
    let mut cusum = Cusum::new(1000.0, 120.0, 1.0);
    c.bench_function("cusum_update", |b| {
        b.iter(|| black_box(cusum.push(black_box(1080.0))))
    });
}

fn bench_rf_inference(c: &mut Criterion) {
    let xs: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            (0..819)
                .map(|k| ((i * 31 + k) % 17) as f64 / 17.0)
                .collect()
        })
        .collect();
    let ys: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
    let rf = RandomForest::train(&xs, &ys, RfConfig::default());
    c.bench_function("rf_predict_proba_819d_50trees", |b| {
        b.iter(|| black_box(rf.predict_proba(black_box(&xs[0]))))
    });
}

fn bench_sampler(c: &mut Criterion) {
    let mut sampler = PacketSampler::new(100, SamplingMode::Systematic, 1);
    let flow = FlowRecord {
        minute: 0,
        src: Ipv4(1),
        dst: Ipv4(2),
        proto: Protocol::Udp,
        src_port: 1,
        dst_port: 2,
        tcp_flags: TcpFlags::default(),
        bytes: 150_000,
        packets: 200,
        sampling: 1,
    };
    c.bench_function("packet_sampler_1_in_100", |b| {
        b.iter(|| black_box(sampler.sample(black_box(flow))))
    });
}

/// One full-geometry forward+backward through the allocation-free hot
/// path (warm `ForwardTrace` + `ModelWorkspace` + `WideSample`) next to
/// the allocating compatibility API on the identical sample, so a bench
/// run shows what the arena/workspace layer buys per training step.
fn bench_warm_fwd_bwd(c: &mut Criterion) {
    use xatu_core::model::{ForwardTrace, ModelWorkspace};
    use xatu_core::sample::WideSample;
    use xatu_features::frame::NUM_FEATURES;

    let cfg = XatuConfig::default();
    let mut model = XatuModel::new(&cfg);
    let frame = |v: f32| -> Vec<f32> {
        let mut f = vec![0.0f32; NUM_FEATURES];
        f[0] = v;
        f[1] = 0.1;
        f
    };
    let sample = Sample {
        ctx: [
            vec![frame(0.02); cfg.short_len],
            vec![frame(0.02); cfg.medium_len],
            vec![frame(0.02); cfg.long_len],
        ],
        lead: Vec::new(),
        window: (0..cfg.window)
            .map(|t| frame(if t >= 4 { 1.0 + t as f32 * 0.2 } else { 0.05 }))
            .collect(),
        label: true,
        event_step: cfg.window - 1,
        anomaly_step: Some(5),
        meta: SampleMeta {
            customer: Ipv4(1),
            attack_type: xatu_netflow::attack::AttackType::UdpFlood,
            window_start: 0,
        },
    };
    let wide = WideSample::from_sample(&sample);
    let mut trace = ForwardTrace::default();
    let mut ws = ModelWorkspace::default();
    model.forward_wide(&wide, &mut trace);
    let g = safe_loss_and_grad(&trace.hazards, sample.label, sample.event_step);

    c.bench_function("fwd_bwd_warm_workspace_h24", |b| {
        b.iter(|| {
            model.forward_wide(black_box(&wide), &mut trace);
            model.backward_with(&trace, Some(&g.dl_dhazard), None, false, &mut ws);
        })
    });
    c.bench_function("fwd_bwd_allocating_compat_h24", |b| {
        b.iter(|| {
            let t = model.forward(black_box(&sample));
            black_box(model.backward(&t, Some(&g.dl_dhazard), None, false));
        })
    });
}

/// Cost of the telemetry primitives that sit on hot paths: a plain
/// counter bump, a fixed-bucket histogram observation, and a registry
/// counter add (BTreeMap lookup — phase-boundary cost, not per-packet).
/// With the `obs` feature disabled all three compile to no-ops, so this
/// bench run doubles as the "compiled-out means free" check.
fn bench_obs_primitives(c: &mut Criterion) {
    use xatu_obs::{Counter, FixedHistogram, Registry, SURVIVAL_BOUNDS};

    let mut counter = Counter::default();
    c.bench_function("obs_counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            black_box(&counter);
        })
    });

    let mut hist = FixedHistogram::new(SURVIVAL_BOUNDS);
    let mut v = 0.0f64;
    c.bench_function("obs_histogram_observe_11buckets", |b| {
        b.iter(|| {
            v = (v + 0.137) % 1.0;
            hist.observe(black_box(v));
            black_box(&hist);
        })
    });

    let mut reg = Registry::new();
    c.bench_function("obs_registry_add", |b| {
        b.iter(|| {
            reg.add(black_box("bench.counter"), 1);
            black_box(&reg);
        })
    });
}

/// The exact gate kernel (`ServingLstm::gate_block`: in-tree `sigmoid`/`tanh`
/// across the hidden lanes) on one `fleet_wide` block, and the two
/// activations alone over one row's lanes, each at the plain and the AVX2
/// instantiation of the same body.
fn bench_gate_kernel(c: &mut Criterion) {
    use xatu_nn::activations::{sigmoid, tanh};
    use xatu_nn::simd::{supported, SimdLevel};
    const BATCH: usize = 450;
    let h = 24;
    let zs: Vec<f64> = (0..BATCH * 4 * h)
        .map(|i| ((i * 37 % 101) as f64 / 101.0 - 0.5) * 6.0)
        .collect();
    let mut hs = vec![0.0f64; BATCH * h];
    let mut cs = vec![0.0f64; BATCH * h];
    let mut lstm = ServingLstm::new(&Lstm::new(273, h, &mut Initializer::new(3)));
    for level in [SimdLevel::Scalar, supported()] {
        lstm.set_simd(level);
        c.bench_function(
            &format!("gate_block_exact_{}_b450_h24", level.name()),
            |b| {
                b.iter(|| {
                    lstm.gate_block(black_box(&zs), BATCH, &mut hs, &mut cs);
                    black_box(&hs);
                })
            },
        );
    }

    #[inline(always)]
    fn map_row(f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = f(x);
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn map_row_avx2(f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
        map_row(f, xs, out);
    }
    // Generic over the activation's zero-sized fn type, so it inlines into
    // the lane loop (a `fn` pointer would not).
    #[inline(always)]
    fn map_row_at(level: SimdLevel, f: impl Fn(f64) -> f64, xs: &[f64], out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if level == SimdLevel::Avx2 {
            // SAFETY: the only `Avx2` passed in comes from `supported()`.
            unsafe { map_row_avx2(f, xs, out) };
            return;
        }
        map_row(f, xs, out);
    }
    fn row(c: &mut Criterion, name: &str, f: impl Fn(f64) -> f64 + Copy, xs: &[f64]) {
        let mut out = vec![0.0f64; xs.len()];
        for level in [SimdLevel::Scalar, supported()] {
            c.bench_function(&format!("{name}_{}_{}", xs.len(), level.name()), |b| {
                b.iter(|| {
                    map_row_at(level, f, black_box(xs), &mut out);
                    black_box(&out);
                })
            });
        }
    }
    row(c, "sigmoid_row", sigmoid, &zs[..96]);
    row(c, "tanh_row", tanh, &zs[..24]);
}

/// The lane kernel where it lives: the online step, both halves of one
/// dual row at the fleet geometry (273 -> 4 x 24), on a 14 %-dense minute
/// frame (39 nonzeros of 273) and on a pooled bucket's ~33 % (91), forced
/// scalar next to the host's widest level — and the bare kernel on the two
/// products of one row, `Wx·x` over 39 nonzero inputs and `Wh·h` over all
/// 24. Bit-identical at every level, so a pure throughput comparison.
fn bench_exact_lane_kernel(c: &mut Criterion) {
    use xatu_nn::simd::{self, SimdLevel};
    use xatu_nn::{LaneIndices, Matrix, OnlineWorkspace};
    let mut levels = vec![SimdLevel::Scalar, simd::supported()];
    levels.dedup();
    let mut init = Initializer::new(5);
    let layer = Lstm::new(273, 24, &mut init);
    let mut lstm = ServingLstm::new(&layer);
    let h = 24;
    // Every `stride`-th feature set: 1/7 is the minute frames' ~14 %,
    // 1/3 a pooled bucket's union support.
    let row = |stride: usize| -> Vec<f64> {
        (0..273)
            .map(|i| {
                if i % stride == 0 {
                    (i % 7 + 1) as f64 * 0.2
                } else {
                    0.0
                }
            })
            .collect()
    };
    let mut state = [(); 4].map(|_| vec![0.0f64; h]);
    let mut ws = OnlineWorkspace::default();
    for stride in [7, 3] {
        let x = row(stride);
        for &level in &levels {
            lstm.set_simd(level);
            let name = format!("dual_step_273x24_nnz{}_{}", 273 / stride, level.name());
            c.bench_function(&name, |b| {
                b.iter(|| {
                    let [ah, ac, fh, fc] = &mut state;
                    lstm.step_online_dual(black_box(&x), ah, ac, fh, fc, &mut ws);
                    black_box(&ah);
                })
            });
        }
    }
    let (mut wxt, mut wht) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    layer.wx().transpose_into(&mut wxt);
    layer.wh().transpose_into(&mut wht);
    let x: Vec<f64> = (0..273)
        .map(|i| {
            if i % 7 == 0 {
                0.3 + i as f64 * 1e-3
            } else {
                0.0
            }
        })
        .collect();
    let hid: Vec<f64> = (0..h).map(|i| (i as f64 * 0.37).sin()).collect();
    let (mut nz, mut all) = (LaneIndices::default(), LaneIndices::default());
    nz.set_nonzero(&x);
    all.set_all(h);
    assert_eq!(nz.count(), 39);
    let mut y = vec![0.0f64; 4 * h];
    for (name, wt, v, idx) in [("wx_nnz39", &wxt, &x, &nz), ("wh_all24", &wht, &hid, &all)] {
        for &level in &levels {
            c.bench_function(
                &format!("matvec_t_lanes_{name}_out96_{}", level.name()),
                |b| {
                    b.iter(|| {
                        wt.matvec_acc_t_lanes(black_box(v), idx, &mut y, level);
                        black_box(&y);
                    })
                },
            );
        }
    }
}

fn bench_safe_loss(c: &mut Criterion) {
    let hazards: Vec<f64> = (0..30).map(|i| 0.01 + 0.001 * i as f64).collect();
    c.bench_function("safe_loss_and_grad_30", |b| {
        b.iter(|| black_box(safe_loss_and_grad(black_box(&hazards), true, 25)))
    });
}

// ---------------------------------------------------------------------
// Data-parallel layer benches: the same seeded work at 1 thread and at 4,
// so a `cargo bench` run shows the scaling (and, because every layer is
// bit-deterministic, any thread count computes the identical result).
// ---------------------------------------------------------------------

fn parallel_bench_cfg(threads: usize) -> XatuConfig {
    XatuConfig {
        timescales: (1, 3, 6),
        short_len: 16,
        medium_len: 10,
        long_len: 6,
        window: 10,
        hidden: 12,
        epochs: 1,
        batch_size: 8,
        lr: 2e-2,
        threads,
        ..XatuConfig::smoke_test()
    }
}

fn training_dataset(c: &XatuConfig, n: usize) -> Vec<Sample> {
    use xatu_features::frame::NUM_FEATURES;
    (0..n)
        .map(|i| {
            let label = i % 2 == 0;
            let frame = |hot: f32| -> Vec<f32> {
                let mut f = vec![0.1f32; NUM_FEATURES];
                f[130] = hot;
                f
            };
            let hot = if label { 1.5 } else { 0.0 };
            Sample {
                ctx: [
                    vec![frame(hot); c.short_len],
                    vec![frame(hot); c.medium_len],
                    vec![frame(0.0); c.long_len],
                ],
                lead: Vec::new(),
                window: vec![frame(hot); c.window],
                label,
                event_step: c.window,
                anomaly_step: label.then_some(3),
                meta: SampleMeta {
                    customer: Ipv4(i as u32),
                    attack_type: xatu_netflow::attack::AttackType::UdpFlood,
                    window_start: 0,
                },
            }
        })
        .collect()
}

fn bench_training_epoch_by_threads(c: &mut Criterion) {
    for threads in [1usize, 4] {
        let cfg = parallel_bench_cfg(threads);
        let samples = training_dataset(&cfg, 48);
        c.bench_function(&format!("train_one_epoch_48samples_t{threads}"), |b| {
            b.iter(|| {
                let mut model = XatuModel::new(&cfg);
                black_box(train(&mut model, &samples, &cfg))
            })
        });
    }
}

/// The smoke pipeline's preparation at 1, 2 and 4 threads. On a 2-vCPU
/// host the `t2` row is the one to read: per-minute extraction that spawned
/// threads every minute made it 3x the `t1` row.
fn bench_prepare_by_threads(c: &mut Criterion) {
    for threads in [1usize, 2, 4] {
        c.bench_function(&format!("pipeline_prepare_smoke_t{threads}"), |b| {
            b.iter(|| {
                let mut cfg = PipelineConfig::smoke_test(3);
                cfg.xatu.threads = threads;
                black_box(Pipeline::new(cfg).prepare())
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_binner, bench_feature_extraction, bench_source_tests,
              bench_clustering_coefficients, bench_clustering_writes,
              bench_detection_step,
              bench_cusum, bench_rf_inference, bench_sampler, bench_warm_fwd_bwd,
              bench_obs_primitives, bench_safe_loss,
              bench_gate_kernel, bench_exact_lane_kernel
}
criterion_group! {
    name = parallel_benches;
    config = Criterion::default().sample_size(2);
    targets = bench_training_epoch_by_threads, bench_prepare_by_threads
}
criterion_main!(benches, parallel_benches);
