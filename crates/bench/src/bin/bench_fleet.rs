//! Fleet-scale detection throughput: how many customers one box carries.
//!
//! Streams deterministic synthetic fleet traffic ([`FleetTraffic`])
//! through a [`FleetDetector`] at 1k / 10k / 100k customers and reports,
//! per scale, wall time per simulated minute, customer-minutes per
//! second, flows *summarized* per second (`flows_summarized_per_s`: the
//! flow counts behind the synthesized frames — nothing here decodes or
//! bins a flow, so it is not `bench_e2e`'s `flows_per_s`), and the
//! measured per-customer memory budget, as `BENCH_fleet_<label>.json`.
//!
//! ```text
//! cargo run --release -p xatu-bench --bin bench_fleet -- [label]
//! cargo run --release -p xatu-bench --bin bench_fleet -- --smoke
//! cargo run --release -p xatu-bench --bin bench_fleet -- --smoke-mt
//! cargo run --release -p xatu-bench --bin bench_fleet -- --digest
//! ```
//!
//! `--smoke` is the CI gate: a 1k-customer fleet is streamed at 1 and 4
//! worker threads and the FNV digests over every survival bit and every
//! lifecycle event must match exactly; then the run is killed at its
//! midpoint, checkpointed through the XCK1 container, resumed, and the
//! resumed digest must match the uninterrupted one. Exits non-zero on any
//! mismatch.
//!
//! `--smoke-mt` is the shard-edge CI gate: tiny fleets whose sizes
//! straddle the block boundaries (and `n < threads`) are streamed at
//! 1/2/4/16 worker threads and every digest must match the
//! single-threaded one.
//!
//! `--digest` prints one `exact <digest>` line and exits — CI runs it
//! twice (with and without `XATU_NO_SIMD=1`) and compares the outputs,
//! pinning SIMD/scalar bit-identity across processes.
//!
//! The sweep records the host's `available_parallelism` and detected
//! SIMD level, and adds a 100k threads sweep (1/2/4). Its speedup gate
//! only fires on hosts with ≥ 4 cores (single-core CI boxes still check
//! bit-identity); the absolute 100k wall gate always fires.

use std::time::Instant;
use xatu_core::checkpoint::{load_detector, save_detector};
use xatu_core::fleet::{FleetDetector, FleetInput};
use xatu_core::model::XatuModel;
use xatu_core::XatuConfig;
use xatu_detectors::traits::DetectorEvent;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_simnet::{FleetMinute, FleetTraffic};

const SEED: u64 = 17;

fn fnv1a64(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Builds a fleet of `n` customers around the default (paper-shape)
/// config with an untrained — but deterministic — model. Throughput does
/// not depend on the weights, and the mid-range threshold keeps the alert
/// lifecycle busy.
fn build_fleet(n: usize) -> FleetDetector {
    let cfg = XatuConfig::default();
    let model = XatuModel::new(&cfg);
    let mut fleet = FleetDetector::new(model, AttackType::UdpFlood, 0.9, &cfg);
    // Short warm-up so the alert lifecycle (raise / quiet-end) is busy
    // within bench-length streams instead of fully suppressed.
    fleet.set_warmup(8);
    for c in 0..n {
        fleet.add_customer(Ipv4(c as u32));
    }
    fleet
}

/// Streams minutes `[from, to)` through the fleet, folding every survival
/// bit and every event into an FNV digest. Returns `(digest, flows)`.
fn stream(
    fleet: &mut FleetDetector,
    traffic: &FleetTraffic,
    from: u32,
    to: u32,
    threads: usize,
) -> (u64, u64) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut flows_total = 0u64;
    for m in from..to {
        let flows = std::sync::atomic::AtomicU64::new(0);
        let events = fleet
            .step_minute_batch(m, threads, |c, _addr, frame| {
                match traffic.fill_frame(c, m, frame) {
                    FleetMinute::Frame(f) => {
                        flows.fetch_add(f, std::sync::atomic::Ordering::Relaxed);
                        FleetInput::Frame
                    }
                    FleetMinute::Missing => FleetInput::Gap,
                }
            })
            .expect("in-order fleet stream");
        for e in events {
            let (tag, a) = match e {
                DetectorEvent::Raised(a) => (1u8, a),
                DetectorEvent::Ended(a) => (2u8, a),
            };
            fnv1a64(&mut digest, &[tag]);
            fnv1a64(&mut digest, &a.customer.0.to_le_bytes());
            fnv1a64(&mut digest, &a.detected_at.to_le_bytes());
        }
        flows_total += flows.into_inner();
    }
    for &addr in fleet.addrs() {
        fnv1a64(
            &mut digest,
            &fleet.survival_of(addr).to_bits().to_le_bytes(),
        );
    }
    (digest, flows_total)
}

/// One timed scale point of the throughput sweep.
struct ScaleRow {
    customers: usize,
    minutes: u32,
    threads: usize,
    wall_s: f64,
    flows: u64,
    bytes_per_customer: usize,
    raised: u64,
    gaps_imputed: u64,
    /// FNV digest of the final timed window (events + every survival
    /// bit). Runs over the same traffic and minute range are comparable
    /// across thread counts — the bit-identity gate of the sweep.
    digest: u64,
}

impl ScaleRow {
    fn per_minute(&self) -> f64 {
        self.wall_s / self.minutes as f64
    }
}

fn run_scale(customers: usize, minutes: u32, threads: usize) -> ScaleRow {
    let traffic = &FleetTraffic::new(SEED, customers);
    let fleet = &mut build_fleet(customers);
    // Two untimed minutes to warm allocations (worker scratch, arenas,
    // and — sharded — the worker pool).
    stream(fleet, traffic, 0, 2, threads);
    // Best of three timed windows: the workload is uniform per simulated
    // minute, so the fastest window is the machine's steady-state rate and
    // the slower ones are scheduler noise.
    let mut wall_s = f64::INFINITY;
    let mut flows = 0u64;
    let mut digest = 0u64;
    let mut from = 2u32;
    for _ in 0..3 {
        let t0 = Instant::now();
        let (d, f) = stream(fleet, traffic, from, from + minutes, threads);
        let w = t0.elapsed().as_secs_f64();
        if w < wall_s {
            wall_s = w;
            flows = f;
        }
        digest = d;
        from += minutes;
    }
    ScaleRow {
        customers,
        minutes,
        threads,
        wall_s,
        flows,
        bytes_per_customer: fleet.bytes_per_customer(),
        raised: fleet.obs().raised.get(),
        gaps_imputed: fleet.obs().gaps_imputed.get(),
        digest,
    }
}

/// Formats one sweep row as the JSON object used in the `scales` arrays.
fn scale_json(r: &ScaleRow) -> String {
    let per_minute = r.per_minute();
    format!(
        "{{\"customers\": {}, \"sim_minutes\": {}, \"threads\": {}, \"wall_s\": {:.3}, \
         \"wall_s_per_sim_minute\": {:.4}, \"sim_minutes_per_s\": {:.2}, \
         \"customer_minutes_per_s\": {:.0}, \"flows_summarized_per_s\": {:.0}, \
         \"bytes_per_customer\": {}, \"alerts_raised\": {}, \"gaps_imputed\": {}}}",
        r.customers,
        r.minutes,
        r.threads,
        r.wall_s,
        per_minute,
        1.0 / per_minute,
        r.customers as f64 * r.minutes as f64 / r.wall_s,
        r.flows as f64 / r.wall_s,
        r.bytes_per_customer,
        r.raised,
        r.gaps_imputed,
    )
}

fn report_scale(r: &ScaleRow) {
    eprintln!(
        "[bench_fleet] {:>7} customers x{} threads: {:.4} s/sim-minute, \
         {:.0} customer-minutes/s, {:.0} flows summarized/s, {} B/customer, {} alerts",
        r.customers,
        r.threads,
        r.per_minute(),
        r.customers as f64 * r.minutes as f64 / r.wall_s,
        r.flows as f64 / r.wall_s,
        r.bytes_per_customer,
        r.raised,
    );
}

/// Runs the same scale at each thread count, enforcing digest equality
/// against the first (single-threaded) row, and — when the host actually
/// has `>= 4` cores — the 4-thread speedup floor. Returns the rows.
fn threads_sweep(
    customers: usize,
    minutes: u32,
    host_par: usize,
    speedup_floor: f64,
) -> Vec<ScaleRow> {
    let mut rows: Vec<ScaleRow> = Vec::new();
    for threads in [1usize, 2, 4] {
        let r = run_scale(customers, minutes, threads);
        report_scale(&r);
        if let Some(base) = rows.first() {
            if r.digest != base.digest {
                eprintln!(
                    "[bench_fleet] SWEEP DIGEST MISMATCH at {customers} customers: \
                     threads=1 ({:#x}) vs threads={threads} ({:#x})",
                    base.digest, r.digest
                );
                std::process::exit(1);
            }
        }
        rows.push(r);
    }
    let speedup = rows[0].per_minute() / rows[2].per_minute();
    eprintln!(
        "[bench_fleet] {customers} customers: 4-thread speedup {speedup:.2}x \
         (host parallelism {host_par})"
    );
    if host_par >= 4 && speedup < speedup_floor {
        eprintln!(
            "[bench_fleet] WARNING: 4-thread speedup {speedup:.2}x below \
             {speedup_floor}x on a {host_par}-core host"
        );
        std::process::exit(1);
    }
    rows
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `host` block of the output: where the numbers were taken.
fn host_json(nproc: usize, simd: xatu_nn::SimdLevel) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{ \"nproc\": {nproc}, \"simd\": \"{}\", \"cpu\": \"{cpu}\", \"arch\": \"{}\", \
         \"obs\": {} }}",
        simd.name(),
        std::env::consts::ARCH,
        xatu_obs::enabled(),
    )
}

fn smoke() {
    const N: usize = 1_000;
    const MID: u32 = 20;
    const END: u32 = 40;
    let traffic = FleetTraffic::new(SEED, N);

    // Gate 1: thread-count invariance, every survival bit and event.
    let mut f1 = build_fleet(N);
    let mut f4 = build_fleet(N);
    let (d1, _) = stream(&mut f1, &traffic, 0, END, 1);
    let (d4, _) = stream(&mut f4, &traffic, 0, END, 4);
    if d1 != d4 {
        eprintln!("[bench_fleet] DIGEST MISMATCH threads=1 ({d1:#x}) vs threads=4 ({d4:#x})");
        std::process::exit(1);
    }
    eprintln!("[bench_fleet] smoke: 1-vs-4-thread digest match ({d1:#x})");

    // Gate 2: kill/resume through the XCK1 container. The uninterrupted
    // digest must equal resume's second half (survival digests fold the
    // final state, so compare half-2 digests).
    let mut full = build_fleet(N);
    stream(&mut full, &traffic, 0, MID, 2);
    let (d_full, _) = stream(&mut full, &traffic, MID, END, 2);

    let mut killed = build_fleet(N);
    stream(&mut killed, &traffic, 0, MID, 2);
    let path = std::env::temp_dir().join("bench_fleet_smoke.xck");
    save_detector(&path, &killed.to_checkpoint()).expect("checkpoint save");
    drop(killed); // the "kill"
    let ck = load_detector(&path).expect("checkpoint load");
    let mut resumed = FleetDetector::from_checkpoint(&ck).expect("checkpoint restore");
    let (d_resumed, _) = stream(&mut resumed, &traffic, MID, END, 4);
    let _ = std::fs::remove_file(&path);
    if d_full != d_resumed {
        eprintln!(
            "[bench_fleet] RESUME MISMATCH uninterrupted ({d_full:#x}) vs resumed ({d_resumed:#x})"
        );
        std::process::exit(1);
    }
    eprintln!("[bench_fleet] smoke: kill/resume digest match ({d_full:#x})");
}

/// Shard-edge multi-thread smoke: small fleet sizes (including
/// `n < threads`), each streamed at 1/2/4/16 threads; every digest must
/// match the 1-thread reference.
fn smoke_mt() {
    const END: u32 = 40;
    for &n in &[3usize, 8, 17, 1_000] {
        let traffic = FleetTraffic::new(SEED, n);
        let mut base = build_fleet(n);
        let (d1, _) = stream(&mut base, &traffic, 0, END, 1);
        for threads in [2usize, 4, 16] {
            let mut f = build_fleet(n);
            let (dt, _) = stream(&mut f, &traffic, 0, END, threads);
            if dt != d1 {
                eprintln!(
                    "[bench_fleet] SMOKE-MT DIGEST MISMATCH n={n}: threads=1 ({d1:#x}) \
                     vs threads={threads} ({dt:#x})"
                );
                std::process::exit(1);
            }
        }
        eprintln!("[bench_fleet] smoke-mt: n={n} digests match across 1/2/4/16 threads");
    }
}

/// Prints one `exact <digest>` line and exits. CI runs this twice —
/// plain and under `XATU_NO_SIMD=1` — and diffs the output, pinning
/// SIMD/scalar bit-identity across whole processes.
fn digest_mode() {
    const N: usize = 1_000;
    const END: u32 = 40;
    let traffic = FleetTraffic::new(SEED, N);
    let mut exact = build_fleet(N);
    let (d, _) = stream(&mut exact, &traffic, 0, END, 2);
    println!("exact {d:#018x}");
    eprintln!(
        "[bench_fleet] digest mode: simd_level={}",
        xatu_nn::simd::detect().name()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if args.iter().any(|a| a == "--smoke-mt") {
        smoke_mt();
        return;
    }
    if args.iter().any(|a| a == "--digest") {
        digest_mode();
        return;
    }
    let label = args.first().map(String::as_str).unwrap_or("current");
    let host_par = host_parallelism();
    let simd_level = xatu_nn::simd::detect();
    eprintln!(
        "[bench_fleet] host parallelism {host_par}, simd level {}",
        simd_level.name()
    );

    let scales: &[(usize, u32)] = &[(1_000, 60), (10_000, 20), (100_000, 5)];
    let mut rows = String::new();
    let mut hundred_k_minute_wall = f64::NAN;
    for &(customers, minutes) in scales {
        let r = run_scale(customers, minutes, 1);
        if customers >= 100_000 {
            hundred_k_minute_wall = r.per_minute();
        }
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str("    ");
        rows.push_str(&scale_json(&r));
        report_scale(&r);
    }

    // The multi-core sweep: 100k exact at 1/2/4 threads with bit-identity
    // enforced and — on hosts that actually have the cores — a 2.5x
    // 4-thread speedup floor.
    let exact_sweep = threads_sweep(100_000, 5, host_par, 2.5);
    let exact_sweep_json = exact_sweep
        .iter()
        .map(|r| format!("      {}", scale_json(r)))
        .collect::<Vec<_>>()
        .join(",\n");

    let cfg = XatuConfig::default();
    let json = format!(
        "{{\n  \"label\": \"{label}\",\n  \"seed\": {SEED},\n  \"hidden\": {},\n  \
         \"window\": {},\n  \"host\": {},\n  \
         \"hundred_k_sim_minute_wall_s\": {hundred_k_minute_wall:.4},\n  \
         \"scales\": [\n{rows}\n  ],\n  \
         \"threads_sweep_100k\": [\n{exact_sweep_json}\n  ]\n}}\n",
        cfg.hidden,
        cfg.window,
        host_json(host_par, simd_level),
    );
    let path = format!("BENCH_fleet_{label}.json");
    std::fs::write(&path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("[bench_fleet] wrote {path}");
    // NaN (broken timer) must also fail the gate, hence not `>= 1.0` alone.
    if !hundred_k_minute_wall.is_finite() || hundred_k_minute_wall >= 1.0 {
        eprintln!(
            "[bench_fleet] WARNING: 100k-customer simulated minute took \
             {hundred_k_minute_wall:.3} s (target < 1 s)"
        );
        std::process::exit(1);
    }
}
