//! Seed-derived input generation: one minute of per-customer flows at a
//! time, from a clean, composed or fault-injected [`World`].
//!
//! Everything random here descends from the single `--seed`: the world,
//! the fan-out, the fault schedule and the reference-customer sample each
//! get their own stream through [`stream_seed`]. The library layers never
//! see the seed, only the generated flows.

use crate::workloads::{Kind, Spec};
use xatu_netflow::addr::Ipv4;
use xatu_netflow::binning::MinuteFlows;
use xatu_netflow::record::FlowRecord;
use xatu_simnet::{compose, FaultSchedule, FaultedWorld, ScenarioFamily, World, WorldConfig};

/// SplitMix64 finalizer: the one mixing function behind every stream.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of generator stream `tag` under the run's `--seed`.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag))
}

const STREAM_WORLD: u64 = 1;
const STREAM_FANOUT: u64 = 2;
const STREAM_FAULTS: u64 = 3;
const STREAM_SAMPLE: u64 = 4;

/// What the collector was handed for one minute: one bin per customer in
/// customer order (a lost export is an empty bin with `present == false`),
/// and whether the CDet alert feed was up.
pub struct MinuteInput {
    pub minute: u32,
    pub bins: Vec<MinuteFlows>,
    pub present: Vec<bool>,
    pub cdet_up: bool,
}

enum Source {
    Clean(World),
    Faulted(FaultedWorld),
}

/// The replayer's input side for one pass of one workload.
pub struct Generator {
    source: Source,
    fanout: u32,
    fanout_seed: u64,
    /// First minute the replayer streams (warm-up starts here).
    pub start_minute: u32,
}

impl Generator {
    /// Builds the workload's world under `seed` and steps it, discarding
    /// the output, up to the first streamed minute.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let base = WorldConfig {
            seed: stream_seed(seed, STREAM_WORLD),
            n_customers: spec.customers,
            ..WorldConfig::default()
        };
        let streamed = spec.warmup_minutes + spec.timed_minutes;
        let (source, start_minute) = match spec.kind {
            Kind::IspDense => {
                let cfg = WorldConfig {
                    sampling_rate: 1,
                    ..base
                };
                (Source::Clean(World::new(cfg)), 0)
            }
            Kind::FleetWide => (Source::Clean(World::new(base)), 0),
            Kind::AttackStorm => {
                // One simulated day is the shortest period the composer
                // accepts with head room after the onset; the carpet bomb
                // then starts at minute 864 and the world is stepped there.
                let cfg = WorldConfig { days: 1, ..base };
                let composed = compose(ScenarioFamily::CarpetBomb, &cfg);
                let onset = composed
                    .spans
                    .iter()
                    .map(|s| s.onset)
                    .min()
                    .expect("a carpet bomb has one span per customer");
                let lead = spec.warmup_minutes + spec.lead_minutes;
                assert!(
                    onset >= lead,
                    "composed onset {onset} leaves no room for {lead} lead minutes"
                );
                let start = onset - lead;
                let mut world = composed.world;
                while world.minute() < start {
                    world.step();
                }
                (Source::Clean(world), start)
            }
            Kind::DegradedFeed => {
                let world = World::new(base);
                // The builtin plan is laid out over the timed span and then
                // shifted past the warm-up, so every fault family fires
                // inside the measurement.
                let mut schedule =
                    FaultSchedule::builtin("everything", spec.timed_minutes, spec.customers)
                        .expect("\"everything\" is a builtin schedule");
                for w in &mut schedule.windows {
                    w.start += spec.warmup_minutes;
                    w.end += spec.warmup_minutes;
                }
                schedule.seed = stream_seed(seed, STREAM_FAULTS);
                (Source::Faulted(FaultedWorld::new(world, schedule)), 0)
            }
        };
        let g = Generator {
            source,
            fanout: spec.fanout,
            fanout_seed: stream_seed(seed, STREAM_FANOUT),
            start_minute,
        };
        assert!(
            g.world().total_minutes() >= start_minute + streamed,
            "world too short for {streamed} streamed minutes"
        );
        g
    }

    /// The underlying world (customers, blocklist feed, routed prefixes).
    pub fn world(&self) -> &World {
        match &self.source {
            Source::Clean(w) => w,
            Source::Faulted(fw) => fw.world(),
        }
    }

    /// Late arrivals the fault layer says it delivered so far (0 on clean
    /// sources). These are the flows the binner must drop.
    pub fn flows_delivered_late(&self) -> u64 {
        match &self.source {
            Source::Clean(_) => 0,
            Source::Faulted(fw) => fw.obs().flows_delivered_late.get(),
        }
    }

    /// Generates the next minute.
    pub fn next_minute(&mut self) -> MinuteInput {
        let mut input = match &mut self.source {
            Source::Clean(w) => {
                let minute = w.minute();
                let bins = w.step();
                MinuteInput {
                    minute,
                    present: vec![true; bins.len()],
                    bins,
                    cdet_up: true,
                }
            }
            Source::Faulted(fw) => {
                let d = fw.step();
                MinuteInput {
                    minute: d.minute,
                    bins: d.bins,
                    present: d.present,
                    cdet_up: d.cdet_up,
                }
            }
        };
        if self.fanout > 1 {
            for bin in &mut input.bins {
                let mut out = Vec::with_capacity(bin.flows.len() * self.fanout as usize / 2);
                for f in &bin.flows {
                    fan_out(f, self.fanout, self.fanout_seed, &mut out);
                }
                bin.flows = out;
            }
        }
        input
    }
}

/// Splits one simulated flow into `k = min(k_max, packets)` wire records
/// (at least one). Sources stay inside the original /24, so blocklist,
/// previous-attacker, spoof and country classification are unchanged;
/// bytes and packets are divided evenly with the remainder on record 0, so
/// totals are conserved and every record carries at least one packet.
pub fn fan_out(flow: &FlowRecord, k_max: u32, seed: u64, out: &mut Vec<FlowRecord>) {
    let k = (k_max as u64).min(flow.packets).max(1);
    let (byte_share, byte_rem) = (flow.bytes / k, flow.bytes % k);
    let (pkt_share, pkt_rem) = (flow.packets / k, flow.packets % k);
    // An odd stride walks all 256 hosts of the /24 before repeating.
    let h = splitmix64(seed ^ ((flow.src.0 as u64) << 32 | flow.src_port as u64));
    let stride = (h as u32 & 0xFE) | 1;
    let net = flow.src.0 & 0xFFFF_FF00;
    let host = flow.src.0 & 0xFF;
    for i in 0..k as u32 {
        let first = i == 0;
        out.push(FlowRecord {
            src: Ipv4(net | ((host + i * stride) & 0xFF)),
            bytes: byte_share + if first { byte_rem } else { 0 },
            packets: pkt_share + if first { pkt_rem } else { 0 },
            ..*flow
        });
    }
}

/// A seeded sample of `k` distinct customer indices out of `n`, ascending.
pub fn sample_customers(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut deck: Vec<usize> = (0..n).collect();
    let mut state = stream_seed(seed, STREAM_SAMPLE);
    let k = k.min(n);
    for i in 0..k {
        state = splitmix64(state);
        let j = i + (state % (n - i) as u64) as usize;
        deck.swap(i, j);
    }
    deck.truncate(k);
    deck.sort_unstable();
    deck
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{spec, Scale};
    use xatu_netflow::record::{Protocol, TcpFlags};

    fn flow(bytes: u64, packets: u64) -> FlowRecord {
        FlowRecord {
            minute: 3,
            src: Ipv4::from_octets(60, 1, 2, 250),
            dst: Ipv4::from_octets(20, 0, 0, 1),
            proto: Protocol::Udp,
            src_port: 53,
            dst_port: 4444,
            tcp_flags: TcpFlags::default(),
            bytes,
            packets,
            sampling: 1,
        }
    }

    #[test]
    fn fan_out_conserves_totals_and_keeps_the_subnet() {
        for (bytes, packets) in [(1500, 1), (90_001, 77), (1_000_003, 1000), (40, 0)] {
            let f = flow(bytes, packets);
            let mut out = Vec::new();
            fan_out(&f, 128, 9, &mut out);
            assert_eq!(out.len() as u64, packets.clamp(1, 128));
            assert_eq!(out.iter().map(|r| r.bytes).sum::<u64>(), bytes);
            assert_eq!(out.iter().map(|r| r.packets).sum::<u64>(), packets);
            assert_eq!(out[0].src, f.src, "record 0 keeps the original source");
            for r in &out {
                assert_eq!(r.src.subnet24(), f.src.subnet24());
                assert_eq!(
                    (r.dst, r.proto, r.src_port, r.dst_port),
                    (f.dst, f.proto, f.src_port, f.dst_port)
                );
                assert!(packets == 0 || r.packets >= 1);
            }
        }
    }

    #[test]
    fn fan_out_spreads_sources_over_distinct_hosts() {
        let mut out = Vec::new();
        fan_out(&flow(1 << 20, 500), 128, 1, &mut out);
        let mut hosts: Vec<u32> = out.iter().map(|r| r.src.0 & 0xFF).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 128);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        for name in ["isp_dense", "fleet_wide", "attack_storm", "degraded_feed"] {
            let s = spec(name, Scale::Smoke).unwrap();
            let mut a = Generator::new(&s, 5);
            let mut b = Generator::new(&s, 5);
            let mut c = Generator::new(&s, 6);
            let mut differs = false;
            for _ in 0..4 {
                let (x, y, z) = (a.next_minute(), b.next_minute(), c.next_minute());
                assert_eq!(x.minute, y.minute);
                assert_eq!(x.present, y.present);
                for (p, q) in x.bins.iter().zip(&y.bins) {
                    assert_eq!(p.flows, q.flows, "{name}: same seed, different flows");
                }
                differs |= x.bins.iter().zip(&z.bins).any(|(p, q)| p.flows != q.flows);
            }
            assert!(differs, "{name}: seeds 5 and 6 gave the same stream");
        }
    }

    #[test]
    fn customer_sample_is_seeded_distinct_and_sorted() {
        let a = sample_customers(1, 500, 16);
        assert_eq!(a, sample_customers(1, 500, 16));
        assert_ne!(a, sample_customers(2, 500, 16));
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_customers(1, 5, 16), vec![0, 1, 2, 3, 4]);
    }
}
