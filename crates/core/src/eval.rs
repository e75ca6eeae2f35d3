//! Evaluation plumbing: signature-volume bookkeeping, ground-truth event
//! construction (CDet alert + CUSUM onset), and per-system metric
//! computation. Survival series become alerts in [`crate::lifecycle`].

use std::collections::HashMap;
use xatu_detectors::alert::Alert;
use xatu_detectors::cusum::mark_anomaly_start;
use xatu_detectors::traits::MinuteObservation;
use xatu_metrics::areas::{integrate_areas, ScrubWindow};
use xatu_metrics::delay::{DelayObs, DelayStats};
use xatu_metrics::effectiveness::EffectivenessRecord;
use xatu_metrics::overhead::CustomerOverhead;
use xatu_metrics::percentile::percentile;
use xatu_netflow::addr::Ipv4;
use xatu_netflow::attack::AttackType;
use xatu_netflow::binning::MinuteFlows;

/// Per-(customer, type) per-minute signature-matching volumes.
/// ~24 customers × 6 types × 40 k minutes × 8 B ≈ 46 MB for an offline
/// period. A series starts at the first minute its channel carries volume
/// and is allocated from there to the period's end; it grows when a later
/// minute is recorded (a stream has no last minute), moves its start back
/// when an earlier one is, and reads `0.0` outside what it holds. A router's
/// minutes count its uptime, so a channel first seen after a month holds
/// cells from that month on, not from minute 0.
#[derive(Clone)]
pub struct VolumeStore {
    /// The period: what [`VolumeStore::new`] was given, or one past the
    /// newest minute recorded if that is later.
    total_minutes: usize,
    /// (customer, type) → its series.
    series: HashMap<(Ipv4, AttackType), Series>,
}

/// One channel's `[bytes, packets]` per minute: `cells[i]` is minute
/// `base + i`.
#[derive(Clone)]
struct Series {
    base: usize,
    cells: Vec<[f32; 2]>,
}

impl Series {
    fn get(&self, minute: usize) -> Option<&[f32; 2]> {
        self.cells.get(minute.checked_sub(self.base)?)
    }

    /// The cell of `minute`, moving the start back or growing the end to
    /// reach it.
    fn cell_mut(&mut self, minute: usize) -> &mut [f32; 2] {
        if minute < self.base {
            let before = self.base - minute;
            self.cells
                .splice(0..0, std::iter::repeat_n([0.0; 2], before));
            self.base = minute;
        }
        let i = minute - self.base;
        if self.cells.len() <= i {
            self.cells.resize(i + 1, [0.0; 2]);
        }
        &mut self.cells[i]
    }
}

const BYTES: usize = 0;
const PACKETS: usize = 1;

impl VolumeStore {
    /// Creates a store whose series are sized to run to `total_minutes`.
    pub fn new(total_minutes: u32) -> Self {
        VolumeStore {
            total_minutes: total_minutes as usize,
            series: HashMap::new(),
        }
    }

    /// Records one customer-minute bin: accumulates signature-matching
    /// volume for every attack type.
    pub fn record(&mut self, bin: &MinuteFlows) {
        let minute = bin.minute as usize;
        self.total_minutes = self.total_minutes.max(minute + 1);
        // One walk of the bin feeds all six channels; each channel still
        // sums its flows in arrival order, so every cell keeps its bits.
        let signatures = AttackType::ALL.map(AttackType::signature);
        let mut sums = [[0.0f64; 2]; AttackType::ALL.len()];
        for f in &bin.flows {
            let (b, p) = (f.est_bytes() as f64, f.est_packets() as f64);
            for (sum, sig) in sums.iter_mut().zip(&signatures) {
                if sig.matches(f) {
                    sum[BYTES] += b;
                    sum[PACKETS] += p;
                }
            }
        }
        for (ty, sum) in AttackType::ALL.into_iter().zip(sums) {
            if sum[BYTES] > 0.0 {
                let total = self.total_minutes;
                let cell = self
                    .series
                    .entry((bin.customer, ty))
                    .or_insert_with(|| Series {
                        base: minute,
                        cells: vec![[0.0; 2]; total - minute],
                    })
                    .cell_mut(minute);
                cell[BYTES] += sum[BYTES] as f32;
                cell[PACKETS] += sum[PACKETS] as f32;
            }
        }
    }

    /// `[bytes, packets]` at one minute; zero for a channel never recorded
    /// or outside its series.
    fn at(&self, customer: Ipv4, ty: AttackType, minute: u32) -> [f64; 2] {
        self.series
            .get(&(customer, ty))
            .and_then(|series| series.get(minute as usize))
            .map_or([0.0; 2], |cell| cell.map(f64::from))
    }

    /// Bytes at one minute.
    pub fn bytes_at(&self, customer: Ipv4, ty: AttackType, minute: u32) -> f64 {
        self.at(customer, ty, minute)[BYTES]
    }

    /// Packets at one minute.
    pub fn packets_at(&self, customer: Ipv4, ty: AttackType, minute: u32) -> f64 {
        self.at(customer, ty, minute)[PACKETS]
    }

    /// What a volumetric detector observes of `customer` at `minute`: one
    /// observation per signature channel, in [`AttackType::ALL`] order.
    pub fn channels(&self, customer: Ipv4, minute: u32) -> [MinuteObservation; 6] {
        AttackType::ALL.map(|attack_type| {
            let [bytes, packets] = self.at(customer, attack_type, minute);
            MinuteObservation {
                minute,
                customer,
                attack_type,
                bytes,
                packets,
            }
        })
    }

    /// `[start, end)` clipped to the period: the recorded cells inside it,
    /// where the first of them falls in the range, and the range's length.
    /// Cells before a series' start or past its end (or of a channel never
    /// recorded) are zero and are not in the slice.
    fn recorded(
        &self,
        customer: Ipv4,
        ty: AttackType,
        start: u32,
        end: u32,
    ) -> (&[[f32; 2]], usize, usize) {
        let end = (end as usize).min(self.total_minutes);
        let start = (start as usize).min(end);
        let len = end - start;
        let Some(series) = self.series.get(&(customer, ty)) else {
            return (&[], 0, len);
        };
        let lo = start.max(series.base);
        let hi = end.min(series.base + series.cells.len());
        if lo >= hi {
            return (&[], 0, len);
        }
        (
            &series.cells[lo - series.base..hi - series.base],
            lo - start,
            len,
        )
    }

    /// Bytes as f64 over a range (clipped to the period).
    pub fn bytes_range(&self, customer: Ipv4, ty: AttackType, start: u32, end: u32) -> Vec<f64> {
        let (cells, at, len) = self.recorded(customer, ty, start, end);
        let mut out = vec![0.0; len];
        for (o, cell) in out[at..].iter_mut().zip(cells) {
            *o = f64::from(cell[BYTES]);
        }
        out
    }

    /// True if the signature volume at `minute` clearly exceeds the
    /// trailing baseline (mean over [minute−180, minute−60)) — the
    /// corroboration a scrubbing centre, or an auto-regressive tracker
    /// update, asks for before treating matching traffic as attack traffic.
    pub fn is_anomalous(&self, customer: Ipv4, ty: AttackType, minute: u32) -> bool {
        let now = self.bytes_at(customer, ty, minute);
        if now <= 0.0 {
            return false;
        }
        let start = minute.saturating_sub(180);
        let end = minute.saturating_sub(60).max(start);
        if end <= start {
            return true; // not enough history to judge; trust the alert
        }
        // The cells the series lacks on either side of the stored slice are
        // `+0.0`, which a sum of non-negative terms from `+0.0` does not
        // notice; the mean still divides by the whole window.
        let (cells, _, len) = self.recorded(customer, ty, start, end);
        let sum = cells.iter().fold(0.0, |s, cell| s + f64::from(cell[BYTES]));
        let mean = sum / len as f64;
        now > 4.0 * mean + 1e5
    }

    /// Cells allocated across every series.
    #[cfg(test)]
    fn cells_allocated(&self) -> usize {
        self.series.values().map(|s| s.cells.capacity()).sum()
    }
}

/// A ground-truth event: a CDet alert back-annotated with its CUSUM onset.
#[derive(Clone, Copy, Debug)]
pub struct GtEvent {
    /// Victim customer.
    pub customer: Ipv4,
    /// Attack type from the CDet alert.
    pub attack_type: AttackType,
    /// CUSUM-marked anomaly onset (§2.3 / Appendix A).
    pub anomaly_start: u32,
    /// CDet alert minute.
    pub cdet_detected: u32,
    /// CDet mitigation-end minute.
    pub mitigation_end: u32,
}

impl GtEvent {
    /// Ground-truth anomalous duration in minutes.
    pub fn duration(&self) -> u32 {
        self.mitigation_end.saturating_sub(self.anomaly_start)
    }
}

/// Builds ground-truth events from completed CDet alerts using retroactive
/// CUSUM onset marking over the stored volumes.
pub fn build_ground_truth(alerts: &[Alert], volumes: &VolumeStore) -> Vec<GtEvent> {
    alerts
        .iter()
        .filter_map(|a| {
            let end = a.mitigation_end?;
            let lookback = a.detected_at.saturating_sub(180);
            let series = volumes.bytes_range(a.customer, a.attack_type, lookback, end);
            let onset = mark_anomaly_start(&series, lookback, a.detected_at, a.attack_type);
            Some(GtEvent {
                customer: a.customer,
                attack_type: a.attack_type,
                anomaly_start: onset,
                cdet_detected: a.detected_at,
                mitigation_end: end,
            })
        })
        .collect()
}

/// One detection system's alert intervals keyed by (customer, type).
pub type SystemAlerts = HashMap<(Ipv4, AttackType), Vec<(u32, u32)>>;

/// Converts an [`Alert`] list into interval form (open alerts closed at
/// `close_at`).
pub fn intervals_of(alerts: &[Alert], close_at: u32) -> SystemAlerts {
    let mut map: SystemAlerts = HashMap::new();
    for a in alerts {
        map.entry((a.customer, a.attack_type))
            .or_default()
            .push((a.detected_at, a.mitigation_end.unwrap_or(close_at)));
    }
    for v in map.values_mut() {
        v.sort_unstable();
    }
    map
}

/// Full evaluation of one system against ground truth over
/// `[eval_start, eval_end)`.
#[derive(Clone, Debug)]
pub struct SystemEval {
    /// System display name.
    pub name: String,
    /// Per-event effectiveness records.
    pub records: Vec<EffectivenessRecord>,
    /// Detection delays (miss-penalized).
    pub delay: DelayStats,
    /// Cumulative per-customer overhead.
    pub overhead: CustomerOverhead,
    /// Events detected / total.
    pub detected: usize,
}

/// How many minutes before the anomaly onset an alert still counts as
/// detecting that event (rather than as extraneous scrubbing of an
/// unrelated blip). Matches the paper's Fig 3 sweep range.
pub const EARLY_CREDIT: u32 = 15;

/// Evaluates a system's alert intervals against ground truth.
pub fn evaluate_system(
    name: &str,
    alerts: &SystemAlerts,
    gt: &[GtEvent],
    volumes: &VolumeStore,
    eval_start: u32,
    eval_end: u32,
) -> SystemEval {
    let mut records = Vec::new();
    let mut delay = DelayStats::new();
    let mut overhead = CustomerOverhead::new();
    let mut detected = 0usize;
    // Customer ids for the overhead accumulator: low 16 bits of the IP.
    let cust_id = |c: Ipv4| c.0 & 0xFFFF;

    let in_eval = |e: &GtEvent| e.cdet_detected >= eval_start && e.cdet_detected < eval_end;

    for e in gt.iter().filter(|e| in_eval(e)) {
        let windows: Vec<ScrubWindow> = alerts
            .get(&(e.customer, e.attack_type))
            .map(|v| {
                v.iter()
                    .map(|&(s, t)| ScrubWindow { start: s, end: t })
                    .collect()
            })
            .unwrap_or_default();
        // Detection time: the earliest minute of the credited span that a
        // scrub window covers. A window opened before the span detects at
        // the span's start: an alert open for weeks does not detect the
        // event weeks early.
        let credit_start = e.anomaly_start.saturating_sub(EARLY_CREDIT);
        let det = windows
            .iter()
            .filter(|w| w.start < e.mitigation_end && w.end > credit_start)
            .map(|w| w.start.max(credit_start))
            .min();
        match det {
            Some(d) => {
                detected += 1;
                delay.push(DelayObs::Detected(d as f64 - e.anomaly_start as f64));
            }
            None => delay.push(DelayObs::Missed(e.duration())),
        }
        let base = credit_start;
        let volume = volumes.bytes_range(e.customer, e.attack_type, base, e.mitigation_end);
        let areas = integrate_areas(&volume, base, e.anomaly_start, e.mitigation_end, &windows);
        overhead.add(cust_id(e.customer), &areas);
        records.push(EffectivenessRecord {
            customer: cust_id(e.customer),
            attack_type: e.attack_type.index(),
            duration_min: e.duration(),
            areas,
        });
    }

    // False-alert overhead: scrubbed volume outside every ground-truth
    // anomaly span and outside every credited pre-onset span.
    for (&(customer, ty), intervals) in alerts {
        let spans: Vec<(u32, u32)> = gt
            .iter()
            .filter(|e| e.customer == customer && e.attack_type == ty)
            .map(|e| {
                (
                    e.anomaly_start.saturating_sub(EARLY_CREDIT),
                    e.mitigation_end,
                )
            })
            .collect();
        let mut extraneous = 0.0;
        for &(s, t) in intervals {
            for m in s.max(eval_start)..t.min(eval_end) {
                if !spans.iter().any(|&(a, b)| m >= a && m < b) {
                    extraneous += volumes.bytes_at(customer, ty, m);
                }
            }
        }
        if extraneous > 0.0 {
            overhead.add_false_alert(cust_id(customer), extraneous);
        }
    }

    SystemEval {
        name: name.to_string(),
        records,
        delay,
        overhead,
        detected,
    }
}

impl SystemEval {
    /// Effectiveness values per event.
    pub fn effectiveness_values(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.areas.effectiveness())
            .collect()
    }

    /// Events first detected at most `window` minutes after their onset.
    /// A detection inside the early credit (a negative delay) counts.
    pub fn timely(&self, window: u32) -> usize {
        let window = f64::from(window);
        self.delay
            .detected_values()
            .into_iter()
            .filter(|&d| d <= window)
            .count()
    }

    /// Median delay over the detected events (nearest rank); NaN when
    /// none was detected.
    pub fn median_delay(&self) -> f64 {
        percentile(&self.delay.detected_values(), 50.0).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xatu_netflow::record::{FlowRecord, Protocol, TcpFlags};

    fn udp_bin(minute: u32, customer: Ipv4, bytes: u64) -> MinuteFlows {
        MinuteFlows {
            minute,
            customer,
            flows: vec![FlowRecord {
                minute,
                src: Ipv4(9),
                dst: customer,
                proto: Protocol::Udp,
                src_port: 4000,
                dst_port: 5000,
                tcp_flags: TcpFlags::default(),
                bytes,
                packets: bytes / 100,
                sampling: 1,
            }],
        }
    }

    #[test]
    fn volume_store_accumulates_per_signature() {
        let mut vs = VolumeStore::new(10);
        let c = Ipv4(1);
        vs.record(&udp_bin(3, c, 500));
        assert_eq!(vs.bytes_at(c, AttackType::UdpFlood, 3), 500.0);
        // UDP flow without src port 53 does not match DNS amp.
        assert_eq!(vs.bytes_at(c, AttackType::DnsAmplification, 3), 0.0);
        assert_eq!(vs.bytes_at(c, AttackType::UdpFlood, 4), 0.0);
        assert_eq!(
            vs.bytes_range(c, AttackType::UdpFlood, 2, 5),
            vec![0.0, 500.0, 0.0]
        );
    }

    #[test]
    fn volume_store_grows_past_the_period_it_was_sized_for() {
        let mut vs = VolumeStore::new(10);
        let c = Ipv4(1);
        vs.record(&udp_bin(9, c, 100));
        // Both sides of the old bound: minute 10 used to index out of range.
        assert_eq!(vs.bytes_at(c, AttackType::UdpFlood, 10), 0.0);
        assert_eq!(vs.packets_at(c, AttackType::UdpFlood, u32::MAX), 0.0);
        vs.record(&udp_bin(10, c, 300));
        vs.record(&udp_bin(25, Ipv4(2), 700));
        assert_eq!(vs.bytes_at(c, AttackType::UdpFlood, 9), 100.0);
        assert_eq!(vs.bytes_at(c, AttackType::UdpFlood, 10), 300.0);
        assert_eq!(vs.packets_at(c, AttackType::UdpFlood, 10), 3.0);
        assert_eq!(vs.bytes_at(Ipv4(2), AttackType::UdpFlood, 25), 700.0);
        // The period follows the newest recorded minute; a shorter series
        // reads zero up to it.
        assert_eq!(
            vs.bytes_range(c, AttackType::UdpFlood, 8, 40),
            [vec![0.0, 100.0, 300.0], vec![0.0; 15]].concat()
        );
        let udp = vs.channels(c, 10)[AttackType::UdpFlood.index()];
        assert_eq!(
            (udp.minute, udp.customer, udp.bytes, udp.packets),
            (10, c, 300.0, 3.0)
        );
    }

    /// `VolumeStore::record` and `is_anomalous` as they were before the
    /// one-walk, one-map store: a walk of the bin per attack type into two
    /// parallel maps, and a trailing mean over an allocated `bytes_range`.
    /// Frozen; the live store is held to it bit for bit.
    #[derive(Default)]
    struct SixWalkStore {
        total_minutes: usize,
        bytes: HashMap<(Ipv4, AttackType), Vec<f32>>,
        packets: HashMap<(Ipv4, AttackType), Vec<f32>>,
    }

    impl SixWalkStore {
        fn record(&mut self, bin: &MinuteFlows) {
            fn cell(series: &mut Vec<f32>, minute: usize) -> &mut f32 {
                if series.len() <= minute {
                    series.resize(minute + 1, 0.0);
                }
                &mut series[minute]
            }
            let minute = bin.minute as usize;
            self.total_minutes = self.total_minutes.max(minute + 1);
            for ty in AttackType::ALL {
                let sig = ty.signature();
                let mut b = 0.0f64;
                let mut p = 0.0f64;
                for f in &bin.flows {
                    if sig.matches(f) {
                        b += f.est_bytes() as f64;
                        p += f.est_packets() as f64;
                    }
                }
                if b > 0.0 {
                    let key = (bin.customer, ty);
                    let total = self.total_minutes;
                    let bytes = self.bytes.entry(key).or_insert_with(|| vec![0.0; total]);
                    *cell(bytes, minute) += b as f32;
                    let packets = self.packets.entry(key).or_insert_with(|| vec![0.0; total]);
                    *cell(packets, minute) += p as f32;
                }
            }
        }

        fn read(series: Option<&Vec<f32>>, minute: u32) -> f64 {
            series
                .and_then(|v| v.get(minute as usize))
                .map_or(0.0, |&x| x as f64)
        }

        fn bytes_range(&self, key: (Ipv4, AttackType), start: u32, end: u32) -> Vec<f64> {
            let end = (end as usize).min(self.total_minutes);
            let start = (start as usize).min(end);
            let mut out = vec![0.0; end - start];
            if let Some(series) = self.bytes.get(&key) {
                let recorded = series.get(start..end.min(series.len())).unwrap_or(&[]);
                for (o, &x) in out.iter_mut().zip(recorded) {
                    *o = x as f64;
                }
            }
            out
        }

        fn is_anomalous(&self, key: (Ipv4, AttackType), minute: u32) -> bool {
            let now = Self::read(self.bytes.get(&key), minute);
            if now <= 0.0 {
                return false;
            }
            let start = minute.saturating_sub(180);
            let end = minute.saturating_sub(60).max(start);
            if end <= start {
                return true;
            }
            let base = self.bytes_range(key, start, end);
            let mean = base.iter().sum::<f64>() / base.len() as f64;
            now > 4.0 * mean + 1e5
        }
    }

    /// A flow decoded from one random word: every protocol, the DNS source
    /// port, every flag combination, sampled and unsampled.
    fn flow_from(w: u64, minute: u32, customer: Ipv4) -> FlowRecord {
        FlowRecord {
            minute,
            src: Ipv4((w >> 40) as u32),
            dst: customer,
            proto: [
                Protocol::Udp,
                Protocol::Tcp,
                Protocol::Icmp,
                Protocol::Other(47),
            ][(w & 3) as usize],
            src_port: [53, 123, 4000][(w >> 2) as usize % 3],
            dst_port: 80,
            tcp_flags: TcpFlags((w >> 4) as u8 & 0x3F),
            bytes: (w >> 10) % 1_000_003,
            packets: (w >> 30) % 1_009,
            sampling: [1, 100, 1000][(w >> 8) as usize % 3],
        }
    }

    proptest::proptest! {
        /// Bins of 0–300 flows at scattered minutes, some minutes recorded
        /// twice, the last ones past the period the store was sized for.
        #[test]
        fn one_walk_store_matches_the_six_walk_reference_bitwise(
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..1500),
            sizes in proptest::collection::vec(0usize..300, 1..12),
        ) {
            const PERIOD: u32 = 400;
            let customers = [Ipv4(1), Ipv4(2)];
            let mut live = VolumeStore::new(PERIOD);
            let mut frozen = SixWalkStore { total_minutes: PERIOD as usize, ..Default::default() };
            let mut words = words.into_iter();
            let mut minutes = Vec::new();
            for (i, size) in sizes.into_iter().enumerate() {
                // Ascending with repeats, 37 apart, so trailing windows hold
                // recorded, unrecorded and out-of-series minutes.
                let minute = 150 + (i as u32 / 2) * 37 + (size as u32 % 2) * 180;
                let customer = customers[size % 2];
                let flows = words.by_ref().take(size).map(|w| flow_from(w, minute, customer)).collect();
                let bin = MinuteFlows { minute, customer, flows };
                live.record(&bin);
                frozen.record(&bin);
                minutes.push(minute);
            }
            assert_eq!(live.total_minutes, frozen.total_minutes);
            minutes.extend([0, 149, PERIOD - 1, PERIOD, 10_000]);
            for customer in customers {
                for (t, ty) in AttackType::ALL.into_iter().enumerate() {
                    let key = (customer, ty);
                    for &m in &minutes {
                        let want = [
                            SixWalkStore::read(frozen.bytes.get(&key), m),
                            SixWalkStore::read(frozen.packets.get(&key), m),
                        ];
                        let got = [live.bytes_at(customer, ty, m), live.packets_at(customer, ty, m)];
                        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{key:?} at {m}");
                        let obs = live.channels(customer, m)[t];
                        assert_eq!([obs.bytes, obs.packets].map(f64::to_bits), want.map(f64::to_bits));
                        assert_eq!(live.is_anomalous(customer, ty, m), frozen.is_anomalous(key, m));
                        let (got, want) = (
                            live.bytes_range(customer, ty, m.saturating_sub(200), m + 50),
                            frozen.bytes_range(key, m.saturating_sub(200), m + 50),
                        );
                        assert_eq!(got.len(), want.len());
                        assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
                    }
                }
            }
        }
    }

    /// A router's minutes count its uptime: a channel first recorded at
    /// minute 40 000 holds no cell before it, and every read equals the
    /// frozen minute-0 store's — across the start, after a record before
    /// it moves the start back, and with trailing windows that straddle it.
    #[test]
    fn a_series_starts_at_its_first_minute_and_reads_like_one_from_minute_zero() {
        const FIRST: u32 = 40_000;
        let c = Ipv4(1);
        let mut live = VolumeStore::new(0);
        let mut frozen = SixWalkStore::default();
        let mut record = |live: &mut VolumeStore, minute: u32, bytes: u64| {
            let bin = udp_bin(minute, c, bytes);
            live.record(&bin);
            frozen.record(&bin);
        };
        record(&mut live, FIRST, 900_000);
        assert_eq!(live.cells_allocated(), 1, "no cell before the first minute");
        for m in FIRST + 1..FIRST + 200 {
            record(&mut live, m, 20_000 + u64::from(m % 13) * 1_000);
        }
        record(&mut live, FIRST + 260, 4_000_000);
        let allocated = live.cells_allocated();
        assert!(allocated <= 2 * 261, "{allocated} cells for 261 minutes");
        // A record before the start moves it back.
        record(&mut live, FIRST - 150, 70_000);
        record(&mut live, FIRST - 3, 50_000);
        let key = (c, AttackType::UdpFlood);
        let check = |live: &VolumeStore, frozen: &SixWalkStore| {
            for m in FIRST - 400..FIRST + 500 {
                for ty in AttackType::ALL {
                    let key = (c, ty);
                    let want = [
                        SixWalkStore::read(frozen.bytes.get(&key), m),
                        SixWalkStore::read(frozen.packets.get(&key), m),
                    ];
                    let got = [live.bytes_at(c, ty, m), live.packets_at(c, ty, m)];
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{ty:?} at {m}"
                    );
                    let obs = live.channels(c, m)[ty.index()];
                    assert_eq!(
                        [obs.bytes, obs.packets].map(f64::to_bits),
                        want.map(f64::to_bits)
                    );
                    assert_eq!(
                        live.is_anomalous(c, ty, m),
                        frozen.is_anomalous(key, m),
                        "{ty:?} at {m}"
                    );
                }
                let (got, want) = (
                    live.bytes_range(c, AttackType::UdpFlood, m.saturating_sub(200), m + 50),
                    frozen.bytes_range(key, m.saturating_sub(200), m + 50),
                );
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "range at {m}"
                );
            }
        };
        check(&live, &frozen);
        assert!(live.is_anomalous(c, AttackType::UdpFlood, FIRST + 260));
        assert!(live.cells_allocated() < allocated + 200);
    }

    #[test]
    fn trailing_mean_reads_the_stored_slice() {
        // 100 kB + 4 × the mean of [minute − 180, minute − 60) is the bar.
        let c = Ipv4(1);
        let mut vs = VolumeStore::new(0);
        for m in 0..100 {
            vs.record(&udp_bin(m, c, 60_000));
        }
        vs.record(&udp_bin(220, c, 250_000));
        // Window [40, 160): 60 minutes of 60 kB, 60 of nothing → 30 kB.
        assert!(vs.is_anomalous(c, AttackType::UdpFlood, 220));
        vs.record(&udp_bin(221, c, 215_000));
        assert!(!vs.is_anomalous(c, AttackType::UdpFlood, 221));
        // No history to judge by, and no volume at all.
        assert!(vs.is_anomalous(c, AttackType::UdpFlood, 30));
        assert!(!vs.is_anomalous(c, AttackType::DnsAmplification, 220));
    }

    #[test]
    fn evaluate_perfect_system() {
        let mut vs = VolumeStore::new(100);
        let c = Ipv4(1);
        for m in 40..50 {
            vs.record(&udp_bin(m, c, 1000));
        }
        let gt = vec![GtEvent {
            customer: c,
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 45,
            mitigation_end: 50,
        }];
        let mut alerts: SystemAlerts = HashMap::new();
        alerts.insert((c, AttackType::UdpFlood), vec![(40, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        assert_eq!(eval.detected, 1);
        assert_eq!(eval.effectiveness_values(), vec![1.0]);
        assert_eq!(eval.overhead.ratios(), vec![0.0]);
        assert_eq!(eval.delay.summary().median, 0.0);
    }

    #[test]
    fn late_detection_halves_effectiveness() {
        let mut vs = VolumeStore::new(100);
        let c = Ipv4(1);
        for m in 40..50 {
            vs.record(&udp_bin(m, c, 1000));
        }
        let gt = vec![GtEvent {
            customer: c,
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 45,
            mitigation_end: 50,
        }];
        let mut alerts: SystemAlerts = HashMap::new();
        alerts.insert((c, AttackType::UdpFlood), vec![(45, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        assert_eq!(eval.effectiveness_values(), vec![0.5]);
        assert_eq!(eval.delay.summary().median, 5.0);
    }

    #[test]
    fn missed_event_counts_as_miss() {
        let vs = VolumeStore::new(100);
        let gt = vec![GtEvent {
            customer: Ipv4(1),
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 45,
            mitigation_end: 50,
        }];
        let eval = evaluate_system("x", &HashMap::new(), &gt, &vs, 0, 100);
        assert_eq!(eval.detected, 0);
        assert_eq!(eval.delay.misses(), 1);
    }

    #[test]
    fn false_alert_accrues_customer_overhead() {
        let mut vs = VolumeStore::new(100);
        let c = Ipv4(1);
        // Benign UDP traffic at minutes 10..15 scrubbed by a false alert,
        // plus a real event later so the ratio is defined.
        for m in 10..15 {
            vs.record(&udp_bin(m, c, 200));
        }
        for m in 40..50 {
            vs.record(&udp_bin(m, c, 1000));
        }
        let gt = vec![GtEvent {
            customer: c,
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 45,
            mitigation_end: 50,
        }];
        let mut alerts: SystemAlerts = HashMap::new();
        alerts.insert((c, AttackType::UdpFlood), vec![(10, 15), (40, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        // C = 5×200 = 1000; A = 10×1000 = 10000 → 0.1 cumulative.
        assert_eq!(eval.overhead.ratios(), vec![0.1]);
        assert_eq!(eval.effectiveness_values(), vec![1.0]);
    }

    #[test]
    fn early_detection_within_credit_counts() {
        let mut vs = VolumeStore::new(100);
        let c = Ipv4(1);
        for m in 35..50 {
            vs.record(&udp_bin(m, c, if m < 40 { 100 } else { 1000 }));
        }
        let gt = vec![GtEvent {
            customer: c,
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 45,
            mitigation_end: 50,
        }];
        let mut alerts: SystemAlerts = HashMap::new();
        alerts.insert((c, AttackType::UdpFlood), vec![(35, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        assert_eq!(eval.detected, 1);
        assert_eq!(eval.delay.summary().median, -5.0);
        assert_eq!(eval.effectiveness_values(), vec![1.0]);
        // Pre-onset scrubbing is the C area: 5×100 / 10×1000.
        assert!((eval.overhead.ratios()[0] - 0.05).abs() < 1e-9);
    }

    /// An alert open long before the credited span detects the event at
    /// the span's start, `EARLY_CREDIT` minutes before onset, not when it
    /// was raised.
    #[test]
    fn alert_open_before_the_credited_span_detects_at_its_start() {
        let mut vs = VolumeStore::new(100);
        let c = Ipv4(1);
        for m in 0..50 {
            vs.record(&udp_bin(m, c, if m < 40 { 100 } else { 1000 }));
        }
        let gt = vec![GtEvent {
            customer: c,
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 45,
            mitigation_end: 50,
        }];
        let mut alerts: SystemAlerts = HashMap::new();
        alerts.insert((c, AttackType::UdpFlood), vec![(2, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        assert_eq!(eval.detected, 1);
        assert_eq!(eval.delay.summary().median, -f64::from(EARLY_CREDIT));
        assert_eq!(eval.effectiveness_values(), vec![1.0]);
    }

    /// The event is typed: a scrub window of another type on the same
    /// victim, open across the whole span, does not detect it.
    #[test]
    fn another_types_alert_on_the_same_victim_does_not_detect() {
        let mut vs = VolumeStore::new(100);
        let c = Ipv4(1);
        for m in 40..50 {
            vs.record(&udp_bin(m, c, 1000));
        }
        let gt = vec![GtEvent {
            customer: c,
            attack_type: AttackType::UdpFlood,
            anomaly_start: 40,
            cdet_detected: 40,
            mitigation_end: 50,
        }];
        let mut alerts: SystemAlerts = HashMap::new();
        alerts.insert((c, AttackType::TcpSyn), vec![(38, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        assert_eq!(eval.detected, 0);
        assert_eq!(eval.delay.misses(), 1);
        assert_eq!(eval.timely(15), 0);
        assert!(eval.median_delay().is_nan());
        alerts.insert((c, AttackType::UdpFlood), vec![(44, 50)]);
        let eval = evaluate_system("x", &alerts, &gt, &vs, 0, 100);
        assert_eq!((eval.detected, eval.median_delay()), (1, 4.0));
    }

    /// `timely(window)` counts a first detection `window` minutes after
    /// onset, not one a minute later, and counts a detection inside the
    /// early credit.
    #[test]
    fn timely_counts_detections_within_the_window_of_onset() {
        let c = |k: u32| Ipv4(k);
        let mut gt = Vec::new();
        let mut alerts: SystemAlerts = HashMap::new();
        // Delays 15 (== window), 16 (window + 1) and -10 (early credit).
        for (k, raised) in [(1, 115), (2, 116), (3, 90)] {
            gt.push(GtEvent {
                customer: c(k),
                attack_type: AttackType::UdpFlood,
                anomaly_start: 100,
                cdet_detected: 105,
                mitigation_end: 200,
            });
            alerts.insert((c(k), AttackType::UdpFlood), vec![(raised, 200)]);
        }
        let eval = evaluate_system("x", &alerts, &gt, &VolumeStore::new(300), 0, 300);
        assert_eq!(eval.detected, 3);
        assert_eq!(eval.delay.detected_values(), [15.0, 16.0, -10.0]);
        assert_eq!(eval.timely(15), 2);
        assert_eq!(eval.timely(16), 3);
        assert_eq!(eval.timely(0), 1);
        assert_eq!(eval.median_delay(), 15.0);
    }

    #[test]
    fn ground_truth_onset_is_marked_before_detection() {
        let mut vs = VolumeStore::new(400);
        let c = Ipv4(1);
        for m in 0..400 {
            let bytes = if (370..395).contains(&m) {
                50_000
            } else {
                1_000
            };
            vs.record(&udp_bin(m, c, bytes));
        }
        let alerts = vec![Alert {
            customer: c,
            attack_type: AttackType::UdpFlood,
            detected_at: 380,
            mitigation_end: Some(395),
        }];
        let gt = build_ground_truth(&alerts, &vs);
        assert_eq!(gt.len(), 1);
        assert!(
            (368..=372).contains(&gt[0].anomaly_start),
            "onset {}",
            gt[0].anomaly_start
        );
    }
}
