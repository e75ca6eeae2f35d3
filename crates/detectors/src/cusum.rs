//! CUSUM change-point statistic (Appendix A).
//!
//! The paper uses CUSUM retrospectively to mark the ground-truth anomaly
//! start: given a CDet alert, estimate the mean/stddev of
//! signature-matching bytes from the hour *before* the alert, normalize
//! each observation as `Z_i = (x_i − μ − NUMSTD·σ) / σ`, accumulate
//! `S_n = max(0, S_{n−1} + Z_n)`, and call the first minute where the
//! cumulative sum crosses a threshold the anomaly onset. NUMSTD is 1 for
//! UDP and DNS-amplification attacks and 0.5 for the TCP and ICMP types.

use xatu_netflow::attack::AttackType;

/// A running CUSUM accumulator.
#[derive(Clone, Debug)]
pub struct Cusum {
    mean: f64,
    std: f64,
    numstd: f64,
    s: f64,
}

impl Cusum {
    /// Creates an accumulator calibrated to a baseline `mean`/`std` and the
    /// slack multiplier `numstd`. A zero `std` is clamped to a small epsilon
    /// so constant baselines still work.
    pub fn new(mean: f64, std: f64, numstd: f64) -> Self {
        Cusum {
            mean,
            std: std.max(1e-9),
            numstd,
            s: 0.0,
        }
    }

    /// Feeds one observation; returns the updated cumulative sum.
    pub fn push(&mut self, x: f64) -> f64 {
        let z = (x - self.mean - self.numstd * self.std) / self.std;
        self.s = (self.s + z).max(0.0);
        self.s
    }

    /// Current cumulative sum.
    pub fn value(&self) -> f64 {
        self.s
    }

    /// Resets the statistic to zero.
    pub fn reset(&mut self) {
        self.s = 0.0;
    }
}

/// The NUMSTD parameter per attack type (Appendix A).
pub fn numstd_for(ty: AttackType) -> f64 {
    match ty {
        AttackType::UdpFlood | AttackType::DnsAmplification => 1.0,
        AttackType::TcpAck | AttackType::TcpSyn | AttackType::TcpRst | AttackType::IcmpFlood => 0.5,
    }
}

/// Threshold on the cumulative sum for declaring the onset. The paper uses
/// an "aggressive parameter … to detect minor anomalies"; a small fixed
/// threshold (in σ units) serves that role.
pub const ONSET_THRESHOLD: f64 = 3.0;

/// Length of the baseline estimation window (minutes): "the hour before the
/// attack".
pub const BASELINE_WINDOW: usize = 60;

/// Retrospectively marks the anomaly start for an alert.
///
/// * `volume` — per-minute signature-matching bytes, indexed by absolute
///   minute − `base_minute`.
/// * `base_minute` — absolute minute of `volume[0]`.
/// * `alert_minute` — when the CDet alert fired.
///
/// Baseline μ/σ come from the `BASELINE_WINDOW` minutes ending one hour
/// before nothing — i.e. from `[alert − 2h, alert − 1h)` when available,
/// else whatever earlier data exists; CUSUM is then run forward over the
/// last hour before the alert. Returns the absolute minute of onset, or
/// `alert_minute` if no crossing is found (the anomaly and the alert
/// coincide).
pub fn mark_anomaly_start(
    volume: &[f64],
    base_minute: u32,
    alert_minute: u32,
    ty: AttackType,
) -> u32 {
    let alert_idx = alert_minute.saturating_sub(base_minute) as usize;
    let alert_idx = alert_idx.min(volume.len());
    // Scan window: the hour before the alert.
    let scan_start = alert_idx.saturating_sub(BASELINE_WINDOW);
    // Baseline window: the hour before the scan window.
    let base_start = scan_start.saturating_sub(BASELINE_WINDOW);
    let baseline = &volume[base_start..scan_start];
    let (mean, std) = if baseline.is_empty() {
        (0.0, 1e-9)
    } else {
        let m = baseline.iter().sum::<f64>() / baseline.len() as f64;
        let var = baseline.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / baseline.len() as f64;
        (m, var.sqrt())
    };
    let mut cusum = Cusum::new(mean, std, numstd_for(ty));
    for (i, &x) in volume[scan_start..alert_idx].iter().enumerate() {
        if cusum.push(x) > ONSET_THRESHOLD {
            // `scan_start + i < alert_idx <= alert_minute - base_minute`:
            // the cast is lossless and the sum stays below `alert_minute`.
            return base_minute + (scan_start + i) as u32;
        }
    }
    alert_minute
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_signal_never_crosses() {
        let mut c = Cusum::new(10.0, 2.0, 1.0);
        for _ in 0..100 {
            assert!(c.push(10.0) < ONSET_THRESHOLD);
        }
    }

    #[test]
    fn sustained_increase_crosses() {
        let mut c = Cusum::new(10.0, 2.0, 1.0);
        let mut crossed = false;
        for _ in 0..10 {
            if c.push(20.0) > ONSET_THRESHOLD {
                crossed = true;
                break;
            }
        }
        assert!(crossed);
    }

    #[test]
    fn cusum_never_negative() {
        let mut c = Cusum::new(10.0, 2.0, 1.0);
        for x in [0.0, 0.0, 0.0, 100.0, 0.0, 0.0] {
            assert!(c.push(x) >= 0.0);
        }
    }

    #[test]
    fn reset_zeroes_statistic() {
        let mut c = Cusum::new(0.0, 1.0, 0.0);
        c.push(100.0);
        assert!(c.value() > 0.0);
        c.reset();
        assert_eq!(c.value(), 0.0);
    }

    #[test]
    fn marks_onset_at_sustained_step() {
        // Baseline 10 for 2 h, then a step to 40 nine minutes before alert.
        let mut volume = vec![10.0; 180];
        for v in &mut volume[171..180] {
            *v = 40.0;
        }
        let onset = mark_anomaly_start(&volume, 1000, 1180, AttackType::UdpFlood);
        // The onset is detected at/just after minute 171 (absolute 1171).
        assert!(
            (1171..=1173).contains(&onset),
            "onset={onset}, expected ~1171"
        );
    }

    #[test]
    fn no_anomaly_returns_alert_minute() {
        let volume = vec![10.0; 180];
        let onset = mark_anomaly_start(&volume, 0, 180, AttackType::TcpAck);
        assert_eq!(onset, 180);
    }

    #[test]
    fn tcp_types_are_more_sensitive() {
        // A modest bump: detected under NUMSTD 0.5 but the same bump scaled
        // differently shows TCP onset no later than UDP onset.
        let mut volume = vec![10.0; 180];
        // Noise so sigma is non-degenerate.
        for (i, v) in volume.iter_mut().enumerate() {
            *v += (i % 5) as f64;
        }
        for v in &mut volume[168..180] {
            *v += 8.0;
        }
        let udp = mark_anomaly_start(&volume, 0, 180, AttackType::UdpFlood);
        let tcp = mark_anomaly_start(&volume, 0, 180, AttackType::TcpAck);
        assert!(tcp <= udp, "tcp={tcp} udp={udp}");
    }

    #[test]
    fn short_history_is_handled() {
        // Less history than two full windows must not panic.
        let volume = vec![5.0; 30];
        let onset = mark_anomaly_start(&volume, 0, 30, AttackType::IcmpFlood);
        assert!(onset <= 30);
    }

    /// At the top of the minute range the onset is still the minute it
    /// crossed at, below the alert: nothing wraps or overflows.
    #[test]
    fn onsets_at_the_last_minutes_do_not_overflow() {
        let mut volume = vec![10.0; 180];
        for v in &mut volume[171..] {
            *v = 40.0;
        }
        let base = u32::MAX - 179;
        let onset = mark_anomaly_start(&volume, base, u32::MAX, AttackType::UdpFlood);
        assert!((base + 171..u32::MAX).contains(&onset), "onset={onset}");
        let onset = mark_anomaly_start(&volume, u32::MAX, 5, AttackType::UdpFlood);
        assert_eq!(onset, 5);
    }

    #[test]
    fn numstd_values_match_appendix() {
        assert_eq!(numstd_for(AttackType::UdpFlood), 1.0);
        assert_eq!(numstd_for(AttackType::DnsAmplification), 1.0);
        assert_eq!(numstd_for(AttackType::TcpSyn), 0.5);
        assert_eq!(numstd_for(AttackType::IcmpFlood), 0.5);
    }
}
