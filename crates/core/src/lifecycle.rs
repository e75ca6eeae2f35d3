//! One alert lifecycle and one release rule, from validation to serving.
//!
//! The paper picks each threshold on validation and serves it on test
//! (§5.3), so both halves turn a survival series into alerts through
//! [`step`]: every head's lifecycle tail and the offline scorer the
//! calibration sweep runs ([`alerts_from_score_series`]). The scrubbing
//! centre then releases Xatu's and the RF's intervals ([`scrub_release`]).
//! NetScout and FastNetMon are exempt: their alerts already end on their
//! own runs of quiet volume, and NetScout's ends *are* the ground truth's.

use crate::eval::{SystemAlerts, VolumeStore};

/// Minutes in a row that do not fire which end an open alert.
pub const QUIET_MINUTES: u32 = 5;

/// Minutes after its raise at which an alert is force-ended, to be raised
/// again the next minute if it still fires: the scrubbing centre stops
/// diverting a customer's traffic once it runs clean (§2.1).
pub const MAX_ALERT_MINUTES: u32 = 45;

/// Minutes in a row without anomalous signature volume, once some was
/// scrubbed, after which the scrubbing centre releases an alert.
pub const SCRUB_QUIET: u32 = 5;

/// Minutes after which the scrubbing centre releases an alert that has
/// shown no anomalous signature volume.
pub const SCRUB_GRACE: u32 = 15;

/// What one minute did to a (customer, type)'s alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Nothing was raised or ended.
    Hold,
    /// An alert was raised this minute.
    Raised,
    /// The alert raised at `detected_at` ended; `forced` at the cap.
    Ended { detected_at: u32, forced: bool },
}

/// One minute of the lifecycle. `active_since` is the open alert's raise
/// minute, `quiet_run` the minutes in a row it has not fired, `firing`
/// whether the minute's score is below the threshold, `fresh` whether it
/// came from a real frame: an imputed minute replays old evidence, so it
/// can end an alert but never raise one.
#[inline]
pub fn step(
    active_since: &mut Option<u32>,
    quiet_run: &mut u32,
    minute: u32,
    firing: bool,
    fresh: bool,
) -> Step {
    let Some(detected_at) = *active_since else {
        if !(firing && fresh) {
            return Step::Hold;
        }
        (*active_since, *quiet_run) = (Some(minute), 0);
        return Step::Raised;
    };
    let over_cap = minute.saturating_sub(detected_at) >= MAX_ALERT_MINUTES;
    *quiet_run = if firing && !over_cap {
        0
    } else {
        *quiet_run + 1
    };
    if *quiet_run < QUIET_MINUTES && !over_cap {
        return Step::Hold;
    }
    (*active_since, *quiet_run) = (None, 0);
    Step::Ended {
        detected_at,
        forced: over_cap,
    }
}

/// The alert intervals `[raise, end)` of a per-minute survival (or
/// `1 − p`) series from minute `base`, at `threshold`. An alert open at
/// the end closes at `base + scores.len()`, as `close_all` closes one.
pub fn alerts_from_score_series(scores: &[f32], base: u32, threshold: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut active_since, mut quiet_run) = (None, 0);
    for (minute, &s) in (base..).zip(scores) {
        // Every minute is fresh: `pipeline::close` presents every customer
        // every minute, so no head imputes one in phase B or the test run.
        let firing = f64::from(s) < threshold;
        if let Step::Ended { detected_at, .. } =
            step(&mut active_since, &mut quiet_run, minute, firing, true)
        {
            out.push((detected_at, minute));
        }
    }
    out.extend(active_since.map(|start| (start, base + scores.len() as u32)));
    out
}

/// The scrubbing centre's release (§2.1): each interval ends after
/// [`SCRUB_QUIET`] minutes in a row without anomalous signature volume
/// ([`VolumeStore::is_anomalous`]) once some was scrubbed, or after
/// [`SCRUB_GRACE`] minutes if none was. This bounds the cost of false and
/// too-early alerts the way a real scrubbing deployment does.
pub fn scrub_release(alerts: &mut SystemAlerts, volumes: &VolumeStore) {
    for (&(customer, ty), intervals) in alerts.iter_mut() {
        for (start, end) in intervals.iter_mut() {
            // Until the first anomalous minute the quiet run counts every
            // minute since the start.
            let (mut anomalous, mut quiet_run) = (false, 0);
            for m in *start..*end {
                if volumes.is_anomalous(customer, ty, m) {
                    (anomalous, quiet_run) = (true, 0);
                } else {
                    quiet_run += 1;
                }
                if quiet_run >= if anomalous { SCRUB_QUIET } else { SCRUB_GRACE } {
                    *end = m + 1;
                    break;
                }
            }
        }
        intervals.retain(|&(s, t)| t > s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{lifecycle_tail, Common, Customer, DetectorObs, Emitted};
    use crate::model::XatuModel;
    use crate::XatuConfig;
    use xatu_detectors::traits::DetectorEvent;
    use xatu_netflow::addr::Ipv4;
    use xatu_netflow::attack::AttackType;
    use xatu_survival::calibrate::threshold_grid;

    /// A served head's lifecycle tail (warm-up 0) over `scores`, read back
    /// as intervals: each `Raised` opens one, its `Ended` closes it, and
    /// an alert still open at the end closes at `base + len`, as
    /// `close_all` closes it.
    fn served_intervals(scores: &[f32], base: u32, threshold: f64) -> Vec<(u32, u32)> {
        let cfg = XatuConfig::smoke_test();
        let mut common = Common::new(XatuModel::new(&cfg), AttackType::UdpFlood, threshold, &cfg);
        common.warmup = 0;
        let k = common.knobs();
        let mut c = Customer::new(&k);
        let (mut obs, mut out) = (DetectorObs::default(), Emitted::default());
        for (minute, &s) in (base..).zip(scores) {
            lifecycle_tail(
                &k,
                &mut obs,
                &mut c,
                Ipv4(7),
                minute,
                f64::from(s),
                &mut out,
            );
        }
        let (mut open, mut intervals) = (None, Vec::new());
        for event in &out.events {
            match event {
                DetectorEvent::Raised(a) => {
                    assert_eq!(open.replace(a.detected_at), None, "raised while open");
                }
                DetectorEvent::Ended(a) => {
                    assert_eq!(open.take(), Some(a.detected_at), "ended what was not open");
                    intervals.push((a.detected_at, a.mitigation_end.expect("an end")));
                }
            }
        }
        assert_eq!(open, c.active_since);
        if let Some(start) = open {
            intervals.push((start, base + scores.len() as u32));
        }
        intervals
    }

    proptest::proptest! {
        /// Offline ≡ served: runs of values from an `f32`-exact set around
        /// a grid threshold (both sides compare the same `f64`), long
        /// enough to reach the cap, so raises, quiet ends, force-ends,
        /// re-raises on the next minute and a final open alert all occur.
        #[test]
        fn the_offline_scorer_is_the_served_lifecycle(
            pick in 0usize..24,
            base in 0u32..5000,
            words in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..24),
        ) {
            let threshold = threshold_grid(24)[pick];
            let t = threshold as f32;
            let levels = [0.0, t.next_down(), t, t.next_up(), 1.0, f32::NAN];
            let mut scores = Vec::new();
            for w in words {
                let level = levels[(w % 6) as usize];
                // Runs of 1..=70 minutes, short ones as often as long.
                let len = 1 + ((w >> 8) % 70) as usize;
                scores.extend(std::iter::repeat_n(level, len));
            }
            let offline = alerts_from_score_series(&scores, base, threshold);
            proptest::prop_assert_eq!(served_intervals(&scores, base, threshold), offline);
        }
    }

    #[test]
    fn score_series_to_alerts_lifecycle() {
        // Scores: quiet (1.0), then firing (0.1), then quiet again.
        let mut scores = vec![1.0f32; 10];
        scores.extend(vec![0.1f32; 5]);
        scores.extend(vec![1.0f32; 10]);
        let alerts = alerts_from_score_series(&scores, 100, 0.5);
        assert_eq!(alerts, vec![(110, 110 + 5 + QUIET_MINUTES - 1)]);
    }

    #[test]
    fn open_alert_is_closed_at_series_end() {
        let mut scores = vec![1.0f32; 3];
        scores.extend(vec![0.0f32; 4]);
        let alerts = alerts_from_score_series(&scores, 0, 0.5);
        assert_eq!(alerts, vec![(3, 7)]);
    }

    #[test]
    fn flapping_within_quiet_stays_one_alert() {
        let scores = vec![1.0, 0.1, 1.0, 0.1, 1.0, 0.1, 1.0, 1.0, 1.0, 1.0f32];
        let alerts = alerts_from_score_series(&scores, 0, 0.5);
        assert_eq!(alerts, vec![(1, 10)]);
    }

    /// The seed-13 shape: a threshold above the quiet survival level fires
    /// on every minute. The served head force-ends the alert at the cap and
    /// raises it again the next minute, and so does the offline scorer; it
    /// used to make one interval over the whole series, which the release
    /// cut after its grace and never re-raised.
    #[test]
    fn an_always_firing_series_is_force_ended_and_raised_again() {
        let cycle = MAX_ALERT_MINUTES + 1;
        let scores = vec![0.5f32; 4 * cycle as usize + 10];
        let alerts = alerts_from_score_series(&scores, 7, 0.9);
        assert_eq!(served_intervals(&scores, 7, 0.9), alerts);
        let mut want: Vec<(u32, u32)> = (0..4)
            .map(|k| (7 + k * cycle, 7 + k * cycle + MAX_ALERT_MINUTES))
            .collect();
        want.push((7 + 4 * cycle, 7 + scores.len() as u32));
        assert_eq!(alerts, want);
    }

    #[test]
    fn stale_input_ends_but_never_raises() {
        let (mut open, mut quiet) = (None, 0);
        assert_eq!(step(&mut open, &mut quiet, 0, true, false), Step::Hold);
        assert_eq!(step(&mut open, &mut quiet, 1, true, true), Step::Raised);
        for m in 2..1 + QUIET_MINUTES {
            assert_eq!(step(&mut open, &mut quiet, m, false, false), Step::Hold);
        }
        assert_eq!(
            step(&mut open, &mut quiet, 1 + QUIET_MINUTES, false, false),
            Step::Ended {
                detected_at: 1,
                forced: false
            }
        );
        assert_eq!((open, quiet), (None, 0));
    }
}
