//! Integration of anomalous-traffic areas A, B and C.
//!
//! Given the per-minute volume of traffic matching an attack's signature,
//! the ground-truth anomaly interval `[anomaly_start, mitigation_end)`, and
//! the minutes during which traffic was diverted to the scrubber, compute:
//!
//! * `A` — total anomalous traffic (volume inside the anomaly interval),
//! * `B` — anomalous traffic that was scrubbed (inside both),
//! * `C` — extraneous scrubbed traffic (scrubbed volume outside the anomaly
//!   interval).

/// A contiguous interval of minutes during which traffic was scrubbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScrubWindow {
    /// First scrubbed minute (inclusive).
    pub start: u32,
    /// One past the last scrubbed minute (exclusive).
    pub end: u32,
}

impl ScrubWindow {
    /// True if `minute` falls inside this window.
    pub fn contains(&self, minute: u32) -> bool {
        minute >= self.start && minute < self.end
    }

    /// Length in minutes.
    pub fn len(&self) -> u32 {
        self.end.saturating_sub(self.start)
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The three areas of Fig 2, in volume units (bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AttackAreas {
    /// Anomalous traffic from anomaly start to mitigation end.
    pub a: f64,
    /// Anomalous traffic diverted to the scrubber.
    pub b: f64,
    /// Extraneous (non-anomalous-period) traffic diverted to the scrubber.
    pub c: f64,
}

impl AttackAreas {
    /// Mitigation effectiveness `B/A`; 1.0 when there was no anomalous
    /// traffic at all (nothing to miss).
    pub fn effectiveness(&self) -> f64 {
        if self.a <= 0.0 {
            1.0
        } else {
            (self.b / self.a).clamp(0.0, 1.0)
        }
    }

    /// Scrubbing overhead `C/A`; measured per attack. For the paper's
    /// cumulative per-customer form, sum numerators and denominators across
    /// attacks first (see `overhead::CustomerOverhead`).
    pub fn overhead(&self) -> f64 {
        if self.a <= 0.0 {
            if self.c > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.c / self.a
        }
    }
}

/// Integrates A, B, C for one attack.
///
/// * `volume[m]` — signature-matching bytes in minute `base_minute + m`.
/// * `anomaly_start..mitigation_end` — ground-truth anomaly interval
///   (absolute minutes).
/// * `scrub` — the scrub windows attributed to this attack (absolute
///   minutes; they may extend before the anomaly or cover none of it).
pub fn integrate_areas(
    volume: &[f64],
    base_minute: u32,
    anomaly_start: u32,
    mitigation_end: u32,
    scrub: &[ScrubWindow],
) -> AttackAreas {
    let mut areas = AttackAreas::default();
    for (i, &v) in volume.iter().enumerate() {
        let minute = base_minute + i as u32;
        let in_anomaly = minute >= anomaly_start && minute < mitigation_end;
        let scrubbed = scrub.iter().any(|w| w.contains(minute));
        if in_anomaly {
            areas.a += v;
            if scrubbed {
                areas.b += v;
            }
        } else if scrubbed {
            areas.c += v;
        }
    }
    areas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection_is_full_effectiveness_zero_overhead() {
        let volume = vec![0.0, 10.0, 10.0, 10.0, 0.0];
        let areas = integrate_areas(
            &volume,
            100,
            101,
            104,
            &[ScrubWindow {
                start: 101,
                end: 104,
            }],
        );
        assert_eq!(areas.a, 30.0);
        assert_eq!(areas.b, 30.0);
        assert_eq!(areas.c, 0.0);
        assert_eq!(areas.effectiveness(), 1.0);
        assert_eq!(areas.overhead(), 0.0);
    }

    #[test]
    fn late_detection_loses_effectiveness() {
        let volume = vec![10.0, 10.0, 10.0, 10.0];
        // Anomaly covers all four minutes; scrubbing starts half-way.
        let areas = integrate_areas(&volume, 0, 0, 4, &[ScrubWindow { start: 2, end: 4 }]);
        assert_eq!(areas.effectiveness(), 0.5);
        assert_eq!(areas.overhead(), 0.0);
    }

    #[test]
    fn early_detection_accrues_overhead() {
        let volume = vec![5.0, 5.0, 10.0, 10.0];
        // Anomaly is minutes 2..4; scrubbing from minute 0.
        let areas = integrate_areas(&volume, 0, 2, 4, &[ScrubWindow { start: 0, end: 4 }]);
        assert_eq!(areas.a, 20.0);
        assert_eq!(areas.b, 20.0);
        assert_eq!(areas.c, 10.0);
        assert_eq!(areas.effectiveness(), 1.0);
        assert!((areas.overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn missed_detection_is_zero_effectiveness() {
        let volume = vec![10.0, 10.0];
        let areas = integrate_areas(&volume, 0, 0, 2, &[]);
        assert_eq!(areas.effectiveness(), 0.0);
    }

    #[test]
    fn no_anomaly_with_scrubbing_is_infinite_per_attack_overhead() {
        let volume = vec![3.0, 3.0];
        let areas = integrate_areas(&volume, 0, 2, 2, &[ScrubWindow { start: 0, end: 2 }]);
        assert_eq!(areas.a, 0.0);
        assert!(areas.overhead().is_infinite());
        assert_eq!(areas.effectiveness(), 1.0);
    }

    #[test]
    fn window_contains_and_len() {
        let w = ScrubWindow { start: 5, end: 8 };
        assert!(w.contains(5) && w.contains(7));
        assert!(!w.contains(8) && !w.contains(4));
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
        assert!(ScrubWindow { start: 8, end: 5 }.is_empty());
    }
}
