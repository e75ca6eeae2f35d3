//! Mitigation-effectiveness aggregation across attacks.

use crate::areas::AttackAreas;
use crate::percentile::Summary;

/// Per-attack effectiveness record carrying the grouping keys the paper
/// breaks results down by.
#[derive(Clone, Debug)]
pub struct EffectivenessRecord {
    /// Customer the attack targeted (opaque id).
    pub customer: u32,
    /// Attack-type index (0..6 in the workspace's fixed order).
    pub attack_type: usize,
    /// Ground-truth attack duration in minutes (for short/medium/long split).
    pub duration_min: u32,
    /// Integrated areas.
    pub areas: AttackAreas,
}

/// Duration class used by Fig 3: short < 5 min, medium 5–15 min, long ≥ 15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DurationClass {
    /// `< 5` minutes.
    Short,
    /// `5..15` minutes.
    Medium,
    /// `>= 15` minutes.
    Long,
}

impl DurationClass {
    /// Classifies a duration.
    pub fn of(duration_min: u32) -> DurationClass {
        if duration_min < 5 {
            DurationClass::Short
        } else if duration_min < 15 {
            DurationClass::Medium
        } else {
            DurationClass::Long
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DurationClass::Short => "short",
            DurationClass::Medium => "medium",
            DurationClass::Long => "long",
        }
    }
}

/// Effectiveness values of a set of records.
pub fn values(records: &[EffectivenessRecord]) -> Vec<f64> {
    records.iter().map(|r| r.areas.effectiveness()).collect()
}

/// 10/50/90 summary over all records.
pub fn summary(records: &[EffectivenessRecord]) -> Summary {
    Summary::p10_50_90(&values(records))
}

/// Summary restricted to one duration class.
pub fn summary_by_duration(records: &[EffectivenessRecord], class: DurationClass) -> Summary {
    let vals: Vec<f64> = records
        .iter()
        .filter(|r| DurationClass::of(r.duration_min) == class)
        .map(|r| r.areas.effectiveness())
        .collect();
    Summary::p10_50_90(&vals)
}

/// Summary restricted to one attack type.
pub fn summary_by_type(records: &[EffectivenessRecord], attack_type: usize) -> Summary {
    let vals: Vec<f64> = records
        .iter()
        .filter(|r| r.attack_type == attack_type)
        .map(|r| r.areas.effectiveness())
        .collect();
    Summary::p10_50_90(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(customer: u32, ty: usize, dur: u32, eff: f64) -> EffectivenessRecord {
        EffectivenessRecord {
            customer,
            attack_type: ty,
            duration_min: dur,
            areas: AttackAreas {
                a: 100.0,
                b: eff * 100.0,
                c: 0.0,
            },
        }
    }

    #[test]
    fn duration_classes() {
        assert_eq!(DurationClass::of(0), DurationClass::Short);
        assert_eq!(DurationClass::of(4), DurationClass::Short);
        assert_eq!(DurationClass::of(5), DurationClass::Medium);
        assert_eq!(DurationClass::of(14), DurationClass::Medium);
        assert_eq!(DurationClass::of(15), DurationClass::Long);
    }

    #[test]
    fn summary_median() {
        let recs = vec![rec(1, 0, 3, 0.2), rec(2, 0, 3, 0.5), rec(3, 0, 3, 0.9)];
        assert_eq!(summary(&recs).median, 0.5);
    }

    #[test]
    fn by_duration_filters() {
        let recs = vec![rec(1, 0, 3, 0.1), rec(2, 0, 30, 0.9)];
        assert_eq!(summary_by_duration(&recs, DurationClass::Short).median, 0.1);
        assert_eq!(summary_by_duration(&recs, DurationClass::Long).median, 0.9);
        assert!(summary_by_duration(&recs, DurationClass::Medium)
            .median
            .is_nan());
    }

    #[test]
    fn by_type_filters() {
        let recs = vec![rec(1, 0, 3, 0.1), rec(2, 4, 3, 0.7)];
        assert_eq!(summary_by_type(&recs, 4).median, 0.7);
    }
}
