//! The fixed 273-feature layout.

use serde::{Deserialize, Serialize};

/// Width of the volumetric block, reused for A1/A2/A3.
pub const VOLUMETRIC_WIDTH: usize = 63;
/// Width of the A4 attack-history block (3 severities × 6 types).
pub const A4_WIDTH: usize = 18;
/// Width of the A5 clustering block (dot/min/max).
pub const A5_WIDTH: usize = 3;
/// Total feature dimensionality — must equal the paper's 273.
pub const NUM_FEATURES: usize = 4 * VOLUMETRIC_WIDTH + A4_WIDTH + A5_WIDTH;

/// Offsets of each block in the flat layout.
pub mod offsets {
    use super::VOLUMETRIC_WIDTH;

    /// Volumetric (V) block start.
    pub const V: usize = 0;
    /// Blocklisted-sources (A1) block start.
    pub const A1: usize = VOLUMETRIC_WIDTH;
    /// Previous-attackers (A2) block start.
    pub const A2: usize = 2 * VOLUMETRIC_WIDTH;
    /// Spoofed-sources (A3) block start.
    pub const A3: usize = 3 * VOLUMETRIC_WIDTH;
    /// Attack-history (A4) block start.
    pub const A4: usize = 4 * VOLUMETRIC_WIDTH;
    /// Clustering (A5) block start.
    pub const A5: usize = A4 + super::A4_WIDTH;
}

/// A single minute's 273-dimensional feature vector.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeatureFrame(pub Vec<f64>);

impl FeatureFrame {
    /// The all-zero frame.
    pub fn zeros() -> Self {
        FeatureFrame(vec![0.0; NUM_FEATURES])
    }

    /// The volumetric block.
    pub fn volumetric(&self) -> &[f64] {
        &self.0[offsets::V..offsets::A1]
    }

    /// Replaces every non-finite value with 0.0, returning how many were
    /// replaced.
    ///
    /// A corrupted collector record (division by a zero sampling estimate,
    /// an overflowed counter) must not propagate NaN into the LSTM state,
    /// where it would poison every subsequent score for the customer. Zero
    /// is the correct neutral: it matches the value an empty minute
    /// produces for every feature family.
    pub fn sanitize(&mut self) -> u32 {
        let mut replaced = 0;
        for v in &mut self.0 {
            if !v.is_finite() {
                *v = 0.0;
                replaced += 1;
            }
        }
        replaced
    }

    /// True when every value is finite.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Degrades the frame in place to its volumetric block, zeroing every
    /// auxiliary family — the bounded fallback used when the auxiliary
    /// feeds (blocklists, CDet history, BGP tables) are known to be stale
    /// or absent, so the model sees "no auxiliary evidence" rather than
    /// frozen evidence.
    pub fn degrade_to_volumetric(&mut self) {
        FeatureMask::volumetric_only().apply(self);
    }

    /// One of the five auxiliary blocks by signal index 1..=5.
    pub fn aux_block(&self, signal: usize) -> &[f64] {
        match signal {
            1 => &self.0[offsets::A1..offsets::A2],
            2 => &self.0[offsets::A2..offsets::A3],
            3 => &self.0[offsets::A3..offsets::A4],
            4 => &self.0[offsets::A4..offsets::A5],
            5 => &self.0[offsets::A5..],
            other => panic!("auxiliary signal index {other} not in 1..=5"),
        }
    }
}

impl Default for FeatureFrame {
    fn default() -> Self {
        FeatureFrame::zeros()
    }
}

/// Which feature blocks are enabled — the ablation switch of Fig 12.
///
/// Masked-out blocks are zeroed in every extracted frame, which matches the
/// paper's "Xatu w/o Ax" variants (the model keeps its full input width so
/// architectures stay comparable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureMask {
    /// Volumetric features (always on in the paper).
    pub v: bool,
    /// A1 blocklisted sources.
    pub a1: bool,
    /// A2 previous attack sources.
    pub a2: bool,
    /// A3 spoofed sources.
    pub a3: bool,
    /// A4 previous attacks on the same customer.
    pub a4: bool,
    /// A5 correlated attacks across customers.
    pub a5: bool,
}

impl FeatureMask {
    /// Everything enabled — full Xatu.
    pub const fn all() -> Self {
        FeatureMask {
            v: true,
            a1: true,
            a2: true,
            a3: true,
            a4: true,
            a5: true,
        }
    }

    /// Volumetric only — the "no aux" ablation.
    pub const fn volumetric_only() -> Self {
        FeatureMask {
            v: true,
            a1: false,
            a2: false,
            a3: false,
            a4: false,
            a5: false,
        }
    }

    /// Volumetric plus exactly one auxiliary signal (1..=5).
    pub fn with_single_aux(signal: usize) -> Self {
        let mut m = Self::volumetric_only();
        match signal {
            1 => m.a1 = true,
            2 => m.a2 = true,
            3 => m.a3 = true,
            4 => m.a4 = true,
            5 => m.a5 = true,
            other => panic!("auxiliary signal index {other} not in 1..=5"),
        }
        m
    }

    /// Applies the mask in place, zeroing disabled blocks.
    pub fn apply(&self, frame: &mut FeatureFrame) {
        let zero = |s: &mut [f64]| s.iter_mut().for_each(|v| *v = 0.0);
        if !self.v {
            zero(&mut frame.0[offsets::V..offsets::A1]);
        }
        if !self.a1 {
            zero(&mut frame.0[offsets::A1..offsets::A2]);
        }
        if !self.a2 {
            zero(&mut frame.0[offsets::A2..offsets::A3]);
        }
        if !self.a3 {
            zero(&mut frame.0[offsets::A3..offsets::A4]);
        }
        if !self.a4 {
            zero(&mut frame.0[offsets::A4..offsets::A5]);
        }
        if !self.a5 {
            zero(&mut frame.0[offsets::A5..]);
        }
    }
}

impl Default for FeatureMask {
    fn default() -> Self {
        FeatureMask::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_sums_to_273() {
        assert_eq!(NUM_FEATURES, 273);
        assert_eq!(offsets::A1, 63);
        assert_eq!(offsets::A2, 126);
        assert_eq!(offsets::A3, 189);
        assert_eq!(offsets::A4, 252);
        assert_eq!(offsets::A5, 270);
    }

    #[test]
    fn aux_block_slices() {
        let mut f = FeatureFrame::zeros();
        f.0[offsets::A2] = 7.0;
        assert_eq!(f.aux_block(2)[0], 7.0);
        assert_eq!(f.aux_block(2).len(), 63);
        assert_eq!(f.aux_block(4).len(), 18);
        assert_eq!(f.aux_block(5).len(), 3);
    }

    #[test]
    fn mask_zeroes_disabled_blocks() {
        let mut f = FeatureFrame(vec![1.0; NUM_FEATURES]);
        FeatureMask::volumetric_only().apply(&mut f);
        assert!(f.volumetric().iter().all(|&v| v == 1.0));
        for s in 1..=5 {
            assert!(f.aux_block(s).iter().all(|&v| v == 0.0), "A{s}");
        }
    }

    #[test]
    fn single_aux_mask() {
        let m = FeatureMask::with_single_aux(3);
        assert!(m.v && m.a3);
        assert!(!m.a1 && !m.a2 && !m.a4 && !m.a5);
        let mut f = FeatureFrame(vec![1.0; NUM_FEATURES]);
        m.apply(&mut f);
        assert!(f.aux_block(3).iter().all(|&v| v == 1.0));
        assert!(f.aux_block(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not in 1..=5")]
    fn bad_signal_index_panics() {
        FeatureFrame::zeros().aux_block(6);
    }

    #[test]
    fn sanitize_replaces_only_non_finite_values() {
        let mut f = FeatureFrame(vec![1.5; NUM_FEATURES]);
        f.0[0] = f64::NAN;
        f.0[100] = f64::INFINITY;
        f.0[272] = f64::NEG_INFINITY;
        assert!(!f.is_finite());
        assert_eq!(f.sanitize(), 3);
        assert!(f.is_finite());
        assert_eq!(f.0[0], 0.0);
        assert_eq!(f.0[100], 0.0);
        assert_eq!(f.0[1], 1.5);
        // Idempotent once clean.
        assert_eq!(f.sanitize(), 0);
    }

    #[test]
    fn degrade_to_volumetric_matches_the_ablation_mask() {
        let mut a = FeatureFrame(vec![2.0; NUM_FEATURES]);
        let mut b = a.clone();
        a.degrade_to_volumetric();
        FeatureMask::volumetric_only().apply(&mut b);
        assert_eq!(a, b);
        assert!(a.volumetric().iter().all(|&v| v == 2.0));
    }
}
