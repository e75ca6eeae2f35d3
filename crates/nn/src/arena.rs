//! Flat frame arenas: contiguous storage for sequences of equal-width rows.
//!
//! The hot path of this workspace is dominated by sequences of small `f64`
//! frames (feature rows, hidden states, gate blocks). Storing them as
//! `Vec<Vec<f64>>` costs one heap allocation per frame and scatters the
//! rows across the heap; a [`FrameArena`] stores the same data as a single
//! `Vec<f64>` indexed `t * dim + k`, so
//!
//! * a whole sequence is one allocation (zero once the arena is warm:
//!   [`FrameArena::reset`] keeps capacity), and
//! * iterating frames in time order walks memory sequentially.
//!
//! Arenas deliberately have no per-frame capacity bookkeeping: every frame
//! has the same width `dim`, fixed at [`FrameArena::reset`] time.

use serde::{Deserialize, Serialize};

/// A sequence of equal-width `f64` frames in one contiguous buffer.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FrameArena {
    dim: usize,
    data: Vec<f64>,
}

impl FrameArena {
    /// An empty arena of the given frame width.
    pub fn new(dim: usize) -> Self {
        FrameArena {
            dim,
            data: Vec::new(),
        }
    }

    /// Frame width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True if no frames are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops all frames, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Drops all frames and sets a (possibly new) frame width, keeping the
    /// allocation — the steady-state entry point for buffer reuse.
    pub fn reset(&mut self, dim: usize) {
        self.data.clear();
        self.dim = dim;
    }

    /// Appends a frame by copy.
    ///
    /// # Panics
    /// Panics if `frame.len() != self.dim()`.
    pub fn push(&mut self, frame: &[f64]) {
        assert_eq!(frame.len(), self.dim, "arena: frame width");
        self.data.extend_from_slice(frame);
    }

    /// Appends a zero frame and returns it mutably (write-in-place append).
    pub fn push_zeroed(&mut self) -> &mut [f64] {
        let start = self.data.len();
        self.data.resize(start + self.dim, 0.0);
        &mut self.data[start..]
    }

    /// Appends a frame widened from `f32` values.
    ///
    /// # Panics
    /// Panics if `frame.len() != self.dim()`.
    pub fn push_widened(&mut self, frame: &[f32]) {
        assert_eq!(frame.len(), self.dim, "arena: frame width");
        self.data.extend(frame.iter().map(|&v| v as f64));
    }

    /// Frame `t` as a slice.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[inline]
    pub fn frame(&self, t: usize) -> &[f64] {
        &self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// Frame `t` as a mutable slice.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    #[inline]
    pub fn frame_mut(&mut self, t: usize) -> &mut [f64] {
        &mut self.data[t * self.dim..(t + 1) * self.dim]
    }

    /// The whole buffer, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Iterates frames in time order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Replaces contents with `rows` (all `dim` wide), reusing capacity.
    pub fn fill_from_rows(&mut self, dim: usize, rows: &[Vec<f64>]) {
        self.reset(dim);
        for r in rows {
            self.push(r);
        }
    }

    /// Replaces contents with widened `f32` rows, reusing capacity.
    pub fn fill_widened(&mut self, dim: usize, rows: &[Vec<f32>]) {
        self.reset(dim);
        for r in rows {
            self.push_widened(r);
        }
    }
}

impl std::ops::Index<usize> for FrameArena {
    type Output = [f64];

    fn index(&self, t: usize) -> &[f64] {
        self.frame(t)
    }
}

impl<'a> IntoIterator for &'a FrameArena {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index() {
        let mut a = FrameArena::new(3);
        a.push(&[1.0, 2.0, 3.0]);
        a.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a.len(), 2);
        assert_eq!(&a[0], &[1.0, 2.0, 3.0]);
        assert_eq!(a.frame(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn reset_keeps_capacity() {
        let mut a = FrameArena::new(4);
        for _ in 0..16 {
            a.push(&[0.0; 4]);
        }
        let cap = a.data.capacity();
        a.reset(8);
        assert_eq!(a.len(), 0);
        assert_eq!(a.dim(), 8);
        assert_eq!(a.data.capacity(), cap);
    }

    #[test]
    fn push_zeroed_returns_writable_frame() {
        let mut a = FrameArena::new(2);
        a.push(&[1.0, 1.0]);
        let f = a.push_zeroed();
        assert_eq!(f, &[0.0, 0.0]);
        f[1] = 7.0;
        assert_eq!(&a[1], &[0.0, 7.0]);
    }

    #[test]
    fn widened_rows_match_f64_cast() {
        let mut a = FrameArena::new(2);
        a.push_widened(&[1.5f32, -2.25]);
        assert_eq!(&a[0], &[1.5f64, -2.25]);
    }

    #[test]
    fn iter_yields_frames_in_order() {
        let mut a = FrameArena::new(1);
        a.push(&[1.0]);
        a.push(&[2.0]);
        let v: Vec<&[f64]> = a.iter().collect();
        assert_eq!(v, vec![&[1.0][..], &[2.0][..]]);
    }

    #[test]
    #[should_panic(expected = "frame width")]
    fn wrong_width_panics() {
        FrameArena::new(3).push(&[1.0]);
    }
}
