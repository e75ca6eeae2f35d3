//! Row-major dense matrices.
//!
//! Only the kernels the layers actually need are implemented, each written
//! so the inner loop is over contiguous memory.

use crate::simd::SimdLevel;
use serde::{Deserialize, Serialize};

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable flat data access.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data access.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y += A·x` — matrix-vector multiply-accumulate.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr += dot4(self.row(r), x);
        }
    }

    /// `y = A·x` — matrix-vector multiply into a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_acc(x, &mut y);
        y
    }

    /// `y += A·x` touching only the columns listed in `nz` — the ascending
    /// indices of `x`'s exact-nonzero entries (see [`nonzero_indices_into`]).
    ///
    /// Bit-identical to [`Matrix::matvec_acc`]: the omitted products are all
    /// `±0.0` (finite weights), `dot4`'s lanes start at `+0.0` and
    /// round-to-nearest addition can never drive them to `-0.0`, and adding
    /// `±0.0` to a non-`-0.0` value is the identity — so dropping those
    /// terms cannot move a single bit. The kernel replays `dot4`'s exact
    /// summation contract: lane `l = i mod 4` accumulates its surviving
    /// products in ascending `i`, lanes combine as `(s0+s1)+(s2+s3)`, and
    /// the `len % 4` tail indices are added afterwards in order. A property
    /// test pins the 0-ULP equivalence with planted zeros.
    ///
    /// The point of taking `nz` as a parameter instead of branching on
    /// `x[i] == 0.0` inline is that the sparsity scan is hoisted out of the
    /// per-row loop: the caller builds the index list once per input frame
    /// and every row (and the backward pass's rank-1 update) reuses it.
    ///
    /// # Panics
    /// Panics if dimensions disagree or an index is out of range.
    pub fn matvec_acc_nz(&self, x: &[f64], nz: &[u32], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        let lanes_end = (x.len() - x.len() % 4) as u32;
        let split = nz.partition_point(|&i| i < lanes_end);
        let (lane_idx, tail_idx) = nz.split_at(split);
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            // Named lane accumulators (not `s[i % 4]`): the dynamic index
            // would force the lanes through memory and serialize every add
            // behind a store-to-load forward; the 4-way branch below has an
            // identical pattern on every row, so it predicts perfectly and
            // the sums stay in registers.
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for &i in lane_idx {
                let i = i as usize;
                let p = row[i] * x[i];
                match i % 4 {
                    0 => s0 += p,
                    1 => s1 += p,
                    2 => s2 += p,
                    _ => s3 += p,
                }
            }
            let mut acc = (s0 + s1) + (s2 + s3);
            for &i in tail_idx {
                let i = i as usize;
                acc += row[i] * x[i];
            }
            *yr += acc;
        }
    }

    /// `y += A·x` on the materialised transpose — `self` is `Aᵀ`, `in × out`
    /// — touching only the inputs listed in `idx`: the one online matvec
    /// kernel, for `Wx·x` on a row's non-zero inputs and `Wh·h` on all.
    ///
    /// `x` may be a prefix of the input: `x.len() <= in`, and the inputs
    /// past it are zero. `idx` is built for the full width `in`
    /// ([`LaneIndices::set_nonzero`]), so a prefix walks the same lists, in
    /// the same lanes, as the zero-padded vector, and the result is the
    /// padded vector's bit for bit.
    ///
    /// Bit-identical to `A.matvec_acc(x, y)`. Outputs go in chunks of 24,
    /// 48 at AVX-512 (then 8, then 1). For a chunk the kernel holds **one `dot4` lane's
    /// partial sums in registers**, walks that lane's ascending inputs
    /// `j ≡ l (mod 4)` doing `acc += Aᵀ[j][chunk] · x[j]` — a separate
    /// multiply and add — parks the lane, folds `(s0+s1)+(s2+s3)`, adds the
    /// `len % 4` tail inputs in order and does the single `y += s`: per
    /// output exactly `dot4`'s add sequence. Inputs left out of a non-zero
    /// list contribute `±0.0` products, which cannot move a bit (see
    /// [`Matrix::matvec_acc_nz`]). Against walking `A` row by row, every
    /// weight is one contiguous load per multiply-add and no output needs a
    /// horizontal fold.
    ///
    /// The body is safe Rust, written once and compiled three times:
    /// plain, and inside an AVX2 and an AVX-512 `#[target_feature]` wrapper,
    /// each taken when `level` allows it and the CPU has it. rustc never
    /// contracts a multiply and an add into an FMA, so `level` cannot move
    /// a bit.
    ///
    /// # Panics
    /// Panics if `x` is longer than the input, `y` disagrees with the
    /// output, `idx` was built for another width or lists an input past
    /// `x`.
    pub fn matvec_acc_t_lanes(
        &self,
        x: &[f64],
        idx: &LaneIndices,
        y: &mut [f64],
        level: SimdLevel,
    ) {
        assert!(x.len() <= self.rows, "matvec_t_lanes: x length");
        assert_eq!(y.len(), self.cols, "matvec_t_lanes: y length");
        assert_eq!(idx.len, self.rows, "matvec_t_lanes: index list length");
        crate::simd::t_lanes(level, &self.data, x, idx, y);
    }

    /// `y += Aᵀ·x` — transposed matrix-vector multiply-accumulate.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn matvec_t_acc(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x length");
        assert_eq!(y.len(), self.cols, "matvec_t: y length");
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (yc, a) in y.iter_mut().zip(row) {
                *yc += xr * a;
            }
        }
    }

    /// `y += A·x` with exact-zero `x` terms skipped, adding the surviving
    /// products to each output **sequentially in index order**.
    ///
    /// This is the contiguous-walk replacement for [`Matrix::matvec_t_acc`]:
    /// calling it on the materialised transpose ([`Matrix::transpose_into`])
    /// performs, per output element, the *same* add sequence `matvec_t_acc`
    /// performs on the original matrix — ascending source-row index, exact
    /// zeros skipped, one scalar accumulator — so the result is bit-identical
    /// while every inner loop reads a contiguous row instead of striding
    /// down a column. A property test pins the 0-ULP equivalence.
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn matvec_acc_seq(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_seq: x length");
        assert_eq!(y.len(), self.rows, "matvec_seq: y length");
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = *yr;
            for (xv, a) in x.iter().zip(row) {
                if *xv == 0.0 {
                    continue;
                }
                acc += xv * a;
            }
            *yr = acc;
        }
    }

    /// Writes `selfᵀ` into `out`, reusing `out`'s allocation when its
    /// capacity suffices (steady-state transposes allocate nothing).
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        // Length only — every element is overwritten. Writes run along
        // `out`'s rows and the strided side is the reads.
        out.data.resize(self.rows * self.cols, 0.0);
        for (c, col) in out.data.chunks_exact_mut(self.rows.max(1)).enumerate() {
            for (v, s) in col.iter_mut().zip(self.data[c..].iter().step_by(self.cols)) {
                *v = *s;
            }
        }
    }

    /// `self += α · a·bᵀ` — rank-1 update (outer product accumulate).
    ///
    /// # Panics
    /// Panics if dimensions disagree.
    pub fn rank1_acc(&mut self, alpha: f64, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows, "rank1: a length");
        assert_eq!(b.len(), self.cols, "rank1: b length");
        for (r, &ar) in a.iter().enumerate() {
            let coef = alpha * ar;
            if coef == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (m, &bv) in row.iter_mut().zip(b) {
                *m += coef * bv;
            }
        }
    }

    /// `self += α · a·bᵀ` restricted to the columns listed in `nz` — the
    /// ascending indices of `b`'s exact-nonzero entries (see
    /// [`nonzero_indices_into`]).
    ///
    /// Bit-identical to [`Matrix::rank1_acc`]: each omitted product is
    /// `coef · 0.0 = ±0.0`, and adding `±0.0` never changes an
    /// accumulator's bits unless the accumulator is `-0.0` — which no
    /// gradient cell can be, since grads start at `+0.0` and
    /// round-to-nearest addition only produces `-0.0` from two `-0.0`
    /// terms. For sparse `b` (feature frames are mostly zeros) this turns a
    /// full-row read-modify-write into a handful of scattered updates. A
    /// property test pins the 0-ULP equivalence.
    ///
    /// # Panics
    /// Panics if dimensions disagree or an index is out of range.
    pub fn rank1_acc_nz(&mut self, alpha: f64, a: &[f64], b: &[f64], nz: &[u32]) {
        assert_eq!(a.len(), self.rows, "rank1: a length");
        assert_eq!(b.len(), self.cols, "rank1: b length");
        for (r, &ar) in a.iter().enumerate() {
            let coef = alpha * ar;
            if coef == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for &i in nz {
                let i = i as usize;
                row[i] += coef * b[i];
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Appends the ascending indices of `x`'s exact-nonzero entries to `out`
/// (which is **not** cleared — callers append per-step runs to one flat
/// arena) and returns how many were appended.
///
/// This is the sparsity scan shared by [`Matrix::matvec_acc_nz`] and
/// [`Matrix::rank1_acc_nz`]: one cheap pass over the input frame, hoisted
/// out of every per-row kernel loop, with the result reusable across the
/// forward matvec and the backward rank-1 update of the same step.
pub fn nonzero_indices_into(x: &[f64], out: &mut Vec<u32>) -> usize {
    let before = out.len();
    out.extend(
        x.iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, _)| i as u32),
    );
    out.len() - before
}

/// Ascending input indices split the way `dot4` sums them — the four
/// lanes `j ≡ l (mod 4)` below `len − len % 4`, then the tail — for
/// [`Matrix::matvec_acc_t_lanes`]. Refilling keeps the allocations.
///
/// Lanes are assigned by the input's full width `len`, never by the length
/// of a prefix: at 273 inputs, indices below 272 go to the lanes and 272
/// to the tail, whether the row is passed whole or as its first 63 values.
/// Assigning by the prefix would move its last `len % 4` indices from
/// their lanes into the tail and change the order `dot4` adds them in.
#[derive(Clone, Debug, Default)]
pub struct LaneIndices {
    lanes: [Vec<u32>; 4],
    tail: Vec<u32>,
    /// Width of the input the lists were built for.
    len: usize,
}

impl LaneIndices {
    /// The indices of the exact-nonzero entries (`-0.0` counts as zero) of
    /// the `len`-wide input whose first `x.len()` values are `x` and whose
    /// rest is zero. Only `x` is scanned.
    ///
    /// # Panics
    /// Panics if `x` is longer than `len`.
    pub fn set_nonzero(&mut self, x: &[f64], len: usize) {
        assert!(x.len() <= len, "set_nonzero: x longer than the input");
        self.fill(len, x.len(), |j| x[j] != 0.0);
    }

    /// Every index below `len`.
    pub fn set_all(&mut self, len: usize) {
        self.fill(len, len, |_| true);
    }

    /// How many indices are listed.
    pub fn count(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum::<usize>() + self.tail.len()
    }

    /// Lists the indices below `upto` (`<= len`) that `keep` admits, in
    /// the lanes and tail of a `len`-wide input; `keep` is asked about
    /// indices below `upto` only.
    ///
    /// Branch-free on `keep` — an index is stored at its lane's fill mark,
    /// which moves on only for a kept one — because at ~14 % density a branch
    /// per input mispredicts its way to the cost of the matvec it prepares.
    /// Sizing the lanes in full first means a later input never allocates.
    #[inline]
    fn fill(&mut self, len: usize, upto: usize, keep: impl Fn(usize) -> bool) {
        debug_assert!(upto <= len);
        self.len = len;
        let lanes_end = len - len % 4;
        let walked = upto.min(lanes_end);
        let whole = walked - walked % 4;
        let mut kept = [0usize; 4];
        self.lanes
            .iter_mut()
            .for_each(|lane| lane.resize(walked.div_ceil(4), 0));
        for base in (0..whole).step_by(4) {
            for (l, lane) in self.lanes.iter_mut().enumerate() {
                lane[kept[l]] = (base + l) as u32;
                kept[l] += usize::from(keep(base + l));
            }
        }
        // A prefix that ends inside a block of four: its first lanes only.
        for (l, lane) in self.lanes[..walked - whole].iter_mut().enumerate() {
            lane[kept[l]] = (whole + l) as u32;
            kept[l] += usize::from(keep(whole + l));
        }
        for (lane, n) in self.lanes.iter_mut().zip(kept) {
            lane.truncate(n);
        }
        self.tail.clear();
        self.tail
            .extend((lanes_end..upto).filter(|&j| keep(j)).map(|j| j as u32));
    }
}

/// First chunk width of the plain and AVX2 [`t_lanes`], by measurement: 24
/// doubles are six `ymm` sums. With 32 — eight `ymm`, every register spoken
/// for once the broadcast and a product are counted — LLVM gives five of the
/// second lane's eight sums a stack slot for their whole life, its own walk
/// included, and that loop does load-add-store on five of its chains.
/// DESIGN.md §17 has the disassembly and the numbers for 16, 24, 32 and 48.
pub(crate) const CHUNK: usize = 24;

/// First chunk width of the AVX-512 [`t_lanes`]: six `zmm` sums per lane,
/// and the four lanes' 24 fit the 32 registers. DESIGN.md §17 has the
/// numbers for 24, 48 and 96.
pub(crate) const CHUNK_AVX512: usize = 48;

/// The one body of [`Matrix::matvec_acc_t_lanes`]: `wt` is `Aᵀ`, row-major
/// `idx.len × y.len()`, and `x` the input or a prefix of it. Outputs go
/// `FIRST` at a time, then 8, then 1; per output the arithmetic does not
/// depend on the chunk. `#[inline(always)]` so that each caller — the plain
/// entry and the wrappers in [`crate::simd`] — compiles its own copy at its
/// own vector width.
#[inline(always)]
pub(crate) fn t_lanes<const FIRST: usize>(wt: &[f64], x: &[f64], idx: &LaneIndices, y: &mut [f64]) {
    let out = y.len();
    debug_assert_eq!(wt.len(), idx.len * out);
    debug_assert!(x.len() <= idx.len);
    let mut o = 0;
    while o + FIRST <= out {
        t_lanes_chunk::<FIRST>(wt, out, o, x, idx, y);
        o += FIRST;
    }
    while o + 8 <= out {
        t_lanes_chunk::<8>(wt, out, o, x, idx, y);
        o += 8;
    }
    while o < out {
        t_lanes_chunk::<1>(wt, out, o, x, idx, y);
        o += 1;
    }
}

/// Outputs `o..o + W` of [`t_lanes`]: the four lanes, the fold, the tail,
/// the one accumulate into `y`.
#[inline(always)]
fn t_lanes_chunk<const W: usize>(
    wt: &[f64],
    out: usize,
    o: usize,
    x: &[f64],
    idx: &LaneIndices,
    y: &mut [f64],
) {
    let mut s = [[0.0f64; W]; 4];
    let mut in_range = true;
    for (sl, lane) in s.iter_mut().zip(&idx.lanes) {
        in_range &= t_lanes_walk(wt, out, o, x, lane, sl);
    }
    let mut acc: [f64; W] = std::array::from_fn(|k| (s[0][k] + s[1][k]) + (s[2][k] + s[3][k]));
    in_range &= t_lanes_walk(wt, out, o, x, &idx.tail, &mut acc);
    assert!(in_range, "matvec_t_lanes: index out of range");
    for (yk, a) in y[o..o + W].iter_mut().zip(acc) {
        *yk += a;
    }
}

/// `acc += Aᵀ[j][o..o + W] · x[j]` for every `j` of `list`, in order, with
/// the sums in a fixed-size local so they live in registers.
///
/// An index past the matrix or past a prefix `x` cannot come out of
/// [`LaneIndices`] built for them; should one appear, the walk stops there
/// and reports `false`, and the caller panics
/// once the chunk is done. Leaving the loop instead of panicking inside it
/// is what lets LLVM vectorize the sums: a panicking exit in the loop body
/// keeps them scalar.
#[inline(always)]
fn t_lanes_walk<const W: usize>(
    wt: &[f64],
    out: usize,
    o: usize,
    x: &[f64],
    list: &[u32],
    acc: &mut [f64; W],
) -> bool {
    let mut sums = *acc;
    let mut in_range = true;
    for &j in list {
        let j = j as usize;
        let row = wt.get(j * out + o..).and_then(<[f64]>::first_chunk::<W>);
        let (Some(w), Some(&xj)) = (row, x.get(j)) else {
            in_range = false;
            break;
        };
        for (a, &wk) in sums.iter_mut().zip(w) {
            *a += wk * xj;
        }
    }
    *acc = sums;
    in_range
}

/// `y += α·x` on raw vectors.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    dot4(a, b)
}

/// The shared inner kernel of [`dot`] and [`Matrix::matvec_acc`]: four
/// independent accumulator lanes so the multiply-adds pipeline instead of
/// serialising on one dependency chain.
///
/// The summation order is part of the contract, not an implementation
/// detail: lane `l` sums products at indices `l, l+4, l+8, …`; the lanes
/// combine as `(s0 + s1) + (s2 + s3)`; the `len % 4` tail is then added in
/// index order. A property test pins the result to 0 ULP against a plain
/// scalar rendering of that same order, so the unrolled kernel can never
/// drift from the documented deterministic arithmetic.
///
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0, 0.0, 0.0);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += pa[0] * pb[0];
        s1 += pa[1] * pb[1];
        s2 += pa[2] * pb[2];
        s3 += pa[3] * pb[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let mut i3 = Matrix::zeros(3, 3);
        for k in 0..3 {
            i3.set(k, k, 1.0);
        }
        assert_eq!(i3.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose_of_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = vec![0.0; 3];
        a.matvec_t_acc(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn rank1_builds_outer_product() {
        let mut g = Matrix::zeros(2, 2);
        g.rank1_acc(2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(g.data(), &[8.0, 10.0, 24.0, 30.0]);
    }

    #[test]
    fn transpose_adjoint_identity() {
        // <A x, y> == <x, A^T y> for random-ish fixed values.
        let a = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5]);
        let x = [1.0, -2.0];
        let y = [0.3, 0.7, -0.2];
        let ax = a.matvec(&x);
        let mut aty = vec![0.0; 2];
        a.matvec_t_acc(&y, &mut aty);
        let lhs = dot(&ax, &y);
        let rhs = dot(&x, &aty);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "matvec: x length")]
    fn matvec_shape_panics() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    fn axpy_and_dot() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius() - 5.0).abs() < 1e-12);
    }

    /// Plain scalar rendering of `dot4`'s documented summation order: lane
    /// sums in index order, `(s0 + s1) + (s2 + s3)`, then the tail. The
    /// property tests pin the unrolled kernel to this at 0 ULP.
    fn fixed_order_reference(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let lanes = n - n % 4;
        let mut s = [0.0f64; 4];
        for k in (0..lanes).step_by(4) {
            for l in 0..4 {
                s[l] += a[k + l] * b[k + l];
            }
        }
        let mut acc = (s[0] + s[1]) + (s[2] + s[3]);
        for k in lanes..n {
            acc += a[k] * b[k];
        }
        acc
    }

    #[test]
    fn transpose_into_reuses_buffer() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut t = Matrix::zeros(3, 2);
        let cap = t.data.capacity();
        a.transpose_into(&mut t);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.data.capacity(), cap);
    }

    /// The register-blocked kernel on the transpose must be bit-identical
    /// to the row-major `matvec_acc`. The whole grid, not a sample: every
    /// input tail (0–3), every output width to two 48-wide chunks and a
    /// remainder (so every remainder of the 48-, 24-, 8- and 1-wide chunks),
    /// then the paper's hidden 200 and 800, zeros planted from none to all
    /// of `x` (half of them `-0.0`), the non-zero and the all-indices
    /// lists, and every instantiation the host has.
    #[test]
    fn t_lanes_matches_matvec_acc_bitwise() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut value = |scale: f64| ((next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0) * scale;
        let (mut nz, mut all) = (LaneIndices::default(), LaneIndices::default());
        let mut at = Matrix::zeros(0, 0);
        let levels = crate::simd::levels_noting_skips();
        for n_in in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 24, 273] {
            for n_out in (1usize..=104).chain([200, 800]) {
                let weights = (0..n_out * n_in).map(|_| value(1.0e6)).collect();
                let a = Matrix::from_vec(n_out, n_in, weights);
                a.transpose_into(&mut at);
                for zero_pct in [0u64, 14, 50, 86, 100] {
                    let x: Vec<f64> = (0..n_in)
                        .map(|j| {
                            let v = value(1.0e3);
                            match (v.to_bits() % 100 < zero_pct, j % 2) {
                                (false, _) => v,
                                (true, 0) => 0.0,
                                (true, _) => -0.0,
                            }
                        })
                        .collect();
                    let init = value(1.0e3);
                    let mut want = vec![init; n_out];
                    a.matvec_acc(&x, &mut want);
                    // The lists still hold the previous case: refilling
                    // must replace it.
                    nz.set_nonzero(&x, n_in);
                    all.set_all(n_in);
                    assert_eq!(nz.count(), x.iter().filter(|v| **v != 0.0).count());
                    assert_eq!(all.count(), n_in);
                    for idx in [&nz, &all] {
                        for &level in &levels {
                            let mut got = vec![init; n_out];
                            at.matvec_acc_t_lanes(&x, idx, &mut got, level);
                            let bits =
                                |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect() };
                            let case = format!("{n_in}x{n_out} {zero_pct}% {level:?}");
                            assert_eq!(bits(&got), bits(&want), "{case}");
                        }
                    }
                }
            }
        }
    }

    /// A prefix of a `len`-wide input lists what the zero-padded input
    /// lists: the same lanes, the same tail, assigned by `len`. Every
    /// prefix of widths around each `% 4` remainder, 63, 64 and 272–275,
    /// over values with `+0.0`, `-0.0`, subnormals and infinities among
    /// them; one pair of lists is refilled throughout, so each case also
    /// replaces the previous one. The kernel on the prefix equals the
    /// kernel on the padded input bit for bit, over every chunk width at
    /// every level.
    #[test]
    fn prefix_lists_equal_the_zero_padded_lists() {
        let special = [0.0, -0.0, 5e-324, -2.2e-308, f64::INFINITY, 1.5, -0.25];
        let (mut prefix, mut padded) = (LaneIndices::default(), LaneIndices::default());
        let levels = crate::simd::levels_noting_skips();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 272, 273, 274, 275] {
            // 61 outputs: a 48-wide chunk, an 8 and five 1-wide ones at
            // AVX-512; two 24s, an 8 and five 1s below it.
            let wt = Matrix::from_vec(
                len,
                61,
                (0..len * 61).map(|i| (i as f64 * 0.37).sin()).collect(),
            );
            for k in 0..=len {
                let x: Vec<f64> = (0..k)
                    .map(|j| special[(j * 5 + k) % special.len()])
                    .collect();
                let mut full = x.clone();
                full.resize(len, 0.0);
                prefix.set_nonzero(&x, len);
                padded.set_nonzero(&full, len);
                assert_eq!(prefix.lanes, padded.lanes, "len {len} k {k}");
                assert_eq!(prefix.tail, padded.tail, "len {len} k {k}");
                assert_eq!(prefix.len, len);
                assert_eq!(padded.len, len);
                let x = x
                    .iter()
                    .map(|v| if v.is_finite() { *v } else { 2.0 })
                    .collect::<Vec<_>>();
                let mut full = x.clone();
                full.resize(len, 0.0);
                prefix.set_nonzero(&x, len);
                padded.set_nonzero(&full, len);
                for &level in &levels {
                    let (mut got, mut want) = (vec![0.5; 61], vec![0.5; 61]);
                    wt.matvec_acc_t_lanes(&x, &prefix, &mut got, level);
                    wt.matvec_acc_t_lanes(&full, &padded, &mut want, level);
                    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect() };
                    assert_eq!(bits(&got), bits(&want), "len {len} k {k} {level:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "set_nonzero: x longer than the input")]
    fn a_row_longer_than_the_input_panics_in_the_lists() {
        LaneIndices::default().set_nonzero(&[1.0; 274], 273);
    }

    #[test]
    #[should_panic(expected = "matvec_t_lanes: x length")]
    fn a_row_longer_than_the_input_panics_in_the_kernel() {
        let wt = Matrix::zeros(4, 2);
        let mut idx = LaneIndices::default();
        idx.set_all(4);
        wt.matvec_acc_t_lanes(&[1.0; 5], &idx, &mut [0.0; 2], SimdLevel::Scalar);
    }

    /// Lists built on a longer prefix than the one the kernel is handed
    /// name inputs past it: a panic, not a read past `x`.
    #[test]
    #[should_panic(expected = "matvec_t_lanes: index out of range")]
    fn lists_of_a_longer_prefix_panic_in_the_kernel() {
        let wt = Matrix::zeros(8, 2);
        let mut idx = LaneIndices::default();
        idx.set_nonzero(&[1.0; 6], 8);
        wt.matvec_acc_t_lanes(&[1.0; 3], &idx, &mut [0.0; 2], SimdLevel::Scalar);
    }

    use proptest::prelude::*;

    proptest! {
        /// The transpose-then-sequential kernel must reproduce
        /// `matvec_t_acc` bit for bit, including its exact-zero skip.
        #[test]
        fn seq_kernel_on_transpose_matches_matvec_t_acc(
            data in proptest::collection::vec(-1.0e6f64..1.0e6, 4..140),
            zero_mask in 0u32..64,
            init in -1.0e3f64..1.0e3,
        ) {
            let rows = 1 + data.len() % 11;
            let cols = (data.len().saturating_sub(rows) / rows).max(1);
            if data.len() < rows * cols + rows {
                return;
            }
            let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
            let mut x: Vec<f64> = data[rows * cols..rows * cols + rows].to_vec();
            // Plant exact zeros so the skip path is exercised.
            for (i, v) in x.iter_mut().enumerate() {
                if (zero_mask >> (i % 32)) & 1 == 1 {
                    *v = 0.0;
                }
            }
            let mut want = vec![init; cols];
            m.matvec_t_acc(&x, &mut want);
            let mut mt = Matrix::zeros(0, 0);
            m.transpose_into(&mut mt);
            let mut got = vec![init; cols];
            mt.matvec_acc_seq(&x, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }

        #[test]
        fn dot_matches_fixed_order_partial_sums(
            ab in proptest::collection::vec(-1.0e6f64..1.0e6, 0..129),
        ) {
            let n = ab.len() / 2;
            let (a, b) = (&ab[..n], &ab[n..2 * n]);
            prop_assert_eq!(
                dot(a, b).to_bits(),
                fixed_order_reference(a, b).to_bits()
            );
        }

        #[test]
        fn matvec_acc_matches_fixed_order_partial_sums(
            data in proptest::collection::vec(-1.0e6f64..1.0e6, 3..120),
            init in -1.0e3f64..1.0e3,
            zero_mask in 0u32..u32::MAX,
        ) {
            // Split `data` into a rows×cols matrix and an x vector such
            // that rows ≥ 1 and cols covers tail lengths 0..4.
            let cols = 1 + data.len() % 13;
            let rows = (data.len().saturating_sub(cols) / cols).max(1);
            if data.len() < rows * cols + cols {
                return;
            }
            let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
            let mut x = data[rows * cols..rows * cols + cols].to_vec();
            // Plant exact zeros (whole aligned chunks included) so the
            // zero-chunk skip is exercised against the dense reference.
            for (i, v) in x.iter_mut().enumerate() {
                if (zero_mask >> (i % 32)) & 1 == 1 {
                    *v = 0.0;
                }
            }
            let mut y = vec![init; rows];
            m.matvec_acc(&x, &mut y);
            for (r, &yr) in y.iter().enumerate() {
                let expect = init + fixed_order_reference(m.row(r), &x);
                prop_assert_eq!(yr.to_bits(), expect.to_bits());
            }
        }

        /// The sparse matvec on an explicit nonzero-index list must be
        /// bit-identical to the dense `matvec_acc` with planted zeros.
        #[test]
        fn matvec_acc_nz_matches_dense_bitwise(
            data in proptest::collection::vec(-1.0e6f64..1.0e6, 3..120),
            init in -1.0e3f64..1.0e3,
            zero_mask in 0u32..u32::MAX,
        ) {
            let cols = 1 + data.len() % 13;
            let rows = (data.len().saturating_sub(cols) / cols).max(1);
            if data.len() < rows * cols + cols {
                return;
            }
            let m = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
            let mut x = data[rows * cols..rows * cols + cols].to_vec();
            for (i, v) in x.iter_mut().enumerate() {
                if (zero_mask >> (i % 32)) & 1 == 1 {
                    *v = 0.0;
                }
            }
            let mut nz = Vec::new();
            let n = nonzero_indices_into(&x, &mut nz);
            prop_assert_eq!(n, nz.len());
            prop_assert!(nz.iter().all(|&i| x[i as usize] != 0.0));
            let mut want = vec![init; rows];
            m.matvec_acc(&x, &mut want);
            let mut got = vec![init; rows];
            m.matvec_acc_nz(&x, &nz, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }

        /// The sparse rank-1 update on an explicit nonzero-index list must
        /// be bit-identical to the dense `rank1_acc` with planted zeros.
        #[test]
        fn rank1_acc_nz_matches_dense_bitwise(
            data in proptest::collection::vec(-1.0e3f64..1.0e3, 6..90),
            alpha in -4.0f64..4.0,
            zero_mask in 0u32..u32::MAX,
        ) {
            let rows = 1 + data.len() % 7;
            let cols = 1 + data.len() % 5;
            if data.len() < 2 * rows * cols + rows + cols {
                return;
            }
            let seed = &data[..rows * cols];
            let a = &data[rows * cols..rows * cols + rows];
            let mut b = data[rows * cols + rows..rows * cols + rows + cols].to_vec();
            for (i, v) in b.iter_mut().enumerate() {
                if (zero_mask >> (i % 32)) & 1 == 1 {
                    *v = 0.0;
                }
            }
            let mut nz = Vec::new();
            nonzero_indices_into(&b, &mut nz);
            let mut want = Matrix::from_vec(rows, cols, seed.to_vec());
            want.rank1_acc(alpha, a, &b);
            let mut got = Matrix::from_vec(rows, cols, seed.to_vec());
            got.rank1_acc_nz(alpha, a, &b, &nz);
            for (g, w) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
