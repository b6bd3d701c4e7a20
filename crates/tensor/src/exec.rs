//! Planned, allocation-free kernels shared by the eager [`Tensor`] ops and
//! the `bikecap-ir` compiled executor.
//!
//! Every kernel here follows the same contract: a `plan_*` function performs
//! all shape analysis and dispatch selection up front (allocating freely),
//! and an `*_into` function executes the plan into a caller-provided output
//! slice without touching the heap. The eager tensor methods allocate their
//! result and delegate to the same `*_into` bodies the compiled executor
//! runs over its buffer arena, so eager and compiled paths are bitwise
//! identical *by construction* — there is exactly one implementation of each
//! numeric loop.
//!
//! Kernels that do not fully overwrite their output (`matmul_into`,
//! `reduce_sum_into`) zero it first, because arena slabs are reused across
//! steps and may hold stale data. All others write every output element.

use std::ops::Range;

use crate::conv::Conv3dSpec;
use crate::shape::{broadcast_shapes, broadcast_strides, num_elements, strides_for};
use crate::tensor::PAR_MIN_WORK;

// ---------------------------------------------------------------------
// Strided walks
// ---------------------------------------------------------------------

/// Largest rank a [`StridedWalk`] carries after coalescing (its multi-index
/// lives in a fixed stack array so executing a walk never allocates).
const MAX_WALK_RANK: usize = 16;

/// A row-major walk over a shape carrying two strided offsets with a
/// multi-index instead of rebuilding each element's offset by div/mod.
///
/// Built at plan time: extent-1 axes are dropped and adjacent axes whose
/// strides nest (for both operands) are merged, which never changes the
/// visiting order. The innermost remaining axis becomes the contiguous
/// *run* the kernels loop over directly; [`StridedWalk::for_each_run`]
/// yields each run's starting offsets in row-major order.
#[derive(Debug, Clone)]
struct StridedWalk {
    /// Coalesced extents of the outer axes, outermost first.
    outer: Vec<usize>,
    /// Per-operand strides of the outer axes.
    outer_strides: [Vec<usize>; 2],
    /// Elements per run (>= 1).
    run: usize,
    /// Per-operand stride inside a run.
    run_strides: [usize; 2],
    /// False when some extent is 0 (the walk visits nothing).
    nonempty: bool,
}

impl StridedWalk {
    /// Plans the walk of `shape`, operand `k` striding by `strides[k]`.
    ///
    /// # Panics
    ///
    /// Panics if the coalesced rank exceeds [`MAX_WALK_RANK`].
    fn new(shape: &[usize], strides: [&[usize]; 2]) -> StridedWalk {
        let mut dims: Vec<(usize, [usize; 2])> = Vec::with_capacity(shape.len());
        for (ax, &d) in shape.iter().enumerate() {
            if d == 1 {
                continue;
            }
            let st = [strides[0][ax], strides[1][ax]];
            if let Some((pd, ps)) = dims.last_mut() {
                if ps[0] == d * st[0] && ps[1] == d * st[1] {
                    *pd *= d;
                    *ps = st;
                    continue;
                }
            }
            dims.push((d, st));
        }
        let nonempty = !shape.contains(&0);
        let (run, run_strides) = dims.pop().unwrap_or((1, [0, 0]));
        assert!(
            dims.len() <= MAX_WALK_RANK,
            "strided walk over {shape:?} exceeds rank {MAX_WALK_RANK} after coalescing"
        );
        StridedWalk {
            outer: dims.iter().map(|d| d.0).collect(),
            outer_strides: [
                dims.iter().map(|d| d.1[0]).collect(),
                dims.iter().map(|d| d.1[1]).collect(),
            ],
            run: if nonempty { run } else { 1 },
            run_strides,
            nonempty,
        }
    }

    /// Elements per run.
    fn run(&self) -> usize {
        self.run
    }

    /// Per-operand stride inside a run.
    fn run_strides(&self) -> [usize; 2] {
        self.run_strides
    }

    /// Calls `f(offset0, offset1)` at the start of every run, in row-major
    /// order, advancing the carried multi-index between calls.
    fn for_each_run(&self, mut f: impl FnMut(usize, usize)) {
        if !self.nonempty {
            return;
        }
        let [s0, s1] = [&self.outer_strides[0], &self.outer_strides[1]];
        let mut idx = [0usize; MAX_WALK_RANK];
        let (mut o0, mut o1) = (0, 0);
        loop {
            f(o0, o1);
            let mut ax = self.outer.len();
            loop {
                if ax == 0 {
                    return;
                }
                ax -= 1;
                idx[ax] += 1;
                o0 += s0[ax];
                o1 += s1[ax];
                if idx[ax] < self.outer[ax] {
                    break;
                }
                o0 -= self.outer[ax] * s0[ax];
                o1 -= self.outer[ax] * s1[ax];
                idx[ax] = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Broadcast zip
// ---------------------------------------------------------------------

/// Pre-resolved dispatch for a broadcasting elementwise combination.
///
/// Encodes the exact fast-path selection order of the eager
/// [`Tensor::zip_broadcast`][crate::Tensor::zip_broadcast] so planned
/// execution visits elements in the identical order with identical index
/// arithmetic.
#[derive(Debug, Clone)]
pub struct BroadcastPlan {
    out_shape: Vec<usize>,
    kind: BroadcastKind,
}

#[derive(Debug, Clone)]
enum BroadcastKind {
    /// Equal shapes: straight element zip.
    Same,
    /// Left operand is a single element; iterate the right.
    ScalarA,
    /// Right operand is a single element; iterate the left.
    ScalarB,
    /// One operand broadcasts along exactly one axis of the other.
    /// `swapped` means the *left* operand is the small one.
    SingleAxis { swapped: bool, inner: usize, block: usize },
    /// The small operand is a right-aligned suffix, reused cyclically.
    Suffix { swapped: bool, n: usize },
    /// Fully general strided broadcast: a carried multi-index walk of the
    /// output space with one strided offset per operand.
    General { walk: StridedWalk },
}

impl BroadcastPlan {
    /// The broadcast result shape.
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Number of output elements.
    pub fn len(&self) -> usize {
        num_elements(&self.out_shape)
    }

    /// True when the output holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the plan, returning the result shape without a copy.
    pub fn into_out_shape(self) -> Vec<usize> {
        self.out_shape
    }
}

/// Detects the single-broadcast-axis pattern: `small` equals `big` except
/// for exactly one axis where it has extent 1.
fn single_axis_kind(big: &[usize], small: &[usize], swapped: bool) -> Option<BroadcastKind> {
    if big.len() != small.len() {
        return None;
    }
    let mut axis = None;
    for (k, (&db, &ds)) in big.iter().zip(small).enumerate() {
        if db == ds {
            continue;
        }
        if ds == 1 && axis.is_none() {
            axis = Some(k);
        } else {
            return None;
        }
    }
    let k = axis?;
    let inner: usize = big[k + 1..].iter().product();
    let block = inner * big[k];
    Some(BroadcastKind::SingleAxis { swapped, inner, block })
}

/// Detects the suffix pattern: `small` is a right-aligned suffix of `big`.
fn suffix_kind(big: &[usize], small: &[usize], swapped: bool) -> Option<BroadcastKind> {
    if small.len() >= big.len() {
        return None;
    }
    let offset = big.len() - small.len();
    if big[offset..] != small[..] {
        return None;
    }
    let n = num_elements(small);
    if n == 0 {
        return None;
    }
    Some(BroadcastKind::Suffix { swapped, n })
}

/// Plans the broadcast combination of two shapes, or `None` when they are
/// incompatible. Dispatch order mirrors the eager fast paths exactly.
pub fn plan_broadcast(a: &[usize], b: &[usize]) -> Option<BroadcastPlan> {
    if a == b {
        return Some(BroadcastPlan {
            out_shape: a.to_vec(),
            kind: BroadcastKind::Same,
        });
    }
    if num_elements(a) == 1 || num_elements(b) == 1 {
        let out_shape = broadcast_shapes(a, b)?;
        let kind = if num_elements(b) == 1 {
            BroadcastKind::ScalarB
        } else {
            BroadcastKind::ScalarA
        };
        return Some(BroadcastPlan { out_shape, kind });
    }
    if let Some(kind) = single_axis_kind(a, b, false) {
        return Some(BroadcastPlan {
            out_shape: a.to_vec(),
            kind,
        });
    }
    if let Some(kind) = single_axis_kind(b, a, true) {
        return Some(BroadcastPlan {
            out_shape: b.to_vec(),
            kind,
        });
    }
    if let Some(kind) = suffix_kind(a, b, false) {
        return Some(BroadcastPlan {
            out_shape: a.to_vec(),
            kind,
        });
    }
    if let Some(kind) = suffix_kind(b, a, true) {
        return Some(BroadcastPlan {
            out_shape: b.to_vec(),
            kind,
        });
    }
    let out_shape = broadcast_shapes(a, b)?;
    let sa = broadcast_strides(a, out_shape.len());
    let sb = broadcast_strides(b, out_shape.len());
    Some(BroadcastPlan {
        kind: BroadcastKind::General {
            walk: StridedWalk::new(&out_shape, [&sa, &sb]),
        },
        out_shape,
    })
}

/// Executes a planned broadcast zip into `out`. Fully overwrites `out`.
///
/// # Panics
///
/// Panics (on slice indexing) if `a`/`b`/`out` do not match the shapes the
/// plan was built from.
pub fn zip_planned_into(
    plan: &BroadcastPlan,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
) {
    match &plan.kind {
        BroadcastKind::Same => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        BroadcastKind::ScalarB => {
            let y = b[0];
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, y);
            }
        }
        BroadcastKind::ScalarA => {
            let x = a[0];
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(x, y);
            }
        }
        BroadcastKind::SingleAxis { swapped, inner, block } => {
            let (big, small) = if *swapped { (b, a) } else { (a, b) };
            for (i, (o, &x)) in out.iter_mut().zip(big).enumerate() {
                let s_off = (i / block) * inner + (i % inner);
                let y = small[s_off];
                *o = if *swapped { f(y, x) } else { f(x, y) };
            }
        }
        BroadcastKind::Suffix { swapped, n } => {
            let (big, small) = if *swapped { (b, a) } else { (a, b) };
            for (i, (o, &x)) in out.iter_mut().zip(big).enumerate() {
                let y = small[i % n];
                *o = if *swapped { f(y, x) } else { f(x, y) };
            }
        }
        BroadcastKind::General { walk } => {
            // Row-major walk of the output space: the output is contiguous,
            // each operand advances by its own (possibly zero) stride.
            let (run, [da, db]) = (walk.run(), walk.run_strides());
            let mut rows = out.chunks_exact_mut(run);
            walk.for_each_run(|ia, ib| {
                let Some(row) = rows.next() else { return };
                let (mut ia, mut ib) = (ia, ib);
                for o in row {
                    *o = f(a[ia], b[ib]);
                    ia += da;
                    ib += db;
                }
            });
        }
    }
}

// ---------------------------------------------------------------------
// Elementwise map
// ---------------------------------------------------------------------

/// Applies `f` to every element of `src`, writing into `out`. Fully
/// overwrites `out`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn map_into(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    assert_eq!(src.len(), out.len(), "map_into: length mismatch");
    for (o, &v) in out.iter_mut().zip(src) {
        *o = f(v);
    }
}

// ---------------------------------------------------------------------
// Matmul / transpose
// ---------------------------------------------------------------------

/// Matrix product `(m, k) x (k, n) -> (m, n)` into `out`, zeroing it first.
///
/// Same i-k-j AXPY loop and `bikecap-rt` row decomposition as the eager
/// [`Tensor::matmul`][crate::Tensor::matmul]: one owner per output row, so
/// serial and parallel execution are bitwise identical.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_into: lhs length mismatch");
    assert_eq!(b.len(), k * n, "matmul_into: rhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_into: out length mismatch");
    out.fill(0.0);
    let min_rows = (PAR_MIN_WORK / (k * n).max(1)).max(1);
    bikecap_rt::parallel_items_mut(out, n, min_rows, |row0, block| {
        for (di, orow) in block.chunks_mut(n).enumerate() {
            let i = row0 + di;
            let arow = &a[i * k..(i + 1) * k];
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    });
}

/// Transpose of an `(m, n)` matrix into `out` (which becomes `(n, m)`).
/// Fully overwrites `out`.
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn transpose2d_into(src: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(src.len(), m * n, "transpose2d_into: src length mismatch");
    assert_eq!(out.len(), m * n, "transpose2d_into: out length mismatch");
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = src[i * n + j];
        }
    }
}

// ---------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------

/// Softmax over contiguous rows of length `inner` (max-subtracted), into
/// `out`. Fully overwrites `out`. One owner per row under the `bikecap-rt`
/// decomposition, so parallel == serial bitwise. The normalising division
/// happens inside this kernel, which is why softmax needs no separate
/// fusion: it is already a single fused op.
///
/// # Panics
///
/// Panics if lengths differ or are not a multiple of `inner`.
pub fn softmax_trailing_into(src: &[f32], inner: usize, out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "softmax_trailing_into: length mismatch");
    let min_rows = (PAR_MIN_WORK / inner.max(1)).max(1);
    bikecap_rt::parallel_items_mut(out, inner, min_rows, |o0, block| {
        for (di, out_row) in block.chunks_mut(inner).enumerate() {
            let o = o0 + di;
            let row = &src[o * inner..(o + 1) * inner];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (d, &v) in out_row.iter_mut().zip(row) {
                let e = (v - max).exp();
                *d = e;
                sum += e;
            }
            for d in out_row {
                *d /= sum;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------

/// Pre-resolved summation over a set of axes (keepdim layout).
#[derive(Debug, Clone)]
pub struct ReducePlan {
    out_shape: Vec<usize>,
    in_shape: Vec<usize>,
    /// Row-major walk of the input carrying (input, output) offsets; the
    /// output stride is 0 on reduced axes.
    walk: StridedWalk,
}

impl ReducePlan {
    /// The kept-dim output shape (reduced axes have extent 1).
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Number of output elements.
    pub fn len(&self) -> usize {
        num_elements(&self.out_shape)
    }

    /// True when the output holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of input elements the reduction consumes.
    pub fn in_len(&self) -> usize {
        num_elements(&self.in_shape)
    }
}

/// Plans a keepdim summation of `shape` over `axes`.
///
/// # Panics
///
/// Panics if an axis is out of range or repeated.
pub fn plan_reduce_sum(shape: &[usize], axes: &[usize]) -> ReducePlan {
    let mut reduce = vec![false; shape.len()];
    for &ax in axes {
        assert!(ax < shape.len(), "plan_reduce_sum: axis {ax} out of range");
        assert!(!reduce[ax], "plan_reduce_sum: axis {ax} repeated");
        reduce[ax] = true;
    }
    let out_shape: Vec<usize> = shape
        .iter()
        .enumerate()
        .map(|(i, &d)| if reduce[i] { 1 } else { d })
        .collect();
    let kept = strides_for(&out_shape);
    let out_strides_masked: Vec<usize> = kept
        .iter()
        .enumerate()
        .map(|(i, &s)| if reduce[i] { 0 } else { s })
        .collect();
    ReducePlan {
        walk: StridedWalk::new(shape, [&strides_for(shape), &out_strides_masked]),
        in_shape: shape.to_vec(),
        out_shape,
    }
}

/// Executes a planned keepdim summation into `out`, zeroing it first.
///
/// Walks the input linearly (row-major) with a carried multi-index,
/// accumulating each element into its output cell in input order. That
/// order is the whole accumulation contract — every caller (the eager
/// [`Tensor::sum_axes`][crate::Tensor::sum_axes], the tape's gradient
/// reductions, the compiled executor) shares this body, so results are
/// bitwise equal across paths.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn reduce_sum_into(plan: &ReducePlan, src: &[f32], out: &mut [f32]) {
    assert_eq!(
        src.len(),
        num_elements(&plan.in_shape),
        "reduce_sum_into: src length mismatch"
    );
    assert_eq!(out.len(), plan.len(), "reduce_sum_into: out length mismatch");
    out.fill(0.0);
    let (run, [_, dout]) = (plan.walk.run(), plan.walk.run_strides());
    plan.walk.for_each_run(|is, os| {
        let mut o = os;
        for &v in &src[is..is + run] {
            out[o] += v;
            o += dout;
        }
    });
}

// ---------------------------------------------------------------------
// Permute
// ---------------------------------------------------------------------

/// Pre-resolved axis permutation.
#[derive(Debug, Clone)]
pub struct PermutePlan {
    out_shape: Vec<usize>,
    /// Row-major walk of the output carrying (output, input) offsets: the
    /// input stride of output axis `i` is that of input axis `perm[i]`.
    walk: StridedWalk,
}

impl PermutePlan {
    /// The permuted output shape.
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        num_elements(&self.out_shape)
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Plans the permutation of `shape` by `perm` (output axis `i` is input axis
/// `perm[i]`).
///
/// # Panics
///
/// Panics unless `perm` is a permutation of `0..shape.len()`.
pub fn plan_permute(shape: &[usize], perm: &[usize]) -> PermutePlan {
    assert_eq!(perm.len(), shape.len(), "plan_permute: rank mismatch");
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(
            p < perm.len() && !seen[p],
            "plan_permute: invalid permutation {perm:?}"
        );
        seen[p] = true;
    }
    let out_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
    let in_strides = strides_for(shape);
    let gather: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    PermutePlan {
        walk: StridedWalk::new(&out_shape, [&strides_for(&out_shape), &gather]),
        out_shape,
    }
}

/// Executes a planned permutation into `out` (a row-major gather). Fully
/// overwrites `out`.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn permute_into(plan: &PermutePlan, src: &[f32], out: &mut [f32]) {
    assert_eq!(src.len(), plan.len(), "permute_into: src length mismatch");
    assert_eq!(out.len(), plan.len(), "permute_into: out length mismatch");
    let (run, [_, din]) = (plan.walk.run(), plan.walk.run_strides());
    plan.walk.for_each_run(|os, is| {
        let mut i = is;
        for o in &mut out[os..os + run] {
            *o = src[i];
            i += din;
        }
    });
}

// ---------------------------------------------------------------------
// Fused elementwise chains
// ---------------------------------------------------------------------

/// Fused capsule squash over the middle axis of an `[outer, dk, inner]`
/// layout: replaces the eight-node primitive chain the tape emits for
/// `squash` (square → sum → +eps → sqrt → +1 → mul → div → mul) with one
/// kernel performing the *identical* `f32` operation sequence per element:
///
/// ```text
/// sumsq  = Σ_ax (v·v)              (ascending ax, like the reduction walk)
/// denom  = (sumsq + 1.0) · sqrt(sumsq + 1e-8)
/// out    = (v / denom) · sumsq
/// ```
///
/// Outer rows fan out over the `bikecap-rt` pool with one owner per row, so
/// serial == parallel bitwise. Fully overwrites `out`.
///
/// # Panics
///
/// Panics if slice lengths do not match `outer * dk * inner`.
pub fn fused_squash_into(src: &[f32], outer: usize, dk: usize, inner: usize, out: &mut [f32]) {
    let item = dk * inner;
    assert_eq!(src.len(), outer * item, "fused_squash_into: src length mismatch");
    assert_eq!(out.len(), outer * item, "fused_squash_into: out length mismatch");
    let min_rows = (PAR_MIN_WORK / item.max(1)).max(1);
    bikecap_rt::parallel_items_mut(out, item, min_rows, |o0, block| {
        for (di, out_row) in block.chunks_mut(item).enumerate() {
            let base = (o0 + di) * item;
            out_row.copy_from_slice(&src[base..base + item]);
            squash_block_in_place(out_row, dk, inner);
        }
    });
}

/// Squash of every column of a `(dk, inner)` block in place, with the
/// operation sequence documented on [`fused_squash_into`].
fn squash_block_in_place(block: &mut [f32], dk: usize, inner: usize) {
    for x in 0..inner {
        let mut sumsq = 0.0f32;
        for ax in 0..dk {
            let v = block[ax * inner + x];
            sumsq += v * v;
        }
        let denom = (sumsq + 1.0) * (sumsq + 1e-8).sqrt();
        for ax in 0..dk {
            let idx = ax * inner + x;
            block[idx] = block[idx] / denom * sumsq;
        }
    }
}

// ---------------------------------------------------------------------
// Fused dynamic routing
// ---------------------------------------------------------------------

/// Geometry of the fused dynamic-routing kernels (paper Sec. III-D).
///
/// With `C = H·W` grid cells, the operands are laid out as:
///
/// * `V` — the per-slot predictions, in the routing transform conv's own
///   output layout `(B, p·n, S, H, W)`, read as `(B, p, n, S, C)`;
/// * `K` / logits — coupling coefficients `(B, S, H, W, p)`, read as
///   `(B, S, C, p)`;
/// * `Ŝ` — future capsules `(B, p, n, H, W)`, read as `(B, p, n, C)`.
///
/// Every kernel below walks `V` in that layout directly: no permute, no
/// reshape, no broadcast volume. DESIGN.md Appendix K gives the equations,
/// the adjoints and the determinism argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingPlan {
    batch: usize,
    slots: usize,
    horizon: usize,
    dim: usize,
    height: usize,
    width: usize,
}

impl RoutingPlan {
    /// Batch size `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Historical capsules per cell `S`.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Future capsules per cell `p`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Future capsule dimension `n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Grid cells `C = H·W`.
    pub fn cells(&self) -> usize {
        self.height * self.width
    }

    /// `V`'s shape, `(B, p·n, S, H, W)`.
    pub fn v_shape(&self) -> [usize; 5] {
        [self.batch, self.horizon * self.dim, self.slots, self.height, self.width]
    }

    /// The logits' (and coupling coefficients') shape, `(B, S, H, W, p)`.
    pub fn logits_shape(&self) -> [usize; 5] {
        [self.batch, self.slots, self.height, self.width, self.horizon]
    }

    /// The future capsules' shape, `(B, p, n, H, W)`.
    pub fn capsules_shape(&self) -> [usize; 5] {
        [self.batch, self.horizon, self.dim, self.height, self.width]
    }

    /// Scalars in `V`.
    pub fn v_len(&self) -> usize {
        num_elements(&self.v_shape())
    }

    /// Scalars in the logits / coupling coefficients.
    pub fn logits_len(&self) -> usize {
        num_elements(&self.logits_shape())
    }

    /// Scalars in the future capsules.
    pub fn capsules_len(&self) -> usize {
        num_elements(&self.capsules_shape())
    }

    /// Rows of the `rt` decomposition for a `per_row`-scalar work item.
    fn min_rows(&self, per_row: usize) -> usize {
        (PAR_MIN_WORK / per_row.max(1)).max(1)
    }
}

/// Plans the coupling step from `V (B, p·n, S, H, W)` and coefficients
/// `K (B, S, H, W, p)`; `None` when the shapes disagree.
pub fn plan_routing_couple(v: &[usize], k: &[usize]) -> Option<RoutingPlan> {
    let &[batch, pn, slots, height, width] = v else {
        return None;
    };
    let &[kb, ks, kh, kw, horizon] = k else {
        return None;
    };
    if (kb, ks, kh, kw) != (batch, slots, height, width) || horizon == 0 || pn % horizon != 0 {
        return None;
    }
    Some(RoutingPlan {
        batch,
        slots,
        horizon,
        dim: pn / horizon,
        height,
        width,
    })
}

/// Plans the agreement step from `V`, the capsules `Ŝ (B, p, n, H, W)` and
/// the logits `(B, S, H, W, p)`; `None` when the shapes disagree.
pub fn plan_routing_agree(v: &[usize], s_hat: &[usize], logits: &[usize]) -> Option<RoutingPlan> {
    let plan = plan_routing_couple(v, logits)?;
    (s_hat == plan.capsules_shape()).then_some(plan)
}

/// One `(b, i)` row of `Σ_s V·K`: `out[c][x] = Σ_s V[b,i,c,s,x]·K[b,s,x,i]`,
/// accumulated from `0.0` in ascending `s`.
fn routing_slot_sum_row(plan: &RoutingPlan, v: &[f32], k: &[f32], row: usize, out_row: &mut [f32]) {
    let (slots, p, cells) = (plan.slots, plan.horizon, plan.cells());
    let (b, i) = (row / p, row % p);
    for (c, orow) in out_row.chunks_exact_mut(cells).enumerate() {
        orow.fill(0.0);
        let vcap = (row * plan.dim + c) * slots * cells;
        for s in 0..slots {
            let vrow = &v[vcap + s * cells..vcap + (s + 1) * cells];
            let kcell = (b * slots + s) * cells * p;
            let kcol = k[kcell + i..kcell + cells * p].iter().step_by(p);
            for (o, (&vv, &kk)) in orow.iter_mut().zip(vrow.iter().zip(kcol)) {
                *o += vv * kk;
            }
        }
    }
}

/// One `(b, s)` row of `Σ_c V·U`: `out[x][i] = Σ_c V[b,i,c,s,x]·U[b,i,c,x]`,
/// accumulated from `0.0` in ascending `c`.
fn routing_capsule_dot_row(plan: &RoutingPlan, v: &[f32], u: &[f32], row: usize, out_row: &mut [f32]) {
    let (slots, p, n, cells) = (plan.slots, plan.horizon, plan.dim, plan.cells());
    let (b, s) = (row / slots, row % slots);
    out_row.fill(0.0);
    for i in 0..p {
        for c in 0..n {
            let cap = (b * p + i) * n + c;
            let vrow = &v[(cap * slots + s) * cells..(cap * slots + s + 1) * cells];
            let urow = &u[cap * cells..(cap + 1) * cells];
            let ocol = out_row[i..].iter_mut().step_by(p);
            for (o, (&vv, &uu)) in ocol.zip(vrow.iter().zip(urow)) {
                *o += vv * uu;
            }
        }
    }
}

/// The routing coupling step: `Ŝ = squash_n(Σ_s V·K)` into `out
/// (B, p, n, H, W)`. Fully overwrites `out`.
///
/// Each `(b, i)` output row has one owner on the `bikecap-rt` pool and sums
/// over `s` in ascending order from `0.0` — the accumulation order of the
/// permute → broadcast-mul → `sum_axes` composition it replaces — before the
/// squash runs over the row in place, so the result is bitwise identical
/// to that composition and to itself at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn routing_couple_into(plan: &RoutingPlan, v: &[f32], k: &[f32], out: &mut [f32]) {
    assert_eq!(v.len(), plan.v_len(), "routing_couple_into: V length mismatch");
    assert_eq!(k.len(), plan.logits_len(), "routing_couple_into: K length mismatch");
    assert_eq!(out.len(), plan.capsules_len(), "routing_couple_into: out length mismatch");
    let (n, cells) = (plan.dim, plan.cells());
    let item = n * cells;
    let min_rows = plan.min_rows(item * plan.slots);
    bikecap_rt::parallel_items_mut(out, item, min_rows, |r0, block| {
        for (d, orow) in block.chunks_mut(item).enumerate() {
            routing_slot_sum_row(plan, v, k, r0 + d, orow);
            squash_block_in_place(orow, n, cells);
        }
    });
}

/// The routing agreement step: `L' = L + Σ_c V·Ŝ` into `out (B, S, H, W, p)`.
/// Fully overwrites `out`.
///
/// Each `(b, s)` output row has one owner on the `bikecap-rt` pool; the dot
/// over `c` accumulates in ascending order from `0.0` and is then added to
/// the logit, exactly as the broadcast-mul → `sum_axes` → permute → add
/// composition it replaces, so the result is bitwise identical to it.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn routing_agree_into(
    plan: &RoutingPlan,
    v: &[f32],
    s_hat: &[f32],
    logits: &[f32],
    out: &mut [f32],
) {
    assert_eq!(v.len(), plan.v_len(), "routing_agree_into: V length mismatch");
    assert_eq!(s_hat.len(), plan.capsules_len(), "routing_agree_into: Ŝ length mismatch");
    assert_eq!(logits.len(), plan.logits_len(), "routing_agree_into: logits length mismatch");
    assert_eq!(out.len(), plan.logits_len(), "routing_agree_into: out length mismatch");
    let item = plan.cells() * plan.horizon;
    let min_rows = plan.min_rows(item * plan.dim);
    bikecap_rt::parallel_items_mut(out, item, min_rows, |r0, block| {
        for (d, orow) in block.chunks_mut(item).enumerate() {
            let row = r0 + d;
            routing_capsule_dot_row(plan, v, s_hat, row, orow);
            // `a + l` rounds exactly like `l + a`: IEEE addition commutes.
            for (o, &l) in orow.iter_mut().zip(&logits[row * item..(row + 1) * item]) {
                *o += l;
            }
        }
    });
}

/// `Σ_s V·W` into `out (B, p, n, H, W)` for any `W` in the logits layout:
/// the un-squashed coupling sum (the couple adjoint recomputes it) and the
/// agreement adjoint `dŜ = Σ_s V·dL'`. Fully overwrites `out`; one owner
/// per `(b, i)` row.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn routing_slot_sum_into(plan: &RoutingPlan, v: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(v.len(), plan.v_len(), "routing_slot_sum_into: V length mismatch");
    assert_eq!(w.len(), plan.logits_len(), "routing_slot_sum_into: W length mismatch");
    assert_eq!(out.len(), plan.capsules_len(), "routing_slot_sum_into: out length mismatch");
    let item = plan.dim * plan.cells();
    let min_rows = plan.min_rows(item * plan.slots);
    bikecap_rt::parallel_items_mut(out, item, min_rows, |r0, block| {
        for (d, orow) in block.chunks_mut(item).enumerate() {
            routing_slot_sum_row(plan, v, w, r0 + d, orow);
        }
    });
}

/// `Σ_c V·U` into `out (B, S, H, W, p)` for any `U` in the capsule layout:
/// the couple adjoint `dK = Σ_c V·dS`. Fully overwrites `out`; one owner per
/// `(b, s)` row.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn routing_capsule_dot_into(plan: &RoutingPlan, v: &[f32], u: &[f32], out: &mut [f32]) {
    assert_eq!(v.len(), plan.v_len(), "routing_capsule_dot_into: V length mismatch");
    assert_eq!(u.len(), plan.capsules_len(), "routing_capsule_dot_into: U length mismatch");
    assert_eq!(out.len(), plan.logits_len(), "routing_capsule_dot_into: out length mismatch");
    let item = plan.cells() * plan.horizon;
    let min_rows = plan.min_rows(item * plan.dim);
    bikecap_rt::parallel_items_mut(out, item, min_rows, |r0, block| {
        for (d, orow) in block.chunks_mut(item).enumerate() {
            routing_capsule_dot_row(plan, v, u, r0 + d, orow);
        }
    });
}

/// The outer product `out[b,i,c,s,x] = U[b,i,c,x]·W[b,s,x,i]` into `out`
/// in `V`'s layout: the `V` adjoint of both routing steps (`dS ⊗ K` for
/// couple, `Ŝ ⊗ dL'` for agree). Fully overwrites `out`; one owner per
/// `(b, i, c)` row.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn routing_spread_into(plan: &RoutingPlan, u: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(u.len(), plan.capsules_len(), "routing_spread_into: U length mismatch");
    assert_eq!(w.len(), plan.logits_len(), "routing_spread_into: W length mismatch");
    assert_eq!(out.len(), plan.v_len(), "routing_spread_into: out length mismatch");
    let (slots, p, n, cells) = (plan.slots, plan.horizon, plan.dim, plan.cells());
    let item = slots * cells;
    bikecap_rt::parallel_items_mut(out, item, plan.min_rows(item), |r0, block| {
        for (d, orow) in block.chunks_mut(item).enumerate() {
            let cap = r0 + d;
            let (b, i) = (cap / (p * n), (cap / n) % p);
            let urow = &u[cap * cells..(cap + 1) * cells];
            for (s, srow) in orow.chunks_exact_mut(cells).enumerate() {
                let wcell = (b * slots + s) * cells * p;
                let wcol = w[wcell + i..wcell + cells * p].iter().step_by(p);
                for (o, (&uu, &ww)) in srow.iter_mut().zip(urow.iter().zip(wcol)) {
                    *o = uu * ww;
                }
            }
        }
    });
}

/// The couple adjoint up to the weighted sum: recomputes the pre-squash
/// capsules `S = Σ_s V·K` and applies the squash Jacobian to the upstream
/// gradient, writing `dL/dS` into `out (B, p, n, H, W)`. Fully overwrites
/// `out`; one owner per `(b, i)` row.
///
/// Per column, with `q = |S|²`, `f(q) = q / ((q + 1)·√(q + ε))` and
/// `g` the upstream gradient: `dS = f·g + 2·f'(q)·(g·S)·S`.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn routing_squash_grad_into(
    plan: &RoutingPlan,
    v: &[f32],
    k: &[f32],
    grad: &[f32],
    out: &mut [f32],
) {
    assert_eq!(grad.len(), plan.capsules_len(), "routing_squash_grad_into: grad length mismatch");
    routing_slot_sum_into(plan, v, k, out);
    let cells = plan.cells();
    let item = plan.dim * cells;
    bikecap_rt::parallel_items_mut(out, item, plan.min_rows(item), |r0, block| {
        for (d, srow) in block.chunks_mut(item).enumerate() {
            let row = r0 + d;
            let grow = &grad[row * item..(row + 1) * item];
            for x in 0..cells {
                let (mut q, mut gs) = (0.0f32, 0.0f32);
                for c in 0..plan.dim {
                    let sv = srow[c * cells + x];
                    q += sv * sv;
                    gs += grow[c * cells + x] * sv;
                }
                let r = 1.0 / ((q + 1.0) * (q + 1e-8).sqrt());
                let f = q * r;
                let df = r - f / (q + 1.0) - f / (2.0 * (q + 1e-8));
                let coef = 2.0 * df * gs;
                for c in 0..plan.dim {
                    let idx = c * cells + x;
                    srow[idx] = f * grow[idx] + coef * srow[idx];
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Pyramid convolution
// ---------------------------------------------------------------------

/// Pre-resolved geometry of the paper's causal pyramid convolution
/// (Sec. III-C):
///
/// * `x` — input `(B, C_in, D, H, W)`;
/// * `w` — the dense weight parameter `(C_out, C_in, k, 2k-1, 2k-1)`, of
///   which kernel slice `kd` (lag `ℓ = k-1-kd`, so `kd = k-1` is the newest
///   slot) is active only on its centred `(2ℓ+1)²` square;
/// * output — `(B, C_out, D, H, W)`, every extent preserved.
///
/// Output slot `t` at lag `ℓ` reads input slot `t-ℓ`, and tap `(kh, kw)`
/// reads the cell shifted by `(kh-(k-1), kw-(k-1))`. The kernels below walk
/// only the active taps over their in-bounds windows: causal time bounds
/// become skipped slots and grid borders become clipped row/column ranges,
/// so nothing is padded, masked or unrolled. DESIGN.md Appendix L gives the
/// walk, the accumulation order and the adjoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PyramidPlan {
    batch: usize,
    c_in: usize,
    c_out: usize,
    k: usize,
    depth: usize,
    height: usize,
    width: usize,
}

/// One active tap's in-bounds window over an `(D, H, W)` plane: `slots`
/// time slots of `rows` grid rows of `len` contiguous columns. The output
/// row `(s, r)` starts at `out0 + s·H·W + r·W` and the input row it reads
/// at `x0` plus the same offset — input and output planes share strides.
#[derive(Debug, Clone, Copy)]
struct TapWindow {
    /// Offset of the tap inside one `(k, 2k-1, 2k-1)` kernel block.
    tap: usize,
    slots: usize,
    rows: usize,
    len: usize,
    out0: usize,
    x0: usize,
}

impl TapWindow {
    /// Calls `f(out_offset, x_offset)` at the start of every window row,
    /// slot-major then row-major.
    fn for_each_row(&self, plane: usize, width: usize, mut f: impl FnMut(usize, usize)) {
        if self.len == 0 {
            return;
        }
        for s in 0..self.slots {
            for r in 0..self.rows {
                let d = s * plane + r * width;
                f(self.out0 + d, self.x0 + d);
            }
        }
    }
}

impl PyramidPlan {
    /// Batch size `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Input channels `C_in`.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channels `C_out`.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Pyramid size `k` (kernel depth).
    pub fn pyramid_size(&self) -> usize {
        self.k
    }

    /// The preserved `(D, H, W)` extents.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.depth, self.height, self.width)
    }

    /// Active taps per `(C_out, C_in)` pair: `Σ_ℓ (2ℓ+1)²`.
    fn active_taps(&self) -> usize {
        (0..self.k).map(|lag| (2 * lag + 1) * (2 * lag + 1)).sum()
    }

    /// The input's shape, `(B, C_in, D, H, W)`.
    pub fn x_shape(&self) -> [usize; 5] {
        [self.batch, self.c_in, self.depth, self.height, self.width]
    }

    /// The dense weight's shape, `(C_out, C_in, k, 2k-1, 2k-1)`.
    pub fn w_shape(&self) -> [usize; 5] {
        let s = 2 * self.k - 1;
        [self.c_out, self.c_in, self.k, s, s]
    }

    /// The output's shape, `(B, C_out, D, H, W)`.
    pub fn out_shape(&self) -> [usize; 5] {
        [self.batch, self.c_out, self.depth, self.height, self.width]
    }

    /// Scalars in the input.
    pub fn x_len(&self) -> usize {
        num_elements(&self.x_shape())
    }

    /// Scalars in the weight.
    pub fn w_len(&self) -> usize {
        num_elements(&self.w_shape())
    }

    /// Scalars in the output.
    pub fn out_len(&self) -> usize {
        num_elements(&self.out_shape())
    }

    /// Scalars in one `(D, H, W)` plane.
    fn volume(&self) -> usize {
        self.depth * self.height * self.width
    }

    /// Scalars in one `(k, 2k-1, 2k-1)` kernel block.
    fn block(&self) -> usize {
        let s = 2 * self.k - 1;
        self.k * s * s
    }

    /// Rows of the `rt` decomposition for a `per_row`-scalar work item.
    fn min_rows(&self, per_row: usize) -> usize {
        (PAR_MIN_WORK / per_row.max(1)).max(1)
    }

    /// The active taps in ascending `(kd, kh, kw)` order — the column order
    /// of the dense kernel block — each with its clipped window.
    fn windows(&self) -> impl Iterator<Item = TapWindow> + '_ {
        let (p, s) = (self.k - 1, 2 * self.k - 1);
        let (d, h, w) = (self.depth, self.height, self.width);
        (0..self.k).flat_map(move |kd| {
            let lag = p - kd;
            (p - lag..=p + lag).flat_map(move |kh| {
                (p - lag..=p + lag).map(move |kw| {
                    // Output row i reads input row i + kh - p: keep i with
                    // 0 <= i + kh - p < h (likewise for columns).
                    let i0 = p.saturating_sub(kh);
                    let i1 = (h + p).saturating_sub(kh).min(h);
                    let j0 = p.saturating_sub(kw);
                    let j1 = (w + p).saturating_sub(kw).min(w);
                    let (rows, len) = (i1.saturating_sub(i0), j1.saturating_sub(j0));
                    // Full-width rows of one slot are one contiguous run.
                    let (rows, len) = if len == w { (1, rows * w) } else { (rows, len) };
                    TapWindow {
                        tap: (kd * s + kh) * s + kw,
                        slots: d.saturating_sub(lag),
                        rows,
                        len,
                        out0: (lag * h + i0) * w + j0,
                        x0: (i0 + kh - p) * w + j0 + kw - p,
                    }
                })
            })
        })
    }
}

/// Plans the pyramid convolution of `x (B, C_in, D, H, W)` with the dense
/// weight `w (C_out, C_in, k, 2k-1, 2k-1)`; `None` when the shapes disagree.
pub fn plan_pyramid_conv(x: &[usize], w: &[usize]) -> Option<PyramidPlan> {
    let &[batch, c_in, depth, height, width] = x else {
        return None;
    };
    let &[c_out, wc_in, k, kh, kw] = w else {
        return None;
    };
    if wc_in != c_in || k == 0 || kh != 2 * k - 1 || kw != kh {
        return None;
    }
    Some(PyramidPlan {
        batch,
        c_in,
        c_out,
        k,
        depth,
        height,
        width,
    })
}

/// The pyramid convolution forward into `out (B, C_out, D, H, W)`. Fully
/// overwrites `out`.
///
/// Each `(b, c_out)` output plane has one owner on the `bikecap-rt` pool.
/// Every element accumulates from `0.0` over the active in-bounds taps in
/// ascending `(c_in, kd, kh, kw)` order — the order the im2col GEMM of the
/// zero-pad + weight-mask + dense conv3d composition visits its patch
/// columns. That composition also adds `x·0` for every masked tap (and
/// skips its zero padding); a zero product never changes an accumulator
/// that starts at `+0.0`, so for finite operands the result is bitwise
/// identical to it, and to itself at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn pyramid_conv_into(plan: &PyramidPlan, x: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), plan.x_len(), "pyramid_conv_into: x length mismatch");
    assert_eq!(w.len(), plan.w_len(), "pyramid_conv_into: w length mismatch");
    assert_eq!(out.len(), plan.out_len(), "pyramid_conv_into: out length mismatch");
    let (vol, block, c_in, c_out) = (plan.volume(), plan.block(), plan.c_in, plan.c_out);
    if vol == 0 {
        return;
    }
    let (plane, width) = (plan.height * plan.width, plan.width);
    let min_planes = plan.min_rows(c_in * plan.active_taps() * vol);
    bikecap_rt::parallel_items_mut(out, vol, min_planes, |p0, planes| {
        for (d, oplane) in planes.chunks_mut(vol).enumerate() {
            let (b, co) = ((p0 + d) / c_out, (p0 + d) % c_out);
            oplane.fill(0.0);
            for ci in 0..c_in {
                let xplane = &x[(b * c_in + ci) * vol..(b * c_in + ci + 1) * vol];
                let wblock = &w[(co * c_in + ci) * block..(co * c_in + ci + 1) * block];
                for win in plan.windows() {
                    let wv = wblock[win.tap];
                    win.for_each_row(plane, width, |oo, xo| {
                        let orow = &mut oplane[oo..oo + win.len];
                        for (o, &xv) in orow.iter_mut().zip(&xplane[xo..xo + win.len]) {
                            *o += xv * wv;
                        }
                    });
                }
            }
        }
    });
}

/// The input adjoint `dX` of [`pyramid_conv_into`] from the output gradient
/// `grad (B, C_out, D, H, W)` into `out (B, C_in, D, H, W)`. Fully
/// overwrites `out`.
///
/// Each `(b, c_in)` input plane has one owner; it scatters `grad·w` over
/// the same tap windows in fixed `(c_out, kd, kh, kw, t, i, j)` order, so
/// serial and parallel execution are bitwise identical.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn pyramid_conv_dx_into(plan: &PyramidPlan, grad: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(grad.len(), plan.out_len(), "pyramid_conv_dx_into: grad length mismatch");
    assert_eq!(w.len(), plan.w_len(), "pyramid_conv_dx_into: w length mismatch");
    assert_eq!(out.len(), plan.x_len(), "pyramid_conv_dx_into: out length mismatch");
    let (vol, block, c_in, c_out) = (plan.volume(), plan.block(), plan.c_in, plan.c_out);
    if vol == 0 {
        return;
    }
    let (plane, width) = (plan.height * plan.width, plan.width);
    let min_planes = plan.min_rows(c_out * plan.active_taps() * vol);
    bikecap_rt::parallel_items_mut(out, vol, min_planes, |p0, planes| {
        for (d, xplane) in planes.chunks_mut(vol).enumerate() {
            let (b, ci) = ((p0 + d) / c_in, (p0 + d) % c_in);
            xplane.fill(0.0);
            for co in 0..c_out {
                let gplane = &grad[(b * c_out + co) * vol..(b * c_out + co + 1) * vol];
                let wblock = &w[(co * c_in + ci) * block..(co * c_in + ci + 1) * block];
                for win in plan.windows() {
                    let wv = wblock[win.tap];
                    win.for_each_row(plane, width, |oo, xo| {
                        let xrow = &mut xplane[xo..xo + win.len];
                        for (dx, &g) in xrow.iter_mut().zip(&gplane[oo..oo + win.len]) {
                            *dx += g * wv;
                        }
                    });
                }
            }
        }
    });
}

/// Lanes of the weight-adjoint dot products (see [`dot_row`]).
const DW_LANES: usize = 4;

/// `Σ_j g[j]·x[j]` over one window row, added into `DW_LANES` partial sums
/// (full 4-wide steps) and a scalar `tail` (the leftover columns):
/// independent chains, kept in registers across rows, instead of one serial
/// dependency. The caller folds them in a fixed order.
#[inline(always)]
fn dot_row(
    mut lanes: [f32; DW_LANES],
    mut tail: f32,
    g: &[f32],
    x: &[f32],
) -> ([f32; DW_LANES], f32) {
    let mut gs = g.chunks_exact(DW_LANES);
    let mut xs = x.chunks_exact(DW_LANES);
    for (a, b) in (&mut gs).zip(&mut xs) {
        for q in 0..DW_LANES {
            lanes[q] += a[q] * b[q];
        }
    }
    for (&a, &b) in gs.remainder().iter().zip(xs.remainder()) {
        tail += a * b;
    }
    (lanes, tail)
}

/// The weight adjoint `dW` of [`pyramid_conv_into`] from the output
/// gradient `grad (B, C_out, D, H, W)` and the input `x` into the dense
/// `out (C_out, C_in, k, 2k-1, 2k-1)`. Fully overwrites `out`.
///
/// Each `(c_out, c_in)` kernel block has one owner. An active tap's
/// gradient `Σ_{b,t,i,j} grad·x` runs over its window in `(b, t, i, j)`
/// order into [`DW_LANES`] lane sums and one tail sum (see [`dot_row`]),
/// folded as `tail + lane 0 + … + lane 3`, so the result does not depend on
/// the thread count. Masked entries stay exactly `0.0`: nothing writes
/// them.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn pyramid_conv_dw_into(plan: &PyramidPlan, grad: &[f32], x: &[f32], out: &mut [f32]) {
    assert_eq!(grad.len(), plan.out_len(), "pyramid_conv_dw_into: grad length mismatch");
    assert_eq!(x.len(), plan.x_len(), "pyramid_conv_dw_into: x length mismatch");
    assert_eq!(out.len(), plan.w_len(), "pyramid_conv_dw_into: out length mismatch");
    let (vol, block, c_in, c_out) = (plan.volume(), plan.block(), plan.c_in, plan.c_out);
    let (plane, width) = (plan.height * plan.width, plan.width);
    let min_blocks = plan.min_rows(plan.batch * plan.active_taps() * vol);
    bikecap_rt::parallel_items_mut(out, block, min_blocks, |r0, blocks| {
        for (d, wblock) in blocks.chunks_mut(block).enumerate() {
            let (co, ci) = ((r0 + d) / c_in, (r0 + d) % c_in);
            wblock.fill(0.0);
            for win in plan.windows() {
                let mut lanes = [0.0f32; DW_LANES];
                let mut tail = 0.0f32;
                for b in 0..plan.batch {
                    let gplane = &grad[(b * c_out + co) * vol..(b * c_out + co + 1) * vol];
                    let xplane = &x[(b * c_in + ci) * vol..(b * c_in + ci + 1) * vol];
                    win.for_each_row(plane, width, |oo, xo| {
                        let grow = &gplane[oo..oo + win.len];
                        (lanes, tail) = dot_row(lanes, tail, grow, &xplane[xo..xo + win.len]);
                    });
                }
                let mut total = tail;
                for l in lanes {
                    total += l;
                }
                wblock[win.tap] = total;
            }
        }
    });
}

// ---------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------

/// One spatial axis of a [`ConvPlan`]: input extent `n`, output extent
/// `m`, stride `s` and zero padding `p`. Output index `z` at kernel offset
/// `f` reads input index `z·s + f − p`.
#[derive(Debug, Clone, Copy)]
struct ConvAxis {
    n: usize,
    m: usize,
    s: usize,
    p: usize,
}

impl ConvAxis {
    /// The input index output `z` reads at kernel offset `f`, if in bounds.
    #[inline(always)]
    fn input(self, z: usize, f: usize) -> Option<usize> {
        (z * self.s + f).checked_sub(self.p).filter(|&i| i < self.n)
    }

    /// The output index whose offset-`f` tap reads input `i`, if any.
    #[inline(always)]
    fn output(self, i: usize, f: usize) -> Option<usize> {
        let t = (i + self.p).checked_sub(f)?;
        let z = if self.s == 1 {
            t
        } else if t % self.s == 0 {
            t / self.s
        } else {
            return None;
        };
        (z < self.m).then_some(z)
    }

    /// The output indices whose offset-`f` taps are in bounds.
    #[inline(always)]
    fn span(self, f: usize) -> Range<usize> {
        if self.s == 1 {
            let hi = (self.n + self.p).saturating_sub(f).min(self.m);
            return self.p.saturating_sub(f).min(hi)..hi;
        }
        let lo = self.p.saturating_sub(f).div_ceil(self.s);
        let hi = match (self.n + self.p).checked_sub(f + 1) {
            Some(last) => (last / self.s + 1).min(self.m),
            None => 0,
        };
        lo.min(hi)..hi
    }
}

/// Pre-resolved geometry of a 3-D convolution: input `x (B, C_in, D, H,
/// W)`, weight `w (C_out, C_in, KD, KH, KW)`, output `(B, C_out, OD, OH,
/// OW)`, under the stride and zero padding of a [`Conv3dSpec`].
///
/// The three kernels over it — [`conv3d_into`], [`conv3d_dx_into`] and
/// [`conv3d_dw_into`] — read input taps where they lie instead of
/// unrolling a patch matrix, and every output element accumulates in
/// exactly the order the im2col / col2im + GEMM composition used, so each
/// is bitwise equal to it for finite operands (DESIGN.md Appendix M). A
/// transposed convolution is the input adjoint of the convolution it
/// transposes: it runs [`conv3d_dx_into`] over that convolution's plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvPlan {
    batch: usize,
    c_in: usize,
    c_out: usize,
    in_dims: (usize, usize, usize),
    kernel: (usize, usize, usize),
    out_dims: (usize, usize, usize),
    spec: Conv3dSpec,
}

/// Plans the convolution of `x (B, C_in, D, H, W)` with `w (C_out, C_in,
/// KD, KH, KW)` under `spec`; `None` when the ranks or channels disagree, a
/// stride or kernel extent is zero, or the kernel exceeds the padded input
/// on some axis.
pub fn plan_conv3d(x: &[usize], w: &[usize], spec: Conv3dSpec) -> Option<ConvPlan> {
    let &[batch, c_in, d, h, wd] = x else {
        return None;
    };
    let &[c_out, wc_in, kd, kh, kw] = w else {
        return None;
    };
    let extent = |n: usize, k: usize, s: usize, p: usize| {
        (s > 0 && k > 0 && n + 2 * p >= k).then(|| (n + 2 * p - k) / s + 1)
    };
    let (sd, sh, sw) = spec.stride;
    let (pd, ph, pw) = spec.padding;
    let out_dims = (extent(d, kd, sd, pd)?, extent(h, kh, sh, ph)?, extent(wd, kw, sw, pw)?);
    (wc_in == c_in).then_some(ConvPlan {
        batch,
        c_in,
        c_out,
        in_dims: (d, h, wd),
        kernel: (kd, kh, kw),
        out_dims,
        spec,
    })
}

impl ConvPlan {
    /// Batch size `B`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Input channels `C_in`.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channels `C_out`.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Input extents `(D, H, W)`.
    pub fn in_dims(&self) -> (usize, usize, usize) {
        self.in_dims
    }

    /// Kernel extents `(KD, KH, KW)`.
    pub fn kernel(&self) -> (usize, usize, usize) {
        self.kernel
    }

    /// Output extents `(OD, OH, OW)`.
    pub fn out_dims(&self) -> (usize, usize, usize) {
        self.out_dims
    }

    /// The input's shape, `(B, C_in, D, H, W)`.
    pub fn x_shape(&self) -> [usize; 5] {
        let (d, h, w) = self.in_dims;
        [self.batch, self.c_in, d, h, w]
    }

    /// The weight's shape, `(C_out, C_in, KD, KH, KW)`.
    pub fn w_shape(&self) -> [usize; 5] {
        let (kd, kh, kw) = self.kernel;
        [self.c_out, self.c_in, kd, kh, kw]
    }

    /// The output's shape, `(B, C_out, OD, OH, OW)`.
    pub fn out_shape(&self) -> [usize; 5] {
        let (od, oh, ow) = self.out_dims;
        [self.batch, self.c_out, od, oh, ow]
    }

    /// Scalars in the input.
    pub fn x_len(&self) -> usize {
        num_elements(&self.x_shape())
    }

    /// Scalars in the weight.
    pub fn w_len(&self) -> usize {
        num_elements(&self.w_shape())
    }

    /// Scalars in the output.
    pub fn out_len(&self) -> usize {
        num_elements(&self.out_shape())
    }

    /// Patch length `K = C_in·KD·KH·KW`: the taps behind one output element.
    pub fn patch_len(&self) -> usize {
        self.c_in * self.kernel.0 * self.kernel.1 * self.kernel.2
    }

    /// Output positions per sample, `OD·OH·OW`.
    pub fn positions(&self) -> usize {
        self.out_dims.0 * self.out_dims.1 * self.out_dims.2
    }

    fn axes(&self) -> [ConvAxis; 3] {
        let (n, m, s, p) = (self.in_dims, self.out_dims, self.spec.stride, self.spec.padding);
        [
            ConvAxis { n: n.0, m: m.0, s: s.0, p: p.0 },
            ConvAxis { n: n.1, m: m.1, s: s.1, p: p.1 },
            ConvAxis { n: n.2, m: m.2, s: s.2, p: p.2 },
        ]
    }

    /// Kernel rows `(c_in, kd, kh)` in the patch: `K / KW`.
    fn kernel_rows(&self) -> usize {
        self.c_in * self.kernel.0 * self.kernel.1
    }

    /// Kernel row `r` as its `(c_in, kd, kh)` coordinates.
    fn kernel_row(&self, r: usize) -> KernelRow {
        let (kd, kh, _) = self.kernel;
        KernelRow {
            ci: r / (kd * kh),
            fd: (r / kh) % kd,
            fh: r % kh,
        }
    }

    /// Calls `f(column, tap)` for every in-bounds input tap of `rows`
    /// kernel rows from `start`, behind output position `pos = (od, oh,
    /// ow)` of sample `b`: a slice of its im2col patch row, read in place,
    /// in ascending column order (`column` counts from `start`'s first
    /// column). Padding taps are skipped.
    #[inline(always)]
    fn for_each_tap(
        &self,
        x: &[f32],
        b: usize,
        pos: (usize, usize, usize),
        start: KernelRow,
        rows: usize,
        mut f: impl FnMut(usize, f32),
    ) {
        let [ad, ah, aw] = self.axes();
        let (d, h, wd) = self.in_dims;
        let (kd, kh, kw) = self.kernel;
        // Kernel column fw reads input column w0 + fw − p: in bounds for
        // fw in [fw_lo, fw_hi), the same for every kernel row.
        let w0 = pos.2 * aw.s;
        let fw_lo = aw.p.saturating_sub(w0).min(kw);
        let fw_hi = (wd + aw.p).saturating_sub(w0).min(kw);
        if fw_lo >= fw_hi {
            return;
        }
        let mut row = start;
        for r in 0..rows {
            if let (Some(id), Some(ih)) = (ad.input(pos.0, row.fd), ah.input(pos.1, row.fh)) {
                let xrow = &x[(((b * self.c_in + row.ci) * d + id) * h + ih) * wd..][..wd];
                for (fw, &v) in (fw_lo..).zip(&xrow[w0 + fw_lo - aw.p..w0 + fw_hi - aw.p]) {
                    f(r * kw + fw, v);
                }
            }
            row.advance(kd, kh);
        }
    }

    /// Writes kernel rows `rows` of the im2col patch row behind output
    /// position `pos = (od, oh, ow)` of sample `b` into `dst`: `KW` values
    /// per kernel row `(c_in, kd, kh)`, in ascending `(c_in, kd, kh, kw)`
    /// order, `0.0` where a tap falls in the padding. Callers gather a
    /// bounded slice of one row at a time into a stack buffer; nothing
    /// materialises the patch matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` runs past the patch or `dst` is not
    /// `rows.len()·KW` long.
    pub fn patch_rows_into(
        &self,
        x: &[f32],
        b: usize,
        pos: (usize, usize, usize),
        rows: Range<usize>,
        dst: &mut [f32],
    ) {
        assert!(rows.end <= self.kernel_rows(), "patch_rows_into: rows past the patch");
        assert_eq!(dst.len(), rows.len() * self.kernel.2, "patch_rows_into: dst length mismatch");
        dst.fill(0.0);
        self.for_each_tap(x, b, pos, self.kernel_row(rows.start), rows.len(), |kk, v| dst[kk] = v);
    }
}

/// A kernel row `(c_in, kd, kh)` of the patch: `KW` consecutive columns.
#[derive(Debug, Clone, Copy)]
struct KernelRow {
    ci: usize,
    fd: usize,
    fh: usize,
}

impl KernelRow {
    /// Steps to the next kernel row of a `(KD, KH)` kernel.
    #[inline(always)]
    fn advance(&mut self, kd: usize, kh: usize) {
        self.fh += 1;
        if self.fh == kh {
            self.fh = 0;
            self.fd += 1;
            if self.fd == kd {
                self.fd = 0;
                self.ci += 1;
            }
        }
    }
}

/// Transposed-weight (forward) or weight-gradient (`dW`) floats per stack
/// tile of the lane kernels (16 KiB).
const WT_TILE: usize = 4096;

/// Output positions per accumulator tile of [`conv3d_into`].
const POS_TILE: usize = 64;

/// The convolution forward into `out (B, C_out, OD, OH, OW)`. Fully
/// overwrites `out`.
///
/// An implicit GEMM vectorised over `C_out`: each output position walks its
/// in-bounds input taps in ascending `(c_in, kd, kh, kw)` order — its im2col
/// patch row, read in place — and multiply-adds each tap into an
/// accumulator of `L ∈ {4, 8, 16}` output-channel lanes, against a
/// transposed-weight tile on the stack. That is the i-k-j loop of the
/// im2col GEMM row by row: every element sums from `+0.0` in the patch
/// order. The GEMM skipped zero patch entries (padding included); the walk
/// skips only padding, and a zero tap adds a signed zero to an accumulator
/// that is never `-0.0`, which leaves it unchanged — so for finite
/// operands the result is bitwise that GEMM's, with no data-dependent
/// branch in the inner loop. Output positions are the parallel
/// unit ([`bikecap_rt::parallel_columns_mut`] over the `(B·C_out,
/// OD·OH·OW)` output), so a single sample still fans out. Wide channel
/// counts run `L` channels at a time; patches longer than a tile run a
/// tile of kernel rows at a time, the partial sums parked in `out` between
/// tiles.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan, or if one kernel row
/// (`KW`) does not fit a [`WT_TILE`] tile at 16 lanes.
pub fn conv3d_into(plan: &ConvPlan, x: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), plan.x_len(), "conv3d_into: x length mismatch");
    assert_eq!(w.len(), plan.w_len(), "conv3d_into: w length mismatch");
    assert_eq!(out.len(), plan.out_len(), "conv3d_into: out length mismatch");
    match plan.c_out {
        0..=4 => conv3d_lanes::<4>(plan, x, w, out),
        5..=8 => conv3d_lanes::<8>(plan, x, w, out),
        _ => conv3d_lanes::<16>(plan, x, w, out),
    }
}

/// [`conv3d_into`] at `L` output-channel lanes.
fn conv3d_lanes<const L: usize>(plan: &ConvPlan, x: &[f32], w: &[f32], out: &mut [f32]) {
    let (k, c_out, kw) = (plan.patch_len(), plan.c_out, plan.kernel.2);
    let (_, oh, ow) = plan.out_dims;
    let rows = plan.kernel_rows();
    let tile_rows = (WT_TILE / (L * kw).max(1)).clamp(1, rows.max(1));
    assert!(
        tile_rows * kw * L <= WT_TILE,
        "conv3d_into: kernel width {kw} exceeds the weight tile"
    );
    let min_cols = (PAR_MIN_WORK / (plan.batch * k * c_out).max(1)).max(1);
    bikecap_rt::parallel_columns_mut(out, plan.positions(), min_cols, |mut block| {
        let cols = block.cols();
        let mut wt = [0.0f32; WT_TILE];
        let mut tile = [[0.0f32; L]; POS_TILE];
        for co0 in (0..c_out).step_by(L) {
            let lanes = L.min(c_out - co0);
            for r0 in (0..rows).step_by(tile_rows) {
                let (k0, nk) = (r0 * kw, tile_rows.min(rows - r0) * kw);
                // wt[kk·L + j] = w[co0 + j, k0 + kk]; unused lanes stay 0.
                let wt = &mut wt[..nk * L];
                wt.fill(0.0);
                for (j, wrow) in w[co0 * k..(co0 + lanes) * k].chunks_exact(k).enumerate() {
                    for (t, &wv) in wt.chunks_exact_mut(L).zip(&wrow[k0..k0 + nk]) {
                        t[j] = wv;
                    }
                }
                let start = plan.kernel_row(r0);
                for b in 0..plan.batch {
                    let row0 = b * c_out + co0;
                    for c0 in (0..cols.len()).step_by(POS_TILE) {
                        let tile = &mut tile[..POS_TILE.min(cols.len() - c0)];
                        let n = tile.len();
                        for (j, row) in (row0..row0 + lanes).enumerate() {
                            for (acc, &o) in tile.iter_mut().zip(&block.row(row)[c0..c0 + n]) {
                                acc[j] = if r0 == 0 { 0.0 } else { o };
                            }
                        }
                        for (at, acc) in (cols.start + c0..).zip(tile.iter_mut()) {
                            let pos = (at / (oh * ow), (at / ow) % oh, at % ow);
                            plan.for_each_tap(x, b, pos, start, nk / kw, |kk, v| {
                                for (a, &wv) in acc.iter_mut().zip(&wt[kk * L..kk * L + L]) {
                                    *a += v * wv;
                                }
                            });
                        }
                        for (j, row) in (row0..row0 + lanes).enumerate() {
                            for (o, acc) in block.row(row)[c0..c0 + n].iter_mut().zip(tile.iter()) {
                                *o = acc[j];
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Output columns per channel-sum tile of [`conv3d_dx_into`].
const DX_LANES: usize = 8;

/// `DX_LANES` values from the front of `s`, zero-padded past its end.
#[inline(always)]
fn load_lanes(s: &[f32]) -> [f32; DX_LANES] {
    if s.len() >= DX_LANES {
        return std::array::from_fn(|i| s[i]);
    }
    let mut v = [0.0f32; DX_LANES];
    for (l, &x) in v.iter_mut().zip(s) {
        *l = x;
    }
    v
}

/// The input adjoint `dX` of [`conv3d_into`] from the output gradient
/// `grad (B, C_out, OD, OH, OW)` into `out (B, C_in, D, H, W)`: the
/// transposed convolution of `grad`. Fully overwrites `out`.
///
/// Each input plane `(b, c_in, d)` has one owner. It walks the taps in
/// descending `(kd, kh, kw)` order; per tap and output row it sums the
/// channel terms `Σ_{c_out} grad·w` from `+0.0` in ascending `c_out` over
/// [`DX_LANES`] output columns at a time (in registers, reading `grad`
/// rows in place), then adds each in-bounds term into the input element
/// the tap maps it to. An input element thus gets one term per output
/// position that reads it, in ascending position order — descending tap
/// order is ascending position — and each term is complete before it is
/// added: the GEMM-then-col2im order (the GEMM row of a position sums over
/// `c_out` first; col2im scatters the rows in ascending position order).
/// Lanes past a row's in-bounds span are computed and dropped.
///
/// # Panics
///
/// Panics if slice lengths do not match the plan.
pub fn conv3d_dx_into(plan: &ConvPlan, grad: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(grad.len(), plan.out_len(), "conv3d_dx_into: grad length mismatch");
    assert_eq!(w.len(), plan.w_len(), "conv3d_dx_into: w length mismatch");
    assert_eq!(out.len(), plan.x_len(), "conv3d_dx_into: out length mismatch");
    let [ad, ah, aw] = plan.axes();
    let (c_in, c_out) = (plan.c_in, plan.c_out);
    let (d, h, wd) = plan.in_dims;
    let (kd, kh, kw) = plan.kernel;
    let (_, oh, ow) = plan.out_dims;
    let (positions, taps) = (plan.positions(), kd * kh * kw);
    let min_planes = (PAR_MIN_WORK / (c_out * taps * h * wd).max(1)).max(1);
    bikecap_rt::parallel_items_mut(out, h * wd, min_planes, |p0, planes| {
        for (dp, xplane) in planes.chunks_mut(h * wd).enumerate() {
            let pi = p0 + dp;
            let (id, ci, b) = (pi % d, (pi / d) % c_in, pi / (d * c_in));
            xplane.fill(0.0);
            for fd in (0..kd).rev() {
                let Some(zd) = ad.output(id, fd) else { continue };
                let g0 = b * c_out * positions + zd * oh * ow;
                for fh in (0..kh).rev() {
                    for fw in (0..kw).rev() {
                        let tap = (fd * kh + fh) * kw + fw;
                        let zws = aw.span(fw);
                        if zws.is_empty() {
                            continue;
                        }
                        for zh in ah.span(fh) {
                            let ih = zh * ah.s + fh - ah.p;
                            let xrow = &mut xplane[ih * wd..(ih + 1) * wd];
                            let grow0 = g0 + zh * ow;
                            let first = zws.start - zws.start % DX_LANES;
                            for z0 in (first..zws.end).step_by(DX_LANES) {
                                let mut terms = [0.0f32; DX_LANES];
                                for co in 0..c_out {
                                    let wv = w[(co * c_in + ci) * taps + tap];
                                    let g0 = grow0 + co * positions + z0;
                                    let g = load_lanes(&grad[g0..g0 + DX_LANES.min(ow - z0)]);
                                    for (t, &gv) in terms.iter_mut().zip(&g) {
                                        *t += gv * wv;
                                    }
                                }
                                let (lo, hi) = (zws.start.max(z0), zws.end.min(z0 + DX_LANES));
                                for (zw, &t) in (lo..hi).zip(&terms[lo - z0..]) {
                                    xrow[zw * aw.s + fw - aw.p] += t;
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Parallel `dW` chunks per call, at most: each chunk walks every output
/// position, so wider chunks amortise that walk over more columns.
const DW_CHUNKS: usize = 4;

/// Output columns per gradient tile of [`conv3d_dw_into`].
const DW_ROW_TILE: usize = 64;

/// The weight adjoint `dW` of [`conv3d_into`] from the output gradient
/// `grad (B, C_out, OD, OH, OW)` and the input `x` into `out (C_out, C_in,
/// KD, KH, KW)`. Fully overwrites `out`.
///
/// `out` is the `(C_out, K)` product `gradᵀ × col` of the patch-matrix
/// path, and it keeps that product's order: every element sums from `+0.0`
/// over the output positions in ascending `(b, od, oh, ow)` order, one
/// serial accumulator each — no element's sum is split. The vector lanes
/// run across `L ∈ {4, 8, 16}` output channels instead. Per output row,
/// the row's gradients are staged as `(OW, L)` lanes on the stack; then
/// each in-bounds kernel tap loads its `L` accumulators once, multiply-adds
/// the whole row's taps into them in ascending `ow`, and stores them back
/// into a transposed `(K, L)` tile that is written to `out` at the end.
/// The GEMM skipped zero gradients and added zero products for padding
/// taps; both only ever add a signed zero to an accumulator that is never
/// `-0.0`, so for finite operands the sums are bitwise equal. Parallel
/// chunks own whole kernel rows of all `C_out` rows
/// ([`bikecap_rt::parallel_columns_mut`]).
///
/// # Panics
///
/// Panics if slice lengths do not match the plan, or if one kernel row
/// (`KW`) does not fit a [`WT_TILE`] tile at 16 lanes.
pub fn conv3d_dw_into(plan: &ConvPlan, grad: &[f32], x: &[f32], out: &mut [f32]) {
    assert_eq!(grad.len(), plan.out_len(), "conv3d_dw_into: grad length mismatch");
    assert_eq!(x.len(), plan.x_len(), "conv3d_dw_into: x length mismatch");
    assert_eq!(out.len(), plan.w_len(), "conv3d_dw_into: out length mismatch");
    match plan.c_out {
        0..=4 => conv3d_dw_lanes::<4>(plan, grad, x, out),
        5..=8 => conv3d_dw_lanes::<8>(plan, grad, x, out),
        _ => conv3d_dw_lanes::<16>(plan, grad, x, out),
    }
}

/// [`conv3d_dw_into`] at `L` output-channel lanes.
fn conv3d_dw_lanes<const L: usize>(plan: &ConvPlan, grad: &[f32], x: &[f32], out: &mut [f32]) {
    let [ad, ah, aw] = plan.axes();
    let (c_in, c_out, positions) = (plan.c_in, plan.c_out, plan.positions());
    let (d, h, wd) = plan.in_dims;
    let (kd, kh, kw) = plan.kernel;
    let (od, oh, ow) = plan.out_dims;
    let rows = plan.kernel_rows();
    let tile_rows = (WT_TILE / (L * kw).max(1)).max(1);
    assert!(tile_rows * kw * L <= WT_TILE, "conv3d_dw_into: kernel width {kw} exceeds the tile");
    // Chunks of whole kernel rows: a column count that is a multiple of KW
    // and no smaller than the ChunkPlan's own floor, so it is used as is.
    let per_row = plan.batch * positions * c_out * kw;
    let chunk_rows = (PAR_MIN_WORK / per_row.max(1))
        .max(rows.div_ceil(DW_CHUNKS))
        .max(rows.div_ceil(bikecap_rt::MAX_CHUNKS));
    bikecap_rt::parallel_columns_mut(out, plan.patch_len(), chunk_rows * kw, |mut block| {
        let cols = block.cols();
        let (first, last) = (cols.start / kw.max(1), cols.end / kw.max(1));
        let mut tile = [0.0f32; WT_TILE];
        let mut gl = [[0.0f32; L]; DW_ROW_TILE];
        for co0 in (0..c_out).step_by(L) {
            let lanes = L.min(c_out - co0);
            for r0 in (first..last).step_by(tile_rows) {
                let nr = tile_rows.min(last - r0);
                let acc = &mut tile[..nr * kw * L];
                acc.fill(0.0);
                let start = plan.kernel_row(r0);
                for b in 0..plan.batch {
                    let gb = (b * c_out + co0) * positions;
                    for zd in 0..od {
                        for zh in 0..oh {
                            for z0 in (0..ow).step_by(DW_ROW_TILE) {
                                let zn = DW_ROW_TILE.min(ow - z0);
                                let g0 = gb + (zd * oh + zh) * ow + z0;
                                for j in 0..lanes {
                                    let grow = &grad[g0 + j * positions..][..zn];
                                    for (g, &gv) in gl.iter_mut().zip(grow) {
                                        g[j] = gv;
                                    }
                                }
                                let mut row = start;
                                for r in 0..nr {
                                    let id = ad.input(zd, row.fd);
                                    if let (Some(id), Some(ih)) = (id, ah.input(zh, row.fh)) {
                                        let x0 = (((b * c_in + row.ci) * d + id) * h + ih) * wd;
                                        let xrow = &x[x0..x0 + wd];
                                        for fw in 0..kw {
                                            let zs = aw.span(fw);
                                            let (lo, hi) = (zs.start.max(z0), zs.end.min(z0 + zn));
                                            if lo >= hi {
                                                continue;
                                            }
                                            let a = &mut acc[(r * kw + fw) * L..][..L];
                                            let mut av = [0.0f32; L];
                                            av.copy_from_slice(a);
                                            for (zw, g) in (lo..hi).zip(&gl[lo - z0..]) {
                                                let v = xrow[zw * aw.s + fw - aw.p];
                                                for (s, &gv) in av.iter_mut().zip(g) {
                                                    *s += gv * v;
                                                }
                                            }
                                            a.copy_from_slice(&av);
                                        }
                                    }
                                    row.advance(kd, kh);
                                }
                            }
                        }
                    }
                }
                let c0 = r0 * kw - cols.start;
                for j in 0..lanes {
                    let row = &mut block.row(co0 + j)[c0..c0 + nr * kw];
                    for (o, a) in row.iter_mut().zip(acc.chunks_exact(L)) {
                        *o = a[j];
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(41)
    }

    /// Per-element div/mod multi-index of flat position `i` in `shape`,
    /// dotted with `strides`: the offset rebuild the strided walks replace,
    /// kept here as the reference they must match bitwise.
    fn divmod_offset(i: usize, shape: &[usize], strides: &[usize]) -> usize {
        let row = strides_for(shape);
        (0..shape.len()).map(|ax| (i / row[ax]) % shape[ax] * strides[ax]).sum()
    }

    fn reference_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        let out_shape = broadcast_shapes(a.shape(), b.shape()).unwrap();
        let sa = broadcast_strides(a.shape(), out_shape.len());
        let sb = broadcast_strides(b.shape(), out_shape.len());
        (0..num_elements(&out_shape))
            .map(|i| {
                f(
                    a.as_slice()[divmod_offset(i, &out_shape, &sa)],
                    b.as_slice()[divmod_offset(i, &out_shape, &sb)],
                )
            })
            .collect()
    }

    fn reference_reduce(t: &Tensor, axes: &[usize]) -> Vec<f32> {
        let mut out_shape = t.shape().to_vec();
        for &ax in axes {
            out_shape[ax] = 1;
        }
        let masked: Vec<usize> = strides_for(&out_shape)
            .iter()
            .enumerate()
            .map(|(ax, &s)| if axes.contains(&ax) { 0 } else { s })
            .collect();
        let mut out = vec![0.0; num_elements(&out_shape)];
        for (i, &v) in t.as_slice().iter().enumerate() {
            out[divmod_offset(i, t.shape(), &masked)] += v;
        }
        out
    }

    fn reference_permute(t: &Tensor, perm: &[usize]) -> Vec<f32> {
        let out_shape: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
        let in_strides = strides_for(t.shape());
        let gather: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        (0..t.len())
            .map(|i| t.as_slice()[divmod_offset(i, &out_shape, &gather)])
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn planned_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let plan = plan_broadcast(a.shape(), b.shape()).unwrap();
        let mut out = vec![0.0; plan.len()];
        zip_planned_into(&plan, a.as_slice(), b.as_slice(), &mut out, f);
        Tensor::from_vec(out, plan.out_shape())
    }

    #[test]
    fn planned_broadcast_matches_eager_on_every_dispatch_kind() {
        let mut r = rng();
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![2, 3], vec![2, 3]),               // same
            (vec![2, 3], vec![1]),                  // scalar rhs
            (vec![1, 1], vec![4, 2]),               // scalar lhs
            (vec![2, 5, 3], vec![2, 1, 3]),         // single axis
            (vec![2, 1, 3], vec![2, 5, 3]),         // single axis swapped
            (vec![4, 2, 3], vec![2, 3]),            // suffix
            (vec![2, 3], vec![4, 2, 3]),            // suffix swapped
            (vec![2, 4, 3, 5, 5], vec![1, 4, 1, 1, 1]), // general (bias add)
            (vec![1, 4, 1, 1, 1], vec![2, 4, 3, 5, 5]), // general swapped
            (vec![2, 3, 1, 4, 1, 5], vec![1, 3, 2, 1, 3, 5]), // general, rank 6
            (vec![1, 1, 3, 4], vec![0, 1, 3, 1]),   // general, empty
        ];
        for (sa, sb) in cases {
            let a = Tensor::rand_uniform(&sa, -2.0, 2.0, &mut r);
            let b = Tensor::rand_uniform(&sb, 0.5, 2.0, &mut r);
            for f in [
                |x: f32, y: f32| x + y,
                |x: f32, y: f32| x - y,
                |x: f32, y: f32| x / y,
            ] {
                let eager = a.zip_broadcast(&b, f);
                let planned = planned_zip(&a, &b, f);
                assert_eq!(eager.shape(), planned.shape(), "{sa:?} op {sb:?}");
                assert_eq!(eager.as_slice(), planned.as_slice(), "{sa:?} op {sb:?}");
                let want = reference_zip(&a, &b, f);
                assert_eq!(bits(&want), bits(planned.as_slice()), "{sa:?} op {sb:?}");
            }
        }
    }

    #[test]
    fn planned_reduce_matches_eager_sum_axes() {
        let mut r = rng();
        let cases: Vec<(Vec<usize>, Vec<Vec<usize>>)> = vec![
            (vec![3, 4, 2, 5], vec![vec![1], vec![3], vec![0, 2], vec![1, 3]]),
            // Rank 6: the routing volume's (B, S, p, n, H, W) reductions.
            (
                vec![2, 3, 2, 4, 2, 3],
                vec![vec![1], vec![3], vec![0, 2, 5], vec![1, 3], vec![0, 1, 2, 3, 4, 5]],
            ),
            (vec![2, 1, 3, 1, 1, 4], vec![vec![1], vec![2], vec![0, 5]]),
        ];
        for (shape, axes_list) in cases {
            let t = Tensor::rand_uniform(&shape, -1.0, 1.0, &mut r);
            for axes in axes_list {
                let plan = plan_reduce_sum(t.shape(), &axes);
                let mut out = vec![7.7; plan.len()]; // stale data must be cleared
                reduce_sum_into(&plan, t.as_slice(), &mut out);
                let eager = t.sum_axes(&axes, true);
                assert_eq!(eager.shape(), plan.out_shape());
                assert_eq!(eager.as_slice(), &out[..], "{shape:?} axes {axes:?}");
                let want = reference_reduce(&t, &axes);
                assert_eq!(bits(&want), bits(&out), "{shape:?} axes {axes:?}");
            }
        }
    }

    #[test]
    fn planned_permute_matches_eager() {
        let mut r = rng();
        let cases: Vec<(Vec<usize>, Vec<Vec<usize>>)> = vec![
            (vec![2, 3, 4, 5], vec![vec![3, 1, 0, 2], vec![0, 2, 1, 3], vec![1, 0, 3, 2]]),
            // Rank 6: the encoder's capsule-layout swap and the old routing
            // prediction permute.
            (
                vec![2, 3, 4, 2, 3, 5],
                vec![vec![0, 1, 3, 2, 4, 5], vec![0, 3, 1, 2, 4, 5], vec![5, 4, 3, 2, 1, 0]],
            ),
            (vec![1, 3, 1, 2, 1, 4], vec![vec![3, 1, 0, 2, 5, 4]]),
        ];
        for (shape, perms) in cases {
            let t = Tensor::rand_uniform(&shape, -1.0, 1.0, &mut r);
            for perm in perms {
                let plan = plan_permute(t.shape(), &perm);
                let mut out = vec![0.0; plan.len()];
                permute_into(&plan, t.as_slice(), &mut out);
                let eager = t.permute(&perm);
                assert_eq!(eager.shape(), plan.out_shape());
                assert_eq!(eager.as_slice(), &out[..], "{shape:?} perm {perm:?}");
                assert_eq!(bits(&reference_permute(&t, &perm)), bits(&out), "{shape:?} perm {perm:?}");
            }
        }
    }

    /// `(V, K, Ŝ, L)` for a routing step with `V` in the transform conv's
    /// natural layout.
    fn routing_operands(b: usize, s: usize, p: usize, n: usize, hw: (usize, usize)) -> [Tensor; 4] {
        let mut r = rng();
        let v = Tensor::rand_uniform(&[b, p * n, s, hw.0, hw.1], -1.0, 1.0, &mut r);
        let logits = Tensor::rand_uniform(&[b, s, hw.0, hw.1, p], -2.0, 2.0, &mut r);
        let k = logits.softmax_trailing(1);
        let s_hat = Tensor::rand_uniform(&[b, p, n, hw.0, hw.1], -0.5, 0.5, &mut r);
        [v, k, s_hat, logits]
    }

    #[test]
    fn routing_kernels_match_the_permute_mul_sum_composition_bitwise() {
        let (b, s, p, n, (gh, gw)) = (2, 3, 2, 4, (3, 2));
        let [v, k, s_hat, logits] = routing_operands(b, s, p, n, (gh, gw));
        // The prediction volume (B, S, p, n, H, W) the old composition used.
        let vol = v.reshape(&[b, p, n, s, gh, gw]).permute(&[0, 3, 1, 2, 4, 5]);

        let kb = k.permute(&[0, 1, 4, 2, 3]).reshape(&[b, s, p, 1, gh, gw]);
        let raw = vol.mul(&kb).sum_axes(&[1], true).reshape(&[b, p, n, gh, gw]);
        let mut want = vec![0.0; raw.len()];
        fused_squash_into(raw.as_slice(), b * p, n, gh * gw, &mut want);
        let plan = plan_routing_couple(v.shape(), k.shape()).unwrap();
        let mut got = vec![9.9; plan.capsules_len()];
        routing_couple_into(&plan, v.as_slice(), k.as_slice(), &mut got);
        assert_eq!(bits(&want), bits(&got), "couple");

        let agree = vol
            .mul(&s_hat.reshape(&[b, 1, p, n, gh, gw]))
            .sum_axes(&[3], true)
            .reshape(&[b, s, p, gh, gw])
            .permute(&[0, 1, 3, 4, 2]);
        let want = logits.add(&agree);
        let plan = plan_routing_agree(v.shape(), s_hat.shape(), logits.shape()).unwrap();
        let mut got = vec![9.9; plan.logits_len()];
        routing_agree_into(&plan, v.as_slice(), s_hat.as_slice(), logits.as_slice(), &mut got);
        assert_eq!(bits(want.as_slice()), bits(&got), "agree");
    }

    #[test]
    fn routing_plans_reject_mismatched_shapes() {
        assert!(plan_routing_couple(&[2, 6, 3, 4, 4], &[2, 3, 4, 4, 4]).is_none()); // 6 % 4
        assert!(plan_routing_couple(&[2, 8, 3, 4, 4], &[2, 2, 4, 4, 4]).is_none()); // S
        assert!(plan_routing_couple(&[2, 8, 3, 4], &[2, 3, 4, 4, 4]).is_none()); // rank
        let plan = plan_routing_couple(&[2, 8, 3, 4, 5], &[2, 3, 4, 5, 4]).unwrap();
        assert_eq!((plan.horizon(), plan.dim(), plan.cells()), (4, 2, 20));
        assert_eq!(plan.capsules_shape(), [2, 4, 2, 4, 5]);
        assert!(plan_routing_agree(&[2, 8, 3, 4, 5], &[2, 4, 2, 4, 4], &[2, 3, 4, 5, 4]).is_none());
    }

    #[test]
    fn matmul_into_clears_stale_output() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut out = vec![99.0; 4];
        matmul_into(a.as_slice(), b.as_slice(), 2, 2, 2, &mut out);
        assert_eq!(out, a.matmul(&b).as_slice());
    }

    #[test]
    fn fused_squash_matches_primitive_chain_bitwise() {
        let mut r = rng();
        // [outer, dk, inner] layouts covering both tiny and rt-parallel sizes.
        for (outer, dk, inner) in [(2, 4, 9), (1, 2, 3), (64, 8, 64)] {
            let t = Tensor::rand_uniform(&[outer, dk, inner], -3.0, 3.0, &mut r);
            // The tape's primitive emission, replayed on eager tensors.
            let sq = t.square();
            let sumsq = sq.sum_axes(&[1], true);
            let norm = sumsq.add_scalar(1e-8).sqrt();
            let denom = sumsq.add_scalar(1.0).mul(&norm);
            let expect = t.div(&denom).mul(&sumsq);
            let mut out = vec![0.0; t.len()];
            fused_squash_into(t.as_slice(), outer, dk, inner, &mut out);
            assert_eq!(expect.as_slice(), &out[..], "({outer},{dk},{inner})");
        }
    }

    #[test]
    fn fused_squash_of_zero_vector_is_zero() {
        let mut out = vec![1.0; 6];
        fused_squash_into(&[0.0; 6], 1, 2, 3, &mut out);
        assert_eq!(out, [0.0; 6]);
    }
}
