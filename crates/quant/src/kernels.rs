//! Quantized kernel bodies shared by the eager tape and the compiled
//! executor.
//!
//! Activations are quantized on the fly, one 32-element block per row (or
//! convolution patch row, gathered in place) at a time into a stack buffer —
//! the hot path performs no heap allocation. Each block dot product accumulates in `i32` and is
//! rescaled to f32 by the product of the two block scales; per output
//! element the block contributions add in ascending block order, so the
//! f32 accumulation order is fixed.
//!
//! Determinism contract: output rows (matmul) or output positions (conv)
//! are distributed with [`bikecap_rt::parallel_items_mut`] /
//! [`bikecap_rt::parallel_columns_mut`], which hand each to exactly one
//! worker. Combined with the fixed in-row accumulation order this makes the
//! result bitwise identical at any thread count, and — because the eager
//! overlay and the compiled executor call these same bodies — bitwise
//! identical across `BIKECAP_EXECUTOR` modes.

use bikecap_tensor::conv::{checked_plan, Conv3dSpec};
use bikecap_tensor::exec::ConvPlan;

use crate::format::{Q8Tensor, QK8_0};

/// Minimum per-chunk scalar work before the parallel runtime splits a loop
/// (same floor as the f32 kernels in `bikecap-tensor`).
const PAR_MIN_WORK: usize = 8 * 1024;

/// Quantizes one activation block (at most [`QK8_0`] values) into `qa`,
/// zero-filling the tail, and returns its scale — or `None` for an all-zero
/// block, whose every contribution would be exactly `0.0` (callers skip
/// it; a `+=` of it would be a no-op).
#[inline(always)]
fn quantize_block(ablk: &[f32], qa: &mut [i8; QK8_0]) -> Option<f32> {
    let mut amax = 0.0f32;
    for &v in ablk {
        amax = amax.max(v.abs());
    }
    if amax == 0.0 {
        return None;
    }
    let inv = 127.0 / amax;
    for (q, &v) in qa.iter_mut().zip(ablk) {
        *q = round_to_i8(v * inv);
    }
    for q in qa.iter_mut().skip(ablk.len()) {
        *q = 0;
    }
    Some(amax / 127.0)
}

/// `y.round().clamp(-127.0, 127.0) as i8` without the `roundf` call the
/// baseline x86-64 target makes for `f32::round`: clamp, truncate, then
/// step one away from zero when the exact remainder `y - trunc(y)` reaches
/// a half. The same value for every `y`, infinities and NaN (→ 0)
/// included.
#[inline(always)]
fn round_to_i8(y: f32) -> i8 {
    let y = y.clamp(-127.0, 127.0);
    let t = y as i32;
    let frac = y - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)).clamp(-127, 127) as i8
}

/// `i32` dot product of a quantized activation block with the weight block
/// starting at `wblk`.
#[inline(always)]
fn block_dot(qa: &[i8; QK8_0], wblk: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&a, &w) in qa.iter().zip(&wblk[..QK8_0]) {
        acc += a as i32 * w as i32;
    }
    acc
}

/// `out(m,n) = a(m,k) × wq` where `wq` holds `n` quantized rows of length
/// `k` (a transposed-quantized matmul weight or a natural conv weight).
///
/// # Panics
///
/// Panics when slice lengths or the quantized geometry disagree with
/// `(m, k, n)`.
pub fn matmul_q8_into(a: &[f32], wq: &Q8Tensor, m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_q8_into: lhs length mismatch");
    assert_eq!(out.len(), m * n, "matmul_q8_into: out length mismatch");
    assert_eq!(wq.k(), k, "matmul_q8_into: weight reduction length mismatch");
    assert_eq!(wq.rows(), n, "matmul_q8_into: weight row count mismatch");
    let bpr = wq.blocks_per_row();
    let scales = wq.scales();
    let qs = wq.qs();
    out.fill(0.0);
    let min_rows = (PAR_MIN_WORK / (k * n).max(1)).max(1);
    bikecap_rt::parallel_items_mut(out, n, min_rows, |row0, block| {
        let mut qa = [0i8; QK8_0];
        for (di, orow) in block.chunks_mut(n).enumerate() {
            let arow = &a[(row0 + di) * k..(row0 + di + 1) * k];
            for kb in 0..bpr {
                let start = kb * QK8_0;
                let len = (k - start).min(QK8_0);
                // Quantize this activation block once; it is shared by all
                // n output columns.
                let Some(a_scale) = quantize_block(&arow[start..start + len], &mut qa) else {
                    continue;
                };
                for (j, o) in orow.iter_mut().enumerate() {
                    let dot = block_dot(&qa, &qs[(j * bpr + kb) * QK8_0..]);
                    *o += a_scale * scales[j * bpr + kb] * dot as f32;
                }
            }
        }
    });
}

/// Patch floats per stack segment of [`conv3d_q8_into`].
const Q8_SEGMENT: usize = 4096;

/// Output positions per accumulator tile of [`conv3d_q8_into`].
const Q8_POS_TILE: usize = 64;

/// Output channels per accumulator tile of [`conv3d_q8_into`].
const Q8_CO_TILE: usize = 16;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Quantized 3-D convolution over a [`ConvPlan`]: per output position,
/// the patch row is gathered into a stack buffer
/// ([`ConvPlan::patch_rows_into`], in segments of whole kernel rows that
/// are also whole [`QK8_0`] blocks), quantized block by block, and each
/// block is dotted with every output channel's block of the natural-layout
/// quantized weight. Each output element adds its block contributions from
/// `0.0` in ascending block order — bitwise the im2col + [`matmul_q8_into`]
/// + re-interleave composition, with no patch matrix or product scratch.
///
/// Output positions are the parallel unit
/// ([`bikecap_rt::parallel_columns_mut`] over the `(B·C_out, OD·OH·OW)`
/// output), so a single sample still fans out; sums collect in a stack
/// tile of positions × channels and are written out a channel row at a
/// time.
///
/// # Panics
///
/// Panics when any length disagrees with the plan, `wq` is not the plan's
/// natural-layout `(C_out, K)` weight, or `lcm(KW, 32)` exceeds the
/// segment buffer.
pub fn conv3d_q8_into(plan: &ConvPlan, x: &[f32], wq: &Q8Tensor, out: &mut [f32]) {
    assert!(!wq.transposed(), "conv3d_q8_into: weight must be natural-layout");
    assert_eq!(x.len(), plan.x_len(), "conv3d_q8_into: x length mismatch");
    assert_eq!(out.len(), plan.out_len(), "conv3d_q8_into: out length mismatch");
    let (k, c_out, kw) = (plan.patch_len(), plan.c_out(), plan.kernel().2.max(1));
    assert_eq!(wq.k(), k, "conv3d_q8_into: weight reduction length mismatch");
    assert_eq!(wq.rows(), c_out, "conv3d_q8_into: weight row count mismatch");
    let bpr = wq.blocks_per_row();
    let scales = wq.scales();
    let qs = wq.qs();
    let (_, oh, ow) = plan.out_dims();
    // A segment is whole kernel rows and whole blocks: a multiple of
    // lcm(KW, QK8_0) columns.
    let unit = kw / gcd(kw, QK8_0) * QK8_0;
    assert!(unit <= Q8_SEGMENT, "conv3d_q8_into: kernel width {kw} exceeds the segment buffer");
    let (rows, seg_rows) = (k / kw, Q8_SEGMENT / unit * unit / kw);
    let min_cols = (PAR_MIN_WORK / (plan.batch() * k * c_out).max(1)).max(1);
    bikecap_rt::parallel_columns_mut(out, plan.positions(), min_cols, |mut block| {
        let cols = block.cols();
        let mut patch = [0.0f32; Q8_SEGMENT];
        let mut qa = [0i8; QK8_0];
        let mut tile = [[0.0f32; Q8_CO_TILE]; Q8_POS_TILE];
        for co0 in (0..c_out).step_by(Q8_CO_TILE) {
            let nco = Q8_CO_TILE.min(c_out - co0);
            for b in 0..plan.batch() {
                for c0 in (0..cols.len()).step_by(Q8_POS_TILE) {
                    let n = Q8_POS_TILE.min(cols.len() - c0);
                    for (at, acc) in (cols.start + c0..).zip(&mut tile[..n]) {
                        let pos = (at / (oh * ow), (at / ow) % oh, at % ow);
                        let acc = &mut acc[..nco];
                        acc.fill(0.0);
                        for r0 in (0..rows).step_by(seg_rows) {
                            let seg = &mut patch[..seg_rows.min(rows - r0) * kw];
                            plan.patch_rows_into(x, b, pos, r0..r0 + seg.len() / kw, seg);
                            for (kb, ablk) in (r0 * kw / QK8_0..).zip(seg.chunks(QK8_0)) {
                                let Some(a_scale) = quantize_block(ablk, &mut qa) else {
                                    continue;
                                };
                                for (co, o) in (co0..).zip(acc.iter_mut()) {
                                    let dot = block_dot(&qa, &qs[(co * bpr + kb) * QK8_0..]);
                                    *o += a_scale * scales[co * bpr + kb] * dot as f32;
                                }
                            }
                        }
                    }
                    for j in 0..nco {
                        let row = &mut block.row(b * c_out + co0 + j)[c0..c0 + n];
                        for (o, acc) in row.iter_mut().zip(&tile) {
                            *o = acc[j];
                        }
                    }
                }
            }
        }
    });
}

/// Allocating wrapper over [`conv3d_q8_into`] for the eager overlay:
/// plans the convolution from the input shape and spec and returns the flat
/// output with its shape.
///
/// # Panics
///
/// Panics when `x_shape` is not rank 5, channels disagree with `wq`, or the
/// kernel exceeds the padded input (see [`checked_plan`]).
pub fn conv3d_q8(
    x: &[f32],
    x_shape: &[usize],
    wq: &Q8Tensor,
    spec: Conv3dSpec,
) -> (Vec<f32>, Vec<usize>) {
    let plan = checked_plan(x_shape, wq.shape(), spec);
    let mut out = Vec::new();
    out.resize(plan.out_len(), 0.0);
    conv3d_q8_into(&plan, x, wq, &mut out);
    (out, plan.out_shape().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikecap_tensor::exec::matmul_into;
    use bikecap_tensor::Tensor;

    fn ramp(len: usize, phase: f32) -> Vec<f32> {
        (0..len).map(|i| ((i as f32 + phase) * 0.61).sin() * 2.0).collect()
    }

    #[test]
    fn round_to_i8_matches_round_then_clamp() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            -0.5,
            126.5,
            -126.5,
            127.5,
            1e30,
        ];
        let sweep = (-130_000..=130_000).map(|i| i as f32 / 1000.0);
        for y in specials.into_iter().chain(sweep) {
            let want = y.round().clamp(-127.0, 127.0) as i8;
            assert_eq!(round_to_i8(y), want, "y = {y}");
        }
    }

    #[test]
    fn q8_matmul_tracks_f32_within_block_scale_error() {
        let (m, k, n) = (5, 70, 6);
        let a = ramp(m * k, 0.0);
        let b = ramp(k * n, 3.0);
        let wq = Q8Tensor::quantize_transposed(&b, &[k, n], k, n);
        let mut got = vec![0.0; m * n];
        matmul_q8_into(&a, &wq, m, k, n, &mut got);
        let mut want = vec![0.0; m * n];
        matmul_into(&a, &b, m, k, n, &mut want);
        // Per-element error of each operand is ≤ scale/2 ≈ |x|/254; over a
        // k-length dot the absolute error grows with k, so bound loosely —
        // the real accuracy gate is quant-eval's RMSE threshold.
        let tol = 0.004 * k as f32;
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() <= tol, "elem {i}: {g} vs {w}");
        }
    }

    #[test]
    fn q8_matmul_is_bitwise_stable_across_thread_counts() {
        let (m, k, n) = (64, 96, 48);
        let a = ramp(m * k, 1.0);
        let b = ramp(k * n, 2.0);
        let wq = Q8Tensor::quantize_transposed(&b, &[k, n], k, n);
        bikecap_rt::set_backend(bikecap_rt::Backend::Serial);
        let mut serial = vec![0.0; m * n];
        matmul_q8_into(&a, &wq, m, k, n, &mut serial);
        bikecap_rt::set_backend(bikecap_rt::Backend::Parallel);
        for threads in [1, 2, 4, 7] {
            bikecap_rt::set_threads(threads);
            let mut par = vec![0.0; m * n];
            matmul_q8_into(&a, &wq, m, k, n, &mut par);
            for (i, (s, p)) in serial.iter().zip(&par).enumerate() {
                assert_eq!(s.to_bits(), p.to_bits(), "threads {threads}, elem {i}");
            }
        }
        bikecap_rt::set_threads(0);
    }

    #[test]
    fn q8_conv3d_matches_f32_conv_within_tolerance() {
        let (n, c_in, d, h, w) = (2, 3, 4, 5, 5);
        let c_out = 4;
        let kernel = (3, 3, 3);
        let spec = Conv3dSpec::padded(1, 1, 1);
        let x = Tensor::from_vec(ramp(n * c_in * d * h * w, 0.5), &[n, c_in, d, h, w]);
        let wt = Tensor::from_vec(
            ramp(c_out * c_in * kernel.0 * kernel.1 * kernel.2, 4.0),
            &[c_out, c_in, kernel.0, kernel.1, kernel.2],
        );
        let k = c_in * kernel.0 * kernel.1 * kernel.2;
        let wq = Q8Tensor::quantize(wt.as_slice(), wt.shape(), c_out, k);
        let (got, shape) = conv3d_q8(x.as_slice(), x.shape(), &wq, spec);
        let want = bikecap_tensor::conv::conv3d(&x, &wt, spec);
        assert_eq!(shape.as_slice(), want.shape());
        let tol = 0.004 * k as f32;
        for (i, (g, f)) in got.iter().zip(want.as_slice()).enumerate() {
            assert!((g - f).abs() <= tol, "elem {i}: {g} vs {f}");
        }
    }

    #[test]
    fn q8_conv3d_is_bitwise_stable_across_thread_counts() {
        let (n, c_in, d, h, w) = (2, 4, 6, 8, 8);
        let c_out = 8;
        let kernel = (3, 3, 3);
        let spec = Conv3dSpec::padded(1, 1, 1);
        let x = ramp(n * c_in * d * h * w, 0.0);
        let wt = ramp(c_out * c_in * 27, 9.0);
        let wq = Q8Tensor::quantize(&wt, &[c_out, c_in, 3, 3, 3], c_out, c_in * 27);
        bikecap_rt::set_backend(bikecap_rt::Backend::Serial);
        let (serial, _) = conv3d_q8(&x, &[n, c_in, d, h, w], &wq, spec);
        bikecap_rt::set_backend(bikecap_rt::Backend::Parallel);
        for threads in [1, 2, 4, 7] {
            bikecap_rt::set_threads(threads);
            let (par, _) = conv3d_q8(&x, &[n, c_in, d, h, w], &wq, spec);
            for (i, (s, p)) in serial.iter().zip(&par).enumerate() {
                assert_eq!(s.to_bits(), p.to_bits(), "threads {threads}, elem {i}");
            }
        }
        bikecap_rt::set_threads(0);
    }
}
