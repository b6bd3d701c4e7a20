//! Analytic work model: FLOPs and bytes-moved per kernel, derived from
//! shapes alone.
//!
//! Each constructor encodes the arithmetic and memory traffic of one kernel
//! *as implemented* in `bikecap-tensor` (fused convolutions that read input
//! taps in place, two-pass softmax, …), not a textbook lower bound — the
//! point is to compare achieved GFLOP/s and GB/s against the machine
//! roofline and call a kernel memory- or compute-bound. The exact formulas
//! are documented in DESIGN.md Appendix I; changing a kernel's data movement
//! means updating the matching constructor.
//!
//! Usage: inside an existing kernel span, build the [`Work`] for the shapes
//! at hand and [`Work::record`] it. That emits two value events —
//! `perf.flops` and `perf.bytes` — which [`crate::table::roofline_table`]
//! attributes to the innermost enclosing span, so the roofline columns in
//! `bikecap profile` line up with the cost table's span names. Recording is
//! inert (one atomic load) while observability is off.

/// Analytic cost of one kernel invocation: floating-point operations and
/// bytes moved through memory (reads + writes of f32 elements).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Work {
    /// Floating-point operations (multiply and add counted separately).
    pub flops: f64,
    /// Bytes moved: every f32 element read or written, at 4 bytes each.
    pub bytes: f64,
}

/// Bytes per element everywhere in the numeric stack.
const F32: f64 = 4.0;

/// Bytes per Q8_0-quantized weight element: 36-byte blocks (one f32 scale +
/// 32 `i8`s) over 32 elements. See DESIGN.md Appendix J.
const Q8: f64 = 36.0 / 32.0;

impl Work {
    /// `C = A·B` with `A (m,k)` and `B (k,n)`: `2mkn` flops; reads both
    /// operands once and writes the output once.
    pub fn matmul(m: usize, k: usize, n: usize) -> Work {
        let (m, k, n) = (m as f64, k as f64, n as f64);
        Work {
            flops: 2.0 * m * k * n,
            bytes: F32 * (m * k + k * n + m * n),
        }
    }

    /// Quantized `C = A·Wq` with `A (m,k)` f32 and `Wq` a Q8_0 tensor of
    /// `n` rows of `k`: the dot products are the same `2mkn` arithmetic (the
    /// `i32` multiply-adds count like their f32 counterparts, plus a `2mk`
    /// on-the-fly activation quantization pass), but the weight traffic
    /// drops from 4 to 1.125 bytes per element — the arithmetic-intensity
    /// shift `bikecap profile` surfaces on the quantized path.
    pub fn matmul_q8(m: usize, k: usize, n: usize) -> Work {
        let (m, k, n) = (m as f64, k as f64, n as f64);
        Work {
            flops: 2.0 * m * k * n + 2.0 * m * k,
            bytes: F32 * (m * k + m * n) + Q8 * k * n,
        }
    }

    /// Quantized 3-D convolution: [`Work::conv3d`] with the dot products
    /// against the block-quantized weight — the same `2·P·K·c_out`
    /// arithmetic plus the `2·P·K` on-the-fly quantization of each gathered
    /// patch row, and `1.125`-byte weight reads.
    pub fn conv3d_q8(
        batch: usize,
        c_in: usize,
        c_out: usize,
        in_dims: (usize, usize, usize),
        out_dims: (usize, usize, usize),
        kernel: (usize, usize, usize),
    ) -> Work {
        let positions = (batch * out_dims.0 * out_dims.1 * out_dims.2) as f64;
        let patch = (c_in * kernel.0 * kernel.1 * kernel.2) as f64;
        let input = (batch * c_in * in_dims.0 * in_dims.1 * in_dims.2) as f64;
        let c_out = c_out as f64;
        Work {
            flops: 2.0 * positions * patch * c_out + 2.0 * positions * patch,
            bytes: F32 * (input + positions * c_out) + Q8 * patch * c_out,
        }
    }

    /// Fused 3-D convolution producing `(batch, c_out, od, oh, ow)` from a
    /// `(batch, c_in, d, h, w)` input with kernel `(kd, kh, kw)`.
    ///
    /// With `P = batch·od·oh·ow` output positions and `K = c_in·kd·kh·kw`
    /// patch length: `2·P·K·c_out` flops. The kernel reads input taps in
    /// place, so traffic is the input, the weights (`K·c_out`) and the
    /// output (`P·c_out`) once each — no patch matrix.
    pub fn conv3d(
        batch: usize,
        c_in: usize,
        c_out: usize,
        in_dims: (usize, usize, usize),
        out_dims: (usize, usize, usize),
        kernel: (usize, usize, usize),
    ) -> Work {
        let positions = (batch * out_dims.0 * out_dims.1 * out_dims.2) as f64;
        let patch = (c_in * kernel.0 * kernel.1 * kernel.2) as f64;
        let input = (batch * c_in * in_dims.0 * in_dims.1 * in_dims.2) as f64;
        let c_out = c_out as f64;
        Work {
            flops: 2.0 * positions * patch * c_out,
            bytes: F32 * (input + patch * c_out + positions * c_out),
        }
    }

    /// Fused transposed 3-D convolution: input `(batch, c_in, d, h, w)`,
    /// kernel `(kd, kh, kw)`, output `(batch, c_out, od, oh, ow)`.
    ///
    /// With `P = batch·d·h·w` input positions and `K = c_out·kd·kh·kw`:
    /// every output element gathers one `c_in`-channel sum per tap that
    /// reaches it, `2·P·c_in·K` flops, and adds it in, another `P·K`. It
    /// gathers rather than scatters, so traffic is the input, the weights
    /// and the output once each.
    pub fn conv_transpose3d(
        batch: usize,
        c_in: usize,
        c_out: usize,
        in_dims: (usize, usize, usize),
        out_dims: (usize, usize, usize),
        kernel: (usize, usize, usize),
    ) -> Work {
        let positions = (batch * in_dims.0 * in_dims.1 * in_dims.2) as f64;
        let patch = (c_out * kernel.0 * kernel.1 * kernel.2) as f64;
        let c_in = c_in as f64;
        let out_elems = (batch * c_out * out_dims.0 * out_dims.1 * out_dims.2) as f64;
        Work {
            flops: 2.0 * positions * c_in * patch + positions * patch,
            bytes: F32 * (positions * c_in + c_in * patch + out_elems),
        }
    }

    /// Causal pyramid convolution (paper Sec. III-C, DESIGN.md Appendix L):
    /// input `(batch, c_in, d, h, w)`, pyramid size `k`, output
    /// `(batch, c_out, d, h, w)`.
    ///
    /// The kernel multiply-adds only the active taps inside the grid and
    /// the causal window: the slice at lag `ℓ` contributes
    /// `(d-ℓ)·Σ_{|a|≤ℓ}(h-|a|)·Σ_{|b|≤ℓ}(w-|b|)` terms per channel pair, at
    /// 2 flops each. Traffic is the input and the active weights read once
    /// and the output written once; there is no patch matrix.
    pub fn pyramid_conv(
        batch: usize,
        c_in: usize,
        c_out: usize,
        dims: (usize, usize, usize),
        k: usize,
    ) -> Work {
        let (d, h, w) = dims;
        let span = |extent: usize, lag: usize| -> f64 {
            (0..=2 * lag)
                .map(|a| extent.saturating_sub(a.abs_diff(lag)) as f64)
                .sum()
        };
        let terms: f64 = (0..k)
            .map(|lag| d.saturating_sub(lag) as f64 * span(h, lag) * span(w, lag))
            .sum();
        let active: usize = (0..k).map(|lag| (2 * lag + 1) * (2 * lag + 1)).sum();
        let (b, ci, co) = (batch as f64, c_in as f64, c_out as f64);
        let volume = (d * h * w) as f64;
        Work {
            flops: 2.0 * b * ci * co * terms,
            bytes: F32 * (b * ci * volume + ci * co * active as f64 + b * co * volume),
        }
    }

    /// Numerically stable softmax over `groups` rows of `len` elements: per
    /// element one max-scan compare, a subtract, an exp (counted as one
    /// flop), a sum add, and a divide — `5n` flops; two read/write passes
    /// move each element four times.
    pub fn softmax(groups: usize, len: usize) -> Work {
        let n = (groups * len) as f64;
        Work {
            flops: 5.0 * n,
            bytes: F32 * 4.0 * n,
        }
    }

    /// Capsule squash of `vectors` vectors of dimension `dim` (paper Eq. 2):
    /// a `2·dim` dot product, the `norm²/(1+norm²)/√norm²` scale (counted as
    /// 8 flops including the sqrt), and a `dim` rescale per vector; each
    /// element is read once and written once.
    pub fn squash(vectors: usize, dim: usize) -> Work {
        let v = vectors as f64;
        let d = dim as f64;
        Work {
            flops: v * (3.0 * d + 8.0),
            bytes: F32 * 2.0 * v * d,
        }
    }

    /// Fused routing coupling step `Ŝ = squash_n(Σ_s V·K)` over `batch`
    /// samples of `cells` grid cells, `slots` historical capsules, `horizon`
    /// future capsules of dimension `dim` (DESIGN.md Appendix K).
    ///
    /// With `V = B·p·n·S·C` predictions: the weighted sum is `2·V` flops and
    /// the squash of the `B·p·C` output vectors adds `3n + 8` each. Traffic
    /// is as implemented: `V` read once, the coefficients `K (B·S·C·p)` read
    /// once per capsule component (`n` strided passes), and the output
    /// written by the sum then read and rewritten by the in-place squash.
    pub fn routing_couple(
        batch: usize,
        slots: usize,
        horizon: usize,
        dim: usize,
        cells: usize,
    ) -> Work {
        let (b, s, p, n, c) = (batch as f64, slots as f64, horizon as f64, dim as f64, cells as f64);
        let v = b * p * n * s * c;
        let caps = b * p * n * c;
        Work {
            flops: 2.0 * v + b * p * c * (3.0 * n + 8.0),
            bytes: F32 * (v + n * b * s * c * p + 3.0 * caps),
        }
    }

    /// Fused routing agreement step `L' = L + Σ_c V·Ŝ` (same geometry as
    /// [`Work::routing_couple`]).
    ///
    /// The dot products are `2·V` flops and the logit update one add per
    /// logit (`B·S·C·p`). Traffic is as implemented: `V` read once, the
    /// capsules `Ŝ (B·p·n·C)` read once per slot, the logits read once, and
    /// the output written by the dot then read and rewritten by the update.
    pub fn routing_agree(
        batch: usize,
        slots: usize,
        horizon: usize,
        dim: usize,
        cells: usize,
    ) -> Work {
        let (b, s, p, n, c) = (batch as f64, slots as f64, horizon as f64, dim as f64, cells as f64);
        let v = b * p * n * s * c;
        let logits = b * s * c * p;
        Work {
            flops: 2.0 * v + logits,
            bytes: F32 * (v + s * b * p * n * c + 3.0 * logits),
        }
    }

    /// Arithmetic intensity, flops per byte. Zero traffic yields 0 rather
    /// than a NaN so aggregations stay clean.
    pub fn intensity(&self) -> f64 {
        if self.bytes > 0.0 {
            self.flops / self.bytes
        } else {
            0.0
        }
    }

    /// Emits the model as `perf.flops` / `perf.bytes` value events inside
    /// the current span. One atomic load and out while observability is off,
    /// so kernels can call this unconditionally.
    #[inline]
    pub fn record(&self) {
        if !crate::enabled() {
            return;
        }
        crate::value("perf.flops", self.flops);
        crate::value("perf.bytes", self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_counts_multiply_add_pairs() {
        let w = Work::matmul(128, 256, 64);
        assert_eq!(w.flops, 2.0 * 128.0 * 256.0 * 64.0);
        assert_eq!(w.bytes, 4.0 * (128.0 * 256.0 + 256.0 * 64.0 + 128.0 * 64.0));
        assert!(w.intensity() > 0.0);
    }

    #[test]
    fn conv3d_counts_each_operand_once() {
        // 16x4x8x8x8 input, 3x3x3 same-padded, 4 -> 8 channels: the
        // im2col GEMM would be (16*512, 108) x (108, 8).
        let w = Work::conv3d(16, 4, 8, (8, 8, 8), (8, 8, 8), (3, 3, 3));
        let positions = 16.0 * 512.0;
        let patch = 4.0 * 27.0;
        assert_eq!(w.flops, 2.0 * positions * patch * 8.0);
        // Input, weights and output once each: less than the GEMM alone
        // moves, since no patch matrix is written or read.
        assert_eq!(w.bytes, 4.0 * (16.0 * 4.0 * 512.0 + patch * 8.0 + positions * 8.0));
        assert!(w.bytes < Work::matmul(16 * 512, 108, 8).bytes);
    }

    #[test]
    fn conv_transpose_gathers_without_scatter_traffic() {
        let w = Work::conv_transpose3d(2, 8, 4, (4, 6, 6), (4, 6, 6), (3, 3, 3));
        let positions = 2.0 * 4.0 * 6.0 * 6.0;
        let patch = 4.0 * 27.0;
        assert_eq!(w.flops, 2.0 * positions * 8.0 * patch + positions * patch);
        assert_eq!(w.bytes, 4.0 * (positions * 8.0 + 8.0 * patch + positions * 4.0));
    }

    #[test]
    fn pyramid_conv_counts_active_in_bounds_taps_only() {
        // k=1 is a 1x1 conv: every tap is in bounds.
        let one = Work::pyramid_conv(2, 3, 5, (4, 6, 7), 1);
        assert_eq!(one.flops, 2.0 * 2.0 * 3.0 * 5.0 * 168.0);
        // k=3 on an 8x8 grid with 8 slots, against the dense masked conv3d
        // over the padded input: far fewer flops and no patch-matrix traffic.
        let pyr = Work::pyramid_conv(16, 4, 4, (8, 8, 8), 3);
        let lag1 = 7.0 * (7.0 + 8.0 + 7.0) * (7.0 + 8.0 + 7.0);
        let lag2 = 6.0 * (6.0 + 7.0 + 8.0 + 7.0 + 6.0) * (6.0 + 7.0 + 8.0 + 7.0 + 6.0);
        assert_eq!(pyr.flops, 2.0 * 16.0 * 16.0 * (512.0 + lag1 + lag2));
        let dense = Work::conv3d(16, 4, 4, (10, 8, 8), (8, 8, 8), (3, 5, 5));
        assert!(pyr.flops < 0.5 * dense.flops);
        assert_eq!(pyr.bytes, 4.0 * (2.0 * 16.0 * 4.0 * 512.0 + 16.0 * 35.0));
    }

    #[test]
    fn elementwise_ops_are_memory_bound_by_construction() {
        // Softmax and squash land far below one flop per byte — the model
        // must classify them memory-bound under any sane machine balance.
        assert!(Work::softmax(1024, 16).intensity() < 2.0);
        assert!(Work::squash(4096, 8).intensity() < 2.0);
    }

    #[test]
    fn q8_variants_cut_weight_traffic_and_raise_intensity() {
        let f = Work::matmul(128, 256, 64);
        let q = Work::matmul_q8(128, 256, 64);
        // Same dot-product arithmetic (plus the activation-quantization
        // pass), 1.125-byte weights instead of 4: intensity must rise.
        assert_eq!(q.flops, f.flops + 2.0 * 128.0 * 256.0);
        assert_eq!(f.bytes - q.bytes, (4.0 - 36.0 / 32.0) * 256.0 * 64.0);
        assert!(q.intensity() > f.intensity());

        let fc = Work::conv3d(16, 4, 8, (8, 8, 8), (8, 8, 8), (3, 3, 3));
        let qc = Work::conv3d_q8(16, 4, 8, (8, 8, 8), (8, 8, 8), (3, 3, 3));
        assert_eq!(fc.bytes - qc.bytes, (4.0 - 36.0 / 32.0) * 108.0 * 8.0);
        assert_eq!(qc.flops, fc.flops + 2.0 * 16.0 * 512.0 * 108.0);
        assert!(qc.intensity() > fc.intensity());
    }

    #[test]
    fn routing_steps_count_the_full_prediction_volume() {
        // B=16, S=8, p=4, n=4, 8x8 grid: V holds 131072 predictions.
        let v = 16.0 * 4.0 * 4.0 * 8.0 * 64.0;
        let couple = Work::routing_couple(16, 8, 4, 4, 64);
        assert_eq!(couple.flops, 2.0 * v + 16.0 * 4.0 * 64.0 * 20.0);
        assert!(couple.bytes > 4.0 * v, "couple must count the V read");
        let agree = Work::routing_agree(16, 8, 4, 4, 64);
        assert_eq!(agree.flops, 2.0 * v + 16.0 * 8.0 * 64.0 * 4.0);
        assert!(agree.bytes > 4.0 * v, "agree must count the V read");
        // Both are memory-bound reductions.
        assert!(couple.intensity() < 1.0 && agree.intensity() < 1.0);
    }

    #[test]
    fn zero_traffic_has_zero_intensity() {
        let w = Work {
            flops: 12.0,
            bytes: 0.0,
        };
        assert_eq!(w.intensity(), 0.0);
    }
}
