//! Convolution ops: 3-D convolution (forward, backward-input,
//! backward-weight), 2-D wrappers, and transposed 3-D convolution derived
//! from the adjoint relationship.
//!
//! The three 3-D bodies are the fused kernels of [`crate::exec`]
//! ([`conv3d_into`], [`conv3d_dx_into`], [`conv3d_dw_into`]): they read
//! input taps in place instead of unrolling a patch matrix, and each is
//! bitwise equal to the im2col / col2im + GEMM composition it replaced
//! (DESIGN.md Appendix M). The compiled executor runs the same bodies.
//!
//! Layout conventions follow the deep-learning standard:
//!
//! * 3-D input: `(N, C, D, H, W)` — batch, channels, depth (time), height, width.
//! * 3-D weight: `(C_out, C_in, KD, KH, KW)`.
//! * Transposed 3-D weight: `(C_in, C_out, KD, KH, KW)`.
//!
//! The transposed convolution is implemented *exactly* as the adjoint of the
//! forward convolution (`conv_transpose3d(x) = conv3d_backward_input(x)`),
//! which the test-suite verifies via inner-product identities.

use crate::exec::{conv3d_dw_into, conv3d_dx_into, conv3d_into, plan_conv3d, ConvPlan};
use crate::Tensor;

/// Stride and zero-padding of a 3-D convolution, per axis `(depth, height, width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dSpec {
    /// Step of the kernel along `(D, H, W)`.
    pub stride: (usize, usize, usize),
    /// Zero padding added on both sides along `(D, H, W)`.
    pub padding: (usize, usize, usize),
}

impl Conv3dSpec {
    /// Unit stride with the given padding.
    pub fn padded(pd: usize, ph: usize, pw: usize) -> Self {
        Conv3dSpec {
            stride: (1, 1, 1),
            padding: (pd, ph, pw),
        }
    }
}

impl Default for Conv3dSpec {
    /// Unit stride, no padding.
    fn default() -> Self {
        Conv3dSpec {
            stride: (1, 1, 1),
            padding: (0, 0, 0),
        }
    }
}

fn out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded >= kernel,
        "convolution kernel extent {kernel} exceeds padded input extent {padded}"
    );
    (padded - kernel) / stride + 1
}

/// Output spatial extents `(OD, OH, OW)` of a 3-D convolution.
///
/// # Panics
///
/// Panics if the kernel exceeds the padded input on any axis.
pub fn conv3d_out_dims(
    in_dims: (usize, usize, usize),
    kernel: (usize, usize, usize),
    spec: Conv3dSpec,
) -> (usize, usize, usize) {
    (
        out_extent(in_dims.0, kernel.0, spec.stride.0, spec.padding.0),
        out_extent(in_dims.1, kernel.1, spec.stride.1, spec.padding.1),
        out_extent(in_dims.2, kernel.2, spec.stride.2, spec.padding.2),
    )
}

/// Output spatial extents `(OD, OH, OW)` of a transposed 3-D convolution:
/// the input extents that a forward convolution with this spec would have
/// consumed to produce the given dims.
pub fn conv_transpose3d_out_dims(
    in_dims: (usize, usize, usize),
    kernel: (usize, usize, usize),
    spec: Conv3dSpec,
) -> (usize, usize, usize) {
    let ext = |d: usize, k: usize, s: usize, p: usize| (d - 1) * s + k - 2 * p;
    (
        ext(in_dims.0, kernel.0, spec.stride.0, spec.padding.0),
        ext(in_dims.1, kernel.1, spec.stride.1, spec.padding.1),
        ext(in_dims.2, kernel.2, spec.stride.2, spec.padding.2),
    )
}

fn check_input5(input: &Tensor) -> (usize, usize, usize, usize, usize) {
    assert_eq!(
        input.ndim(),
        5,
        "conv3d expects a rank-5 (N, C, D, H, W) input, got {:?}",
        input.shape()
    );
    let s = input.shape();
    (s[0], s[1], s[2], s[3], s[4])
}

fn check_weight5(weight: &Tensor) -> (usize, usize, usize, usize, usize) {
    assert_eq!(
        weight.ndim(),
        5,
        "conv3d expects a rank-5 (C_out, C_in, KD, KH, KW) weight, got {:?}",
        weight.shape()
    );
    let s = weight.shape();
    (s[0], s[1], s[2], s[3], s[4])
}

/// The plan of an `x_shape ∗ w_shape` convolution, with the typed rank,
/// channel and extent panics of the public ops.
///
/// # Panics
///
/// Panics if either shape is not rank 5, the channels disagree, the kernel
/// exceeds the padded input, or a stride or kernel extent is zero.
pub fn checked_plan(x_shape: &[usize], w_shape: &[usize], spec: Conv3dSpec) -> ConvPlan {
    assert_eq!(x_shape.len(), 5, "conv3d expects a rank-5 (N, C, D, H, W) input, got {x_shape:?}");
    assert_eq!(
        w_shape.len(),
        5,
        "conv3d expects a rank-5 (C_out, C_in, KD, KH, KW) weight, got {w_shape:?}"
    );
    let (c_in, wc_in) = (x_shape[1], w_shape[1]);
    assert_eq!(
        c_in, wc_in,
        "conv3d: input channels {c_in} do not match weight channels {wc_in}"
    );
    // Panics with the offending extents when the kernel overhangs.
    conv3d_out_dims(
        (x_shape[2], x_shape[3], x_shape[4]),
        (w_shape[2], w_shape[3], w_shape[4]),
        spec,
    );
    plan_conv3d(x_shape, w_shape, spec).unwrap_or_else(|| {
        panic!("conv3d: zero stride or kernel extent in {spec:?}, kernel {w_shape:?}")
    })
}

/// 3-D convolution forward pass.
///
/// `input` is `(N, C_in, D, H, W)`, `weight` is `(C_out, C_in, KD, KH, KW)`;
/// the result is `(N, C_out, OD, OH, OW)`. Bias is *not* applied here — layers
/// add it as a separate broadcast so autograd composes cleanly.
///
/// # Panics
///
/// Panics on rank or channel mismatches, or if the kernel exceeds the padded
/// input.
pub fn conv3d(input: &Tensor, weight: &Tensor, spec: Conv3dSpec) -> Tensor {
    let plan = checked_plan(input.shape(), weight.shape(), spec);
    let mut out = vec![0.0f32; plan.out_len()];
    conv3d_into(&plan, input.as_slice(), weight.as_slice(), &mut out);
    let out = Tensor::from_vec(out, &plan.out_shape());
    out.debug_assert_finite("conv3d");
    out
}

/// Gradient of [`conv3d`] with respect to its input.
///
/// `grad_out` is `(N, C_out, OD, OH, OW)`; the result has shape
/// `(N, C_in, D, H, W)` where the spatial extents are given by `in_dims`.
///
/// # Panics
///
/// Panics on rank or shape inconsistencies.
pub fn conv3d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    in_dims: (usize, usize, usize),
    spec: Conv3dSpec,
) -> Tensor {
    let (n, c_out, _, _, _) = check_input5(grad_out);
    let (wc_out, c_in, _, _, _) = check_weight5(weight);
    assert_eq!(c_out, wc_out, "conv3d_backward_input: channel mismatch");
    let plan = checked_plan(&[n, c_in, in_dims.0, in_dims.1, in_dims.2], weight.shape(), spec);
    assert_eq!(
        grad_out.shape(),
        &plan.out_shape(),
        "conv3d_backward_input: gradient shape does not match the convolution"
    );
    let mut out = vec![0.0f32; plan.x_len()];
    conv3d_dx_into(&plan, grad_out.as_slice(), weight.as_slice(), &mut out);
    let out = Tensor::from_vec(out, &plan.x_shape());
    out.debug_assert_finite("conv3d_backward_input");
    out
}

/// Gradient of [`conv3d`] with respect to its weight.
///
/// # Panics
///
/// Panics on rank or shape inconsistencies.
pub fn conv3d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    kernel: (usize, usize, usize),
    spec: Conv3dSpec,
) -> Tensor {
    let (_, c_in, _, _, _) = check_input5(input);
    let (_, c_out, _, _, _) = check_input5(grad_out);
    let w_shape = [c_out, c_in, kernel.0, kernel.1, kernel.2];
    let plan = checked_plan(input.shape(), &w_shape, spec);
    assert_eq!(
        grad_out.shape(),
        &plan.out_shape(),
        "conv3d_backward_weight: gradient shape does not match the convolution"
    );
    let mut out = vec![0.0f32; plan.w_len()];
    conv3d_dw_into(&plan, grad_out.as_slice(), input.as_slice(), &mut out);
    let out = Tensor::from_vec(out, &w_shape);
    out.debug_assert_finite("conv3d_backward_weight");
    out
}

/// Gradient of [`conv3d`] with respect to a per-output-channel bias: sums
/// `grad_out` over batch and spatial axes, returning shape `(C_out,)`.
pub fn conv3d_backward_bias(grad_out: &Tensor) -> Tensor {
    grad_out.sum_axes(&[0, 2, 3, 4], false)
}

/// Transposed 3-D convolution (a.k.a. deconvolution) forward pass.
///
/// `input` is `(N, C_in, D, H, W)`, `weight` is `(C_in, C_out, KD, KH, KW)`;
/// the result is `(N, C_out, OD, OH, OW)` with
/// `OD = (D-1)*stride + KD - 2*padding` (and likewise for H/W). Implemented as
/// the exact adjoint of [`conv3d`].
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv_transpose3d(input: &Tensor, weight: &Tensor, spec: Conv3dSpec) -> Tensor {
    let (_, c_in, d, h, w) = check_input5(input);
    let (wc_in, _c_out, kd, kh, kw) = check_weight5(weight);
    assert_eq!(
        c_in, wc_in,
        "conv_transpose3d: input channels {c_in} do not match weight channels {wc_in}"
    );
    let out_dims = conv_transpose3d_out_dims((d, h, w), (kd, kh, kw), spec);
    // Viewing `weight` as the (C_out=C_in, C_in=C_out) weight of a forward
    // convolution, the transpose conv is that convolution's input gradient.
    conv3d_backward_input(input, weight, out_dims, spec)
}

/// Gradient of [`conv_transpose3d`] with respect to its input: a forward
/// convolution of the output gradient.
pub fn conv_transpose3d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: Conv3dSpec,
) -> Tensor {
    conv3d(grad_out, weight, spec)
}

/// Gradient of [`conv_transpose3d`] with respect to its weight.
pub fn conv_transpose3d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    kernel: (usize, usize, usize),
    spec: Conv3dSpec,
) -> Tensor {
    // For z = convT(x, w): w plays the conv role with "input" grad_out and
    // "output gradient" x.
    conv3d_backward_weight(input, grad_out, kernel, spec)
}

/// 2-D convolution: a thin wrapper that lifts `(N, C, H, W)` tensors into the
/// 3-D kernels with a singleton depth axis.
///
/// `weight` is `(C_out, C_in, KH, KW)`, stride/padding are `(H, W)` pairs.
///
/// # Panics
///
/// Panics on rank or shape inconsistencies.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    stride: (usize, usize),
    padding: (usize, usize),
) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv2d expects rank-4 input, got {:?}", input.shape());
    assert_eq!(weight.ndim(), 4, "conv2d expects rank-4 weight, got {:?}", weight.shape());
    let is = input.shape().to_vec();
    let ws = weight.shape().to_vec();
    let x5 = input.reshape(&[is[0], is[1], 1, is[2], is[3]]);
    let w5 = weight.reshape(&[ws[0], ws[1], 1, ws[2], ws[3]]);
    let spec = Conv3dSpec {
        stride: (1, stride.0, stride.1),
        padding: (0, padding.0, padding.1),
    };
    let out = conv3d(&x5, &w5, spec);
    let os = out.shape().to_vec();
    let out = out.reshape(&[os[0], os[1], os[3], os[4]]);
    out.debug_assert_finite("conv2d");
    out
}

/// Gradient of [`conv2d`] with respect to its input.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    in_dims: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Tensor {
    let gs = grad_out.shape().to_vec();
    let ws = weight.shape().to_vec();
    let g5 = grad_out.reshape(&[gs[0], gs[1], 1, gs[2], gs[3]]);
    let w5 = weight.reshape(&[ws[0], ws[1], 1, ws[2], ws[3]]);
    let spec = Conv3dSpec {
        stride: (1, stride.0, stride.1),
        padding: (0, padding.0, padding.1),
    };
    let out = conv3d_backward_input(&g5, &w5, (1, in_dims.0, in_dims.1), spec);
    let os = out.shape().to_vec();
    out.reshape(&[os[0], os[1], os[3], os[4]])
}

/// Gradient of [`conv2d`] with respect to its weight.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Tensor {
    let gs = grad_out.shape().to_vec();
    let is = input.shape().to_vec();
    let g5 = grad_out.reshape(&[gs[0], gs[1], 1, gs[2], gs[3]]);
    let x5 = input.reshape(&[is[0], is[1], 1, is[2], is[3]]);
    let spec = Conv3dSpec {
        stride: (1, stride.0, stride.1),
        padding: (0, padding.0, padding.1),
    };
    let out = conv3d_backward_weight(&g5, &x5, (1, kernel.0, kernel.1), spec);
    let os = out.shape().to_vec();
    out.reshape(&[os[0], os[1], os[3], os[4]])
}

/// Gradient of [`conv2d`] with respect to a per-channel bias.
pub fn conv2d_backward_bias(grad_out: &Tensor) -> Tensor {
    grad_out.sum_axes(&[0, 2, 3], false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Direct six-loop reference convolution used to validate the fused kernels.
    fn conv3d_reference(input: &Tensor, weight: &Tensor, spec: Conv3dSpec) -> Tensor {
        let (n, c_in, d, h, w) = {
            let s = input.shape();
            (s[0], s[1], s[2], s[3], s[4])
        };
        let (c_out, _, kd, kh, kw) = {
            let s = weight.shape();
            (s[0], s[1], s[2], s[3], s[4])
        };
        let (od, oh, ow) = conv3d_out_dims((d, h, w), (kd, kh, kw), spec);
        let mut out = Tensor::zeros(&[n, c_out, od, oh, ow]);
        for bn in 0..n {
            for co in 0..c_out {
                for zd in 0..od {
                    for zh in 0..oh {
                        for zw in 0..ow {
                            let mut acc = 0.0;
                            for ci in 0..c_in {
                                for fd in 0..kd {
                                    for fh in 0..kh {
                                        for fw in 0..kw {
                                            let id = (zd * spec.stride.0 + fd) as isize
                                                - spec.padding.0 as isize;
                                            let ih = (zh * spec.stride.1 + fh) as isize
                                                - spec.padding.1 as isize;
                                            let iw = (zw * spec.stride.2 + fw) as isize
                                                - spec.padding.2 as isize;
                                            if id >= 0
                                                && (id as usize) < d
                                                && ih >= 0
                                                && (ih as usize) < h
                                                && iw >= 0
                                                && (iw as usize) < w
                                            {
                                                acc += input.get(&[
                                                    bn,
                                                    ci,
                                                    id as usize,
                                                    ih as usize,
                                                    iw as usize,
                                                ]) * weight.get(&[co, ci, fd, fh, fw]);
                                            }
                                        }
                                    }
                                }
                            }
                            out.set(&[bn, co, zd, zh, zw], acc);
                        }
                    }
                }
            }
        }
        out
    }

    fn dot(a: &Tensor, b: &Tensor) -> f32 {
        a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn conv3d_matches_reference_no_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[2, 3, 4, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 2, 3, 3], 0.0, 1.0, &mut rng);
        let spec = Conv3dSpec::default();
        assert_close(&conv3d(&x, &w, spec), &conv3d_reference(&x, &w, spec), 1e-3);
    }

    #[test]
    fn conv3d_matches_reference_with_padding_and_stride() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[1, 2, 5, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3, 3], 0.0, 1.0, &mut rng);
        let spec = Conv3dSpec {
            stride: (2, 2, 1),
            padding: (1, 1, 1),
        };
        assert_close(&conv3d(&x, &w, spec), &conv3d_reference(&x, &w, spec), 1e-3);
    }

    #[test]
    fn conv3d_identity_kernel_is_identity() {
        // 1x1x1 kernel with weight 1 and a single channel copies the input.
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[1, 1, 3, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::ones(&[1, 1, 1, 1, 1]);
        assert_close(&conv3d(&x, &w, Conv3dSpec::default()), &x, 1e-6);
    }

    #[test]
    fn conv3d_out_dims_formula() {
        let spec = Conv3dSpec {
            stride: (1, 2, 2),
            padding: (1, 1, 1),
        };
        assert_eq!(conv3d_out_dims((8, 9, 9), (3, 3, 3), spec), (8, 5, 5));
    }

    #[test]
    #[should_panic(expected = "exceeds padded input")]
    fn conv3d_kernel_too_large_panics() {
        conv3d_out_dims((2, 2, 2), (5, 1, 1), Conv3dSpec::default());
    }

    #[test]
    fn backward_input_is_adjoint_of_forward() {
        // <conv(x; w), y> == <x, conv_backward_input(y; w)> for all x, y.
        let mut rng = StdRng::seed_from_u64(4);
        let spec = Conv3dSpec {
            stride: (1, 1, 1),
            padding: (1, 1, 1),
        };
        let x = Tensor::randn(&[2, 2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3, 3], 0.0, 1.0, &mut rng);
        let z = conv3d(&x, &w, spec);
        let y = Tensor::randn(z.shape(), 0.0, 1.0, &mut rng);
        let gx = conv3d_backward_input(&y, &w, (4, 5, 5), spec);
        let lhs = dot(&z, &y);
        let rhs = dot(&x, &gx);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let spec = Conv3dSpec::padded(0, 1, 1);
        let x = Tensor::randn(&[1, 2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let mut w = Tensor::randn(&[2, 2, 2, 3, 3], 0.0, 0.5, &mut rng);
        let y_bar = Tensor::randn(conv3d(&x, &w, spec).shape(), 0.0, 1.0, &mut rng);
        let grad = conv3d_backward_weight(&y_bar, &x, (2, 3, 3), spec);
        // Check a few coordinates by central differences of L = <conv(x;w), y_bar>.
        let eps = 1e-2;
        for &flat in &[0usize, 7, 19, 35] {
            let orig = w.as_slice()[flat];
            w.as_mut_slice()[flat] = orig + eps;
            let lp = dot(&conv3d(&x, &w, spec), &y_bar);
            w.as_mut_slice()[flat] = orig - eps;
            let lm = dot(&conv3d(&x, &w, spec), &y_bar);
            w.as_mut_slice()[flat] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grad.as_slice()[flat];
            assert!(
                (fd - an).abs() < 2e-2 * fd.abs().max(1.0),
                "weight grad mismatch at {flat}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn backward_bias_sums_spatial_axes() {
        let g = Tensor::ones(&[2, 3, 2, 2, 2]);
        let b = conv3d_backward_bias(&g);
        assert_eq!(b.shape(), &[3]);
        assert_eq!(b.as_slice(), &[16.0, 16.0, 16.0]);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <convT(x; w), y> == <x, conv(y; w')> where w' views (Ci,Co) as (Co,Ci).
        let mut rng = StdRng::seed_from_u64(6);
        let spec = Conv3dSpec::padded(1, 1, 1);
        let x = Tensor::randn(&[2, 3, 4, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3, 3], 0.0, 1.0, &mut rng); // (C_in=3, C_out=2, ...)
        let z = conv_transpose3d(&x, &w, spec);
        assert_eq!(z.shape(), &[2, 2, 4, 4, 4]);
        let y = Tensor::randn(z.shape(), 0.0, 1.0, &mut rng);
        let back = conv_transpose3d_backward_input(&y, &w, spec);
        let lhs = dot(&z, &y);
        let rhs = dot(&x, &back);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "transpose-conv adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn conv_transpose_upsamples_with_stride() {
        let x = Tensor::ones(&[1, 1, 2, 2, 2]);
        let w = Tensor::ones(&[1, 1, 2, 2, 2]);
        let spec = Conv3dSpec {
            stride: (2, 2, 2),
            padding: (0, 0, 0),
        };
        let z = conv_transpose3d(&x, &w, spec);
        assert_eq!(z.shape(), &[1, 1, 4, 4, 4]);
        // Non-overlapping stride-2 placement of an all-ones kernel: all ones.
        assert_eq!(z.sum(), 64.0);
        assert_eq!(z.max_value(), 1.0);
    }

    #[test]
    fn conv_transpose_weight_grad_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = Conv3dSpec::padded(0, 0, 0);
        let x = Tensor::randn(&[1, 2, 2, 3, 3], 0.0, 1.0, &mut rng);
        let mut w = Tensor::randn(&[2, 1, 2, 2, 2], 0.0, 0.5, &mut rng);
        let z = conv_transpose3d(&x, &w, spec);
        let y_bar = Tensor::randn(z.shape(), 0.0, 1.0, &mut rng);
        let grad = conv_transpose3d_backward_weight(&y_bar, &x, (2, 2, 2), spec);
        assert_eq!(grad.shape(), w.shape());
        let eps = 1e-2;
        for &flat in &[0usize, 3, 9, 15] {
            let orig = w.as_slice()[flat];
            w.as_mut_slice()[flat] = orig + eps;
            let lp = dot(&conv_transpose3d(&x, &w, spec), &y_bar);
            w.as_mut_slice()[flat] = orig - eps;
            let lm = dot(&conv_transpose3d(&x, &w, spec), &y_bar);
            w.as_mut_slice()[flat] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grad.as_slice()[flat];
            assert!(
                (fd - an).abs() < 2e-2 * fd.abs().max(1.0),
                "transpose weight grad mismatch at {flat}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn conv2d_matches_3d_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = Tensor::randn(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 1.0, &mut rng);
        let y = conv2d(&x, &w, (1, 1), (1, 1));
        assert_eq!(y.shape(), &[2, 4, 6, 6]);
        // Same computation through the explicit 3-D path.
        let x5 = x.reshape(&[2, 3, 1, 6, 6]);
        let w5 = w.reshape(&[4, 3, 1, 3, 3]);
        let y5 = conv3d(&x5, &w5, Conv3dSpec::padded(0, 1, 1));
        assert_close(&y, &y5.reshape(&[2, 4, 6, 6]), 1e-5);
    }

    #[test]
    fn conv2d_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.0, 1.0, &mut rng);
        let y = conv2d(&x, &w, (1, 1), (1, 1));
        let gx = conv2d_backward_input(&y, &w, (5, 5), (1, 1), (1, 1));
        let gw = conv2d_backward_weight(&y, &x, (3, 3), (1, 1), (1, 1));
        let gb = conv2d_backward_bias(&y);
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gw.shape(), w.shape());
        assert_eq!(gb.shape(), &[3]);
    }

    #[test]
    fn strided_padded_backward_input_is_adjoint_of_forward() {
        let mut rng = StdRng::seed_from_u64(10);
        let spec = Conv3dSpec {
            stride: (1, 2, 1),
            padding: (1, 0, 1),
        };
        let x = Tensor::randn(&[1, 2, 3, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 2, 3], 0.0, 1.0, &mut rng);
        let z = conv3d(&x, &w, spec);
        let y = Tensor::randn(z.shape(), 0.0, 1.0, &mut rng);
        let back = conv3d_backward_input(&y, &w, (3, 4, 4), spec);
        let lhs = dot(&z, &y);
        let rhs = dot(&x, &back);
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    #[cfg(feature = "check-finite")]
    #[should_panic(expected = "check-finite: non-finite value produced by conv3d")]
    fn tripwire_fires_on_nan_input() {
        let mut x = Tensor::zeros(&[1, 1, 2, 3, 3]);
        x.set(&[0, 0, 0, 1, 1], f32::NAN);
        let w = Tensor::ones(&[1, 1, 1, 3, 3]);
        conv3d(&x, &w, Conv3dSpec::padded(0, 1, 1));
    }

    #[test]
    #[cfg(not(feature = "check-finite"))]
    fn tripwire_is_noop_without_feature() {
        let mut x = Tensor::zeros(&[1, 1, 2, 3, 3]);
        x.set(&[0, 0, 0, 1, 1], f32::NAN);
        let w = Tensor::ones(&[1, 1, 1, 3, 3]);
        let out = conv3d(&x, &w, Conv3dSpec::padded(0, 1, 1));
        assert!(!out.all_finite());
    }
}
