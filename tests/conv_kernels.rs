//! The fused convolution kernels (DESIGN.md Appendix M) against the
//! im2col / col2im + GEMM composition they replaced.
//!
//! The oracle below is that composition, kept here verbatim in behaviour:
//! an im2col patch matrix, `Tensor::matmul` against the (transposed)
//! reshaped weight, and the position-matrix re-interleave; col2im's
//! scatter-add for the input gradient; `gradᵀ × col` for the weight
//! gradient; and im2col + `matmul_q8_into` for the quantized forward.
//!
//! * **Bitwise equality.** Forward, `dX` and `dW` of `conv3d` and
//!   `conv_transpose3d` match the oracle with `to_bits` over the routing
//!   transform, both decoder deconvolutions, the stride/padding specs of the
//!   `conv.rs` unit tests, kernels up to `(3, 5, 5)`, non-square and 1×1
//!   grids, at batch 1, 2, 4 and 16.
//! * **Determinism.** Serial ≡ parallel bitwise at 1/2/4/7 threads.
//! * **Batch invariance.** Sample `i` of a batched forward equals its own
//!   batch-1 forward bitwise (serving compares batched responses with
//!   single-window predicts).
//! * **Quantized forward.** `conv3d_q8_into` equals the oracle's im2col +
//!   `matmul_q8_into` composition bitwise.
//! * **Executors.** Eager ≡ compiled bitwise for an f32 and a Q8_0 model
//!   across the `check::sweep` configs.

use bikecap::check::sweep_configs;
use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::quant::{conv3d_q8_into, matmul_q8_into, Q8Tensor, QuantFormat};
use bikecap::rt::{self, Backend};
use bikecap::tensor::conv::{
    conv3d, conv3d_backward_input, conv3d_backward_weight, conv3d_out_dims, conv_transpose3d,
    conv_transpose3d_backward_input, conv_transpose3d_backward_weight, conv_transpose3d_out_dims,
    Conv3dSpec,
};
use bikecap::tensor::exec::plan_conv3d;
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The patch-matrix composition the fused kernels replaced.
mod oracle {
    use super::*;

    type Dims5 = (usize, usize, usize, usize, usize);

    fn dims5(shape: &[usize]) -> Dims5 {
        (shape[0], shape[1], shape[2], shape[3], shape[4])
    }

    /// `(N·OD·OH·OW, C·KD·KH·KW)` patch matrix, zeros for padding taps.
    pub fn im2col(
        x: &[f32],
        dims: Dims5,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
    ) -> Vec<f32> {
        let (n, c, d, h, w) = dims;
        let (kd, kh, kw) = kernel;
        let (od, oh, ow) = conv3d_out_dims((d, h, w), kernel, spec);
        let k = c * kd * kh * kw;
        let mut col = vec![0.0f32; n * od * oh * ow * k];
        let mut row = 0;
        for b in 0..n {
            for zd in 0..od {
                for zh in 0..oh {
                    for zw in 0..ow {
                        let mut ci = 0;
                        for cc in 0..c {
                            for fd in 0..kd {
                                for fh in 0..kh {
                                    for fw in 0..kw {
                                        let id = (zd * spec.stride.0 + fd) as isize
                                            - spec.padding.0 as isize;
                                        let ih = (zh * spec.stride.1 + fh) as isize
                                            - spec.padding.1 as isize;
                                        let iw = (zw * spec.stride.2 + fw) as isize
                                            - spec.padding.2 as isize;
                                        if (0..d as isize).contains(&id)
                                            && (0..h as isize).contains(&ih)
                                            && (0..w as isize).contains(&iw)
                                        {
                                            let (id, ih, iw) =
                                                (id as usize, ih as usize, iw as usize);
                                            col[row * k + ci] =
                                                x[(((b * c + cc) * d + id) * h + ih) * w + iw];
                                        }
                                        ci += 1;
                                    }
                                }
                            }
                        }
                        row += 1;
                    }
                }
            }
        }
        col
    }

    /// Scatter-adds a patch matrix into a zeroed `(N, C, D, H, W)` buffer in
    /// ascending row, then column, order.
    pub fn col2im(
        col: &[f32],
        dims: Dims5,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
    ) -> Vec<f32> {
        let (n, c, d, h, w) = dims;
        let (kd, kh, kw) = kernel;
        let (od, oh, ow) = conv3d_out_dims((d, h, w), kernel, spec);
        let k = c * kd * kh * kw;
        let mut out = vec![0.0f32; n * c * d * h * w];
        let mut row = 0;
        for b in 0..n {
            for zd in 0..od {
                for zh in 0..oh {
                    for zw in 0..ow {
                        let mut ci = 0;
                        for cc in 0..c {
                            for fd in 0..kd {
                                for fh in 0..kh {
                                    for fw in 0..kw {
                                        let id = (zd * spec.stride.0 + fd) as isize
                                            - spec.padding.0 as isize;
                                        let ih = (zh * spec.stride.1 + fh) as isize
                                            - spec.padding.1 as isize;
                                        let iw = (zw * spec.stride.2 + fw) as isize
                                            - spec.padding.2 as isize;
                                        if (0..d as isize).contains(&id)
                                            && (0..h as isize).contains(&ih)
                                            && (0..w as isize).contains(&iw)
                                        {
                                            let (id, ih, iw) =
                                                (id as usize, ih as usize, iw as usize);
                                            out[(((b * c + cc) * d + id) * h + ih) * w + iw] +=
                                                col[row * k + ci];
                                        }
                                        ci += 1;
                                    }
                                }
                            }
                        }
                        row += 1;
                    }
                }
            }
        }
        out
    }

    /// `(N, C, P)` → `(N·P, C)`.
    pub fn to_positions(t: &Tensor) -> Tensor {
        let (n, c) = (t.shape()[0], t.shape()[1]);
        let p = t.len() / (n * c);
        let mut out = vec![0.0f32; t.len()];
        for b in 0..n {
            for cc in 0..c {
                for pos in 0..p {
                    out[(b * p + pos) * c + cc] = t.as_slice()[(b * c + cc) * p + pos];
                }
            }
        }
        Tensor::from_vec(out, &[n * p, c])
    }

    /// `(N·P, C)` → `(N, C, P)`.
    pub fn from_positions(m: &[f32], n: usize, c: usize) -> Vec<f32> {
        let p = m.len() / (n * c);
        let mut out = vec![0.0f32; m.len()];
        for b in 0..n {
            for pos in 0..p {
                for cc in 0..c {
                    out[(b * c + cc) * p + pos] = m[(b * p + pos) * c + cc];
                }
            }
        }
        out
    }

    pub fn conv3d(x: &Tensor, w: &Tensor, spec: Conv3dSpec) -> Tensor {
        let dims = dims5(x.shape());
        let ws = w.shape();
        let (c_out, kernel) = (ws[0], (ws[2], ws[3], ws[4]));
        let k = dims.1 * kernel.0 * kernel.1 * kernel.2;
        let (od, oh, ow) = conv3d_out_dims((dims.2, dims.3, dims.4), kernel, spec);
        let rows = dims.0 * od * oh * ow;
        let col = Tensor::from_vec(im2col(x.as_slice(), dims, kernel, spec), &[rows, k]);
        let mat = col.matmul(&w.reshape(&[c_out, k]).transpose2d());
        Tensor::from_vec(
            from_positions(mat.as_slice(), dims.0, c_out),
            &[dims.0, c_out, od, oh, ow],
        )
    }

    pub fn conv3d_dx(
        g: &Tensor,
        w: &Tensor,
        in_dims: (usize, usize, usize),
        spec: Conv3dSpec,
    ) -> Tensor {
        let ws = w.shape();
        let (c_out, c_in, kernel) = (ws[0], ws[1], (ws[2], ws[3], ws[4]));
        let n = g.shape()[0];
        let g_col =
            to_positions(g).matmul(&w.reshape(&[c_out, c_in * kernel.0 * kernel.1 * kernel.2]));
        let dims = (n, c_in, in_dims.0, in_dims.1, in_dims.2);
        Tensor::from_vec(
            col2im(g_col.as_slice(), dims, kernel, spec),
            &[n, c_in, in_dims.0, in_dims.1, in_dims.2],
        )
    }

    pub fn conv3d_dw(
        g: &Tensor,
        x: &Tensor,
        kernel: (usize, usize, usize),
        spec: Conv3dSpec,
    ) -> Tensor {
        let dims = dims5(x.shape());
        let c_out = g.shape()[1];
        let k = dims.1 * kernel.0 * kernel.1 * kernel.2;
        let col = Tensor::from_vec(
            im2col(x.as_slice(), dims, kernel, spec),
            &[g.len() / c_out, k],
        );
        to_positions(g)
            .transpose2d()
            .matmul(&col)
            .reshape(&[c_out, dims.1, kernel.0, kernel.1, kernel.2])
    }

    pub fn conv3d_q8(x: &Tensor, wq: &Q8Tensor, spec: Conv3dSpec) -> Vec<f32> {
        let dims = dims5(x.shape());
        let ws = wq.shape();
        let (c_out, kernel) = (ws[0], (ws[2], ws[3], ws[4]));
        let k = dims.1 * kernel.0 * kernel.1 * kernel.2;
        let col = im2col(x.as_slice(), dims, kernel, spec);
        let rows = col.len() / k;
        let mut mat = vec![0.0f32; rows * c_out];
        matmul_q8_into(&col, wq, rows, k, c_out, &mut mat);
        from_positions(&mat, dims.0, c_out)
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_bits(label: &str, want: &Tensor, got: &Tensor) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape");
    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} ({a} vs {b})"
        );
    }
}

/// Gaussian values with every third one clamped to an exact zero, so the
/// oracle's zero-skipping GEMM and the fused kernels' zero products meet.
fn sample(shape: &[usize], seed: u64) -> Tensor {
    let t = Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed));
    let data = t
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 3 == 0 { v.max(0.0) } else { v })
        .collect();
    Tensor::from_vec(data, shape)
}

/// One convolution geometry: `x` (without its batch), the weight, the spec,
/// and whether the case is a transposed convolution (`w` is then `(C_in,
/// C_out, …)` of the transposed conv).
struct Case {
    label: &'static str,
    x: [usize; 4],
    w: [usize; 5],
    spec: Conv3dSpec,
    transposed: bool,
}

fn spec(stride: (usize, usize, usize), padding: (usize, usize, usize)) -> Conv3dSpec {
    Conv3dSpec { stride, padding }
}

fn cases() -> Vec<Case> {
    let case = |label, x, w, spec, transposed| Case {
        label,
        x,
        w,
        spec,
        transposed,
    };
    vec![
        // The routing transform: (B, 1, S·n, H, W), kernel (n, 3, 3),
        // stride (n, 1, 1), padding (0, 1, 1).
        case(
            "routing_transform",
            [1, 32, 8, 8],
            [16, 1, 4, 3, 3],
            spec((4, 1, 1), (0, 1, 1)),
            false,
        ),
        case(
            "routing_transform_n2_5x7",
            [1, 12, 5, 7],
            [6, 1, 2, 3, 3],
            spec((2, 1, 1), (0, 1, 1)),
            false,
        ),
        // The decoder's two deconvolutions (n_out 4 -> 8 -> 1).
        case(
            "decoder_deconv1",
            [4, 4, 8, 8],
            [4, 8, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            true,
        ),
        case(
            "decoder_deconv2",
            [8, 4, 8, 8],
            [8, 1, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            true,
        ),
        // The conv.rs unit-test specs.
        case(
            "unit_no_padding",
            [3, 4, 5, 5],
            [4, 3, 2, 3, 3],
            Conv3dSpec::default(),
            false,
        ),
        case(
            "unit_stride_221",
            [2, 5, 6, 6],
            [3, 2, 3, 3, 3],
            spec((2, 2, 1), (1, 1, 1)),
            false,
        ),
        case(
            "unit_padded_111",
            [2, 4, 5, 5],
            [3, 2, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            false,
        ),
        case(
            "unit_padded_011",
            [2, 3, 4, 4],
            [2, 2, 2, 3, 3],
            Conv3dSpec::padded(0, 1, 1),
            false,
        ),
        case(
            "unit_stride_121",
            [2, 3, 4, 4],
            [3, 2, 3, 2, 3],
            spec((1, 2, 1), (1, 0, 1)),
            false,
        ),
        case(
            "unit_convt_padded",
            [3, 4, 4, 4],
            [3, 2, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            true,
        ),
        case(
            "unit_convt_stride2",
            [1, 2, 2, 2],
            [1, 1, 2, 2, 2],
            spec((2, 2, 2), (0, 0, 0)),
            true,
        ),
        case(
            "unit_convt_unpadded",
            [2, 2, 3, 3],
            [2, 1, 2, 2, 2],
            Conv3dSpec::default(),
            true,
        ),
        // Wide kernels, width strides, non-square and 1x1 grids.
        case(
            "kernel_3x5x5",
            [2, 4, 6, 9],
            [3, 2, 3, 5, 5],
            spec((1, 1, 1), (1, 2, 2)),
            false,
        ),
        case(
            "kernel_3x5x5_strided",
            [2, 6, 9, 11],
            [2, 2, 3, 5, 5],
            spec((2, 2, 3), (1, 2, 1)),
            false,
        ),
        case(
            "convt_3x5x5_strided",
            [2, 3, 4, 3],
            [2, 3, 3, 5, 5],
            spec((2, 2, 3), (1, 2, 1)),
            true,
        ),
        case(
            "grid_5x7",
            [3, 4, 5, 7],
            [4, 3, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            false,
        ),
        case(
            "grid_1x1",
            [2, 4, 1, 1],
            [3, 2, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            false,
        ),
        case(
            "convt_grid_1x1",
            [3, 4, 1, 1],
            [3, 2, 3, 3, 3],
            Conv3dSpec::padded(1, 1, 1),
            true,
        ),
        case(
            "wide_row_80",
            [1, 2, 3, 80],
            [2, 1, 1, 3, 3],
            Conv3dSpec::padded(0, 1, 1),
            false,
        ),
    ]
}

/// Forward, `dX` and `dW` of one case at one batch size, fused and oracle.
fn run_case(case: &Case, batch: usize, seed: u64) -> Vec<(String, Tensor, Tensor)> {
    let [c, d, h, w] = case.x;
    let x = sample(&[batch, c, d, h, w], seed);
    let wt = sample(&case.w, seed + 1);
    let kernel = (case.w[2], case.w[3], case.w[4]);
    let spec = case.spec;
    let label = |what: &str| format!("{}/B{batch}/{what}", case.label);
    if case.transposed {
        let y = conv_transpose3d(&x, &wt, spec);
        let out_dims = conv_transpose3d_out_dims((d, h, w), kernel, spec);
        let g = sample(y.shape(), seed + 2);
        vec![
            (
                label("forward"),
                oracle::conv3d_dx(&x, &wt, out_dims, spec),
                y,
            ),
            (
                label("dx"),
                oracle::conv3d(&g, &wt, spec),
                conv_transpose3d_backward_input(&g, &wt, spec),
            ),
            (
                label("dw"),
                oracle::conv3d_dw(&x, &g, kernel, spec),
                conv_transpose3d_backward_weight(&g, &x, kernel, spec),
            ),
        ]
    } else {
        let y = conv3d(&x, &wt, spec);
        let g = sample(y.shape(), seed + 2);
        vec![
            (label("forward"), oracle::conv3d(&x, &wt, spec), y),
            (
                label("dx"),
                oracle::conv3d_dx(&g, &wt, (d, h, w), spec),
                conv3d_backward_input(&g, &wt, (d, h, w), spec),
            ),
            (
                label("dw"),
                oracle::conv3d_dw(&g, &x, kernel, spec),
                conv3d_backward_weight(&g, &x, kernel, spec),
            ),
        ]
    }
}

#[test]
fn fused_kernels_are_bitwise_equal_to_the_patch_matrix_composition() {
    for (i, case) in cases().iter().enumerate() {
        for batch in [1, 2, 4, 16] {
            for (label, want, got) in run_case(case, batch, 100 * i as u64 + batch as u64) {
                assert_bits(&label, &want, &got);
            }
        }
    }
}

#[test]
fn fused_kernels_are_bitwise_identical_across_thread_counts() {
    let all = cases();
    let model_shapes: Vec<&Case> = all
        .iter()
        .filter(|c| c.label.starts_with("routing") || c.label.starts_with("decoder"))
        .collect();
    let outputs = |batch: usize| -> Vec<Tensor> {
        model_shapes
            .iter()
            .flat_map(|c| run_case(c, batch, 7))
            .map(|(_, _, got)| got)
            .collect()
    };
    rt::set_backend(Backend::Serial);
    let serial: Vec<Tensor> = [1, 16].into_iter().flat_map(outputs).collect();
    rt::set_backend(Backend::Parallel);
    for threads in [1, 2, 4, 7] {
        rt::set_threads(threads);
        let parallel: Vec<Tensor> = [1, 16].into_iter().flat_map(outputs).collect();
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(bits(s), bits(p), "output {i} at {threads} threads");
        }
    }
    rt::set_threads(0);
}

#[test]
fn batched_forward_is_bitwise_the_per_sample_forward() {
    for (i, case) in cases().iter().enumerate() {
        let [c, d, h, w] = case.x;
        let batch = 4;
        let x = sample(&[batch, c, d, h, w], 500 + i as u64);
        let wt = sample(&case.w, 600 + i as u64);
        let forward = |x: &Tensor| {
            if case.transposed {
                conv_transpose3d(x, &wt, case.spec)
            } else {
                conv3d(x, &wt, case.spec)
            }
        };
        let batched = forward(&x);
        for s in 0..batch {
            let single = forward(&x.narrow(0, s, 1));
            assert_bits(
                &format!("{}/sample{s}", case.label),
                &single,
                &batched.narrow(0, s, 1),
            );
        }
    }
}

#[test]
fn q8_conv_is_bitwise_equal_to_the_im2col_q8_matmul_composition() {
    for (i, case) in cases().iter().filter(|c| !c.transposed).enumerate() {
        let [c, d, h, w] = case.x;
        let ws = case.w;
        let k = ws[1] * ws[2] * ws[3] * ws[4];
        let wt = sample(&ws, 700 + i as u64);
        let wq = Q8Tensor::quantize(wt.as_slice(), &ws, ws[0], k);
        for batch in [1, 2, 16] {
            let x = sample(&[batch, c, d, h, w], 800 + i as u64);
            let plan = plan_conv3d(x.shape(), &ws, case.spec).expect("case geometry plans");
            let mut got = vec![0.0f32; plan.out_len()];
            conv3d_q8_into(&plan, x.as_slice(), &wq, &mut got);
            let want = oracle::conv3d_q8(&x, &wq, case.spec);
            let shape = plan.out_shape();
            assert_bits(
                &format!("{}/B{batch}/q8", case.label),
                &Tensor::from_vec(want, &shape),
                &Tensor::from_vec(got, &shape),
            );
        }
    }
}

fn window(config: &BikeCapConfig, batch: usize, seed: u64) -> Tensor {
    let shape = [
        batch,
        config.input_features(),
        config.history,
        config.grid_height,
        config.grid_width,
    ];
    Tensor::rand_uniform(&shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
}

fn assert_eager_matches_compiled(label: &str, model: &mut BikeCap, input: &Tensor) {
    model.set_exec_mode(ExecMode::Eager);
    let eager = model.predict(input);
    model.set_exec_mode(ExecMode::Compiled);
    let compiled = model.predict(input);
    assert_eq!(
        bits(&eager),
        bits(&compiled),
        "{label}: eager and compiled diverge"
    );
}

#[test]
fn eager_matches_compiled_for_f32_and_q8_models_across_the_sweep() {
    for (i, (name, config)) in sweep_configs().into_iter().enumerate() {
        let input = window(&config, 2, 60 + i as u64);
        let mut model = BikeCap::seeded(config.clone(), 61);
        assert_eager_matches_compiled(&format!("{name}/f32"), &mut model, &input);

        let path =
            std::env::temp_dir().join(format!("bikecap-conv-q8-{i}-{}.ckpt", std::process::id()));
        model
            .save_quantized_checkpoint(&path, QuantFormat::Q8_0)
            .expect("quantized save");
        let mut quantized = BikeCap::seeded(config, 1);
        quantized.load_checkpoint(&path).expect("quantized load");
        std::fs::remove_file(&path).ok();
        assert!(
            quantized.precision().starts_with("q8_0"),
            "{name}: {}",
            quantized.precision()
        );
        assert_eager_matches_compiled(&format!("{name}/q8"), &mut quantized, &input);
    }
}
