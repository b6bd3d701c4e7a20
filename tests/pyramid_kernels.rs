//! The pyramid-native causal convolution (DESIGN.md Appendix L) against the
//! zero-pad + weight-mask + dense conv3d composition it replaced.
//!
//! * **Forward, bitwise.** `PyramidConv3d::forward` must reproduce, bit for
//!   bit, the concat-zeros → mask-mul → `conv3d` → bias composition replayed
//!   here on eager tensors, for every pyramid layer of the EXPERIMENTS.md
//!   grid (both layers of a `hist_layers(2)` encoder included), pyramid
//!   sizes 1–4, and non-square grids where some tap windows are empty.
//! * **Adjoints.** Central finite differences for `dX` and `dW`, agreement
//!   with the old composition's gradients to rounding, and exactly `0.0`
//!   gradient for every masked weight entry.
//! * **Determinism.** Serial ≡ parallel bitwise at 1/2/4/7 threads, forward
//!   and backward, at the train workload's encoder shape.
//! * **Executors.** Eager ≡ compiled bitwise for an f32 and a Q8_0 model.
//! * **Graph shape.** No `Concat` or `Mul` sits between the runtime input
//!   and the encoder's `PyramidConv`, whose weight is the parameter itself.

use bikecap::autograd::check::assert_grad_check;
use bikecap::autograd::{ParamStore, Tape, Var};
use bikecap::check::sweep_configs;
use bikecap::ir::graph::{Op, ZipOp};
use bikecap::ir::Graph;
use bikecap::model::{BikeCap, BikeCapConfig, Encoder, ExecMode};
use bikecap::nn::PyramidConv3d;
use bikecap::quant::QuantFormat;
use bikecap::rt::{self, Backend};
use bikecap::tensor::conv::{conv3d, Conv3dSpec};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
}

fn named(store: &ParamStore, suffix: &str) -> (bikecap::autograd::ParamId, Tensor) {
    let (id, _, value) = store
        .iter()
        .find(|(_, n, _)| n.ends_with(suffix))
        .unwrap_or_else(|| panic!("no parameter *{suffix}"));
    (id, value.clone())
}

/// The layer as composed before the pyramid kernel: `k-1` zero slots
/// prepended, the dense weight multiplied by the pyramid mask, a
/// `(0, k-1, k-1)`-padded conv3d, then the bias.
fn composed_pyramid(x: &Tensor, w: &Tensor, bias: &Tensor, k: usize) -> Tensor {
    let &[b, c_in, _, h, gw] = x.shape() else {
        panic!("x must be rank 5")
    };
    let padded = if k > 1 {
        Tensor::concat(&[&Tensor::zeros(&[b, c_in, k - 1, h, gw]), x], 2)
    } else {
        x.clone()
    };
    let mask = PyramidConv3d::pyramid_mask(w.shape()[0], c_in, k);
    let spec = Conv3dSpec {
        stride: (1, 1, 1),
        padding: (0, k - 1, k - 1),
    };
    conv3d(&padded, &w.mul(&mask), spec).add(bias)
}

/// `(label, x shape, c_out, k)` for one pyramid layer.
type LayerShape = (String, [usize; 5], usize, usize);

/// Every pyramid layer the sweep grid builds, both layers of a two-layer
/// encoder, and non-square / short-history shapes for k = 1..4.
fn layer_shapes() -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    let two_layer = (
        "hist_layers2".to_string(),
        BikeCapConfig::new(6, 7).history(5).hist_layers(2),
    );
    for (name, c) in sweep_configs().into_iter().chain([two_layer]) {
        if c.encoder != Encoder::Pyramid {
            continue;
        }
        let caps = c.hist_capsules_per_slot * c.capsule_dim;
        let grid = (c.grid_height, c.grid_width);
        for li in 0..c.hist_layers {
            let c_in = if li == 0 { c.input_features() } else { caps };
            let x = [2, c_in, c.history, grid.0, grid.1];
            shapes.push((format!("{name}/layer{li}"), x, caps, c.pyramid_size));
        }
    }
    for k in 1..=4 {
        for (h, w, depth) in [(5, 7, 6), (7, 3, 4), (2, 9, 2), (1, 1, 3)] {
            shapes.push((format!("k{k}/{h}x{w}x{depth}"), [2, 3, depth, h, w], 2, k));
        }
    }
    shapes
}

#[test]
fn pyramid_forward_is_bitwise_equal_to_the_masked_dense_composition() {
    for (i, (name, xs, c_out, k)) in layer_shapes().into_iter().enumerate() {
        let seed = 500 + i as u64;
        let mut store = ParamStore::new();
        let layer = PyramidConv3d::new(
            &mut store,
            "p",
            xs[1],
            c_out,
            k,
            &mut StdRng::seed_from_u64(seed),
        );
        let (bias_id, _) = named(&store, ".bias");
        store.set_value(bias_id, randn(&[1, c_out, 1, 1, 1], seed + 1));
        let x = Tensor::rand_uniform(&xs, -1.0, 1.0, &mut StdRng::seed_from_u64(seed + 2));
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = layer.forward(&mut tape, xv, &store);
        let want = composed_pyramid(
            &x,
            &named(&store, ".weight").1,
            &named(&store, ".bias").1,
            k,
        );
        assert_eq!(want.shape(), tape.value(y).shape(), "{name}: shape");
        assert_eq!(
            bits(&want),
            bits(tape.value(y)),
            "{name}: pyramid kernel drifted from the masked dense composition"
        );
    }
}

/// A fixed random weighting so the scalar loss does not cancel symmetric
/// gradient components.
fn weighted_sum(t: &mut Tape, x: Var, seed: u64) -> Var {
    let shape = t.value(x).shape().to_vec();
    let w = t.constant(randn(&shape, seed));
    let y = t.mul(x, w);
    t.sum(y)
}

#[test]
fn pyramid_adjoints_match_finite_differences() {
    for (k, xs) in [
        (1, [2, 2, 3, 3, 4]),
        (2, [2, 2, 3, 4, 3]),
        (3, [1, 2, 4, 3, 5]),
    ] {
        let s = 2 * k - 1;
        assert_grad_check(
            |t, v| {
                let y = t.pyramid_conv(v[0], v[1], k);
                weighted_sum(t, y, 20 + k as u64)
            },
            &[randn(&xs, 21), randn(&[3, 2, k, s, s], 22).scale(0.5)],
            1e-2,
            3e-2,
        );
    }
}

/// `(dX, dW)` of a weighted sum of the pyramid output, through the kernel
/// (`fused`) or through the old zero-pad + mask-mul + conv3d tape ops.
fn pyramid_grads(x: &Tensor, w: &Tensor, k: usize, fused: bool) -> (Tensor, Tensor) {
    let mut store = ParamStore::new();
    let (xid, wid) = (store.add("x", x.clone()), store.add("w", w.clone()));
    let mut tape = Tape::new();
    let (xv, wv) = (tape.param(&store, xid), tape.param(&store, wid));
    let y = if fused {
        tape.pyramid_conv(xv, wv, k)
    } else {
        let xs = x.shape();
        let zeros = tape.constant(Tensor::zeros(&[xs[0], xs[1], k - 1, xs[3], xs[4]]));
        let padded = tape.concat(&[zeros, xv], 2);
        let mask = tape.constant(PyramidConv3d::pyramid_mask(w.shape()[0], xs[1], k));
        let wm = tape.mul(wv, mask);
        tape.conv3d(padded, wm, Conv3dSpec::padded(0, k - 1, k - 1))
    };
    let loss = weighted_sum(&mut tape, y, 50);
    tape.backward(loss, &mut store);
    (store.grad(xid).clone(), store.grad(wid).clone())
}

#[test]
fn adjoints_agree_with_the_masked_dense_composition_to_rounding() {
    let x = randn(&[16, 4, 8, 8, 8], 51);
    let w = randn(&[4, 4, 3, 5, 5], 52).scale(0.2);
    let (dx, dw) = pyramid_grads(&x, &w, 3, true);
    let (old_dx, old_dw) = pyramid_grads(&x, &w, 3, false);
    for (name, new, old) in [("dX", &dx, &old_dx), ("dW", &dw, &old_dw)] {
        let scale = old.abs().max_value().max(1.0);
        let worst = new.sub(old).abs().max_value() / scale;
        assert!(worst <= 2e-5, "{name}: worst relative difference {worst}");
    }
    // Nothing writes a masked weight's gradient: it stays exactly +0.0.
    let mask = PyramidConv3d::pyramid_mask(4, 4, 3);
    for (i, (g, m)) in dw.as_slice().iter().zip(mask.as_slice()).enumerate() {
        if *m == 0.0 {
            assert_eq!(
                g.to_bits(),
                0.0f32.to_bits(),
                "masked entry {i} has gradient {g}"
            );
        } else {
            assert!(*g != 0.0, "active entry {i} got no gradient");
        }
    }
}

/// The forward value plus both input gradients at the train workload's
/// encoder shape (B=16, 4 → 4 channels, 8 slots, 8×8 grid, k=3).
fn train_shape_outputs() -> Vec<Tensor> {
    let mut store = ParamStore::new();
    let ids = [
        store.add("x", randn(&[16, 4, 8, 8, 8], 31)),
        store.add("w", randn(&[4, 4, 3, 5, 5], 32).scale(0.2)),
    ];
    let mut tape = Tape::new();
    let [x, w] = ids.map(|id| tape.param(&store, id));
    let y = tape.pyramid_conv(x, w, 3);
    let loss = weighted_sum(&mut tape, y, 33);
    tape.backward(loss, &mut store);
    let mut outs = vec![tape.value(y).clone()];
    outs.extend(ids.iter().map(|&id| store.grad(id).clone()));
    outs
}

#[test]
fn pyramid_kernels_are_bitwise_identical_across_thread_counts() {
    rt::set_backend(Backend::Serial);
    let reference = train_shape_outputs();
    rt::set_backend(Backend::Parallel);
    for threads in [1, 2, 4, 7] {
        rt::set_threads(threads);
        for (i, (want, got)) in reference.iter().zip(train_shape_outputs()).enumerate() {
            assert_eq!(
                bits(want),
                bits(&got),
                "output {i} diverges at {threads} threads"
            );
        }
    }
    rt::set_threads(0);
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
fn eager_matches_compiled_for_f32_and_q8_models() {
    let configs = [
        BikeCapConfig::new(8, 8).history(8).horizon(4),
        BikeCapConfig::new(5, 7)
            .history(4)
            .horizon(2)
            .pyramid_size(4)
            .hist_layers(2),
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let input = window(&config, 2, 40 + i as u64);
        let mut model = BikeCap::seeded(config.clone(), 41);
        assert_eager_matches_compiled(&format!("f32/{i}"), &mut model, &input);

        let path = std::env::temp_dir().join(format!(
            "bikecap-pyramid-q8-{i}-{}.ckpt",
            std::process::id()
        ));
        model
            .save_quantized_checkpoint(&path, QuantFormat::Q8_0)
            .expect("quantized save");
        let mut quantized = BikeCap::seeded(config, 1);
        quantized.load_checkpoint(&path).expect("quantized load");
        std::fs::remove_file(&path).ok();
        assert!(
            quantized.precision().starts_with("q8_0"),
            "{}",
            quantized.precision()
        );
        assert_eager_matches_compiled(&format!("q8/{i}"), &mut quantized, &input);
    }
}

#[test]
fn lowered_encoder_reads_the_input_and_weight_parameter_directly() {
    let config = BikeCapConfig::new(8, 8)
        .history(8)
        .horizon(4)
        .hist_layers(2);
    let model = BikeCap::seeded(config.clone(), 3);
    let mut tape = Tape::traced();
    let x = tape.constant(window(&config, 2, 9));
    let y = model.forward(&mut tape, x);
    let graph = Graph::from_tape(&tape, x, y).expect("lowering");
    let nodes = graph.nodes();
    let pyramids: Vec<usize> = (0..nodes.len())
        .filter(|&i| matches!(nodes[i].op, Op::PyramidConv(3)))
        .collect();
    assert_eq!(pyramids.len(), 2, "one pyramid op per encoder layer");
    let first = pyramids[0];
    assert_eq!(
        nodes[first].parents[0],
        x.index(),
        "layer 0 reads the input itself"
    );
    for &i in &pyramids {
        let w = nodes[i].parents[1];
        assert!(
            matches!(nodes[w].op, Op::Param(_)),
            "node {i}: weight is not a parameter"
        );
    }
    for (i, node) in nodes.iter().enumerate().take(first) {
        assert!(
            !matches!(node.op, Op::Concat(_) | Op::Zip(ZipOp::Mul) | Op::Const(_)),
            "node {i} ({:?}) pads or masks in front of the encoder",
            node.op
        );
    }
    assert!(model.compile_fresh_plan(2).is_some(), "plan compiles");
}
