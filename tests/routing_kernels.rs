//! The fused dynamic-routing kernels (DESIGN.md Appendix K) against the
//! op-by-op composition they replaced.
//!
//! * **Forward, bitwise.** `SpatialTemporalRouting::forward` — transform
//!   conv, then per iteration softmax → fused couple → fused agree — must
//!   reproduce, bit for bit, the permute → reshape → broadcast-mul →
//!   `sum_axes` → squash composition replayed here on eager tensors, over
//!   the EXPERIMENTS.md grid plus every routing knob (volume softmax,
//!   separated slot transforms, two capsules per slot, 1–3 iterations).
//! * **Adjoints.** Central finite differences through both tape ops, alone
//!   and chained into two routing iterations.
//! * **Determinism.** Serial ≡ parallel bitwise at 1/2/4/7 threads, forward
//!   and backward.
//! * **Graph shape.** The lowered graph carries no `Permute`/`Reshape` node
//!   between the routing transform and the decoder.

use bikecap::autograd::check::assert_grad_check;
use bikecap::autograd::{ParamStore, Tape, Var};
use bikecap::check::sweep_configs;
use bikecap::ir::graph::Op;
use bikecap::ir::Graph;
use bikecap::model::capsules::SpatialTemporalRouting;
use bikecap::model::{BikeCap, BikeCapConfig};
use bikecap::rt::{self, Backend};
use bikecap::tensor::conv::{conv3d, Conv3dSpec};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn param(store: &ParamStore, name: &str) -> Tensor {
    let (_, _, value) = store
        .iter()
        .find(|(_, n, _)| *n == name)
        .unwrap_or_else(|| panic!("no parameter {name}"));
    value.clone()
}

/// The tape's primitive squash chain along axis 2, on eager tensors.
fn squash(raw: &Tensor) -> Tensor {
    let sumsq = raw.square().sum_axes(&[2], true);
    let norm = sumsq.add_scalar(1e-8).sqrt();
    let denom = sumsq.add_scalar(1.0).mul(&norm);
    raw.div(&denom).mul(&sumsq)
}

/// The routing as composed before the fused kernels: predictions permuted
/// to `(B, S, p, n, H, W)`, then per iteration softmax → permute → reshape →
/// broadcast mul → `sum_axes` → squash, and broadcast mul → `sum_axes` →
/// permute → add for the agreement.
fn composed_routing(config: &BikeCapConfig, store: &ParamStore, phi: &Tensor) -> Tensor {
    let &[b, s, n, gh, gw] = phi.shape() else {
        panic!("phi must be rank 5")
    };
    let (p, n_out) = (config.horizon, config.out_capsule_dim);
    let bias = param(store, "routing.bias");
    let spec = Conv3dSpec {
        stride: (n, 1, 1),
        padding: (0, 1, 1),
    };
    let v = if config.separate_slot_transforms {
        let slices: Vec<Tensor> = (0..s)
            .map(|si| {
                let w = param(store, &format!("routing.transform{si}"));
                conv3d(&phi.narrow(1, si, 1), &w, spec)
                    .add(&bias)
                    .reshape(&[b, 1, p, n_out, gh, gw])
            })
            .collect();
        Tensor::concat(&slices.iter().collect::<Vec<_>>(), 1)
    } else {
        let w = param(store, "routing.transform");
        conv3d(&phi.reshape(&[b, 1, s * n, gh, gw]), &w, spec)
            .add(&bias)
            .reshape(&[b, p, n_out, s, gh, gw])
            .permute(&[0, 3, 1, 2, 4, 5])
    };
    let trailing = if config.routing_softmax_over_grid { 3 } else { 1 };
    let couple = |logits: &Tensor| {
        let kb = logits
            .softmax_trailing(trailing)
            .permute(&[0, 1, 4, 2, 3])
            .reshape(&[b, s, p, 1, gh, gw]);
        squash(&v.mul(&kb).sum_axes(&[1], true).reshape(&[b, p, n_out, gh, gw]))
    };
    let mut logits = Tensor::zeros(&[b, s, gh, gw, p]);
    let mut s_hat = couple(&logits);
    for _ in 1..config.routing_iters {
        let agree = v
            .mul(&s_hat.reshape(&[b, 1, p, n_out, gh, gw]))
            .sum_axes(&[3], true)
            .reshape(&[b, s, p, gh, gw])
            .permute(&[0, 1, 3, 4, 2]);
        logits = logits.add(&agree);
        s_hat = couple(&logits);
    }
    s_hat
}

fn fused_routing(config: &BikeCapConfig, batch: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let routing = SpatialTemporalRouting::new(config, &mut store, &mut rng);
    let phi_t = Tensor::rand_uniform(
        &[
            batch,
            config.num_hist_capsules(),
            config.capsule_dim,
            config.grid_height,
            config.grid_width,
        ],
        -0.6,
        0.6,
        &mut rng,
    );
    let mut tape = Tape::new();
    let phi = tape.constant(phi_t.clone());
    let out = routing.forward(&mut tape, phi, &store);
    let want = composed_routing(config, &store, &phi_t);
    (want, tape.value(out).clone())
}

/// Every routing knob on a small base, crossed.
fn routing_knob_grid() -> Vec<(String, BikeCapConfig)> {
    let mut configs = Vec::new();
    for over_grid in [false, true] {
        for separate in [false, true] {
            for per_slot in [1, 2] {
                for iters in 1..=3 {
                    let mut c = BikeCapConfig::new(5, 6)
                        .history(3)
                        .horizon(3)
                        .capsule_dim(3)
                        .out_capsule_dim(4)
                        .routing_iters(iters)
                        .separate_slot_transforms(separate);
                    c.routing_softmax_over_grid = over_grid;
                    c.hist_capsules_per_slot = per_slot;
                    let name = format!(
                        "grid={over_grid} separate={separate} per_slot={per_slot} iters={iters}"
                    );
                    configs.push((name, c));
                }
            }
        }
    }
    configs
}

#[test]
fn fused_forward_is_bitwise_equal_to_the_old_composition() {
    let configs = sweep_configs().into_iter().chain(routing_knob_grid());
    for (i, (name, config)) in configs.enumerate() {
        let (want, got) = fused_routing(&config, 2, 100 + i as u64);
        assert_eq!(want.shape(), got.shape(), "{name}: shape");
        assert_eq!(bits(&want), bits(&got), "{name}: fused routing drifted from the composition");
    }
}

/// A fixed random weighting so the scalar loss does not cancel symmetric
/// gradient components.
fn weighted_sum(t: &mut Tape, x: Var, seed: u64) -> Var {
    let shape = t.value(x).shape().to_vec();
    let w = t.constant(Tensor::randn(&shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed)));
    let y = t.mul(x, w);
    t.sum(y)
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape, 0.0, 1.0, &mut StdRng::seed_from_u64(seed))
}

// (B, p, n, S, H, W) = (2, 2, 3, 3, 2, 2): V is (2, 6, 3, 2, 2).
const V: [usize; 5] = [2, 6, 3, 2, 2];
const K: [usize; 5] = [2, 3, 2, 2, 2];
const CAPS: [usize; 5] = [2, 2, 3, 2, 2];

#[test]
fn couple_and_agree_adjoints_match_finite_differences() {
    assert_grad_check(
        |t, v| {
            let s = t.routing_couple(v[0], v[1]);
            weighted_sum(t, s, 1)
        },
        &[randn(&V, 2), randn(&K, 3).softmax_trailing(1)],
        1e-2,
        3e-2,
    );
    assert_grad_check(
        |t, v| {
            let l = t.routing_agree(v[0], v[1], v[2]);
            weighted_sum(t, l, 4)
        },
        &[randn(&V, 5), randn(&CAPS, 6), randn(&K, 7)],
        1e-2,
        3e-2,
    );
    // Two chained iterations: softmax → couple → agree → softmax → couple,
    // so V's gradient accumulates from three ops and flows through Ŝ and K.
    assert_grad_check(
        |t, v| {
            let k0 = t.softmax_trailing(v[1], 1);
            let s0 = t.routing_couple(v[0], k0);
            let l1 = t.routing_agree(v[0], s0, v[1]);
            let k1 = t.softmax_trailing(l1, 1);
            let s1 = t.routing_couple(v[0], k1);
            weighted_sum(t, s1, 8)
        },
        &[randn(&V, 9), randn(&K, 10)],
        1e-2,
        3e-2,
    );
}

/// Forward values of both ops plus every input gradient, at the train
/// workload's routing shape (B=16, S=8, p=4, n=4, 8×8 grid).
fn routing_step_outputs() -> Vec<Tensor> {
    let (v, l, caps) = ([16, 16, 8, 8, 8], [16, 8, 8, 8, 4], [16, 4, 4, 8, 8]);
    let mut store = ParamStore::new();
    let ids = [
        store.add("v", randn(&v, 11).scale(0.3)),
        store.add("l", randn(&l, 12)),
        store.add("s", randn(&caps, 13).scale(0.3)),
    ];
    let mut tape = Tape::new();
    let [vv, lv, sv] = ids.map(|id| tape.param(&store, id));
    let k = tape.softmax_trailing(lv, 1);
    let couple = tape.routing_couple(vv, k);
    let agree = tape.routing_agree(vv, sv, lv);
    let a = weighted_sum(&mut tape, couple, 14);
    let b = weighted_sum(&mut tape, agree, 15);
    let loss = tape.add(a, b);
    tape.backward(loss, &mut store);
    let mut outs = vec![tape.value(couple).clone(), tape.value(agree).clone()];
    outs.extend(ids.iter().map(|&id| store.grad(id).clone()));
    outs
}

#[test]
fn routing_kernels_are_bitwise_identical_across_thread_counts() {
    rt::set_backend(Backend::Serial);
    let reference = routing_step_outputs();
    rt::set_backend(Backend::Parallel);
    for threads in [1, 2, 4, 7] {
        rt::set_threads(threads);
        for (i, (want, got)) in reference.iter().zip(routing_step_outputs()).enumerate() {
            assert_eq!(bits(want), bits(&got), "output {i} diverges at {threads} threads");
        }
    }
    rt::set_threads(0);
}

#[test]
fn compiled_graph_has_no_layout_shuffles_inside_routing() {
    for separate in [false, true] {
        let config = BikeCapConfig::new(8, 8)
            .history(8)
            .horizon(4)
            .separate_slot_transforms(separate);
        let iters = config.routing_iters;
        let model = BikeCap::seeded(config, 3);
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::zeros(&[2, 4, 8, 8, 8]));
        let y = model.forward(&mut tape, x);
        let graph = Graph::from_tape(&tape, x, y).expect("lowering");
        let nodes = graph.nodes();
        let routing: Vec<usize> = (0..nodes.len())
            .filter(|&i| matches!(nodes[i].op, Op::RoutingCouple | Op::RoutingAgree))
            .collect();
        let couples = routing
            .iter()
            .filter(|&&i| nodes[i].op == Op::RoutingCouple)
            .count();
        assert_eq!(couples, iters, "one fused couple per iteration");
        assert_eq!(routing.len(), 2 * iters - 1, "one fused agree per refinement");
        // V (the biased transform output) feeds every routing op directly.
        let v = nodes[routing[0]].parents[0];
        assert!(routing.iter().all(|&i| nodes[i].parents[0] == v));
        assert!(matches!(nodes[v].op, Op::Zip(_)), "V is the bias add");
        let transform = nodes[v].parents[0];
        let last = *routing.last().expect("routing ops");
        // The decoder's first consumer of the final capsules.
        let decoder = (last + 1..nodes.len())
            .find(|&i| nodes[i].parents.contains(&last))
            .expect("decoder consumes the routed capsules");
        for (i, node) in nodes.iter().enumerate().take(decoder).skip(transform) {
            assert!(
                !matches!(node.op, Op::Permute(_) | Op::Reshape),
                "separate={separate}: node {i} ({:?}) shuffles layout inside routing",
                node.op
            );
        }
        assert!(model.compile_fresh_plan(2).is_some(), "plan compiles");
    }
}
