//! Criterion benchmarks of the op-level design choices DESIGN.md calls out:
//! pyramid vs dense 3-D convolution, the routing stage, squash and softmax,
//! and the matmul core everything reduces to.

use bikecap_autograd::{ParamStore, Tape};
use bikecap_core::capsules::{HistoricalCapsules, SpatialTemporalRouting};
use bikecap_core::{BikeCapConfig, Encoder};
use bikecap_tensor::conv::{conv3d, Conv3dSpec};
use bikecap_tensor::exec::{plan_pyramid_conv, pyramid_conv_into};
use bikecap_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::randn(&[128, 256], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(&[256, 128], 0.0, 1.0, &mut rng);
    c.bench_function("matmul_128x256x128", |bch| {
        bch.iter(|| black_box(a.matmul(&b)))
    });
}

fn bench_conv3d_dense_vs_pyramid(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    // BikeCAP's encoder shape: batch 16, 4 channels, 8 slots, 8x8 grid.
    let x = Tensor::randn(&[16, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    // Dense 3x3x3 kernel (the BikeCap-Pyra ablation encoder).
    let w_dense = Tensor::randn(&[4, 4, 3, 3, 3], 0.0, 0.1, &mut rng);
    c.bench_function("conv3d_dense_3x3x3", |bch| {
        bch.iter(|| black_box(conv3d(&x, &w_dense, Conv3dSpec::padded(1, 1, 1))))
    });
    // Pyramid k=3 kernel (depth 3, spatial up to 5x5): the active-tap
    // kernel reads 35 of the dense weight's 75 taps.
    let w_pyr = Tensor::randn(&[4, 4, 3, 5, 5], 0.0, 0.1, &mut rng);
    let plan = plan_pyramid_conv(x.shape(), w_pyr.shape()).expect("pyramid shapes");
    c.bench_function("pyramid_conv_k3", |bch| {
        bch.iter(|| {
            let mut out = Tensor::zeros(&plan.out_shape());
            pyramid_conv_into(&plan, x.as_slice(), w_pyr.as_slice(), out.as_mut_slice());
            black_box(out)
        })
    });
}

fn bench_softmax_and_squash(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let logits = Tensor::randn(&[16, 8, 8, 8, 4], 0.0, 1.0, &mut rng);
    c.bench_function("softmax_trailing_1_axis", |bch| {
        bch.iter(|| black_box(logits.softmax_trailing(1)))
    });
    c.bench_function("softmax_trailing_3_axes", |bch| {
        bch.iter(|| black_box(logits.softmax_trailing(3)))
    });
    let caps = Tensor::randn(&[16, 8, 4, 8, 8], 0.0, 1.0, &mut rng);
    c.bench_function("squash_on_tape", |bch| {
        bch.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(caps.clone());
            let s = tape.squash(x, 2);
            black_box(tape.value(s).clone());
        })
    });
}

fn bench_capsule_stages(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let mut store = ParamStore::new();
    let enc = HistoricalCapsules::new(&cfg, &mut store, &mut rng);
    let routing = SpatialTemporalRouting::new(&cfg, &mut store, &mut rng);
    let x = Tensor::rand_uniform(&[16, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    c.bench_function("historical_capsules_forward", |bch| {
        bch.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let caps = enc.forward(&mut tape, xv, &store);
            black_box(tape.value(caps).clone());
        })
    });

    let phi = {
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let caps = enc.forward(&mut tape, xv, &store);
        tape.value(caps).clone()
    };
    c.bench_function("spatial_temporal_routing_3iters", |bch| {
        bch.iter(|| {
            let mut tape = Tape::new();
            let pv = tape.constant(phi.clone());
            let out = routing.forward(&mut tape, pv, &store);
            black_box(tape.value(out).clone());
        })
    });

    // Encoder ablation cost comparison (paper Sec. V-B discusses cost).
    let mut cfg2 = cfg.clone();
    cfg2.encoder = Encoder::StandardConv3d;
    let mut store2 = ParamStore::new();
    let enc2 = HistoricalCapsules::new(&cfg2, &mut store2, &mut rng);
    c.bench_function("historical_capsules_dense_conv_forward", |bch| {
        bch.iter(|| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let caps = enc2.forward(&mut tape, xv, &store2);
            black_box(tape.value(caps).clone());
        })
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_matmul, bench_conv3d_dense_vs_pyramid, bench_softmax_and_squash, bench_capsule_stages
}
criterion_main!(benches);
