//! Roofline work-model accounting regression tests.
//!
//! `bikecap profile` joins `perf.flops` / `perf.bytes` value events to their
//! enclosing kernel spans to print per-layer GFLOP/s, GB/s, arithmetic
//! intensity and a memory-/compute-bound verdict (DESIGN.md Appendix I).
//! These tests pin that both execution paths stamp the model:
//!
//! * the eager tape walk, per layer (`nn.*` / `core.*` spans), and
//! * the compiled executor, per step from baked geometry (`ir.step.*`),
//!
//! and that the two agree on total conv work — the compiled plan must not
//! drift from the eager accounting for the same model and input.

use std::sync::{Arc, Mutex};

use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::obs::{self, Kind, MemorySink, Roofline};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes this file's captures: the obs sink is process-global, so two
/// tests installing their own sinks concurrently would steal each other's
/// events.
static CAPTURE: Mutex<()> = Mutex::new(());

fn traced_predict(mode: ExecMode) -> Vec<obs::Event> {
    let _capture = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    let sink = Arc::new(MemorySink::new(1 << 18));
    obs::install(sink.clone());
    let mut model = BikeCap::seeded(BikeCapConfig::new(8, 8).history(8).horizon(4), 42);
    model.set_exec_mode(mode);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    let _ = model.predict(&window);
    obs::clear();
    sink.snapshot()
}

/// Sum of a `perf.*` counter attributed to spans whose name passes `keep`.
fn attributed(events: &[obs::Event], counter: &str, keep: impl Fn(&str) -> bool) -> f64 {
    let mut stacks: std::collections::HashMap<u64, Vec<String>> = std::collections::HashMap::new();
    let mut total = 0.0;
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            Kind::Begin => stack.push(ev.name.to_string()),
            Kind::End => {
                stack.pop();
            }
            Kind::Value => {
                if ev.name == counter && stack.last().map(|s| keep(s)).unwrap_or(false) {
                    total += ev.value;
                }
            }
        }
    }
    total
}

#[test]
fn compiled_steps_stamp_the_work_model() {
    let events = traced_predict(ExecMode::Compiled);
    let rows = obs::roofline_table(&events, &Roofline::default());
    // The BikeCAP plan has no standalone Matmul step — its matmuls are fused
    // inside Conv/ConvT — so the conv family (the pyramid encoder included)
    // plus routing math is the full set.
    for want in [
        "ir.step.conv",
        "ir.step.convt",
        "ir.step.pyramid",
        "ir.step.softmax",
        "ir.step.squash",
        "ir.step.routing_couple",
        "ir.step.routing_agree",
    ] {
        let row = rows
            .iter()
            .find(|r| r.name == want)
            .unwrap_or_else(|| panic!("no roofline row for {want}"));
        assert!(row.gflop > 0.0, "{want}: zero flops");
        assert!(row.gbyte > 0.0, "{want}: zero bytes");
        assert!(row.intensity > 0.0, "{want}: zero intensity");
    }
}

#[test]
fn eager_and_compiled_agree_on_conv_work() {
    let eager = traced_predict(ExecMode::Eager);
    let compiled = traced_predict(ExecMode::Compiled);

    // Eager stamps conv work inside nn.conv3d/nn.pyramid/nn.deconv3d and the
    // routing transform span; compiled stamps it on ir.step.conv /
    // ir.step.convt / ir.step.pyramid. Both sides model the pyramid encoder
    // with the same active-tap Work::pyramid_conv, but the decompositions
    // still differ (the routing transform is modelled as a conv on the eager
    // side), so the totals agree to a small factor rather than bitwise — the
    // ratio window below catches a path that stops stamping or double-counts
    // wholesale.
    let eager_flops = attributed(&eager, "perf.flops", |_| true);
    let compiled_flops = attributed(&compiled, "perf.flops", |_| true);
    assert!(eager_flops > 0.0, "eager path stamped no flops");
    assert!(compiled_flops > 0.0, "compiled path stamped no flops");
    // Eager additionally stamps softmax/squash inside routing iterations the
    // compiled plan fuses identically, so conv-family work is the equality
    // we can pin tightly.
    let eager_conv = attributed(&eager, "perf.flops", |s| {
        s.starts_with("nn.conv3d") || s.starts_with("nn.pyramid") || s.starts_with("nn.deconv3d")
    });
    let compiled_conv = attributed(&compiled, "perf.flops", |s| {
        s == "ir.step.conv" || s == "ir.step.convt" || s == "ir.step.pyramid"
    });
    assert!(eager_conv > 0.0 && compiled_conv > 0.0, "conv work missing");
    let ratio = eager_conv / compiled_conv;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "conv work models diverged: eager {eager_conv} vs compiled {compiled_conv}"
    );
}
