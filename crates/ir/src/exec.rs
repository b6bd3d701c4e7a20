//! Executing a compiled [`ModelPlan`] against a reusable [`Arena`].
//!
//! The executor is a backend behind the [`Executor`] trait so alternative
//! implementations (quantized, accelerator-offloaded) can slot in without
//! touching the planner. The default [`CpuExecutor`] dispatches every step
//! to the shared `*_into` kernels in [`bikecap_tensor::exec`] — the *same*
//! function bodies the eager tensor methods call — so compiled results are
//! bitwise identical to the eager tape walk by construction, at any
//! `bikecap-rt` thread count.
//!
//! Steady-state execution performs **zero heap allocations**: operands are
//! read straight out of arena slabs (or the parameter store), the output
//! slab is detached with `mem::take` (a pointer move, not a copy) to satisfy
//! the borrow checker, and every dispatch plan was baked at compile time.

use std::mem;
use std::sync::Arc;

use bikecap_autograd::ParamStore;
use bikecap_quant::QuantSet;
use bikecap_tensor::exec::{
    conv3d_dx_into, conv3d_into, fused_squash_into, map_into, matmul_into, permute_into,
    pyramid_conv_into, reduce_sum_into, routing_agree_into, routing_couple_into,
    softmax_trailing_into, zip_planned_into,
};

use crate::error::IrError;
use crate::graph::{MapOp, ZipOp};
use crate::plan::{ModelPlan, Src, Step};

/// The preallocated buffer pool one execution runs over. Arenas are tied to
/// the plan that shaped them; reuse one arena across many executions of the
/// same plan (constants stay prefilled, slabs keep their sizes).
#[derive(Debug)]
pub struct Arena {
    pub(crate) slabs: Vec<Vec<f32>>,
}

impl Arena {
    /// Allocates every slab the plan needs and prefills the captured
    /// constants. This is the *only* allocating part of the compiled path;
    /// callers pool arenas to amortise it away.
    pub fn for_plan(plan: &ModelPlan) -> Arena {
        let mut slabs: Vec<Vec<f32>> = plan.slabs.iter().map(|&len| vec![0.0; len]).collect();
        for (slot, value) in &plan.consts {
            slabs[*slot].copy_from_slice(value.as_slice());
        }
        Arena { slabs }
    }

    /// True when this arena's slab sizes match `plan` (a cheap sanity check
    /// for pooled arenas).
    pub fn fits(&self, plan: &ModelPlan) -> bool {
        self.slabs.len() == plan.slabs.len()
            && self.slabs.iter().zip(&plan.slabs).all(|(s, &len)| s.len() == len)
    }
}

/// A backend that can run a compiled plan. Implementations must preserve
/// the bitwise-identity contract with the eager tape walk.
pub trait Executor {
    /// Stable backend name (surfaced in telemetry and serving status).
    fn name(&self) -> &'static str;

    /// Runs the schedule: copies `input` in, executes every step, copies the
    /// result into `out`.
    ///
    /// # Errors
    ///
    /// [`IrError::Exec`] on length/arena mismatches; [`IrError::Injected`]
    /// when the `ir.exec.step` failpoint fires. The arena is left consistent
    /// (no slab is lost) on every error path.
    fn execute(
        &self,
        plan: &ModelPlan,
        store: &ParamStore,
        input: &[f32],
        arena: &mut Arena,
        out: &mut [f32],
    ) -> Result<(), IrError>;
}

/// The reference CPU backend over the shared `bikecap-tensor` kernels.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuExecutor;

impl Executor for CpuExecutor {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn execute(
        &self,
        plan: &ModelPlan,
        store: &ParamStore,
        input: &[f32],
        arena: &mut Arena,
        out: &mut [f32],
    ) -> Result<(), IrError> {
        execute_with(plan, store, input, arena, out, None)
    }
}

/// The quantized CPU backend: identical schedule and kernels to
/// [`CpuExecutor`] except that matmul/conv steps whose weight operand is a
/// parameter registered in the [`QuantSet`] dispatch through the
/// `bikecap-quant` kernel bodies. The eager tape consults the same set by
/// the same parameter ids (see `bikecap_autograd::ForwardOverride`), which
/// preserves the eager ≡ compiled bitwise contract on the quantized path.
/// Pyramid steps run the f32 body over the store's dequantized shadow,
/// exactly as the eager tape does.
#[derive(Debug, Clone)]
pub struct QuantExecutor {
    set: Arc<QuantSet>,
}

impl QuantExecutor {
    /// A backend dispatching the given quantization table.
    pub fn new(set: Arc<QuantSet>) -> QuantExecutor {
        QuantExecutor { set }
    }
}

impl Executor for QuantExecutor {
    fn name(&self) -> &'static str {
        "cpu-q8"
    }

    fn execute(
        &self,
        plan: &ModelPlan,
        store: &ParamStore,
        input: &[f32],
        arena: &mut Arena,
        out: &mut [f32],
    ) -> Result<(), IrError> {
        execute_with(plan, store, input, arena, out, Some(&self.set))
    }
}

/// The shared schedule walk behind both backends.
fn execute_with(
    plan: &ModelPlan,
    store: &ParamStore,
    input: &[f32],
    arena: &mut Arena,
    out: &mut [f32],
    quant: Option<&QuantSet>,
) -> Result<(), IrError> {
    let _span = bikecap_obs::span("ir.exec");
    if input.len() != plan.input_len {
        return Err(length_mismatch("input", input.len(), plan.input_len));
    }
    if out.len() != plan.output_len {
        return Err(length_mismatch("output buffer", out.len(), plan.output_len));
    }
    if !arena.fits(plan) {
        return Err(IrError::Exec("arena does not match plan".into()));
    }
    arena.slabs[plan.input_slot].copy_from_slice(input);
    for step in &plan.steps {
        run_step(step, store, arena, quant)?;
    }
    out.copy_from_slice(&arena.slabs[plan.output_slot]);
    Ok(())
}

/// Builds a length-mismatch error off the execution path: the `format!`
/// allocates, which the no-alloc-in-hot-path lint forbids inside `execute`
/// itself, and an error return is already the slow path.
#[cold]
fn length_mismatch(what: &str, got: usize, want: usize) -> IrError {
    IrError::Exec(format!("{what} has {got} scalars, plan expects {want}"))
}

/// Resolves a step operand to its backing scalars.
fn fetch<'a>(arena: &'a Arena, store: &'a ParamStore, src: &Src) -> &'a [f32] {
    match src {
        Src::Slot(slot) => &arena.slabs[*slot],
        Src::Param(id) => store.value(*id).as_slice(),
    }
}

/// The quantized weight a matmul step dispatches, when quantized execution
/// is active, the `b` operand is a parameter in the table, and its
/// transposed geometry matches the step's baked extents (a mismatch falls
/// back to the f32 shadow rather than erroring — the shadow is always
/// present and correct).
fn quant_matmul_weight<'a>(
    quant: Option<&'a QuantSet>,
    b: &Src,
    k: usize,
    n: usize,
) -> Option<&'a bikecap_quant::Q8Tensor> {
    let Src::Param(id) = b else { return None };
    let q = quant?.q8(*id)?;
    (q.transposed() && q.k() == k && q.rows() == n).then_some(q)
}

/// The quantized weight a conv step dispatches, mirroring
/// [`quant_matmul_weight`] for natural-layout (per-output-channel) rows.
fn quant_conv_weight<'a>(
    quant: Option<&'a QuantSet>,
    w: &Src,
    k: usize,
    c_out: usize,
) -> Option<&'a bikecap_quant::Q8Tensor> {
    let Src::Param(id) = w else { return None };
    let q = quant?.q8(*id)?;
    (!q.transposed() && q.k() == k && q.rows() == c_out).then_some(q)
}

/// Static span name for a step — one per kind, so the tracing hot path never
/// formats or allocates.
fn step_name(step: &Step) -> &'static str {
    match step {
        Step::Zip { .. } => "ir.step.zip",
        Step::Map { .. } => "ir.step.map",
        Step::AddScalar { .. } => "ir.step.add_scalar",
        Step::Scale { .. } => "ir.step.scale",
        Step::Matmul { .. } => "ir.step.matmul",
        Step::Reduce { .. } => "ir.step.reduce",
        Step::Permute { .. } => "ir.step.permute",
        Step::Concat { .. } => "ir.step.concat",
        Step::Narrow { .. } => "ir.step.narrow",
        Step::Softmax { .. } => "ir.step.softmax",
        Step::Conv { .. } => "ir.step.conv",
        Step::ConvT { .. } => "ir.step.convt",
        Step::Pyramid { .. } => "ir.step.pyramid",
        Step::Squash { .. } => "ir.step.squash",
        Step::BiasRelu { .. } => "ir.step.bias_relu",
        Step::RoutingCouple { .. } => "ir.step.routing_couple",
        Step::RoutingAgree { .. } => "ir.step.routing_agree",
    }
}

/// Stamps the analytic work model (`perf.flops` / `perf.bytes`) for the
/// current step from its baked geometry. Only called while observability is
/// enabled, and only the compute-heavy kinds carry a model — data-movement
/// steps are left to the span timings alone.
#[cold]
fn record_step_work(step: &Step, store: &ParamStore, arena: &Arena, quant: Option<&QuantSet>) {
    use bikecap_obs::Work;
    match step {
        Step::Matmul { b, m, k, n, .. } => {
            if quant_matmul_weight(quant, b, *k, *n).is_some() {
                Work::matmul_q8(*m, *k, *n).record();
            } else {
                Work::matmul(*m, *k, *n).record();
            }
        }
        Step::Softmax { inner, src, .. } => {
            let len = fetch(arena, store, src).len();
            Work::softmax(len / inner.max(&1), *inner).record();
        }
        Step::Conv { plan, w, .. } => {
            let (b, c_in, c_out) = (plan.batch(), plan.c_in(), plan.c_out());
            let (dims, out, kernel) = (plan.in_dims(), plan.out_dims(), plan.kernel());
            if quant_conv_weight(quant, w, plan.patch_len(), c_out).is_some() {
                Work::conv3d_q8(b, c_in, c_out, dims, out, kernel).record();
            } else {
                Work::conv3d(b, c_in, c_out, dims, out, kernel).record();
            }
        }
        // The transposed conv runs `plan` backwards: its input is the
        // plan's output and vice versa.
        Step::ConvT { plan, .. } => Work::conv_transpose3d(
            plan.batch(),
            plan.c_out(),
            plan.c_in(),
            plan.out_dims(),
            plan.in_dims(),
            plan.kernel(),
        )
        .record(),
        Step::Pyramid { plan, .. } => Work::pyramid_conv(
            plan.batch(),
            plan.c_in(),
            plan.c_out(),
            plan.dims(),
            plan.pyramid_size(),
        )
        .record(),
        Step::Squash {
            outer, dk, inner, ..
        } => Work::squash(outer * inner, *dk).record(),
        Step::RoutingCouple { plan, .. } => Work::routing_couple(
            plan.batch(),
            plan.slots(),
            plan.horizon(),
            plan.dim(),
            plan.cells(),
        )
        .record(),
        Step::RoutingAgree { plan, .. } => Work::routing_agree(
            plan.batch(),
            plan.slots(),
            plan.horizon(),
            plan.dim(),
            plan.cells(),
        )
        .record(),
        _ => {}
    }
}

/// Dispatches one baked step. The output slab is detached
/// with `mem::take` so operand slabs can be borrowed immutably alongside it;
/// the failpoint is checked *before* any take so error paths leave the arena
/// whole.
fn run_step(
    step: &Step,
    store: &ParamStore,
    arena: &mut Arena,
    quant: Option<&QuantSet>,
) -> Result<(), IrError> {
    if let Some(fault) = bikecap_faults::hit("ir.exec.step") {
        return Err(IrError::Injected(fault));
    }
    // Per-step kernel span (static names — the hot path stays alloc-free)
    // stamped with the analytic work model from the step's baked geometry,
    // so `bikecap profile` rooflines the compiled path per step kind. One
    // relaxed atomic load each while observability is off.
    let _step_span = bikecap_obs::span(step_name(step));
    if bikecap_obs::enabled() {
        record_step_work(step, store, arena, quant);
    }
    match step {
        Step::Zip { op, plan, a, b, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            let av = fetch(arena, store, a);
            let bv = fetch(arena, store, b);
            match op {
                ZipOp::Add => zip_planned_into(plan, av, bv, &mut o, |x, y| x + y),
                ZipOp::Sub => zip_planned_into(plan, av, bv, &mut o, |x, y| x - y),
                ZipOp::Mul => zip_planned_into(plan, av, bv, &mut o, |x, y| x * y),
                ZipOp::Div => zip_planned_into(plan, av, bv, &mut o, |x, y| x / y),
            }
            arena.slabs[*out] = o;
        }
        Step::Map { op, src, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            let s = fetch(arena, store, src);
            // Exactly the closures behind the eager Tensor/Tape methods.
            match op {
                MapOp::Neg => map_into(s, &mut o, |v| -v),
                MapOp::Abs => map_into(s, &mut o, f32::abs),
                MapOp::Relu => map_into(s, &mut o, |v| 0.5 * (v + v.abs())),
                MapOp::Sigmoid => map_into(s, &mut o, |v| 1.0 / (1.0 + (-v).exp())),
                MapOp::Tanh => map_into(s, &mut o, f32::tanh),
                MapOp::Exp => map_into(s, &mut o, f32::exp),
                MapOp::Square => map_into(s, &mut o, |v| v * v),
                MapOp::Sqrt => map_into(s, &mut o, f32::sqrt),
            }
            arena.slabs[*out] = o;
        }
        Step::AddScalar { s, src, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            map_into(fetch(arena, store, src), &mut o, |v| v + s);
            arena.slabs[*out] = o;
        }
        Step::Scale { s, src, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            map_into(fetch(arena, store, src), &mut o, |v| v * s);
            arena.slabs[*out] = o;
        }
        Step::Matmul { a, b, m, k, n, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            if let Some(q) = quant_matmul_weight(quant, b, *k, *n) {
                bikecap_quant::matmul_q8_into(fetch(arena, store, a), q, *m, *k, *n, &mut o);
            } else {
                matmul_into(
                    fetch(arena, store, a),
                    fetch(arena, store, b),
                    *m,
                    *k,
                    *n,
                    &mut o,
                );
            }
            arena.slabs[*out] = o;
        }
        Step::Reduce { plan, src, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            reduce_sum_into(plan, fetch(arena, store, src), &mut o);
            arena.slabs[*out] = o;
        }
        Step::Permute { plan, src, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            permute_into(plan, fetch(arena, store, src), &mut o);
            arena.slabs[*out] = o;
        }
        Step::Concat {
            outer,
            parts,
            total,
            out,
        } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            for oi in 0..*outer {
                let mut off = oi * total;
                for (src, rows) in parts {
                    let s = fetch(arena, store, src);
                    o[off..off + rows].copy_from_slice(&s[oi * rows..(oi + 1) * rows]);
                    off += rows;
                }
            }
            arena.slabs[*out] = o;
        }
        Step::Narrow {
            outer,
            inner,
            extent,
            start,
            len,
            src,
            out,
        } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            let s = fetch(arena, store, src);
            let kept = len * inner;
            for oi in 0..*outer {
                let from = oi * extent * inner + start * inner;
                o[oi * kept..(oi + 1) * kept].copy_from_slice(&s[from..from + kept]);
            }
            arena.slabs[*out] = o;
        }
        Step::Softmax { inner, src, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            softmax_trailing_into(fetch(arena, store, src), *inner, &mut o);
            arena.slabs[*out] = o;
        }
        Step::Conv { plan, x, w, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            let xs = fetch(arena, store, x);
            if let Some(q) = quant_conv_weight(quant, w, plan.patch_len(), plan.c_out()) {
                // Quantized path: the same plan, the block-quantized body.
                bikecap_quant::conv3d_q8_into(plan, xs, q, &mut o);
            } else {
                conv3d_into(plan, xs, fetch(arena, store, w), &mut o);
            }
            arena.slabs[*out] = o;
        }
        Step::ConvT { plan, x, w, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            conv3d_dx_into(plan, fetch(arena, store, x), fetch(arena, store, w), &mut o);
            arena.slabs[*out] = o;
        }
        Step::Pyramid { plan, x, w, out } => {
            // Both backends run the f32 body: on the quantized path the
            // store holds the dequantized shadow of the pyramid weight.
            let mut o = mem::take(&mut arena.slabs[*out]);
            pyramid_conv_into(plan, fetch(arena, store, x), fetch(arena, store, w), &mut o);
            arena.slabs[*out] = o;
        }
        Step::Squash {
            outer,
            dk,
            inner,
            src,
            out,
        } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            fused_squash_into(fetch(arena, store, src), *outer, *dk, *inner, &mut o);
            arena.slabs[*out] = o;
        }
        Step::BiasRelu { plan, a, b, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            let av = fetch(arena, store, a);
            let bv = fetch(arena, store, b);
            // add-then-relu with the intermediate kept in-register: the same
            // two rounding steps the eager pair performs.
            zip_planned_into(plan, av, bv, &mut o, |x, y| {
                let t = x + y;
                0.5 * (t + t.abs())
            });
            arena.slabs[*out] = o;
        }
        Step::RoutingCouple { plan, v, k, out } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            routing_couple_into(plan, fetch(arena, store, v), fetch(arena, store, k), &mut o);
            arena.slabs[*out] = o;
        }
        Step::RoutingAgree {
            plan,
            v,
            s,
            logits,
            out,
        } => {
            let mut o = mem::take(&mut arena.slabs[*out]);
            routing_agree_into(
                plan,
                fetch(arena, store, v),
                fetch(arena, store, s),
                fetch(arena, store, logits),
                &mut o,
            );
            arena.slabs[*out] = o;
        }
    }
    Ok(())
}
