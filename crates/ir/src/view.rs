//! Read-only structural view of a compiled [`ModelPlan`].
//!
//! The planner bakes dispatch geometry into private [`Step`] variants; the
//! verifier (bikecap-verify) must not reach into those internals, and it
//! must be able to check invariants *independently* of the code that
//! constructed them. This module projects a plan into a plain-data
//! [`PlanView`]: a slab table with virtual arena offsets, per-step read and
//! write accesses with extents recomputed from the baked geometry wherever
//! the geometry determines them, and the planner's recorded free-list
//! recycling schedule.
//!
//! Extents marked `derived` are recomputed from dispatch geometry
//! (matmul `m/k/n`, convolution output dims, reduce/permute and routing
//! plans) rather
//! than read back from the slab table, so a corrupted slab length is
//! caught by comparison instead of being believed. Steps whose kernels
//! only promise "input and output have the same length" (`map`, `scale`,
//! `softmax`, …) get *cross-tied* extents: the read extent is frozen from
//! the output slab's length at view-build time and vice versa, so shrinking
//! either slab breaks the equality.

use bikecap_tensor::conv::conv3d_out_dims;

use crate::plan::{ModelPlan, Src, Step};

/// What an arena slab holds across executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabRole {
    /// Staged runtime input; prefilled every execution, never recycled.
    Input,
    /// Captured constant; prefilled once per arena, never recycled.
    Const,
    /// Intermediate buffer; recycled through the exact-size free list.
    Working,
}

/// One arena slab with its virtual placement.
#[derive(Debug, Clone)]
pub struct SlabView {
    /// Virtual arena offset in scalars (prefix sum over slab lengths; the
    /// executor stores slabs as separate vectors, but disjointness is a
    /// property of this canonical packing).
    pub offset: usize,
    /// Element count.
    pub len: usize,
    pub role: SlabRole,
}

/// One slab access (read or write) by a step.
#[derive(Debug, Clone)]
pub struct AccessView {
    pub slot: usize,
    /// Scalars the kernel touches, starting at the slab's base.
    pub extent: usize,
    /// `true` when the extent was recomputed from baked dispatch geometry
    /// (or cross-tied from the counterpart slab's length), `false` when it
    /// could only be copied from the slab table itself.
    pub derived: bool,
    /// Scratch written and consumed inside the same step (conv im2col et
    /// al.); exempt from the every-value-has-a-reader rule.
    pub scratch: bool,
}

/// One scheduled step, reduced to its memory behaviour.
#[derive(Debug, Clone)]
pub struct StepView {
    /// Kernel family, for diagnostics.
    pub op: &'static str,
    /// Slab operands (parameters read from the store are counted, not
    /// listed — they live outside the arena).
    pub reads: Vec<AccessView>,
    /// Output first, then scratch.
    pub writes: Vec<AccessView>,
    /// Operands resolved live from the parameter store.
    pub param_reads: usize,
}

/// Plain-data projection of a compiled plan; everything bikecap-verify
/// needs, nothing it could accidentally trust.
#[derive(Debug, Clone)]
pub struct PlanView {
    pub slabs: Vec<SlabView>,
    pub steps: Vec<StepView>,
    /// Free-list recycling schedule: `(free_from, slot)` — the planner let
    /// steps with index `>= free_from` reuse the slab.
    pub releases: Vec<(usize, usize)>,
    /// `(slot, numel)` of each constant prefill.
    pub consts: Vec<(usize, usize)>,
    pub input_slot: usize,
    pub input_len: usize,
    pub output_slot: usize,
    pub output_len: usize,
    /// Total virtual arena extent in scalars.
    pub arena_len: usize,
}

impl ModelPlan {
    /// Projects the plan into a [`PlanView`] for verification.
    pub fn view(&self) -> PlanView {
        let mut roles = vec![SlabRole::Working; self.slabs.len()];
        roles[self.input_slot] = SlabRole::Input;
        for (slot, _) in &self.consts {
            roles[*slot] = SlabRole::Const;
        }
        let mut offset = 0;
        let slabs: Vec<SlabView> = self
            .slabs
            .iter()
            .zip(roles)
            .map(|(&len, role)| {
                let s = SlabView { offset, len, role };
                offset += len;
                s
            })
            .collect();
        let steps = self.steps.iter().map(|s| step_view(s, &self.slabs)).collect();
        PlanView {
            slabs,
            steps,
            releases: self.releases.clone(),
            consts: self
                .consts
                .iter()
                .map(|(slot, t)| (*slot, t.len()))
                .collect(),
            input_slot: self.input_slot,
            input_len: self.input_len,
            output_slot: self.output_slot,
            output_len: self.output_len,
            arena_len: offset,
        }
    }
}

fn derived(slot: usize, extent: usize) -> AccessView {
    AccessView { slot, extent, derived: true, scratch: false }
}

fn scratch(slot: usize, extent: usize) -> AccessView {
    AccessView { slot, extent, derived: true, scratch: true }
}

fn tied(slot: usize, slabs: &[usize]) -> AccessView {
    AccessView { slot, extent: slabs[slot], derived: false, scratch: false }
}

/// Builds the view of one step. `reads`/`param_reads` collect slab and
/// parameter operands respectively; geometry-determined extents are
/// recomputed here rather than copied from the slab table.
fn step_view(step: &Step, slabs: &[usize]) -> StepView {
    let mut reads = Vec::new();
    let mut param_reads = 0;
    let mut read = |src: &Src, access: Option<AccessView>| match (src, access) {
        (Src::Slot(slot), Some(mut a)) => {
            a.slot = *slot;
            reads.push(a);
        }
        (Src::Slot(slot), None) => reads.push(tied(*slot, slabs)),
        (Src::Param(_), _) => param_reads += 1,
    };
    let (op, writes) = match step {
        Step::Zip { plan, a, b, out, .. } => {
            read(a, None);
            read(b, None);
            ("zip", vec![derived(*out, plan.len())])
        }
        Step::BiasRelu { plan, a, b, out } => {
            read(a, None);
            read(b, None);
            ("bias_relu", vec![derived(*out, plan.len())])
        }
        // Same-length kernels: cross-tie the extents so shrinking either
        // slab breaks the equality (`0` slots are patched by `read`).
        Step::Map { src, out, .. } => {
            read(src, Some(derived(0, slabs[*out])));
            ("map", vec![same_len_write(src, *out, slabs)])
        }
        Step::AddScalar { src, out, .. } => {
            read(src, Some(derived(0, slabs[*out])));
            ("add_scalar", vec![same_len_write(src, *out, slabs)])
        }
        Step::Scale { src, out, .. } => {
            read(src, Some(derived(0, slabs[*out])));
            ("scale", vec![same_len_write(src, *out, slabs)])
        }
        Step::Softmax { src, out, .. } => {
            read(src, Some(derived(0, slabs[*out])));
            ("softmax", vec![same_len_write(src, *out, slabs)])
        }
        Step::Matmul { a, b, m, k, n, out } => {
            read(a, Some(derived(0, m * k)));
            read(b, Some(derived(0, k * n)));
            ("matmul", vec![derived(*out, m * n)])
        }
        Step::Reduce { plan, src, out } => {
            read(src, Some(derived(0, plan.in_len())));
            ("reduce", vec![derived(*out, plan.len())])
        }
        Step::Permute { plan, src, out } => {
            read(src, Some(derived(0, plan.len())));
            ("permute", vec![derived(*out, plan.len())])
        }
        Step::Concat { outer, parts, total, out } => {
            for (src, rows) in parts {
                read(src, Some(derived(0, outer * rows)));
            }
            ("concat", vec![derived(*out, outer * total)])
        }
        Step::Narrow { outer, inner, extent, len, src, out, .. } => {
            read(src, Some(derived(0, outer * extent * inner)));
            ("narrow", vec![derived(*out, outer * len * inner)])
        }
        Step::Squash { outer, dk, inner, src, out } => {
            let n = outer * dk * inner;
            read(src, Some(derived(0, n)));
            ("squash", vec![derived(*out, n)])
        }
        Step::RoutingCouple { plan, v, k, out } => {
            read(v, Some(derived(0, plan.v_len())));
            read(k, Some(derived(0, plan.logits_len())));
            ("routing_couple", vec![derived(*out, plan.capsules_len())])
        }
        Step::RoutingAgree { plan, v, s, logits, out } => {
            read(v, Some(derived(0, plan.v_len())));
            read(s, Some(derived(0, plan.capsules_len())));
            read(logits, Some(derived(0, plan.logits_len())));
            ("routing_agree", vec![derived(*out, plan.logits_len())])
        }
        Step::Conv { x, w, col, wt, mat, out, dims, kernel, spec, c_out } => {
            let k = dims.1 * kernel.0 * kernel.1 * kernel.2;
            let (od, oh, ow) = conv3d_out_dims((dims.2, dims.3, dims.4), *kernel, *spec);
            let rows = dims.0 * od * oh * ow;
            read(x, Some(derived(0, dims.0 * dims.1 * dims.2 * dims.3 * dims.4)));
            read(w, Some(derived(0, c_out * k)));
            (
                "conv",
                vec![
                    derived(*out, rows * c_out),
                    scratch(*col, rows * k),
                    scratch(*wt, k * c_out),
                    scratch(*mat, rows * c_out),
                ],
            )
        }
        Step::ConvT { x, w, pos, col, out, n, c_in, c_out, p, kernel, out_dims, .. } => {
            let k = c_out * kernel.0 * kernel.1 * kernel.2;
            read(x, Some(derived(0, n * c_in * p)));
            read(w, Some(derived(0, c_in * k)));
            (
                "conv_t",
                vec![
                    derived(*out, n * c_out * out_dims.0 * out_dims.1 * out_dims.2),
                    scratch(*pos, n * p * c_in),
                    scratch(*col, n * p * k),
                ],
            )
        }
    };
    StepView { op, reads, writes, param_reads }
}

/// Write access for a same-length kernel: extent frozen from the *source*
/// slab's length when the source lives in the arena (cross-tie), else tied
/// to the output slab itself (parameter sources have no slab to tie to).
fn same_len_write(src: &Src, out: usize, slabs: &[usize]) -> AccessView {
    match src {
        Src::Slot(s) => derived(out, slabs[*s]),
        Src::Param(_) => tied(out, slabs),
    }
}

#[cfg(test)]
mod tests {
    use bikecap_autograd::Tape;
    use bikecap_tensor::Tensor;

    use crate::plan::{CompileOptions, ModelPlan};
    use crate::Graph;

    use super::*;

    fn small_plan() -> ModelPlan {
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::zeros(&[4, 4]));
        let a = tape.add_scalar(x, 1.0);
        let b = tape.relu(a);
        let c = tape.scale(b, 2.0);
        let w = tape.constant(Tensor::full(&[4, 2], 0.5));
        let y = tape.matmul(c, w);
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        ModelPlan::compile(graph, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn view_packs_slabs_contiguously() {
        let view = small_plan().view();
        let mut offset = 0;
        for slab in &view.slabs {
            assert_eq!(slab.offset, offset);
            offset += slab.len;
        }
        assert_eq!(offset, view.arena_len);
        assert_eq!(view.slabs[view.input_slot].role, SlabRole::Input);
        assert_eq!(view.slabs[view.input_slot].len, view.input_len);
        assert_eq!(view.slabs[view.output_slot].len, view.output_len);
    }

    #[test]
    fn view_extents_match_slab_lengths() {
        let view = small_plan().view();
        for step in &view.steps {
            for a in step.reads.iter().chain(&step.writes) {
                assert_eq!(
                    a.extent, view.slabs[a.slot].len,
                    "{}: slot {} extent mismatch",
                    step.op, a.slot
                );
            }
        }
    }

    #[test]
    fn chain_reuse_is_recorded_as_releases() {
        let view = small_plan().view();
        // add_scalar -> relu -> scale reuses slabs; each hand-off appears in
        // the recycling schedule, in nondecreasing free_from order.
        assert!(!view.releases.is_empty());
        for pair in view.releases.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        for &(free_from, slot) in &view.releases {
            assert!(free_from <= view.steps.len());
            assert_eq!(view.slabs[slot].role, SlabRole::Working);
        }
    }
}
