//! Static verifier for compiled BikeCAP plans.
//!
//! The planner in bikecap-ir *constructs* its invariants by careful code:
//! output slabs are claimed before operands are released, `Reshape` only
//! transfers refcounts, `Input`/`Const` slabs are never recycled, and every
//! baked extent matches the exact-size slab it targets. ROADMAP items 1
//! (SIMD kernels) and 3 (quantized blocks) are about to make the cost of a
//! silent aliasing bug much higher, so this crate *proves* those properties
//! per plan instead of trusting the construction:
//!
//! * **slab disjointness** ([`Invariant::SlabOverlap`]) — no two
//!   simultaneously-live buffers overlap: a spatial interval sweep over the
//!   canonical packing, plus a temporal replay that rejects any write into
//!   a slab whose previous value still has pending readers;
//! * **refcount balance** ([`Invariant::RefcountBalance`]) — replaying the
//!   planner's recorded free-list schedule, every working slab's consumer
//!   count reaches exactly zero (released exactly once per occupation, no
//!   use-after-release, no reuse-before-release), and `Input`/`Const`
//!   slabs are never recycled;
//! * **bounds** ([`Invariant::Bounds`]) — every step's read/write extent
//!   fits (and, per the exact-size free-list contract, equals) its slab
//!   allocation for the staged shape;
//! * **schedule validity** ([`Invariant::Schedule`]) — topological order is
//!   respected (no read before the producing write), the output is written
//!   and still live at the end, and no step writes an input/const slab.
//!
//! Verification happens on [`PlanView`] — a plain-data projection with
//! extents recomputed from the baked dispatch geometry — so the verifier
//! shares no construction logic with the planner it checks. The
//! [`mutate`] module corrupts valid views with seeded single-field edits
//! (offset swap, dropped release, shrunk extent) to prove the verifier
//! actually rejects broken plans, not just accepts good ones.
//!
//! Wire-up: `BIKECAP_VERIFY=strict|warn|off` gates plan-build-time
//! verification in bikecap-core (see [`VerifyMode`]), the
//! `bikecap-check verify-plans` subcommand sweeps the EXPERIMENTS.md grid,
//! and every verification emits an `ir.verify.plan` span plus
//! `ir.verify.pass` / `ir.verify.violations` values through bikecap-obs.

pub mod mutate;

use std::fmt;

use bikecap_ir::{ModelPlan, PlanView, SlabRole};

/// How plan-build-time verification behaves (`BIKECAP_VERIFY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Verify every compiled plan; a violation rejects the plan and the
    /// model falls back to the eager tape walk for that shape.
    Strict,
    /// Verify every compiled plan; violations are reported through
    /// bikecap-obs but the plan is still used (the default).
    Warn,
    /// Skip verification entirely.
    Off,
}

impl VerifyMode {
    /// Reads `BIKECAP_VERIFY` (`strict` / `warn` / `off`, case-insensitive);
    /// unset or unrecognised values fall back to [`VerifyMode::Warn`].
    pub fn from_env() -> VerifyMode {
        match std::env::var("BIKECAP_VERIFY") {
            Ok(v) if v.eq_ignore_ascii_case("strict") => VerifyMode::Strict,
            Ok(v) if v.eq_ignore_ascii_case("off") => VerifyMode::Off,
            _ => VerifyMode::Warn,
        }
    }

    /// Lower-case mode name, as reported by `/healthz`.
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Strict => "strict",
            VerifyMode::Warn => "warn",
            VerifyMode::Off => "off",
        }
    }
}

/// The invariant class a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Two simultaneously-live buffers overlap (spatially or temporally).
    SlabOverlap,
    /// A consumer count fails to reach exactly zero: dropped/double
    /// release, use-after-release, reuse-before-release, or a recycled
    /// input/const slab.
    RefcountBalance,
    /// An access extent does not fit its slab, or a slab escapes the arena.
    Bounds,
    /// The schedule itself is malformed: read before producing write,
    /// missing output write, or a write into an input/const slab.
    Schedule,
}

impl Invariant {
    /// Stable lower-kebab name, used in reports and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::SlabOverlap => "slab-overlap",
            Invariant::RefcountBalance => "refcount-balance",
            Invariant::Bounds => "bounds",
            Invariant::Schedule => "schedule",
        }
    }
}

/// One proven invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub invariant: Invariant,
    /// Step index the violation is anchored to, when one exists.
    pub step: Option<usize>,
    /// Slab slot involved, when one exists.
    pub slot: Option<usize>,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.invariant.name())?;
        if let Some(step) = self.step {
            write!(f, " step {step}")?;
        }
        if let Some(slot) = self.slot {
            write!(f, " slot {slot}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Outcome of verifying one plan.
#[derive(Debug, Clone)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// Schedule size, for timing/telemetry context.
    pub steps: usize,
    pub slabs: usize,
    /// Total read+write accesses checked.
    pub accesses: usize,
}

impl Report {
    /// True when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary suitable for logs.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "ok: {} steps, {} slabs, {} accesses",
                self.steps, self.slabs, self.accesses
            )
        } else {
            format!(
                "{} violation(s) over {} steps / {} slabs",
                self.violations.len(),
                self.steps,
                self.slabs
            )
        }
    }
}

/// Verifies a compiled plan, emitting `ir.verify.*` observability events.
pub fn verify_plan(plan: &ModelPlan) -> Report {
    let _span = bikecap_obs::span("ir.verify.plan");
    let report = verify_view(&plan.view());
    bikecap_obs::value("ir.verify.pass", if report.is_clean() { 1.0 } else { 0.0 });
    if !report.is_clean() {
        bikecap_obs::value("ir.verify.violations", report.violations.len() as f64);
    }
    report
}

/// Verifies a plan view. Pure; no observability side effects, so the
/// mutation harness can hammer it without skewing telemetry.
pub fn verify_view(view: &PlanView) -> Report {
    let mut violations = Vec::new();
    let accesses = view
        .steps
        .iter()
        .map(|s| s.reads.len() + s.writes.len())
        .sum();
    if check_structure(view, &mut violations) {
        check_spatial(view, &mut violations);
        check_bounds(view, &mut violations);
        check_temporal(view, &mut violations);
        check_releases(view, &mut violations);
    }
    Report {
        violations,
        steps: view.steps.len(),
        slabs: view.slabs.len(),
        accesses,
    }
}

/// Index sanity: every slot/step reference must resolve. Returns `false`
/// when the view is too malformed for the deeper checks to run safely.
fn check_structure(view: &PlanView, out: &mut Vec<Violation>) -> bool {
    let n = view.slabs.len();
    let mut ok = true;
    let mut bad_free_from = Vec::new();
    let mut slot_ok = |slot: usize, what: &str, step: Option<usize>| {
        if slot >= n {
            out.push(Violation {
                invariant: Invariant::Schedule,
                step,
                slot: Some(slot),
                message: format!("{what} references slot {slot} but only {n} slabs exist"),
            });
            false
        } else {
            true
        }
    };
    ok &= slot_ok(view.input_slot, "input", None);
    ok &= slot_ok(view.output_slot, "output", None);
    for &(slot, _) in &view.consts {
        ok &= slot_ok(slot, "const prefill", None);
    }
    for (i, step) in view.steps.iter().enumerate() {
        for a in step.reads.iter().chain(&step.writes) {
            ok &= slot_ok(a.slot, step.op, Some(i));
        }
    }
    for &(free_from, slot) in &view.releases {
        ok &= slot_ok(slot, "release", None);
        if free_from > view.steps.len() {
            bad_free_from.push(Violation {
                invariant: Invariant::Schedule,
                step: Some(free_from),
                slot: Some(slot),
                message: format!(
                    "release schedules reuse from step {free_from} but only {} steps exist",
                    view.steps.len()
                ),
            });
            ok = false;
        }
    }
    out.append(&mut bad_free_from);
    ok
}

/// Spatial disjointness: in the canonical packing, slab intervals must not
/// overlap each other or escape the arena.
fn check_spatial(view: &PlanView, out: &mut Vec<Violation>) {
    let mut order: Vec<usize> = (0..view.slabs.len()).collect();
    order.sort_by_key(|&i| (view.slabs[i].offset, view.slabs[i].len));
    for pair in order.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (sa, sb) = (&view.slabs[a], &view.slabs[b]);
        if sa.offset + sa.len > sb.offset {
            out.push(Violation {
                invariant: Invariant::SlabOverlap,
                step: None,
                slot: Some(a),
                message: format!(
                    "slab {a} [{}, {}) overlaps slab {b} [{}, {})",
                    sa.offset,
                    sa.offset + sa.len,
                    sb.offset,
                    sb.offset + sb.len
                ),
            });
        }
    }
    for (i, slab) in view.slabs.iter().enumerate() {
        if slab.offset + slab.len > view.arena_len {
            out.push(Violation {
                invariant: Invariant::SlabOverlap,
                step: None,
                slot: Some(i),
                message: format!(
                    "slab {i} [{}, {}) escapes the arena of {} scalars",
                    slab.offset,
                    slab.offset + slab.len,
                    view.arena_len
                ),
            });
        }
    }
}

/// Bounds: under the exact-size free-list contract every access extent
/// must equal its slab's allocation, and the staged input/output/const
/// lengths must match their slabs.
fn check_bounds(view: &PlanView, out: &mut Vec<Violation>) {
    let mut expect = |slot: usize, extent: usize, what: &str, step: Option<usize>| {
        let len = view.slabs[slot].len;
        if extent != len {
            out.push(Violation {
                invariant: Invariant::Bounds,
                step,
                slot: Some(slot),
                message: format!("{what} extent {extent} != slab allocation {len}"),
            });
        }
    };
    expect(view.input_slot, view.input_len, "staged input", None);
    expect(view.output_slot, view.output_len, "staged output", None);
    for &(slot, numel) in &view.consts {
        expect(slot, numel, "const prefill", None);
    }
    for (i, step) in view.steps.iter().enumerate() {
        for a in &step.reads {
            expect(a.slot, a.extent, &format!("{} read", step.op), Some(i));
        }
        for a in &step.writes {
            expect(a.slot, a.extent, &format!("{} write", step.op), Some(i));
        }
    }
}

/// Temporal liveness from the schedule alone (independent of the recorded
/// releases): no occupation may be clobbered while it still has pending
/// readers, no read may precede the producing write, input/const slabs are
/// never written, every produced value is consumed, and the output survives
/// to the end.
fn check_temporal(view: &PlanView, out: &mut Vec<Violation>) {
    let n = view.slabs.len();
    // Per slot: write steps and read steps, in order.
    let mut writes: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, step) in view.steps.iter().enumerate() {
        for a in &step.reads {
            reads[a.slot].push(i);
        }
        for a in &step.writes {
            writes[a.slot].push(i);
        }
    }
    // The caller reads the output after the last step.
    reads[view.output_slot].push(view.steps.len());

    for slot in 0..n {
        let role = view.slabs[slot].role;
        if role != SlabRole::Working {
            if let Some(&step) = writes[slot].first() {
                out.push(Violation {
                    invariant: Invariant::Schedule,
                    step: Some(step),
                    slot: Some(slot),
                    message: format!("step writes a never-recycled {role:?} slab"),
                });
            }
            continue;
        }
        // Assign each read to the occupation created by the latest write
        // *strictly before* it; reads in the writing step itself see the
        // previous occupation (kernels are not in-place safe).
        let mut last_read = vec![None::<usize>; writes[slot].len()];
        for &r in &reads[slot] {
            let occ = writes[slot].partition_point(|&w| w < r);
            if occ == 0 {
                out.push(Violation {
                    invariant: Invariant::Schedule,
                    step: Some(r),
                    slot: Some(slot),
                    message: "read before any write to this slab".into(),
                });
            } else {
                let prev = &mut last_read[occ - 1];
                *prev = Some(prev.unwrap_or(0).max(r));
            }
        }
        for (occ, win) in writes[slot].windows(2).enumerate() {
            let (born, next) = (win[0], win[1]);
            if last_read[occ].is_some_and(|r| next <= r) {
                out.push(Violation {
                    invariant: Invariant::SlabOverlap,
                    step: Some(next),
                    slot: Some(slot),
                    message: format!(
                        "write clobbers the value from step {born} while it still has a \
                         pending reader at step {}",
                        last_read[occ].unwrap_or(0)
                    ),
                });
            }
        }
        for (occ, &born) in writes[slot].iter().enumerate() {
            if last_read[occ].is_none() {
                out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: Some(born),
                    slot: Some(slot),
                    message: "value produced but never consumed".into(),
                });
            }
        }
        if slot == view.output_slot && writes[slot].is_empty() {
            out.push(Violation {
                invariant: Invariant::Schedule,
                step: None,
                slot: Some(slot),
                message: "output slab is never written".into(),
            });
        }
    }
}

/// Replays the planner's recorded free-list schedule: every working slab
/// occupation must be released exactly once (except the output's final
/// occupation), never used after release, and never rewritten while its
/// previous occupation is still unreleased.
fn check_releases(view: &PlanView, out: &mut Vec<Violation>) {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Untouched,
        Live,
        Released,
    }
    let mut state = vec![State::Untouched; view.slabs.len()];
    let mut releases: Vec<(usize, usize)> = view.releases.clone();
    releases.sort_unstable();
    let mut next = 0usize;
    for step in 0..=view.steps.len() {
        while next < releases.len() && releases[next].0 <= step {
            let (_, slot) = releases[next];
            next += 1;
            if view.slabs[slot].role != SlabRole::Working {
                out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: Some(step),
                    slot: Some(slot),
                    message: format!(
                        "never-recycled {:?} slab released to the free list",
                        view.slabs[slot].role
                    ),
                });
                continue;
            }
            match state[slot] {
                State::Live => state[slot] = State::Released,
                State::Released => out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: Some(step),
                    slot: Some(slot),
                    message: "slab released twice without an intervening write".into(),
                }),
                State::Untouched => out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: Some(step),
                    slot: Some(slot),
                    message: "slab released before it was ever written".into(),
                }),
            }
        }
        let Some(sv) = view.steps.get(step) else { break };
        for a in &sv.reads {
            if state[a.slot] == State::Released {
                out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: Some(step),
                    slot: Some(a.slot),
                    message: "read from a slab already returned to the free list".into(),
                });
            }
        }
        for a in &sv.writes {
            if view.slabs[a.slot].role != SlabRole::Working {
                continue; // reported by check_temporal
            }
            if state[a.slot] == State::Live {
                out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: Some(step),
                    slot: Some(a.slot),
                    message: "slab rewritten while its previous occupation was never \
                              released (dropped release)"
                        .into(),
                });
            }
            state[a.slot] = State::Live;
        }
    }
    for (slot, &s) in state.iter().enumerate() {
        let role = view.slabs[slot].role;
        if role != SlabRole::Working {
            continue;
        }
        if slot == view.output_slot {
            if s == State::Released {
                out.push(Violation {
                    invariant: Invariant::RefcountBalance,
                    step: None,
                    slot: Some(slot),
                    message: "output slab released before the caller reads it".into(),
                });
            }
        } else if s == State::Live {
            out.push(Violation {
                invariant: Invariant::RefcountBalance,
                step: None,
                slot: Some(slot),
                message: "slab still holds an unreleased value at end of schedule \
                          (dropped release)"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use bikecap_autograd::Tape;
    use bikecap_ir::{CompileOptions, Graph, ModelPlan};
    use bikecap_tensor::conv::Conv3dSpec;
    use bikecap_tensor::Tensor;

    use super::*;

    fn compile(build: impl FnOnce(&mut Tape) -> (bikecap_autograd::Var, bikecap_autograd::Var)) -> ModelPlan {
        let mut tape = Tape::traced();
        let (x, y) = build(&mut tape);
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        ModelPlan::compile(graph, &CompileOptions::default()).unwrap()
    }

    fn chain_plan() -> ModelPlan {
        compile(|tape| {
            let x = tape.constant(Tensor::zeros(&[4, 4]));
            let a = tape.add_scalar(x, 1.0);
            let b = tape.relu(a);
            let c = tape.scale(b, 2.0);
            let w = tape.constant(Tensor::full(&[4, 2], 0.5));
            let y = tape.matmul(c, w);
            (x, y)
        })
    }

    fn conv_plan() -> ModelPlan {
        compile(|tape| {
            let x = tape.constant(Tensor::zeros(&[1, 2, 2, 4, 4]));
            let w = tape.constant(Tensor::full(&[3, 2, 3, 3, 3], 0.1));
            let c = tape.conv3d(x, w, Conv3dSpec::padded(1, 1, 1));
            let s = tape.squash(c, 1);
            (x, s)
        })
    }

    #[test]
    fn planner_output_verifies_clean() {
        for plan in [chain_plan(), conv_plan()] {
            let report = verify_plan(&plan);
            assert!(report.is_clean(), "{:#?}", report.violations);
            assert_eq!(report.steps, plan.num_steps());
            assert_eq!(report.slabs, plan.num_slabs());
            assert!(report.accesses > 0);
        }
    }

    #[test]
    fn overlapping_slabs_are_rejected() {
        let mut view = chain_plan().view();
        // Slide every slab to offset 0: maximal spatial aliasing.
        for slab in &mut view.slabs {
            slab.offset = 0;
        }
        let report = verify_view(&view);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::SlabOverlap));
    }

    #[test]
    fn dropped_release_is_rejected() {
        let mut view = chain_plan().view();
        assert!(!view.releases.is_empty(), "chain must recycle at least one slab");
        view.releases.remove(0);
        let report = verify_view(&view);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::RefcountBalance));
    }

    #[test]
    fn shrunk_slab_is_rejected() {
        let mut view = conv_plan().view();
        let slot = view.steps[0].writes[0].slot;
        view.slabs[slot].len /= 2;
        let report = verify_view(&view);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::Bounds));
    }

    #[test]
    fn read_before_write_is_rejected() {
        let mut view = chain_plan().view();
        // Reverse the schedule: the first matmul read now precedes every
        // producing write.
        view.steps.reverse();
        let report = verify_view(&view);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::Schedule));
    }

    #[test]
    fn write_into_const_slab_is_rejected() {
        let mut view = chain_plan().view();
        let const_slot = view.consts[0].0;
        let victim = &mut view.steps[0].writes[0];
        victim.slot = const_slot;
        victim.extent = view.slabs[const_slot].len;
        let report = verify_view(&view);
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::Schedule));
    }

    #[test]
    fn out_of_range_slot_is_reported_not_panicking() {
        let mut view = chain_plan().view();
        view.steps[0].reads[0].slot = 999;
        let report = verify_view(&view);
        assert!(!report.is_clean());
    }

    #[test]
    fn verify_mode_names_round_trip() {
        assert_eq!(VerifyMode::Strict.name(), "strict");
        assert_eq!(VerifyMode::Warn.name(), "warn");
        assert_eq!(VerifyMode::Off.name(), "off");
    }
}
