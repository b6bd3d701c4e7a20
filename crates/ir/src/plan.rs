//! Buffer-liveness planning: from a lowered [`Graph`] to a static execution
//! schedule over a reusable arena.
//!
//! # Algorithm
//!
//! Trace order is already topological, so the schedule is simply the live
//! subsequence of the trace: a backward reachability sweep from the output
//! drops every node that only feeds the training loss or telemetry. The
//! planner then walks the live nodes once, maintaining
//!
//! * a **slab table** — every distinct buffer the plan will ever need, by
//!   element count;
//! * a **per-slab refcount** — how many pending reads the buffer's current
//!   contents still have; and
//! * an **exact-size free list** — slabs whose refcount reached zero, keyed
//!   by size, ready for reuse by a later node of the same size.
//!
//! A node's output slab is claimed *before* its operands are released, so a
//! kernel can never be scheduled to write over a buffer it is still reading
//! (the kernels in [`bikecap_tensor::exec`] are not in-place safe).
//! `Reshape` allocates nothing: it aliases its operand's slab and transfers
//! the refcounts. `Const` leaves get dedicated slabs that are prefilled once
//! per arena and never recycled — reusing one would let a later step
//! clobber data the next execution still needs. No step needs scratch:
//! the convolutions (plain, transposed and pyramid) read their input and
//! weight in place and write only their output.
//!
//! Every dispatch decision — broadcast strides, reduction strides, permute
//! strides, matmul extents, convolution, pyramid and routing geometry — is baked into the
//! [`Step`]s here at compile time. Steady-state execution performs **zero
//! heap allocations**: it only indexes slabs and calls `*_into` kernels.

use std::collections::HashMap;

use bikecap_autograd::ParamId;
use bikecap_tensor::exec::{
    plan_broadcast, plan_conv3d, plan_permute, plan_pyramid_conv, plan_reduce_sum,
    plan_routing_agree, plan_routing_couple, BroadcastPlan, ConvPlan, PermutePlan, PyramidPlan,
    ReducePlan, RoutingPlan,
};
use bikecap_tensor::Tensor;

use crate::error::IrError;
use crate::graph::{Graph, MapOp, Op, ZipOp};

/// Where a step operand's data lives at execution time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// An arena slab index.
    Slot(usize),
    /// A parameter, resolved live from the store on every execution so
    /// training updates and checkpoint loads keep the plan valid.
    Param(ParamId),
}

/// One fully-baked execution step. All geometry is resolved; executing a
/// step allocates nothing.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Zip {
        op: ZipOp,
        plan: BroadcastPlan,
        a: Src,
        b: Src,
        out: usize,
    },
    Map {
        op: MapOp,
        src: Src,
        out: usize,
    },
    AddScalar {
        s: f32,
        src: Src,
        out: usize,
    },
    Scale {
        s: f32,
        src: Src,
        out: usize,
    },
    Matmul {
        a: Src,
        b: Src,
        m: usize,
        k: usize,
        n: usize,
        out: usize,
    },
    Reduce {
        plan: ReducePlan,
        src: Src,
        out: usize,
    },
    Permute {
        plan: PermutePlan,
        src: Src,
        out: usize,
    },
    Concat {
        outer: usize,
        /// Per part: where it comes from and how many contiguous scalars it
        /// contributes per outer index.
        parts: Vec<(Src, usize)>,
        /// Total scalars per outer index (sum of part rows).
        total: usize,
        out: usize,
    },
    Narrow {
        outer: usize,
        inner: usize,
        /// Source extent along the narrowed axis.
        extent: usize,
        start: usize,
        len: usize,
        src: Src,
        out: usize,
    },
    Softmax {
        inner: usize,
        src: Src,
        out: usize,
    },
    Conv {
        plan: ConvPlan,
        x: Src,
        w: Src,
        out: usize,
    },
    /// The transposed convolution: the input adjoint of `plan`, so `x` has
    /// `plan`'s output shape and `out` its input shape.
    ConvT {
        plan: ConvPlan,
        x: Src,
        w: Src,
        out: usize,
    },
    Pyramid {
        plan: PyramidPlan,
        x: Src,
        w: Src,
        out: usize,
    },
    Squash {
        outer: usize,
        dk: usize,
        inner: usize,
        src: Src,
        out: usize,
    },
    BiasRelu {
        plan: BroadcastPlan,
        a: Src,
        b: Src,
        out: usize,
    },
    RoutingCouple {
        plan: RoutingPlan,
        v: Src,
        k: Src,
        out: usize,
    },
    RoutingAgree {
        plan: RoutingPlan,
        v: Src,
        s: Src,
        logits: Src,
        out: usize,
    },
}

/// Compilation knobs.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Run the elementwise fusion pass before planning (on by default;
    /// disabled by `BIKECAP_FUSION=off` in the model wiring).
    pub fusion: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fusion: true }
    }
}

/// A compiled model: static schedule, slab table, constant prefill data.
/// Build once per (model, batch-size); execute many times via
/// [`crate::exec::Executor`].
#[derive(Debug, Clone)]
pub struct ModelPlan {
    pub(crate) steps: Vec<Step>,
    /// Element count of each arena slab.
    pub(crate) slabs: Vec<usize>,
    /// Slabs prefilled once per arena with captured constants.
    pub(crate) consts: Vec<(usize, Tensor)>,
    pub(crate) input_slot: usize,
    pub(crate) input_len: usize,
    pub(crate) output_slot: usize,
    pub(crate) output_len: usize,
    /// Free-list recycling schedule: `(free_from, slot)` — the slab became
    /// reusable for steps with index `>= free_from` (its refcount reached
    /// zero while the planner worked on step `free_from - 1`). Input/const
    /// slabs never appear here. Consumed by [`crate::view`] / bikecap-verify.
    pub(crate) releases: Vec<(usize, usize)>,
    out_shape: Vec<usize>,
    fused: usize,
}

impl ModelPlan {
    /// Compiles a lowered graph into a static schedule.
    ///
    /// # Errors
    ///
    /// Any [`IrError`]; callers are expected to fall back to the eager tape
    /// walk.
    pub fn compile(mut graph: Graph, opts: &CompileOptions) -> Result<ModelPlan, IrError> {
        let _span = bikecap_obs::span("ir.compile");
        if let Some(fault) = bikecap_faults::hit("ir.plan.build") {
            return Err(IrError::Injected(fault));
        }
        let fused = if opts.fusion {
            crate::fuse::fuse(&mut graph)
        } else {
            0
        };
        let plan = Planner::new(&graph).build(fused)?;
        bikecap_obs::value("ir.plan.slabs", plan.slabs.len() as f64);
        bikecap_obs::value("ir.plan.steps", plan.steps.len() as f64);
        bikecap_obs::value("ir.plan.fused", fused as f64);
        bikecap_obs::value(
            "ir.plan.arena_scalars",
            plan.slabs.iter().sum::<usize>() as f64,
        );
        Ok(plan)
    }

    /// The compiled output shape.
    pub fn out_shape(&self) -> &[usize] {
        &self.out_shape
    }

    /// Scalars the runtime input must provide.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Scalars the output buffer must hold.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Number of scheduled steps (live nodes + nothing else).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of distinct arena slabs the plan reuses across all steps.
    pub fn num_slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Total `f32` scalars across all slabs (the arena footprint).
    pub fn arena_scalars(&self) -> usize {
        self.slabs.iter().sum()
    }

    /// How many fused kernels the fusion pass introduced.
    pub fn fused_ops(&self) -> usize {
        self.fused
    }
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Working state of one planning walk.
struct Planner<'g> {
    graph: &'g Graph,
    live: Vec<bool>,
    /// Pending-read count per live node (output counts once extra).
    uses: Vec<usize>,
    slabs: Vec<usize>,
    refcount: Vec<usize>,
    /// size -> reusable slab indices.
    free: HashMap<usize, Vec<usize>>,
    /// Resolved operand source per node (`None` until planned).
    src_of: Vec<Option<Src>>,
    steps: Vec<Step>,
    consts: Vec<(usize, Tensor)>,
    releases: Vec<(usize, usize)>,
}

impl<'g> Planner<'g> {
    fn new(graph: &'g Graph) -> Self {
        let n = graph.nodes.len();
        let mut live = vec![false; n];
        let mut stack = vec![graph.output];
        while let Some(i) = stack.pop() {
            if !live[i] {
                live[i] = true;
                stack.extend_from_slice(&graph.nodes[i].parents);
            }
        }
        // The input slab must exist even if the model ignores the input.
        live[graph.input] = true;
        let mut uses = vec![0usize; n];
        for (node, _) in graph.nodes.iter().zip(&live).filter(|(_, l)| **l) {
            for &p in &node.parents {
                uses[p] += 1;
            }
        }
        uses[graph.output] += 1;
        Planner {
            graph,
            live,
            uses,
            slabs: Vec::new(),
            refcount: Vec::new(),
            free: HashMap::new(),
            src_of: vec![None; n],
            steps: Vec::new(),
            consts: Vec::new(),
            releases: Vec::new(),
        }
    }

    /// A brand-new slab, never shared: for inputs and constants whose
    /// contents must survive every execution.
    fn fresh(&mut self, size: usize, reads: usize) -> usize {
        self.slabs.push(size);
        self.refcount.push(reads + 1); // +1: never recycled
        self.slabs.len() - 1
    }

    /// A slab from the free list when one of the exact size exists, else a
    /// new one.
    fn claim(&mut self, size: usize, reads: usize) -> usize {
        if let Some(slot) = self.free.get_mut(&size).and_then(Vec::pop) {
            self.refcount[slot] = reads;
            slot
        } else {
            self.slabs.push(size);
            self.refcount.push(reads);
            self.slabs.len() - 1
        }
    }

    /// Consumes one pending read; a slab with no readers left returns to the
    /// free list. `free_from` is the first step index allowed to reuse the
    /// slab; it is recorded so the verifier can replay the recycling
    /// decisions against the schedule.
    fn release(&mut self, slot: usize, free_from: usize) {
        self.refcount[slot] -= 1;
        if self.refcount[slot] == 0 {
            self.free.entry(self.slabs[slot]).or_default().push(slot);
            self.releases.push((free_from, slot));
        }
    }

    fn operand(&self, node: usize) -> Result<Src, IrError> {
        self.src_of[node]
            .ok_or_else(|| IrError::Plan(format!("node {node} consumed before being planned")))
    }

    fn build(mut self, fused: usize) -> Result<ModelPlan, IrError> {
        let graph = self.graph;
        let mut input_slot = None;
        for i in 0..graph.nodes.len() {
            if !self.live[i] {
                continue;
            }
            let node = &graph.nodes[i];
            let out_len = numel(&node.shape);
            match &node.op {
                Op::Input => {
                    let slot = self.fresh(out_len, self.uses[i]);
                    input_slot = Some(slot);
                    self.src_of[i] = Some(Src::Slot(slot));
                }
                Op::Const(value) => {
                    let slot = self.fresh(out_len, self.uses[i]);
                    self.consts.push((slot, value.clone()));
                    self.src_of[i] = Some(Src::Slot(slot));
                }
                Op::Param(id) => {
                    self.src_of[i] = Some(Src::Param(*id));
                }
                Op::Reshape => {
                    let p = node.parents[0];
                    match self.operand(p)? {
                        Src::Slot(slot) => {
                            // Transfer liveness: this view's readers keep the
                            // slab alive; the view itself consumes one read.
                            self.refcount[slot] += self.uses[i];
                            let free_from = self.steps.len();
                            self.release(slot, free_from);
                            self.src_of[i] = Some(Src::Slot(slot));
                        }
                        Src::Param(id) => {
                            self.src_of[i] = Some(Src::Param(id));
                        }
                    }
                }
                op => {
                    // Claim the output before releasing operands so a kernel
                    // never writes over a buffer it still reads.
                    let out = self.claim(out_len, self.uses[i]);
                    let step = self.bake_step(i, op, out)?;
                    self.steps.push(step);
                    // The step just pushed has index len-1; its operands are
                    // reusable starting at the next step.
                    let free_from = self.steps.len();
                    for &p in &node.parents {
                        if let Src::Slot(slot) = self.operand(p)? {
                            self.release(slot, free_from);
                        }
                    }
                    self.src_of[i] = Some(Src::Slot(out));
                }
            }
        }
        let input_slot =
            input_slot.ok_or_else(|| IrError::Plan("no input slab was planned".into()))?;
        let Some(Src::Slot(output_slot)) = self.src_of[graph.output] else {
            return Err(IrError::Plan(
                "output does not resolve to an arena slab".into(),
            ));
        };
        Ok(ModelPlan {
            steps: self.steps,
            slabs: self.slabs,
            consts: self.consts,
            releases: self.releases,
            input_slot,
            input_len: numel(&graph.nodes[graph.input].shape),
            output_slot,
            output_len: numel(&graph.nodes[graph.output].shape),
            out_shape: graph.nodes[graph.output].shape.clone(),
            fused,
        })
    }

    /// Bakes all dispatch geometry for live node `i` into a [`Step`]
    /// writing slab `out`.
    fn bake_step(&self, i: usize, op: &Op, out: usize) -> Result<Step, IrError> {
        let graph = self.graph;
        let node = &graph.nodes[i];
        let shape_of = |slot: usize| graph.nodes[node.parents[slot]].shape.as_slice();
        let zip_plan = |a: &[usize], b: &[usize]| {
            plan_broadcast(a, b)
                .ok_or_else(|| IrError::Shape(format!("node {i}: cannot broadcast {a:?} x {b:?}")))
        };
        Ok(match op {
            Op::Input | Op::Const(_) | Op::Param(_) | Op::Reshape => {
                return Err(IrError::Plan(format!("node {i}: {op:?} is not a step")))
            }
            Op::Zip(zop) => Step::Zip {
                op: *zop,
                plan: zip_plan(shape_of(0), shape_of(1))?,
                a: self.operand(node.parents[0])?,
                b: self.operand(node.parents[1])?,
                out,
            },
            Op::Map(mop) => Step::Map {
                op: *mop,
                src: self.operand(node.parents[0])?,
                out,
            },
            Op::AddScalar(s) => Step::AddScalar {
                s: *s,
                src: self.operand(node.parents[0])?,
                out,
            },
            Op::Scale(s) => Step::Scale {
                s: *s,
                src: self.operand(node.parents[0])?,
                out,
            },
            Op::Matmul => {
                let (a, b) = (shape_of(0), shape_of(1));
                Step::Matmul {
                    a: self.operand(node.parents[0])?,
                    b: self.operand(node.parents[1])?,
                    m: a[0],
                    k: a[1],
                    n: b[1],
                    out,
                }
            }
            Op::Reduce(axes) => Step::Reduce {
                plan: plan_reduce_sum(shape_of(0), axes),
                src: self.operand(node.parents[0])?,
                out,
            },
            Op::Permute(perm) => Step::Permute {
                plan: plan_permute(shape_of(0), perm),
                src: self.operand(node.parents[0])?,
                out,
            },
            Op::Concat(axis) => {
                let inner: usize = node.shape[axis + 1..].iter().product();
                let mut parts = Vec::with_capacity(node.parents.len());
                for (slot, &p) in node.parents.iter().enumerate() {
                    parts.push((self.operand(p)?, shape_of(slot)[*axis] * inner));
                }
                Step::Concat {
                    outer: node.shape[..*axis].iter().product(),
                    total: node.shape[*axis] * inner,
                    parts,
                    out,
                }
            }
            Op::Narrow { axis, start, len } => {
                let p = shape_of(0);
                Step::Narrow {
                    outer: p[..*axis].iter().product(),
                    inner: p[*axis + 1..].iter().product(),
                    extent: p[*axis],
                    start: *start,
                    len: *len,
                    src: self.operand(node.parents[0])?,
                    out,
                }
            }
            Op::Softmax(k_axes) => {
                let p = shape_of(0);
                Step::Softmax {
                    inner: p[p.len() - k_axes..].iter().product(),
                    src: self.operand(node.parents[0])?,
                    out,
                }
            }
            Op::Conv3d(spec) => Step::Conv {
                plan: plan_conv3d(shape_of(0), shape_of(1), *spec)
                    .filter(|p| p.out_shape() == node.shape.as_slice())
                    .ok_or_else(|| IrError::Shape(format!("node {i}: conv3d operands disagree")))?,
                x: self.operand(node.parents[0])?,
                w: self.operand(node.parents[1])?,
                out,
            },
            Op::ConvTranspose3d(spec) => {
                // The convolution this one transposes maps the output shape
                // back to the input shape, with the same weight.
                let w = shape_of(1);
                Step::ConvT {
                    plan: plan_conv3d(&node.shape, w, *spec)
                        .filter(|p| p.out_shape() == shape_of(0))
                        .ok_or_else(|| {
                            IrError::Shape(format!("node {i}: conv_transpose3d operands disagree"))
                        })?,
                    x: self.operand(node.parents[0])?,
                    w: self.operand(node.parents[1])?,
                    out,
                }
            }
            Op::PyramidConv(k) => Step::Pyramid {
                plan: plan_pyramid_conv(shape_of(0), shape_of(1))
                    .filter(|p| p.pyramid_size() == *k)
                    .ok_or_else(|| {
                        IrError::Shape(format!("node {i}: pyramid conv operands disagree"))
                    })?,
                x: self.operand(node.parents[0])?,
                w: self.operand(node.parents[1])?,
                out,
            },
            Op::FusedSquash { axis } => {
                let p = shape_of(0);
                Step::Squash {
                    outer: p[..*axis].iter().product(),
                    dk: p[*axis],
                    inner: p[*axis + 1..].iter().product(),
                    src: self.operand(node.parents[0])?,
                    out,
                }
            }
            Op::FusedBiasRelu => Step::BiasRelu {
                plan: zip_plan(shape_of(0), shape_of(1))?,
                a: self.operand(node.parents[0])?,
                b: self.operand(node.parents[1])?,
                out,
            },
            Op::RoutingCouple => Step::RoutingCouple {
                plan: plan_routing_couple(shape_of(0), shape_of(1)).ok_or_else(|| {
                    IrError::Shape(format!("node {i}: routing couple operands disagree"))
                })?,
                v: self.operand(node.parents[0])?,
                k: self.operand(node.parents[1])?,
                out,
            },
            Op::RoutingAgree => Step::RoutingAgree {
                plan: plan_routing_agree(shape_of(0), shape_of(1), shape_of(2)).ok_or_else(
                    || IrError::Shape(format!("node {i}: routing agree operands disagree")),
                )?,
                v: self.operand(node.parents[0])?,
                s: self.operand(node.parents[1])?,
                logits: self.operand(node.parents[2])?,
                out,
            },
        })
    }
}
