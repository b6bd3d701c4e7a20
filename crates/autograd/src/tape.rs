//! The define-by-run tape and its differentiable operations.

use bikecap_tensor::conv::{
    conv3d, conv3d_backward_input, conv3d_backward_weight, conv_transpose3d,
    conv_transpose3d_backward_weight, Conv3dSpec,
};
use bikecap_tensor::exec::{
    plan_routing_agree, plan_routing_couple, routing_agree_into, routing_capsule_dot_into,
    routing_couple_into, routing_slot_sum_into, routing_spread_into, routing_squash_grad_into,
    RoutingPlan,
};
use bikecap_tensor::Tensor;

use std::sync::Arc;

use crate::params::{ParamId, ParamStore};

/// A forward-value override consulted by [`Tape::matmul`] and
/// [`Tape::conv3d`] when the weight operand is a parameter leaf.
///
/// This is the eager half of the quantized inference contract: an
/// implementation (e.g. `bikecap-quant`'s `QuantSet`) recognises specific
/// parameters and computes the op's forward value through its own kernel
/// body, returning `None` to fall back to the stock f32 path. The compiled
/// executor dispatches through the same kernel bodies keyed by the same
/// parameter ids, which is what keeps eager ≡ compiled bitwise on the
/// quantized path. Overridden values feed inference only — backward closures
/// keep differentiating the f32 shadow weights.
pub trait ForwardOverride: Send + Sync {
    /// Override for `a.matmul(w)` where `w` is the parameter `w_param`
    /// (logical shape `(k, n)`).
    fn matmul(&self, a: &Tensor, w: &Tensor, w_param: ParamId) -> Option<Tensor>;

    /// Override for `conv3d(x, w, spec)` where `w` is the parameter
    /// `w_param` (shape `(C_out, C_in, KD, KH, KW)`).
    fn conv3d(&self, x: &Tensor, w: &Tensor, w_param: ParamId, spec: Conv3dSpec)
        -> Option<Tensor>;
}

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// The node index on the owning tape. Stable for the tape's lifetime;
    /// used by the IR lowering to address trace records.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A symbolic record of the operation that produced one tape node.
///
/// Recorded only on tapes created with [`Tape::traced`]; ordinary tapes keep
/// just the backward closures and pay nothing for tracing. One `TraceOp` is
/// pushed per node, in node order, so `trace[i]` describes node `i` and the
/// node's parents give the operand indices. Output shapes are not duplicated
/// here — read them from [`Tape::node_value`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// A non-differentiable leaf ([`Tape::constant`]).
    Constant,
    /// A parameter leaf ([`Tape::param`]), resolvable live from a store.
    Param(ParamId),
    /// Broadcasting addition.
    Add,
    /// Broadcasting subtraction.
    Sub,
    /// Broadcasting multiplication.
    Mul,
    /// Broadcasting division.
    Div,
    /// Elementwise negation.
    Neg,
    /// Elementwise absolute value.
    Abs,
    /// Rectified linear unit (`(v + |v|) / 2`).
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// Elementwise square.
    Square,
    /// Elementwise square root.
    Sqrt,
    /// Adds a scalar to every element.
    AddScalar(f32),
    /// Multiplies every element by a scalar.
    Scale(f32),
    /// Rank-2 matrix product.
    Matmul,
    /// Full reduction to a scalar.
    Sum,
    /// Sum over the given axes, kept with extent 1.
    SumAxesKeepdim(Vec<usize>),
    /// Shape view; the target shape is the node's value shape.
    Reshape,
    /// Axis permutation.
    Permute(Vec<usize>),
    /// Concatenation along an axis.
    Concat(usize),
    /// Slice `start..start + len` along `axis`.
    Narrow {
        /// Sliced axis.
        axis: usize,
        /// First kept index.
        start: usize,
        /// Number of kept indices.
        len: usize,
    },
    /// Softmax over the trailing `k` axes.
    SoftmaxTrailing(usize),
    /// 3-D convolution with the given stride/padding.
    Conv3d(Conv3dSpec),
    /// Transposed 3-D convolution with the given stride/padding.
    ConvTranspose3d(Conv3dSpec),
    /// Fused routing coupling step `squash_n(Σ_s V·K)` ([`Tape::routing_couple`]).
    RoutingCouple,
    /// Fused routing agreement step `L + Σ_c V·Ŝ` ([`Tape::routing_agree`]).
    RoutingAgree,
}

/// Backward closure: given the output gradient, the parent values, the node's
/// own forward value, and which parents need gradients, return one optional
/// gradient per parent (`None` where not needed).
type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor], &Tensor, &[bool]) -> Vec<Option<Tensor>>>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    param: Option<ParamId>,
    needs_grad: bool,
}

/// A single forward pass's computation graph.
///
/// Create one per training step, leaf inputs with [`Tape::constant`] and
/// parameters with [`Tape::param`], compose ops, then call
/// [`Tape::backward`] on a scalar loss. See the crate docs for an example.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// Observability segment markers: `(first_node_index, label)`, ascending
    /// by index. Recorded only while `bikecap_obs` is enabled (see
    /// [`Tape::mark`]), so the vector stays empty — and free — otherwise.
    marks: Vec<(usize, String)>,
    /// Symbolic operation records, one per node, present only on tapes made
    /// with [`Tape::traced`]. Invariant: `trace.len() == nodes.len()`.
    trace: Option<Vec<TraceOp>>,
    /// Optional forward-value override for param-backed matmul/conv3d
    /// weights (the eager quantized path). See [`ForwardOverride`].
    overlay: Option<Arc<dyn ForwardOverride>>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape[{} nodes]", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Creates an empty tape that additionally records one [`TraceOp`] per
    /// node, enabling symbolic lowering (see `bikecap-ir`). Ordinary tapes
    /// skip the recording entirely.
    pub fn traced() -> Self {
        Tape {
            trace: Some(Vec::new()),
            ..Tape::default()
        }
    }

    /// True when this tape records [`TraceOp`]s.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Installs a forward-value override consulted by [`Tape::matmul`] and
    /// [`Tape::conv3d`] for parameter-leaf weight operands. See
    /// [`ForwardOverride`].
    pub fn set_overlay(&mut self, overlay: Arc<dyn ForwardOverride>) {
        self.overlay = Some(overlay);
    }

    /// The symbolic record for node `i`, when this tape is traced.
    pub fn trace_op(&self, i: usize) -> Option<&TraceOp> {
        self.trace.as_ref().and_then(|t| t.get(i))
    }

    /// The parent node indices of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_parents(&self, i: usize) -> &[usize] {
        &self.nodes[i].parents
    }

    /// The forward value of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_value(&self, i: usize) -> &Tensor {
        &self.nodes[i].value
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(
        &mut self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        param: Option<ParamId>,
        trace_op: impl FnOnce() -> TraceOp,
    ) -> Var {
        if let Some(trace) = &mut self.trace {
            trace.push(trace_op());
        }
        let needs_grad =
            param.is_some() || parents.iter().any(|&p| self.nodes[p].needs_grad);
        self.nodes.push(Node {
            value,
            parents,
            backward: if needs_grad { backward } else { None },
            param,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Leafs a non-differentiable tensor (input data) onto the tape.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None, None, || TraceOp::Constant)
    }

    /// Marks the start of a named tape segment for backward attribution:
    /// every node recorded after this call (until the next mark) belongs to
    /// `label`, and [`Tape::backward`] wraps the reverse sweep over that
    /// range in a `bwd:<label>` span. No-op unless `bikecap_obs` is enabled,
    /// so un-instrumented runs pay nothing.
    pub fn mark(&mut self, label: &str) {
        if bikecap_obs::enabled() {
            self.marks.push((self.nodes.len(), label.to_string()));
        }
    }

    /// Leafs a parameter onto the tape; `backward` will accumulate its
    /// gradient into the store.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to `store`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), vec![], None, Some(id), || {
            TraceOp::Param(id)
        })
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of a node after [`Tape::backward`] has run, if it was
    /// reached and required.
    pub fn grad_of(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Runs reverse-mode differentiation from `loss` (any shape; seeded with
    /// ones) and accumulates parameter gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a node of this tape.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert!(loss.0 < self.nodes.len(), "backward: loss var not on this tape");
        let _bwd_span = bikecap_obs::span("autograd.backward");
        // Segment attribution: node `i` belongs to the last mark at or
        // before it. The reverse sweep visits each segment as one contiguous
        // run, so one `bwd:<label>` span per segment nests correctly under
        // the outer span. `seg_cursor` counts marks at or before `i`.
        let obs_on = bikecap_obs::enabled() && !self.marks.is_empty();
        let mut seg_cursor = if obs_on {
            self.marks.partition_point(|(start, _)| *start <= loss.0)
        } else {
            0
        };
        let mut seg_open = usize::MAX;
        let mut seg_guard: Option<bikecap_obs::SpanGuard> = None;
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(self.nodes[loss.0].value.shape()));
        for i in (0..=loss.0).rev() {
            if obs_on {
                while seg_cursor > 0 && self.marks[seg_cursor - 1].0 > i {
                    seg_cursor -= 1;
                }
                if seg_cursor == 0 {
                    // Before the first mark: close any open segment span.
                    seg_guard.take();
                    seg_open = usize::MAX;
                } else if seg_open != seg_cursor - 1 {
                    // Entering a new segment: end the previous span *before*
                    // beginning the next so B/E pairs stay properly nested.
                    seg_guard.take();
                    let label = &self.marks[seg_cursor - 1].1;
                    seg_guard.replace(bikecap_obs::span_with(|| format!("bwd:{label}")));
                    seg_open = seg_cursor - 1;
                }
            }
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(pid) = node.param {
                store.accumulate_grad(pid, &g);
            }
            if let Some(back) = &node.backward {
                let pvals: Vec<&Tensor> =
                    node.parents.iter().map(|&p| &self.nodes[p].value).collect();
                let needs: Vec<bool> = node
                    .parents
                    .iter()
                    .map(|&p| self.nodes[p].needs_grad)
                    .collect();
                let pgrads = back(&g, &pvals, &node.value, &needs);
                debug_assert_eq!(pgrads.len(), node.parents.len());
                for (&p, pg) in node.parents.iter().zip(pgrads) {
                    if let Some(pg) = pg {
                        match &mut grads[p] {
                            Some(acc) => acc.add_assign_(&pg),
                            slot @ None => *slot = Some(pg),
                        }
                    }
                }
            }
            grads[i] = Some(g);
        }
        self.grads = grads;
    }

    // ------------------------------------------------------------------
    // Broadcasting arithmetic
    // ------------------------------------------------------------------

    /// Broadcasting addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _, needs| {
                vec![
                    needs[0].then(|| g.reduce_to_shape(p[0].shape())),
                    needs[1].then(|| g.reduce_to_shape(p[1].shape())),
                ]
            })),
            None,
            || TraceOp::Add,
        )
    }

    /// Broadcasting subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _, needs| {
                vec![
                    needs[0].then(|| g.reduce_to_shape(p[0].shape())),
                    needs[1].then(|| g.neg().reduce_to_shape(p[1].shape())),
                ]
            })),
            None,
            || TraceOp::Sub,
        )
    }

    /// Broadcasting multiplication.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _, needs| {
                vec![
                    needs[0].then(|| g.mul(p[1]).reduce_to_shape(p[0].shape())),
                    needs[1].then(|| g.mul(p[0]).reduce_to_shape(p[1].shape())),
                ]
            })),
            None,
            || TraceOp::Mul,
        )
    }

    /// Broadcasting division.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.div(&self.nodes[b.0].value);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _, needs| {
                vec![
                    needs[0].then(|| g.div(p[1]).reduce_to_shape(p[0].shape())),
                    needs[1].then(|| {
                        g.mul(p[0])
                            .div(&p[1].square())
                            .neg()
                            .reduce_to_shape(p[1].shape())
                    }),
                ]
            })),
            None,
            || TraceOp::Div,
        )
    }

    // ------------------------------------------------------------------
    // Unary
    // ------------------------------------------------------------------

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.neg();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, _, _| vec![Some(g.neg())])),
            None,
            || TraceOp::Neg,
        )
    }

    /// Elementwise absolute value; the subgradient at 0 is 0.
    pub fn abs(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.abs();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _, _| {
                let sign = p[0].map(|v| {
                    if v > 0.0 {
                        1.0
                    } else if v < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                });
                vec![Some(g.mul(&sign))]
            })),
            None,
            || TraceOp::Abs,
        )
    }

    /// Rectified linear unit. Written as `(v + |v|) / 2` so NaN propagates
    /// (`f32::max` would silently launder NaN to 0).
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|v| 0.5 * (v + v.abs()));
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _, _| {
                let mask = p[0].map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                vec![Some(g.mul(&mask))]
            })),
            None,
            || TraceOp::Relu,
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| {
                let dy = y.map(|s| s * (1.0 - s));
                vec![Some(g.mul(&dy))]
            })),
            None,
            || TraceOp::Sigmoid,
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f32::tanh);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| {
                let dy = y.map(|t| 1.0 - t * t);
                vec![Some(g.mul(&dy))]
            })),
            None,
            || TraceOp::Tanh,
        )
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.exp();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| vec![Some(g.mul(y))])),
            None,
            || TraceOp::Exp,
        )
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.square();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _, _| vec![Some(g.mul(&p[0].scale(2.0)))])),
            None,
            || TraceOp::Square,
        )
    }

    /// Elementwise square root. Inputs should be positive; pair with
    /// [`Tape::add_scalar`] for an epsilon guard.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.sqrt();
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, y, _| {
                let dy = y.map(|s| 0.5 / s.max(1e-12));
                vec![Some(g.mul(&dy))]
            })),
            None,
            || TraceOp::Sqrt,
        )
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.nodes[a.0].value.add_scalar(s);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, _, _, _| vec![Some(g.clone())])),
            None,
            || TraceOp::AddScalar(s),
        )
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.nodes[a.0].value.scale(s);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| vec![Some(g.scale(s))])),
            None,
            || TraceOp::Scale(s),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 vars.
    ///
    /// # Panics
    ///
    /// Panics unless both are rank 2 with matching inner dims.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        // Quantized-path hook: when `b` is a parameter leaf the overlay may
        // compute the product through its own kernel body (see
        // `ForwardOverride`); `None` falls through to the stock f32 kernel.
        let value = match (&self.overlay, self.nodes[b.0].param) {
            (Some(ov), Some(id)) => ov
                .matmul(&self.nodes[a.0].value, &self.nodes[b.0].value, id)
                .unwrap_or_else(|| self.nodes[a.0].value.matmul(&self.nodes[b.0].value)),
            _ => self.nodes[a.0].value.matmul(&self.nodes[b.0].value),
        };
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|g, p, _, needs| {
                vec![
                    needs[0].then(|| g.matmul(&p[1].transpose2d())),
                    needs[1].then(|| p[0].transpose2d().matmul(g)),
                ]
            })),
            None,
            || TraceOp::Matmul,
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, producing a scalar var.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Tensor::scalar(self.nodes[a.0].value.sum());
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _, _| {
                vec![Some(Tensor::full(p[0].shape(), g.item()))]
            })),
            None,
            || TraceOp::Sum,
        )
    }

    /// Mean of all elements, producing a scalar var.
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.nodes[a.0].value.len().max(1) as f32;
        let s = self.sum(a);
        self.scale(s, 1.0 / n)
    }

    /// Sum over the given axes, keeping them with extent 1.
    ///
    /// # Panics
    ///
    /// Panics if an axis is out of range or repeated.
    pub fn sum_axes_keepdim(&mut self, a: Var, axes: &[usize]) -> Var {
        let value = self.nodes[a.0].value.sum_axes(axes, true);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _, _| {
                // Broadcast the kept-dim gradient back over the summed axes.
                vec![Some(Tensor::zeros(p[0].shape()).add(g))]
            })),
            None,
            || TraceOp::SumAxesKeepdim(axes.to_vec()),
        )
    }

    // ------------------------------------------------------------------
    // Structural
    // ------------------------------------------------------------------

    /// Views the node's data under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let value = self.nodes[a.0].value.reshape(shape);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|g, p, _, _| vec![Some(g.reshape(p[0].shape()))])),
            None,
            || TraceOp::Reshape,
        )
    }

    /// Permutes axes (see [`Tensor::permute`]).
    ///
    /// # Panics
    ///
    /// Panics unless `perm` is a valid permutation.
    pub fn permute(&mut self, a: Var, perm: &[usize]) -> Var {
        let value = self.nodes[a.0].value.permute(perm);
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, _, _, _| vec![Some(g.permute(&inverse))])),
            None,
            || TraceOp::Permute(perm.to_vec()),
        )
    }

    /// Concatenates vars along `axis`.
    ///
    /// # Panics
    ///
    /// Panics on empty input or shape mismatch off the concat axis.
    pub fn concat(&mut self, parts: &[Var], axis: usize) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let value = Tensor::concat(&tensors, axis);
        let extents: Vec<usize> = tensors.iter().map(|t| t.shape()[axis]).collect();
        self.push(
            value,
            parts.iter().map(|v| v.0).collect(),
            Some(Box::new(move |g, _, _, needs| {
                let mut out = Vec::with_capacity(extents.len());
                let mut start = 0;
                for (i, &len) in extents.iter().enumerate() {
                    out.push(needs[i].then(|| g.narrow(axis, start, len)));
                    start += len;
                }
                out
            })),
            None,
            || TraceOp::Concat(axis),
        )
    }

    /// Slices `start..start+len` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the extent.
    pub fn narrow(&mut self, a: Var, axis: usize, start: usize, len: usize) -> Var {
        let value = self.nodes[a.0].value.narrow(axis, start, len);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, p, _, _| {
                let mut full = Tensor::zeros(p[0].shape());
                full.narrow_add_(axis, start, g);
                vec![Some(full)]
            })),
            None,
            || TraceOp::Narrow { axis, start, len },
        )
    }

    /// Softmax over the trailing `k_axes` axes (see
    /// [`Tensor::softmax_trailing`]).
    ///
    /// # Panics
    ///
    /// Panics if `k_axes` is invalid for the rank.
    pub fn softmax_trailing(&mut self, a: Var, k_axes: usize) -> Var {
        let value = self.nodes[a.0].value.softmax_trailing(k_axes);
        value.debug_assert_finite("softmax_trailing");
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |g, _, y, _| {
                // dL/dx = y * (g - sum(y * g over the softmax group))
                let axes: Vec<usize> = (y.ndim() - k_axes..y.ndim()).collect();
                let inner = y.mul(g).sum_axes(&axes, true);
                vec![Some(y.mul(&g.sub(&inner)))]
            })),
            None,
            || TraceOp::SoftmaxTrailing(k_axes),
        )
    }

    // ------------------------------------------------------------------
    // Convolutions
    // ------------------------------------------------------------------

    /// 3-D convolution: input `(N, C_in, D, H, W)` with weight
    /// `(C_out, C_in, KD, KH, KW)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn conv3d(&mut self, x: Var, w: Var, spec: Conv3dSpec) -> Var {
        let xs = self.nodes[x.0].value.shape().to_vec();
        let ws = self.nodes[w.0].value.shape().to_vec();
        let in_dims = (xs[2], xs[3], xs[4]);
        let kernel = (ws[2], ws[3], ws[4]);
        // Quantized-path hook, mirroring `Tape::matmul`.
        let value = match (&self.overlay, self.nodes[w.0].param) {
            (Some(ov), Some(id)) => ov
                .conv3d(&self.nodes[x.0].value, &self.nodes[w.0].value, id, spec)
                .unwrap_or_else(|| {
                    conv3d(&self.nodes[x.0].value, &self.nodes[w.0].value, spec)
                }),
            _ => conv3d(&self.nodes[x.0].value, &self.nodes[w.0].value, spec),
        };
        self.push(
            value,
            vec![x.0, w.0],
            Some(Box::new(move |g, p, _, needs| {
                vec![
                    needs[0].then(|| conv3d_backward_input(g, p[1], in_dims, spec)),
                    needs[1].then(|| conv3d_backward_weight(g, p[0], kernel, spec)),
                ]
            })),
            None,
            || TraceOp::Conv3d(spec),
        )
    }

    /// Transposed 3-D convolution: input `(N, C_in, D, H, W)` with weight
    /// `(C_in, C_out, KD, KH, KW)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn conv_transpose3d(&mut self, x: Var, w: Var, spec: Conv3dSpec) -> Var {
        let ws = self.nodes[w.0].value.shape().to_vec();
        let kernel = (ws[2], ws[3], ws[4]);
        let value = conv_transpose3d(&self.nodes[x.0].value, &self.nodes[w.0].value, spec);
        self.push(
            value,
            vec![x.0, w.0],
            Some(Box::new(move |g, p, _, needs| {
                vec![
                    needs[0].then(|| conv3d(g, p[1], spec)),
                    needs[1].then(|| conv_transpose3d_backward_weight(g, p[0], kernel, spec)),
                ]
            })),
            None,
            || TraceOp::ConvTranspose3d(spec),
        )
    }

    /// 2-D convolution composed from the 3-D op via singleton-depth reshapes.
    ///
    /// `x` is `(N, C_in, H, W)`, `w` is `(C_out, C_in, KH, KW)`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatch.
    pub fn conv2d(
        &mut self,
        x: Var,
        w: Var,
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Var {
        let xs = self.nodes[x.0].value.shape().to_vec();
        let ws = self.nodes[w.0].value.shape().to_vec();
        assert_eq!(xs.len(), 4, "conv2d expects rank-4 input, got {xs:?}");
        assert_eq!(ws.len(), 4, "conv2d expects rank-4 weight, got {ws:?}");
        let x5 = self.reshape(x, &[xs[0], xs[1], 1, xs[2], xs[3]]);
        let w5 = self.reshape(w, &[ws[0], ws[1], 1, ws[2], ws[3]]);
        let spec = Conv3dSpec {
            stride: (1, stride.0, stride.1),
            padding: (0, padding.0, padding.1),
        };
        let y5 = self.conv3d(x5, w5, spec);
        let ys = self.value(y5).shape().to_vec();
        self.reshape(y5, &[ys[0], ys[1], ys[3], ys[4]])
    }

    // ------------------------------------------------------------------
    // Fused dynamic routing
    // ------------------------------------------------------------------

    /// The routing coupling step (paper Sec. III-D): future capsules
    /// `Ŝ = squash_n(Σ_s V·K)` of shape `(B, p, n, H, W)` from the per-slot
    /// predictions `v` in the transform conv's layout `(B, p·n, S, H, W)`
    /// and the coupling coefficients `k (B, S, H, W, p)`.
    ///
    /// One op with an analytic adjoint: the backward recomputes the
    /// pre-squash sum, applies the squash Jacobian, and scatters it to
    /// `dV = dS ⊗ K` and `dK = Σ_c V·dS`. The forward runs
    /// [`routing_couple_into`], the body the compiled executor shares.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not form a routing step.
    pub fn routing_couple(&mut self, v: Var, k: Var) -> Var {
        let (vt, kt) = (&self.nodes[v.0].value, &self.nodes[k.0].value);
        let plan = plan_routing_couple(vt.shape(), kt.shape()).unwrap_or_else(|| {
            panic!("routing_couple: V {:?} with K {:?}", vt.shape(), kt.shape())
        });
        let mut out = Tensor::zeros(&plan.capsules_shape());
        routing_couple_into(&plan, vt.as_slice(), kt.as_slice(), out.as_mut_slice());
        out.debug_assert_finite("routing_couple");
        self.push(
            out,
            vec![v.0, k.0],
            Some(Box::new(move |g, p, _, needs| {
                let mut ds = Tensor::zeros(&plan.capsules_shape());
                routing_squash_grad_into(
                    &plan,
                    p[0].as_slice(),
                    p[1].as_slice(),
                    g.as_slice(),
                    ds.as_mut_slice(),
                );
                vec![
                    needs[0].then(|| routing_spread(&plan, &ds, p[1])),
                    needs[1].then(|| {
                        let mut dk = Tensor::zeros(&plan.logits_shape());
                        routing_capsule_dot_into(
                            &plan,
                            p[0].as_slice(),
                            ds.as_slice(),
                            dk.as_mut_slice(),
                        );
                        dk
                    }),
                ]
            })),
            None,
            || TraceOp::RoutingCouple,
        )
    }

    /// The routing agreement step (paper Sec. III-D): refined logits
    /// `L' = L + Σ_c V·Ŝ` of shape `(B, S, H, W, p)` from the predictions
    /// `v (B, p·n, S, H, W)`, the current capsules `s_hat (B, p, n, H, W)`
    /// and the logits `logits (B, S, H, W, p)`.
    ///
    /// One op with an analytic adjoint: `dL = dL'`, `dV = Ŝ ⊗ dL'` and
    /// `dŜ = Σ_s V·dL'`. The forward runs [`routing_agree_into`], the body
    /// the compiled executor shares.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not form a routing step.
    pub fn routing_agree(&mut self, v: Var, s_hat: Var, logits: Var) -> Var {
        let vt = &self.nodes[v.0].value;
        let (st, lt) = (&self.nodes[s_hat.0].value, &self.nodes[logits.0].value);
        let plan = plan_routing_agree(vt.shape(), st.shape(), lt.shape()).unwrap_or_else(|| {
            panic!(
                "routing_agree: V {:?}, S {:?}, logits {:?}",
                vt.shape(),
                st.shape(),
                lt.shape()
            )
        });
        let mut out = Tensor::zeros(&plan.logits_shape());
        routing_agree_into(
            &plan,
            vt.as_slice(),
            st.as_slice(),
            lt.as_slice(),
            out.as_mut_slice(),
        );
        self.push(
            out,
            vec![v.0, s_hat.0, logits.0],
            Some(Box::new(move |g, p, _, needs| {
                vec![
                    needs[0].then(|| routing_spread(&plan, p[1], g)),
                    needs[1].then(|| {
                        let mut ds = Tensor::zeros(&plan.capsules_shape());
                        routing_slot_sum_into(&plan, p[0].as_slice(), g.as_slice(), ds.as_mut_slice());
                        ds
                    }),
                    needs[2].then(|| g.clone()),
                ]
            })),
            None,
            || TraceOp::RoutingAgree,
        )
    }

    // ------------------------------------------------------------------
    // Composite helpers
    // ------------------------------------------------------------------

    /// The capsule squash of Eq. 3 in the paper, along `axis` (the capsule
    /// dimension): `s |s|^2 / ((1 + |s|^2) |s|)`.
    ///
    /// Composed from primitive ops so no custom backward is needed.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn squash(&mut self, a: Var, axis: usize) -> Var {
        let sq = self.square(a);
        let sumsq = self.sum_axes_keepdim(sq, &[axis]);
        let eps = self.add_scalar(sumsq, 1e-8);
        let norm = self.sqrt(eps);
        let one_plus = self.add_scalar(sumsq, 1.0);
        let denom = self.mul(one_plus, norm);
        let scaled = self.div(a, denom);
        // scaled = a / ((1+|s|^2)|s|); multiply by |s|^2 (broadcast).
        let out = self.mul_broadcast_keepdim(scaled, sumsq);
        self.value(out).debug_assert_finite("squash");
        out
    }

    fn mul_broadcast_keepdim(&mut self, a: Var, b: Var) -> Var {
        self.mul(a, b)
    }

    /// Mean absolute error between `pred` and `target` (the paper's L1 loss).
    pub fn l1_loss(&mut self, pred: Var, target: Var) -> Var {
        let diff = self.sub(pred, target);
        let a = self.abs(diff);
        self.mean(a)
    }

    /// Mean squared error between `pred` and `target`.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let diff = self.sub(pred, target);
        let sq = self.square(diff);
        self.mean(sq)
    }
}

/// `V`-layout outer product `U ⊗ W` (see [`routing_spread_into`]).
fn routing_spread(plan: &RoutingPlan, u: &Tensor, w: &Tensor) -> Tensor {
    let mut dv = Tensor::zeros(&plan.v_shape());
    routing_spread_into(plan, u.as_slice(), w.as_slice(), dv.as_mut_slice());
    dv
}

#[cfg(test)]
mod tests {
    use super::*;
    use bikecap_tensor::assert_close;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store_with(values: &[Tensor]) -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new();
        let ids = values
            .iter()
            .enumerate()
            .map(|(i, v)| store.add(format!("p{i}"), v.clone()))
            .collect();
        (store, ids)
    }

    #[test]
    fn linear_chain_gradient() {
        // L = sum(3 * w) => dL/dw = 3 everywhere.
        let (mut store, ids) = store_with(&[Tensor::ones(&[4])]);
        let mut tape = Tape::new();
        let w = tape.param(&store, ids[0]);
        let y = tape.scale(w, 3.0);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(ids[0]).as_slice(), &[3.0; 4]);
    }

    #[test]
    fn shared_parameter_accumulates() {
        // L = sum(w + w) => dL/dw = 2.
        let (mut store, ids) = store_with(&[Tensor::ones(&[2])]);
        let mut tape = Tape::new();
        let w = tape.param(&store, ids[0]);
        let y = tape.add(w, w);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(ids[0]).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn constants_do_not_require_grad() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[3]));
        let b = tape.constant(Tensor::ones(&[3]));
        let c = tape.add(a, b);
        let loss = tape.sum(c);
        tape.backward(loss, &mut store);
        // No panic, no gradient anywhere except the seed path.
        assert!(tape.grad_of(a).is_none());
    }

    #[test]
    fn broadcast_add_reduces_bias_grad() {
        // y = x + b with x (2,3), b (1,3): dL/db sums over the batch axis.
        let (mut store, ids) = store_with(&[Tensor::zeros(&[1, 3])]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3]));
        let b = tape.param(&store, ids[0]);
        let y = tape.add(x, b);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(ids[0]).as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn matmul_grads_match_known_formula() {
        let a_t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b_t = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let (mut store, ids) = store_with(&[a_t.clone(), b_t.clone()]);
        let mut tape = Tape::new();
        let a = tape.param(&store, ids[0]);
        let b = tape.param(&store, ids[1]);
        let c = tape.matmul(a, b);
        let loss = tape.sum(c);
        tape.backward(loss, &mut store);
        // dL/dA = 1 * B^T (ones matrix times B^T).
        let ones = Tensor::ones(&[2, 2]);
        assert_close(store.grad(ids[0]), &ones.matmul(&b_t.transpose2d()), 1e-5);
        assert_close(store.grad(ids[1]), &a_t.transpose2d().matmul(&ones), 1e-5);
    }

    #[test]
    fn sigmoid_tanh_relu_values() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]));
        let s = tape.sigmoid(x);
        let t = tape.tanh(x);
        let r = tape.relu(x);
        assert!((tape.value(s).get(&[1]) - 0.5).abs() < 1e-6);
        assert!((tape.value(t).get(&[2]) - 1f32.tanh()).abs() < 1e-6);
        assert_eq!(tape.value(r).as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn squash_shrinks_norm_below_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::randn(&[2, 4, 3, 3], 0.0, 3.0, &mut rng));
        let s = tape.squash(x, 1);
        let v = tape.value(s);
        assert_eq!(v.shape(), &[2, 4, 3, 3]);
        // Per-position norm along axis 1 must be < 1.
        let normsq = v.square().sum_axes(&[1], true);
        assert!(normsq.max_value() < 1.0);
    }

    #[test]
    fn squash_preserves_direction() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![3.0, 4.0], &[1, 2]));
        let s = tape.squash(x, 1);
        let v = tape.value(s);
        // Direction (3,4)/5; squashed magnitude 25/26.
        let expect = Tensor::from_vec(vec![3.0 / 5.0 * 25.0 / 26.0, 4.0 / 5.0 * 25.0 / 26.0], &[1, 2]);
        assert_close(v, &expect, 1e-4);
    }

    #[test]
    fn l1_and_mse_losses() {
        let mut tape = Tape::new();
        let p = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let t = tape.constant(Tensor::from_vec(vec![0.0, 4.0], &[2]));
        let l1 = tape.l1_loss(p, t);
        let l2 = tape.mse_loss(p, t);
        assert!((tape.value(l1).item() - 1.5).abs() < 1e-6);
        assert!((tape.value(l2).item() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn narrow_concat_roundtrip_gradient() {
        let (mut store, ids) = store_with(&[Tensor::ones(&[2, 4])]);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let l = tape.narrow(x, 1, 0, 2);
        let r = tape.narrow(x, 1, 2, 2);
        let y = tape.concat(&[&l, &r].map(|v| *v), 1);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(ids[0]).as_slice(), &[1.0; 8]);
    }

    #[test]
    fn softmax_grad_of_uniform_logits_is_zero() {
        // With uniform logits and uniform upstream gradient, dL/dx = 0.
        let (mut store, ids) = store_with(&[Tensor::zeros(&[2, 3])]);
        let mut tape = Tape::new();
        let x = tape.param(&store, ids[0]);
        let s = tape.softmax_trailing(x, 1);
        let loss = tape.sum(s);
        tape.backward(loss, &mut store);
        for &g in store.grad(ids[0]).as_slice() {
            assert!(g.abs() < 1e-6);
        }
    }

    #[test]
    fn conv3d_forward_shape_on_tape() {
        let mut rng = StdRng::seed_from_u64(12);
        let (store, _) = store_with(&[]);
        drop(store);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::randn(&[1, 2, 4, 5, 5], 0.0, 1.0, &mut rng));
        let w = tape.constant(Tensor::randn(&[3, 2, 3, 3, 3], 0.0, 1.0, &mut rng));
        let y = tape.conv3d(x, w, Conv3dSpec::padded(1, 1, 1));
        assert_eq!(tape.value(y).shape(), &[1, 3, 4, 5, 5]);
    }

    #[test]
    fn traced_tape_records_one_op_per_node() {
        let mut tape = Tape::traced();
        assert!(tape.is_traced());
        let a = tape.constant(Tensor::ones(&[2, 2]));
        let b = tape.constant(Tensor::ones(&[2, 2]));
        let c = tape.matmul(a, b);
        let _s = tape.squash(c, 1);
        assert_eq!(tape.trace_op(a.index()), Some(&TraceOp::Constant));
        assert_eq!(tape.trace_op(c.index()), Some(&TraceOp::Matmul));
        assert_eq!(tape.node_parents(c.index()), &[a.index(), b.index()]);
        // Composite ops register every primitive: one record per node.
        for i in 0..tape.len() {
            assert!(tape.trace_op(i).is_some(), "missing trace for node {i}");
        }
    }

    #[test]
    fn untraced_tape_records_nothing() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[2]));
        assert!(!tape.is_traced());
        assert!(tape.trace_op(a.index()).is_none());
    }

    #[test]
    fn grad_of_exposes_intermediate_grads() {
        let (mut store, ids) = store_with(&[Tensor::ones(&[2])]);
        let mut tape = Tape::new();
        let w = tape.param(&store, ids[0]);
        let y = tape.scale(w, 2.0);
        let loss = tape.sum(y);
        tape.backward(loss, &mut store);
        assert_eq!(tape.grad_of(y).unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(tape.grad_of(w).unwrap().as_slice(), &[2.0, 2.0]);
    }
}
