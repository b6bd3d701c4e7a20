//! The typed expression graph lowered from a traced autograd tape.
//!
//! A [`Graph`] is a topologically ordered list of [`Node`]s (trace order *is*
//! topological order — a tape can only reference already-recorded nodes),
//! each carrying its operation, operand indices and output shape. Shapes are
//! re-inferred from the operands during lowering and checked against what the
//! eager probe pass actually produced, so a planner bug or a drifted kernel
//! contract surfaces here as a typed [`IrError::Shape`] instead of a wrong
//! prediction later.

use bikecap_autograd::{ParamId, Tape, TraceOp, Var};
use bikecap_tensor::conv::Conv3dSpec;
use bikecap_tensor::Tensor;

use crate::error::IrError;

/// Broadcasting binary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// Unary elementwise operations. The executor replays the *exact* closure
/// bodies the eager tensor methods use, so compiled results stay bitwise
/// identical to the tape walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// `-v`
    Neg,
    /// `v.abs()`
    Abs,
    /// `0.5 * (v + v.abs())` — the tape's branch-free ReLU.
    Relu,
    /// `1 / (1 + exp(-v))`
    Sigmoid,
    /// `v.tanh()`
    Tanh,
    /// `v.exp()`
    Exp,
    /// `v * v`
    Square,
    /// `v.sqrt()`
    Sqrt,
}

/// One graph operation. Mirrors [`TraceOp`] minus the training-only ops,
/// plus the leaf roles ([`Op::Input`], [`Op::Const`], [`Op::Param`]) and the
/// kernels the fusion pass introduces ([`Op::FusedSquash`],
/// [`Op::FusedBiasRelu`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The designated runtime input (fed fresh on every execution).
    Input,
    /// A tensor captured from the probe pass that never changes between
    /// executions, such as the routing-logit zeros.
    Const(Tensor),
    /// A parameter leaf, resolved live from the [`bikecap_autograd::ParamStore`]
    /// on every execution so training updates and checkpoint loads keep
    /// compiled plans valid.
    Param(ParamId),
    /// Broadcasting binary arithmetic.
    Zip(ZipOp),
    /// Unary elementwise map.
    Map(MapOp),
    /// `v + s` for a scalar `s`.
    AddScalar(f32),
    /// `v * s` for a scalar `s`.
    Scale(f32),
    /// Rank-2 matrix product.
    Matmul,
    /// Sum over the given axes, kept with extent 1.
    Reduce(Vec<usize>),
    /// Shape view (zero data movement; the planner aliases the buffer).
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
    Softmax(usize),
    /// 3-D convolution (weight operand is parent 1).
    Conv3d(Conv3dSpec),
    /// Transposed 3-D convolution (weight operand is parent 1).
    ConvTranspose3d(Conv3dSpec),
    /// Causal pyramid convolution of pyramid size `k` (weight operand is
    /// parent 1, the dense `(C_out, C_in, k, 2k-1, 2k-1)` parameter).
    PyramidConv(usize),
    /// The capsule squash collapsed to one kernel (see `bikecap-ir::fuse`).
    FusedSquash {
        /// The capsule-dimension axis the squash normalises over.
        axis: usize,
    },
    /// `relu(a + b)` collapsed to one kernel.
    FusedBiasRelu,
    /// Fused routing coupling step `squash_n(Σ_s V·K)`; operands `(V, K)`.
    RoutingCouple,
    /// Fused routing agreement step `L + Σ_c V·Ŝ`; operands `(V, Ŝ, L)`.
    RoutingAgree,
}

/// One node of the lowered graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// What this node computes.
    pub op: Op,
    /// Operand node indices (always lower than this node's own index).
    pub parents: Vec<usize>,
    /// Output shape, validated against the probe pass.
    pub shape: Vec<usize>,
}

/// A lowered, shape-checked expression graph. Build one with
/// [`Graph::from_tape`], optionally run [`crate::fuse::fuse`] over it, then
/// compile it with [`crate::plan::ModelPlan::compile`].
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) input: usize,
    pub(crate) output: usize,
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Graph {
    /// Lowers a traced tape into a graph, designating `input` as the runtime
    /// input leaf and `output` as the value the compiled executor returns.
    ///
    /// # Errors
    ///
    /// [`IrError::Unsupported`] when the tape is untraced or records an op
    /// the IR cannot lower; [`IrError::Shape`] when re-inferred shapes
    /// disagree with the probe pass.
    pub fn from_tape(tape: &Tape, input: Var, output: Var) -> Result<Graph, IrError> {
        if !tape.is_traced() {
            return Err(IrError::Unsupported(
                "tape was not created with Tape::traced".into(),
            ));
        }
        let n = tape.len();
        if input.index() >= n || output.index() >= n {
            return Err(IrError::Plan(format!(
                "input/output vars ({}, {}) out of range for a {n}-node tape",
                input.index(),
                output.index()
            )));
        }
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        for i in 0..n {
            let trace = tape
                .trace_op(i)
                .ok_or_else(|| IrError::Plan(format!("node {i} has no trace record")))?;
            let op = match lower_op(trace, i == input.index())? {
                Op::Const(_) => Op::Const(tape.node_value(i).clone()),
                other => other,
            };
            let parents = tape.node_parents(i).to_vec();
            let shape = tape.node_value(i).shape().to_vec();
            check_shape(&nodes, &op, &parents, &shape, i)?;
            nodes.push(Node { op, parents, shape });
        }
        if !matches!(nodes[input.index()].op, Op::Input) {
            return Err(IrError::Plan(format!(
                "designated input node {} is not a constant leaf",
                input.index()
            )));
        }
        Ok(Graph {
            nodes,
            input: input.index(),
            output: output.index(),
        })
    }

    /// Number of nodes (including ones a later planning pass may drop as
    /// unreachable from the output).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The output shape of the designated output node.
    pub fn out_shape(&self) -> &[usize] {
        &self.nodes[self.output].shape
    }

    /// The nodes in topological (trace) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

fn lower_op(trace: &TraceOp, is_input: bool) -> Result<Op, IrError> {
    Ok(match trace {
        TraceOp::Constant if is_input => Op::Input,
        // Placeholder value; `from_tape` swaps in the real captured tensor.
        TraceOp::Constant => Op::Const(Tensor::zeros(&[0])),
        TraceOp::Param(id) => Op::Param(*id),
        TraceOp::Add => Op::Zip(ZipOp::Add),
        TraceOp::Sub => Op::Zip(ZipOp::Sub),
        TraceOp::Mul => Op::Zip(ZipOp::Mul),
        TraceOp::Div => Op::Zip(ZipOp::Div),
        TraceOp::Neg => Op::Map(MapOp::Neg),
        TraceOp::Abs => Op::Map(MapOp::Abs),
        TraceOp::Relu => Op::Map(MapOp::Relu),
        TraceOp::Sigmoid => Op::Map(MapOp::Sigmoid),
        TraceOp::Tanh => Op::Map(MapOp::Tanh),
        TraceOp::Exp => Op::Map(MapOp::Exp),
        TraceOp::Square => Op::Map(MapOp::Square),
        TraceOp::Sqrt => Op::Map(MapOp::Sqrt),
        TraceOp::AddScalar(s) => Op::AddScalar(*s),
        TraceOp::Scale(s) => Op::Scale(*s),
        TraceOp::Matmul => Op::Matmul,
        TraceOp::Sum => {
            return Err(IrError::Unsupported(
                "full scalar reduction (training loss only)".into(),
            ))
        }
        TraceOp::SumAxesKeepdim(axes) => Op::Reduce(axes.clone()),
        TraceOp::Reshape => Op::Reshape,
        TraceOp::Permute(perm) => Op::Permute(perm.clone()),
        TraceOp::Concat(axis) => Op::Concat(*axis),
        TraceOp::Narrow { axis, start, len } => Op::Narrow {
            axis: *axis,
            start: *start,
            len: *len,
        },
        TraceOp::SoftmaxTrailing(k) => Op::Softmax(*k),
        TraceOp::Conv3d(spec) => Op::Conv3d(*spec),
        TraceOp::ConvTranspose3d(spec) => Op::ConvTranspose3d(*spec),
        TraceOp::PyramidConv(k) => Op::PyramidConv(*k),
        TraceOp::RoutingCouple => Op::RoutingCouple,
        TraceOp::RoutingAgree => Op::RoutingAgree,
    })
}

/// Validates the recorded output shape of node `i` against what the operand
/// shapes imply, and patches [`Op::Const`] placeholders with their values'
/// real shapes (the caller clones the tensor in afterwards).
fn check_shape(
    nodes: &[Node],
    op: &Op,
    parents: &[usize],
    shape: &[usize],
    i: usize,
) -> Result<(), IrError> {
    let parent_shape = |slot: usize| -> Result<&[usize], IrError> {
        parents
            .get(slot)
            .and_then(|&p| nodes.get(p))
            .map(|node| node.shape.as_slice())
            .ok_or_else(|| IrError::Plan(format!("node {i}: missing operand {slot}")))
    };
    let expect = |inferred: Vec<usize>| -> Result<(), IrError> {
        if inferred == shape {
            Ok(())
        } else {
            Err(IrError::Shape(format!(
                "node {i} ({op:?}): inferred {inferred:?} but probe recorded {shape:?}"
            )))
        }
    };
    match op {
        Op::Input | Op::Const(_) | Op::Param(_) => Ok(()),
        Op::Zip(_) | Op::FusedBiasRelu => {
            let (a, b) = (parent_shape(0)?, parent_shape(1)?);
            let plan = bikecap_tensor::exec::plan_broadcast(a, b).ok_or_else(|| {
                IrError::Shape(format!("node {i}: cannot broadcast {a:?} with {b:?}"))
            })?;
            expect(plan.out_shape().to_vec())
        }
        Op::Map(_) | Op::AddScalar(_) | Op::Scale(_) | Op::Softmax(_) | Op::FusedSquash { .. } => {
            expect(parent_shape(0)?.to_vec())
        }
        Op::Matmul => {
            let (a, b) = (parent_shape(0)?, parent_shape(1)?);
            if a.len() != 2 || b.len() != 2 || a[1] != b[0] {
                return Err(IrError::Shape(format!(
                    "node {i}: matmul operands {a:?} x {b:?}"
                )));
            }
            expect(vec![a[0], b[1]])
        }
        Op::Reduce(axes) => {
            let mut inferred = parent_shape(0)?.to_vec();
            for &ax in axes {
                if ax >= inferred.len() {
                    return Err(IrError::Shape(format!(
                        "node {i}: reduce axis {ax} out of range for {inferred:?}"
                    )));
                }
                inferred[ax] = 1;
            }
            expect(inferred)
        }
        Op::Reshape => {
            let p = parent_shape(0)?;
            if numel(p) == numel(shape) {
                Ok(())
            } else {
                Err(IrError::Shape(format!(
                    "node {i}: reshape {p:?} -> {shape:?} changes element count"
                )))
            }
        }
        Op::Permute(perm) => {
            let p = parent_shape(0)?;
            if perm.len() != p.len() {
                return Err(IrError::Shape(format!(
                    "node {i}: permutation {perm:?} has wrong rank for {p:?}"
                )));
            }
            expect(perm.iter().map(|&ax| p[ax]).collect())
        }
        Op::Concat(axis) => {
            let first = parent_shape(0)?.to_vec();
            if *axis >= first.len() {
                return Err(IrError::Shape(format!(
                    "node {i}: concat axis {axis} out of range for {first:?}"
                )));
            }
            let mut inferred = first.clone();
            inferred[*axis] = 0;
            for slot in 0..parents.len() {
                let p = parent_shape(slot)?;
                if p.len() != first.len() {
                    return Err(IrError::Shape(format!(
                        "node {i}: concat rank mismatch {p:?} vs {first:?}"
                    )));
                }
                for (ax, (&got, &want)) in p.iter().zip(&first).enumerate() {
                    if ax != *axis && got != want {
                        return Err(IrError::Shape(format!(
                            "node {i}: concat extent mismatch on axis {ax}: {p:?} vs {first:?}"
                        )));
                    }
                }
                inferred[*axis] += p[*axis];
            }
            expect(inferred)
        }
        Op::Narrow { axis, start, len } => {
            let p = parent_shape(0)?;
            if *axis >= p.len() || start + len > p[*axis] {
                return Err(IrError::Shape(format!(
                    "node {i}: narrow {start}..{} on axis {axis} out of range for {p:?}",
                    start + len
                )));
            }
            let mut inferred = p.to_vec();
            inferred[*axis] = *len;
            expect(inferred)
        }
        Op::Conv3d(spec) => {
            let (x, w) = (parent_shape(0)?, parent_shape(1)?);
            if x.len() != 5 || w.len() != 5 || x[1] != w[1] {
                return Err(IrError::Shape(format!(
                    "node {i}: conv3d operands {x:?} with weight {w:?}"
                )));
            }
            let od = conv_extent(x[2], w[2], spec.stride.0, spec.padding.0, i)?;
            let oh = conv_extent(x[3], w[3], spec.stride.1, spec.padding.1, i)?;
            let ow = conv_extent(x[4], w[4], spec.stride.2, spec.padding.2, i)?;
            expect(vec![x[0], w[0], od, oh, ow])
        }
        Op::PyramidConv(k) => {
            let (x, w) = (parent_shape(0)?, parent_shape(1)?);
            let plan = bikecap_tensor::exec::plan_pyramid_conv(x, w)
                .filter(|p| p.pyramid_size() == *k)
                .ok_or_else(|| {
                    IrError::Shape(format!(
                        "node {i}: size-{k} pyramid conv of {x:?} with weight {w:?}"
                    ))
                })?;
            expect(plan.out_shape().to_vec())
        }
        Op::RoutingCouple => {
            let (v, k) = (parent_shape(0)?, parent_shape(1)?);
            let plan = bikecap_tensor::exec::plan_routing_couple(v, k).ok_or_else(|| {
                IrError::Shape(format!("node {i}: routing couple of V {v:?} with K {k:?}"))
            })?;
            expect(plan.capsules_shape().to_vec())
        }
        Op::RoutingAgree => {
            let (v, s, l) = (parent_shape(0)?, parent_shape(1)?, parent_shape(2)?);
            let plan = bikecap_tensor::exec::plan_routing_agree(v, s, l).ok_or_else(|| {
                IrError::Shape(format!(
                    "node {i}: routing agree of V {v:?}, S {s:?}, logits {l:?}"
                ))
            })?;
            expect(plan.logits_shape().to_vec())
        }
        Op::ConvTranspose3d(spec) => {
            let (x, w) = (parent_shape(0)?, parent_shape(1)?);
            if x.len() != 5 || w.len() != 5 || x[1] != w[0] {
                return Err(IrError::Shape(format!(
                    "node {i}: conv_transpose3d operands {x:?} with weight {w:?}"
                )));
            }
            let od = deconv_extent(x[2], w[2], spec.stride.0, spec.padding.0, i)?;
            let oh = deconv_extent(x[3], w[3], spec.stride.1, spec.padding.1, i)?;
            let ow = deconv_extent(x[4], w[4], spec.stride.2, spec.padding.2, i)?;
            expect(vec![x[0], w[1], od, oh, ow])
        }
    }
}

fn conv_extent(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    i: usize,
) -> Result<usize, IrError> {
    let padded = input + 2 * pad;
    if stride == 0 || padded < kernel {
        return Err(IrError::Shape(format!(
            "node {i}: kernel {kernel} exceeds padded extent {padded} (stride {stride})"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

fn deconv_extent(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    i: usize,
) -> Result<usize, IrError> {
    ((input - 1) * stride + kernel)
        .checked_sub(2 * pad)
        .filter(|&e| e > 0)
        .ok_or_else(|| {
            IrError::Shape(format!(
                "node {i}: transposed-conv output extent underflows \
                 (input {input}, kernel {kernel}, stride {stride}, pad {pad})"
            ))
        })
}
