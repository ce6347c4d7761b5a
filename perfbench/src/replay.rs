//! Kernel replay: per-op forward and backward time of one training step.
//!
//! The replay walks a training graph the way `bnff_train::Executor` does
//! and, for each node, calls the same `bnff-kernels` entry points the
//! executor calls for that op kind, on tensors of that node's shapes. The
//! forward pass chains real outputs (so normalizations see real statistics);
//! the backward pass feeds each node a fixed random upstream gradient of its
//! output shape. Executor bookkeeping — gradient accumulation between
//! branches, buffer recycling — is not replayed, which is what
//! `kernels.replay_over_step` shows.

use crate::Result;
use bnff_graph::op::{OpKind, PoolKind};
use bnff_graph::{Graph, Node};
use bnff_kernels::batchnorm::{
    bn_backward, bn_normalize_into, bn_statistics, BnForwardState, BnParams,
};
use bnff_kernels::concat::{concat_backward, concat_forward_into};
use bnff_kernels::conv::{
    conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward_into,
};
use bnff_kernels::fc::{fc_backward, fc_forward};
use bnff_kernels::fused::{
    conv2d_forward_with_stats_into, norm_relu_conv_backward, norm_relu_conv_forward_into,
    NormReluConvState,
};
use bnff_kernels::pool::{
    avg_pool_backward, avg_pool_forward_into, global_avg_pool_backward, global_avg_pool_forward,
    max_pool_backward, max_pool_forward, MaxPoolState,
};
use bnff_kernels::relu::{relu_backward, relu_forward_inplace, relu_forward_into};
use bnff_kernels::softmax::{softmax_loss_backward, softmax_loss_forward, SoftmaxLossState};
use bnff_tensor::init::Initializer;
use bnff_tensor::stats::ChannelStats;
use bnff_tensor::{Shape, Tensor};
use bnff_train::{Executor, NodeParams};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

const INPUT_SEED: u64 = 0x5EED_CAFE;

/// Replayed time of one op kind over one training step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTiming {
    /// Forward microseconds per step (median over repetitions).
    pub fwd_us: f64,
    /// Backward microseconds per step (median over repetitions).
    pub bwd_us: f64,
    /// Nodes of this kind in the graph (forward calls per step).
    pub calls: usize,
    /// Whether the kind has a backward kernel at all.
    pub has_backward: bool,
}

/// What a node's forward pass keeps for its backward pass.
enum Saved {
    Nothing,
    Bn(BnForwardState),
    NormRelu(BnForwardState),
    NormReluConv(NormReluConvState),
    MaxPool(MaxPoolState),
    Softmax(SoftmaxLossState),
}

/// Per-kind nanosecond totals of one repetition.
#[derive(Default, Clone, Copy)]
struct Totals {
    fwd_ns: u128,
    bwd_ns: u128,
    calls: usize,
    bwd_calls: usize,
}

/// Replays `exec`'s graph `reps` times (after one untimed warm-up) and
/// returns per-op-kind timings, keyed by `OpKind::name`.
///
/// # Errors
/// Returns an error when a kernel fails or the graph holds an op kind the
/// replay does not cover.
pub fn run(exec: &Executor, reps: usize) -> Result<BTreeMap<&'static str, OpTiming>> {
    let graph = exec.graph();
    let order = graph.topo_order()?;
    let n = graph.node_count();
    let data = graph
        .nodes()
        .find(|node| matches!(node.op, OpKind::Input) && node.output_shape.rank() == 4)
        .ok_or("graph has no image input")?;
    let mut init = Initializer::seeded(INPUT_SEED);
    let mut values: Vec<Option<Tensor>> = vec![None; n];
    values[data.id.index()] = Some(init.uniform(data.output_shape.clone(), -1.0, 1.0));
    let mut upstream: HashMap<Shape, Tensor> = HashMap::new();
    for node in graph.nodes() {
        let shape = node.output_shape.clone();
        upstream.entry(shape.clone()).or_insert_with(|| init.uniform(shape, -1e-2, 1e-2));
    }

    let mut per_rep: Vec<BTreeMap<&'static str, Totals>> = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        let mut stats: Vec<Option<ChannelStats>> = vec![None; n];
        let mut saved: Vec<Saved> = (0..n).map(|_| Saved::Nothing).collect();
        for &id in &order {
            let node = graph.node(id)?;
            if matches!(node.op, OpKind::Input) {
                continue;
            }
            // Reuse last repetition's output buffer, as the executor's arena does.
            let mut out = values[id.index()].take();
            let start = Instant::now();
            let (kept, st) = forward(exec, node, &values, &stats, &mut out)?;
            let ns = start.elapsed().as_nanos();
            let t = totals.entry(node.op.name()).or_default();
            t.fwd_ns += ns;
            t.calls += 1;
            values[id.index()] = out;
            stats[id.index()] = st;
            saved[id.index()] = kept;
        }
        for &id in order.iter().rev() {
            let node = graph.node(id)?;
            if matches!(node.op, OpKind::Input | OpKind::SubBnStats(_)) {
                continue;
            }
            let grad = &upstream[&node.output_shape];
            let start = Instant::now();
            backward(exec, graph, node, grad, &values, &saved[id.index()])?;
            let ns = start.elapsed().as_nanos();
            let t = totals.entry(node.op.name()).or_default();
            t.bwd_ns += ns;
            t.bwd_calls += 1;
        }
        if rep > 0 {
            per_rep.push(totals);
        }
    }

    let mut out = BTreeMap::new();
    for (&kind, first) in per_rep.first().ok_or("no replay repetitions")? {
        let pick = |f: fn(&Totals) -> u128| {
            let v: Vec<f64> = per_rep.iter().map(|r| f(&r[kind]) as f64 * 1e-3).collect();
            crate::stats::median(&v)
        };
        out.insert(
            kind,
            OpTiming {
                fwd_us: pick(|t| t.fwd_ns),
                bwd_us: pick(|t| t.bwd_ns),
                calls: first.calls,
                has_backward: first.bwd_calls > 0,
            },
        );
    }
    Ok(out)
}

fn input<'a>(values: &'a [Option<Tensor>], node: &Node, idx: usize) -> Result<&'a Tensor> {
    values[node.inputs[idx].index()]
        .as_ref()
        .ok_or_else(|| format!("replay: no value for input {idx} of {}", node.name).into())
}

fn input_stats<'a>(stats: &'a [Option<ChannelStats>], node: &Node) -> Result<&'a ChannelStats> {
    stats[node.inputs[1].index()]
        .as_ref()
        .ok_or_else(|| format!("replay: no statistics for {}", node.name).into())
}

fn conv_params<'a>(exec: &'a Executor, node: &Node) -> Result<(&'a Tensor, Option<&'a [f32]>)> {
    match exec.params().get(node.id) {
        Some(NodeParams::Conv { weights, bias })
        | Some(NodeParams::ConvBn { weights, bias, .. }) => Ok((weights, bias.as_deref())),
        _ => Err(format!("replay: no conv parameters for {}", node.name).into()),
    }
}

fn bn_params<'a>(exec: &'a Executor, node: &Node) -> Result<&'a BnParams> {
    match exec.params().get(node.id) {
        Some(NodeParams::Bn(p)) | Some(NodeParams::ConvBn { bn: p, .. }) => Ok(p),
        _ => Err(format!("replay: no BN parameters for {}", node.name).into()),
    }
}

fn fc_params<'a>(exec: &'a Executor, node: &Node) -> Result<(&'a Tensor, &'a [f32])> {
    match exec.params().get(node.id) {
        Some(NodeParams::Fc { weights, bias }) => Ok((weights, bias)),
        _ => Err(format!("replay: no FC parameters for {}", node.name).into()),
    }
}

/// Fixed labels `i mod classes` for an `N × classes` score matrix.
fn labels(scores: &Tensor) -> Result<Vec<usize>> {
    let classes = scores.shape().dim(1)?;
    Ok((0..scores.shape().dim(0)?).map(|i| i % classes).collect())
}

/// Runs one node's forward kernels into `out` (allocated on first use).
fn forward(
    exec: &Executor,
    node: &Node,
    values: &[Option<Tensor>],
    stats: &[Option<ChannelStats>],
    out: &mut Option<Tensor>,
) -> Result<(Saved, Option<ChannelStats>)> {
    let buf = out.get_or_insert_with(|| Tensor::zeros(node.output_shape.clone()));
    Ok(match &node.op {
        OpKind::Conv2d(a) => {
            let (w, b) = conv_params(exec, node)?;
            conv2d_forward_into(input(values, node, 0)?, w, b, a, buf)?;
            (Saved::Nothing, None)
        }
        OpKind::ConvStats { conv: a, .. } => {
            let (w, b) = conv_params(exec, node)?;
            let s = conv2d_forward_with_stats_into(input(values, node, 0)?, w, b, a, buf)?;
            (Saved::Nothing, Some(s))
        }
        OpKind::BatchNorm(attrs) => {
            let x = input(values, node, 0)?;
            let s = bn_statistics(x, attrs.one_pass_stats)?;
            let x_hat = bn_normalize_into(x, &s, bn_params(exec, node)?, attrs.epsilon, buf)?;
            (Saved::Bn(BnForwardState { stats: s.clone(), x_hat }), Some(s))
        }
        OpKind::SubBnStats(attrs) => {
            let s = bn_statistics(input(values, node, 0)?, attrs.one_pass_stats)?;
            (Saved::Nothing, Some(s))
        }
        OpKind::NormRelu(attrs) => {
            let s = input_stats(stats, node)?.clone();
            let x = input(values, node, 0)?;
            let x_hat = bn_normalize_into(x, &s, bn_params(exec, node)?, attrs.epsilon, buf)?;
            relu_forward_inplace(buf);
            (Saved::NormRelu(BnForwardState { stats: s, x_hat }), None)
        }
        OpKind::NormReluConv { conv: a, bn: attrs }
        | OpKind::NormReluConvStats { conv: a, bn_in: attrs, .. } => {
            let s = input_stats(stats, node)?;
            let (w, b) = conv_params(exec, node)?;
            let raw = input(values, node, 0)?;
            let state = norm_relu_conv_forward_into(
                raw,
                s,
                bn_params(exec, node)?,
                attrs.epsilon,
                w,
                b,
                a,
                buf,
            )?;
            let out_stats = match &node.op {
                OpKind::NormReluConvStats { bn_out, .. } => {
                    Some(bn_statistics(buf, bn_out.one_pass_stats)?)
                }
                _ => None,
            };
            (Saved::NormReluConv(state), out_stats)
        }
        OpKind::Relu => {
            relu_forward_into(input(values, node, 0)?, buf)?;
            (Saved::Nothing, None)
        }
        OpKind::Pool { kind: PoolKind::Average, attrs } => {
            avg_pool_forward_into(input(values, node, 0)?, attrs, buf)?;
            (Saved::Nothing, None)
        }
        OpKind::Pool { kind: PoolKind::Max, attrs } => {
            let (y, state) = max_pool_forward(input(values, node, 0)?, attrs)?;
            *buf = y;
            (Saved::MaxPool(state), None)
        }
        OpKind::GlobalAvgPool => {
            *buf = global_avg_pool_forward(input(values, node, 0)?)?;
            (Saved::Nothing, None)
        }
        OpKind::Concat => {
            let refs = (0..node.inputs.len())
                .map(|i| input(values, node, i))
                .collect::<Result<Vec<_>>>()?;
            concat_forward_into(&refs, buf)?;
            (Saved::Nothing, None)
        }
        OpKind::FullyConnected { .. } => {
            let (w, b) = fc_params(exec, node)?;
            *buf = fc_forward(input(values, node, 0)?, w, b)?;
            (Saved::Nothing, None)
        }
        OpKind::SoftmaxLoss => {
            let scores = input(values, node, 0)?;
            let state = softmax_loss_forward(scores, &labels(scores)?)?;
            black_box(state.loss);
            (Saved::Softmax(state), None)
        }
        other => return Err(format!("replay: op {} is not replayed", other.name()).into()),
    })
}

/// Runs one node's backward kernels; the results are dropped.
fn backward(
    exec: &Executor,
    graph: &Graph,
    node: &Node,
    grad: &Tensor,
    values: &[Option<Tensor>],
    saved: &Saved,
) -> Result<()> {
    let in_shape =
        |idx: usize| -> Result<Shape> { Ok(graph.node(node.inputs[idx])?.output_shape.clone()) };
    match (&node.op, saved) {
        (OpKind::Conv2d(a) | OpKind::ConvStats { conv: a, .. }, _) => {
            let x = input(values, node, 0)?;
            let (w, b) = conv_params(exec, node)?;
            let mut d_x = Tensor::zeros(x.shape().clone());
            conv2d_backward_input_into(grad, w, a, &mut d_x)?;
            black_box(conv2d_backward_weights(x, grad, a, b.is_some())?);
            black_box(d_x);
        }
        (OpKind::BatchNorm(attrs), Saved::Bn(state)) => {
            black_box(bn_backward(grad, state, bn_params(exec, node)?, attrs.epsilon)?);
        }
        (OpKind::NormRelu(attrs), Saved::NormRelu(state)) => {
            let y = values[node.id.index()].as_ref().ok_or("replay: NormRelu output")?;
            let d_post_bn = relu_backward(grad, y)?;
            black_box(bn_backward(&d_post_bn, state, bn_params(exec, node)?, attrs.epsilon)?);
        }
        (
            OpKind::NormReluConv { conv: a, bn: attrs }
            | OpKind::NormReluConvStats { conv: a, bn_in: attrs, .. },
            Saved::NormReluConv(state),
        ) => {
            let (w, b) = conv_params(exec, node)?;
            black_box(norm_relu_conv_backward(
                grad,
                state,
                bn_params(exec, node)?,
                attrs.epsilon,
                w,
                a,
                b.is_some(),
            )?);
        }
        (OpKind::Relu, _) => {
            black_box(relu_backward(grad, input(values, node, 0)?)?);
        }
        (OpKind::Pool { kind: PoolKind::Average, attrs }, _) => {
            black_box(avg_pool_backward(grad, &in_shape(0)?, attrs)?);
        }
        (OpKind::Pool { kind: PoolKind::Max, .. }, Saved::MaxPool(state)) => {
            black_box(max_pool_backward(grad, state, &in_shape(0)?)?);
        }
        (OpKind::GlobalAvgPool, _) => {
            black_box(global_avg_pool_backward(grad, &in_shape(0)?)?);
        }
        (OpKind::Concat, _) => {
            let shapes = (0..node.inputs.len()).map(in_shape).collect::<Result<Vec<_>>>()?;
            black_box(concat_backward(grad, &shapes)?);
        }
        (OpKind::FullyConnected { .. }, _) => {
            let (w, _) = fc_params(exec, node)?;
            black_box(fc_backward(input(values, node, 0)?, w, grad)?);
        }
        (OpKind::SoftmaxLoss, Saved::Softmax(state)) => {
            black_box(softmax_loss_backward(state, &labels(&state.probs)?)?);
        }
        (op, _) => return Err(format!("replay: no backward for op {}", op.name()).into()),
    }
    Ok(())
}
