//! The numeric training executor: a walker over the graph's compiled
//! [`LinearProgram`] tape, dispatching to the kernels crate, including the
//! fused BNFF operators.
//!
//! [`Executor::with_state`] plans the graph once
//! ([`ExecutionPlan::for_graph`]) and lowers it to the same linear tape the
//! frozen serving executor walks ([`LinearProgram::lower_for_training`]).
//! The forward pass runs the tape front to back against one persistent
//! register file: slot registers keep their buffers across instructions and
//! across training steps, while the registers the plan pins — the tensors
//! the backward pass re-reads — are moved into the [`ForwardResult`]. The
//! backward pass walks the same tape back to front and recycles gradient
//! buffers through a [`BufferPool`] as soon as they are consumed.
//!
//! Instructions execute in tape order (layer dependencies are sequential),
//! but every dispatched kernel fans its per-sample / per-channel / per-row
//! work out across the `bnff-parallel` pool, so one training step saturates
//! `BNFF_THREADS` cores: convolutions lower to the cache-blocked packed
//! GEMM (im2col column matrices recycled across steps), which partitions
//! MC-aligned output row blocks, BN reduces its mini-batch statistics with one
//! partial per channel, and the gradient accumulation between branches
//! (`ops::add_assign`) sweeps in parallel chunks.

use crate::error::TrainError;
use crate::params::{NodeParamGrads, NodeParams, ParamSet};
use crate::running::RunningStatSet;
use crate::Result;
use bnff_graph::linear::{Instr, Kernel, LinearProgram};
use bnff_graph::op::{OpKind, PoolKind};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, NodeId};
use bnff_kernels::batchnorm::{
    bn_backward, bn_normalize_into, bn_statistics, BnForwardState, BnParams,
};
use bnff_kernels::concat::{concat_backward, concat_forward_into};
use bnff_kernels::conv::{
    conv2d_backward_input_into, conv2d_backward_weights, conv2d_forward_into,
};
use bnff_kernels::fc::fc_backward;
use bnff_kernels::fused::{
    concat_forward_with_stats_into, conv2d_forward_with_stats_into, norm_relu_conv_backward,
    norm_relu_conv_forward_into, NormReluConvState,
};
use bnff_kernels::pool::{
    avg_pool_backward, global_avg_pool_backward, max_pool_backward, max_pool_forward, MaxPoolState,
};
use bnff_kernels::relu::{relu_backward, relu_forward_inplace, relu_forward_into};
use bnff_kernels::softmax::{
    accuracy, softmax_loss_backward, softmax_loss_forward, SoftmaxLossState,
};
use bnff_kernels::tape::{exec_instr, operand, operands, TapeParams};
use bnff_tensor::pool::BufferPool;
use bnff_tensor::stats::ChannelStats;
use bnff_tensor::{ops, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Which statistics a forward pass normalizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    /// Training semantics: per-channel statistics of the current mini-batch.
    Batch,
    /// Inference (eval) semantics: the executor's running statistics — the
    /// same numbers the freeze pass folds into a frozen graph.
    Running,
}

/// Per-node state captured during the forward pass for reuse in backward.
#[derive(Debug, Clone)]
enum NodeState {
    Bn(BnForwardState),
    MaxPool(MaxPoolState),
    Softmax(SoftmaxLossState),
    NormReluConv(NormReluConvState),
    /// The clipped (post-ReLU) input a fused ReluConv fed to its convolution.
    ClippedInput(Tensor),
}

/// The result of one forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// Mean cross-entropy loss over the mini-batch.
    pub loss: f32,
    /// Classification accuracy over the mini-batch.
    pub accuracy: f32,
    /// The classifier scores fed into the loss node.
    pub scores: Tensor,
    /// The tensors the backward pass re-reads (the plan's saved values),
    /// indexed by node id.
    saved: Vec<Option<Tensor>>,
    stats: Vec<Option<ChannelStats>>,
    states: Vec<Option<NodeState>>,
    labels: Vec<usize>,
    /// Which statistics the pass normalized with.
    mode: StatsMode,
}

impl ForwardResult {
    /// The output tensor of a node, if the forward pass saved it for the
    /// backward pass (Split nodes are aliases and own no tensor).
    pub fn output(&self, id: NodeId) -> Option<&Tensor> {
        self.saved.get(id.index()).and_then(Option::as_ref)
    }

    /// The statistics produced by a statistics-bearing node: the
    /// mini-batch's after [`Executor::forward`], the running ones after
    /// [`Executor::forward_eval`].
    pub fn stats(&self, id: NodeId) -> Option<&ChannelStats> {
        self.stats.get(id.index()).and_then(Option::as_ref)
    }

    /// The saved forward value of an instruction's `idx`-th operand.
    fn operand(&self, instr: &Instr, idx: usize) -> Result<&Tensor> {
        let id = instr.input_nodes[idx];
        self.output(id).ok_or_else(|| TrainError::Missing(format!("forward output of {id}")))
    }

    fn state(&self, instr: &Instr) -> Option<&NodeState> {
        self.states.get(instr.node.index()).and_then(Option::as_ref)
    }

    /// Rejects results of an eval-mode forward, whose normalizations used
    /// running rather than mini-batch statistics.
    fn expect_batch_stats(&self, what: &str) -> Result<()> {
        match self.mode {
            StatsMode::Batch => Ok(()),
            StatsMode::Running => Err(TrainError::InvalidArgument(format!(
                "{what} needs a training-mode forward result, got an eval-mode one"
            ))),
        }
    }
}

/// Parameter gradients (and the data gradient) of one backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Per-node parameter gradients, keyed by node id index.
    pub per_node: HashMap<usize, NodeParamGrads>,
    /// Gradient with respect to the data input, when requested.
    pub d_data: Option<Tensor>,
}

impl Gradients {
    /// Looks up the gradients of one node.
    pub fn node(&self, id: NodeId) -> Option<&NodeParamGrads> {
        self.per_node.get(&id.index())
    }

    /// Global L2 norm of all parameter gradients (useful for debugging
    /// exploding/vanishing gradients).
    pub fn global_norm(&self) -> f64 {
        let sq = |v: &[f32]| v.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>();
        let total: f64 = self
            .per_node
            .values()
            .map(|g| match g {
                NodeParamGrads::Conv { d_weights, d_bias }
                | NodeParamGrads::Fc { d_weights, d_bias } => d_weights.sq_norm() + sq(d_bias),
                NodeParamGrads::Bn { d_gamma, d_beta } => sq(d_gamma) + sq(d_beta),
                NodeParamGrads::ConvBn { d_weights, d_bias, d_gamma, d_beta } => {
                    d_weights.sq_norm() + sq(d_bias) + sq(d_gamma) + sq(d_beta)
                }
            })
            .sum();
        total.sqrt()
    }
}

/// The persistent buffer storage one executor recycles across instructions
/// and across training steps: the tape's register file for forward
/// activations, plus a best-fit free list for backward gradients.
struct Workspace {
    registers: Vec<Option<Tensor>>,
    pool: BufferPool,
}

impl Workspace {
    fn new(program: &LinearProgram, plan: &ExecutionPlan) -> Self {
        Workspace {
            registers: vec![None; program.reg_count()],
            // Backward releases roughly one gradient buffer per activation;
            // bound the free list so give/take imbalance can never grow the
            // pool without limit across steps.
            pool: BufferPool::bounded(2 * plan.naive_total_bytes() + (1 << 20)),
        }
    }
}

impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workspace")
            .field("registers", &self.registers.len())
            .field("registers_filled", &self.registers.iter().flatten().count())
            .field("pool_free_bytes", &self.pool.free_bytes())
            .finish()
    }
}

/// A numeric executor bound to one graph and one parameter set.
#[derive(Debug)]
pub struct Executor {
    graph: Graph,
    params: ParamSet,
    plan: ExecutionPlan,
    program: LinearProgram,
    running: RunningStatSet,
    workspace: Mutex<Workspace>,
}

impl Clone for Executor {
    fn clone(&self) -> Self {
        Executor {
            graph: self.graph.clone(),
            params: self.params.clone(),
            plan: self.plan.clone(),
            program: self.program.clone(),
            running: self.running.clone(),
            // Recycled buffers are per-executor scratch, not state.
            workspace: Mutex::new(Workspace::new(&self.program, &self.plan)),
        }
    }
}

impl Executor {
    /// Creates an executor with freshly initialized parameters.
    ///
    /// # Errors
    /// Returns an error if the graph is structurally invalid.
    pub fn new(graph: Graph, seed: u64) -> Result<Self> {
        graph.validate()?;
        let params = ParamSet::initialize(&graph, seed)?;
        Self::with_params(graph, params)
    }

    /// Creates an executor around an existing parameter set.
    ///
    /// # Errors
    /// Returns an error if the graph cannot be memory-planned (e.g. it is
    /// cyclic) or lowered to a tape.
    pub fn with_params(graph: Graph, params: ParamSet) -> Result<Self> {
        let running = RunningStatSet::initialize(&graph);
        Self::with_state(graph, params, running)
    }

    /// Creates an executor around an existing parameter set *and* running
    /// statistics (checkpoint restore), planning the graph and compiling it
    /// to the tape every pass walks.
    ///
    /// # Errors
    /// Returns an error if the graph cannot be memory-planned (e.g. it is
    /// cyclic) or lowered to a tape (e.g. it has no 4-D data input or no
    /// softmax loss).
    pub fn with_state(graph: Graph, params: ParamSet, running: RunningStatSet) -> Result<Self> {
        let plan = ExecutionPlan::for_graph(&graph)?;
        let program = LinearProgram::lower_for_training(&graph, &plan)?;
        let workspace = Mutex::new(Workspace::new(&program, &plan));
        Ok(Executor { graph, params, plan, program, running, workspace })
    }

    /// The executor's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The memory plan execution is driven by.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The executor's parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameters (used by the optimizer).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// The executor's running (inference) Batch Normalization statistics.
    pub fn running_stats(&self) -> &RunningStatSet {
        &self.running
    }

    /// Replaces the running statistics wholesale (checkpoint restore).
    pub fn set_running_stats(&mut self, running: RunningStatSet) {
        self.running = running;
    }

    /// Folds the mini-batch statistics recorded by a (training-mode)
    /// forward pass into the running EMA — one call per optimization step,
    /// mirroring what training frameworks do inside their BN layers.
    ///
    /// # Errors
    /// Returns [`TrainError::InvalidArgument`] for the result of an
    /// eval-mode forward, and an error when a tracked node's statistics are
    /// absent from `fwd`.
    pub fn update_running_stats(&mut self, fwd: &ForwardResult) -> Result<()> {
        fwd.expect_batch_stats("update_running_stats")?;
        let tracked: Vec<usize> = self.running.iter().map(|(idx, _)| *idx).collect();
        for idx in tracked {
            let id = NodeId::new(idx);
            let stats = fwd.stats(id).ok_or_else(|| {
                TrainError::Missing(format!("mini-batch statistics of {id} in forward result"))
            })?;
            let stats = stats.clone();
            self.running.observe(id, &stats)?;
        }
        Ok(())
    }

    fn conv_params(&self, instr: &Instr) -> Result<(&Tensor, Option<&[f32]>)> {
        match self.params.get(instr.op_node) {
            Some(NodeParams::Conv { weights, bias }) => Ok((weights, bias.as_deref())),
            Some(NodeParams::ConvBn { weights, bias, .. }) => Ok((weights, bias.as_deref())),
            _ => Err(TrainError::Missing(format!("convolution parameters for '{}'", instr.name))),
        }
    }

    fn bn_params(&self, instr: &Instr) -> Result<&BnParams> {
        match self.params.get(instr.op_node) {
            Some(NodeParams::Bn(p)) => Ok(p),
            Some(NodeParams::ConvBn { bn, .. }) => Ok(bn),
            _ => Err(TrainError::Missing(format!("BN parameters for '{}'", instr.name))),
        }
    }

    fn fc_params(&self, instr: &Instr) -> Result<(&Tensor, &[f32])> {
        match self.params.get(instr.op_node) {
            Some(NodeParams::Fc { weights, bias }) => Ok((weights, bias)),
            _ => Err(TrainError::Missing(format!("FC parameters for '{}'", instr.name))),
        }
    }

    /// The parameters the shared forward dispatch reads for a
    /// non-training instruction. The inference-only recipes (a standalone
    /// affine, a ReLU-fused convolution) come from frozen graphs, which run
    /// on the serving executor.
    fn tape_params(&self, instr: &Instr) -> Result<TapeParams<'_>> {
        Ok(match &instr.kernel {
            Kernel::Conv { fused_relu: false, .. } => {
                let (weights, bias) = self.conv_params(instr)?;
                TapeParams::Conv { weights, bias }
            }
            Kernel::FullyConnected => {
                let (weights, bias) = self.fc_params(instr)?;
                TapeParams::Fc { weights, bias }
            }
            Kernel::Affine { .. } | Kernel::Conv { .. } => {
                return Err(TrainError::Unsupported(format!(
                    "'{}' is an inference-only operator; run frozen graphs on the \
                     bnff-serve executor",
                    instr.name
                )))
            }
            _ => TapeParams::None,
        })
    }

    /// Runs the training forward pass on a mini-batch: every normalization
    /// uses the mini-batch's statistics.
    ///
    /// # Errors
    /// Returns an error if an operation cannot be executed or shapes are
    /// inconsistent with the graph.
    pub fn forward(&self, data: &Tensor, labels: &[usize]) -> Result<ForwardResult> {
        self.run_tape(data, labels, StatsMode::Batch)
    }

    /// Runs the forward pass with *inference* semantics: every
    /// normalization uses the executor's running statistics instead of the
    /// mini-batch's, so the output is independent of which samples share
    /// the batch — exactly what a frozen graph computes. The result cannot
    /// drive [`Executor::backward`] or [`Executor::update_running_stats`].
    ///
    /// # Errors
    /// Returns an error if an operation cannot be executed, shapes are
    /// inconsistent with the graph, or a normalization has no running
    /// statistics entry.
    pub fn forward_eval(&self, data: &Tensor, labels: &[usize]) -> Result<ForwardResult> {
        self.run_tape(data, labels, StatsMode::Running)
    }

    /// The running statistics of node `id` as kernel-ready [`ChannelStats`].
    fn running_channel_stats(&self, id: NodeId) -> Result<ChannelStats> {
        self.running
            .get(id)
            .map(crate::running::RunningStats::as_channel_stats)
            .ok_or_else(|| TrainError::Missing(format!("running statistics for {id}")))
    }

    fn run_tape(&self, data: &Tensor, labels: &[usize], mode: StatsMode) -> Result<ForwardResult> {
        let program = &self.program;
        program.input_shape().expect_same(data.shape()).map_err(TrainError::Tensor)?;
        let n = self.graph.node_count();
        let mut stats: Vec<Option<ChannelStats>> = vec![None; n];
        let mut states: Vec<Option<NodeState>> = vec![None; n];
        let mut loss = 0.0f32;
        let mut scores: Option<Tensor> = None;

        // A poisoned lock is recovered: the registers are pure scratch,
        // every instruction overwrites its whole output.
        let mut ws = self.workspace.lock().unwrap_or_else(PoisonError::into_inner);
        let regs = &mut ws.registers;
        regs[program.input_reg()] = Some(data.clone());

        for instr in program.instrs() {
            let id = instr.node;
            let op = match &instr.kernel {
                Kernel::Train(op) => op,
                Kernel::Pool { kind: PoolKind::Max, attrs } => {
                    // The state keeps only shape + argmax, so the pooled
                    // output is owned once by the register file.
                    let (y, state) = max_pool_forward(operand(regs, instr, 0)?, attrs)?;
                    states[id.index()] = Some(NodeState::MaxPool(state));
                    regs[instr.out] = Some(y);
                    continue;
                }
                _ => {
                    exec_instr(regs, instr, self.tape_params(instr)?)?;
                    continue;
                }
            };
            let mut out = instr.take_output(regs);
            match op {
                OpKind::ConvStats { conv: a, .. } => {
                    let x = operand(regs, instr, 0)?;
                    let (w, b) = self.conv_params(instr)?;
                    let s = match mode {
                        StatsMode::Batch => conv2d_forward_with_stats_into(x, w, b, a, &mut out)?,
                        StatsMode::Running => {
                            // Inference needs no batch statistics: run the
                            // plain convolution and hand consumers the
                            // running statistics instead.
                            conv2d_forward_into(x, w, b, a, &mut out)?;
                            self.running_channel_stats(id)?
                        }
                    };
                    stats[id.index()] = Some(s);
                }
                OpKind::ReluConv(a) => {
                    let x = operand(regs, instr, 0)?;
                    let (w, b) = self.conv_params(instr)?;
                    // The clipped activation is computed once: it feeds the
                    // convolution and is then moved into the node state for
                    // the backward pass.
                    let mut clipped = Tensor::zeros(x.shape().clone());
                    relu_forward_into(x, &mut clipped)?;
                    conv2d_forward_into(&clipped, w, b, a, &mut out)?;
                    states[id.index()] = Some(NodeState::ClippedInput(clipped));
                }
                OpKind::BatchNorm(attrs) => {
                    let x = operand(regs, instr, 0)?;
                    let s = match mode {
                        StatsMode::Batch => bn_statistics(x, attrs.one_pass_stats)?,
                        StatsMode::Running => self.running_channel_stats(id)?,
                    };
                    stats[id.index()] = Some(s.clone());
                    let x_hat =
                        bn_normalize_into(x, &s, self.bn_params(instr)?, attrs.epsilon, &mut out)?;
                    states[id.index()] = Some(NodeState::Bn(BnForwardState { stats: s, x_hat }));
                }
                OpKind::SubBnStats(attrs) => {
                    let s = match mode {
                        StatsMode::Batch => {
                            bn_statistics(operand(regs, instr, 0)?, attrs.one_pass_stats)?
                        }
                        StatsMode::Running => self.running_channel_stats(id)?,
                    };
                    // The 2×C summary holds the mean row, then the variance row.
                    let (mean, var) = out.as_mut_slice().split_at_mut(s.channels());
                    mean.copy_from_slice(&s.mean);
                    var.copy_from_slice(&s.var);
                    stats[id.index()] = Some(s);
                }
                OpKind::SubBnNorm(attrs) | OpKind::NormRelu(attrs) => {
                    let x = operand(regs, instr, 0)?;
                    let s = operand_stats(&stats, instr)?;
                    let x_hat =
                        bn_normalize_into(x, &s, self.bn_params(instr)?, attrs.epsilon, &mut out)?;
                    if matches!(op, OpKind::NormRelu(_)) {
                        // The output is saved as the backward ReLU mask;
                        // clip in place instead of materializing a separate
                        // post-ReLU copy.
                        relu_forward_inplace(&mut out);
                    }
                    states[id.index()] = Some(NodeState::Bn(BnForwardState { stats: s, x_hat }));
                }
                OpKind::NormReluConv { conv: a, bn: attrs }
                | OpKind::NormReluConvStats { conv: a, bn_in: attrs, .. } => {
                    let raw = operand(regs, instr, 0)?;
                    let s = operand_stats(&stats, instr)?;
                    let (w, b) = self.conv_params(instr)?;
                    let bn_p = self.bn_params(instr)?;
                    let state = norm_relu_conv_forward_into(
                        raw,
                        &s,
                        bn_p,
                        attrs.epsilon,
                        w,
                        b,
                        a,
                        &mut out,
                    )?;
                    if let OpKind::NormReluConvStats { bn_out, .. } = op {
                        stats[id.index()] = Some(match mode {
                            StatsMode::Batch => bn_statistics(&out, bn_out.one_pass_stats)?,
                            StatsMode::Running => self.running_channel_stats(id)?,
                        });
                    }
                    states[id.index()] = Some(NodeState::NormReluConv(state));
                }
                OpKind::ConcatStats(_) => {
                    let refs = operands(regs, instr)?;
                    let s = match mode {
                        StatsMode::Batch => concat_forward_with_stats_into(&refs, &mut out)?,
                        StatsMode::Running => {
                            concat_forward_into(&refs, &mut out)?;
                            self.running_channel_stats(id)?
                        }
                    };
                    stats[id.index()] = Some(s);
                }
                OpKind::SoftmaxLoss => {
                    let x = operand(regs, instr, 0)?;
                    let state = softmax_loss_forward(x, labels)?;
                    loss = state.loss;
                    scores = Some(x.clone());
                    out.as_mut_slice()[0] = loss;
                    states[id.index()] = Some(NodeState::Softmax(state));
                }
                _ => {
                    return Err(TrainError::Unsupported(format!(
                        "'{}': operator {op} has no training kernel",
                        instr.name
                    )));
                }
            }
            regs[instr.out] = Some(out);
        }

        // The pinned registers hold exactly the values backward re-reads:
        // hand them over to the result (the next pass refills them).
        let mut saved: Vec<Option<Tensor>> = vec![None; n];
        let written = program.instrs().iter().map(|i| (i.node, i.out));
        for (node, reg) in
            std::iter::once((program.input_node(), program.input_reg())).chain(written)
        {
            if self.plan.is_saved(node) {
                saved[node.index()] = regs[reg].take();
            }
        }
        let scores = scores.ok_or_else(|| TrainError::Missing("softmax loss node".to_string()))?;
        let acc = accuracy(&scores, labels)?;
        Ok(ForwardResult {
            loss,
            accuracy: acc,
            scores,
            saved,
            stats,
            states,
            labels: labels.to_vec(),
            mode,
        })
    }

    /// Runs the backward pass, walking the tape in reverse and producing
    /// parameter gradients. Gradient buffers are released into the
    /// executor's pool as soon as an instruction's backward has consumed
    /// them.
    ///
    /// # Errors
    /// Returns [`TrainError::InvalidArgument`] for the result of an
    /// eval-mode forward, and an error if the forward result does not match
    /// this graph.
    pub fn backward(&self, fwd: &ForwardResult) -> Result<Gradients> {
        fwd.expect_batch_stats("backward")?;
        let n = self.graph.node_count();
        let mut d_vals: Vec<Option<Tensor>> = vec![None; n];
        let mut per_node: HashMap<usize, NodeParamGrads> = HashMap::new();

        let mut ws = self.workspace.lock().unwrap_or_else(PoisonError::into_inner);
        let pool = &mut ws.pool;

        for instr in self.program.instrs().iter().rev() {
            let id = instr.node;
            let inputs = &instr.input_nodes;
            match &instr.kernel {
                Kernel::Train(OpKind::SoftmaxLoss) => {
                    let Some(NodeState::Softmax(state)) = fwd.state(instr) else {
                        return Err(TrainError::Missing("softmax state".to_string()));
                    };
                    let d_scores = softmax_loss_backward(state, &fwd.labels)?;
                    accumulate(&mut d_vals, inputs[0], d_scores)?;
                    continue;
                }
                Kernel::EltwiseSum => {
                    if let Some(grad) = d_vals[id.index()].take() {
                        let (last, rest) = inputs.split_last().expect("eltwise sum has inputs");
                        for input in rest {
                            // Occupied slots accumulate by reference; only a
                            // first insertion pays for a copy.
                            accumulate_ref(&mut d_vals, *input, &grad)?;
                        }
                        accumulate(&mut d_vals, *last, grad)?;
                    }
                    continue;
                }
                _ => {}
            }
            let Some(grad) = d_vals[id.index()].take() else {
                continue;
            };
            let missing_state =
                || TrainError::Missing(format!("forward state of '{}'", instr.name));
            let in_shape = || self.graph.node(inputs[0]).map(|n| &n.output_shape);
            // Each arm yields the gradient of its first operand and its
            // parameter gradients.
            let (d_x, param_grads) = match &instr.kernel {
                Kernel::Conv { attrs: a, fused_relu: false, .. }
                | Kernel::Train(OpKind::ConvStats { conv: a, .. }) => {
                    let x = fwd.operand(instr, 0)?;
                    let (w, b) = self.conv_params(instr)?;
                    // The input gradient accumulates into a zeroed buffer
                    // recycled from the pool.
                    let mut d_x = pool.take_tensor(x.shape().clone());
                    conv2d_backward_input_into(&grad, w, a, &mut d_x)?;
                    let (d_weights, d_bias) = conv2d_backward_weights(x, &grad, a, b.is_some())?;
                    (Some(d_x), Some(NodeParamGrads::Conv { d_weights, d_bias }))
                }
                Kernel::Train(OpKind::ReluConv(a)) => {
                    let Some(NodeState::ClippedInput(clipped)) = fwd.state(instr) else {
                        return Err(missing_state());
                    };
                    let (w, b) = self.conv_params(instr)?;
                    let mut d_clipped = pool.take_tensor(clipped.shape().clone());
                    conv2d_backward_input_into(&grad, w, a, &mut d_clipped)?;
                    let (d_weights, d_bias) =
                        conv2d_backward_weights(clipped, &grad, a, b.is_some())?;
                    let d_x = relu_backward(&d_clipped, fwd.operand(instr, 0)?)?;
                    pool.reclaim(d_clipped);
                    (Some(d_x), Some(NodeParamGrads::Conv { d_weights, d_bias }))
                }
                Kernel::Train(
                    OpKind::NormReluConv { conv: a, bn: attrs }
                    | OpKind::NormReluConvStats { conv: a, bn_in: attrs, .. },
                ) => {
                    let Some(NodeState::NormReluConv(state)) = fwd.state(instr) else {
                        return Err(missing_state());
                    };
                    let (w, b) = self.conv_params(instr)?;
                    let bn_p = self.bn_params(instr)?;
                    let g = norm_relu_conv_backward(
                        &grad,
                        state,
                        bn_p,
                        attrs.epsilon,
                        w,
                        a,
                        b.is_some(),
                    )?;
                    let param_grads = NodeParamGrads::ConvBn {
                        d_weights: g.d_weights,
                        d_bias: g.d_bias,
                        d_gamma: g.d_bn.d_gamma,
                        d_beta: g.d_bn.d_beta,
                    };
                    (Some(g.d_raw), Some(param_grads))
                }
                Kernel::Train(
                    op @ (OpKind::BatchNorm(attrs)
                    | OpKind::SubBnNorm(attrs)
                    | OpKind::NormRelu(attrs)),
                ) => {
                    let Some(NodeState::Bn(state)) = fwd.state(instr) else {
                        return Err(missing_state());
                    };
                    let (d_x, g) = if let OpKind::NormRelu(_) = op {
                        // The saved output doubles as the ReLU mask.
                        let y = fwd.output(id).ok_or_else(missing_state)?;
                        let d_post_bn = relu_backward(&grad, y)?;
                        bn_backward(&d_post_bn, state, self.bn_params(instr)?, attrs.epsilon)?
                    } else {
                        bn_backward(&grad, state, self.bn_params(instr)?, attrs.epsilon)?
                    };
                    (Some(d_x), Some(NodeParamGrads::Bn { d_gamma: g.d_gamma, d_beta: g.d_beta }))
                }
                // The statistics path carries no independent gradient: the
                // normalization backward already differentiates through
                // mean/variance.
                Kernel::Train(OpKind::SubBnStats(_)) => (None, None),
                Kernel::Relu => (Some(relu_backward(&grad, fwd.operand(instr, 0)?)?), None),
                // Pooling backward needs only the input *shape*, which the
                // graph records; the input tensor was not retained.
                Kernel::Pool { kind: PoolKind::Max, .. } => {
                    let Some(NodeState::MaxPool(state)) = fwd.state(instr) else {
                        return Err(missing_state());
                    };
                    (Some(max_pool_backward(&grad, state, in_shape()?)?), None)
                }
                Kernel::Pool { kind: PoolKind::Average, attrs } => {
                    (Some(avg_pool_backward(&grad, in_shape()?, attrs)?), None)
                }
                Kernel::GlobalAvgPool => {
                    (Some(global_avg_pool_backward(&grad, in_shape()?)?), None)
                }
                Kernel::Concat | Kernel::Train(OpKind::ConcatStats(_)) => {
                    let shapes = inputs
                        .iter()
                        .map(|i| self.graph.node(*i).map(|n| n.output_shape.clone()))
                        .collect::<bnff_graph::Result<Vec<_>>>()?;
                    for (input, g) in inputs.iter().zip(concat_backward(&grad, &shapes)?) {
                        accumulate(&mut d_vals, *input, g)?;
                    }
                    (None, None)
                }
                Kernel::FullyConnected => {
                    let (w, _) = self.fc_params(instr)?;
                    let (d_x, d_weights, d_bias) = fc_backward(fwd.operand(instr, 0)?, w, &grad)?;
                    (Some(d_x), Some(NodeParamGrads::Fc { d_weights, d_bias }))
                }
                _ => {
                    return Err(TrainError::Unsupported(format!(
                        "'{}' is an inference-only operator with no backward pass",
                        instr.name
                    )));
                }
            };
            if let Some(g) = param_grads {
                per_node.insert(id.index(), g);
            }
            if let Some(d_x) = d_x {
                accumulate(&mut d_vals, inputs[0], d_x)?;
            }
            // This instruction's incoming gradient is fully consumed;
            // recycle its storage for the next allocation.
            pool.reclaim(grad);
        }

        Ok(Gradients { per_node, d_data: d_vals[self.program.input_node().index()].take() })
    }
}

/// The statistics an instruction's second operand (a statistics-bearing
/// node) produced earlier in the pass.
fn operand_stats(stats: &[Option<ChannelStats>], instr: &Instr) -> Result<ChannelStats> {
    stats[instr.input_nodes[1].index()]
        .clone()
        .ok_or_else(|| TrainError::Missing(format!("statistics for '{}'", instr.name)))
}

/// Adds `grad` into the gradient slot of `id`, cloning it only when the
/// slot is still empty.
fn accumulate_ref(d_vals: &mut [Option<Tensor>], id: NodeId, grad: &Tensor) -> Result<()> {
    match &mut d_vals[id.index()] {
        Some(existing) => ops::add_assign(existing, grad).map_err(TrainError::Tensor),
        slot => {
            *slot = Some(grad.clone());
            Ok(())
        }
    }
}

/// Adds `grad` into the gradient slot of `id`, moving it in when the slot
/// is still empty.
fn accumulate(d_vals: &mut [Option<Tensor>], id: NodeId, grad: Tensor) -> Result<()> {
    match &mut d_vals[id.index()] {
        Some(existing) => ops::add_assign(existing, &grad).map_err(TrainError::Tensor),
        slot => {
            *slot = Some(grad);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;
    use bnff_graph::op::Conv2dAttrs;
    use bnff_graph::passes::{BnffPass, Pass};
    use bnff_tensor::init::Initializer;
    use bnff_tensor::Shape;

    fn tiny_classifier(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input("data", Shape::nchw(batch, 3, 8, 8)).unwrap();
        let labels = b.input("labels", Shape::vector(batch)).unwrap();
        let c1 = b.conv2d(x, Conv2dAttrs::same_3x3(8), "conv1").unwrap();
        let bn = b.batch_norm_default(c1, "bn1").unwrap();
        let r = b.relu(bn, "relu1").unwrap();
        let c2 = b.conv2d(r, Conv2dAttrs::pointwise(8), "conv2").unwrap();
        let gap = b.global_avg_pool(c2, "gap").unwrap();
        let fc = b.fully_connected(gap, 4, "fc").unwrap();
        b.softmax_loss(fc, labels, "loss").unwrap();
        b.finish()
    }

    fn random_batch(batch: usize, classes: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut init = Initializer::seeded(seed);
        let data = init.uniform(Shape::nchw(batch, 3, 8, 8), -1.0, 1.0);
        let labels = (0..batch).map(|i| i % classes).collect();
        (data, labels)
    }

    #[test]
    fn forward_produces_finite_loss() {
        let exec = Executor::new(tiny_classifier(4), 1).unwrap();
        let (data, labels) = random_batch(4, 4, 2);
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.loss.is_finite());
        assert!(fwd.loss > 0.0);
        assert!((0.0..=1.0).contains(&fwd.accuracy));
        assert_eq!(fwd.scores.shape(), &Shape::matrix(4, 4));
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let exec = Executor::new(tiny_classifier(4), 1).unwrap();
        let (data, labels) = random_batch(2, 4, 2);
        assert!(exec.forward(&data, &labels).is_err());
    }

    #[test]
    fn backward_produces_gradients_for_every_parameterised_node() {
        let exec = Executor::new(tiny_classifier(4), 3).unwrap();
        let (data, labels) = random_batch(4, 4, 4);
        let fwd = exec.forward(&data, &labels).unwrap();
        let grads = exec.backward(&fwd).unwrap();
        assert_eq!(grads.per_node.len(), exec.params().len());
        assert!(grads.global_norm() > 0.0);
        assert!(grads.d_data.is_some());
    }

    /// One training step (forward + backward) on a seeded batch of 4.
    fn step(exec: &Executor, seed: u64) -> (ForwardResult, Gradients) {
        let (data, labels) = random_batch(4, 4, seed);
        let fwd = exec.forward(&data, &labels).unwrap();
        let grads = exec.backward(&fwd).unwrap();
        (fwd, grads)
    }

    /// Asserts two training steps are bit-identical.
    fn assert_step_bit_identical(a: (ForwardResult, Gradients), b: (ForwardResult, Gradients)) {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.0.loss.to_bits(), b.0.loss.to_bits());
        assert_eq!(a.0.accuracy.to_bits(), b.0.accuracy.to_bits());
        assert_eq!(bits(&a.0.scores), bits(&b.0.scores));
        assert_eq!(a.1.per_node.len(), b.1.per_node.len());
        for (idx, ga) in &a.1.per_node {
            assert_eq!(format!("{ga:?}"), format!("{:?}", b.1.per_node[idx]), "node {idx}");
        }
        assert_eq!(bits(a.1.d_data.as_ref().unwrap()), bits(b.1.d_data.as_ref().unwrap()));
    }

    #[test]
    fn planned_and_naive_paths_are_bit_identical() {
        // The reference is a fresh executor; the checked one first runs a
        // step on different data, so every recycled register is dirty.
        let exec = Executor::new(tiny_classifier(4), 11).unwrap();
        let fresh = Executor::with_state(
            exec.graph().clone(),
            exec.params().clone(),
            exec.running_stats().clone(),
        )
        .unwrap();
        step(&exec, 99);
        assert_step_bit_identical(step(&exec, 12), step(&fresh, 12));
    }

    #[test]
    fn nan_filled_registers_do_not_change_results() {
        // Every kernel overwrites its whole output register, so a register
        // file full of NaN must not leak into any result.
        let baseline = tiny_classifier(4);
        for graph in [baseline.clone(), BnffPass::new().run(&baseline).unwrap()] {
            let exec = Executor::new(graph, 19).unwrap();
            let fresh = exec.clone();
            {
                let mut ws = exec.workspace.lock().unwrap();
                for (reg, &bytes) in exec.program.reg_bytes().iter().enumerate() {
                    let len = bytes / 4;
                    ws.registers[reg] =
                        Some(Tensor::from_vec(Shape::vector(len), vec![f32::NAN; len]).unwrap());
                }
            }
            let checked = step(&exec, 20);
            assert!(checked.0.loss.is_finite());
            assert_step_bit_identical(checked, step(&fresh, 20));
        }
    }

    #[test]
    fn inference_only_recipes_are_unsupported() {
        // A standalone affine and a ReLU-fused conv only come out of the
        // freeze pass; the training tape refuses to run them.
        let find = |g: &Graph, name: &str| g.nodes().find(|n| n.name == name).unwrap().id;
        let mut affine = tiny_classifier(4);
        affine.set_op(find(&affine, "relu1"), OpKind::ChannelAffine).unwrap();
        let mut conv_relu = tiny_classifier(4);
        let conv2 = find(&conv_relu, "conv2");
        conv_relu.set_op(conv2, OpKind::ConvRelu(Conv2dAttrs::pointwise(8))).unwrap();
        let (data, labels) = random_batch(4, 4, 23);
        for graph in [affine, conv_relu] {
            let exec = Executor::new(graph, 24).unwrap();
            let err = exec.forward(&data, &labels);
            assert!(matches!(err, Err(TrainError::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn backward_and_running_update_reject_eval_results() {
        // An eval-mode result was normalized with running statistics; BN's
        // batch-statistics backward formula does not apply to it.
        let mut exec = Executor::new(tiny_classifier(4), 21).unwrap();
        let (data, labels) = random_batch(4, 4, 22);
        let eval = exec.forward_eval(&data, &labels).unwrap();
        assert!(matches!(exec.backward(&eval), Err(TrainError::InvalidArgument(_))));
        let before = format!("{:?}", exec.running_stats());
        assert!(matches!(exec.update_running_stats(&eval), Err(TrainError::InvalidArgument(_))));
        assert_eq!(format!("{:?}", exec.running_stats()), before);
        // Training-mode results still drive both.
        let fwd = exec.forward(&data, &labels).unwrap();
        exec.backward(&fwd).unwrap();
        exec.update_running_stats(&fwd).unwrap();
    }

    #[test]
    fn planned_forward_retains_only_backward_reads() {
        let exec = Executor::new(tiny_classifier(4), 13).unwrap();
        let (data, labels) = random_batch(4, 4, 14);
        let fwd = exec.forward(&data, &labels).unwrap();
        let find = |name: &str| exec.graph().nodes().find(|n| n.name == name).unwrap().id;
        // conv1's output feeds only BN, which keeps its own state.
        assert!(fwd.output(find("conv1")).is_none());
        // relu1's output is conv2's saved ifmap.
        assert!(fwd.output(find("relu1")).is_some());
        // Every saved value is handed over, and nothing else.
        for node in exec.graph().nodes() {
            assert_eq!(
                fwd.output(node.id).is_some(),
                exec.plan().is_saved(node.id),
                "{}",
                node.name
            );
        }
    }

    #[test]
    fn workspace_recycles_buffers_across_steps() {
        let exec = Executor::new(tiny_classifier(4), 15).unwrap();
        step(&exec, 16);
        let before = exec.workspace.lock().unwrap().pool.hits();
        step(&exec, 16);
        let after = exec.workspace.lock().unwrap().pool.hits();
        assert!(after > before, "second step should reuse pooled gradient buffers");
    }

    #[test]
    fn loss_gradient_check_through_the_whole_network() {
        // Perturb a single convolution weight and compare the numerical
        // derivative of the loss against the analytic gradient.
        let exec = Executor::new(tiny_classifier(2), 5).unwrap();
        let (data, labels) = random_batch(2, 4, 6);
        let fwd = exec.forward(&data, &labels).unwrap();
        let grads = exec.backward(&fwd).unwrap();

        let conv_id = exec.graph().nodes().find(|n| n.name == "conv1").unwrap().id;
        let analytic = match grads.node(conv_id).unwrap() {
            NodeParamGrads::Conv { d_weights, .. } => d_weights.get(11).unwrap(),
            _ => panic!("expected conv gradients"),
        };

        let h = 1e-2f32;
        let mut plus = exec.clone();
        if let Some(NodeParams::Conv { weights, .. }) = plus.params_mut().get_mut(conv_id) {
            let v = weights.get(11).unwrap();
            weights.set(11, v + h).unwrap();
        }
        let mut minus = exec.clone();
        if let Some(NodeParams::Conv { weights, .. }) = minus.params_mut().get_mut(conv_id) {
            let v = weights.get(11).unwrap();
            weights.set(11, v - h).unwrap();
        }
        let lp = plus.forward(&data, &labels).unwrap().loss;
        let lm = minus.forward(&data, &labels).unwrap().loss;
        let numeric = f64::from(lp - lm) / (2.0 * f64::from(h));
        assert!(
            (numeric - f64::from(analytic)).abs() < 5e-3,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn executes_bnff_restructured_graphs() {
        let baseline = tiny_classifier(4);
        let restructured = BnffPass::new().run(&baseline).unwrap();
        let exec = Executor::new(restructured, 7).unwrap();
        let (data, labels) = random_batch(4, 4, 8);
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.loss.is_finite());
        let grads = exec.backward(&fwd).unwrap();
        assert!(grads.global_norm() > 0.0);
        // The fused graph must still own parameters for every conv/BN/FC.
        assert!(!grads.per_node.is_empty());
    }

    #[test]
    fn forward_exposes_stats_and_naive_outputs() {
        let baseline = tiny_classifier(2);
        let restructured = BnffPass::new().run(&baseline).unwrap();
        let exec = Executor::new(restructured, 9).unwrap();
        let (data, labels) = random_batch(2, 4, 10);
        let stats_node =
            exec.graph().nodes().find(|n| matches!(n.op, OpKind::ConvStats { .. })).unwrap().id;
        let fwd = exec.forward(&data, &labels).unwrap();
        assert!(fwd.stats(stats_node).is_some());
        // The eval pass hands consumers the running statistics instead.
        let eval = exec.forward_eval(&data, &labels).unwrap();
        let running = exec.running_stats().get(stats_node).unwrap();
        assert_eq!(eval.stats(stats_node).unwrap().mean, running.mean);
        // The ConvStats output only feeds normalizations: nothing saves it.
        assert!(fwd.output(stats_node).is_none());
    }

    #[test]
    fn plan_reports_memory_savings_for_the_executor_graph() {
        let exec = Executor::new(tiny_classifier(4), 17).unwrap();
        let plan = exec.plan();
        assert!(plan.planned_peak_bytes() <= plan.naive_total_bytes());
        assert!(plan.slot_count() >= 1);
        // The tape's register file: one register per slot, one per saved value.
        assert!(exec.program.reg_count() > plan.slot_count());
    }
}
