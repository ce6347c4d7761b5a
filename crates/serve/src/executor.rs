//! The forward-only frozen-graph executor.
//!
//! Matching on every node's `OpKind`, looking parameters up in a hash map,
//! resolving Split aliases and querying the memory plan's liveness tables
//! is all request-invariant work, so the executor compiles the frozen graph
//! once, at construction, into a
//! [`LinearProgram`]: a flat instruction tape in topological order whose
//! instructions carry fully-resolved kernel recipes (op kind, shapes,
//! fused-ReLU flag) and pre-resolved register operands.
//! [`FrozenExecutor::infer`] is a tape walker — `for instr in program`
//! handing each instruction and its pre-bound parameter handle to the
//! forward dispatch the training executor shares
//! ([`bnff_kernels::tape::exec_instr`]); no parameter lookup survives to
//! request time.
//!
//! Kernels are the same `bnff-kernels` entry points the trainer uses, so
//! inference saturates `BNFF_THREADS` cores with thread-count-identical
//! results — which also makes the program's serial hint free to honour:
//! cheap batch-1 programs run under a single thread to skip the fan-out
//! cost without changing a single bit of output.
//!
//! ## Per-op profiling
//!
//! Every executor carries an opt-in [`OpProfiler`] with one slot per tape
//! instruction. When enabled ([`FrozenExecutor::enable_profiling`]) the
//! tape walk times each instruction and accumulates per-slot nanoseconds;
//! [`FrozenExecutor::profile`] folds the slots back into per-instruction
//! [`OpProfile`] rows (node, op kind, call count, total/max ns) that the
//! bench harness pairs with `bnff-memsim`'s predicted DRAM bytes. When
//! disabled — the default — the cost is a single relaxed atomic load per
//! forward pass: the instrumented loop is never entered and inference
//! remains bit-identical either way (timing never touches data).

use crate::error::ServeError;
use crate::params::{FrozenParamSet, FrozenParams};
use crate::Result;
use bnff_graph::linear::{Kernel, LinearProgram};
use bnff_graph::plan::ExecutionPlan;
use bnff_graph::{Graph, NodeId};
use bnff_kernels::tape::{exec_instr, TapeParams};
use bnff_obs::OpProfiler;
use bnff_parallel::with_threads;
use bnff_tensor::{Shape, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated timings of one tape instruction (see
/// [`FrozenExecutor::profile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// The graph node the instruction computes.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// The kernel's op-kind label (`"conv"`, `"affine"`, …).
    pub kind: &'static str,
    /// Recorded executions.
    pub count: u64,
    /// Total nanoseconds across executions.
    pub total_ns: u64,
    /// Slowest single execution in nanoseconds.
    pub max_ns: u64,
}

/// A forward-only executor bound to one frozen graph at one batch size.
#[derive(Debug)]
pub struct FrozenExecutor {
    graph: Graph,
    plan: ExecutionPlan,
    program: LinearProgram,
    /// Per-instruction parameter handles, aligned with `program.instrs()` —
    /// bound once at compile time so the request path never touches the
    /// parameter hash map.
    bound: Vec<Option<Arc<FrozenParams>>>,
    batch: usize,
    /// The tape's register file (kept across calls so buffers recycle).
    registers: Mutex<Vec<Option<Tensor>>>,
    /// Opt-in per-instruction timing; one slot per tape instruction. Off
    /// by default — the disabled cost is one relaxed load per pass.
    profiler: OpProfiler,
}

impl FrozenExecutor {
    /// Creates an executor over a frozen graph and its folded parameters:
    /// plans the graph's memory, lowers it to a [`LinearProgram`] and binds
    /// every instruction's parameters. All compile errors (training-only
    /// operators, missing parameters, register hazards) surface here, not
    /// at request time.
    ///
    /// # Errors
    /// Returns an error when the graph cannot be memory-planned, lowered,
    /// or a parameterised instruction has no folded parameters.
    pub fn new(
        graph: Graph,
        params: &FrozenParamSet,
        input: NodeId,
        output: NodeId,
    ) -> Result<Self> {
        let plan = ExecutionPlan::for_inference(&graph)?;
        let program = LinearProgram::lower(&graph, &plan, input, output)?;
        let batch = graph.node(input)?.output_shape.dim(0).map_err(ServeError::Tensor)?;
        let bound = bind_params(&program, params)?;
        let registers = Mutex::new((0..program.reg_count()).map(|_| None).collect());
        let profiler = OpProfiler::new(program.instrs().len());
        Ok(FrozenExecutor { graph, plan, program, bound, batch, registers, profiler })
    }

    /// Turns per-instruction timing on or off (off by default). Profiling
    /// never changes results — it only reads the clock around kernels.
    pub fn enable_profiling(&self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// The accumulated per-instruction timings, one row per tape
    /// instruction in execution order. Rows with `count == 0` mean the
    /// instruction never ran while profiling was enabled.
    pub fn profile(&self) -> Vec<OpProfile> {
        self.program
            .instrs()
            .iter()
            .zip(self.profiler.snapshot())
            .map(|(instr, stats)| OpProfile {
                node: instr.op_node,
                name: instr.name.clone(),
                kind: instr.kernel.kind_name(),
                count: stats.count,
                total_ns: stats.total_ns,
                max_ns: stats.max_ns,
            })
            .collect()
    }

    /// The executor's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The inference memory plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The compiled instruction tape.
    pub fn program(&self) -> &LinearProgram {
        &self.program
    }

    /// The batch size this executor is bound to.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The expected input shape.
    pub fn input_shape(&self) -> Shape {
        self.program.input_shape().clone()
    }

    /// Runs one forward pass over the compiled tape, returning the frozen
    /// graph's output (the classifier scores).
    ///
    /// # Errors
    /// Returns an error when the input shape disagrees with the graph or a
    /// kernel fails.
    pub fn infer(&self, data: &Tensor) -> Result<Tensor> {
        self.infer_owned(data.clone())
    }

    /// [`FrozenExecutor::infer`] taking the batch by value, so the input
    /// buffer moves into the register file instead of being copied — the
    /// entry point the batching engine drives (it builds the stacked batch
    /// tensor anyway).
    ///
    /// # Errors
    /// Returns an error when the input shape disagrees with the graph or a
    /// kernel fails.
    pub fn infer_owned(&self, data: Tensor) -> Result<Tensor> {
        if self.program.prefers_serial() {
            // Cheap pass: per-kernel thread fan-out costs more than it
            // buys. Kernels are thread-count bit-identical, so this cannot
            // change the result.
            with_threads(1, || self.run_tape(data))
        } else {
            self.run_tape(data)
        }
    }

    fn run_tape(&self, data: Tensor) -> Result<Tensor> {
        self.program.input_shape().expect_same(data.shape()).map_err(ServeError::Tensor)?;
        let mut regs = self.registers.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        regs[self.program.input_reg()] = Some(data);
        // One relaxed load decides the loop; the disabled path is exactly
        // the uninstrumented walk (no clock reads, no per-op branches).
        if self.profiler.enabled() {
            for (i, (instr, params)) in self.program.instrs().iter().zip(&self.bound).enumerate() {
                let began = Instant::now();
                exec_instr(&mut regs, instr, tape_params(params.as_deref()))?;
                self.profiler.record(i, began.elapsed().as_nanos() as u64);
            }
        } else {
            for (instr, params) in self.program.instrs().iter().zip(&self.bound) {
                exec_instr(&mut regs, instr, tape_params(params.as_deref()))?;
            }
        }
        regs[self.program.output_reg()]
            .take()
            .ok_or_else(|| ServeError::InvalidArgument("tape produced no output".into()))
    }
}

/// Pre-binds every instruction's parameter handle and checks the handle's
/// kind against the kernel recipe, so the tape walker can assume both;
/// training-only instructions are rejected.
fn bind_params(
    program: &LinearProgram,
    params: &FrozenParamSet,
) -> Result<Vec<Option<Arc<FrozenParams>>>> {
    program
        .instrs()
        .iter()
        .map(|instr| {
            let handle = params.get_shared(instr.op_node);
            let ok = match &instr.kernel {
                Kernel::Conv { .. } => {
                    matches!(handle.as_deref(), Some(FrozenParams::Conv { .. }))
                }
                Kernel::Affine { .. } => {
                    matches!(handle.as_deref(), Some(FrozenParams::Affine { .. }))
                }
                Kernel::FullyConnected => {
                    matches!(handle.as_deref(), Some(FrozenParams::Fc { .. }))
                }
                Kernel::Train(op) => {
                    return Err(ServeError::InvalidArgument(format!(
                        "training-only operator {op} in instruction '{}'; freeze the graph first",
                        instr.name
                    )))
                }
                _ => return Ok(None),
            };
            if ok {
                Ok(handle)
            } else {
                Err(ServeError::Fold(format!(
                    "no frozen parameters for instruction '{}'",
                    instr.name
                )))
            }
        })
        .collect()
}

/// Borrows a bound parameter handle as the shared dispatch's view.
fn tape_params(params: Option<&FrozenParams>) -> TapeParams<'_> {
    match params {
        None => TapeParams::None,
        Some(FrozenParams::Conv { weights, bias }) => {
            TapeParams::Conv { weights, bias: bias.as_deref() }
        }
        Some(FrozenParams::Affine { scale, shift }) => TapeParams::Affine { scale, shift },
        Some(FrozenParams::Fc { weights, bias }) => TapeParams::Fc { weights, bias },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnff_graph::builder::GraphBuilder;

    #[test]
    fn training_only_instructions_are_rejected() {
        // An unfrozen graph lowers (BN becomes a training-only
        // instruction), but only the training executor can run it.
        let mut b = GraphBuilder::new("unfrozen");
        let x = b.input("in", Shape::nchw(1, 2, 4, 4)).unwrap();
        let bn = b.batch_norm_default(x, "bn").unwrap();
        let gap = b.global_avg_pool(bn, "gap").unwrap();
        let fc = b.fully_connected(gap, 2, "fc").unwrap();
        let err = FrozenExecutor::new(b.finish(), &FrozenParamSet::default(), x, fc);
        assert!(matches!(err, Err(ServeError::InvalidArgument(_))), "{err:?}");
    }
}
