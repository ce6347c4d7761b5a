//! The training workloads: closed-loop SGD steps of `densenet_cifar(16, 8,
//! 2, 10)` at one fusion level, on one kernel thread.
//!
//! A step is `batch → forward → backward → update_running_stats →
//! SgdOptimizer::step`, the sequence `Trainer::step` runs. A step fails when
//! it returns an error or when its loss or gradient global norm is not
//! finite. After timing, the first [`CHECK_STEPS`] steps are replayed on a
//! fresh executor at the other fusion level with the same seed and batches;
//! their losses must agree within [`LOSS_RTOL`].
//!
//! The traced run also times both fusion levels side by side, replays the
//! kernels of both graphs ([`crate::replay`]) and sets each op kind beside
//! memsim's prediction for it.

use crate::replay::{self, OpTiming};
use crate::stats::{median, ms, peak_rss_mb, percentile, time_ms};
use crate::{Args, Metrics, Outcome, Result, Tally};
use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::analysis::activation_sweep_count;
use bnff_graph::Graph;
use bnff_memsim::{simulate_iteration, IterationReport, MachineProfile};
use bnff_parallel::with_threads;
use bnff_train::data::SyntheticDataset;
use bnff_train::{Executor, Gradients, SgdOptimizer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Images per step.
const BATCH: usize = 16;
const GROWTH: usize = 8;
const LAYERS_PER_BLOCK: usize = 2;
const CLASSES: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Leading steps replayed at the other fusion level.
const CHECK_STEPS: usize = 3;
/// Largest relative loss difference between the two fusion levels.
const LOSS_RTOL: f32 = 1e-4;
/// Traced runs alternate blocks of this many traced and untraced steps.
const TRACE_BLOCK: usize = 4;
/// Interleaved baseline/BNFF step pairs timed for the ledger.
const LEDGER_PAIRS: usize = 6;
/// Timed kernel replays per fusion level.
const REPLAY_REPS: usize = 3;

/// Builds the workload's graph, returning it with the restructuring time.
fn model(level: FusionLevel) -> Result<(Graph, f64)> {
    let base = bnff_models::densenet_cifar(BATCH, GROWTH, LAYERS_PER_BLOCK, CLASSES)?;
    let (graph, restructure_ms) = time_ms(|| BnffOptimizer::new(level).apply(&base));
    Ok((graph?, restructure_ms))
}

fn other(level: FusionLevel) -> FusionLevel {
    match level {
        FusionLevel::Baseline => FusionLevel::Bnff,
        _ => FusionLevel::Baseline,
    }
}

/// Time spent in each call of one traced step, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    data: f64,
    forward: f64,
    backward: f64,
    running_stats: f64,
    optimizer: f64,
}

impl Spans {
    fn total(&self) -> f64 {
        self.data + self.forward + self.backward + self.running_stats + self.optimizer
    }
}

/// One finished step.
#[derive(Debug, Clone, Copy)]
struct Step {
    ms: f64,
    loss: f32,
    ok: bool,
    spans: Option<Spans>,
}

/// An executor, its optimizer and its data stream.
struct Session {
    exec: Executor,
    sgd: SgdOptimizer,
    data: SyntheticDataset,
    next: u64,
}

impl Session {
    /// Returns the session and the `Executor::new` time in milliseconds.
    fn new(graph: Graph, seed: u64) -> Result<(Session, f64)> {
        let (exec, executor_new_ms) = time_ms(|| Executor::new(graph, seed));
        let session = Session {
            exec: exec?,
            sgd: SgdOptimizer::new(0.05, 0.9, 1e-4)?,
            data: SyntheticDataset::new(CLASSES, 3, 32, 0.05, seed)?,
            next: 0,
        };
        Ok((session, executor_new_ms))
    }

    /// Runs the next step; with `traced`, records a span around each call.
    fn step(&mut self, traced: bool) -> Step {
        let index = self.next;
        self.next += 1;
        let mut marks = Vec::with_capacity(if traced { 6 } else { 0 });
        let start = Instant::now();
        let result = self.run_step(index, traced.then_some(&mut marks));
        let step_ms = ms(start.elapsed());
        let spans = (marks.len() == 6).then(|| {
            let d = |i: usize| ms(marks[i + 1] - marks[i]);
            Spans {
                data: d(0),
                forward: d(1),
                backward: d(2),
                running_stats: d(3),
                optimizer: d(4),
            }
        });
        match result {
            Ok((loss, grads)) => {
                let ok = loss.is_finite() && grads.global_norm().is_finite();
                if !ok {
                    eprintln!("train: step {index} has a non-finite loss or gradient");
                }
                Step { ms: step_ms, loss, ok, spans }
            }
            Err(err) => {
                eprintln!("train: step {index} failed: {err}");
                Step { ms: step_ms, loss: f32::NAN, ok: false, spans: None }
            }
        }
    }

    fn run_step(
        &mut self,
        index: u64,
        mut marks: Option<&mut Vec<Instant>>,
    ) -> bnff_train::Result<(f32, Gradients)> {
        let mut mark = || {
            if let Some(m) = marks.as_deref_mut() {
                m.push(Instant::now());
            }
        };
        mark();
        let (x, labels) = self.data.batch(BATCH, index)?;
        mark();
        let fwd = self.exec.forward(&x, &labels)?;
        mark();
        let grads = self.exec.backward(&fwd)?;
        mark();
        self.exec.update_running_stats(&fwd)?;
        mark();
        self.sgd.step(self.exec.params_mut(), &grads)?;
        mark();
        Ok((fwd.loss, grads))
    }
}

/// Runs one training workload.
///
/// # Errors
/// Returns an error when the model cannot be built or measured at all;
/// failing steps are counted, not returned.
pub fn run(level: FusionLevel, args: &Args) -> Result<Outcome> {
    with_threads(1, || run_level(level, args))
}

fn run_level(level: FusionLevel, args: &Args) -> Result<Outcome> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut restructure_ms = Vec::new();
    let mut executor_new_ms = Vec::new();
    let mut session = None;
    let mut head_losses = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous session first, so peak RSS holds one executor.
        drop(session.take());
        let start = Instant::now();
        let (graph, r_ms) = model(level)?;
        let (mut s, e_ms) = Session::new(graph, args.seed)?;
        let warm = s.step(false);
        setup_s.push(start.elapsed().as_secs_f64());
        tally.record(warm.ok);
        restructure_ms.push(r_ms);
        executor_new_ms.push(e_ms);
        head_losses = vec![warm.loss];
        session = Some(s);
    }
    let mut s = session.ok_or("no set-up ran")?;

    // The timed closed loop. Traced runs alternate traced and untraced
    // blocks, so the spans' own cost is measured in the same run.
    let mut untraced_ms = Vec::new();
    let mut traced: Vec<(f64, Spans)> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let n = untraced_ms.len() + traced.len();
        let step = s.step(args.trace && (n / TRACE_BLOCK).is_multiple_of(2));
        tally.record(step.ok);
        if head_losses.len() < CHECK_STEPS {
            head_losses.push(step.loss);
        }
        match step.spans {
            Some(spans) => traced.push((step.ms, spans)),
            None => untraced_ms.push(step.ms),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;
    let steps = untraced_ms.len() + traced.len();

    // Output check: the other fusion level must reproduce the first losses.
    let other_level = other(level);
    let (mut check, _) = Session::new(model(other_level)?.0, args.seed)?;
    for _ in head_losses.len()..CHECK_STEPS {
        eprintln!("train: the run was too short to check {CHECK_STEPS} steps");
        tally.record(false);
    }
    for (i, &expected) in head_losses.iter().enumerate() {
        let step = check.step(false);
        let agree = step.ok && (step.loss - expected).abs() <= LOSS_RTOL * expected.abs().max(1.0);
        tally.record(agree);
        println!(
            "check: step {i} loss {expected:.6} ({level:?}) vs {:.6} ({other_level:?}), \
             relative tolerance {LOSS_RTOL:e}: {}",
            step.loss,
            if agree { "agree" } else { "DISAGREE" }
        );
    }

    let mut metrics = Metrics::new();
    if args.trace {
        let traced_ms: Vec<f64> = traced.iter().map(|(t, _)| *t).collect();
        let step_ms = median(&traced_ms);
        let span =
            |f: fn(&Spans) -> f64| median(&traced.iter().map(|(_, s)| f(s)).collect::<Vec<_>>());
        metrics.insert("train.data_ms".into(), span(|s| s.data));
        metrics.insert("train.forward_ms".into(), span(|s| s.forward));
        metrics.insert("train.backward_ms".into(), span(|s| s.backward));
        metrics.insert("train.running_stats_ms".into(), span(|s| s.running_stats));
        metrics.insert("train.optimizer_ms".into(), span(|s| s.optimizer));
        metrics.insert("train.step_ms".into(), step_ms);
        let all_ms: Vec<f64> = untraced_ms.iter().copied().chain(traced_ms).collect();
        metrics.insert("train.step_ms_p90".into(), percentile(&all_ms, 90.0));
        let coverage: Vec<f64> = traced.iter().map(|(t, s)| s.total() / t).collect();
        metrics.insert("train.span_coverage".into(), median(&coverage));
        metrics.insert("train.executor_new_ms".into(), median(&executor_new_ms));
        metrics.insert("graph.restructure_ms".into(), median(&restructure_ms));
        let overhead = 100.0 * (step_ms / median(&untraced_ms) - 1.0);
        metrics.insert("obs.trace_overhead_pct".into(), overhead);
        graph_metrics(s.exec.graph(), &mut metrics)?;
        ledger(level, &mut s, &mut check, &mut tally, &mut metrics)?;
    } else {
        metrics.insert("throughput_per_s".into(), (BATCH * steps) as f64 / wall);
        metrics.insert("latency_ms_p50".into(), median(&untraced_ms));
        metrics.insert("peak_rss_mb".into(), peak_rss);
        metrics.insert("setup_s".into(), median(&setup_s));
    }
    println!(
        "train: {level:?} batch {BATCH}, {steps} steps in {wall:.2} s, step p50 {:.3} ms \
         p90 {:.3} ms ({} steps above p90), set-up median {:.3} s",
        median(&untraced_ms),
        percentile(&untraced_ms, 90.0),
        untraced_ms.iter().filter(|&&t| t > percentile(&untraced_ms, 90.0)).count(),
        median(&setup_s)
    );
    Ok(Outcome { tally, metrics })
}

/// `graph.*`: the size of the graph the timed loop executes.
fn graph_metrics(graph: &Graph, metrics: &mut Metrics) -> Result<()> {
    let plan = bnff_graph::plan::ExecutionPlan::for_graph(graph)?;
    metrics.insert("graph.nodes".into(), graph.node_count() as f64);
    metrics.insert("graph.activation_sweeps".into(), activation_sweep_count(graph)? as f64);
    metrics.insert("graph.plan_peak_mb".into(), plan.planned_peak_bytes() as f64 / 1e6);
    Ok(())
}

/// memsim's prediction for one op kind, summed over its nodes.
#[derive(Debug, Clone, Copy, Default)]
struct Predicted {
    fwd_us: f64,
    bwd_us: f64,
    dram_mb: f64,
}

fn predict_by_op(report: &IterationReport) -> BTreeMap<String, Predicted> {
    let mut out: BTreeMap<String, Predicted> = BTreeMap::new();
    for node in &report.per_node {
        let p = out.entry(node.op.clone()).or_default();
        p.fwd_us += node.fwd_seconds * 1e6;
        p.bwd_us += node.bwd_seconds * 1e6;
        p.dram_mb += (node.fwd_dram_bytes + node.bwd_dram_bytes) / 1e6;
    }
    out
}

/// The predicted-vs-measured ledger of the traced run: both fusion levels
/// timed side by side, their kernels replayed right after, and each op kind
/// set beside memsim's prediction on `skylake_xeon_2s`. `own` and `check`
/// are sessions at the workload's level and at the other level.
fn ledger(
    level: FusionLevel,
    own: &mut Session,
    check: &mut Session,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<()> {
    // (step ms, forward + backward ms) of each level's traced steps.
    let (mut own_steps, mut other_steps) = (Vec::new(), Vec::new());
    for _ in 0..LEDGER_PAIRS {
        for (session, steps) in [(&mut *own, &mut own_steps), (&mut *check, &mut other_steps)] {
            let step = session.step(true);
            tally.record(step.ok);
            if let Some(s) = step.spans {
                steps.push((step.ms, s.forward + s.backward));
            }
        }
    }
    let fb = |steps: &[(f64, f64)]| median(&steps.iter().map(|s| s.1).collect::<Vec<_>>());
    let (own_fb, other_fb) = (fb(&own_steps), fb(&other_steps));
    let own_step_ms = median(&own_steps.iter().map(|s| s.0).collect::<Vec<_>>());
    let (base_fb, bnff_fb) = match level {
        FusionLevel::Baseline => (own_fb, other_fb),
        _ => (other_fb, own_fb),
    };

    let machine = MachineProfile::skylake_xeon_2s();
    let own_report = simulate_iteration(own.exec.graph(), &machine)?;
    let other_report = simulate_iteration(check.exec.graph(), &machine)?;
    let (base_report, bnff_report) = match level {
        FusionLevel::Baseline => (&own_report, &other_report),
        _ => (&other_report, &own_report),
    };
    let measured_ratio = bnff_fb / base_fb;
    let predicted_ratio = bnff_report.total_seconds() / base_report.total_seconds();
    metrics.insert("train.bnff_over_baseline".into(), measured_ratio);
    metrics.insert("memsim.bnff_over_baseline".into(), predicted_ratio);
    metrics.insert("memsim.pred_step_ms".into(), own_report.total_seconds() * 1e3);
    metrics.insert("memsim.pred_dram_mb".into(), own_report.total_dram_bytes() / 1e6);

    let own_replay = replay::run(&own.exec, REPLAY_REPS)?;
    let other_replay = replay::run(&check.exec, REPLAY_REPS)?;
    let own_pred = predict_by_op(&own_report);
    let other_pred = predict_by_op(&other_report);
    let replay_us: f64 = own_replay.values().map(|t| t.fwd_us + t.bwd_us).sum();
    metrics.insert("kernels.replay_over_step".into(), replay_us / (own_step_ms * 1e3));

    // An op kind in both graphs is reported from the workload's own graph.
    println!("ledger: measured kernel replay vs memsim prediction, per training step");
    println!(
        "ledger: {:<10} {:<18} {:>5} {:>11} {:>11} {:>12} {:>12} {:>10} {:>9}",
        "level",
        "op",
        "calls",
        "fwd_us",
        "bwd_us",
        "pred_fwd_us",
        "pred_bwd_us",
        "pred_mb",
        "meas/pred"
    );
    for (lvl, replayed, predicted) in
        [(level, &own_replay, &own_pred), (other(level), &other_replay, &other_pred)]
    {
        for (&op, t) in replayed {
            let p = predicted.get(op).copied().unwrap_or_default();
            println!(
                "ledger: {:<10} {op:<18} {:>5} {:>11.1} {:>11.1} {:>12.2} {:>12.2} {:>10.3} {:>9.1}",
                format!("{lvl:?}"),
                t.calls,
                t.fwd_us,
                t.bwd_us,
                p.fwd_us,
                p.bwd_us,
                p.dram_mb,
                (t.fwd_us + t.bwd_us) / (p.fwd_us + p.bwd_us)
            );
            if lvl == level || !own_replay.contains_key(op) {
                kernel_metrics(op, t, &p, metrics);
            }
        }
    }
    println!(
        "ledger: BNFF over baseline, forward+backward: measured {measured_ratio:.4} \
         ({bnff_fb:.2} / {base_fb:.2} ms, median of {LEDGER_PAIRS} interleaved pairs), \
         memsim predicted {predicted_ratio:.4}, measured/predicted {:.4}",
        measured_ratio / predicted_ratio
    );
    println!(
        "ledger: replayed kernels cover {:.1}% of the {level:?} step ({replay_us:.0} us of \
         {:.0} us, median of the interleaved steps)",
        100.0 * replay_us / (own_step_ms * 1e3),
        own_step_ms * 1e3
    );
    Ok(())
}

/// `kernels.<op>.*` beside `memsim.<op>.*`. An op with no backward kernel
/// (`SubBnStats`) has no `bwd_us`, though memsim still predicts one.
fn kernel_metrics(op: &str, t: &OpTiming, p: &Predicted, metrics: &mut Metrics) {
    metrics.insert(format!("kernels.{op}.fwd_us"), t.fwd_us);
    if t.has_backward {
        metrics.insert(format!("kernels.{op}.bwd_us"), t.bwd_us);
    }
    metrics.insert(format!("kernels.{op}.calls"), t.calls as f64);
    metrics.insert(format!("memsim.{op}.pred_fwd_us"), p.fwd_us);
    metrics.insert(format!("memsim.{op}.pred_bwd_us"), p.bwd_us);
    metrics.insert(format!("memsim.{op}.pred_dram_mb"), p.dram_mb);
}
