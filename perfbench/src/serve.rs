//! The serving workload: a BNFF `densenet_cifar(1, 8, 2, 10)` exported as a
//! `.bnff` artifact and served by `ServeEngine` with one worker, one kernel
//! thread, `max_batch` 8 and `max_wait` 2 ms.
//!
//! * Phase A is an open loop at [`RATE_RPS`]. Each request's latency runs
//!   from its *scheduled* send time: `(submit start − scheduled) +
//!   Completion::latency`, so a stall in the generator or the engine is
//!   charged to every request it delays. How late the generator ran is
//!   reported as `loadgen.late_ms_p99`.
//! * Phase B is a closed loop with [`OUTSTANDING`] requests in flight; its
//!   completions per second are the engine's capacity.
//!
//! Phase B is cut into [`WINDOWS`] equal time windows and the capacity is
//! the median of their completion rates, so one stall of the (shared) host
//! moves one window, not the run's result. Latency percentiles above the
//! median swing with the host's scheduling jitter (on a 2-vCPU VM, phase A's
//! p90 ranged over 5.7-12 ms between identical runs), so they are per-layer
//! metrics of the traced run, not end-to-end ones.
//!
//! Submitting and receiving both happen on the calling thread. A request
//! fails when it is shed, expires, returns an error, or returns scores that
//! are non-finite, of the wrong length, or further than [`SCORE_TOL`] from a
//! single-sample `FrozenExecutor::infer` of the same input.

use crate::stats::{median, ms, peak_rss_mb, percentile, time_ms};
use crate::{Args, Metrics, Outcome, Result, Tally};
use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::analysis::activation_sweep_count;
use bnff_parallel::with_threads;
use bnff_serve::{Completion, FrozenExecutor, FrozenModel, ServeEngine, ServeError};
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};
use bnff_train::{Checkpoint, Executor};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

const GROWTH: usize = 8;
const LAYERS_PER_BLOCK: usize = 2;
const CLASSES: usize = 10;
const MAX_BATCH: usize = 8;
const MAX_WAIT: Duration = Duration::from_millis(2);
/// Phase A's fixed arrival rate: about a quarter of the engine's capacity.
const RATE_RPS: f64 = 100.0;
/// Phase A's generator spins for the last stretch before each send time.
const SPIN_BEFORE: Duration = Duration::from_millis(1);
/// Requests in flight during phase B.
const OUTSTANDING: usize = 16;
/// Share of `--seconds` given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.5;
/// Time windows of phase B.
const WINDOWS: usize = 5;
/// Distinct input samples the requests cycle through.
const POOL: usize = 32;
const SETUP_REPS: usize = 5;
/// Largest score difference from the single-sample reference, relative to
/// `max(1, |reference|)`.
const SCORE_TOL: f32 = 1e-4;
/// How long a request may take before it counts as lost.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// Traced runs: closed-loop blocks per engine, and requests per block, for
/// the tracing-overhead A/B.
const OVERHEAD_BLOCKS: usize = 5;
const OVERHEAD_BLOCK_REQUESTS: usize = 128;
/// Traced runs: direct inferences timed per tape batch size.
const TAPE_RUNS: usize = 40;

/// The inputs and their expected scores.
struct Requests {
    samples: Vec<Tensor>,
    expected: Vec<Vec<f32>>,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        let mut init = Initializer::seeded(seed);
        let samples = (0..POOL).map(|_| init.uniform(Shape::new(vec![3, 32, 32]), -1.0, 1.0));
        Requests { samples: samples.collect(), expected: Vec::new() }
    }

    fn sample(&self, i: usize) -> Tensor {
        self.samples[i % POOL].clone()
    }

    /// Computes the reference scores, one sample at a time.
    fn set_reference(&mut self, model: &FrozenModel) -> Result<()> {
        let single = model.executor(1)?;
        self.expected = self
            .samples
            .iter()
            .map(|s| {
                let batched = Tensor::from_vec(Shape::nchw(1, 3, 32, 32), s.as_slice().to_vec())?;
                Ok(single.infer(&batched)?.as_slice().to_vec())
            })
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Checks one request's outcome; returns the completion when it passed.
    fn check(
        &self,
        i: usize,
        got: std::result::Result<bnff_serve::Result<Completion>, RecvTimeoutError>,
    ) -> Option<Completion> {
        let completion = match got {
            Ok(Ok(c)) => c,
            Ok(Err(ServeError::DeadlineExceeded)) => {
                eprintln!("serve: request {i} expired");
                return None;
            }
            Ok(Err(err)) => {
                eprintln!("serve: request {i} failed: {err}");
                return None;
            }
            Err(err) => {
                eprintln!("serve: request {i} lost: {err}");
                return None;
            }
        };
        let scores = completion.scores.as_slice();
        let finite = scores.len() == CLASSES && scores.iter().all(|v| v.is_finite());
        let matches = match self.expected.get(i % POOL) {
            Some(want) => {
                scores.iter().zip(want).all(|(g, w)| (g - w).abs() <= SCORE_TOL * w.abs().max(1.0))
            }
            None => true, // warm-up, before the reference exists
        };
        if !(finite && matches) {
            eprintln!("serve: request {i} returned wrong scores {scores:?}");
            return None;
        }
        Some(completion)
    }
}

/// Removes the exported artifact when the run ends.
struct ArtifactFile(PathBuf);

impl ArtifactFile {
    /// A per-process path under the build directory, inside the checkout.
    fn new() -> Result<ArtifactFile> {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactFile(dir.join(format!("perfbench-serve-{}.bnff", std::process::id()))))
    }
}

impl Drop for ArtifactFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One set-up: build, restructure, export, start, warm up.
struct SetupTimes {
    total_s: f64,
    restructure_ms: f64,
    write_ms: f64,
}

fn start_engine(path: &ArtifactFile, trace: bool) -> Result<ServeEngine> {
    Ok(ServeEngine::builder()
        .model_file(&path.0)
        .workers(1)
        .kernel_threads(1)
        .max_batch(MAX_BATCH)
        .max_wait(MAX_WAIT)
        .trace_every(u64::from(trace))
        .start()?)
}

fn setup(
    seed: u64,
    trace: bool,
    path: &ArtifactFile,
    reqs: &Requests,
    tally: &mut Tally,
) -> Result<(ServeEngine, SetupTimes)> {
    let start = Instant::now();
    let base = bnff_models::densenet_cifar(1, GROWTH, LAYERS_PER_BLOCK, CLASSES)?;
    let (graph, restructure_ms) = time_ms(|| BnffOptimizer::new(FusionLevel::Bnff).apply(&base));
    let exec = Executor::new(graph?, seed)?;
    let (written, write_ms) = time_ms(|| Checkpoint::capture(&exec).write_artifact(&path.0));
    written?;
    let engine = start_engine(path, trace)?;
    // A burst of every size the phases can form, so the engine compiles an
    // executor per batch size and its executor cache (and so peak memory)
    // is full before timing rather than filling with whatever sizes a
    // stall happens to produce.
    for size in 1..=MAX_BATCH {
        let sent: Vec<_> = (0..size).map(|i| (i, engine.submit(reqs.sample(i)))).collect();
        for (i, submitted) in sent {
            let ok = match submitted {
                Ok(rx) => reqs.check(i, rx.recv_timeout(RECV_TIMEOUT)).is_some(),
                Err(err) => {
                    eprintln!("serve: warm-up request {i} shed: {err}");
                    false
                }
            };
            tally.record(ok);
        }
    }
    closed_loop(&engine, reqs, 4 * OUTSTANDING, Duration::ZERO, tally);
    let total_s = start.elapsed().as_secs_f64();
    Ok((engine, SetupTimes { total_s, restructure_ms, write_ms }))
}

/// What phase A measured.
#[derive(Debug, Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    wall_s: f64,
}

/// Phase A: submits on a fixed schedule regardless of completions.
fn open_loop(engine: &ServeEngine, reqs: &Requests, span: Duration, tally: &mut Tally) -> OpenLoop {
    let interval = Duration::from_secs_f64(1.0 / RATE_RPS);
    let count = (span.as_secs_f64() * RATE_RPS).round().max(1.0) as usize;
    let mut out = OpenLoop::default();
    let mut pending: VecDeque<(usize, Duration, Receiver<bnff_serve::Result<Completion>>)> =
        VecDeque::new();
    let finish = |out: &mut OpenLoop, tally: &mut Tally, i: usize, late: Duration, got| {
        let done = reqs.check(i, got);
        tally.record(done.is_some());
        if let Some(c) = done {
            out.latency_ms.push(ms(late + c.latency));
            if let Some(t) = c.trace {
                out.queue_ms.push(t.queue_us as f64 * 1e-3);
            }
        }
    };
    let t0 = Instant::now();
    for i in 0..count {
        let due = t0 + interval * i as u32;
        loop {
            // Collect finished requests (one worker completes in order).
            while let Some((_, _, rx)) = pending.front() {
                let got = match rx.try_recv() {
                    Ok(r) => Ok(r),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                };
                let (j, late, _) = pending.pop_front().expect("front exists");
                finish(&mut out, tally, j, late, got);
            }
            // Sleep until shortly before the send time, then spin: a woken
            // thread can start late, and spinning the whole interval would
            // keep a second core busy beside the engine's worker.
            let now = Instant::now();
            if now >= due {
                break;
            }
            match (due - now).checked_sub(SPIN_BEFORE) {
                Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
                _ => std::hint::spin_loop(),
            }
        }
        let sample = reqs.sample(i);
        let submit_start = Instant::now();
        let late = submit_start - due;
        let submitted = engine.submit(sample);
        out.submit_us.push(submit_start.elapsed().as_secs_f64() * 1e6);
        out.late_ms.push(ms(late));
        match submitted {
            Ok(rx) => pending.push_back((i, late, rx)),
            Err(err) => {
                eprintln!("serve: request {i} shed: {err}");
                tally.record(false);
            }
        }
    }
    while let Some((i, late, rx)) = pending.pop_front() {
        finish(&mut out, tally, i, late, rx.recv_timeout(RECV_TIMEOUT));
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// Phase B: keeps [`OUTSTANDING`] requests in flight until `span` has
/// passed (and at least `min_requests` were sent). Returns the seconds
/// after the first submission at which each request completed correctly,
/// and the seconds until the last completion.
fn closed_loop(
    engine: &ServeEngine,
    reqs: &Requests,
    min_requests: usize,
    span: Duration,
    tally: &mut Tally,
) -> (Vec<f64>, f64) {
    let mut inflight = VecDeque::new();
    let mut sent = 0;
    let mut completed = Vec::new();
    let t0 = Instant::now();
    let submit = |inflight: &mut VecDeque<_>, sent: &mut usize, tally: &mut Tally| {
        match engine.submit(reqs.sample(*sent)) {
            Ok(rx) => inflight.push_back((*sent, rx)),
            Err(err) => {
                eprintln!("serve: request {sent} shed: {err}");
                tally.record(false);
            }
        }
        *sent += 1;
    };
    while sent < OUTSTANDING {
        submit(&mut inflight, &mut sent, tally);
    }
    while let Some((i, rx)) = inflight.pop_front() {
        let ok = reqs.check(i, rx.recv_timeout(RECV_TIMEOUT)).is_some();
        tally.record(ok);
        if ok {
            completed.push(t0.elapsed().as_secs_f64());
        }
        if sent < min_requests || t0.elapsed() < span {
            submit(&mut inflight, &mut sent, tally);
        }
    }
    (completed, t0.elapsed().as_secs_f64())
}

/// Runs the serving workload.
///
/// # Errors
/// Returns an error when the model cannot be built, exported or served at
/// all; failing requests are counted, not returned.
pub fn run(args: &Args) -> Result<Outcome> {
    // Direct tape calls on this thread use one kernel thread, as the engine's
    // worker does.
    with_threads(1, || run_engine(args))
}

fn run_engine(args: &Args) -> Result<Outcome> {
    let path = ArtifactFile::new()?;
    let mut reqs = Requests::new(args.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut engine: Option<ServeEngine> = None;
    for _ in 0..SETUP_REPS {
        if let Some(e) = engine.take() {
            e.shutdown();
        }
        let (e, times) = setup(args.seed, args.trace, &path, &reqs, &mut tally)?;
        setups.push(times);
        engine = Some(e);
    }
    let engine = engine.ok_or("no set-up ran")?;
    let model = ServeEngine::builder().model_file(&path.0).build_model()?;
    reqs.set_reference(&model)?;

    let phase_a = open_loop(&engine, &reqs, args.seconds.mul_f64(PHASE_A_SHARE), &mut tally);
    let before_b = engine.metrics();
    let phase_b = args.seconds.mul_f64(1.0 - PHASE_A_SHARE);
    let (done_at, wall_b) = closed_loop(&engine, &reqs, 0, phase_b, &mut tally);
    let after_b = engine.metrics();
    let window_s = phase_b.as_secs_f64() / WINDOWS as f64;
    let mut per_window = vec![0.0; WINDOWS];
    for t in &done_at {
        if let Some(n) = per_window.get_mut((t / window_s) as usize) {
            *n += 1.0 / window_s;
        }
    }
    let capacity = median(&per_window);
    let mean_batch_b = (after_b.requests() - before_b.requests()) as f64
        / (after_b.batches() - before_b.batches()).max(1) as f64;
    let peak_rss = peak_rss_mb()?;
    let latency = &phase_a.latency_ms;
    let (p50, p90, p99) = (median(latency), percentile(latency, 90.0), percentile(latency, 99.0));
    println!(
        "serve: phase A open loop {RATE_RPS} rps: {} requests in {:.2} s, latency from \
         schedule p50 {p50:.3} ms p90 {p90:.3} ms p99 {p99:.3} ms ({} above p99), generator \
         late p99 {:.3} ms",
        latency.len(),
        phase_a.wall_s,
        latency.iter().filter(|&&l| l > p99).count(),
        percentile(&phase_a.late_ms, 99.0)
    );
    println!(
        "serve: phase B closed loop {OUTSTANDING} outstanding: {} completions in {wall_b:.2} s, \
         {capacity:.1} rps (median of {WINDOWS} windows), mean batch {mean_batch_b:.2}",
        done_at.len()
    );

    let mut metrics = Metrics::new();
    if args.trace {
        let median_of =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        metrics.insert("graph.restructure_ms".into(), median_of(|s| s.restructure_ms));
        metrics.insert("artifact.write_ms".into(), median_of(|s| s.write_ms));
        let loads: Vec<f64> = (0..5)
            .map(|_| time_ms(|| bnff_artifact::Artifact::open(&path.0)))
            .map(|(a, t)| a.map(|_| t))
            .collect::<std::result::Result<_, _>>()?;
        metrics.insert("artifact.load_ms".into(), median(&loads));
        metrics.insert("serve.latency_ms_p90".into(), p90);
        metrics.insert("serve.latency_ms_p99".into(), p99);
        metrics.insert("serve.submit_us".into(), median(&phase_a.submit_us));
        metrics.insert("serve.queue_wait_ms_p50".into(), median(&phase_a.queue_ms));
        metrics.insert("serve.queue_wait_ms_p99".into(), percentile(&phase_a.queue_ms, 99.0));
        metrics.insert("serve.mean_batch_size".into(), mean_batch_b);
        metrics.insert("serve.shed".into(), after_b.shed() as f64);
        metrics.insert("serve.expired".into(), after_b.expired() as f64);
        metrics.insert("loadgen.late_ms_p99".into(), percentile(&phase_a.late_ms, 99.0));
        tape_metrics(&model, &mut metrics)?;
        let overhead = trace_overhead(&engine, &path, &reqs, &mut tally)?;
        metrics.insert("obs.trace_overhead_pct".into(), overhead);
    } else {
        metrics.insert("throughput_per_s".into(), capacity);
        metrics.insert("latency_ms_p50".into(), p50);
        metrics.insert("peak_rss_mb".into(), peak_rss);
        let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
        metrics.insert("setup_s".into(), median(&setup_s));
    }
    engine.shutdown();
    Ok(Outcome { tally, metrics })
}

/// `serve.tape_*` and `graph.*`: the frozen program on its own, timed by
/// direct `FrozenExecutor::infer` calls and by the tape's opt-in profiler.
fn tape_metrics(model: &FrozenModel, metrics: &mut Metrics) -> Result<()> {
    let single = model.executor(1)?;
    let full = model.executor(MAX_BATCH)?;
    metrics.insert("serve.tape_b1_ms".into(), median_infer_ms(&single)?);
    metrics.insert("serve.tape_b8_ms".into(), median_infer_ms(&full)?);
    let graph = full.graph();
    metrics.insert("graph.nodes".into(), graph.node_count() as f64);
    metrics.insert("graph.activation_sweeps".into(), activation_sweep_count(graph)? as f64);
    metrics.insert("graph.plan_peak_mb".into(), full.plan().planned_peak_bytes() as f64 / 1e6);

    single.enable_profiling(true);
    median_infer_ms(&single)?;
    let runs = single.profile().first().map_or(1, |row| row.count.max(1));
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for row in single.profile() {
        *by_kind.entry(row.kind).or_default() += row.total_ns;
    }
    for (kind, ns) in by_kind {
        metrics.insert(format!("serve.tape.{kind}.us"), ns as f64 * 1e-3 / runs as f64);
    }
    Ok(())
}

/// Median time of [`TAPE_RUNS`] inferences, after a short warm-up.
fn median_infer_ms(exec: &FrozenExecutor) -> Result<f64> {
    let input = Initializer::seeded(7).uniform(exec.input_shape(), -1.0, 1.0);
    for _ in 0..3 {
        exec.infer(&input)?;
    }
    let mut times = Vec::with_capacity(TAPE_RUNS);
    for _ in 0..TAPE_RUNS {
        let (scores, t) = time_ms(|| exec.infer(&input));
        scores?;
        times.push(t);
    }
    Ok(median(&times))
}

/// Closed-loop blocks alternated between the traced engine and an untraced
/// one; the percentage by which tracing slows a block (median of each).
fn trace_overhead(
    traced: &ServeEngine,
    path: &ArtifactFile,
    reqs: &Requests,
    tally: &mut Tally,
) -> Result<f64> {
    let untraced = start_engine(path, false)?;
    closed_loop(&untraced, reqs, 4 * OUTSTANDING, Duration::ZERO, tally);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_BLOCKS {
        for (engine, times) in [(traced, &mut on), (&untraced, &mut off)] {
            let (_, wall) =
                closed_loop(engine, reqs, OVERHEAD_BLOCK_REQUESTS, Duration::ZERO, tally);
            times.push(wall);
        }
    }
    untraced.shutdown();
    Ok(100.0 * (median(&on) / median(&off) - 1.0))
}
