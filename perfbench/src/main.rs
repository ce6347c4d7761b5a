//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `train_densenet_baseline` / `train_densenet_bnff` — closed-loop SGD
//!   training steps of `densenet_cifar(16, 8, 2, 10)` at one fusion level,
//!   on one kernel thread ([`train`]).
//! * `serve_densenet` — a BNFF `densenet_cifar(1, 8, 2, 10)` exported as a
//!   `.bnff` artifact and served by a one-worker engine, first as an open
//!   loop at a fixed rate, then as a closed loop ([`serve`]).
//!
//! With `--trace 0` the run measures the end-to-end metrics with no spans
//! recorded. With `--trace 1` it records spans around the calls into each
//! crate and reports the per-layer metrics instead. `BENCHMARK.json` (compiled
//! in) is the single list of metric names and units: the last line of
//! standard output is one JSON object with every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`). A per-layer metric
//! whose layer the workload does not run reads 0.
//!
//! Every workload reports every end-to-end metric, so they are named for
//! what a user sees rather than for one workload:
//!
//! | metric             | training workloads        | `serve_densenet`               |
//! |--------------------|---------------------------|--------------------------------|
//! | `throughput_per_s` | images per second         | phase B completions per second |
//! | `latency_ms_p50`   | median step time          | phase A median request latency |
//! | `peak_rss_mb`      | `VmHWM` after timing      | `VmHWM` after timing           |
//! | `setup_s`          | median of 5 set-ups       | median of 5 set-ups            |
//!
//! Tail percentiles (`train.step_ms_p90`, `serve.latency_ms_p90`/`p99`)
//! are per-layer metrics, printed by every run: an end-to-end metric must
//! hold on every workload, and serving's p90 moved between 5.7 and 12 ms
//! across identical runs on a shared 2-vCPU host, more than any usable
//! bound.
//!
//! Every run times a fixed piece of benchmark-owned arithmetic at its start
//! and end (`host.calib_ms`), so host drift can be told apart from a change
//! in the program.

mod calib;
mod replay;
mod serve;
mod spec;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Result type of the benchmark's own code.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Metric values by name; units come from `BENCHMARK.json`.
pub type Metrics = BTreeMap<String, f64>;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// Whether to record spans and report per-layer metrics.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}").into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}").into()),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, not {seconds}").into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Operations attempted and failed (training steps or requests).
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured metrics.
    pub metrics: Metrics,
}

fn run() -> Result<()> {
    let args = Args::parse(std::env::args().skip(1))?;
    let spec = spec::Spec::load()?;
    let steal_start = stats::cpu_steal();
    let calib_start = calib::measure();
    let mut outcome = match args.workload.as_str() {
        "train_densenet_baseline" => train::run(bnff_core::FusionLevel::Baseline, &args)?,
        "train_densenet_bnff" => train::run(bnff_core::FusionLevel::Bnff, &args)?,
        "serve_densenet" => serve::run(&args)?,
        other => return Err(format!("unknown workload {other}").into()),
    };
    let calib_end = calib::measure();
    let steal = match (steal_start, stats::cpu_steal()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.2}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    println!(
        "host: calib_ms start {:.4} end {:.4} (median of {} repetitions each), \
         steal {steal} of CPU time",
        stats::median(&calib_start),
        stats::median(&calib_end),
        calib_start.len()
    );
    if !args.trace {
        let both: Vec<f64> = calib_start.iter().chain(&calib_end).copied().collect();
        outcome.metrics.insert("host.calib_ms".into(), stats::median(&both));
    }
    let (attempted, failed) = (outcome.tally.attempted, outcome.tally.failed);
    println!(
        "checks: {} ({failed} of {attempted} operations failed)",
        if failed == 0 { "passed" } else { "FAILED" }
    );
    println!("{}", spec.result_line(args.trace, &outcome)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
