//! # bnff-bench — benchmark harness and figure regeneration binaries
//!
//! The Criterion benches (in `benches/`) measure the *real* CPU cost of the
//! fused vs unfused kernels at reduced scale — `training_step` additionally
//! pins the `bnff-parallel` pool to one worker and re-measures, so the
//! multi-core speedup is reported alongside the fusion win. The binaries
//! (in `src/bin/`) regenerate every table and figure of the paper from the
//! analytical machine model at the paper's scale. This library only hosts
//! the small table-printing helpers the binaries share.
//!
//! ## Example
//!
//! ```rust
//! use bnff_bench::{ms, pct, print_table};
//!
//! assert_eq!(pct(0.257), "25.7%");
//! assert_eq!(ms(0.0123), "12.3 ms");
//! print_table("speedups", &["model", "bnff"], &[vec!["densenet121".into(), pct(0.24)]]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_models::densenet_cifar;
use bnff_train::Executor;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One measured kernel in a machine-readable bench report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelBench {
    /// Bench id, e.g. `"gemm_256_blocked_1t"`.
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Achieved GFLOP/s, for kernels with a known FLOP count.
    pub gflops: Option<f64>,
}

/// A machine-readable bench report (`BENCH_ci.json`): the perf-trajectory
/// artifact the CI `bench-smoke` job uploads on every push, so kernel
/// regressions show up as data instead of anecdotes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BenchReport {
    /// All measured kernels, in measurement order.
    pub records: Vec<KernelBench>,
    /// Derived headline numbers (speedups, reuse rates).
    pub summary: Vec<SummaryStat>,
}

/// One entry for [`BenchReport::measure_min_interleaved`]: bench name,
/// optional per-iteration FLOP count, and the closure to measure.
pub type InterleavedBench<'a> = (&'a str, Option<f64>, &'a mut (dyn FnMut() + 'a));

/// A derived headline number in a [`BenchReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryStat {
    /// Stat id, e.g. `"simd_over_scalar_gemm_256"`.
    pub name: String,
    /// The value (a ratio, rate or count — see the name).
    pub value: f64,
}

impl BenchReport {
    /// An empty report.
    pub fn new() -> Self {
        BenchReport::default()
    }

    /// Measures `f` (at least `min_iters` runs and `min_time` total) and
    /// records the mean ns/iter under `name`. When `flops` is given, the
    /// achieved GFLOP/s rides along. Returns the ns/iter.
    pub fn measure<F: FnMut()>(
        &mut self,
        name: &str,
        flops: Option<f64>,
        min_iters: usize,
        min_time: Duration,
        mut f: F,
    ) -> f64 {
        // One untimed warm-up run populates caches, pools and pages.
        f();
        let mut iters = 0u32;
        let start = Instant::now();
        while iters < min_iters as u32 || start.elapsed() < min_time {
            f();
            iters += 1;
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
        self.records.push(KernelBench {
            name: name.to_string(),
            ns_per_iter: ns,
            gflops: flops.map(|fl| fl / ns),
        });
        ns
    }

    /// Measures a *set* of benches over `windows` interleaved timing
    /// rounds (one window of at least `min_iters` runs and `min_time` per
    /// bench per round), timing every run individually, and records each
    /// bench's *fastest single run*. Two properties make this the
    /// estimator for the records behind CI-gated ratios: interference from
    /// a shared host only ever slows a run down, so the per-run minimum is
    /// noise-robust against load spikes; and because the benches rotate
    /// through the same windows, each one samples every frequency/thermal
    /// regime the machine passes through — a sequential layout would hand
    /// whichever bench runs first the boost-clock budget and bias the
    /// ratio. Timer overhead bounds the resolution, so this fits the
    /// ms-scale end-to-end records, not the ns-scale kernels.
    pub fn measure_min_interleaved(
        &mut self,
        windows: usize,
        min_iters: usize,
        min_time: Duration,
        benches: &mut [InterleavedBench<'_>],
    ) {
        // One untimed warm-up run each populates caches, pools and pages.
        for (_, _, f) in benches.iter_mut() {
            f();
        }
        let mut best = vec![f64::INFINITY; benches.len()];
        for _ in 0..windows.max(1) {
            for (i, (_, _, f)) in benches.iter_mut().enumerate() {
                let mut iters = 0u32;
                let window = Instant::now();
                while iters < min_iters as u32 || window.elapsed() < min_time {
                    let run = Instant::now();
                    f();
                    best[i] = best[i].min(run.elapsed().as_nanos() as f64);
                    iters += 1;
                }
            }
        }
        for ((name, flops, _), ns) in benches.iter().zip(best) {
            self.records.push(KernelBench {
                name: name.to_string(),
                ns_per_iter: ns,
                gflops: flops.map(|fl| fl / ns),
            });
        }
    }

    /// ns/iter of a previously recorded bench.
    pub fn ns_of(&self, name: &str) -> Option<f64> {
        self.records.iter().find(|r| r.name == name).map(|r| r.ns_per_iter)
    }

    /// Speedup of `fast` over `slow` (`slow ns / fast ns`), when both exist.
    pub fn speedup(&self, fast: &str, slow: &str) -> Option<f64> {
        Some(self.ns_of(slow)? / self.ns_of(fast)?)
    }

    /// Records a derived headline number.
    pub fn summarize(&mut self, name: &str, value: f64) {
        self.summary.push(SummaryStat { name: name.to_string(), value });
    }

    /// Serializes the report as pretty-printed JSON.
    ///
    /// # Errors
    /// Returns an error when JSON serialization fails.
    pub fn to_json(&self) -> Result<String, Box<dyn std::error::Error>> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a report back from its JSON form.
    ///
    /// # Errors
    /// Returns an error on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_str(json)?)
    }

    /// Loads the report at `path`, or an empty report when the file does
    /// not exist — the append path the CI serve-smoke step uses to extend
    /// `BENCH_ci.json` with serving numbers.
    ///
    /// # Errors
    /// Returns an error when an existing file cannot be read or parsed.
    pub fn load_or_default(path: &std::path::Path) -> Result<Self, Box<dyn std::error::Error>> {
        match std::fs::read_to_string(path) {
            Ok(json) => Self::from_json(&json),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(Box::new(e)),
        }
    }
}

/// Builds the memory-planned executors the `training_step` bench measures:
/// one CIFAR-scale DenseNet per CPU-measured fusion level (Baseline, RCF,
/// RCF+MVF, BNFF), each carrying the [`bnff_graph::plan::ExecutionPlan`] its
/// forward/backward passes are driven by.
///
/// # Errors
/// Returns an error if a graph cannot be built, restructured or planned.
pub fn training_step_executors(
    batch: usize,
    seed: u64,
) -> Result<Vec<(FusionLevel, Executor)>, Box<dyn std::error::Error>> {
    let baseline = densenet_cifar(batch, 8, 2, 10)?;
    FusionLevel::measured()
        .into_iter()
        .map(|level| {
            let graph = BnffOptimizer::new(level).apply(&baseline)?;
            let exec = Executor::new(graph, seed)?;
            Ok((level, exec))
        })
        .collect()
}

/// A bench-id-friendly name for a fusion level (`rcf+mvf` → `rcf_mvf`).
pub fn level_bench_name(level: FusionLevel) -> String {
    level.label().to_lowercase().replace('+', "_")
}

/// Renders rows as a fixed-width text table with the given headers.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats seconds as milliseconds with one decimal.
pub fn ms(value: f64) -> String {
    format!("{:.1} ms", value * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.257), "25.7%");
        assert_eq!(ms(0.0123), "12.3 ms");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn training_step_harness_plans_every_measured_fusion_level() {
        let execs = training_step_executors(4, 3).unwrap();
        assert_eq!(execs.len(), FusionLevel::measured().len());
        for (level, exec) in &execs {
            let plan = exec.plan();
            assert!(
                plan.planned_peak_bytes() < plan.naive_total_bytes(),
                "{level}: planned {} not below naive {}",
                plan.planned_peak_bytes(),
                plan.naive_total_bytes()
            );
            assert!(plan.slot_count() >= 1, "{level}: no reusable slots");
        }
    }

    #[test]
    fn level_bench_names_are_identifier_friendly() {
        assert_eq!(level_bench_name(FusionLevel::RcfMvf), "rcf_mvf");
        assert_eq!(level_bench_name(FusionLevel::Baseline), "baseline");
    }
}
