//! Serving saturation harness: trains a small zoo model, freezes it, then
//! drives the sharded engine with the load generator to produce the two
//! numbers the CI scaling gate checks plus a full latency-vs-throughput
//! curve.
//!
//! 1. **Scaling** — closed-loop peak throughput at one worker on one
//!    kernel thread (`serve_rps_1w`, the single-core unit of work) and at
//!    four workers on four kernel threads, one each (`serve_rps_4w`). The
//!    ratio `serve_scaling_4w_over_1w` is the cores-scaling factor CI
//!    gates at ≥ 2.0 on its 4-vCPU runners.
//! 2. **Saturation curve** — an open-loop sweep over offered rates with
//!    the 4-worker engine, emitting p50/p99/p999, achieved rps and shed
//!    counts per rate (`serve_curve_w4_r{rate}_*`).
//! 3. **SLA point** — p99 at the committed offered rate
//!    (`BNFF_SERVE_SLA_RPS`, default 200 rps) as `serve_p99_ms_at_sla`,
//!    gated ≤ 250 ms in CI.
//!
//! Run with `cargo run --release --example serve_load [-- REPORT.json]`.
//! Environment knobs: `BNFF_SERVE_TRAIN_STEPS` (default 5),
//! `BNFF_SERVE_LOAD_REQUESTS` (closed-loop total, default 256),
//! `BNFF_SERVE_SWEEP_REQUESTS` (per open-loop rate, default 192),
//! `BNFF_SERVE_LOAD_RATES` (comma-separated rps list, default
//! `150,300,600,1200`), `BNFF_SERVE_SLA_RPS` (default 200).

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::models::densenet_cifar;
use bnff::serve::loadgen::{closed_loop, sweep, LoadPoint};
use bnff::serve::{BatchingConfig, FrozenModel, ServeEngine};
use bnff::tensor::{Shape, Tensor};
use bnff::train::data::SyntheticDataset;
use bnff::train::{TrainConfig, Trainer};
use bnff_bench::{print_table, BenchReport};
use std::time::Duration;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_rates(name: &str, default: &[f64]) -> Vec<f64> {
    std::env::var(name)
        .ok()
        .map(|v| v.split(',').filter_map(|r| r.trim().parse().ok()).collect())
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Formats a latency already expressed in milliseconds (the bench crate's
/// `ms` helper expects seconds).
fn fmt_ms(value: f64) -> String {
    format!("{value:.1} ms")
}

/// Engine config for a given (workers, kernel_threads) pairing; everything
/// else is held fixed so the scaling ratio isolates the concurrency axis.
fn config(workers: usize, kernel_threads: usize) -> BatchingConfig {
    BatchingConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        workers,
        executor_cache: 4,
        queue_depth: 64,
        kernel_threads,
        ..BatchingConfig::default()
    }
}

/// Peak sustainable throughput: a closed loop with enough outstanding
/// requests that the engine never idles.
fn saturate(
    model: &FrozenModel,
    workers: usize,
    kernel_threads: usize,
    total: usize,
    samples: &[Tensor],
) -> Result<LoadPoint, Box<dyn std::error::Error>> {
    let engine = ServeEngine::builder()
        .model(model.clone())
        .config(config(workers, kernel_threads))
        .start()?;
    let concurrency = (workers * 8 * 2).min(engine.queue_capacity());
    let point = closed_loop(&engine, samples, total, concurrency)?;
    engine.shutdown();
    Ok(point)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record which SIMD path the kernels execute, so saved load-harness
    // numbers are attributable to a dispatch decision.
    println!("simd dispatch: {}", bnff::tensor::active_isa());
    let batch = 8;
    let classes = 5;
    let steps = env_usize("BNFF_SERVE_TRAIN_STEPS", 5);
    let load_requests = env_usize("BNFF_SERVE_LOAD_REQUESTS", 256);
    let sweep_requests = env_usize("BNFF_SERVE_SWEEP_REQUESTS", 192);
    let rates = env_rates("BNFF_SERVE_LOAD_RATES", &[150.0, 300.0, 600.0, 1200.0]);
    let sla_rps = env_usize("BNFF_SERVE_SLA_RPS", 200) as f64;

    // --- 1. Train briefly and freeze (BN folds into the weights).
    let baseline = densenet_cifar(batch, 8, 2, classes)?;
    let graph = BnffOptimizer::new(FusionLevel::Bnff).apply(&baseline)?;
    let dataset = SyntheticDataset::new(classes, 3, 32, 0.05, 1234)?;
    let train_config = TrainConfig {
        batch_size: batch,
        steps,
        learning_rate: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        seed: 7,
    };
    let mut trainer = Trainer::new(graph, dataset.clone(), train_config.clone())?;
    for step in 0..train_config.steps {
        trainer.step(step)?;
    }
    let model = ServeEngine::builder().executor(trainer.executor()).build_model()?;
    drop(trainer);

    // --- 2. A pool of distinct single-sample requests.
    let sample_shape = model.sample_shape()?;
    let mut dims = vec![1usize];
    dims.extend_from_slice(sample_shape.dims());
    let volume = sample_shape.volume();
    let samples: Vec<Tensor> = (0..32)
        .map(|i| {
            let (data, _labels) = dataset.batch(1, 90_000 + i as u64)?;
            Tensor::from_vec(Shape::new(dims.clone()), data.as_slice()[..volume].to_vec())
                .map_err(Into::into)
        })
        .collect::<Result<_, Box<dyn std::error::Error>>>()?;

    // --- 3. Scaling: 1 worker × 1 kernel thread vs 4 workers × 4 kernel
    // threads (one each). On a 4-core machine the second engine has 4×
    // the compute budget; the gate checks it converts ≥ 2× of that into
    // throughput.
    println!("--- closed-loop saturation ---");
    let one = saturate(&model, 1, 1, load_requests, &samples)?;
    let four = saturate(&model, 4, 4, load_requests, &samples)?;
    let scaling = four.achieved_rps / one.achieved_rps.max(f64::MIN_POSITIVE);
    print_table(
        "peak sustainable throughput (closed loop)",
        &["engine", "rps", "p50", "p99", "mean batch"],
        &[
            vec![
                "1 worker / 1 thread".into(),
                format!("{:.0}", one.achieved_rps),
                fmt_ms(one.p50_ms),
                fmt_ms(one.p99_ms),
                format!("{:.2}", one.mean_batch_size),
            ],
            vec![
                "4 workers / 4 threads".into(),
                format!("{:.0}", four.achieved_rps),
                fmt_ms(four.p50_ms),
                fmt_ms(four.p99_ms),
                format!("{:.2}", four.mean_batch_size),
            ],
        ],
    );
    println!("scaling 4w/1w: {scaling:.2}x");

    // --- 4. Open-loop sweep: the latency-vs-throughput curve at 4 workers.
    println!("--- open-loop saturation sweep (4 workers) ---");
    let curve = sweep(&model, &config(4, 4), &samples, &rates, sweep_requests)?;
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.offered_rps),
                format!("{:.0}", p.achieved_rps),
                fmt_ms(p.p50_ms),
                fmt_ms(p.p99_ms),
                fmt_ms(p.p999_ms),
                format!("{}", p.shed),
                format!("{:.2}", p.mean_batch_size),
            ]
        })
        .collect();
    print_table(
        "latency vs offered load",
        &["offered rps", "achieved rps", "p50", "p99", "p999", "shed", "mean batch"],
        &rows,
    );

    // --- 5. SLA point: p99 at the committed offered rate.
    let sla = sweep(&model, &config(4, 4), &samples, &[sla_rps], sweep_requests)?;
    let sla = &sla[0];
    println!(
        "p99 at {:.0} offered rps: {} (achieved {:.0} rps, {} shed)",
        sla_rps,
        fmt_ms(sla.p99_ms),
        sla.achieved_rps,
        sla.shed
    );

    // --- 6. Optionally append everything to a BENCH_ci.json-style report.
    if let Some(out_path) = std::env::args().nth(1) {
        let path = std::path::Path::new(&out_path);
        let mut bench = BenchReport::load_or_default(path)?;
        bench.summarize("serve_rps_1w", one.achieved_rps);
        bench.summarize("serve_rps_4w", four.achieved_rps);
        bench.summarize("serve_scaling_4w_over_1w", scaling);
        for p in &curve {
            let tag = format!("serve_curve_w4_r{:.0}", p.offered_rps);
            bench.summarize(&format!("{tag}_achieved_rps"), p.achieved_rps);
            bench.summarize(&format!("{tag}_p50_ms"), p.p50_ms);
            bench.summarize(&format!("{tag}_p99_ms"), p.p99_ms);
            bench.summarize(&format!("{tag}_p999_ms"), p.p999_ms);
            bench.summarize(&format!("{tag}_shed"), p.shed as f64);
        }
        bench.summarize("serve_p99_ms_at_sla", sla.p99_ms);
        std::fs::write(path, bench.to_json()?)?;
        println!("appended load-harness stats to {out_path}");
    }
    Ok(())
}
