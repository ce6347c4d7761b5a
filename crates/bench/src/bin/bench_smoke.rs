//! CI perf smoke: quick-mode measurements of the hot kernels, written as a
//! machine-readable `BENCH_ci.json` so every push leaves a perf-trajectory
//! data point (per-kernel ns/iter, GEMM GFLOP/s, and the blocked-vs-
//! streaming GEMM speedup the cache-blocked engine is accountable for).
//!
//! Usage: `cargo run --release --bin bench_smoke [-- OUTPUT.json]`
//! `BENCH_SMOKE_MS` overrides the per-bench measurement time (default 200).
//!
//! Alongside the kernel numbers, the smoke measures the paper's
//! inference-side payoff: a single-image forward pass through the frozen
//! (BN-folded) graph vs the training executor's eval-mode forward.

use bnff_bench::{print_table, training_step_executors, BenchReport};
use bnff_core::{BnffOptimizer, FusionLevel};
use bnff_graph::op::Conv2dAttrs;
use bnff_kernels::conv::{conv2d_forward_direct, conv2d_forward_into};
use bnff_kernels::dispatch::{active_isa, with_isa, SimdIsa};
use bnff_kernels::gemm::{gemm, gemm_nt, gemm_streaming, gemm_tn, pack_pool_reuse};
use bnff_kernels::{affine, batchnorm, relu};
use bnff_parallel::with_threads;
use bnff_serve::{ServeEngine, ServeMetrics};
use bnff_tensor::init::Initializer;
use bnff_tensor::{Shape, Tensor};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

const GEMM_DIM: usize = 256;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_ci.json".to_string());
    let ms: u64 = std::env::var("BENCH_SMOKE_MS").ok().and_then(|s| s.parse().ok()).unwrap_or(200);
    let budget = Duration::from_millis(ms);
    let mut report = BenchReport::new();

    // Which SIMD path produced every "active" record below; the scalar-named
    // records force the fallback for the simd_over_scalar ratios.
    let isa = active_isa();
    println!("simd dispatch: {isa}");

    // --- GEMM: the acceptance measurement. 256x256x256, one worker, so the
    // blocked-vs-streaming ratio isolates the packing/blocking win and the
    // scalar-vs-SIMD ratio isolates the microkernel win.
    let n = GEMM_DIM;
    let a: Vec<f32> = (0..n * n).map(|i| ((i * 37 % 13) as f32 - 6.0) * 0.25).collect();
    let b: Vec<f32> = (0..n * n).map(|i| ((i * 29 % 11) as f32 - 5.0) * 0.5).collect();
    let mut c = vec![0.0f32; n * n];
    let gemm_flops = 2.0 * (n * n * n) as f64;
    with_threads(1, || {
        report.measure("gemm_256_blocked_1t", Some(gemm_flops), 3, budget, || {
            gemm(n, n, n, 1.0, &a, &b, 0.0, &mut c).unwrap();
        });
        with_isa(SimdIsa::Scalar, || {
            report.measure("gemm_256_scalar_1t", Some(gemm_flops), 3, budget, || {
                gemm(n, n, n, 1.0, &a, &b, 0.0, &mut c).unwrap();
            });
        });
        report.measure("gemm_256_streaming_1t", Some(gemm_flops), 3, budget, || {
            gemm_streaming(n, n, n, 1.0, &a, &b, 0.0, &mut c).unwrap();
        });
        report.measure("gemm_nt_256_blocked_1t", Some(gemm_flops), 3, budget, || {
            gemm_nt(n, n, n, &a, &b, &mut c).unwrap();
        });
        report.measure("gemm_tn_256_blocked_1t", Some(gemm_flops), 3, budget, || {
            gemm_tn(n, n, n, &a, &b, &mut c).unwrap();
        });
        // Per-size GFLOP/s trajectory for the microkernel (same data,
        // leading sub-matrices keep the row stride at 256).
        for dim in [64usize, 128] {
            let mut c_small = vec![0.0f32; dim * dim];
            let a_small: Vec<f32> = (0..dim * dim).map(|i| a[i]).collect();
            let b_small: Vec<f32> = (0..dim * dim).map(|i| b[i]).collect();
            let flops = 2.0 * (dim * dim * dim) as f64;
            report.measure(&format!("gemm_{dim}_blocked_1t"), Some(flops), 3, budget, || {
                gemm(dim, dim, dim, 1.0, &a_small, &b_small, 0.0, &mut c_small).unwrap();
            });
        }
    });
    report.measure("gemm_256_blocked_mt", Some(gemm_flops), 3, budget, || {
        gemm(n, n, n, 1.0, &a, &b, 0.0, &mut c).unwrap();
    });

    // --- Convolution: packed im2col path vs the direct loop nest.
    let attrs = Conv2dAttrs::same_3x3(32);
    let mut init = Initializer::seeded(7);
    let x = init.uniform(Shape::nchw(4, 16, 16, 16), -1.0, 1.0);
    let w = init.uniform(Shape::nchw(32, 16, 3, 3), -1.0, 1.0);
    let conv_flops = 2.0 * (4 * 32 * 16 * 16) as f64 * (16 * 9) as f64;
    let mut conv_out = Tensor::zeros(Shape::nchw(4, 32, 16, 16));
    report.measure("conv3x3_im2col_packed", Some(conv_flops), 3, budget, || {
        conv2d_forward_into(&x, &w, None, &attrs, &mut conv_out).unwrap();
    });
    report.measure("conv3x3_direct", Some(conv_flops), 3, budget, || {
        conv2d_forward_direct(&x, &w, None, &attrs).unwrap();
    });

    // --- The BN-side kernels the paper restructures, active path vs the
    // forced scalar fallback (the bandwidth-bound side of the SIMD work).
    let bn_x = init.uniform(Shape::nchw(8, 32, 32, 32), -1.0, 1.0);
    let bn_params = batchnorm::BnParams::identity(32);
    // Statistics, then normalization into a recycled output (as the
    // training tape runs BN).
    let mut bn_out = Tensor::zeros(bn_x.shape().clone());
    let bn_forward = |out: &mut Tensor| {
        let stats = batchnorm::bn_statistics(&bn_x, true).unwrap();
        batchnorm::bn_normalize_into(&bn_x, &stats, &bn_params, 1e-5, out).unwrap();
    };
    let mut relu_out = Tensor::zeros(bn_x.shape().clone());
    report.measure("bn_forward_one_pass", None, 3, budget, || bn_forward(&mut bn_out));
    report.measure("relu_forward", None, 3, budget, || {
        relu::relu_forward_into(&bn_x, &mut relu_out).unwrap();
    });
    let aff_scale = vec![1.25f32; 32];
    let aff_shift = vec![-0.1f32; 32];
    let mut aff_out = Tensor::zeros(bn_x.shape().clone());
    report.measure("channel_affine_relu", None, 3, budget, || {
        affine::channel_affine_relu_into(&bn_x, &aff_scale, &aff_shift, &mut aff_out).unwrap();
    });
    with_isa(SimdIsa::Scalar, || {
        report.measure("bn_forward_one_pass_scalar", None, 3, budget, || bn_forward(&mut bn_out));
        report.measure("relu_forward_scalar", None, 3, budget, || {
            relu::relu_forward_into(&bn_x, &mut relu_out).unwrap();
        });
        report.measure("channel_affine_relu_scalar", None, 3, budget, || {
            affine::channel_affine_relu_into(&bn_x, &aff_scale, &aff_shift, &mut aff_out).unwrap();
        });
    });

    // --- One planned training step, baseline vs BNFF, at toy scale.
    let mut execs = training_step_executors(2, 5)?;
    let step_x = init.uniform(Shape::nchw(2, 3, 32, 32), -1.0, 1.0);
    let labels = vec![0usize, 1];
    for (level, exec) in &mut execs {
        let name = format!("training_step_{}", bnff_bench::level_bench_name(*level));
        report.measure(&name, None, 2, budget, || {
            let fwd = exec.forward(&step_x, &labels).unwrap();
            exec.backward(&fwd).unwrap();
        });
    }

    // --- Single-image forward: frozen (BN folded into the weights) vs the
    // training executor in eval mode — the BN-fold inference payoff.
    let single = bnff_models::densenet_cifar(1, 8, 2, 10)?;
    let single_exec = bnff_train::Executor::new(single, 9)?;
    let image = init.uniform(Shape::nchw(1, 3, 32, 32), -1.0, 1.0);
    let image_labels = vec![0usize];
    // The single-image records feed the CI-gated
    // `tape_over_training_single_image` summary, so they use the
    // interleaved min-of-windows estimator: a host load spike cannot sink
    // the ratio, and both forwards sample the same frequency/thermal
    // regimes instead of the first one pocketing the boost clock.
    // `single_image_tape_forward` is the serving hot path proper — the
    // frozen graph compiled to a linear instruction tape (pre-resolved
    // kernel recipes and arena offsets, no per-node dispatch). Both run
    // under a pinned 4-worker pool, the condition the serve engine actually
    // executes under: the training executor fans every kernel out to the
    // pool, while the tape's compile-time FLOPs analysis pins this
    // sub-100-MFLOP model to one worker — that whole-program serial hint is
    // part of what the ratio measures, and pinning the pool size makes the
    // snapshot reproducible across hosts with different core counts.
    let frozen = ServeEngine::builder().executor(&single_exec).build_model()?.executor(1)?;
    with_threads(4, || {
        report.measure_min_interleaved(
            7,
            3,
            budget,
            &mut [
                ("single_image_training_eval_forward", None, &mut || {
                    single_exec.forward_eval(&image, &image_labels).unwrap();
                }),
                ("single_image_tape_forward", None, &mut || {
                    frozen.infer(&image).unwrap();
                }),
            ],
        );
    });

    // --- Observability overhead. Two measurements feed the CI-gated
    // `obs_overhead_pct` summary: the bare tape forward (tracing and
    // profiling disabled — the path every untraced request takes, one
    // relaxed atomic load per tape run), and the full per-request recording
    // sequence the serve engine runs on the lock-free registry (two clock
    // reads, three histogram records, a batch counter and a queue-depth
    // sample). The gate divides the directly-measured recording cost by
    // the forward cost rather than differencing two multi-millisecond
    // timings, whose run-to-run jitter dwarfs a sub-microsecond sequence.
    let obs_metrics = ServeMetrics::new();
    with_threads(4, || {
        report.measure("single_image_tape_obs_off", None, 3, budget, || {
            frozen.infer(&image).unwrap();
        });
    });
    report.measure("obs_record_sequence", None, 3, budget, || {
        let taken = Instant::now();
        let infer_time = taken.elapsed();
        obs_metrics.record_queue_wait(Duration::ZERO);
        obs_metrics.record_infer(infer_time);
        obs_metrics.record_batch(1);
        obs_metrics.record_queue_depth(0);
        obs_metrics.record_request(taken.elapsed());
    });

    // --- Per-op tape profile: measured ns per op kind (the opt-in tape
    // profiler) printed next to memsim's predicted forward DRAM bytes for
    // the same nodes — the measured-vs-modeled side-by-side the paper's
    // traffic argument rests on. Freezing compiles every fusion level to
    // the same program, so the BNFF tape is profiled once.
    const PROFILE_PASSES: u64 = 20;
    let machine = bnff_memsim::MachineProfile::skylake_xeon_2s();
    let bnff_graph =
        BnffOptimizer::new(FusionLevel::Bnff).apply(&bnff_models::densenet_cifar(1, 8, 2, 10)?)?;
    let model = ServeEngine::builder()
        .executor(&bnff_train::Executor::new(bnff_graph, 5)?)
        .build_model()?;
    let tape = model.executor(1)?;
    let predicted = bnff_memsim::forward_dram_bytes(model.template(), &machine)?;
    let bytes_by_node: HashMap<_, f64> = predicted.iter().map(|o| (o.node, o.dram_bytes)).collect();
    tape.enable_profiling(true);
    for _ in 0..PROFILE_PASSES {
        tape.infer(&image)?;
    }
    // Aggregate the per-instruction spans by op kind; ns are per pass.
    let mut by_kind: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for op in tape.profile() {
        let entry = by_kind.entry(op.kind).or_insert((0.0, 0.0));
        entry.0 += op.total_ns as f64 / PROFILE_PASSES as f64;
        entry.1 += bytes_by_node.get(&op.node).copied().unwrap_or(0.0);
    }
    let rows: Vec<Vec<String>> = by_kind
        .iter()
        .map(|(kind, (ns, bytes))| {
            vec![(*kind).to_string(), format!("{ns:.0}"), format!("{bytes:.0}")]
        })
        .collect();
    print_table(
        "per-op profile (BNFF tape)",
        &["op kind", "ns/pass", "predicted DRAM bytes"],
        &rows,
    );
    for (kind, (ns, bytes)) in &by_kind {
        report.summarize(&format!("op_profile_{kind}_ns"), *ns);
        report.summarize(&format!("op_profile_{kind}_bytes"), *bytes);
    }

    // --- Model load: binary artifact vs JSON checkpoint, same model. This
    // is the deploy-path payoff the artifact format is accountable for —
    // the CI gate holds the binary path to ≥2x over JSON parsing.
    let load_dir = std::env::temp_dir().join(format!("bnff-bench-load-{}", std::process::id()));
    std::fs::create_dir_all(&load_dir)?;
    let artifact_path = load_dir.join("model.bnff");
    let json_path = load_dir.join("model.json");
    let checkpoint = bnff_train::checkpoint::Checkpoint::capture(&single_exec);
    checkpoint.write_artifact(&artifact_path)?;
    checkpoint.save(&json_path)?;
    report.measure_min_interleaved(
        7,
        3,
        budget,
        &mut [
            ("model_load_artifact", None, &mut || {
                bnff_train::checkpoint::Checkpoint::read_artifact(&artifact_path).unwrap();
            }),
            ("model_load_checkpoint_json", None, &mut || {
                bnff_train::checkpoint::Checkpoint::load(&json_path).unwrap();
            }),
        ],
    );
    let _ = std::fs::remove_dir_all(&load_dir);

    let blocked_speedup =
        report.speedup("gemm_256_blocked_1t", "gemm_256_streaming_1t").unwrap_or(0.0);
    report.summarize("gemm_256_blocked_over_streaming", blocked_speedup);
    // SIMD summaries: the dispatch marker (1.0 = the active path is
    // AVX2+FMA; CI skips the SIMD gates when 0), the active-path GFLOP/s
    // floor, and the SIMD-over-scalar ratios.
    report.summarize("simd_avx2", if isa == SimdIsa::Avx2Fma { 1.0 } else { 0.0 });
    let gemm_gflops = report
        .records
        .iter()
        .find(|r| r.name == "gemm_256_blocked_1t")
        .and_then(|r| r.gflops)
        .unwrap_or(0.0);
    report.summarize("gemm_gflops_256", gemm_gflops);
    let simd_gemm = report.speedup("gemm_256_blocked_1t", "gemm_256_scalar_1t").unwrap_or(0.0);
    report.summarize("simd_over_scalar_gemm_256", simd_gemm);
    let simd_bn =
        report.speedup("bn_forward_one_pass", "bn_forward_one_pass_scalar").unwrap_or(0.0);
    report.summarize("simd_over_scalar_bn_forward", simd_bn);
    let simd_relu = report.speedup("relu_forward", "relu_forward_scalar").unwrap_or(0.0);
    report.summarize("simd_over_scalar_relu", simd_relu);
    let simd_affine =
        report.speedup("channel_affine_relu", "channel_affine_relu_scalar").unwrap_or(0.0);
    report.summarize("simd_over_scalar_affine", simd_affine);
    let (hits, takes) = pack_pool_reuse();
    if takes > 0 {
        report.summarize("gemm_pack_pool_hit_rate", hits as f64 / takes as f64);
    }
    let tape_over_training = report
        .speedup("single_image_tape_forward", "single_image_training_eval_forward")
        .unwrap_or(0.0);
    report.summarize("tape_over_training_single_image", tape_over_training);
    // Observability overhead: the per-request recording sequence as a
    // percentage of a single-image tape forward.
    let ns_of = |name: &str| {
        report.records.iter().find(|r| r.name == name).map(|r| r.ns_per_iter).unwrap_or(0.0)
    };
    let obs_off_ns = ns_of("single_image_tape_obs_off");
    let obs_record_ns = ns_of("obs_record_sequence");
    let obs_overhead_pct = if obs_off_ns > 0.0 { obs_record_ns / obs_off_ns * 100.0 } else { 0.0 };
    report.summarize("obs_overhead_pct", obs_overhead_pct);

    let load_ms = |name: &str| {
        report.records.iter().find(|r| r.name == name).map(|r| r.ns_per_iter / 1e6).unwrap_or(0.0)
    };
    let artifact_load_ms = load_ms("model_load_artifact");
    let checkpoint_load_ms = load_ms("model_load_checkpoint_json");
    report.summarize("artifact_load_ms", artifact_load_ms);
    report.summarize("checkpoint_load_ms", checkpoint_load_ms);
    let artifact_speedup =
        report.speedup("model_load_artifact", "model_load_checkpoint_json").unwrap_or(0.0);
    report.summarize("artifact_over_checkpoint_load", artifact_speedup);

    let rows: Vec<Vec<String>> = report
        .records
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.0}", r.ns_per_iter),
                r.gflops.map(|g| format!("{g:.2}")).unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    print_table("bench smoke", &["kernel", "ns/iter", "GFLOP/s"], &rows);
    println!("\nsimd dispatch: {isa} (BNFF_SIMD overrides; scalar forces the fallback)");
    println!("gemm 256³ 1-thread: {gemm_gflops:.2} GFLOP/s, {simd_gemm:.2}x over scalar");
    println!(
        "simd over scalar — bn forward: {simd_bn:.2}x, relu: {simd_relu:.2}x, \
         affine+relu: {simd_affine:.2}x"
    );
    println!("blocked GEMM speedup over streaming (256³, 1 thread): {blocked_speedup:.2}x");
    println!(
        "frozen tape speedup over training eval forward (single image): \
         {tape_over_training:.2}x (gate: >= 1.25)"
    );
    println!("observability per-request overhead: {obs_overhead_pct:.2}% (gate: <= 3%)");
    println!(
        "model load — artifact: {artifact_load_ms:.2} ms, json checkpoint: \
         {checkpoint_load_ms:.2} ms ({artifact_speedup:.2}x)"
    );

    std::fs::write(&out_path, report.to_json()?)?;
    println!("wrote {out_path}");
    Ok(())
}
