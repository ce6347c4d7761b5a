//! Workspace integration tests for the linear instruction tape: for the
//! CIFAR-scale zoo models at every measured fusion level (0–3: Baseline,
//! RCF, RCF+MVF, BNFF), the compiled frozen tape at batch sizes 1, 4 and 8
//! must match the training tape's eval-mode forward
//! (`Executor::forward_eval`, unfolded BN with running statistics) within
//! 1e-5 per sample, and give
//! **bit-identical** per-sample scores at every batch size and across
//! `BNFF_THREADS` 1 and 4 — the tape is a dispatch optimization, never a
//! numerics change.

use bnff::core::{BnffOptimizer, FusionLevel};
use bnff::graph::Graph;
use bnff::models::{densenet_cifar, resnet_cifar};
use bnff::parallel::with_threads;
use bnff::serve::ServeEngine;
use bnff::tensor::init::Initializer;
use bnff::tensor::{Shape, Tensor};
use bnff::train::validate::score_divergence;
use bnff::train::Executor;

/// The shape of the graph's data input.
fn input_shape(graph: &Graph) -> Shape {
    graph
        .input_nodes()
        .into_iter()
        .map(|id| graph.node(id).unwrap().output_shape.clone())
        .find(Shape::is_nchw)
        .expect("graph has a data input")
}

/// Prepares a trained-ish executor (moved running statistics) for a graph.
fn conditioned(graph: &Graph, seed: u64) -> Executor {
    let input_shape = input_shape(graph);
    let mut exec = Executor::new(graph.clone(), seed).unwrap();
    let mut init = Initializer::seeded(seed ^ 0xbadc0de);
    let labels: Vec<usize> = (0..input_shape.n()).map(|i| i % 4).collect();
    let data = init.uniform(input_shape, -1.0, 1.0);
    let fwd = exec.forward(&data, &labels).unwrap();
    exec.update_running_stats(&fwd).unwrap();
    exec
}

fn to_bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Rows `start..start + n` of an NCHW batch, as a batch of `n`.
fn rows(data: &Tensor, start: usize, n: usize) -> Tensor {
    let sample_len = data.len() / data.shape().n();
    let mut dims = data.shape().dims().to_vec();
    dims[0] = n;
    let values = data.as_slice()[start * sample_len..(start + n) * sample_len].to_vec();
    Tensor::from_vec(Shape::new(dims), values).unwrap()
}

/// Frozen tape vs the training tape's eval forward at batch sizes 1/4/8
/// and thread counts 1/4: within 1e-5 of the eval forward, and bitwise
/// equal per sample across every batch size and thread count.
fn check_tape_matches_interpreted(graph: &Graph, context: &str) {
    let exec = conditioned(graph, 23);
    let model = ServeEngine::builder().executor(&exec).build_model().unwrap();
    let input_shape = input_shape(graph);
    let graph_batch = input_shape.n();
    assert_eq!(8 % graph_batch, 0, "{context}: graph batch must divide 8");
    // Eight samples: the batch-8 tape runs them at once, the batch-4 tape
    // in two halves, the batch-1 tape one by one; the eval forward runs
    // them at the graph's own batch.
    let samples = {
        let mut dims = input_shape.dims().to_vec();
        dims[0] = 8;
        Initializer::seeded(0x7a9e).uniform(Shape::new(dims), -1.0, 1.0)
    };
    let labels: Vec<usize> = (0..graph_batch).map(|i| i % 4).collect();
    let mut reference_bits: Option<Vec<u32>> = None;
    for batch in [1usize, 4, 8] {
        let executor = model.executor(batch).unwrap();
        for threads in [1usize, 4] {
            with_threads(threads, || {
                let mut bits = Vec::new();
                for start in (0..8).step_by(batch) {
                    bits.extend(to_bits(&executor.infer(&rows(&samples, start, batch)).unwrap()));
                }
                for start in (0..8).step_by(graph_batch) {
                    let chunk = rows(&samples, start, graph_batch);
                    let eval = exec.forward_eval(&chunk, &labels).unwrap();
                    let classes = bits.len() / 8;
                    let tape: Vec<f32> = bits[start * classes..(start + graph_batch) * classes]
                        .iter()
                        .map(|b| f32::from_bits(*b))
                        .collect();
                    let tape = Tensor::from_vec(eval.scores.shape().clone(), tape).unwrap();
                    let div = score_divergence(&eval.scores, &tape).unwrap();
                    assert!(
                        div < 1e-5,
                        "{context} b{batch} t{threads}: tape diverges from the eval forward by {div}"
                    );
                }
                match &reference_bits {
                    None => reference_bits = Some(bits),
                    Some(reference) => assert_eq!(
                        &bits, reference,
                        "{context} b{batch} t{threads}: tape scores differ from batch 1 at 1 thread"
                    ),
                }
            });
        }
    }
}

#[test]
fn cifar_densenet_tape_matches_interpreted_at_levels_0_to_3() {
    let baseline = densenet_cifar(4, 6, 2, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_tape_matches_interpreted(&graph, &format!("densenet-cifar {level}"));
    }
}

#[test]
fn cifar_resnet_tape_matches_interpreted_at_levels_0_to_3() {
    let baseline = resnet_cifar(4, 1, 4).unwrap();
    for level in FusionLevel::measured() {
        let graph = BnffOptimizer::new(level).apply(&baseline).unwrap();
        check_tape_matches_interpreted(&graph, &format!("resnet-cifar {level}"));
    }
}
