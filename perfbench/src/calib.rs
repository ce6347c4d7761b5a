//! The host drift marker: a fixed piece of arithmetic owned by the
//! benchmark, calling no repository code.
//!
//! It sweeps a 1 MiB buffer (L2-sized on common x86 cores, like the
//! workloads' largest feature maps) with a dependent multiply-add chain. If
//! it slows between two runs of the same commit, the host slowed, not the
//! program.

use std::hint::black_box;
use std::time::Instant;

const WORDS: usize = 1 << 17; // 1 MiB of f64
const SWEEPS: usize = 24;
const REPETITIONS: usize = 5;
/// Untimed repetitions first, so an idle core has reached its working clock.
const WARMUP: usize = 10;

/// Times the calibration work [`REPETITIONS`] times, in milliseconds.
pub fn measure() -> Vec<f64> {
    let mut buf: Vec<f64> = (0..WORDS).map(|i| (i % 97) as f64 * 1e-3).collect();
    for _ in 0..WARMUP {
        work(&mut buf);
    }
    (0..REPETITIONS)
        .map(|_| {
            let start = Instant::now();
            work(&mut buf);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn work(buf: &mut [f64]) {
    let mut acc = 0.0f64;
    for sweep in 0..SWEEPS {
        let scale = 1.0 - 1e-6 * sweep as f64;
        for x in buf.iter_mut() {
            *x = *x * scale + 1e-9;
            acc += *x;
        }
    }
    black_box(acc);
    black_box(buf);
}
