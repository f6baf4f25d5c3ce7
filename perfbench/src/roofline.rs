//! Same-run CPU ceilings: peak multiply+add throughput and streaming
//! read bandwidth, measured on the exec layer's thread count so the
//! multiply phase can be set against what this machine, with this build,
//! can reach. `attainable = min(peak, intensity × bandwidth)` is the
//! roofline of `wino_dse::roofline`, with the FPGA's numbers replaced by
//! these two.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Independent accumulators per thread: enough vector registers'
/// worth that multiply and add latency hide behind each other.
const LANES: usize = 64;
/// Inner iterations of one peak-throughput repetition (~0.2 s).
const FMA_ITERS: usize = 20_000_000;
/// Repetitions behind each ceiling's median.
const REPS: usize = 5;

/// The two measured ceilings and the sizes behind them.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Peak f32 multiply+add rate across `threads`, GFLOP/s.
    pub fma_gflops: f64,
    /// Streaming read bandwidth across `threads`, GB/s.
    pub stream_gbps: f64,
    /// Last-level cache size the CPU reports.
    pub llc_bytes: usize,
    /// Bytes streamed per pass: at least four times the LLC.
    pub array_bytes: usize,
}

/// Measures both ceilings with `threads` workers.
pub fn measure(threads: usize) -> Ceilings {
    let llc_bytes = crate::env::llc_bytes();
    let array_bytes = (4 * llc_bytes).max(64 << 20);
    let fma_gflops = median(&(0..REPS).map(|_| fma_rep(threads)).collect::<Vec<_>>());
    let stream_gbps = stream(threads, array_bytes);
    Ceilings { fma_gflops, stream_gbps, llc_bytes, array_bytes }
}

/// One repetition of `LANES` independent `x = x·a + b` chains per thread.
fn fma_rep(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let a = black_box(0.999_999_f32);
                    let b = black_box(1e-6_f32);
                    let mut acc = [0.0f32; LANES];
                    for (i, x) in acc.iter_mut().enumerate() {
                        *x = black_box((t * LANES + i) as f32 * 1e-3);
                    }
                    for _ in 0..FMA_ITERS {
                        for x in acc.iter_mut() {
                            *x = *x * a + b;
                        }
                    }
                    black_box(acc.iter().sum::<f32>())
                })
            })
            .collect();
        for w in workers {
            w.join().expect("peak-FMA worker panicked");
        }
    });
    let flops = (2 * LANES * FMA_ITERS * threads) as f64;
    flops / start.elapsed().as_secs_f64() / 1e9
}

/// Median bandwidth of `REPS` parallel read passes over `bytes`.
fn stream(threads: usize, bytes: usize) -> f64 {
    let data = vec![1.0f32; bytes / 4];
    let chunk = data.len().div_ceil(threads);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let total: f32 = std::thread::scope(|scope| {
                let workers: Vec<_> = data
                    .chunks(chunk)
                    .map(|part| scope.spawn(move || sum_stream(black_box(part))))
                    .collect();
                workers.into_iter().map(|w| w.join().expect("stream worker panicked")).sum()
            });
            black_box(total);
            (data.len() * 4) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&reps)
}

/// Sums a slice with 16 independent partial sums so the loop is bound by
/// loads, not by the add latency.
fn sum_stream(part: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    let mut chunks = part.chunks_exact(16);
    for c in &mut chunks {
        for (a, x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    acc.iter().sum::<f32>() + chunks.remainder().iter().sum::<f32>()
}
