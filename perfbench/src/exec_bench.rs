//! The two forward-pass workloads, `vgg16d-224` and `alexnet-227`.
//!
//! Both run one image at a time through `NetworkExecutor::execute_layer`
//! in a closed loop with one caller, on `ExecConfig::default()` threads.
//! A pass is one image through every conv layer; its latency is the sum
//! of the layer calls' wall times (layers are not chained: the executor
//! gives every layer its own seeded input, as `NetworkExecutor::run`
//! does).
//!
//! Correctness: the warm-up pass's outputs are checked against the
//! spatial oracle on sampled output channels of every layer, and every
//! timed pass must reproduce them bitwise.

use crate::report::Report;
use crate::roofline::Ceilings;
use crate::stats::median;
use crate::trace::{traced, BenchRecorder};
use std::time::{Duration, Instant};
use wino_baselines::spatial_convolve_strided;
use wino_core::{winograd_mults, TileModel, Workload};
use wino_dse::{Evaluator, LayerTraffic};
use wino_exec::{fft_error_bound, EnginePlan, ExecConfig, NetworkExecutor, Schedule};
use wino_obs::{collect, Span, SpanRecord};
use wino_search::{
    EvalCache, Exhaustive, HeterogeneousSpace, ParetoArchive, SearchObjective, Strategy,
};
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

/// Which network a forward-pass workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// The paper's network and design: VGG16-D at 224², every layer on
    /// the Table II `F(4×4, 3×3)` engine.
    Vgg16d,
    /// AlexNet at 227² on the schedule the exhaustive heterogeneous
    /// search picks for throughput.
    Alexnet,
}

impl Net {
    fn name(self) -> &'static str {
        match self {
            Net::Vgg16d => "vgg16d-224",
            Net::Alexnet => "alexnet-227",
        }
    }
}

/// Set-ups per run; the last one is the executor that is measured and
/// `setup_s` is their median.
const SETUPS: usize = 5;
/// Output channels per layer compared with the spatial oracle.
const CHECKED_CHANNELS: usize = 4;
/// The repository's verification tolerance for Winograd and spatial
/// layers (FFT layers use `fft_error_bound`).
const TOLERANCE: f64 = 1e-2;
/// Fewest timed passes a measurement makes, however long they take.
const MIN_PASSES: usize = 3;

struct SearchStats {
    ms: f64,
    evaluations: usize,
    cache_hit_share: f64,
}

struct Setup {
    exec: NetworkExecutor,
    seconds: f64,
    /// Seconds inside the executor's own `exec.prepare` spans (traced
    /// runs only).
    prepare_s: f64,
    search: Option<SearchStats>,
}

/// One forward pass.
struct Pass {
    ms: f64,
    /// Every layer reproduced the reference output bitwise.
    ok: bool,
    /// Per-layer wall time and phase split (traced passes only).
    layers: Vec<LayerTrace>,
}

struct LayerTrace {
    ms: f64,
    phases: Vec<(String, f64)>,
}

impl LayerTrace {
    fn phase(&self, label: &str) -> f64 {
        self.phases.iter().filter(|(l, _)| l == label).map(|(_, ms)| ms).sum()
    }
}

/// Runs one forward-pass workload and reports its metrics.
pub fn run(net: Net, seed: u64, seconds: f64, ceilings: Option<Ceilings>) -> Report {
    let trace = ceilings.is_some();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // free the previous executor before building the next
        let setup = set_up(net, seed, trace);
        setups.push((setup.seconds, setup.prepare_s));
        last = Some(setup);
    }
    let Setup { exec, search, .. } = last.expect("at least one set-up");
    let layers = exec.workload().layers();
    println!(
        "info workload={} exec_threads={} layers={} setups={SETUPS}",
        net.name(),
        exec.config().threads,
        layers.len()
    );

    let inputs: Vec<Tensor4<f32>> = (0..layers.len()).map(|i| exec.layer_input(i)).collect();
    // The warm-up pass: its outputs are checked against the oracle and
    // become the reference every timed pass must reproduce bitwise.
    let reference: Vec<Tensor4<f32>> = (0..layers.len())
        .map(|i| exec.execute_layer(i, &inputs[i]).expect("validated plan executes"))
        .collect();
    let mut verified = true;
    let mut max_abs_err = 0.0f64;
    for (i, (max_abs, tolerance)) in
        verify(&exec, &inputs, &reference, seed).into_iter().enumerate()
    {
        let ok = max_abs <= tolerance;
        verified &= ok;
        max_abs_err = max_abs_err.max(max_abs);
        println!(
            "info layer={} engine=\"{}\" oracle_max_abs={:.3e} tolerance={:.3e} verified={}",
            layers[i].name,
            exec.engine_label(i),
            max_abs,
            tolerance,
            ok
        );
    }

    let mut report = Report::default();
    let Some(ceilings) = ceilings else {
        let passes = measure(&exec, &inputs, &reference, seconds, false);
        count(&mut report, &passes, verified);
        let ms: Vec<f64> = passes.iter().map(|p| p.ms).collect();
        println!("info latency samples={} pass_ms={}", ms.len(), list(&ms));
        report.set("setup_s", median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()));
        report.set("latency_ms_p50", median(&ms));
        report.set("img_per_s", ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3));
        report.set("ok_share", report.ok_share());
        return report;
    };

    // Traced run: half the time untraced, half traced; the difference is
    // the tracing overhead.
    let plain = measure(&exec, &inputs, &reference, seconds / 2.0, false);
    let recorder = BenchRecorder::new();
    let passes = traced(&recorder, || measure(&exec, &inputs, &reference, seconds / 2.0, true));
    recorder.write(net.name());
    count(&mut report, &plain, verified);
    count(&mut report, &passes, verified);
    println!("info traced_passes={} untraced_passes={}", passes.len(), plain.len());

    let pass_median = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    for (i, layer) in layers.iter().enumerate() {
        report.set(&format!("exec.{}.ms", layer.name), pass_median(&|p| p.layers[i].ms));
    }
    for phase in ["pack", "multiply", "inverse", "spatial"] {
        let ms = pass_median(&|p| p.layers.iter().map(|l| l.phase(phase)).sum());
        report.set(&format!("exec.{phase}_ms"), ms);
    }

    // The Winograd layers' multiply against the same-run roofline.
    let winograd: Vec<usize> = (0..layers.len())
        .filter(|&i| matches!(exec.schedule().plans()[i].engine, EnginePlan::Winograd(_)))
        .collect();
    let traffic = winograd_traffic(&exec, &winograd);
    if !winograd.is_empty() {
        let multiply_ms =
            pass_median(&|p| winograd.iter().map(|&i| p.layers[i].phase("multiply")).sum());
        let gflops = traffic.ops / (multiply_ms / 1e3) / 1e9;
        let attainable =
            ceilings.fma_gflops.min(traffic.arithmetic_intensity() * ceilings.stream_gbps);
        report.set("exec.multiply_gflops", gflops);
        report.set("exec.multiply_ceiling_share", gflops / attainable);
        report.set(
            "exec.pack_inverse_share",
            pass_median(&|p| {
                let busy: f64 = winograd
                    .iter()
                    .map(|&i| p.layers[i].phase("pack") + p.layers[i].phase("inverse"))
                    .sum();
                busy / winograd.iter().map(|&i| p.layers[i].ms).sum::<f64>()
            }),
        );
    }
    report.set("exec.bytes_computed", traffic.total_bytes() + other_layer_bytes(&exec, &winograd));
    report.set("exec.prepare_s", median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()));
    report.set("exec.max_abs_err", max_abs_err);
    if let Some(search) = search {
        report.set("search.ms", search.ms);
        report.set("search.evaluations", search.evaluations as f64);
        report.set("search.cache_hit_share", search.cache_hit_share);
    }
    report.set("roofline.fma_gflops", ceilings.fma_gflops);
    report.set("roofline.stream_gbps", ceilings.stream_gbps);
    let untraced = median(&plain.iter().map(|p| p.ms).collect::<Vec<_>>());
    report.set("trace.overhead_share", pass_median(&|p| p.ms) / untraced - 1.0);
    report
}

/// Builds the executor, searching for its schedule first on AlexNet.
fn set_up(net: Net, seed: u64, trace: bool) -> Setup {
    let start = Instant::now();
    let (workload, schedule, search) = match net {
        Net::Vgg16d => {
            let wl = wino_models::vgg16d(1);
            let schedule = Schedule::homogeneous(&wl, 4).expect("VGG16-D lowers to F(4x4, 3x3)");
            (wl, schedule, None)
        }
        Net::Alexnet => {
            let wl = wino_models::alexnet(1);
            let (schedule, stats) = search_schedule(&wl);
            (wl, schedule, Some(stats))
        }
    };
    let build = || {
        NetworkExecutor::with_seed(workload, schedule, ExecConfig::default(), seed)
            .expect("the schedule validates")
    };
    let (exec, spans) = if trace { collect(build) } else { (build(), Vec::new()) };
    let seconds = start.elapsed().as_secs_f64();
    let prepare_s = spans.iter().filter(|s| s.category == "exec.prepare").map(secs).sum();
    Setup { exec, seconds, prepare_s, search }
}

/// The search → lower path: exhaustive search of AlexNet's three-way
/// per-layer space for throughput, lowered to an executable schedule.
fn search_schedule(wl: &Workload) -> (Schedule, SearchStats) {
    let start = Instant::now();
    let evaluator = Evaluator::new(wl.clone(), wino_fpga::virtex7_485t());
    let space = HeterogeneousSpace::new(&evaluator, vec![2, 3, 4, 6], vec![0.5, 1.0], 700, 200e6)
        .with_fft_sizes(vec![8, 16, 32]);
    let cache = EvalCache::new();
    let mut archive = ParetoArchive::new();
    let outcome =
        Exhaustive::default().search(&space, &cache, SearchObjective::Throughput, &mut archive);
    let (genome, _) = outcome.best.expect("the spatial fallback is always feasible");
    let designs = space.layer_designs(&genome).expect("the best genome decodes");
    let schedule = Schedule::from_layer_designs(wl, &designs).expect("the searched design lowers");
    let lookups = cache.hits() + cache.misses();
    let stats = SearchStats {
        ms: start.elapsed().as_secs_f64() * 1e3,
        evaluations: outcome.evaluations,
        cache_hit_share: cache.hits() as f64 / lookups.max(1) as f64,
    };
    (schedule, stats)
}

/// Compares sampled output channels of every layer's `outputs` with
/// `wino_baselines::spatial_convolve_strided` on the same kernels, and
/// returns each layer's `(max |error|, tolerance)`.
fn verify(
    exec: &NetworkExecutor,
    inputs: &[Tensor4<f32>],
    outputs: &[Tensor4<f32>],
    seed: u64,
) -> Vec<(f64, f64)> {
    let layers = exec.workload().layers();
    (0..layers.len())
        .map(|i| {
            let shape = layers[i].shape;
            let kernels = exec.kernels(i);
            let ks = kernels.shape();
            let mut rng = SplitMix64::new(seed ^ 0xC4EC_0000 ^ i as u64);
            let mut channels = Vec::with_capacity(CHECKED_CHANNELS);
            while channels.len() < CHECKED_CHANNELS.min(ks.n) {
                let k = rng.below(ks.n as u64) as usize;
                if !channels.contains(&k) {
                    channels.push(k);
                }
            }
            let subset = Tensor4::from_fn(Shape4 { n: channels.len(), ..ks }, |n, c, h, w| {
                kernels.at(channels[n], c, h, w)
            });
            let oracle = spatial_convolve_strided(&inputs[i], &subset, shape.pad, shape.stride);
            let os = oracle.shape();
            let plane = os.h * os.w;
            let got = outputs[i].as_slice();
            let mut max_abs = 0.0f64;
            for img in 0..os.n {
                for (j, &k) in channels.iter().enumerate() {
                    let a = &got[(img * ks.n + k) * plane..][..plane];
                    let b = &oracle.as_slice()[(img * os.c + j) * plane..][..plane];
                    max_abs = max_abs.max(ErrorStats::between(a, b).max_abs);
                }
            }
            let tolerance = match exec.schedule().plans()[i].engine {
                EnginePlan::Fft { n } => {
                    fft_error_bound(&shape, n, max_magnitude(&inputs[i]), max_magnitude(kernels))
                }
                EnginePlan::Winograd(_) | EnginePlan::Spatial => TOLERANCE,
            };
            (max_abs, tolerance)
        })
        .collect()
}

fn max_magnitude(t: &Tensor4<f32>) -> f64 {
    t.as_slice().iter().fold(0.0f64, |m, &x| m.max(f64::from(x.abs())))
}

/// Timed passes until `seconds` have elapsed (at least `MIN_PASSES`).
fn measure(
    exec: &NetworkExecutor,
    inputs: &[Tensor4<f32>],
    reference: &[Tensor4<f32>],
    seconds: f64,
    traced: bool,
) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(pass(exec, inputs, reference, traced));
    }
    passes
}

/// One image through every layer. Only the layer calls are timed; the
/// bitwise comparison with the reference happens between them.
fn pass(
    exec: &NetworkExecutor,
    inputs: &[Tensor4<f32>],
    reference: &[Tensor4<f32>],
    traced: bool,
) -> Pass {
    let mut ms = 0.0;
    let mut ok = true;
    let mut layers = Vec::new();
    for (i, layer) in exec.workload().layers().iter().enumerate() {
        let start = Instant::now();
        let out = if traced {
            let (out, spans) = collect(|| {
                let _span = Span::enter("bench.layer", &layer.name);
                exec.execute_layer(i, &inputs[i])
            });
            layers.push(LayerTrace {
                ms: spans.iter().filter(|s| s.category == "bench.layer").map(secs).sum::<f64>()
                    * 1e3,
                phases: spans
                    .iter()
                    .filter(|s| s.category == "exec.phase")
                    .map(|s| (s.label.clone(), secs(s) * 1e3))
                    .collect(),
            });
            out
        } else {
            exec.execute_layer(i, &inputs[i])
        }
        .expect("validated plan executes");
        ms += start.elapsed().as_secs_f64() * 1e3;
        ok &= out.as_slice() == reference[i].as_slice();
    }
    Pass { ms, ok, layers }
}

/// Counts passes: each is one operation, failed when the oracle check
/// of the reference failed or the pass did not reproduce it bitwise.
fn count(report: &mut Report, passes: &[Pass], verified: bool) {
    report.attempted += passes.len() as u64;
    report.failed += passes.iter().filter(|p| !(verified && p.ok)).count() as u64;
}

/// Samples as a compact comma-separated list, for the info lines.
fn list(samples: &[f64]) -> String {
    samples.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(",")
}

fn secs(span: &SpanRecord) -> f64 {
    span.duration.as_secs_f64()
}

/// Multiply FLOPs and the bytes of the transformed tiles `U`, the
/// transformed kernel bank `V` and the transform-domain products `M` of
/// the Winograd layers, computed from their sizes (not measured).
fn winograd_traffic(exec: &NetworkExecutor, winograd: &[usize]) -> LayerTraffic {
    let batch = exec.workload().batch();
    let mut t = LayerTraffic { input_bytes: 0.0, kernel_bytes: 0.0, output_bytes: 0.0, ops: 0.0 };
    for &i in winograd {
        let shape = exec.workload().layers()[i].shape;
        let EnginePlan::Winograd(params) = exec.schedule().plans()[i].engine else {
            unreachable!("only Winograd layers are passed in")
        };
        let n2 = params.mults_per_tile_2d() as f64;
        let m = params.m();
        let tiles = (batch * shape.out_h().div_ceil(m) * shape.out_w().div_ceil(m)) as f64;
        let (c, k) = (shape.c as f64, shape.k as f64);
        t.input_bytes += 4.0 * n2 * c * tiles;
        t.kernel_bytes += 4.0 * n2 * k * c;
        t.output_bytes += 4.0 * n2 * k * tiles;
        t.ops += 2.0 * winograd_mults(batch, &shape, params, TileModel::Ceil);
    }
    t
}

/// Input, kernel and output bytes of the layers not in `winograd`.
fn other_layer_bytes(exec: &NetworkExecutor, winograd: &[usize]) -> f64 {
    let batch = exec.workload().batch();
    exec.workload()
        .layers()
        .iter()
        .enumerate()
        .filter(|(i, _)| !winograd.contains(i))
        .map(|(_, l)| {
            let s = l.shape;
            let input = batch * s.c * s.h * s.w;
            let kernels = s.k * s.c * s.r * s.r;
            let output = batch * s.k * s.out_h() * s.out_w();
            4.0 * (input + kernels + output) as f64
        })
        .sum()
}
