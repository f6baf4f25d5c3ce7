//! The `serve-mixed` workload: open-loop serving of the standard
//! registry (4 shrunk models × {f32, Q24.8}) under seeded Poisson
//! arrivals with a 20/60/20 high/normal/low priority mix.
//!
//! One generator thread submits each request at its due time and, while
//! it waits for the next one, collects finished responses in submission
//! order. A request's latency is counted from its due time:
//! `(submit − due) + InferResult::latency`, so a generator that falls
//! behind shows up as latency, and its lateness is reported too.
//!
//! Two phases run at fixed rates: `light` (~30% of capacity on a
//! 2-core host) gives the latency metrics, `overload` (above capacity,
//! so the bounded queues refuse the excess) gives the completion rate.
//! Sampled responses are compared bitwise with `ModelEntry::infer_one`.

use crate::env::nproc;
use crate::report::Report;
use crate::roofline::Ceilings;
use crate::stats::{mean, median, quantile};
use crate::trace::{traced, BenchRecorder};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wino_obs::Span;
use wino_serve::{
    InferOutput, InferResult, ModelId, ModelRegistry, Priority, RequestError, ResponseHandle,
    ServeConfig, Server,
};
use wino_tensor::SplitMix64;

/// Batch dimension of every registered model (the batcher's ceiling).
const MAX_BATCH: usize = 8;
/// Execution threads per `infer_batch` call.
const REGISTRY_EXEC_THREADS: usize = 1;
const LIGHT_RPS: f64 = 400.0;
const OVERLOAD_RPS: f64 = 5000.0;
/// Share of the measured time spent in the light phase.
const LIGHT_SHARE: f64 = 0.6;
/// Untimed traffic at the light rate before measuring, so batcher
/// estimates, allocator pools and caches are warm.
const WARM: Duration = Duration::from_millis(500);
/// Start of the overload phase left out of the completion rate while
/// the bounded queues fill (at most a quarter of the phase).
const SETTLE: Duration = Duration::from_millis(500);
/// The rest of a phase is cut into slices of about this length; the
/// completion rate is the median over slices, so a stall of the shared
/// host that lasts a second or two does not move it.
const SLICE: Duration = Duration::from_secs(1);
/// Set-ups per run; the last one is the server that is measured and
/// `setup_s` is their median. One takes ~10 ms and doubles during the
/// shared host's stalls, which last a tenth of a second or more, so the
/// set-ups are many and spaced `SETUP_GAP` apart.
const SETUPS: usize = 21;
const SETUP_GAP: Duration = Duration::from_millis(50);
/// One response in this many is checked against `infer_one`.
const CHECK_ONE_IN: u64 = 8;
/// The generator sleeps until this close to a due time, then spins.
const SPIN: Duration = Duration::from_micros(150);
/// Calls behind each `registry.<id>.b*_ms` median.
const REGISTRY_REPS: usize = 25;

/// One submitted request awaiting its response.
struct Sent {
    handle: ResponseHandle,
    model: usize,
    seed: u64,
    due: Instant,
    submitted: Instant,
    check: bool,
}

/// What one phase of traffic produced.
#[derive(Default)]
struct Phase {
    offered: u64,
    refused: u64,
    errors: u64,
    latency_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    batch: Vec<f64>,
    /// Responses completed in each slice after the settle.
    slice_done: Vec<u64>,
    /// Length of one slice, in seconds.
    slice_s: f64,
    late_ms_max: f64,
    checks: Vec<(usize, u64, InferOutput)>,
}

impl Phase {
    fn record(&mut self, sent: Sent, result: Result<InferResult, RequestError>, slices: &Slices) {
        let Ok(r) = result else {
            self.errors += 1;
            return;
        };
        self.latency_ms.push(ms(sent.submitted - sent.due) + ms(r.latency));
        self.queue_ms.push(ms(r.queue_wait));
        self.service_ms.push(ms(r.latency.saturating_sub(r.queue_wait)));
        self.batch.push(r.batch_size as f64);
        if let Some(i) = slices.index(sent.submitted + r.latency) {
            self.slice_done[i] += 1;
        }
        if sent.check {
            self.checks.push((sent.model, sent.seed, r.output));
        }
    }

    /// Median over slices of the responses completed per second.
    fn completion_rate(&self) -> f64 {
        median(&self.slice_done.iter().map(|&n| n as f64 / self.slice_s).collect::<Vec<_>>())
    }
}

/// Equal slices of a phase after its settle time.
struct Slices {
    from: Instant,
    len: Duration,
    count: usize,
}

impl Slices {
    fn new(start: Instant, length: Duration) -> Slices {
        let settle = SETTLE.min(length / 4);
        let rest = length - settle;
        let count = ((rest.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(1);
        Slices { from: start + settle, len: rest / count as u32, count }
    }

    /// The slice `at` falls in, if any.
    fn index(&self, at: Instant) -> Option<usize> {
        let offset = at.checked_duration_since(self.from)?;
        let i = (offset.as_secs_f64() / self.len.as_secs_f64()) as usize;
        (i < self.count).then_some(i)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the serving workload and reports its metrics.
pub fn run(seed: u64, seconds: f64, ceilings: Option<Ceilings>) -> Report {
    let config =
        ServeConfig { workers: nproc().saturating_sub(1).max(1), ..ServeConfig::default() };
    let mut setup = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            drop(previous); // shut the previous server down first
            std::thread::sleep(SETUP_GAP);
        }
        let (s, seconds) = set_up(&config);
        setup.push(seconds);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let ids: Vec<ModelId> = server.registry().entries().iter().map(|e| e.id().clone()).collect();
    println!(
        "info workload=serve-mixed models={} shards={} workers={} registry_exec_threads={} \
         worker_thread_budget={} light_rps={LIGHT_RPS} overload_rps={OVERLOAD_RPS} \
         setups={SETUPS}",
        ids.len(),
        config.shards,
        config.workers,
        REGISTRY_EXEC_THREADS,
        config.worker_thread_budget()
    );
    let mut rng = SplitMix64::new(seed ^ 0x5E2E_D000);
    run_phase(&server, &ids, &mut rng, LIGHT_RPS, WARM);

    let mut report = Report::default();
    let Some(ceilings) = ceilings else {
        let (light, overload) = run_phases(&server, &ids, &mut rng, seconds);
        count(&mut report, &server, &light, &overload);
        report.set("setup_s", median(&setup));
        report.set("latency_ms_p50", median(&light.latency_ms));
        report.set("img_per_s", overload.completion_rate());
        report.set("ok_share", report.ok_share());
        server.shutdown();
        return report;
    };

    // Traced run: half the time untraced, half traced; the difference is
    // the tracing overhead.
    let (plain, plain_overload) = run_phases(&server, &ids, &mut rng, seconds / 2.0);
    count(&mut report, &server, &plain, &plain_overload);
    let recorder = BenchRecorder::new();
    let (light, overload) = traced(&recorder, || {
        registry_timings(&server, &mut report);
        run_phases(&server, &ids, &mut rng, seconds / 2.0)
    });
    recorder.write("serve-mixed");
    count(&mut report, &server, &light, &overload);
    report.set("serve.light_p99_ms", quantile(&light.latency_ms, 0.99));
    report.set("serve.queue_wait_ms_p50", median(&light.queue_ms));
    report.set("serve.queue_wait_ms_p99", quantile(&light.queue_ms, 0.99));
    report.set("serve.service_ms_p50", median(&light.service_ms));
    report.set("serve.batch_size_mean", mean(&light.batch));
    report.set("serve.joins", recorder.joins() as f64);
    report.set(
        "serve.refused_share_overload",
        overload.refused as f64 / overload.offered.max(1) as f64,
    );
    report.set("gen.late_ms_max", light.late_ms_max.max(overload.late_ms_max));
    report.set("roofline.fma_gflops", ceilings.fma_gflops);
    report.set("roofline.stream_gbps", ceilings.stream_gbps);
    report.set("trace.overhead_share", median(&light.latency_ms) / median(&plain.latency_ms) - 1.0);
    server.shutdown();
    report
}

/// Builds the standard registry and starts a server on it; returns the
/// server and the seconds that took.
fn set_up(config: &ServeConfig) -> (Server, f64) {
    let start = Instant::now();
    let registry = ModelRegistry::standard(MAX_BATCH, REGISTRY_EXEC_THREADS)
        .expect("the standard roster lowers");
    let server = Server::start(registry, config.clone());
    (server, start.elapsed().as_secs_f64())
}

/// The light phase, then the overload phase, over `seconds` in total.
fn run_phases(
    server: &Server,
    ids: &[ModelId],
    rng: &mut SplitMix64,
    seconds: f64,
) -> (Phase, Phase) {
    let light =
        run_phase(server, ids, rng, LIGHT_RPS, Duration::from_secs_f64(seconds * LIGHT_SHARE));
    let overload = run_phase(
        server,
        ids,
        rng,
        OVERLOAD_RPS,
        Duration::from_secs_f64(seconds * (1.0 - LIGHT_SHARE)),
    );
    println!(
        "info phase=light offered={} refused={} errors={} latency_samples={} p50_ms={:.3} \
         p90_ms={:.3} p99_ms={:.3} late_ms_max={:.3}",
        light.offered,
        light.refused,
        light.errors,
        light.latency_ms.len(),
        median(&light.latency_ms),
        quantile(&light.latency_ms, 0.9),
        quantile(&light.latency_ms, 0.99),
        light.late_ms_max
    );
    println!(
        "info phase=overload offered={} refused={} errors={} completed={} slices={} \
         slice_completed={:?} late_ms_max={:.3}",
        overload.offered,
        overload.refused,
        overload.errors,
        overload.latency_ms.len(),
        overload.slice_done.len(),
        overload.slice_done,
        overload.late_ms_max
    );
    (light, overload)
}

/// Offers Poisson arrivals at `rate` for `length`, then waits for every
/// admitted request.
fn run_phase(
    server: &Server,
    ids: &[ModelId],
    rng: &mut SplitMix64,
    rate: f64,
    length: Duration,
) -> Phase {
    let start = Instant::now();
    let end = start + length;
    let slices = Slices::new(start, length);
    let mut phase = Phase {
        slice_done: vec![0; slices.count],
        slice_s: slices.len.as_secs_f64(),
        ..Phase::default()
    };
    let mut pending: VecDeque<Sent> = VecDeque::new();
    let mut due = start + gap(rng, rate);
    while due < end {
        // Every draw happens in a fixed order per request, so the request
        // stream depends on the seed alone, not on timing.
        let model = rng.below(ids.len() as u64) as usize;
        let priority = match rng.next_f64() {
            u if u < 0.2 => Priority::High,
            u if u < 0.8 => Priority::Normal,
            _ => Priority::Low,
        };
        let seed = rng.next_u64();
        let check = rng.below(CHECK_ONE_IN) == 0;
        wait_until(due, &mut pending, &mut phase, &slices);
        let submitted = Instant::now();
        let admitted = {
            let _span = Span::enter("bench.submit", ids[model].as_str());
            server.submit(&ids[model], priority, seed)
        };
        phase.offered += 1;
        phase.late_ms_max = phase.late_ms_max.max(ms(submitted - due));
        match admitted {
            Ok(handle) => pending.push_back(Sent { handle, model, seed, due, submitted, check }),
            Err(_) => phase.refused += 1,
        }
        due += gap(rng, rate);
    }
    for sent in pending {
        let result = sent.handle.wait();
        phase.record(sent, result, &slices);
    }
    phase
}

/// Exponential inter-arrival time at `rate` per second.
fn gap(rng: &mut SplitMix64, rate: f64) -> Duration {
    Duration::from_secs_f64(-(1.0 - rng.next_f64()).ln() / rate)
}

/// Collects finished responses from the front of `pending` until `due`.
fn wait_until(due: Instant, pending: &mut VecDeque<Sent>, phase: &mut Phase, slices: &Slices) {
    loop {
        while let Some(result) = pending.front().and_then(|s| s.handle.try_take()) {
            let sent = pending.pop_front().expect("the front was just read");
            phase.record(sent, result, slices);
        }
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Counts a pair of phases: every offered request is one operation.
/// Failures are light-phase refusals, request errors, and sampled
/// responses that differ from `infer_one`.
fn count(report: &mut Report, server: &Server, light: &Phase, overload: &Phase) {
    report.attempted += light.offered + overload.offered;
    report.failed += light.refused + light.errors + overload.errors;
    for phase in [light, overload] {
        for (model, seed, output) in &phase.checks {
            let want = server.registry().entry(*model).infer_one(*seed);
            let same = want.layers.len() == output.layers.len()
                && want
                    .layers
                    .iter()
                    .zip(&output.layers)
                    .all(|(a, b)| a.as_slice() == b.as_slice());
            if !same {
                report.failed += 1;
            }
        }
    }
}

/// Median wall time of `ModelEntry::infer_batch` at batch 1 and 8 for
/// every registered model, with the server idle.
fn registry_timings(server: &Server, report: &mut Report) {
    let seeds: Vec<u64> = (1..=MAX_BATCH as u64).collect();
    for entry in server.registry().entries() {
        for (label, batch) in [("b1", &seeds[..1]), ("b8", &seeds[..])] {
            let times: Vec<f64> = (0..REGISTRY_REPS)
                .map(|_| {
                    let _span = Span::enter("bench.infer_batch", entry.id().as_str());
                    let start = Instant::now();
                    black_box(entry.infer_batch(batch));
                    ms(start.elapsed())
                })
                .collect();
            report.set(&format!("registry.{}.{label}_ms", entry.id()), median(&times));
        }
    }
}
