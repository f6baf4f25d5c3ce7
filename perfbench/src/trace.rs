//! The traced run's span sink.
//!
//! Tracing uses only what the library already exposes: the benchmark
//! opens `bench.*` spans around its own calls into each layer, and
//! while a traced measurement runs it installs this recorder as the
//! global `wino_obs` sink. It keeps the newest spans in memory (written
//! out as a Chrome trace when the run ends) and counts the request
//! events the serving layer emits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wino_obs::{Recorder, ReqEvent, ReqEventKind, SpanRecord, TraceRecorder};

/// Spans kept for the trace file; older ones are dropped first.
const KEPT_SPANS: usize = 20_000;
/// Directory, relative to the checkout root, the trace files go to.
const OUT_DIR: &str = ".bench_out";

/// Global span sink of a traced measurement.
pub struct BenchRecorder {
    spans: TraceRecorder,
    joins: AtomicU64,
}

impl BenchRecorder {
    pub fn new() -> Arc<BenchRecorder> {
        Arc::new(BenchRecorder { spans: TraceRecorder::new(KEPT_SPANS), joins: AtomicU64::new(0) })
    }

    /// Requests that joined an in-flight batch at a layer boundary.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Writes the kept spans as `<OUT_DIR>/<workload>.trace.json`. A
    /// failed write is reported on stderr and does not fail the run.
    pub fn write(&self, workload: &str) {
        let path = format!("{OUT_DIR}/{workload}.trace.json");
        let result = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, self.spans.chrome_trace_json()));
        if let Err(e) = result {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    }
}

impl Recorder for BenchRecorder {
    fn record(&self, span: &SpanRecord) {
        self.spans.record(span);
    }

    fn record_req(&self, event: &ReqEvent) {
        if matches!(event.kind, ReqEventKind::Join { .. }) {
            self.joins.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs `f` with global tracing into `recorder`, then turns it off.
pub fn traced<R>(recorder: &Arc<BenchRecorder>, f: impl FnOnce() -> R) -> R {
    wino_obs::set_recorder(recorder.clone());
    wino_obs::enable();
    let out = f();
    wino_obs::disable();
    wino_obs::clear_recorder();
    out
}
