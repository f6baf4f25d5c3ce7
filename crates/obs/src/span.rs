//! The span primitive: RAII timing scopes with thread-local stacks, a
//! global activity gate, and two sinks (global [`Recorder`] dispatch
//! and per-thread collection).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use crate::recorder::Recorder;
use crate::req::ReqEvent;

/// Count of live sinks: the global tracing flag contributes one, every
/// in-flight [`collect`] contributes one. `Span::enter` does a single
/// relaxed load of this counter and bails when it is zero — that load
/// is the entire cost of an instrumented scope while observability is
/// off.
static ACTIVITY: AtomicU32 = AtomicU32::new(0);

/// Whether completed spans are dispatched to the global recorder.
static TRACING: AtomicU32 = AtomicU32::new(0);

/// The installed global recorder, if any. Only read on span
/// completion while tracing is enabled, so the lock never appears on
/// the disabled path.
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// The process-wide time origin all span start offsets are relative
/// to. Initialised by the first span ever opened.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic thread-id allocator (`std::thread::ThreadId` has no
/// stable integer form on this toolchain).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small dense id for the current thread, for trace attribution.
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);

    /// The stack of open spans on this thread.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };

    /// Destination for spans completed on this thread while a
    /// [`collect`] scope is active.
    static COLLECTOR: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// One open span on a thread's stack.
struct Frame {
    category: &'static str,
    label: String,
    /// Slash-joined labels from the stack root down to this span.
    path: String,
    start: Instant,
    /// Nanoseconds spent in already-closed child spans, subtracted
    /// from the total to yield self-time.
    child_ns: u64,
}

/// A completed span (or cross-thread interval), as delivered to
/// [`Recorder`] sinks and returned by [`collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Coarse grouping, e.g. `"exec.phase"` or `"serve.slo"`.
    pub category: &'static str,
    /// Instance label, e.g. `"pack"` or a layer name.
    pub label: String,
    /// Slash-joined labels of the enclosing span stack, root first.
    /// For [`record_interval`] this is just the label.
    pub path: String,
    /// Caller-chosen correlation id (request sequence number, chunk
    /// index, …). Zero for plain scoped spans.
    pub id: u64,
    /// Dense id of the thread the span completed on.
    pub thread: u64,
    /// Start offset relative to the process trace epoch.
    pub start: Duration,
    /// Wall-clock duration of the whole span.
    pub duration: Duration,
    /// Duration minus time spent in same-thread child spans. For
    /// leaves (and intervals) this equals `duration`.
    pub self_time: Duration,
}

/// An RAII timing scope. Construct with [`Span::enter`]; the span
/// closes (and is delivered to active sinks) when the guard drops.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    /// False when observability was idle at enter time — drop is then
    /// a no-op and nothing was allocated.
    armed: bool,
}

impl Span {
    /// Opens a span. When no sink is active (the common case) this is
    /// one relaxed atomic load and returns an inert guard.
    #[inline]
    pub fn enter(category: &'static str, label: &str) -> Span {
        if ACTIVITY.load(Ordering::Relaxed) == 0 {
            return Span { armed: false };
        }
        Self::enter_armed(category, label)
    }

    /// Slow path: push a frame on the thread-local stack.
    #[cold]
    fn enter_armed(category: &'static str, label: &str) -> Span {
        let start = Instant::now();
        EPOCH.get_or_init(|| start);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{}", parent.path, label),
                None => label.to_owned(),
            };
            stack.push(Frame { category, label: label.to_owned(), path, start, child_ns: 0 });
        });
        Span { armed: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some(frame) = STACK.with(|stack| stack.borrow_mut().pop()) else {
            return;
        };
        let duration = frame.start.elapsed();
        let total_ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        STACK.with(|stack| {
            if let Some(parent) = stack.borrow_mut().last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
        });
        let epoch = *EPOCH.get_or_init(|| frame.start);
        let record = SpanRecord {
            category: frame.category,
            label: frame.label,
            path: frame.path,
            id: 0,
            thread: THREAD_ID.with(|t| *t),
            start: frame.start.saturating_duration_since(epoch),
            duration,
            self_time: Duration::from_nanos(self_ns),
        };
        dispatch(record);
    }
}

/// Reports a span that could not be expressed as a lexical scope —
/// an instant or interval stamped on the caller's own clock, like an
/// SLO alert firing on the burn-rate engine's clock. `start` is
/// relative to any caller-chosen origin consistent within a trace.
/// Delivered to the global recorder only (never to thread-local
/// collectors: the interval did not happen "on" the reporting thread);
/// a single relaxed load when tracing is disabled.
#[inline]
pub fn record_interval(
    category: &'static str,
    label: &str,
    id: u64,
    start: Duration,
    duration: Duration,
) {
    if TRACING.load(Ordering::Relaxed) == 0 {
        return;
    }
    let record = SpanRecord {
        category,
        label: label.to_owned(),
        path: label.to_owned(),
        id,
        thread: THREAD_ID.with(|t| *t),
        start,
        duration,
        self_time: duration,
    };
    if let Ok(guard) = RECORDER.read() {
        if let Some(recorder) = guard.as_ref() {
            recorder.record(&record);
        }
    }
}

/// Reports a request-scoped causal event (see [`ReqEvent`]) to the
/// global recorder. Like [`record_interval`], this is a single relaxed
/// load when tracing is disabled and is never delivered to
/// thread-local collectors — request timelines are a cross-thread
/// concern by construction.
#[inline]
pub fn record_req(event: &ReqEvent) {
    if TRACING.load(Ordering::Relaxed) == 0 {
        return;
    }
    if let Ok(guard) = RECORDER.read() {
        if let Some(recorder) = guard.as_ref() {
            recorder.record_req(event);
        }
    }
}

/// Delivers a completed span to every active sink.
fn dispatch(record: SpanRecord) {
    COLLECTOR.with(|collector| {
        if let Some(sink) = collector.borrow_mut().as_mut() {
            sink.push(record.clone());
        }
    });
    if TRACING.load(Ordering::Relaxed) != 0 {
        if let Ok(guard) = RECORDER.read() {
            if let Some(recorder) = guard.as_ref() {
                recorder.record(&record);
            }
        }
    }
}

/// Turns on global tracing: completed spans are dispatched to the
/// recorder installed with [`set_recorder`]. Idempotent.
pub fn enable() {
    if TRACING.swap(1, Ordering::Relaxed) == 0 {
        ACTIVITY.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns global tracing back off. Idempotent.
pub fn disable() {
    if TRACING.swap(0, Ordering::Relaxed) != 0 {
        ACTIVITY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether global tracing is currently enabled.
pub fn is_enabled() -> bool {
    TRACING.load(Ordering::Relaxed) != 0
}

/// Installs the global [`Recorder`] spans are dispatched to while
/// tracing is [`enable`]d. Replaces any previous recorder.
///
/// Recorder implementations must not open spans of their own — a
/// recording recorder would recurse.
pub fn set_recorder(recorder: Arc<dyn Recorder>) {
    if let Ok(mut guard) = RECORDER.write() {
        *guard = Some(recorder);
    }
}

/// Removes the global recorder installed by [`set_recorder`].
pub fn clear_recorder() {
    if let Ok(mut guard) = RECORDER.write() {
        *guard = None;
    }
}

/// Restores the previous collector (and releases the activity ticket)
/// even if the collected closure panics.
struct CollectGuard {
    prev: Option<Option<Vec<SpanRecord>>>,
}

impl Drop for CollectGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            COLLECTOR.with(|collector| *collector.borrow_mut() = prev);
            ACTIVITY.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Runs `f` with span collection active on the current thread and
/// returns its result together with every span that *completed* on
/// this thread during the call (innermost first, in completion order).
///
/// Collection is independent of global tracing: it arms [`Span::enter`]
/// via the same activity gate, so instrumented code produces records
/// for the collector even when [`is_enabled`] is false. Spans opened
/// on other threads (e.g. worker-pool threads) are not captured —
/// use global tracing with a [`Recorder`] for whole-process capture.
/// Nested `collect` scopes partition records: the inner scope takes
/// the spans that complete within it.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let prev = COLLECTOR.with(|collector| collector.borrow_mut().replace(Vec::new()));
    ACTIVITY.fetch_add(1, Ordering::Relaxed);
    let mut guard = CollectGuard { prev: Some(prev) };
    let out = f();
    let prev = guard.prev.take().expect("collect guard armed exactly once");
    let records = COLLECTOR.with(|collector| {
        let mut slot = collector.borrow_mut();
        let records = slot.take().unwrap_or_default();
        *slot = prev;
        records
    });
    ACTIVITY.fetch_sub(1, Ordering::Relaxed);
    (out, records)
}
