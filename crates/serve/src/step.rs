//! The batch step: everything between a released batch and its
//! resolved lanes — boundary admission, metrics, request events, and
//! the fault path's solo retry — run by both the threaded
//! [`Server`](crate::Server) workers and the discrete-event storm
//! simulation. Callers differ only in the layer runner (real
//! convolutions, or a service-time model), the [`Clock`] and what they
//! do with the resolved lanes.

use crate::{Batch, BatchItem, Clock, Metrics, ModelId, Priority, RequestError, ShardSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use wino_exec::Boundary;
use wino_obs::{ReqEvent, ReqEventKind};

/// A served lane's output and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Served<O> {
    /// What the layer runner produced for the lane.
    pub output: O,
    /// Time queued before execution started.
    pub queue_wait: Duration,
    /// End-to-end latency (admission to resolution).
    pub latency: Duration,
    /// Lanes served together with this one (after a fault: by the
    /// solo retries).
    pub batch_size: usize,
}

/// One resolved lane of a stepped batch.
pub type Lane<P, O> = (BatchItem<P>, Result<Served<O>, RequestError>);

/// What [`BatchStep::run`] hands back.
#[derive(Debug)]
pub struct Stepped<P, O> {
    /// Every lane of the batch, joiners included, each resolved. After
    /// a fault the failed lanes come last.
    pub lanes: Vec<Lane<P, O>>,
    /// Whether the batch faulted and went through the solo retry.
    pub faulted: bool,
}

/// One batch's execution context, over request payloads `P`.
pub struct BatchStep<'a, P> {
    /// The shard set the batch was released from: mid-flight joiners
    /// come from it, and every request event goes through its emitter.
    pub shards: &'a ShardSet<P>,
    /// Where served batches and failed lanes are recorded.
    pub metrics: &'a Metrics,
    /// Stamps the batch's start, joins and resolution.
    pub clock: &'a dyn Clock,
    /// The request seed a payload carries (layer inputs derive from it).
    pub seed_of: fn(&P) -> u64,
    /// Whether queued same-model requests join at layer boundaries.
    pub continuous: bool,
    /// Fault injection: a batch holding this seed panics mid-execution,
    /// and the seed's solo retry panics again (see
    /// [`ServeConfig::inject_panic_seed`](crate::ServeConfig::inject_panic_seed)).
    pub inject_panic_seed: Option<u64>,
    /// The shard whose worker executes the batch.
    pub shard: usize,
    /// Whether the batch was taken from another shard's queue.
    pub stolen: bool,
}

impl<P> BatchStep<'_, P> {
    /// Executes `batch` and resolves every lane.
    ///
    /// `layers(seeds, admit)` runs the lanes `seeds` through the model
    /// and returns one output per lane — the initial lanes first, then
    /// every lane `admit` returned, in admission order — exactly as
    /// [`ModelEntry::infer_batch_continuous`](crate::ModelEntry::infer_batch_continuous)
    /// does. It must call `admit` at each interior boundary of its main
    /// sweep and never after the final layer. The solo retry calls it
    /// again with one seed.
    pub fn run<O>(
        &self,
        batch: Batch<P>,
        model_id: &ModelId,
        mut layers: impl FnMut(Vec<u64>, &mut dyn FnMut(Boundary) -> Vec<u64>) -> Vec<O>,
    ) -> Stepped<P, O> {
        let (model, shard) = (batch.model, self.shard);
        let cap = self.shards.cap(model);
        let mut requests = batch.requests;
        let poisoned = |items: &[BatchItem<P>]| {
            self.inject_panic_seed
                .is_some_and(|p| items.iter().any(|r| (self.seed_of)(&r.payload) == p))
        };
        // Lanes admitted mid-flight, with the layer they joined at, live
        // outside the unwind scope so a panic cannot lose them: whatever
        // was pulled off the queue before the fault is still here for
        // the retry pass.
        let mut joined: Vec<(BatchItem<P>, u32)> = Vec::new();
        let started = self.clock.now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if poisoned(&requests) {
                panic!("injected worker fault");
            }
            let seeds = requests.iter().map(|r| (self.seed_of)(&r.payload)).collect();
            layers(seeds, &mut |boundary| {
                let free = cap.saturating_sub(boundary.lanes);
                if !self.continuous || free == 0 {
                    return Vec::new();
                }
                let joiners = self.shards.admit_into(model, free);
                let at = self.clock.now();
                let layer = boundary.next_layer as u32;
                for joiner in &joiners {
                    self.shards
                        .emit(shard, ReqEvent::new(joiner.seq, at, ReqEventKind::Join { layer }));
                }
                let seeds = joiners.iter().map(|r| (self.seed_of)(&r.payload)).collect();
                let fault = poisoned(&joiners);
                joined.extend(joiners.into_iter().map(|j| (j, layer)));
                if fault {
                    // Keep the fault observable even when the poisoned
                    // request joins mid-flight.
                    panic!("injected worker fault");
                }
                seeds
            })
        }));
        let finished = self.clock.now();
        if outcome.is_ok() {
            // Joiners replayed their missed layer prefix after the
            // shared layers; every lane resolves at `finished`.
            for (joiner, layers) in &joined {
                let catch_up = ReqEventKind::CatchUp { layers: *layers };
                self.shards.emit(shard, ReqEvent::new(joiner.seq, finished, catch_up));
            }
        }
        requests.extend(joined.into_iter().map(|(joiner, _)| joiner));
        match outcome {
            Ok(outputs) => Stepped {
                lanes: self.resolve(model, requests, outputs, started, finished),
                faulted: false,
            },
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_owned());
                let lanes = self.retry_solo(model, model_id, requests, &reason, layers);
                Stepped { lanes, faulted: true }
            }
        }
    }

    /// The fault path: every lane is retried alone. Innocent lanes get
    /// their (bitwise-correct) solo outputs; a lane that faults again —
    /// deterministically, for the injected poison seed — resolves to an
    /// explicit [`RequestError`].
    fn retry_solo<O>(
        &self,
        model: usize,
        model_id: &ModelId,
        requests: Vec<BatchItem<P>>,
        reason: &str,
        mut layers: impl FnMut(Vec<u64>, &mut dyn FnMut(Boundary) -> Vec<u64>) -> Vec<O>,
    ) -> Vec<Lane<P, O>> {
        let shard = self.shard;
        let mut served = (Vec::new(), Vec::new());
        let mut failed = Vec::new();
        let started = self.clock.now();
        for request in requests {
            let seed = (self.seed_of)(&request.payload);
            self.shards.emit(shard, ReqEvent::new(request.seq, started, ReqEventKind::PanicRetry));
            let retry = catch_unwind(AssertUnwindSafe(|| {
                if self.inject_panic_seed == Some(seed) {
                    panic!("injected worker fault (solo retry)");
                }
                layers(vec![seed], &mut |_| Vec::new()).pop().expect("one output per lane")
            }));
            match retry {
                Ok(output) => {
                    served.0.push(request);
                    served.1.push(output);
                }
                Err(_) => {
                    self.metrics.record_failed(model, shard, 1);
                    let failure =
                        ReqEvent::new(request.seq, self.clock.now(), ReqEventKind::Failed);
                    self.shards.emit(shard, failure);
                    let error = RequestError {
                        model: model_id.clone(),
                        seed,
                        reason: format!("batch worker fault, solo retry failed: {reason}"),
                    };
                    failed.push((request, Err(error)));
                }
            }
        }
        let finished = self.clock.now();
        let mut lanes = self.resolve(model, served.0, served.1, started, finished);
        lanes.extend(failed);
        lanes
    }

    /// Records one executed lane set in the metrics and emits each
    /// lane's `Resolved` event. An empty set records nothing.
    fn resolve<O>(
        &self,
        model: usize,
        requests: Vec<BatchItem<P>>,
        outputs: Vec<O>,
        started: Duration,
        finished: Duration,
    ) -> Vec<Lane<P, O>> {
        assert_eq!(outputs.len(), requests.len(), "the layer runner returns one output per lane");
        if requests.is_empty() {
            return Vec::new();
        }
        let waits: Vec<Duration> =
            requests.iter().map(|r| started.saturating_sub(r.enqueued_at)).collect();
        let latencies: Vec<Duration> =
            requests.iter().map(|r| finished.saturating_sub(r.enqueued_at)).collect();
        let priorities: Vec<Priority> = requests.iter().map(|r| r.priority).collect();
        let service = finished.saturating_sub(started);
        let (shard, stolen) = (self.shard, self.stolen);
        self.metrics.record_batch(model, shard, stolen, service, &priorities, &waits, &latencies);
        for request in &requests {
            // A discrete-event driver can enqueue a lane "after" the
            // instant its batch finished (mid-batch injection of another
            // worker's arrivals); resolution never precedes admission.
            let at = finished.max(request.enqueued_at);
            self.shards.emit(shard, ReqEvent::new(request.seq, at, ReqEventKind::Resolved));
        }
        let batch_size = requests.len();
        requests
            .into_iter()
            .zip(outputs)
            .zip(waits.into_iter().zip(latencies))
            .map(|((request, output), (queue_wait, latency))| {
                (request, Ok(Served { output, queue_wait, latency, batch_size }))
            })
            .collect()
    }
}
