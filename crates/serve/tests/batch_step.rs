//! The fault path of the shared batch step, driven directly on one
//! thread and a virtual clock: a poisoned request joins an in-flight
//! batch at a layer boundary, the batch faults, and every lane is
//! retried alone. No thread timing decides whether the poisoned
//! request is a joiner, so this path runs on every test run.
//!
//! This file holds a single test on purpose: the request trace goes
//! through the process-global recorder, which no other test in this
//! binary may share.

use std::sync::Arc;
use std::time::Duration;
use wino_core::{ConvShape, Workload};
use wino_exec::{ExecConfig, Schedule};
use wino_obs::{FlightRecorder, TraceIndex, TraceStats};
use wino_serve::{
    BatchConfig, BatchStep, Clock, InferOutput, Metrics, MetricsSnapshot, ModelRegistry, Priority,
    RequestError, Served, ShardPoll, ShardSet, VirtualClock,
};

const POISON: u64 = 666;
const LAYER_TIME: Duration = Duration::from_millis(1);

/// One three-layer model, so a batch has two interior boundaries.
fn registry() -> ModelRegistry {
    let mut wl = Workload::new("toy", 8);
    wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 2, 3));
    wl.push("b", "G", ConvShape::same_padded(6, 6, 2, 2, 3));
    wl.push("c", "G", ConvShape { h: 6, w: 6, c: 2, k: 2, r: 3, stride: 2, pad: 1 });
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    let mut registry = ModelRegistry::new();
    registry.register("toy", wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
    registry
}

type Resolved = Vec<(u64, Result<Served<InferOutput>, RequestError>)>;

/// Releases a batch of seeds 1 and 2, queues the poisoned seed and
/// seed 3 behind it, and steps the batch with the production layer
/// runner. Returns each lane's resolution by seed, the verified trace
/// statistics, the flight ring and the metrics.
fn scenario(registry: &ModelRegistry) -> (Resolved, TraceStats, String, MetricsSnapshot) {
    let index = Arc::new(TraceIndex::new());
    wino_obs::set_recorder(Arc::clone(&index) as Arc<dyn wino_obs::Recorder>);
    wino_obs::enable();

    let entry = registry.entry(0);
    let clock = VirtualClock::new();
    let flight = Arc::new(FlightRecorder::new(1, 256));
    let batch = BatchConfig { max_batch: 8, max_wait: Duration::ZERO, queue_capacity: 16 };
    let shards: ShardSet<u64> =
        ShardSet::new(1, vec![entry.max_batch()], batch, false).with_flight(Arc::clone(&flight));
    let metrics = Metrics::new(vec![entry.id().to_string()], 1);
    let admit = |seed: u64| {
        shards.admit(0, Priority::Normal, seed, clock.now(), |_| Ok(())).expect("admitted");
    };

    admit(1);
    admit(2);
    let ShardPoll::Ready { batch, from } = shards.poll_at(0, clock.now()) else {
        panic!("a zero-wait batch is due at once");
    };
    assert_eq!(batch.requests.len(), 2);
    clock.advance(LAYER_TIME);
    // Queued after the release: both can only enter as joiners.
    admit(POISON);
    admit(3);

    let step = BatchStep {
        shards: &shards,
        metrics: &metrics,
        clock: &clock,
        seed_of: |&seed| seed,
        continuous: true,
        inject_panic_seed: Some(POISON),
        shard: 0,
        stolen: from != 0,
    };
    let stepped = step.run(batch, entry.id(), |seeds, admit| {
        let lanes = entry.infer_batch_continuous(seeds, |boundary| {
            clock.advance(LAYER_TIME);
            admit(boundary)
        });
        lanes.into_iter().map(|(_, output)| output).collect()
    });
    wino_obs::disable();
    wino_obs::clear_recorder();

    assert!(stepped.faulted, "the poisoned joiner faults the batch");
    let lanes = stepped.lanes.into_iter().map(|(item, result)| (item.payload, result)).collect();
    let stats = index.verify().unwrap_or_else(|e| panic!("request trace failed to verify: {e}"));
    (lanes, stats, flight.dump_json("test"), metrics.snapshot(clock.now()))
}

#[test]
fn poisoned_joiner_fails_alone_and_the_fault_path_replays_identically() {
    let registry = registry();
    let entry = registry.entry(0);
    let (lanes, stats, flight, metrics) = scenario(&registry);

    let mut seeds: Vec<u64> = lanes.iter().map(|(seed, _)| *seed).collect();
    seeds.sort_unstable();
    assert_eq!(seeds, vec![1, 2, 3, POISON], "the batch and both joiners resolve");
    for (seed, result) in &lanes {
        match result {
            Err(error) => {
                assert_eq!(*seed, POISON, "only the poisoned lane fails: {error}");
                assert_eq!(error.seed, POISON);
                assert!(error.reason.contains("injected worker fault"), "{error}");
            }
            Ok(served) => {
                assert_ne!(*seed, POISON, "the poisoned lane must not be served");
                assert_eq!(served.output, entry.infer_one(*seed), "lane {seed} != solo run");
                assert_eq!(served.batch_size, 3, "the three innocents are served by the retry");
            }
        }
    }

    assert_eq!(stats.requests, 4);
    assert_eq!(stats.joins, 2, "the poisoned request and seed 3 joined mid-flight");
    assert_eq!(stats.catch_ups, 0, "a faulted batch catches nobody up");
    assert!(stats.panic_retries >= 1, "the fault traced no solo retry");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.resolved, 3);
    assert_eq!(metrics.total_failed(), 1);
    assert_eq!(metrics.total_completed(), 3);

    let replay = scenario(&registry);
    assert_eq!(replay.2, flight, "a replay emits the identical event sequence");
    assert_eq!(replay.1, stats);
}
