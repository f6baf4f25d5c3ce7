//! Trace integrity of the threaded server: every request event the
//! real `Server` emits — under two shards, work stealing, continuous
//! batching, an injected worker fault and load shedding — reassembles
//! into causally valid per-request timelines, and the always-on flight
//! recorder never holds a request's event ahead of its admission.
//!
//! This file holds a single test on purpose: the request trace goes
//! through the process-global recorder, which no other test in this
//! binary may share.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use wino_core::{ConvShape, Workload};
use wino_exec::{ExecConfig, Schedule};
use wino_obs::TraceIndex;
use wino_serve::{BatchConfig, ModelRegistry, Priority, ServeConfig, Server};

const POISON: u64 = 666;
const ROUNDS: u64 = 24;
const BURST: u64 = 16;

/// Two three-layer models, so a 2-shard server homes one per shard and
/// a batch has two interior boundaries for mid-flight joins.
fn registry() -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    for name in ["toy-a", "toy-b"] {
        let mut wl = Workload::new(name, 8);
        wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 2, 3));
        wl.push("b", "G", ConvShape::same_padded(6, 6, 2, 2, 3));
        wl.push("c", "G", ConvShape { h: 6, w: 6, c: 2, k: 2, r: 3, stride: 2, pad: 1 });
        let schedule = Schedule::homogeneous(&wl, 2).unwrap();
        registry.register(name, wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
    }
    registry
}

/// One flight-ring event: lane, position in the lane, seq and kind.
struct RingEvent {
    lane: usize,
    pos: usize,
    seq: u64,
    kind: String,
}

/// Parses a flight-recorder dump (one lane object per line) into its
/// events, asserting no lane dropped any.
fn ring_events(dump: &str) -> Vec<RingEvent> {
    let mut events = Vec::new();
    for line in dump.lines().filter(|l| l.trim_start().starts_with("{\"lane\": ")) {
        let lane: usize = field(line, "\"lane\": ").parse().expect("lane index");
        assert_eq!(field(line, "\"dropped\": "), "0", "lane {lane} dropped events: size the ring");
        for (pos, event) in line.split("{\"seq\": ").skip(1).enumerate() {
            let seq = event[..event.find(',').expect("seq ends")].parse().expect("seq");
            let kind = field(event, "\"kind\": \"").to_owned();
            events.push(RingEvent { lane, pos, seq, kind });
        }
    }
    events
}

/// The value after `key` in `text`, up to the next `,`, `"` or `}`.
fn field<'a>(text: &'a str, key: &str) -> &'a str {
    let rest = &text[text.find(key).expect("key present") + key.len()..];
    &rest[..rest.find([',', '"', '}']).expect("value ends")]
}

#[test]
fn threaded_server_trace_verifies_and_flight_ring_is_causal() {
    let index = Arc::new(TraceIndex::new());
    wino_obs::set_recorder(Arc::clone(&index) as Arc<dyn wino_obs::Recorder>);
    wino_obs::enable();

    let server = Server::start(
        registry(),
        ServeConfig {
            shards: 2,
            workers: 1,
            steal: true,
            continuous: true,
            exec_threads_per_worker: Some(1),
            // A queue bound below the batch cap: batches release on the
            // deadline, and a burst overflows the queue and sheds.
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_micros(500),
                queue_capacity: 4,
            },
            inject_panic_seed: Some(POISON),
            flight_capacity: 1 << 16,
            ..ServeConfig::default()
        },
    );
    let ids = ["toy-a".into(), "toy-b".into()];
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    // The poisoned request goes first, into an empty queue, so it is
    // always admitted and its batch always faults.
    let mut handles = vec![server.submit(&ids[0], Priority::Normal, POISON).expect("admitted")];
    let mut refused = 0u64;
    for round in 0..ROUNDS {
        for i in 0..BURST {
            // Three in four requests hammer model 0's home shard, so
            // the other shard's idle worker has batches to steal.
            let model = usize::from(i % 4 == 3);
            let seed = round * BURST + i;
            match server.submit(&ids[model], priorities[(seed % 3) as usize], seed) {
                Ok(handle) => handles.push(handle),
                Err(_) => refused += 1,
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let failed = handles.iter().filter(|h| h.wait().is_err()).count();
    let dump = server.flight_json("test");
    let snapshot = server.shutdown();
    wino_obs::disable();
    wino_obs::clear_recorder();

    assert!(refused > 0, "the bursts never overflowed the queue");
    assert_eq!(failed, 1, "only the poisoned request fails");
    assert_eq!(snapshot.total_rejected(), refused);

    let stats = index.verify().unwrap_or_else(|e| panic!("request trace failed to verify: {e}"));
    assert_eq!(stats.requests, handles.len(), "one timeline per admitted request");
    assert_eq!(stats.resolved + stats.failed, handles.len(), "every admitted request resolved");
    assert_eq!(stats.failed, failed);
    assert_eq!(stats.sheds, refused, "every refused submit traced as one shed");
    assert!(stats.panic_retries >= 1, "the injected fault traced no solo retry");
    assert!(stats.catch_ups <= stats.joins, "catch-up only after a join");

    // The black box: every seq in it was admitted (into its home
    // shard's lane), and no event of a seq sits ahead of its
    // `Admitted` in that lane.
    let events = ring_events(&dump);
    let admitted: HashMap<u64, (usize, usize)> =
        events.iter().filter(|e| e.kind == "admitted").map(|e| (e.seq, (e.lane, e.pos))).collect();
    assert_eq!(admitted.len(), handles.len(), "one admission per handle in the ring");
    for event in events.iter().filter(|e| e.kind != "admitted" && e.kind != "shed") {
        let &(lane, pos) = admitted
            .get(&event.seq)
            .unwrap_or_else(|| panic!("seq {} has no admission in the ring", event.seq));
        assert!(
            lane != event.lane || pos < event.pos,
            "seq {}: {} recorded ahead of its admission in lane {lane}",
            event.seq,
            event.kind
        );
    }
    let sheds = events.iter().filter(|e| e.kind == "shed").count() as u64;
    assert_eq!(sheds, refused, "every shed reached the black box too");
}
