//! Property tests of the *sharded* serving layer — home routing, work
//! stealing and continuous batching — driven entirely by a virtual
//! clock so every case is deterministic and shrinkable.
//!
//! The invariants under test generalize the single-queue ones in
//! `serve_props.rs` to arbitrary shard counts, steal schedules and
//! mid-batch admission points:
//!
//! 1. **Admitted ⇒ resolved, exactly once.** However polls, steals and
//!    drains interleave, every submitted request leaves the shard set
//!    in exactly one released batch.
//! 2. **No reordering within a (model, priority-class) pair**, even
//!    when idle shards steal another shard's released batches.
//! 3. **Continuous batching never changes results.** Whatever layer
//!    boundaries new requests join at, every lane's output is bitwise
//!    equal to a solo run.

use proptest::prelude::*;
use std::time::Duration;
use wino_core::{ConvShape, Workload};
use wino_exec::{ExecConfig, Schedule};
use wino_serve::{BatchConfig, Clock, ModelEntry, Priority, ShardPoll, ShardSet, VirtualClock};

/// A two-layer toy model (one Winograd, one strided-spatial layer) —
/// small enough that a proptest case runs dozens of real convolutions
/// in milliseconds.
fn toy_entry(max_batch: usize) -> ModelEntry {
    let mut wl = Workload::new("toy", max_batch);
    wl.push("a", "G", ConvShape::same_padded(6, 6, 2, 3, 3));
    wl.push("b", "G", ConvShape { h: 6, w: 6, c: 3, k: 2, r: 3, stride: 2, pad: 1 });
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    ModelEntry::new("toy".into(), wl, schedule, ExecConfig::with_threads(2), 9).unwrap()
}

fn priority_of(tag: u8) -> Priority {
    match tag % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants (1) and (2) over the raw shard set: any interleaving
    /// of submissions, per-shard polls (with or without stealing) and
    /// a final shutdown-style drain resolves every request exactly
    /// once, in class order, within the batch caps, and — with
    /// stealing off — only ever from a model's home shard.
    #[test]
    fn any_steal_schedule_resolves_every_request_in_class_order(
        shard_count in 1usize..5,
        steal in any::<bool>(),
        all_submissions in prop::collection::vec((0usize..3, 0u8..3, 0u64..500), 24),
        count in 1usize..25,
        polls in prop::collection::vec((0usize..16, 1u64..300), 48),
        max_batch in 1usize..5,
        max_wait_us in 0u64..300,
    ) {
        let submissions = &all_submissions[..count.min(all_submissions.len())];
        let clock = VirtualClock::new();
        let config = BatchConfig {
            max_batch,
            max_wait: Duration::from_micros(max_wait_us),
            queue_capacity: submissions.len().max(1),
        };
        let caps = vec![4usize, 3, 2];
        let set: ShardSet<u64> = ShardSet::new(shard_count, caps.clone(), config, steal);

        let mut ordered = submissions.to_vec();
        ordered.sort_by_key(|&(_, _, at)| at);

        // Submitted/released seqs keyed by (model, class), in order.
        let mut expected: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        let mut released: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 3];
        let mut batches = 0usize;
        let mut served = 0usize;

        let record = |batch: &wino_serve::Batch<u64>,
                          released: &mut Vec<Vec<Vec<u64>>>|
         -> Result<(), TestCaseError> {
            prop_assert!(
                batch.requests.len() <= caps[batch.model].min(max_batch),
                "batch of {} exceeds cap for model {}",
                batch.requests.len(),
                batch.model
            );
            for item in &batch.requests {
                released[batch.model][item.priority.index()].push(item.seq);
            }
            Ok(())
        };

        let mut poll_at = 0usize;
        for (i, &(model, tag, at_us)) in ordered.iter().enumerate() {
            clock.advance_to(Duration::from_micros(at_us));
            let seq = set
                .admit(model, priority_of(tag), i as u64, clock.now(), |_| Ok(()))
                .unwrap();
            expected[model][usize::from(tag % 3)].push(seq);
            // Interleave a poll step from the random schedule.
            if let Some(&(pick, advance_us)) = polls.get(poll_at) {
                poll_at += 1;
                clock.advance(Duration::from_micros(advance_us));
                let shard = pick % shard_count;
                if let ShardPoll::Ready { batch, from } = set.poll_at(shard, clock.now()) {
                    prop_assert!(steal || from == shard, "non-steal poll crossed shards");
                    prop_assert!(
                        steal || set.home(batch.model) == shard,
                        "model {} released away from home without stealing",
                        batch.model
                    );
                    batches += 1;
                    served += batch.requests.len();
                    record(&batch, &mut released)?;
                }
            }
        }
        // Keep running the poll schedule until it is exhausted...
        for &(pick, advance_us) in &polls[poll_at.min(polls.len())..] {
            clock.advance(Duration::from_micros(advance_us));
            if let ShardPoll::Ready { batch, .. } = set.poll_at(pick % shard_count, clock.now()) {
                batches += 1;
                served += batch.requests.len();
                record(&batch, &mut released)?;
            }
        }
        // ...then finish with the shutdown-style drain, which ignores
        // deadlines and sweeps every shard.
        while let Some(batch) = set.drain_one(clock.now()) {
            batches += 1;
            served += batch.requests.len();
            record(&batch, &mut released)?;
        }

        // (1) Exactly once: everything admitted came out, nothing twice.
        prop_assert_eq!(served, ordered.len(), "released {} batches", batches);
        prop_assert!(set.is_empty());
        // Seqs are globally unique across shards (striding).
        let mut all_seqs: Vec<u64> =
            released.iter().flatten().flatten().copied().collect();
        all_seqs.sort_unstable();
        let before = all_seqs.len();
        all_seqs.dedup();
        prop_assert_eq!(all_seqs.len(), before, "duplicate seq released");
        // (2) FIFO within every (model, class), stealing or not.
        for model in 0..3 {
            for class in 0..3 {
                prop_assert_eq!(
                    &released[model][class],
                    &expected[model][class],
                    "model {} class {} reordered (steal={}, shards={})",
                    model,
                    class,
                    steal,
                    shard_count
                );
            }
        }
    }

    /// Invariant (3), plus (1) under continuous batching: requests that
    /// join an in-flight batch at arbitrary layer boundaries — after
    /// arriving mid-execution — are all served, exactly once, with
    /// outputs bitwise equal to solo runs.
    #[test]
    fn continuous_admission_points_serve_bitwise(
        shard_count in 1usize..4,
        all_seeds in prop::collection::vec(0u64..1_000, 13),
        seed_count in 3usize..14,
        tags in prop::collection::vec(0u8..3, 14),
        arrive_mid_batch in prop::collection::vec(any::<bool>(), 14),
        admit_caps in prop::collection::vec(0usize..7, 32),
        advance_us in 1u64..200,
    ) {
        let seeds = &all_seeds[..seed_count.min(all_seeds.len())];
        let entry = toy_entry(6);
        let cap = entry.max_batch();
        let clock = VirtualClock::new();
        let config = BatchConfig {
            max_batch: 2, // small releases leave a queue for joiners
            max_wait: Duration::from_micros(50),
            queue_capacity: seeds.len(),
        };
        let set: ShardSet<u64> = ShardSet::new(shard_count, vec![cap], config, true);

        // Split arrivals: some are queued up front, the rest arrive
        // "mid-batch" — submitted from inside the admission hook, as a
        // concurrent submitter would.
        let mut upfront: Vec<(u64, Priority)> = Vec::new();
        let mut late: Vec<(u64, Priority)> = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let p = priority_of(tags[i % tags.len()]);
            if i > 0 && arrive_mid_batch[i % arrive_mid_batch.len()] {
                late.push((seed, p));
            } else {
                upfront.push((seed, p));
            }
        }
        for &(seed, p) in &upfront {
            set.admit(0, p, seed, clock.now(), |_| Ok(())).unwrap();
        }

        let mut served: Vec<u64> = Vec::new();
        let mut boundary_no = 0usize;
        let mut guard = 0;
        while served.len() < seeds.len() {
            clock.advance(Duration::from_micros(advance_us));
            // A "mid-batch" arrival with no batch in flight to join
            // arrives between batches instead.
            if set.is_empty() {
                if let Some((seed, p)) = late.pop() {
                    set.admit(0, p, seed, clock.now(), |_| Ok(())).unwrap();
                }
            }
            let shard = guard % shard_count;
            if let ShardPoll::Ready { batch, .. } = set.poll_at(shard, clock.now()) {
                let initial: Vec<u64> = batch.requests.iter().map(|r| r.payload).collect();
                let lanes = entry.infer_batch_continuous(initial, |boundary| {
                    // Mid-execution arrivals land in the queue first...
                    if let Some((seed, p)) = late.pop() {
                        set.admit(0, p, seed, clock.now(), |_| Ok(())).unwrap();
                    }
                    // ...then the worker admits up to the free lanes,
                    // throttled by a random per-boundary budget.
                    let free = cap - boundary.lanes;
                    let budget = admit_caps[boundary_no % admit_caps.len()].min(free);
                    boundary_no += 1;
                    set.admit_into(0, budget).into_iter().map(|r| r.payload).collect()
                });
                for (seed, output) in lanes {
                    prop_assert!(
                        output == entry.infer_one(seed),
                        "seed {} diverged from its solo run",
                        seed
                    );
                    served.push(seed);
                }
            }
            guard += 1;
            prop_assert!(guard < 10_000, "shard set failed to drain ({}/{} served)",
                served.len(), seeds.len());
        }

        // Exactly once: the served multiset equals the submitted one.
        prop_assert!(late.is_empty());
        prop_assert!(set.is_empty());
        let mut want = seeds.to_vec();
        want.sort_unstable();
        served.sort_unstable();
        prop_assert_eq!(served, want);
    }
}
