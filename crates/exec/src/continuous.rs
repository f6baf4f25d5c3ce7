//! Continuous batching: a multi-layer execution driver whose batch may
//! **grow at layer boundaries**.
//!
//! Classic dynamic batching freezes a batch at release time: requests
//! that arrive one microsecond later wait for the *next* release, even
//! though the executor will spend the next many milliseconds walking the
//! released batch through its layers. Continuous batching closes that
//! gap — [`run_layers_admitting`] calls an admission hook at every
//! layer boundary, and requests the hook admits join the in-flight
//! batch as new *lanes* from that boundary on.
//!
//! A lane admitted at boundary `k` executes layers `k..L` alongside the
//! original batch, then layers `0..k` in a **catch-up pass** after the
//! main sweep finishes, so every lane ends up with a complete per-layer
//! output set. This works because the workloads in this repository
//! derive each layer's input independently (layers are not chained —
//! see `NetworkExecutor::layer_input`), so layer execution order per
//! lane is free.
//!
//! The bitwise contract carries over unchanged from
//! [`PreparedPlan::run_lanes`]: every layer call is one batched
//! execution in which each lane reads only its own image under a fixed
//! accumulation order, so a lane's outputs are bitwise identical to a
//! solo run **no matter when it joined or who shared its batch** — the
//! property `crates/serve/tests/shard_props.rs` pins for arbitrary
//! admission schedules.

use crate::PreparedPlan;
use wino_tensor::Tensor4;

/// One layer boundary offered to the admission hook of
/// [`run_layers_admitting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// The layer about to execute (`1..layer_count` — boundary 0 does
    /// not exist: a batch that has not started yet is a plain release,
    /// not a continuous admission).
    pub next_layer: usize,
    /// Lanes currently in flight (initial batch plus everyone admitted
    /// at earlier boundaries).
    pub lanes: usize,
}

/// Drives a stack of prepared layers over a growing lane set —
/// **continuous batching** as an execution-engine primitive.
///
/// * `plans` — the model's per-layer [`PreparedPlan`]s, execution order.
/// * `threads` — worker fan-out of every layer call.
/// * `initial` — the lanes of the released batch (at least one).
/// * `lane_input` — produces lane `l`'s input for layer `i`; called
///   once per (lane, layer).
/// * `admit` — called at every layer boundary `1..plans.len()` of the
///   main sweep (never during catch-up: a winding-down batch stops
///   admitting); each lane it returns joins from that boundary on.
///
/// Returns one `(lane, per-layer outputs)` pair per lane — the initial
/// lanes first in their given order, then admitted lanes in admission
/// order; outputs are indexed by layer `0..plans.len()` regardless of
/// the order the lane actually executed them in.
///
/// Every lane's outputs are bitwise identical to running that lane
/// alone through the same plans (see the module docs for why).
///
/// # Panics
///
/// Panics when `plans` or `initial` is empty, or when `lane_input`
/// returns a tensor that does not match a plan's prepared geometry.
pub fn run_layers_admitting<L>(
    plans: &[PreparedPlan],
    threads: usize,
    initial: Vec<L>,
    mut lane_input: impl FnMut(&L, usize) -> Tensor4<f32>,
    mut admit: impl FnMut(Boundary) -> Vec<L>,
) -> Vec<(L, Vec<Tensor4<f32>>)> {
    assert!(!plans.is_empty(), "no layers to execute");
    assert!(!initial.is_empty(), "no lanes in the released batch");
    let layer_count = plans.len();
    // (lane, join boundary): the initial batch joined at 0.
    let mut lanes: Vec<(L, usize)> = initial.into_iter().map(|l| (l, 0)).collect();
    let mut outputs: Vec<Vec<Option<Tensor4<f32>>>> =
        lanes.iter().map(|_| vec![None; layer_count]).collect();

    // Main sweep: layer by layer, admitting at each interior boundary.
    for layer in 0..layer_count {
        if layer > 0 {
            for lane in admit(Boundary { next_layer: layer, lanes: lanes.len() }) {
                lanes.push((lane, layer));
                outputs.push(vec![None; layer_count]);
            }
        }
        let inputs: Vec<Tensor4<f32>> =
            lanes.iter().map(|(lane, _)| lane_input(lane, layer)).collect();
        for (i, out) in plans[layer].run_lanes(&inputs, threads).into_iter().enumerate() {
            outputs[i][layer] = Some(out);
        }
    }

    // Catch-up: lanes that joined at boundary k still owe layers 0..k.
    // Sweep front-to-back so late joiners stay batched together.
    let max_join = lanes.iter().map(|&(_, join)| join).max().unwrap_or(0);
    for layer in 0..max_join {
        let pending: Vec<usize> = (0..lanes.len()).filter(|&i| lanes[i].1 > layer).collect();
        if pending.is_empty() {
            continue;
        }
        let inputs: Vec<Tensor4<f32>> =
            pending.iter().map(|&i| lane_input(&lanes[i].0, layer)).collect();
        for (&i, out) in pending.iter().zip(plans[layer].run_lanes(&inputs, threads)) {
            outputs[i][layer] = Some(out);
        }
    }
    lanes
        .into_iter()
        .zip(outputs)
        .map(|((lane, _), outs)| {
            (lane, outs.into_iter().map(|o| o.expect("every layer executed")).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnginePlan, LayerPlan, Precision};
    use wino_core::{ConvShape, WinogradParams};
    use wino_tensor::{Shape4, SplitMix64, Tensor4};

    /// Two small layers (one Winograd, one strided spatial), prepared.
    fn plans() -> Vec<PreparedPlan> {
        let mut rng = SplitMix64::new(41);
        let mut kernels = |k: usize, c: usize| {
            Tensor4::from_fn(Shape4 { n: k, c, h: 3, w: 3 }, |_, _, _, _| {
                rng.uniform_f32(-0.5, 0.5)
            })
        };
        let a = LayerPlan {
            layer: "a".into(),
            shape: ConvShape::same_padded(8, 8, 2, 3, 3),
            engine: EnginePlan::Winograd(WinogradParams::new(2, 3).unwrap()),
        };
        let b = LayerPlan {
            layer: "b".into(),
            shape: ConvShape { h: 8, w: 8, c: 3, k: 2, r: 3, stride: 2, pad: 1 },
            engine: EnginePlan::Spatial,
        };
        let ka = kernels(3, 2);
        let kb = kernels(2, 3);
        vec![
            PreparedPlan::new(&a, Precision::Float, &ka).unwrap(),
            PreparedPlan::new(&b, Precision::Fixed { frac: 10 }, &kb).unwrap(),
        ]
    }

    fn input_for(lane: u64, layer: usize, plans: &[PreparedPlan]) -> Tensor4<f32> {
        let s = plans[layer].shape();
        let mut rng = SplitMix64::new(lane ^ ((layer as u64 + 1) << 32));
        Tensor4::from_fn(Shape4 { n: 1, c: s.c, h: s.h, w: s.w }, |_, _, _, _| {
            rng.uniform_f32(-1.0, 1.0)
        })
    }

    fn solo(lane: u64, plans: &[PreparedPlan]) -> Vec<Tensor4<f32>> {
        (0..plans.len()).map(|i| plans[i].run(&input_for(lane, i, plans), 1)).collect()
    }

    #[test]
    fn run_lanes_matches_individual_runs_bitwise() {
        let plans = plans();
        for layer in 0..plans.len() {
            let lanes: Vec<Tensor4<f32>> = (0..3u64).map(|l| input_for(l, layer, &plans)).collect();
            let batched = plans[layer].run_lanes(&lanes, 2);
            for (lane, got) in lanes.iter().zip(&batched) {
                let alone = plans[layer].run(lane, 2);
                assert_eq!(got.as_slice(), alone.as_slice());
            }
        }
    }

    #[test]
    fn late_joiners_get_bitwise_solo_outputs() {
        let plans = plans();
        // Lane 7 joins at boundary 1 (before the second layer): it
        // executes layer 1 with the batch, then layer 0 in catch-up.
        let got = run_layers_admitting(
            &plans,
            2,
            vec![1u64, 2],
            |&lane, layer| input_for(lane, layer, &plans),
            |b| if b.next_layer == 1 { vec![7u64] } else { vec![] },
        );
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].0, 7, "admitted lane rides last");
        for (lane, outs) in &got {
            let reference = solo(*lane, &plans);
            assert_eq!(outs.len(), plans.len());
            for (o, r) in outs.iter().zip(&reference) {
                assert_eq!(o.as_slice(), r.as_slice(), "lane {lane}");
            }
        }
    }

    #[test]
    fn no_admission_reduces_to_a_plain_batched_sweep() {
        let plans = plans();
        let got = run_layers_admitting(
            &plans,
            1,
            vec![4u64, 5, 6],
            |&lane, layer| input_for(lane, layer, &plans),
            |_| vec![],
        );
        for (lane, outs) in &got {
            for (o, r) in outs.iter().zip(&solo(*lane, &plans)) {
                assert_eq!(o.as_slice(), r.as_slice(), "lane {lane}");
            }
        }
    }

    #[test]
    fn admission_hook_sees_every_interior_boundary_once() {
        let plans = plans();
        let mut seen = Vec::new();
        let _ = run_layers_admitting(
            &plans,
            1,
            vec![0u64],
            |&lane, layer| input_for(lane, layer, &plans),
            |b| {
                seen.push((b.next_layer, b.lanes));
                vec![]
            },
        );
        assert_eq!(seen, vec![(1, 1)], "two layers have exactly one interior boundary");
    }

    #[test]
    #[should_panic(expected = "no lanes")]
    fn empty_initial_batch_panics() {
        let plans = plans();
        let _ =
            run_layers_admitting(&plans, 1, Vec::<u64>::new(), |_, _| unreachable!(), |_| vec![]);
    }
}
