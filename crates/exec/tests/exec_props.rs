//! Property tests for the execution engine: on random layer geometries
//! (shapes, strides, kernel sizes, tile sizes, thread counts) the engine
//! must match the `wino_baselines` spatial oracle within fp32 tolerance,
//! and must be bitwise thread-count-invariant.

use proptest::prelude::*;
use wino_baselines::spatial_convolve_strided;
use wino_core::{ConvShape, WinogradParams};
use wino_exec::{
    execute_plan, spatial_convolve_mt, EnginePlan, ExecConfig, LayerPlan, PreparedWinograd,
};
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

fn random_pair(seed: u64, shape: Shape4, k: usize, r: usize) -> (Tensor4<f32>, Tensor4<f32>) {
    let mut rng = SplitMix64::new(seed);
    let input = Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-1.0, 1.0));
    let kernels = Tensor4::from_fn(Shape4 { n: k, c: shape.c, h: r, w: r }, |_, _, _, _| {
        rng.uniform_f32(-1.0, 1.0)
    });
    (input, kernels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Winograd execution equals the spatial oracle on arbitrary
    /// stride-1 geometries, for every tile size and thread count.
    #[test]
    fn winograd_exec_matches_spatial_oracle(
        seed in 0u64..1_000_000,
        n in 1usize..3,
        c in 1usize..4,
        k in 1usize..4,
        h in 4usize..13,
        w in 4usize..13,
        m in 2usize..6,
        pad in 0usize..2,
        threads in 1usize..5,
    ) {
        let (input, kernels) = random_pair(seed, Shape4 { n, c, h, w }, k, 3);
        let params = WinogradParams::new(m, 3).unwrap();
        let got = PreparedWinograd::new(params, &kernels).unwrap().execute(&input, pad, threads);
        let oracle = spatial_convolve_strided(&input, &kernels, pad, 1);
        prop_assert_eq!(got.shape(), oracle.shape());
        let stats = ErrorStats::between(got.as_slice(), oracle.as_slice());
        prop_assert!(stats.within_abs(2e-4), "F({}x{},3x3): {}", m, m, stats);
    }

    /// The spatial engine is bitwise the oracle for any stride, and the
    /// plan dispatcher routes strided layers to it.
    #[test]
    fn strided_plans_match_oracle_bitwise(
        seed in 0u64..1_000_000,
        c in 1usize..4,
        k in 1usize..4,
        h in 5usize..12,
        stride in 1usize..4,
        r in prop::sample::select(vec![1usize, 3, 5]),
        threads in 1usize..5,
    ) {
        let pad = r / 2;
        let (input, kernels) = random_pair(seed, Shape4 { n: 1, c, h, w: h }, k, r);
        let oracle = spatial_convolve_strided(&input, &kernels, pad, stride);
        let direct = spatial_convolve_mt(&input, &kernels, pad, stride, threads);
        prop_assert_eq!(direct.as_slice(), oracle.as_slice());

        let plan = LayerPlan {
            layer: "prop".into(),
            shape: ConvShape { h, w: h, c, k, r, stride, pad },
            engine: EnginePlan::Spatial,
        };
        let via_plan =
            execute_plan(&plan, &input, &kernels, &ExecConfig::with_threads(threads)).unwrap();
        prop_assert_eq!(via_plan.as_slice(), oracle.as_slice());
    }

    /// Thread count never changes a single bit of Winograd output.
    #[test]
    fn winograd_is_thread_count_invariant(
        seed in 0u64..1_000_000,
        h in 4usize..11,
        w in 4usize..11,
        m in 2usize..5,
        threads in 2usize..7,
    ) {
        let (input, kernels) = random_pair(seed, Shape4 { n: 2, c: 2, h, w }, 3, 3);
        let params = WinogradParams::new(m, 3).unwrap();
        let one = PreparedWinograd::new(params, &kernels).unwrap().execute(&input, 1, 1);
        let many = PreparedWinograd::new(params, &kernels).unwrap().execute(&input, 1, threads);
        prop_assert_eq!(one.as_slice(), many.as_slice());
    }
}
