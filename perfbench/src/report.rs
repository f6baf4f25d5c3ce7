//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` list every metric the benchmark reports,
//! with its unit, in the order `BENCHMARK.json` declares them. A run with
//! `--trace 0` prints every end-to-end metric; a run with `--trace 1`
//! prints every per-layer metric. A per-layer metric that the chosen
//! workload does not exercise (a VGG layer on `alexnet-227`, a registry
//! timing on `vgg16d-224`) reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload measures every one of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("latency_ms_p50", "ms"), ("img_per_s", "1/s"), ("ok_share", "share")];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.conv1_1.ms", "ms"),
    ("exec.conv1_2.ms", "ms"),
    ("exec.conv2_1.ms", "ms"),
    ("exec.conv2_2.ms", "ms"),
    ("exec.conv3_1.ms", "ms"),
    ("exec.conv3_2.ms", "ms"),
    ("exec.conv3_3.ms", "ms"),
    ("exec.conv4_1.ms", "ms"),
    ("exec.conv4_2.ms", "ms"),
    ("exec.conv4_3.ms", "ms"),
    ("exec.conv5_1.ms", "ms"),
    ("exec.conv5_2.ms", "ms"),
    ("exec.conv5_3.ms", "ms"),
    ("exec.conv1.ms", "ms"),
    ("exec.conv2.ms", "ms"),
    ("exec.conv3.ms", "ms"),
    ("exec.conv4.ms", "ms"),
    ("exec.conv5.ms", "ms"),
    ("exec.pack_ms", "ms"),
    ("exec.multiply_ms", "ms"),
    ("exec.inverse_ms", "ms"),
    ("exec.spatial_ms", "ms"),
    ("exec.multiply_gflops", "GFLOP/s"),
    ("exec.multiply_ceiling_share", "share"),
    ("exec.pack_inverse_share", "share"),
    ("exec.bytes_computed", "bytes"),
    ("exec.prepare_s", "s"),
    ("exec.max_abs_err", "abs"),
    ("search.ms", "ms"),
    ("search.evaluations", "count"),
    ("search.cache_hit_share", "share"),
    ("serve.light_p99_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.joins", "count"),
    ("serve.refused_share_overload", "share"),
    ("registry.vgg16d-f32.b1_ms", "ms"),
    ("registry.vgg16d-f32.b8_ms", "ms"),
    ("registry.vgg16d-q8.b1_ms", "ms"),
    ("registry.vgg16d-q8.b8_ms", "ms"),
    ("registry.alexnet-f32.b1_ms", "ms"),
    ("registry.alexnet-f32.b8_ms", "ms"),
    ("registry.alexnet-q8.b1_ms", "ms"),
    ("registry.alexnet-q8.b8_ms", "ms"),
    ("registry.resnet18-f32.b1_ms", "ms"),
    ("registry.resnet18-f32.b8_ms", "ms"),
    ("registry.resnet18-q8.b1_ms", "ms"),
    ("registry.resnet18-q8.b8_ms", "ms"),
    ("registry.tinycnn-f32.b1_ms", "ms"),
    ("registry.tinycnn-f32.b8_ms", "ms"),
    ("registry.tinycnn-q8.b1_ms", "ms"),
    ("registry.tinycnn-q8.b8_ms", "ms"),
    ("gen.late_ms_max", "ms"),
    ("roofline.fma_gflops", "GFLOP/s"),
    ("roofline.stream_gbps", "GB/s"),
    ("trace.overhead_share", "share"),
];

/// What one run measured: operation counts and metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (forward passes, or requests offered).
    pub attempted: u64,
    /// Operations that failed a correctness check, errored, or were
    /// refused where refusal is a failure.
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Records one metric value.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue or the value is not
    /// finite: either is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric '{name}' is not in the catalogue"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.metrics.insert(name.to_owned(), value);
    }

    /// Prints one line per metric of the mode, then the result object as
    /// the last line of standard output.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was not measured.
    pub fn print(&self, trace: bool) {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric '{name}' was not measured"),
            };
            println!("metric {name} = {value} {unit}");
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }

    /// `1 − failed / attempted`: the share of operations that succeeded.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}
