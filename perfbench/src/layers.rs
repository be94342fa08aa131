//! Per-layer samples of the traced run and the metric list it reports.

use std::collections::BTreeMap;

/// Every per-layer metric the traced run reports, with its unit — the
/// `per_layer` list of BENCHMARK.json, in the same order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.parse_ms", "ms"),
    ("circuit.parse_mb_s", "MB/s"),
    ("core.model_ms", "ms"),
    ("core.model_rows", "count"),
    ("core.classify_ms", "ms"),
    ("core.classify_general_rows", "count"),
    ("lp.graph_build_ms", "ms"),
    ("lp.graph_nodes", "count"),
    ("lp.graph_arcs", "count"),
    ("lp.min_ratio_ms", "ms"),
    ("lp.min_ratio_witness_rows", "count"),
    ("lp.min_ratio_share", "ratio"),
    ("core.assemble_ms", "ms"),
    ("core.update_iterations", "count"),
    ("core.render_ms", "ms"),
    ("core.render_bytes", "count"),
    ("solve.pipeline_ms", "ms"),
    ("cli.overhead_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("check.solve_ms", "ms"),
    ("check.lp_pivots", "count"),
    ("core.race_ms", "ms"),
    ("report.solve_ms", "ms"),
    ("core.critical_ms", "ms"),
    ("core.sensitivity_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_s", "1/s"),
    ("core.sweep_ms_per_run", "ms"),
    ("core.sweep_warm_pivots_per_run", "count"),
    ("api.engine_ms.solve_hit", "ms"),
    ("api.engine_ms.solve_miss", "ms"),
    ("api.engine_ms.probe_feasible", "ms"),
    ("api.engine_ms.probe_infeasible", "ms"),
    ("api.engine_ms.check", "ms"),
    ("api.wire_ms", "ms"),
    ("api.request_parse_ms", "ms"),
    ("lp.feasible_ms.feasible", "ms"),
    ("lp.feasible_ms.infeasible", "ms"),
    ("core.probe_build_ms", "ms"),
    ("api.result_hit_ratio", "ratio"),
    ("api.circuit_hit_ratio", "ratio"),
    ("api.degraded_frac", "ratio"),
    ("api.shed", "count"),
];

/// Samples per layer metric; each metric reports its samples' median.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// The samples of `name` so far.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.get(name).cloned().unwrap_or_default()
    }

    /// Median of `name`, if sampled.
    pub fn median(&self, name: &str) -> Option<f64> {
        crate::stats::median(self.samples.get(name)?)
    }

    /// The per-layer metrics in [`PER_LAYER`] order.
    ///
    /// # Errors
    ///
    /// A metric with no finite sample: the traced run missed a layer.
    pub fn report(&self) -> Result<Vec<crate::harness::Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .median(name)
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("layer metric `{name}` was not measured"))?;
                Ok(crate::harness::Metric {
                    name: name.to_string(),
                    value,
                    unit,
                })
            })
            .collect()
    }
}
