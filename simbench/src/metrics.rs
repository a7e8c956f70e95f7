//! Metric names, units and the result line.
//!
//! Every metric the benchmark can print is registered here with its
//! unit; [`Metrics::set`] refuses an unregistered name, so nothing is
//! ever printed without a unit.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_ops_per_host_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_ms_p50", "ms"),
    ("sim_latency_ms_p99", "ms"),
    ("sim_slo_attainment", "frac"),
    ("sim_goodput_rps", "req/s"),
    ("sim_step_ms_p50", "ms"),
];

/// Layers whose calls the traced run times, named by module.
pub const LAYERS: &[&str] = &[
    "serve.trace",
    "serve.capacity",
    "serve.offline_profile",
    "runner.plan",
    "runner.exec.solo",
    "runner.exec.contended",
    "core.estimator",
    "core.twophase.new",
    "serve.health",
    "serve.balancer",
    "serve.batcher",
    "model.graph",
    "runner.engine",
    "core.training",
];

/// Work counts a layer reports beside its calls and busy time.
const LAYER_COUNTS: &[(&str, &str)] = &[
    ("serve.trace.requests", "count"),
    ("serve.trace.tokens", "tokens"),
    ("runner.plan.tokens", "tokens"),
    ("runner.exec.solo.collectives", "count"),
    ("runner.exec.solo.repeat_spec_share", "frac"),
    ("runner.exec.contended.collectives", "count"),
    ("core.estimator.window_tokens", "tokens"),
    ("model.graph.ops", "count"),
];

/// Simulated (deterministic) per-layer metrics and the trace summary.
const SIM_AND_TRACE: &[(&str, &str)] = &[
    ("serve.cluster.residual_s", "s"),
    ("runner.train.residual_s", "s"),
    ("trace.total_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("replay.service_mismatches", "count"),
    ("replay.unmatched_batches", "count"),
    ("sim.queue_wait_ms_p50", "ms"),
    ("sim.queue_wait_ms_p99", "ms"),
    ("sim.service_ms_p50", "ms"),
    ("sim.service_ms_p99", "ms"),
    ("sim.batches", "count"),
    ("sim.batch_requests_mean", "count"),
    ("sim.reestimations", "count"),
    ("sim.a2a_share", "frac"),
    ("sim.hedges_issued", "count"),
    ("sim.hedge_win_ratio", "frac"),
    ("sim.hedge_wasted_frac", "frac"),
    ("sim.aborted_batches", "count"),
    ("sim.train.a2a_bwd_slowdown_p50", "x"),
    ("sim.train.pipelining_efficiency", "frac"),
    ("sim.train.compute_util", "frac"),
];

/// Every per-layer metric (printed with `--trace 1`), in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        out.push((format!("{layer}.calls"), "count"));
        out.push((format!("{layer}.busy_s"), "s"));
        out.push((format!("{layer}.share"), "frac"));
        out.push((format!("{layer}.per_call_us"), "us"));
        for (name, unit) in LAYER_COUNTS {
            if name
                .rsplit_once('.')
                .is_some_and(|(owner, _)| owner == *layer)
            {
                out.push((name.to_string(), unit));
            }
        }
    }
    for (name, unit) in SIM_AND_TRACE {
        out.push((name.to_string(), unit));
    }
    out
}

/// Whether a metric name uses only `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, keyed by name, each with its unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    units: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
    order: Vec<String>,
}

impl Metrics {
    /// An empty set accepting exactly the registered `names`.
    pub fn new(names: &[(String, &'static str)]) -> Self {
        Metrics {
            units: names.iter().cloned().collect(),
            values: BTreeMap::new(),
            order: names.iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    /// The end-to-end set.
    pub fn end_to_end() -> Self {
        let names: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        Metrics::new(&names)
    }

    /// The per-layer set.
    pub fn per_layer() -> Self {
        Metrics::new(&per_layer())
    }

    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered name: a metric is never printed
    /// without its unit.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.units.contains_key(name),
            "metric {name} is not registered"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` in registration order, recorded ones only.
    pub fn entries(&self) -> Vec<(&str, f64, &'static str)> {
        self.order
            .iter()
            .filter_map(|n| self.values.get(n).map(|v| (n.as_str(), *v, self.units[n])))
            .collect()
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries()
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite float as a JSON number with every digit (Rust's shortest
/// round-trip form).
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Nearest-rank percentile of sorted values (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: 0.99 from 1000
/// samples up, otherwise the highest whole percentile with at least
/// ten samples beyond it (0.5 below 20 samples).
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        return 0.99;
    }
    if n < 20 {
        return 0.5;
    }
    ((n - 10) * 100 / n) as f64 / 100.0
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}
