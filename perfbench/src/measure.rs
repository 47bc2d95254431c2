//! Timing primitives, the metric registry, and the declared metric
//! names (which must match `BENCHMARK.json`, see the tests).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run prints, with units. Each
/// workload maps them onto its own unit of work (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("cold_latency_s.p50", "s"),
];

/// Stage names of the cached cascade, pipeline order.
pub fn stage_names() -> Vec<&'static str> {
    qpd_core::StageKind::ALL.iter().map(|k| k.name()).collect()
}

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload never calls reads 0 on that workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit| out.push((name, unit));
    push("trace.coverage".into(), "share");
    push("trace.overhead".into(), "share");
    // design_sweep: run_circuit replayed one layer call at a time.
    for name in ["circuit.build_s", "profile.of_s", "core.place_s", "core.bus_order_s"] {
        push(name.into(), "s");
    }
    for kind in qpd_eval::configs::ConfigKind::all() {
        let label = kind.label();
        push(format!("core.design_s.{label}"), "s");
    }
    push("mapping.route_s".into(), "s");
    push("mapping.swaps".into(), "count");
    push("yield.estimate_s".into(), "s");
    push("yield.trials".into(), "count");
    for stage in &stage_names()[..3] {
        push(format!("core.plan.{stage}.hits"), "count");
        push(format!("core.plan.{stage}.misses"), "count");
    }
    // explore_pareto.
    for name in [
        "explore.space_s",
        "explore.new_s",
        "explore.initial_state_s",
        "explore.round_s",
        "explore.checkpoint_render_s",
    ] {
        push(name.into(), "s");
    }
    for stage in stage_names() {
        push(format!("explore.stage.{stage}.hit_ratio"), "share");
        push(format!("explore.stage.{stage}.unique_misses"), "count");
    }
    push("explore.archive_size".into(), "count");
    push("explore.front_size".into(), "count");
    // serve_closed_loop.
    for class in ["warm", "menu_first", "reseeded", "qasm"] {
        push(format!("serve.request_s.design.{class}"), "s");
    }
    push("serve.request_s.stats".into(), "s");
    push("serve.bytes_in".into(), "B");
    push("serve.bytes_out".into(), "B");
    push("serve.overloaded".into(), "count");
    for stage in stage_names() {
        push(format!("serve.stage.{stage}.hits"), "count");
        push(format!("serve.stage.{stage}.misses"), "count");
    }
    push("serve.engines".into(), "count");
    push("serve.queued".into(), "count");
    push("circuit.qasm_emit_s".into(), "s");
    out
}

/// Named values a workload run produced.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Renders the `metrics` object for one declared list. A declared
    /// name the run did not record reads 0 (an idle layer); a recorded
    /// name that is not declared is a benchmark bug.
    pub fn render(&self, declared: &[(String, &str)]) -> String {
        for name in self.0.keys() {
            assert!(declared.iter().any(|(d, _)| d == name), "undeclared metric `{name}`");
        }
        let fields: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.0.get(name).copied().unwrap_or(0.0);
                assert!(value.is_finite(), "metric `{name}` is not finite");
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// One timed layer call.
#[derive(Debug, Clone)]
struct Span {
    layer: String,
    start: Instant,
    end: Instant,
}

/// Spans recorded around calls into the system, from outside it. Safe to
/// record into from pool threads.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { enabled: true, spans: Mutex::new(Vec::new()) }
    }
}

impl Trace {
    /// A trace that records nothing: the untraced runs call the same
    /// code with this.
    pub fn off() -> Self {
        Trace { enabled: false, spans: Mutex::new(Vec::new()) }
    }

    /// Times `f` as one call into `layer`.
    pub fn span<R>(&self, layer: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.lock().expect("span list").push(Span { layer: layer.to_string(), start, end });
        out
    }

    /// Busy seconds per layer (summed over calls and threads).
    pub fn busy_s(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.lock().expect("span list").iter() {
            *out.entry(s.layer.clone()).or_insert(0.0) += (s.end - s.start).as_secs_f64();
        }
        out
    }

    /// Wall time covered by at least one span.
    pub fn covered(&self) -> Duration {
        let mut spans: Vec<(Instant, Instant)> =
            self.spans.lock().expect("span list").iter().map(|s| (s.start, s.end)).collect();
        spans.sort_by_key(|s| s.0);
        let mut total = Duration::ZERO;
        let mut current: Option<(Instant, Instant)> = None;
        for (start, end) in spans {
            match current {
                Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
                _ => {
                    if let Some((cs, ce)) = current {
                        total += ce - cs;
                    }
                    current = Some((start, end));
                }
            }
        }
        if let Some((cs, ce)) = current {
            total += ce - cs;
        }
        total
    }
}

/// The `q`-quantile (`0..=1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Operation times keyed by program, summarised per program first: a
/// program's typical time is its median over passes, which discounts a
/// pass that a noisy neighbour slowed down.
#[derive(Debug, Default)]
pub struct ProgramTimes(BTreeMap<&'static str, Vec<f64>>);

impl ProgramTimes {
    pub fn push(&mut self, program: &'static str, secs: f64) {
        self.0.entry(program).or_default().push(secs);
    }

    /// Every sample.
    pub fn count(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }

    pub fn total(&self) -> f64 {
        self.0.values().flatten().sum()
    }

    /// Each program's median time.
    pub fn typical(&self) -> Vec<f64> {
        self.0.values().map(|v| median(v)).collect()
    }
}

/// Runs `pass` over whole passes of the workload until about `seconds`
/// have elapsed: the first pass is timed, and the number of passes is
/// chosen from it. Whole passes keep the work of a run the same for
/// every seed. Returns the seconds each pass took.
pub fn run_passes(seconds: f64, mut pass: impl FnMut(u64)) -> Vec<f64> {
    let mut timed = |p| {
        let start = Instant::now();
        pass(p);
        start.elapsed().as_secs_f64()
    };
    let mut times = vec![timed(0)];
    let passes = ((seconds / times[0].max(1e-9)).round() as u64).max(1);
    times.extend((1..passes).map(timed));
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn coverage_merges_overlapping_spans() {
        let trace = Trace::default();
        let t0 = Instant::now();
        let ms = |n| Duration::from_millis(n);
        let push = |a, b| {
            trace.spans.lock().unwrap().push(Span {
                layer: "x".into(),
                start: t0 + ms(a),
                end: t0 + ms(b),
            })
        };
        push(0, 10);
        push(5, 20);
        push(30, 40);
        assert_eq!(trace.covered(), ms(30));
        assert!((trace.busy_s()["x"] - 0.035).abs() < 1e-9);
    }

    /// The metric names and units the benchmark prints are exactly the
    /// ones `BENCHMARK.json` declares, in the same order.
    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = qpd_explore::Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        assert_eq!(declared("end_to_end"), owned(e2e));
        assert_eq!(declared("per_layer"), owned(per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn rendering_fills_idle_layers_and_rejects_undeclared_names() {
        let declared = vec![("a".to_string(), "s"), ("b".to_string(), "count")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert_eq!(
            m.render(&declared),
            r#"{"a": {"value": 1.5, "unit": "s"}, "b": {"value": 0, "unit": "count"}}"#
        );
        m.set("c", 1.0);
        assert!(std::panic::catch_unwind(|| m.render(&declared)).is_err());
    }
}
