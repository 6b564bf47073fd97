//! The typed metrics registry: counters, gauges and fixed-bucket
//! histograms with Prometheus/OpenMetrics text and JSON export.
//!
//! Unlike `prometheus`-style registries there is no interior mutability
//! and no background scraping: the registry is a plain value the driver
//! mutates explicitly, and exports are pure functions of its contents.
//! Families and series live in `BTreeMap`s, so export order — and
//! therefore the exported bytes — is deterministic.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Last-written `f64`.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl MetricKind {
    fn text(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A fixed-bucket histogram (cumulative export, Prometheus-style).
///
/// Bucket bounds are fixed at construction — observations never
/// allocate or rebucket, keeping the memory profile and the export
/// layout independent of the data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; the last entry is the overflow
    /// (`+Inf`) bucket, so `counts.len() == bounds.len() + 1`.
    counts: Vec<u64>,
    /// Sum of all observed values.
    sum: f64,
    /// Number of observations.
    count: u64,
}

impl Histogram {
    /// Creates a histogram with the given finite bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite or not strictly
    /// increasing.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bucket bounds must be strictly increasing");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite"
        );
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// `n` buckets from `start`, each `factor` times the previous
    /// (`factor > 1`).
    ///
    /// # Panics
    ///
    /// Panics on a non-positive `start`, `factor <= 1` or `n == 0`.
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && n > 0, "invalid buckets");
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Self::new(bounds)
    }

    /// `n` buckets of equal `width` starting at `start + width`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive `width` or `n == 0`.
    pub fn linear(start: f64, width: f64, n: usize) -> Self {
        assert!(width > 0.0 && n > 0, "invalid buckets");
        Self::new((1..=n).map(|i| start + width * i as f64).collect())
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the `+Inf` overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// An empty clone sharing this histogram's bucket layout.
    fn like(&self) -> Self {
        Self::new(self.bounds.clone())
    }
}

/// One concrete time series of a family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Series {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A metric family: shared name, help text, kind, and one series per
/// label set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Histogram bucket template for `MetricKind::Histogram` families.
    buckets: Option<Histogram>,
    /// Series keyed by the *rendered* label string (`{k="v",...}` with
    /// keys sorted), which makes ordering deterministic.
    series: BTreeMap<String, Series>,
}

/// The registry: a deterministic map of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// Renders a label set in canonical form: keys sorted, `{k="v",...}`,
/// empty string for no labels. Values escape `\`, `"` and line feeds
/// as the OpenMetrics text format requires.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Merges a family-level label string with extra suffix labels (used for
/// histogram `le` buckets).
fn labels_with(rendered: &str, extra: &str) -> String {
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

/// Formats an `f64` deterministically for the text exposition (Rust's
/// shortest-roundtrip `Display`, with non-finite values spelled the
/// Prometheus way).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, help: &str, kind: MetricKind, buckets: Option<Histogram>) {
        let existing = self.families.get(name);
        if let Some(f) = existing {
            assert!(
                f.kind == kind,
                "metric `{name}` re-declared as {kind:?}, was {:?}",
                f.kind
            );
            return;
        }
        self.families.insert(
            name.to_string(),
            Family {
                help: help.to_string(),
                kind,
                buckets,
                series: BTreeMap::new(),
            },
        );
    }

    /// Declares a counter family (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared with a different kind.
    pub fn declare_counter(&mut self, name: &str, help: &str) {
        self.declare(name, help, MetricKind::Counter, None);
    }

    /// Declares a gauge family (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared with a different kind.
    pub fn declare_gauge(&mut self, name: &str, help: &str) {
        self.declare(name, help, MetricKind::Gauge, None);
    }

    /// Declares a histogram family with a fixed bucket layout
    /// (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared with a different kind.
    pub fn declare_histogram(&mut self, name: &str, help: &str, buckets: Histogram) {
        self.declare(name, help, MetricKind::Histogram, Some(buckets));
    }

    /// Adds `delta` to a counter series (auto-declares the family).
    ///
    /// # Panics
    ///
    /// Panics if `name` names a non-counter family.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.declare(name, "", MetricKind::Counter, None);
        let family = self
            .families
            .get_mut(name)
            .unwrap_or_else(|| unreachable!("family declared above"));
        assert!(
            family.kind == MetricKind::Counter,
            "metric `{name}` is not a counter"
        );
        let series = family
            .series
            .entry(render_labels(labels))
            .or_insert(Series::Counter(0));
        match series {
            Series::Counter(v) => *v += delta,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Sets a gauge series to `value` (auto-declares the family).
    ///
    /// # Panics
    ///
    /// Panics if `name` names a non-gauge family.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.declare(name, "", MetricKind::Gauge, None);
        let family = self
            .families
            .get_mut(name)
            .unwrap_or_else(|| unreachable!("family declared above"));
        assert!(
            family.kind == MetricKind::Gauge,
            "metric `{name}` is not a gauge"
        );
        family
            .series
            .insert(render_labels(labels), Series::Gauge(value));
    }

    /// Records a batch of observations into a histogram series. An
    /// empty batch records nothing and creates no series.
    ///
    /// # Panics
    ///
    /// Panics if `name` was not declared via
    /// [`MetricsRegistry::declare_histogram`] (histograms need a bucket
    /// layout, so auto-declaration is not possible).
    pub fn observe(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        values: impl IntoIterator<Item = f64>,
    ) {
        let family = self
            .families
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram `{name}` must be declared before observing"));
        assert!(
            family.kind == MetricKind::Histogram,
            "metric `{name}` is not a histogram"
        );
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        let Family {
            buckets, series, ..
        } = family;
        let series = series.entry(render_labels(labels)).or_insert_with(|| {
            Series::Histogram(
                buckets
                    .as_ref()
                    .unwrap_or_else(|| unreachable!("histogram families always carry buckets"))
                    .like(),
            )
        });
        let Series::Histogram(h) = series else {
            unreachable!("kind checked above")
        };
        for v in values {
            h.observe(v);
        }
    }

    /// Reads back a counter series (0 if absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self
            .families
            .get(name)
            .and_then(|f| f.series.get(&render_labels(labels)))
        {
            Some(Series::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Reads back a gauge series.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .families
            .get(name)
            .and_then(|f| f.series.get(&render_labels(labels)))
        {
            Some(Series::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads back a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self
            .families
            .get(name)
            .and_then(|f| f.series.get(&render_labels(labels)))
        {
            Some(Series::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of declared families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no family is declared.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (OpenMetrics-compatible modulo the counter `_total` suffix
    /// convention, which is left to metric naming), terminated by the
    /// OpenMetrics `# EOF` marker. Output is byte-deterministic.
    pub fn to_openmetrics(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", family.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.text());
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Series::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_f64(*v));
                    }
                    Series::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, c) in h.counts().iter().enumerate() {
                            cumulative += c;
                            let le = if i < h.bounds().len() {
                                fmt_f64(h.bounds()[i])
                            } else {
                                "+Inf".to_string()
                            };
                            let le = format!("le=\"{le}\"");
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                labels_with(labels, &le)
                            );
                        }
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_f64(h.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Renders the registry as a JSON value tree (families → series),
    /// for machine consumption alongside the text exposition.
    pub fn to_json(&self) -> serde::Value {
        let families = self
            .families
            .iter()
            .map(|(name, family)| {
                let series: Vec<serde::Value> = family
                    .series
                    .iter()
                    .map(|(labels, s)| {
                        let mut fields =
                            vec![("labels".to_string(), serde::Value::Str(labels.clone()))];
                        match s {
                            Series::Counter(v) => {
                                fields.push(("value".to_string(), serde::Value::UInt(*v)));
                            }
                            Series::Gauge(v) => {
                                fields.push(("value".to_string(), serde::Value::Float(*v)));
                            }
                            Series::Histogram(h) => {
                                fields.push(("histogram".to_string(), h.serialize_value()));
                            }
                        }
                        serde::Value::Object(fields)
                    })
                    .collect();
                let obj = serde::Value::Object(vec![
                    ("help".to_string(), serde::Value::Str(family.help.clone())),
                    (
                        "kind".to_string(),
                        serde::Value::Str(family.kind.text().to_string()),
                    ),
                    ("series".to_string(), serde::Value::Array(series)),
                ]);
                (name.clone(), obj)
            })
            .collect();
        serde::Value::Object(families)
    }
}

impl serde::Serialize for MetricsRegistry {
    fn serialize_value(&self) -> serde::Value {
        self.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export() {
        let mut r = MetricsRegistry::new();
        r.declare_counter("laer_iterations_total", "iterations executed");
        r.inc("laer_iterations_total", &[("system", "laer-moe")], 2);
        r.inc("laer_iterations_total", &[("system", "laer-moe")], 3);
        assert_eq!(
            r.counter_value("laer_iterations_total", &[("system", "laer-moe")]),
            5
        );
        let text = r.to_openmetrics();
        assert!(text.contains("# TYPE laer_iterations_total counter"));
        assert!(text.contains("laer_iterations_total{system=\"laer-moe\"} 5"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.set("g", &[], 1.5);
        r.set("g", &[], 2.5);
        assert_eq!(r.gauge_value("g", &[]), Some(2.5));
        assert!(r.to_openmetrics().contains("g 2.5"));
    }

    #[test]
    fn label_order_is_canonical() {
        assert_eq!(
            render_labels(&[("b", "2"), ("a", "1")]),
            "{a=\"1\",b=\"2\"}"
        );
        assert_eq!(render_labels(&[]), "");
        // Quotes and backslashes are escaped.
        assert_eq!(render_labels(&[("k", "a\"b")]), "{k=\"a\\\"b\"}");
        assert_eq!(render_labels(&[("k", "a\\b")]), "{k=\"a\\\\b\"}");
    }

    /// A line feed in a label value is escaped, so it cannot split a
    /// sample line of the text exposition.
    #[test]
    fn newlines_in_label_values_are_escaped() {
        assert_eq!(render_labels(&[("k", "a\nb")]), "{k=\"a\\nb\"}");
        let mut r = MetricsRegistry::new();
        r.inc("c_total", &[("k", "two\nlines")], 1);
        let text = r.to_openmetrics();
        assert!(text.contains("c_total{k=\"two\\nlines\"} 1\n"));
        // Every line is a comment or a whole sample.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("c_total{"),
                "{line}"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_export() {
        let mut r = MetricsRegistry::new();
        r.declare_histogram("h", "test", Histogram::new(vec![1.0, 2.0]));
        r.observe("h", &[("s", "x")], [0.5, 1.5, 1.7, 9.0]);
        let h = r.histogram("h", &[("s", "x")]).unwrap();
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 12.7).abs() < 1e-12);
        let text = r.to_openmetrics();
        assert!(text.contains("h_bucket{s=\"x\",le=\"1\"} 1"));
        assert!(text.contains("h_bucket{s=\"x\",le=\"2\"} 3"));
        assert!(text.contains("h_bucket{s=\"x\",le=\"+Inf\"} 4"));
        assert!(text.contains("h_count{s=\"x\"} 4"));
    }

    #[test]
    fn exponential_and_linear_buckets() {
        let e = Histogram::exponential(1e-3, 2.0, 3);
        assert_eq!(e.bounds(), &[1e-3, 2e-3, 4e-3]);
        let l = Histogram::linear(0.0, 0.5, 2);
        assert_eq!(l.bounds(), &[0.5, 1.0]);
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.inc("b_total", &[("x", "1")], 1);
            r.set("a_gauge", &[("y", "2")], 0.25);
            r.declare_histogram("c_hist", "h", Histogram::exponential(1e-3, 10.0, 4));
            r.observe("c_hist", &[], [0.02]);
            r.to_openmetrics()
        };
        assert_eq!(build(), build());
        // Families render in name order regardless of insertion order.
        let text = build();
        let a = text.find("a_gauge").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b);
    }

    #[test]
    fn json_export_shape() {
        let mut r = MetricsRegistry::new();
        r.inc("c", &[("s", "x")], 7);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"kind\":\"counter\""));
        assert!(json.contains("\"value\":7"));
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn kind_mismatch_panics() {
        let mut r = MetricsRegistry::new();
        r.set("m", &[], 1.0);
        r.inc("m", &[], 1);
    }
}
