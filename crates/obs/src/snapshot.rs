//! Point-in-time metric snapshots and the exporters over them: JSON
//! (via serde), a human-readable table, and delta/rate views between two
//! snapshots.

use serde::Serialize;

use crate::registry::{bucket_upper, BUCKETS};

/// Frozen histogram state plus derived order statistics.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// `(inclusive_upper_bound, count)` for non-empty buckets only.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from dense bucket counts (index = power-of-two
    /// bucket, as produced by `Histogram`).
    pub fn from_buckets(name: String, dense: Vec<u64>, sum: u64, max: u64) -> Self {
        debug_assert_eq!(dense.len(), BUCKETS);
        let count: u64 = dense.iter().sum();
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (p * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (i, c) in dense.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Report the bucket's upper bound, capped by the true
                    // maximum so the overflow bucket stays meaningful.
                    return bucket_upper(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            mean_ns: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50_ns: pct(0.50),
            p90_ns: pct(0.90),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            buckets: dense
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (bucket_upper(i), *c))
                .collect(),
            name,
            count,
            sum_ns: sum,
            max_ns: max,
        }
    }

    /// This snapshot minus an earlier one of the same histogram.
    fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = vec![0u64; BUCKETS];
        for (hi, c) in &self.buckets {
            dense[dense_index(*hi)] += c;
        }
        for (hi, c) in &earlier.buckets {
            let slot = &mut dense[dense_index(*hi)];
            *slot = slot.saturating_sub(*c);
        }
        HistogramSnapshot::from_buckets(
            self.name.clone(),
            dense,
            self.sum_ns.saturating_sub(earlier.sum_ns),
            self.max_ns, // max is not invertible; keep the later high-water
        )
    }
}

/// Inverse of `bucket_upper` for the sparse `(upper, count)` encoding.
fn dense_index(upper: u64) -> usize {
    if upper == u64::MAX {
        BUCKETS - 1
    } else {
        crate::registry::bucket_index(upper)
    }
}

/// Frozen per-key counter state.
#[derive(Debug, Clone, Serialize)]
pub struct KeyedSnapshot {
    pub name: String,
    pub total: u64,
    /// `(key, count)` pairs, ascending by key.
    pub by_key: Vec<(u64, u64)>,
}

/// Point-in-time view of a whole registry.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
    pub keyed: Vec<KeyedSnapshot>,
}

impl Snapshot {
    /// Counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether a counter name belongs to family `base`: either the exact
    /// name or a labeled variant `base{…}` (see [`crate::labeled`]).
    fn in_family(name: &str, base: &str) -> bool {
        name == base || (name.starts_with(base) && name[base.len()..].starts_with('{'))
    }

    /// All counters of family `base` as `(label_block_or_name, value)`
    /// pairs — the per-shard series of one logical gauge.
    pub fn family_values(&self, base: &str) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| Self::in_family(n, base))
            .map(|(n, v)| (n.clone(), *v))
            .collect()
    }

    /// Sum of a counter family across its label variants.
    pub fn family_sum(&self, base: &str) -> u64 {
        self.counters.iter().filter(|(n, _)| Self::in_family(n, base)).map(|(_, v)| v).sum()
    }

    /// Maximum of a counter family across its label variants (0 when the
    /// family is absent).
    pub fn family_max(&self, base: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| Self::in_family(n, base))
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0)
    }

    /// This snapshot minus an `earlier` one: counter and histogram
    /// differences (metrics absent earlier count from zero). The basis of
    /// rate views and per-phase accounting.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| {
                let before = earlier.counter(n).unwrap_or(0);
                (n.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| match earlier.histogram(&h.name) {
                Some(e) => h.delta(e),
                None => h.clone(),
            })
            .collect();
        let keyed = self
            .keyed
            .iter()
            .map(|k| {
                let before = earlier.keyed.iter().find(|e| e.name == k.name);
                let by_key: Vec<(u64, u64)> = k
                    .by_key
                    .iter()
                    .map(|(key, c)| {
                        let b = before
                            .and_then(|e| {
                                e.by_key.iter().find(|(bk, _)| bk == key).map(|(_, v)| *v)
                            })
                            .unwrap_or(0);
                        (*key, c.saturating_sub(b))
                    })
                    .collect();
                KeyedSnapshot {
                    name: k.name.clone(),
                    total: by_key.iter().map(|(_, c)| c).sum(),
                    by_key,
                }
            })
            .collect();
        Snapshot { counters, histograms, keyed }
    }

    /// Per-second rates of every counter over `secs` (a delta snapshot plus
    /// the elapsed wall time gives throughput numbers).
    pub fn rates(&self, secs: f64) -> Vec<(String, f64)> {
        self.counters
            .iter()
            .map(|(n, v)| (n.clone(), if secs > 0.0 { *v as f64 / secs } else { 0.0 }))
            .collect()
    }

    /// Pretty JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Human-readable table: counters, then histogram latency summaries,
    /// then keyed counters (top entries).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let w = self.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            out.push_str("counters\n");
            for (n, v) in &self.counters {
                out.push_str(&format!("  {n:<w$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            let w = self.histograms.iter().map(|h| h.name.len()).max().unwrap_or(0);
            out.push_str("histograms (ns)\n");
            out.push_str(&format!(
                "  {:<w$}  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "name", "count", "mean", "p50", "p95", "p99", "max"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<w$}  {:>10} {:>10.0} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name, h.count, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns, h.max_ns
                ));
            }
        }
        for k in &self.keyed {
            out.push_str(&format!("{} (total {})\n", k.name, k.total));
            let mut ranked = k.by_key.clone();
            ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            for (key, c) in ranked.iter().take(8) {
                out.push_str(&format!("  key {key:<12} {c}\n"));
            }
            if ranked.len() > 8 {
                out.push_str(&format!("  … {} more keys\n", ranked.len() - 8));
            }
        }
        out
    }

    /// Prometheus text exposition (format 0.0.4) of the whole snapshot.
    /// Registry names mangle to `pulse_<name>` with dots as underscores; a
    /// `{k="v"}` block in a registry name (see [`crate::labeled`]) passes
    /// through as Prometheus labels, so per-shard series share one metric
    /// family instead of one family per shard.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut type_line = |out: &mut String, fam: &str, kind: &str| {
            if typed.insert(fam.to_string()) {
                out.push_str(&format!("# TYPE {fam} {kind}\n"));
            }
        };
        for (name, v) in &self.counters {
            let (fam, labels) = prom_name(name);
            type_line(&mut out, &fam, "counter");
            out.push_str(&format!("{fam}{labels} {v}\n"));
        }
        for h in &self.histograms {
            let (fam, labels) = prom_name(&h.name);
            type_line(&mut out, &fam, "histogram");
            // Power-of-two buckets are stored per-bucket; Prometheus wants
            // cumulative counts per inclusive `le` upper bound.
            let mut cum = 0u64;
            for (upper, c) in &h.buckets {
                cum += c;
                let le = if *upper == u64::MAX { "+Inf".into() } else { upper.to_string() };
                out.push_str(&format!(
                    "{fam}_bucket{} {cum}\n",
                    merge_labels(&labels, &format!("le=\"{le}\""))
                ));
            }
            if h.buckets.last().is_none_or(|(u, _)| *u != u64::MAX) {
                out.push_str(&format!(
                    "{fam}_bucket{} {cum}\n",
                    merge_labels(&labels, "le=\"+Inf\"")
                ));
            }
            out.push_str(&format!("{fam}_sum{labels} {}\n", h.sum_ns));
            out.push_str(&format!("{fam}_count{labels} {}\n", h.count));
            // Derived order statistics as gauges: dashboards get
            // quantiles without a PromQL histogram_quantile over the
            // coarse power-of-two buckets.
            for (q, v) in
                [("p50", h.p50_ns), ("p95", h.p95_ns), ("p99", h.p99_ns), ("max", h.max_ns)]
            {
                let qfam = format!("{fam}_{q}");
                type_line(&mut out, &qfam, "gauge");
                out.push_str(&format!("{qfam}{labels} {v}\n"));
            }
        }
        for k in &self.keyed {
            let (fam, labels) = prom_name(&k.name);
            type_line(&mut out, &fam, "counter");
            for (key, c) in &k.by_key {
                out.push_str(&format!(
                    "{fam}{} {c}\n",
                    merge_labels(&labels, &format!("key=\"{key}\""))
                ));
            }
        }
        out
    }
}

/// Splits a registry name into a mangled Prometheus family name and its
/// (possibly empty) `{…}` label block.
fn prom_name(name: &str) -> (String, String) {
    let (base, labels) = match name.split_once('{') {
        Some((b, rest)) => (b, format!("{{{rest}")),
        None => (name, String::new()),
    };
    let mut fam = String::with_capacity(base.len() + 6);
    fam.push_str("pulse_");
    for c in base.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            fam.push(c);
        } else {
            fam.push('_');
        }
    }
    (fam, labels)
}

/// Adds one `k="v"` pair to a (possibly empty) `{…}` label block.
fn merge_labels(labels: &str, extra: &str) -> String {
    match labels.strip_suffix('}') {
        Some(open) if open.len() > 1 => format!("{open},{extra}}}"),
        _ => format!("{{{extra}}}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::MetricsRegistry;

    fn reg_with_data() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("a.in").add(100);
        reg.counter("a.out").add(40);
        for v in [10, 20, 800, 3000] {
            reg.histogram("lat").record(v);
        }
        reg.keyed_counter("viol").inc(3);
        reg.keyed_counter("viol").inc(3);
        reg.keyed_counter("viol").inc(5);
        reg
    }

    #[test]
    fn delta_math() {
        let reg = reg_with_data();
        let before = reg.snapshot();
        reg.counter("a.in").add(23);
        reg.histogram("lat").record(50);
        reg.histogram("lat").record(60);
        reg.keyed_counter("viol").inc(5);
        let after = reg.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("a.in"), Some(23));
        assert_eq!(d.counter("a.out"), Some(0));
        let h = d.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 110);
        let viol = &d.keyed[0];
        assert_eq!(viol.total, 1);
        assert_eq!(viol.by_key, vec![(3, 0), (5, 1)]);
    }

    #[test]
    fn percentiles_from_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        // 99 fast ops at ~16ns, one slow at ~65µs.
        for _ in 0..99 {
            h.record(16);
        }
        h.record(65_000);
        let s = reg.snapshot();
        let hs = s.histogram("h").unwrap();
        assert_eq!(hs.count, 100);
        assert!(hs.p50_ns < 64, "p50 {} should sit in the fast bucket", hs.p50_ns);
        assert!(hs.p99_ns < 64, "p99 rank 99 still in the fast bucket");
        assert_eq!(hs.max_ns, 65_000);
        // Percentile never exceeds the true max.
        assert!(hs.p99_ns <= hs.max_ns);
    }

    #[test]
    fn derived_percentiles_from_known_distribution() {
        // 94 values at 10ns (bucket ≤15), 4 at 1000ns (bucket ≤1023), and
        // 2 at 30000ns (bucket ≤32767): ranks 50/90 land in the first
        // bucket, 95 in the second, 99 and max in the third.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("known");
        for _ in 0..94 {
            h.record(10);
        }
        for _ in 0..4 {
            h.record(1000);
        }
        for _ in 0..2 {
            h.record(30_000);
        }
        let s = reg.snapshot();
        let hs = s.histogram("known").unwrap();
        assert_eq!(hs.count, 100);
        assert_eq!(hs.p50_ns, 15);
        assert_eq!(hs.p90_ns, 15);
        assert_eq!(hs.p95_ns, 1023);
        assert_eq!(hs.p99_ns, 30_000, "capped by true max inside the top bucket");
        assert_eq!(hs.max_ns, 30_000);
        assert!(hs.p50_ns <= hs.p95_ns && hs.p95_ns <= hs.p99_ns && hs.p99_ns <= hs.max_ns);
        // All three exporters carry the derived fields.
        assert!(s.to_json().contains("\"p95_ns\""));
        assert!(s.to_json().contains("\"p99_ns\""));
        assert!(s.to_table().contains("p95"));
        let prom = s.to_prometheus();
        assert!(prom.contains("# TYPE pulse_known_p99 gauge"), "{prom}");
        assert!(prom.contains("pulse_known_p50 15\n"), "{prom}");
        assert!(prom.contains("pulse_known_p95 1023\n"), "{prom}");
        assert!(prom.contains("pulse_known_p99 30000\n"), "{prom}");
        assert!(prom.contains("pulse_known_max 30000\n"), "{prom}");
    }

    #[test]
    fn prometheus_exposition_renders_families_and_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("runtime.tuples_in").set(7);
        reg.counter(&crate::labeled("runtime.tuples_in", &[("shard", "3")])).set(4);
        reg.histogram("runtime.violation_path_ns").record(100);
        reg.histogram("runtime.violation_path_ns").record(5000);
        reg.keyed_counter("runtime.violations_by_key").inc(9);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE pulse_runtime_tuples_in counter"), "{text}");
        // One TYPE line per family even with several label variants.
        assert_eq!(text.matches("# TYPE pulse_runtime_tuples_in ").count(), 1, "{text}");
        assert!(text.contains("pulse_runtime_tuples_in 7"), "{text}");
        assert!(text.contains("pulse_runtime_tuples_in{shard=\"3\"} 4"), "{text}");
        assert!(text.contains("# TYPE pulse_runtime_violation_path_ns histogram"), "{text}");
        assert!(text.contains("pulse_runtime_violation_path_ns_bucket{le=\"127\"} 1"), "{text}");
        assert!(text.contains("pulse_runtime_violation_path_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("pulse_runtime_violation_path_ns_sum 5100"), "{text}");
        assert!(text.contains("pulse_runtime_violation_path_ns_count 2"), "{text}");
        assert!(text.contains("pulse_runtime_violations_by_key{key=\"9\"} 1"), "{text}");
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn json_and_table_render() {
        let reg = reg_with_data();
        let s = reg.snapshot();
        let json = s.to_json();
        assert!(json.contains("\"a.in\""), "{json}");
        assert!(json.contains("\"histograms\""), "{json}");
        let table = s.to_table();
        assert!(table.contains("a.in"), "{table}");
        assert!(table.contains("viol (total 3)"), "{table}");
    }

    #[test]
    fn family_helpers_merge_label_variants() {
        let reg = MetricsRegistry::new();
        reg.counter("shard.queue_depth").set(2);
        reg.counter(&crate::labeled("shard.queue_depth", &[("shard", "0")])).set(3);
        reg.counter(&crate::labeled("shard.queue_depth", &[("shard", "1")])).set(7);
        reg.counter("shard.queue_depth_max").set(99); // different family
        let s = reg.snapshot();
        assert_eq!(s.family_sum("shard.queue_depth"), 12);
        assert_eq!(s.family_max("shard.queue_depth"), 7);
        assert_eq!(s.family_values("shard.queue_depth").len(), 3);
        assert_eq!(s.family_sum("absent.metric"), 0);
        assert_eq!(s.family_max("absent.metric"), 0);
    }

    #[test]
    fn rates_divide_by_elapsed() {
        let reg = reg_with_data();
        let r = reg.snapshot().rates(2.0);
        assert!(r.iter().any(|(n, v)| n == "a.in" && (*v - 50.0).abs() < 1e-12));
    }
}
