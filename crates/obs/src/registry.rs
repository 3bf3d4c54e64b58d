//! Metric primitives and the hierarchical registry.
//!
//! Counters and histograms are lock-free on the record path (relaxed
//! atomics); the registry maps hierarchical dotted names
//! (`runtime.violations`, `cops.join.systems_solved`) to shared handles.
//! Handles are `Arc`s — resolve once, then record with no map lookup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::snapshot::{HistogramSnapshot, KeyedSnapshot, Snapshot};

/// Monotonic event counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for exporting externally-accumulated totals
    /// (e.g. an operator's `OpMetrics`) into the registry.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets. Bucket `i > 0` counts values
/// in `[2^(i−1), 2^i)`; bucket 0 counts zeros. The top bucket absorbs
/// everything ≥ 2^(BUCKETS−2) (≈ 1.2 minutes in nanoseconds).
pub const BUCKETS: usize = 37;

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Fixed-bucket latency histogram (nanosecond convention). Cloning shares
/// the underlying cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

/// Bucket index for a recorded value.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the overflow bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot::from_buckets(name.to_string(), buckets, self.sum(), self.max())
    }
}

/// A counter partitioned by a `u64` key (e.g. violations per stream key).
/// Mutex-guarded — intended for slow paths only.
#[derive(Clone, Default)]
pub struct KeyedCounter(Arc<Mutex<BTreeMap<u64, u64>>>);

impl KeyedCounter {
    pub fn inc(&self, key: u64) {
        *self.0.lock().unwrap().entry(key).or_insert(0) += 1;
    }

    pub fn get(&self, key: u64) -> u64 {
        self.0.lock().unwrap().get(&key).copied().unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.0.lock().unwrap().values().sum()
    }

    fn snapshot(&self, name: &str) -> KeyedSnapshot {
        let m = self.0.lock().unwrap();
        KeyedSnapshot {
            name: name.to_string(),
            total: m.values().sum(),
            by_key: m.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }
}

/// Canonical labeled-metric name: `base{k="v",k2="v2"}`. Labels ride inside
/// the registry key, so the existing name-keyed machinery (snapshots,
/// deltas, lookups) works unchanged; the Prometheus exporter re-parses the
/// block. Label order follows the argument order — callers must pass labels
/// in a stable order for `base{…}` strings to compare equal.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        // Escape per the Prometheus text format so values round-trip.
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Registry of named metrics. `counter`/`histogram`/`keyed_counter` are
/// get-or-create; reads take a shared lock, creation an exclusive one.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    keyed: RwLock<BTreeMap<String, KeyedCounter>>,
}

fn get_or_create<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(v) = map.read().unwrap().get(name) {
        return v.clone();
    }
    map.write().unwrap().entry(name.to_string()).or_default().clone()
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.counters, name)
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.histograms, name)
    }

    pub fn keyed_counter(&self, name: &str) -> KeyedCounter {
        get_or_create(&self.keyed, name)
    }

    /// Consistent-enough point-in-time view of every metric (each cell is
    /// read with relaxed ordering; cross-metric skew is possible while
    /// recording concurrently).
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            self.counters.read().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms =
            self.histograms.read().unwrap().iter().map(|(k, v)| v.snapshot(k)).collect();
        let keyed = self.keyed.read().unwrap().iter().map(|(k, v)| v.snapshot(k)).collect();
        Snapshot { counters, histograms, keyed }
    }

    /// Resets every metric to zero (counters and histograms keep their
    /// registered names; handles held by callers stay valid).
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.set(0);
        }
        for h in self.histograms.read().unwrap().values() {
            let core = &h.0;
            for b in &core.buckets {
                b.store(0, Ordering::Relaxed);
            }
            core.count.store(0, Ordering::Relaxed);
            core.sum.store(0, Ordering::Relaxed);
            core.max.store(0, Ordering::Relaxed);
        }
        for k in self.keyed.read().unwrap().values() {
            k.0.lock().unwrap().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.y");
        let b = reg.counter("x.y");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x.y").get(), 5);
        a.set(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn bucket_boundaries() {
        // Bucket 0 is exactly zero; bucket i>0 covers [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Uppers are inclusive and align with the index function.
        for i in 1..BUCKETS - 1 {
            let hi = bucket_upper(i);
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(bucket_index(hi + 1), i + 1);
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_counts_and_stats() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.buckets.iter().map(|(_, c)| c).sum::<u64>(), 6);
    }

    #[test]
    fn keyed_counter_partitions() {
        let k = KeyedCounter::default();
        k.inc(7);
        k.inc(7);
        k.inc(9);
        assert_eq!(k.get(7), 2);
        assert_eq!(k.get(9), 1);
        assert_eq!(k.get(8), 0);
        assert_eq!(k.total(), 3);
    }

    #[test]
    fn labeled_names_encode_and_escape() {
        assert_eq!(labeled("runtime.tuples_in", &[]), "runtime.tuples_in");
        assert_eq!(
            labeled("runtime.tuples_in", &[("shard", "3")]),
            "runtime.tuples_in{shard=\"3\"}"
        );
        assert_eq!(
            labeled("x", &[("a", "1"), ("b", "q\"uo\\te")]),
            "x{a=\"1\",b=\"q\\\"uo\\\\te\"}"
        );
        // Labeled and unlabeled names are distinct registry entries.
        let reg = MetricsRegistry::new();
        reg.counter("c").set(1);
        reg.counter(&labeled("c", &[("shard", "0")])).set(2);
        let s = reg.snapshot();
        assert_eq!(s.counter("c"), Some(1));
        assert_eq!(s.counter("c{shard=\"0\"}"), Some(2));
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(10);
        reg.histogram("h").record(5);
        reg.keyed_counter("k").inc(1);
        reg.reset();
        assert_eq!(reg.counter("a").get(), 0);
        assert_eq!(reg.histogram("h").count(), 0);
        assert_eq!(reg.keyed_counter("k").total(), 0);
    }
}
