//! `pulse-obs`: structured observability for the Pulse runtime.
//!
//! Dependency-light by design (the build environment is offline): atomic
//! counters, fixed power-of-two-bucket latency histograms and keyed
//! counters, all reachable through a process-global [`MetricsRegistry`]
//! keyed by hierarchical dotted names (`runtime.violations`,
//! `cops.join.systems_solved`, `runtime.violation_path_ns`). Timed regions
//! of the violation path are attributed by the profiler ([`prof`]) and
//! causal events by the per-runtime flight recorder ([`trace`]).
//!
//! Design constraints, in order:
//! 1. **The fast path stays fast.** Recording is relaxed atomics only;
//!    instrumented call sites branch on a global enabled flag, so disabled
//!    instrumentation costs one atomic load. Hot loops cache
//!    [`Counter`]/[`Histogram`] handles and never touch the name maps.
//! 2. **Everything exports.** [`MetricsRegistry::snapshot`] freezes all
//!    metrics into a serializable [`Snapshot`] with JSON, table, and
//!    delta/rate views.
//!
//! ```
//! pulse_obs::set_enabled(true);
//! let hits = pulse_obs::global().counter("demo.hits");
//! let work = pulse_obs::global().histogram("demo.work_ns");
//! if pulse_obs::enabled() {
//!     let t0 = std::time::Instant::now();
//!     hits.inc();
//!     work.record(t0.elapsed().as_nanos() as u64);
//! }
//! let snap = pulse_obs::global().snapshot();
//! assert_eq!(snap.counter("demo.hits"), Some(1));
//! assert_eq!(snap.histogram("demo.work_ns").unwrap().count, 1);
//! pulse_obs::set_enabled(false);
//! ```

pub mod audit;
pub mod export;
pub mod health;
pub mod prof;
mod registry;
pub mod serve;
mod snapshot;
pub mod timeseries;
pub mod trace;

pub use audit::{AuditLedger, BreachRecord, KeyLedger};
pub use export::chrome_trace;
pub use health::{HealthEvaluator, HealthReport, Rule, Signal, Signals};
pub use prof::{
    prof_enabled, set_prof_enabled, Phase, PhaseBreakdown, PhaseCost, PhaseTable, PHASE_COUNT,
};
pub use registry::{
    bucket_index, bucket_upper, labeled, Counter, Histogram, KeyedCounter, MetricsRegistry, BUCKETS,
};
pub use serve::{serve, AuditFn, ExplainFn, Routes, ServeHandle, TraceFn};
pub use snapshot::{HistogramSnapshot, KeyedSnapshot, Snapshot};
pub use timeseries::{Point, TimeSeriesStore, TsConfig};
pub use trace::{explain_from_events, ExplainReport, SolveTrace, TraceEvent, TraceKind, Tracer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns observability on/off process-wide. Counters and histograms can
/// always be written through their handles; this flag gates the *wiring*
/// (instrumented call sites check it before recording).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry instrumented call sites record into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.shared").inc();
        assert!(global().snapshot().counter("obs.test.shared").unwrap() >= 1);
    }

    #[test]
    fn enable_flag_roundtrip() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
