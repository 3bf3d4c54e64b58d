//! Continuous violation-path profiler: phase attribution for the
//! re-model/re-solve pipeline.
//!
//! The violation path (validate → remodel-fit → template-substitute →
//! root-isolate → solve glue → emit) is where Pulse spends ~99% of its
//! cycles whenever predictions break, yet span histograms only show whole
//! stages. This module gives each runtime a fixed, shard-local
//! [`PhaseTable`] — twenty plain `u64` cells, single-writer by ownership —
//! that accumulates nanoseconds per phase as the runtime and its operators
//! pass through them. The table exports as counters
//! (`prof.<phase>.ns` / `prof.<phase>.count`) and as a self-normalizing
//! [`PhaseBreakdown`] whose shares always sum to 1 regardless of how much
//! of the run was profiled.
//!
//! Cost model (why this can stay always-on):
//! - profiling off: one relaxed atomic load at each phase boundary of the
//!   violation path, nothing at all on the suppressed path;
//! - profiling on: two `Instant::now()` calls per phase of the violation
//!   path (tens of ns against a multi-µs path), and **zero extra
//!   timestamps** on the suppressed path — the `Validate` phase reuses the
//!   1-in-64 sampled fast-path measurement the runtime already takes.
//!
//! `scripts/check.sh` holds this to numbers: profiler-on must add ≤ 15% to
//! the violation-heavy path and ≤ 2 ns to the suppressed path (see
//! `bin/obs_bench.rs`; the percentage ceiling tracks the path itself —
//! the batched+VM rewrite cut the denominator ~4× and the solve
//! sub-phases added timestamp pairs, so the same few-hundred-ns absolute
//! cost reads as ~10% now).

use crate::snapshot::Snapshot;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static PROF_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns phase profiling on/off process-wide (independent of
/// [`crate::set_enabled`], like the flight recorder's flag: a profiled run
/// need not pay for live counters and vice versa).
pub fn set_prof_enabled(on: bool) {
    PROF_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether phase profiling is currently on (one relaxed load).
#[inline]
pub fn prof_enabled() -> bool {
    PROF_ENABLED.load(Ordering::Relaxed)
}

/// Opens a phase measurement: `Some(now)` when profiling is on. Pair with
/// [`PhaseTable::record_since`] (or `Tracer::prof`) at the phase boundary.
#[inline]
pub fn start() -> Option<Instant> {
    if prof_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Number of phases in the violation-path pipeline.
pub const PHASE_COUNT: usize = 10;

/// One phase of the violation path, in pipeline order.
///
/// The four `Solve*` sub-phases decompose what used to be a monolithic
/// `solve` bucket. Phases are kept mutually disjoint by subtraction at the
/// recording sites: `RootIsolate` is recorded net of the nested
/// `SolveAssemble`/`SolveSturm`/`SolveRefine` deltas, and `Solve` net of
/// everything nested inside the plan push, so shares still sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Input-side validation (sampled from the suppressed fast path — the
    /// only phase measured outside the violation path, see module docs).
    Validate = 0,
    /// Re-modeling: building the fresh predictive segment.
    RemodelFit = 1,
    /// Substituting segment models into compiled system templates.
    TemplateSubstitute = 2,
    /// Equation-system solve glue around the per-row stages: boolean
    /// structure traversal, the linear-equality fast path, range-set
    /// algebra (recorded net of the nested sub-phases below).
    RootIsolate = 3,
    /// Row assembly for the linear-equality elimination fast path.
    SolveAssemble = 4,
    /// Sturm-guided root isolation and refinement of one row polynomial.
    SolveSturm = 5,
    /// Sign analysis between isolated roots (midpoint tests, span build).
    SolveRefine = 6,
    /// Bookkeeping of the per-key batched violation queue: enqueueing and
    /// draining tuples around the amortized solves.
    SolveBatchDrain = 7,
    /// Plan-push glue around the solves: operator state scans, lineage
    /// registration, segment construction (push total minus the nested
    /// substitute/isolate time).
    Solve = 8,
    /// Result installation: bound inversion and validation-mode updates,
    /// plus (flight recorder on) each output's `OutputEmit` event and the
    /// lineage walk to its sources.
    Emit = 9,
}

impl Phase {
    /// Every phase, pipeline-ordered.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Validate,
        Phase::RemodelFit,
        Phase::TemplateSubstitute,
        Phase::RootIsolate,
        Phase::SolveAssemble,
        Phase::SolveSturm,
        Phase::SolveRefine,
        Phase::SolveBatchDrain,
        Phase::Solve,
        Phase::Emit,
    ];

    /// Stable metric-name component (`prof.<name>.ns`).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Validate => "validate",
            Phase::RemodelFit => "remodel_fit",
            Phase::TemplateSubstitute => "template_substitute",
            Phase::RootIsolate => "root_isolate",
            Phase::SolveAssemble => "solve_assemble",
            Phase::SolveSturm => "solve_sturm",
            Phase::SolveRefine => "solve_refine",
            Phase::SolveBatchDrain => "solve_batch_drain",
            Phase::Solve => "solve",
            Phase::Emit => "emit",
        }
    }

    /// Nanoseconds currently accumulated across the three solve sub-phases
    /// nested inside `RootIsolate` — what its recording site subtracts to
    /// keep phases disjoint.
    pub fn solve_nested_ns(table: &PhaseTable) -> u64 {
        table.ns(Phase::SolveAssemble) + table.ns(Phase::SolveSturm) + table.ns(Phase::SolveRefine)
    }

    /// Nanoseconds currently accumulated across everything operators record
    /// while a plan push runs: template substitution, the `RootIsolate`
    /// glue and its nested solve sub-phases. The runtime subtracts the
    /// delta of this sum from a push's wall time so the `Solve` cell holds
    /// only plan glue.
    pub fn push_nested_ns(table: &PhaseTable) -> u64 {
        table.ns(Phase::TemplateSubstitute)
            + table.ns(Phase::RootIsolate)
            + Phase::solve_nested_ns(table)
    }
}

/// Fixed per-phase accumulator: plain fields, no atomics — each runtime
/// (shard worker) owns exactly one, so writes never contend. Merged across
/// shards with [`PhaseTable::absorb`], like every other per-shard counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTable {
    counts: [u64; PHASE_COUNT],
    ns: [u64; PHASE_COUNT],
}

impl PhaseTable {
    /// Adds one measurement to a phase.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        self.counts[phase as usize] += 1;
        self.ns[phase as usize] += ns;
    }

    /// Records the time since a [`start`] measurement (no-op when profiling
    /// was off at the phase entry).
    #[inline]
    pub fn record_since(&mut self, t0: Option<Instant>, phase: Phase) {
        if let Some(t0) = t0 {
            self.record(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Accumulates another table (shard merging).
    pub fn absorb(&mut self, other: &PhaseTable) {
        for i in 0..PHASE_COUNT {
            self.counts[i] += other.counts[i];
            self.ns[i] += other.ns[i];
        }
    }

    /// Measurements recorded for a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }

    /// Nanoseconds accumulated in a phase.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Total nanoseconds across every phase.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nanoseconds attributed to the violation path proper — everything
    /// except the sampled `Validate` phase. This is the number compared
    /// against the `runtime.violation_path_ns` histogram sum (coverage
    /// must reach ≥ 90% for the attribution to be trusted).
    pub fn violation_ns(&self) -> u64 {
        self.total_ns() - self.ns[Phase::Validate as usize]
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The self-normalizing cost breakdown: per-phase share of all
    /// violation-path nanoseconds recorded (shares sum to 1; the sampled
    /// `Validate` phase reports its share of its own sampled time base and
    /// is excluded from the violation normalization).
    pub fn breakdown(&self) -> PhaseBreakdown {
        let viol_total = self.violation_ns();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let ns = self.ns(p);
                let share = if p == Phase::Validate || viol_total == 0 {
                    0.0
                } else {
                    ns as f64 / viol_total as f64
                };
                PhaseCost { phase: p.name(), count: self.count(p), ns, share }
            })
            .collect();
        PhaseBreakdown { total_ns: self.total_ns(), violation_ns: viol_total, phases }
    }

    /// Publishes the table as registry counters `prof.<phase>.ns` and
    /// `prof.<phase>.count`, each name passed through `decorate` (identity
    /// or label block — same scheme as the runtime's metric export).
    pub fn export(&self, reg: &crate::MetricsRegistry, decorate: &dyn Fn(&str) -> String) {
        for &p in &Phase::ALL {
            reg.counter(&decorate(&format!("prof.{}.ns", p.name()))).set(self.ns(p));
            reg.counter(&decorate(&format!("prof.{}.count", p.name()))).set(self.count(p));
        }
    }
}

/// One phase's cost in a [`PhaseBreakdown`].
#[derive(Debug, Clone, Serialize)]
pub struct PhaseCost {
    pub phase: &'static str,
    pub count: u64,
    pub ns: u64,
    /// Share of all violation-path nanoseconds recorded (0 for the sampled
    /// `Validate` phase). Shares sum to 1 whenever any violation-path time
    /// was recorded.
    pub share: f64,
}

/// Serializable self-normalizing cost breakdown (what `/profile` serves
/// and `BENCH_scaling.json` embeds).
#[derive(Debug, Clone, Serialize)]
pub struct PhaseBreakdown {
    pub total_ns: u64,
    pub violation_ns: u64,
    pub phases: Vec<PhaseCost>,
}

impl PhaseBreakdown {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("breakdown serialization is infallible")
    }
}

/// Rebuilds a merged [`PhaseTable`] from exported `prof.*` counters in a
/// snapshot, summing across label variants (per-shard series). This is how
/// `/profile` and `pulse_top` read the process-wide breakdown without
/// access to the runtimes that own the tables.
pub fn table_from_snapshot(snap: &Snapshot) -> PhaseTable {
    let mut t = PhaseTable::default();
    for &p in &Phase::ALL {
        t.counts[p as usize] = snap.family_sum(&format!("prof.{}.count", p.name()));
        t.ns[p as usize] = snap.family_sum(&format!("prof.{}.ns", p.name()));
    }
    t
}

/// The `/profile` endpoint body: the global registry's merged breakdown.
pub fn profile_json() -> String {
    table_from_snapshot(&crate::global().snapshot()).breakdown().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_absorb_and_breakdown_normalize() {
        let mut a = PhaseTable::default();
        assert!(a.is_empty());
        a.record(Phase::RemodelFit, 100);
        a.record(Phase::Solve, 300);
        let mut b = PhaseTable::default();
        b.record(Phase::Solve, 100);
        b.record(Phase::Validate, 40);
        a.absorb(&b);
        assert_eq!(a.ns(Phase::Solve), 400);
        assert_eq!(a.count(Phase::Solve), 2);
        assert_eq!(a.total_ns(), 540);
        assert_eq!(a.violation_ns(), 500, "validate excluded");
        let bd = a.breakdown();
        let share_sum: f64 = bd.phases.iter().map(|p| p.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-12, "self-normalizing: {share_sum}");
        let solve = bd.phases.iter().find(|p| p.phase == "solve").unwrap();
        assert!((solve.share - 0.8).abs() < 1e-12);
        assert!(bd.to_json().contains("\"remodel_fit\""));
    }

    #[test]
    fn empty_breakdown_has_zero_shares() {
        let bd = PhaseTable::default().breakdown();
        assert_eq!(bd.total_ns, 0);
        assert!(bd.phases.iter().all(|p| p.share == 0.0));
    }

    #[test]
    fn start_is_none_when_disabled() {
        set_prof_enabled(false);
        assert!(start().is_none());
        set_prof_enabled(true);
        assert!(start().is_some());
        set_prof_enabled(false);
        let mut t = PhaseTable::default();
        t.record_since(None, Phase::Emit);
        assert!(t.is_empty(), "off-path record is a no-op");
    }

    #[test]
    fn export_roundtrips_through_snapshot() {
        let reg = crate::MetricsRegistry::new();
        let mut t = PhaseTable::default();
        t.record(Phase::TemplateSubstitute, 1234);
        t.record(Phase::RootIsolate, 4321);
        t.export(&reg, &|n| n.to_string());
        // A second labeled export merges into the family sum.
        let mut shard = PhaseTable::default();
        shard.record(Phase::RootIsolate, 1000);
        shard.export(&reg, &|n| crate::labeled(n, &[("shard", "1")]));
        let back = table_from_snapshot(&reg.snapshot());
        assert_eq!(back.ns(Phase::TemplateSubstitute), 1234);
        assert_eq!(back.ns(Phase::RootIsolate), 5321);
        assert_eq!(back.count(Phase::RootIsolate), 2);
    }
}
