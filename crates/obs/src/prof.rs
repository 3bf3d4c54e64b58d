//! Continuous violation-path profiler: phase attribution for the
//! re-model/re-solve pipeline.
//!
//! The violation path (validate → remodel-fit → template-substitute →
//! root-isolate → solve glue → slack → emit) is where Pulse spends ~99% of
//! its cycles whenever predictions break, yet span histograms only show
//! whole stages. This module gives each runtime a fixed, shard-local
//! [`PhaseTable`] — two plain `u64` cells per phase, single-writer by
//! ownership — that accumulates nanoseconds per phase as the runtime and
//! its operators pass through them. The table exports as counters
//! (`prof.<phase>.ns` / `prof.<phase>.count`) and as a self-normalizing
//! [`PhaseBreakdown`] whose shares always sum to 1 regardless of how much
//! of the run was profiled.
//!
//! One clock fills the table: the runtime's [`Tracer`](crate::Tracer)
//! knows which phase is running and since when. [`Tracer::enter`] charges
//! the time since the last boundary to the running phase and makes the new
//! one current; [`Tracer::leave`] charges it and resumes the phase that
//! was running before. A phase entered inside another therefore pauses
//! it, and every cell holds exclusive time by construction: no recording
//! site knows which phases nest inside which.
//!
//! Cost model (why this can stay always-on):
//! - profiling off: one relaxed atomic load per region of the violation
//!   path and no clock read, nothing at all on the suppressed path;
//! - profiling on: one `Instant::now()` per phase boundary of the
//!   violation path (tens of ns against a multi-µs path), and **zero extra
//!   timestamps** on the suppressed path — the `Validate` phase reuses the
//!   1-in-64 sampled fast-path measurement the runtime already takes.
//!
//! `scripts/check.sh` holds this to numbers: profiler-on must add ≤ 15% to
//! the violation-heavy path and ≤ 2 ns to the suppressed path (see
//! `bin/obs_bench.rs`; the percentage ceiling tracks the path itself —
//! the batched+VM rewrite cut the denominator ~4× and the solve
//! sub-phases added clock reads, so the same few-hundred-ns absolute
//! cost reads as ~10% now).
//!
//! [`Tracer::enter`]: crate::Tracer::enter
//! [`Tracer::leave`]: crate::Tracer::leave

use crate::snapshot::Snapshot;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// Number of phases in the violation-path pipeline.
pub const PHASE_COUNT: usize = 11;

/// One phase of the violation path, in pipeline order.
///
/// The four `Solve*` sub-phases decompose what used to be a monolithic
/// `solve` bucket. Phases are mutually disjoint because the profiler clock
/// switches between them: a phase entered inside another pauses the outer
/// one until it is left (see the module docs), so `RootIsolate` holds the
/// solver glue around the `SolveAssemble`/`SolveSturm`/`SolveRefine` work
/// it calls, `Solve` the plan glue around what the operators enter, and
/// shares still sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Input-side validation (sampled from the suppressed fast path — the
    /// only phase measured outside the violation path, see module docs).
    Validate = 0,
    /// Re-modeling: building the fresh predictive segment and storing it
    /// in place of the key's previous prediction.
    RemodelFit = 1,
    /// Substituting segment models into compiled system templates.
    TemplateSubstitute = 2,
    /// Equation-system solve glue around the per-row stages: boolean
    /// structure traversal, the linear-equality fast path, range-set
    /// algebra (the sub-phases below pause it).
    RootIsolate = 3,
    /// Row assembly for the linear-equality elimination fast path.
    SolveAssemble = 4,
    /// Root isolation of one row polynomial (`poly_roots_into`): derivative
    /// recursion to the critical points, then Brent between them. The name
    /// is older than that isolator; Sturm chains now serve only the test
    /// oracle.
    SolveSturm = 5,
    /// Sign analysis between isolated roots (midpoint tests, span build).
    SolveRefine = 6,
    /// Bookkeeping of the per-key batched violation queue: enqueueing and
    /// draining tuples around the amortized solves.
    SolveBatchDrain = 7,
    /// Plan-push glue around the solves: the solve's slot lookup and
    /// recorder prelude, operator state scans, lineage registration,
    /// segment construction (the phases operators enter pause it).
    Solve = 8,
    /// Resolving the slack of a push's null results (§IV's slack
    /// validation), run at the end of a plan push that produced nothing.
    Slack = 9,
    /// Result installation: bound inversion and validation-mode updates,
    /// plus (metrics on) each output's lag/lead histogram samples and
    /// (flight recorder on) each output's `OutputEmit` event and the
    /// lineage walk to its sources.
    Emit = 10,
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
        Phase::Slack,
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
            Phase::Slack => "slack",
            Phase::Emit => "emit",
        }
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

    /// Adds nanoseconds to a phase without counting a visit (the profiler
    /// clock's charge at a phase boundary; `Tracer::enter` counts visits).
    #[inline]
    pub(crate) fn charge(&mut self, phase: Phase, ns: u64) {
        self.ns[phase as usize] += ns;
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
    /// `prof.<phase>.count`, with `labels` attached to each name (bare
    /// when empty — same scheme as the runtime's metric export).
    pub fn export(&self, reg: &crate::MetricsRegistry, labels: &[(&str, &str)]) {
        for &p in &Phase::ALL {
            let name = |field: &str| crate::labeled(&format!("prof.{}.{field}", p.name()), labels);
            reg.counter(&name("ns")).set(self.ns(p));
            reg.counter(&name("count")).set(self.count(p));
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
    fn export_roundtrips_through_snapshot() {
        let reg = crate::MetricsRegistry::new();
        let mut t = PhaseTable::default();
        t.record(Phase::TemplateSubstitute, 1234);
        t.record(Phase::RootIsolate, 4321);
        t.export(&reg, &[]);
        // A second labeled export merges into the family sum.
        let mut shard = PhaseTable::default();
        shard.record(Phase::RootIsolate, 1000);
        shard.export(&reg, &[("shard", "1")]);
        let back = table_from_snapshot(&reg.snapshot());
        assert_eq!(back.ns(Phase::TemplateSubstitute), 1234);
        assert_eq!(back.ns(Phase::RootIsolate), 5321);
        assert_eq!(back.count(Phase::RootIsolate), 2);
    }
}
