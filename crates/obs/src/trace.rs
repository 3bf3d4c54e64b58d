//! The flight recorder: typed, causally-linked runtime events.
//!
//! Counters say *how often* the solver ran; the recorder says *why*. Every
//! step of the predictive loop — a tuple arriving, its validation verdict,
//! the re-model, the equation-system solve, each emitted output range —
//! lands in a [`Tracer`] as a [`TraceEvent`] carrying a process-wide
//! monotonic id and the id of the event that caused it. Walking the parent
//! chain backwards from a solve reconstructs the full provenance of that
//! solve (input arrival → validation decision → re-model → solve → output
//! ranges), which [`explain`](Tracer::explain) packages as a serializable
//! [`ExplainReport`].
//!
//! Concurrency model: each ring is **single-writer by ownership** — a
//! `Tracer` belongs to exactly one runtime (one shard) and is only ever
//! touched from that runtime's driving thread, so recording is plain memory
//! writes with no locks or atomics beyond the id counter. Cross-thread queries (the `/explain` endpoint against a sharded
//! runtime) are routed *to* the owning thread over its work channel rather
//! than reading the ring remotely.
//!
//! Cost model: recording is gated on [`Tracer::on`], a capacity check on
//! the tracer itself. The ring's capacity is the only switch (a runtime
//! takes it from `RuntimeConfig::trace_capacity`, 0 by default), so with
//! tracing off the per-tuple cost is that single branch; the existing
//! `obs_overhead` suppressed-path gate covers it.

use crate::prof::{prof_enabled, Phase, PhaseTable};
use serde::{Serialize, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// JSON object from borrowed field pairs (hand-written `Serialize` impls —
/// the vendored derive cannot handle data-carrying enums).
fn value_of_pairs(pairs: &[(&str, Value)]) -> Value {
    Value::Object(pairs.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
}

/// Process-wide monotonic event ids; 0 is reserved for "no parent".
static NEXT_EVENT_ID: AtomicU64 = AtomicU64::new(1);

fn next_event_id() -> u64 {
    NEXT_EVENT_ID.fetch_add(1, Ordering::Relaxed)
}

/// What happened. Field conventions: `slack` is the observed deviation,
/// `bound` the allowance it was checked against; segment ids are the raw
/// `SegmentId` words; `ns` is elapsed wall time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A tuple arrived at a source stream.
    SegmentArrival { source: u32 },
    /// The validator's verdict for the arrival: observed deviation vs the
    /// allowance in force. An unseen key (no installed mode) reports an
    /// infinite deviation — "no previously known results" always solves.
    ValidationOutcome { slack: f64, bound: f64, ok: bool },
    /// A violation re-modeled the key into a fresh predictive segment.
    Remodel { seg: u64 },
    /// The plan-wide solve began (`system_size` = operator count).
    SolveStart { system_size: u32 },
    /// The plan-wide solve finished: `roots` result segments, `iters`
    /// equation rows ground through, in `ns` wall nanoseconds.
    SolveEnd { system_size: u32, roots: u32, iters: u64, ns: u64 },
    /// One operator's equation-system work inside a solve (child of the
    /// enclosing `SolveStart` scope).
    OpSolve { op: &'static str, rows: u64, outputs: u32 },
    /// A result segment left the plan: its id, output range, and the source
    /// segment ids lineage chains it back to.
    OutputEmit { seg: u64, lo: f64, hi: f64, sources: Vec<u64> },
    /// The live auditor caught a strict ε-guarantee violation: observed
    /// deviation from the discrete reference vs the promised allowance.
    /// Chained to the `OutputEmit` whose answer it indicts.
    GuaranteeBreach { observed: f64, expected: f64, allowance: f64 },
}

impl TraceKind {
    /// Stable event-type name (the `type` field of the JSON encoding).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::SegmentArrival { .. } => "SegmentArrival",
            TraceKind::ValidationOutcome { .. } => "ValidationOutcome",
            TraceKind::Remodel { .. } => "Remodel",
            TraceKind::SolveStart { .. } => "SolveStart",
            TraceKind::SolveEnd { .. } => "SolveEnd",
            TraceKind::OpSolve { .. } => "OpSolve",
            TraceKind::OutputEmit { .. } => "OutputEmit",
            TraceKind::GuaranteeBreach { .. } => "GuaranteeBreach",
        }
    }
}

// The vendored derive handles unit-variant enums only, so the data-carrying
// kinds serialize by hand as tagged objects.
impl Serialize for TraceKind {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![("type".into(), self.name().to_value())];
        match self {
            TraceKind::SegmentArrival { source } => {
                fields.push(("source".into(), source.to_value()));
            }
            TraceKind::ValidationOutcome { slack, bound, ok } => {
                fields.push(("slack".into(), slack.to_value()));
                fields.push(("bound".into(), bound.to_value()));
                fields.push(("ok".into(), ok.to_value()));
            }
            TraceKind::Remodel { seg } => fields.push(("seg".into(), seg.to_value())),
            TraceKind::SolveStart { system_size } => {
                fields.push(("system_size".into(), system_size.to_value()));
            }
            TraceKind::SolveEnd { system_size, roots, iters, ns } => {
                fields.push(("system_size".into(), system_size.to_value()));
                fields.push(("roots".into(), roots.to_value()));
                fields.push(("iters".into(), iters.to_value()));
                fields.push(("ns".into(), ns.to_value()));
            }
            TraceKind::OpSolve { op, rows, outputs } => {
                fields.push(("op".into(), op.to_value()));
                fields.push(("rows".into(), rows.to_value()));
                fields.push(("outputs".into(), outputs.to_value()));
            }
            TraceKind::OutputEmit { seg, lo, hi, sources } => {
                fields.push(("seg".into(), seg.to_value()));
                fields.push(("lo".into(), lo.to_value()));
                fields.push(("hi".into(), hi.to_value()));
                fields.push(("sources".into(), sources.to_value()));
            }
            TraceKind::GuaranteeBreach { observed, expected, allowance } => {
                fields.push(("observed".into(), observed.to_value()));
                fields.push(("expected".into(), expected.to_value()));
                fields.push(("allowance".into(), allowance.to_value()));
            }
        }
        Value::Object(fields)
    }
}

/// One recorded event. `parent` is the id of the event that caused this one
/// (0 = root); `key` is the stream key the event concerns; `t` is stream
/// time (the tuple/segment timestamp, not wall time).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub id: u64,
    pub parent: u64,
    pub key: u64,
    pub t: f64,
    pub kind: TraceKind,
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        value_of_pairs(&[
            ("id", self.id.to_value()),
            ("parent", self.parent.to_value()),
            ("key", self.key.to_value()),
            ("t", self.t.to_value()),
            ("kind", self.kind.to_value()),
        ])
    }
}

/// A fixed-capacity event ring owned by one runtime (one shard).
///
/// Writes are plain memory stores — the owning thread is the only writer
/// and the only reader, so the ring needs no synchronization at all (see
/// the module docs for how cross-thread queries reach it). When full, the
/// oldest events fall off; a ring of capacity 0 ([`Tracer::off`]) records
/// nothing and makes every `emit` a no-op returning id 0.
#[derive(Debug)]
pub struct Tracer {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    /// Current causal scope: events emitted via [`Self::emit_scoped`]
    /// (operator-level events inside a solve) parent onto this id.
    scope: u64,
    /// Violation-path phase attribution (see [`crate::prof`]). Rides on the
    /// tracer because the tracer already has the right ownership story:
    /// exactly one per runtime, touched only from its driving thread.
    phases: PhaseTable,
    /// The profiler clock: the phase being charged and the instant the
    /// charge began; `None` outside every profiled region.
    clock: Option<(Phase, Instant)>,
}

/// What [`Tracer::leave`] resumes: the phase that was running when the
/// matching [`Tracer::enter`] was called.
#[derive(Debug, Clone, Copy)]
pub struct PhaseMark(Option<Phase>);

impl Tracer {
    /// A recording tracer holding at most `cap` events.
    pub fn ring(cap: usize) -> Self {
        Tracer { ring: VecDeque::new(), cap, scope: 0, phases: Default::default(), clock: None }
    }

    /// The no-op tracer: never records, never allocates.
    pub fn off() -> Self {
        Tracer::ring(0)
    }

    /// Whether emits record (the ring has capacity). Callers gate event
    /// construction on this so the off path never builds a `TraceKind`.
    #[inline]
    pub fn on(&self) -> bool {
        self.cap != 0
    }

    /// Records an event caused by `parent`, returning its id (0 when off).
    pub fn emit(&mut self, parent: u64, key: u64, t: f64, kind: TraceKind) -> u64 {
        if !self.on() {
            return 0;
        }
        let id = next_event_id();
        if self.ring.len() >= self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceEvent { id, parent, key, t, kind });
        id
    }

    /// Records an event parented onto the current scope (operators inside a
    /// solve attach to the enclosing `SolveStart` this way).
    pub fn emit_scoped(&mut self, key: u64, t: f64, kind: TraceKind) -> u64 {
        let parent = self.scope;
        self.emit(parent, key, t, kind)
    }

    /// Sets the causal scope for subsequent [`Self::emit_scoped`] calls.
    pub fn set_scope(&mut self, id: u64) {
        self.scope = id;
    }

    /// The accumulated violation-path phase table.
    pub fn phases(&self) -> &PhaseTable {
        &self.phases
    }

    /// Mutable access for direct recording (e.g. piggybacking an
    /// already-measured duration instead of taking fresh timestamps).
    pub fn phases_mut(&mut self) -> &mut PhaseTable {
        &mut self.phases
    }

    /// Switches the profiler clock to `phase`: the time since the last
    /// boundary goes to the phase that was running, and `phase` counts one
    /// visit. Returns the mark [`Self::leave`] takes to resume the phase
    /// that was running. With profiling off it reads no clock and records
    /// nothing.
    ///
    /// An `enter` whose mark is dropped switches phases inside the
    /// enclosing region: that region's `leave` closes whichever phase is
    /// running, so consecutive phases share one clock read per boundary.
    #[inline]
    pub fn enter(&mut self, phase: Phase) -> PhaseMark {
        if !prof_enabled() {
            return PhaseMark(None);
        }
        let now = Instant::now();
        let outer = self.clock.replace((phase, now)).map(|running| self.charge(running, now));
        self.phases.record(phase, 0);
        PhaseMark(outer)
    }

    /// Charges the running phase and resumes the one `mark` was entered
    /// from. No clock read when no phase is running (profiling was off at
    /// the region's entry), so toggling profiling inside a region loses at
    /// most that region's time and never leaves a phase running.
    #[inline]
    pub fn leave(&mut self, mark: PhaseMark) {
        if let Some(running) = self.clock {
            let now = Instant::now();
            self.charge(running, now);
            self.clock = mark.0.map(|p| (p, now));
        }
    }

    /// Charges a running phase from its start to `now`; returns the phase.
    fn charge(&mut self, (phase, since): (Phase, Instant), now: Instant) -> Phase {
        self.phases.charge(phase, now.duration_since(since).as_nanos() as u64);
        phase
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Sums `OpSolve` rows/outputs recorded under `scope` (the enclosing
    /// solve aggregates its operators' work into `SolveEnd.iters`).
    pub fn scope_op_totals(&self, scope: u64) -> (u64, u32) {
        let mut rows = 0;
        let mut outputs = 0;
        for e in self.ring.iter().rev() {
            if e.id <= scope {
                break;
            }
            if e.parent == scope {
                if let TraceKind::OpSolve { rows: r, outputs: o, .. } = &e.kind {
                    rows += r;
                    outputs += o;
                }
            }
        }
        (rows, outputs)
    }

    /// Walks the recorder backwards for `key` over stream-time `[t0, t1]`:
    /// every retained solve whose trigger fell in the range or whose output
    /// ranges overlap it, each unwound to its causal chain.
    pub fn explain(&self, key: u64, t0: f64, t1: f64) -> ExplainReport {
        explain_from_events(self.ring.iter(), key, t0, t1)
    }
}

/// One solve's full causal chain, newest link first in discovery order:
/// the `SolveEnd` anchor, then each ancestor that was still retained.
#[derive(Debug, Clone)]
pub struct SolveTrace {
    pub solve_end: TraceEvent,
    pub solve_start: Option<TraceEvent>,
    pub remodel: Option<TraceEvent>,
    pub validation: Option<TraceEvent>,
    pub arrival: Option<TraceEvent>,
    /// Per-operator work inside the solve (children of `solve_start`).
    pub op_solves: Vec<TraceEvent>,
    /// Result ranges the solve produced (children of `solve_end`).
    pub outputs: Vec<TraceEvent>,
}

impl Serialize for SolveTrace {
    fn to_value(&self) -> Value {
        value_of_pairs(&[
            ("solve_end", self.solve_end.to_value()),
            ("solve_start", self.solve_start.to_value()),
            ("remodel", self.remodel.to_value()),
            ("validation", self.validation.to_value()),
            ("arrival", self.arrival.to_value()),
            ("op_solves", self.op_solves.to_value()),
            ("outputs", self.outputs.to_value()),
        ])
    }
}

/// The serializable answer to "why did this key's results change here?".
#[derive(Debug, Clone)]
pub struct ExplainReport {
    pub key: u64,
    pub t0: f64,
    pub t1: f64,
    /// Matching solves, oldest first.
    pub solves: Vec<SolveTrace>,
}

impl ExplainReport {
    /// Pretty JSON (the `/explain` endpoint's payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("explain serialization is infallible")
    }
}

impl Serialize for ExplainReport {
    fn to_value(&self) -> Value {
        value_of_pairs(&[
            ("key", self.key.to_value()),
            ("t0", self.t0.to_value()),
            ("t1", self.t1.to_value()),
            ("solves", self.solves.to_value()),
        ])
    }
}

/// Pure reconstruction over any event slice (the tracer delegates here;
/// tests drive it with hand-built chains).
pub fn explain_from_events<'a, I>(events: I, key: u64, t0: f64, t1: f64) -> ExplainReport
where
    I: IntoIterator<Item = &'a TraceEvent>,
{
    let all: Vec<&TraceEvent> = events.into_iter().collect();
    let find = |id: u64| -> Option<&TraceEvent> {
        if id == 0 {
            return None;
        }
        all.iter().find(|e| e.id == id).copied()
    };
    let mut solves = Vec::new();
    for e in &all {
        let TraceKind::SolveEnd { .. } = e.kind else { continue };
        if e.key != key {
            continue;
        }
        let outputs: Vec<TraceEvent> = all
            .iter()
            .filter(|o| o.parent == e.id && matches!(o.kind, TraceKind::OutputEmit { .. }))
            .map(|o| (*o).clone())
            .collect();
        let in_range = e.t >= t0 && e.t <= t1
            || outputs.iter().any(|o| match o.kind {
                TraceKind::OutputEmit { lo, hi, .. } => lo <= t1 && hi >= t0,
                _ => false,
            });
        if !in_range {
            continue;
        }
        let solve_start = find(e.parent).filter(|s| matches!(s.kind, TraceKind::SolveStart { .. }));
        let op_solves: Vec<TraceEvent> = solve_start
            .map(|s| {
                all.iter()
                    .filter(|o| o.parent == s.id && matches!(o.kind, TraceKind::OpSolve { .. }))
                    .map(|o| (*o).clone())
                    .collect()
            })
            .unwrap_or_default();
        let remodel = solve_start
            .and_then(|s| find(s.parent))
            .filter(|r| matches!(r.kind, TraceKind::Remodel { .. }));
        let validation = remodel
            .and_then(|r| find(r.parent))
            .filter(|v| matches!(v.kind, TraceKind::ValidationOutcome { .. }));
        let arrival = validation
            .and_then(|v| find(v.parent))
            .filter(|a| matches!(a.kind, TraceKind::SegmentArrival { .. }));
        solves.push(SolveTrace {
            solve_end: (*e).clone(),
            solve_start: solve_start.cloned(),
            remodel: remodel.cloned(),
            validation: validation.cloned(),
            arrival: arrival.cloned(),
            op_solves,
            outputs,
        });
    }
    ExplainReport { key, t0, t1, solves }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert!(!tr.on());
        let id = tr.emit(0, 1, 0.0, TraceKind::SegmentArrival { source: 0 });
        assert_eq!(id, 0);
        assert!(tr.is_empty());
    }

    fn busy(ms: u64) -> u64 {
        let (t0, d) = (Instant::now(), std::time::Duration::from_millis(ms));
        while t0.elapsed() < d {}
        d.as_nanos() as u64
    }

    /// The only test in this crate that touches the profiler flag, so it
    /// can toggle it without racing another test.
    #[test]
    fn phases_switch_exclusively_and_survive_toggling() {
        crate::set_prof_enabled(true);
        let mut tr = Tracer::off();
        let wall = Instant::now();
        let outer = tr.enter(Phase::Solve);
        let mut outer_busy = busy(2);
        let inner = tr.enter(Phase::RootIsolate);
        let inner_busy = busy(3);
        tr.leave(inner);
        outer_busy += busy(1);
        tr.leave(outer);
        let wall = wall.elapsed().as_nanos() as u64;
        let (o, i) = (tr.phases().ns(Phase::Solve), tr.phases().ns(Phase::RootIsolate));
        assert!(o >= outer_busy && i >= inner_busy, "outer {o} ns, inner {i} ns");
        assert!(o + i <= wall, "{o} + {i} ns exceeds the {wall} ns wall");
        assert_eq!(
            (tr.phases().count(Phase::Solve), tr.phases().count(Phase::RootIsolate)),
            (1, 1)
        );
        assert!(tr.clock.is_none(), "the outermost leave stops the clock");

        // A dropped mark switches phases; the region's leave closes it.
        let mut tr = Tracer::off();
        let region = tr.enter(Phase::SolveSturm);
        let sturm = busy(1);
        tr.enter(Phase::SolveRefine);
        let refine = busy(1);
        tr.leave(region);
        assert!(tr.phases().ns(Phase::SolveSturm) >= sturm);
        assert!(tr.phases().ns(Phase::SolveRefine) >= refine);
        assert!(tr.clock.is_none());

        // Turned off inside a region: the outer phase keeps the inner
        // region's time, nothing wraps, and the clock stops.
        let mut tr = Tracer::off();
        let wall = Instant::now();
        let outer = tr.enter(Phase::Emit);
        crate::set_prof_enabled(false);
        let inner = tr.enter(Phase::Slack);
        busy(1);
        tr.leave(inner);
        tr.leave(outer);
        let wall = wall.elapsed().as_nanos() as u64;
        assert!(tr.phases().ns(Phase::Emit) <= wall && tr.phases().ns(Phase::Slack) == 0);
        assert_eq!(tr.phases().count(Phase::Slack), 0);
        assert!(tr.clock.is_none());

        // Turned on inside a region: only the inner region is timed, and
        // the outer leave (whose enter read no clock) still stops it.
        let mut tr = Tracer::off();
        let outer = tr.enter(Phase::Emit);
        crate::set_prof_enabled(true);
        let wall = Instant::now();
        let inner = tr.enter(Phase::Slack);
        tr.enter(Phase::Solve);
        tr.leave(inner);
        busy(1);
        tr.leave(outer);
        let wall = wall.elapsed().as_nanos() as u64;
        assert_eq!(tr.phases().count(Phase::Emit), 0);
        assert!(tr.phases().total_ns() <= wall);
        assert!(tr.clock.is_none());

        // Off throughout: nothing recorded, no clock.
        crate::set_prof_enabled(false);
        let mut tr = Tracer::off();
        let m = tr.enter(Phase::Solve);
        tr.enter(Phase::Emit);
        tr.leave(m);
        assert!(tr.phases().is_empty() && tr.clock.is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_ids_are_monotonic() {
        let mut tr = Tracer::ring(3);
        let ids: Vec<u64> = (0..5)
            .map(|i| tr.emit(0, i, i as f64, TraceKind::SegmentArrival { source: 0 }))
            .collect();
        assert!(ids.windows(2).all(|w| w[1] > w[0]), "{ids:?}");
        assert_eq!(tr.len(), 3);
        // Survivors are the newest three, oldest first.
        let kept: Vec<u64> = tr.events().map(|e| e.id).collect();
        assert_eq!(kept, ids[2..]);
    }

    /// A hand-built arrival→validation→remodel→solve→output chain.
    fn chain(key: u64, t: f64, lo: f64, hi: f64, tr: &mut Tracer) -> u64 {
        let a = tr.emit(0, key, t, TraceKind::SegmentArrival { source: 0 });
        let v =
            tr.emit(a, key, t, TraceKind::ValidationOutcome { slack: 2.0, bound: 0.5, ok: false });
        let r = tr.emit(v, key, t, TraceKind::Remodel { seg: 40 });
        let s = tr.emit(r, key, t, TraceKind::SolveStart { system_size: 4 });
        tr.set_scope(s);
        tr.emit_scoped(key, t, TraceKind::OpSolve { op: "filter", rows: 3, outputs: 1 });
        tr.set_scope(0);
        let (rows, _) = tr.scope_op_totals(s);
        let e = tr.emit(
            s,
            key,
            t,
            TraceKind::SolveEnd { system_size: 4, roots: 1, iters: rows, ns: 100 },
        );
        tr.emit(e, key, lo, TraceKind::OutputEmit { seg: 41, lo, hi, sources: vec![40] });
        e
    }

    #[test]
    fn explain_reconstructs_full_chain() {
        let mut tr = Tracer::ring(64);
        chain(7, 1.0, 1.0, 4.0, &mut tr);
        chain(9, 2.0, 2.0, 5.0, &mut tr); // other key: must not surface
        chain(7, 50.0, 50.0, 60.0, &mut tr); // out of range

        let rep = tr.explain(7, 0.0, 10.0);
        assert_eq!(rep.solves.len(), 1);
        let s = &rep.solves[0];
        assert!(matches!(s.solve_end.kind, TraceKind::SolveEnd { iters: 3, roots: 1, .. }));
        assert!(s.solve_start.is_some());
        assert!(matches!(s.remodel.as_ref().unwrap().kind, TraceKind::Remodel { seg: 40 }));
        let val = s.validation.as_ref().unwrap();
        assert!(matches!(val.kind, TraceKind::ValidationOutcome { slack, bound, ok: false }
                if slack > bound));
        assert!(s.arrival.is_some());
        assert_eq!(s.op_solves.len(), 1);
        assert_eq!(s.outputs.len(), 1);

        // Output-range overlap alone also selects the solve.
        let rep = tr.explain(7, 3.5, 4.5);
        assert_eq!(rep.solves.len(), 1);
        // Nothing for a quiet window.
        assert!(tr.explain(7, 20.0, 30.0).solves.is_empty());
    }

    #[test]
    fn explain_serializes_to_tagged_json() {
        let mut tr = Tracer::ring(64);
        chain(3, 1.0, 1.0, 2.0, &mut tr);
        let json = tr.explain(3, 0.0, 10.0).to_json();
        for ty in ["SolveEnd", "ValidationOutcome", "OutputEmit", "\"sources\""] {
            assert!(json.contains(ty), "missing {ty} in {json}");
        }
    }
}
