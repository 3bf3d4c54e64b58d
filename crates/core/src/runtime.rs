//! The online predictive processing loop (§II-A + §IV).
//!
//! [`PulseRuntime`] ties everything together: MODEL clauses turn arriving
//! tuples into predictive segments, the continuous plan precomputes query
//! results "off into the future", and per-tuple validation at the inputs
//! keeps the solver idle while the predictions hold. A violation (or an
//! unseen key) re-models, re-solves, and re-inverts the output bound into
//! fresh input bounds; a null result switches the key to slack validation.

use crate::audit::ShadowAuditor;
use crate::keymap::{KeyMap, KeySet};
use crate::plan::{CPlan, TransformError};
use crate::validate::{
    keep_tightest, AccuracySummary, Bound, BoundInverter, EquiSplit, GradientSplit, InvertScratch,
    KeyState, SplitHeuristic, VKey, ValidationMode, Validator,
};
use pulse_math::{Poly, Span};
use pulse_model::{Models, Schema, Segment, SegmentId, StreamModel, Tuple};
use pulse_obs::{ExplainReport, Histogram, KeyedCounter, TraceKind, Tracer};
use pulse_stream::LogicalPlan;
use serde::Serialize;
use std::time::Instant;

/// How predictive segments are built for a source stream.
///
/// `Clone` lets the hybrid runtime hand each worker its own copy (the
/// adaptive predictor's anchors live in the runtime's per-key
/// `KeySlot`s, not here, so clones share nothing).
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Declarative MODEL clause (§II-B): coefficients come from the tuple.
    Clause(StreamModel),
    /// The modeling component estimates a linear model per key online when
    /// the stream carries no coefficient attributes (e.g. trade prices):
    /// the slope is the average rate of change since the last re-model,
    /// which smooths tick noise over the inter-violation baseline.
    AdaptiveLinear(Schema),
}

impl Predictor {
    fn schema(&self) -> &Schema {
        match self {
            Predictor::Clause(sm) => &sm.schema,
            Predictor::AdaptiveLinear(s) => s,
        }
    }
}

/// Which split heuristic the runtime uses for bound inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Heuristic {
    #[default]
    Equi,
    Gradient,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Prediction horizon: how far into the future each MODEL segment is
    /// assumed valid (until superseded or violated).
    pub horizon: f64,
    /// Output accuracy bound (absolute, per the paper's error metric).
    pub bound: f64,
    /// Bound-splitting heuristic.
    pub heuristic: Heuristic,
    /// Flight-recorder ring capacity (events retained per runtime), and the
    /// recorder's only switch: a runtime built with a nonzero capacity
    /// records every causal event, and 0 (the default) records nothing.
    /// The ring grows as events arrive, up to this many.
    pub trace_capacity: usize,
    /// Shadow-oracle sampling: audit the keys where `splitmix64(key) %
    /// audit_rate == 0` (1 = every key, 0 = auditing off — the suppressed
    /// path then carries no audit code at all).
    pub audit_rate: u64,
    /// Input-signal calibration for the auditor's tolerance model (noise
    /// floor, slope cap, sampling interval, magnitude cap). Irrelevant
    /// while `audit_rate` is 0.
    pub calibration: pulse_stream::Calibration,
    /// Fault injection for auditor tests: added to the continuous side of
    /// every audited comparison. 0 (the default) audits honestly.
    pub audit_fault_offset: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            horizon: 10.0,
            bound: 1.0,
            heuristic: Heuristic::Equi,
            trace_capacity: 0,
            audit_rate: 0,
            calibration: pulse_stream::Calibration::default(),
            audit_fault_offset: 0.0,
        }
    }
}

/// Counters describing how the run went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RuntimeStats {
    /// Tuples observed.
    pub tuples_in: u64,
    /// Tuples absorbed by validation alone (the fast path — no solving).
    pub suppressed: u64,
    /// Bound violations that forced re-modeling.
    pub violations: u64,
    /// Predictive segments pushed through the equation systems.
    pub segments_pushed: u64,
    /// Result segments produced.
    pub outputs: u64,
    /// Tuples whose model could not be instantiated (schema mismatch).
    pub model_errors: u64,
}

impl RuntimeStats {
    /// Accumulates another runtime's counters (shard merging).
    pub fn absorb(&mut self, other: &RuntimeStats) {
        self.tuples_in += other.tuples_in;
        self.suppressed += other.suppressed;
        self.violations += other.violations;
        self.segments_pushed += other.segments_pushed;
        self.outputs += other.outputs;
        self.model_errors += other.model_errors;
    }
}

/// Cached observability handles, resolved once from the global registry at
/// construction so the per-tuple path never touches the name maps. All
/// recording is gated on a single [`pulse_obs::enabled`] load per tuple,
/// and the suppressed fast path records nothing but a 1-in-64 sampled
/// latency histogram — counter totals come from the plain [`RuntimeStats`]
/// fields via [`PulseRuntime::export_metrics`], so telemetry stays within
/// a few percent of uninstrumented cost even while enabled.
struct RuntimeObs {
    violations_by_key: KeyedCounter,
    fast_path_ns: Histogram,
    violation_path_ns: Histogram,
    /// Stream-time µs a key's model survived before the violation that
    /// replaced it — how long emitted outputs stayed valid.
    output_validity_us: Histogram,
    /// Stream-time µs an emitted output range starts behind the input
    /// watermark (how far results lag arrivals).
    output_lag_us: Histogram,
    /// Stream-time µs an emitted output range runs ahead of the watermark
    /// (the speculative horizon the predictions bought).
    output_lead_us: Histogram,
    /// Consumed error budget at each violation, in basis points of the
    /// allowance (10000 = exactly at budget).
    budget_ratio_bp: Histogram,
}

impl RuntimeObs {
    fn new() -> Self {
        let reg = pulse_obs::global();
        RuntimeObs {
            violations_by_key: reg.keyed_counter("runtime.violations_by_key"),
            fast_path_ns: reg.histogram("runtime.fast_path_ns"),
            violation_path_ns: reg.histogram("runtime.violation_path_ns"),
            output_validity_us: reg.histogram("runtime.output_validity_us"),
            output_lag_us: reg.histogram("runtime.output_lag_us"),
            output_lead_us: reg.histogram("runtime.output_lead_us"),
            budget_ratio_bp: reg.histogram("validate.budget_ratio_bp"),
        }
    }
}

/// A violation whose re-model has already been applied but whose solve is
/// queued (batched mode): the plan push runs at the next queue drain, so
/// one drain amortizes solver entry across every violation in the batch.
#[derive(Debug, Clone, Copy)]
struct PendingSolve {
    source: usize,
    key: u64,
    /// Arrival timestamp of the violating tuple (stream time, for trace
    /// events emitted at drain).
    ts: f64,
    /// Trace id of the validation verdict that triggered this solve.
    validation: u64,
}

/// Everything the runtime keeps per `(source, key)`: the live predictive
/// segment, the key's validation state, and for an adaptive source the
/// anchor the next slope is measured from. A re-model overwrites the slot
/// in place, so a key that keeps violating reuses its buffers instead of
/// allocating a segment per violation. Holding the validation state here
/// makes a suppressed tuple cost one map lookup: the slot found for the
/// segment is the one the validator checks and updates.
struct KeySlot {
    seg: Segment,
    /// The installed validation mode and its accuracy accounting (`None`
    /// until the key's first solve installs a mode).
    validation: Option<KeyState>,
    /// Timestamp of the key's last re-model (adaptive sources only).
    anchor_ts: f64,
    /// Modeled values at `anchor_ts`, parallel to the source's modeled
    /// attributes (adaptive sources only; empty for MODEL clauses).
    anchor: Vec<f64>,
}

/// The predictive processor.
pub struct PulseRuntime {
    predictors: Vec<Predictor>,
    /// Cached modeled-attribute indices per source (hot-path: avoids
    /// recomputing the schema scan for every validated tuple).
    modeled: Vec<Vec<usize>>,
    /// Cached unmodeled-attribute indices per source.
    unmodeled: Vec<Vec<usize>>,
    plan: CPlan,
    cfg: RuntimeConfig,
    /// Current predictive segment, validation state and adaptive anchor
    /// per `(source, key)`.
    slots: KeyMap<VKey, KeySlot>,
    /// Reverse map: live predictive segment id → its validator key, so
    /// inverted allocations land on the stream that owns each segment.
    seg_owner: KeyMap<SegmentId, VKey>,
    validator: Validator,
    /// The map-based validator the slot-held state must match, fed every
    /// check and install (test builds only).
    #[cfg(test)]
    reference: crate::validate::reference::MapValidator,
    stats: RuntimeStats,
    /// Input watermark: max tuple timestamp ingested (stream time).
    watermark: f64,
    obs: RuntimeObs,
    /// Flight recorder: single-writer ring owned by this runtime's thread
    /// (a hybrid worker routes cross-thread explain queries here over
    /// the worker channel instead of reading the ring remotely).
    tracer: Tracer,
    /// Deferred violation solves (batched mode), in violation order.
    pending: Vec<PendingSolve>,
    /// Keys with a queued solve. A repeated key flushes the queue before
    /// its next tuple validates, so per-key effects (bounds, slack mode,
    /// the predictive segment) stay ordered exactly as unbatched execution.
    pending_keys: KeySet<u64>,
    /// Whether the plan keeps keys separate
    /// ([`LogicalPlan::is_key_partitionable`]) — the precondition for
    /// deferring a key's solve past other keys' validations.
    batchable: bool,
    /// The shadow oracle over the audited key subset (None = auditing
    /// off; the per-tuple paths then skip every audit branch).
    auditor: Option<ShadowAuditor>,
    /// Bound-inversion buffers, reused by every violation.
    invert: InvertScratch,
    /// Inverted allocations by owning validator key (reused).
    allocations: Vec<(VKey, Bound)>,
}

impl PulseRuntime {
    /// Builds the runtime: MODEL clauses per source plus the query.
    pub fn new(
        models: Vec<StreamModel>,
        logical: &LogicalPlan,
        cfg: RuntimeConfig,
    ) -> Result<Self, TransformError> {
        Self::with_predictors(models.into_iter().map(Predictor::Clause).collect(), logical, cfg)
    }

    /// Builds the runtime from arbitrary predictors (MODEL clauses or the
    /// adaptive modeling component).
    pub fn with_predictors(
        predictors: Vec<Predictor>,
        logical: &LogicalPlan,
        cfg: RuntimeConfig,
    ) -> Result<Self, TransformError> {
        assert_eq!(predictors.len(), logical.sources.len(), "one predictor per source");
        let mut plan = CPlan::compile(logical)?;
        // Only the gradient split reads the models' derivatives.
        plan.lineage_mut().set_gradients(cfg.heuristic == Heuristic::Gradient);
        let modeled = predictors.iter().map(|m| m.schema().modeled_indices()).collect();
        let unmodeled = predictors.iter().map(|m| m.schema().unmodeled_indices()).collect();
        let tracer = Tracer::ring(cfg.trace_capacity);
        let batchable = logical.is_key_partitionable();
        let auditor = (cfg.audit_rate > 0).then(|| ShadowAuditor::new(logical, &cfg));
        Ok(PulseRuntime {
            predictors,
            modeled,
            unmodeled,
            plan,
            cfg,
            slots: KeyMap::default(),
            seg_owner: KeyMap::default(),
            validator: Validator::new(),
            #[cfg(test)]
            reference: Default::default(),
            stats: RuntimeStats::default(),
            watermark: f64::NEG_INFINITY,
            obs: RuntimeObs::new(),
            tracer,
            pending: Vec::new(),
            pending_keys: KeySet::default(),
            batchable,
            auditor,
            invert: InvertScratch::default(),
            allocations: Vec::new(),
        })
    }

    /// Re-models `(source, tuple.key)` from `tuple` through the source's
    /// predictor and stores the new predictive segment in the key's slot.
    /// Returns the id of the segment it replaced (`None` at a key's first
    /// sight), or `Err` when the MODEL clause cannot be instantiated, in
    /// which case the slot is left as it was.
    ///
    /// An adaptive source overwrites its slot in place: models, unmodeled
    /// values and anchor reuse their buffers, and only the id is new.
    /// Kept out of line so the violation path's code does not grow
    /// `ingest`, whose suppressed half is the hot path.
    #[inline(never)]
    fn remodel(&mut self, source: usize, tuple: &Tuple) -> Result<Option<SegmentId>, ()> {
        let horizon = self.cfg.horizon;
        let vkey = VKey::new(source, tuple.key);
        let sm = match &self.predictors[source] {
            Predictor::Clause(sm) => sm,
            Predictor::AdaptiveLinear(_) => {
                let modeled = &self.modeled[source];
                let unmodeled = &self.unmodeled[source];
                let span = Span::new(tuple.ts, tuple.ts + horizon);
                // A first sight gets an empty slot anchored at this tuple
                // (so every slope is 0), with a placeholder id (issued ids
                // start at 1) and a span the backdating below leaves alone;
                // the in-place fill then builds it.
                let mut first = false;
                let slot = self.slots.entry(vkey).or_insert_with(|| {
                    first = true;
                    let seg = Segment {
                        id: SegmentId(0),
                        key: tuple.key,
                        span,
                        models: Models::with_capacity(modeled.len()),
                        unmodeled: Vec::with_capacity(unmodeled.len()),
                    };
                    let anchor = modeled.iter().map(|&a| tuple.values[a]).collect();
                    KeySlot { seg, validation: None, anchor_ts: tuple.ts, anchor }
                });
                // The slope is the average rate of change since the last
                // re-model (0 when no time has passed).
                let dt = tuple.ts - slot.anchor_ts;
                let seg = &mut slot.seg;
                seg.models.clear();
                for (&a, anchor) in modeled.iter().zip(&mut slot.anchor) {
                    let v = tuple.values[a];
                    let slope = if dt > 1e-9 { (v - *anchor) / dt } else { 0.0 };
                    seg.models.push(Poly::linear(v - slope * tuple.ts, slope));
                    *anchor = v;
                }
                seg.unmodeled.clear();
                seg.unmodeled.extend(unmodeled.iter().map(|&a| tuple.values[a]));
                slot.anchor_ts = tuple.ts;
                let replaced = std::mem::replace(&mut seg.id, SegmentId::fresh());
                seg.span = backdated(seg.span, span, tuple.ts, horizon);
                return Ok((!first).then_some(replaced));
            }
        };
        let mut seg = sm.segment_for(tuple, horizon).map_err(|_| ())?;
        match self.slots.get_mut(&vkey) {
            Some(slot) => {
                seg.span = backdated(slot.seg.span, seg.span, tuple.ts, horizon);
                Ok(Some(std::mem::replace(&mut slot.seg, seg).id))
            }
            None => {
                let slot =
                    KeySlot { seg, validation: None, anchor_ts: tuple.ts, anchor: Vec::new() };
                self.slots.insert(vkey, slot);
                Ok(None)
            }
        }
    }

    /// Feeds one real tuple. Returns freshly produced result segments
    /// (empty while predictions hold — the common case).
    pub fn on_tuple(&mut self, source: usize, tuple: &Tuple) -> Vec<Segment> {
        let mut outs = Vec::new();
        self.ingest(source, tuple, false, &mut outs);
        outs
    }

    /// Feeds a batch of tuples from one source, deferring violation solves
    /// into a per-key queue drained once at the end of the batch — one
    /// drain amortizes solver entry (plan traversal, warm scratch, phase
    /// bookkeeping) across every violating tuple.
    ///
    /// Exactly equivalent to calling [`Self::on_tuple`] per tuple: outputs,
    /// their order, counters and validator state are identical. Deferral is
    /// gated on key-partitionable plans — a pending solve's effects (join
    /// state, lineage, inverted bounds, slack mode) are confined to its own
    /// key, and a repeated key flushes the queue before its next tuple
    /// validates. Non-partitionable plans fall back to per-tuple
    /// processing.
    pub fn on_batch(&mut self, source: usize, tuples: &[Tuple]) -> Vec<Segment> {
        let mut outs = Vec::new();
        for tuple in tuples {
            self.batched_one(source, tuple, &mut outs);
        }
        self.drain_pending(&mut outs);
        outs
    }

    /// [`Self::on_batch`] over mixed `(source, tuple)` pairs — the shard
    /// workers' channel message format (owned tuples) and the benches'
    /// merged feeds (borrowed) both fit.
    pub fn on_pairs<T: std::borrow::Borrow<Tuple>>(
        &mut self,
        pairs: &[(usize, T)],
    ) -> Vec<Segment> {
        let mut outs = Vec::new();
        for (source, tuple) in pairs {
            self.batched_one(*source, tuple.borrow(), &mut outs);
        }
        self.drain_pending(&mut outs);
        outs
    }

    /// Whether the batched entry points actually defer solves for this
    /// plan (false → they degenerate to per-tuple processing).
    pub fn batchable(&self) -> bool {
        self.batchable
    }

    pub(crate) fn batched_one(&mut self, source: usize, tuple: &Tuple, outs: &mut Vec<Segment>) {
        if !self.batchable {
            self.ingest(source, tuple, false, outs);
            return;
        }
        if self.pending_keys.contains(&tuple.key) {
            self.drain_pending(outs);
        }
        self.ingest(source, tuple, true, outs);
    }

    /// Drains the deferred-solve queue in violation order. The queue's
    /// bookkeeping is the `SolveBatchDrain` phase; each solve pauses it.
    pub(crate) fn drain_pending(&mut self, outs: &mut Vec<Segment>) {
        if self.pending.is_empty() {
            return;
        }
        let obs_on = pulse_obs::enabled();
        let m = self.tracer.enter(pulse_obs::Phase::SolveBatchDrain);
        let mut queued = std::mem::take(&mut self.pending);
        self.pending_keys.clear();
        for p in queued.drain(..) {
            let vt0 = obs_on.then(Instant::now);
            self.run_solve(p.source, p.key, p.ts, p.validation, vt0, outs);
        }
        self.pending = queued;
        self.tracer.leave(m);
    }

    /// The validation front half shared by every entry point: fast-path
    /// suppression, and on violation the re-model + predictive-segment
    /// swap. `defer` queues the solve (batched mode) instead of running it
    /// inline.
    ///
    /// A tuple whose timestamp is NaN or infinite has no place on the time
    /// axis a segment spans: it counts in `tuples_in` and `model_errors`
    /// and is dropped before it moves the watermark, reaches the flight
    /// recorder or touches any key's state.
    fn ingest(&mut self, source: usize, tuple: &Tuple, defer: bool, outs: &mut Vec<Segment>) {
        // One enabled-check per tuple; everything downstream branches on it
        // (or on the timer Option it produces) without reloading the flag.
        // The suppressed path's latency is sampled 1-in-64 so timestamping
        // doesn't dominate its ~60 ns of real work.
        let obs_on = pulse_obs::enabled();
        let trace_on = self.tracer.on();
        let start = (obs_on && self.stats.suppressed & 63 == 0).then(Instant::now);
        self.stats.tuples_in += 1;
        if !tuple.ts.is_finite() {
            self.stats.model_errors += 1;
            return;
        }
        if tuple.ts > self.watermark {
            self.watermark = tuple.ts;
        }
        let vkey = VKey::new(source, tuple.key);
        // Audited keys never defer their solve: the auditor compares the
        // live aggregate state right after the tuple's effects apply, so
        // the solve must run inline. One hash per tuple while auditing is
        // on; zero extra work when it is off.
        let audited = self.auditor.as_ref().is_some_and(|a| a.audited(tuple.key));
        let arrival = if trace_on {
            let kind = TraceKind::SegmentArrival { source: source as u32 };
            self.tracer.emit(0, tuple.key, tuple.ts, kind)
        } else {
            0
        };
        // Id of this tuple's ValidationOutcome event, the causal parent of
        // everything the solver does for it.
        let mut validation = 0u64;
        let mut checked = false;
        // The one lookup of the suppressed path: the slot holds both the
        // prediction and the validation state it is checked under.
        if let Some(KeySlot { seg, validation: state, .. }) = self.slots.get_mut(&vkey) {
            if seg.span.contains(tuple.ts) {
                checked = true;
                let modeled = &self.modeled[source];
                let ok = if trace_on {
                    // Mirrors the untraced closure below — same attribute
                    // order, same short-circuit on the first failure — so
                    // validator counters are identical with tracing on.
                    let mut ok = true;
                    let (mut dev, mut allow) = (0.0f64, f64::INFINITY);
                    for (slot, &attr) in modeled.iter().enumerate() {
                        let (predicted, actual) = (seg.eval(slot, tuple.ts), tuple.values[attr]);
                        let o = self.validator.check_explained(state, predicted, actual);
                        #[cfg(test)]
                        self.reference.mirror_check(
                            vkey,
                            predicted,
                            actual,
                            &self.validator,
                            state,
                        );
                        if !o.ok {
                            (dev, allow) = (o.deviation, o.allowance);
                            ok = false;
                            break;
                        }
                        // Passing verdicts report the attribute closest to
                        // its allowance (most informative margin).
                        if o.deviation - o.allowance > dev - allow {
                            (dev, allow) = (o.deviation, o.allowance);
                        }
                    }
                    let kind = TraceKind::ValidationOutcome { slack: dev, bound: allow, ok };
                    validation = self.tracer.emit(arrival, tuple.key, tuple.ts, kind);
                    ok
                } else {
                    modeled.iter().enumerate().all(|(slot, &attr)| {
                        let (predicted, actual) = (seg.eval(slot, tuple.ts), tuple.values[attr]);
                        let ok = self.validator.check(state, predicted, actual);
                        #[cfg(test)]
                        self.reference.mirror_check(
                            vkey,
                            predicted,
                            actual,
                            &self.validator,
                            state,
                        );
                        ok
                    })
                };
                if ok {
                    self.stats.suppressed += 1;
                    if let Some(t0) = start {
                        let ns = t0.elapsed().as_nanos() as u64;
                        self.obs.fast_path_ns.record(ns);
                        // The Validate phase reuses this sampled measurement
                        // so profiling adds zero timestamps to the fast path.
                        if pulse_obs::prof_enabled() {
                            self.tracer.phases_mut().record(pulse_obs::Phase::Validate, ns);
                        }
                    }
                    if audited {
                        self.audit_tap(source, tuple, true);
                    }
                    return;
                }
                self.stats.violations += 1;
                if obs_on {
                    self.obs.violations_by_key.inc(vkey.key);
                    // How long this key's model (and the outputs solved from
                    // it) survived before the violation, in stream-time µs.
                    let validity = tuple.ts - seg.span.lo;
                    if validity.is_finite() && validity >= 0.0 {
                        self.obs.output_validity_us.record((validity * 1e6) as u64);
                    }
                    // Consumed error budget at the point of failure.
                    if let Some(o) = self.validator.last_violation() {
                        if o.deviation.is_finite() && o.allowance > 0.0 {
                            let bp = (o.deviation / o.allowance * 1e4).min(1e9);
                            self.obs.budget_ratio_bp.record(bp as u64);
                        }
                    }
                }
            }
        }
        if trace_on && !checked {
            // Unseen key or expired prediction: no check ran, but the chain
            // must still explain why the solver fired — "no previously known
            // results" is an infinite deviation against a zero allowance.
            let kind = TraceKind::ValidationOutcome { slack: f64::INFINITY, bound: 0.0, ok: false };
            validation = self.tracer.emit(arrival, tuple.key, tuple.ts, kind);
        }
        // Violation/re-model path: rare and expensive, so it always times
        // itself (reusing the entry timestamp when sampling took one).
        let slow_t0 = obs_on.then(|| start.unwrap_or_else(Instant::now));
        // Re-model from this tuple and re-solve. The profiler's clock runs
        // from here to the end of result installation: the solve and the
        // enqueue below each pause the re-model phase.
        let m = self.tracer.enter(pulse_obs::Phase::RemodelFit);
        let Ok(replaced) = self.remodel(source, tuple) else {
            self.tracer.leave(m);
            self.stats.model_errors += 1;
            return;
        };
        if let Some(old) = replaced {
            self.seg_owner.remove(&old);
        }
        self.seg_owner.insert(self.slots[&vkey].seg.id, vkey);
        self.stats.segments_pushed += 1;
        if defer && !audited {
            self.tracer.enter(pulse_obs::Phase::SolveBatchDrain);
            self.pending.push(PendingSolve { source, key: tuple.key, ts: tuple.ts, validation });
            self.pending_keys.insert(tuple.key);
            self.tracer.leave(m);
            // The deferred half times itself at drain; record the ingest
            // half now so the two histogram contributions sum to the same
            // violation-path total as inline execution.
            if let Some(t0) = slow_t0 {
                self.obs.violation_path_ns.record(t0.elapsed().as_nanos() as u64);
            }
            return;
        }
        self.run_solve(source, tuple.key, tuple.ts, validation, slow_t0, outs);
        self.tracer.leave(m);
        if audited {
            self.audit_tap(source, tuple, false);
        }
    }

    /// Feeds one audited tuple to the shadow oracle. `validated` selects
    /// the comparison surface: the suppressed path re-derives the source
    /// promise, the violation path records a disturbance instead. Either
    /// way the tuple tees into the discrete reference, whose window
    /// closes compare against the (just-updated) live plan state.
    fn audit_tap(&mut self, source: usize, tuple: &Tuple, validated: bool) {
        let Some(aud) = self.auditor.as_mut() else { return };
        let slot = self.slots.get(&VKey::new(source, tuple.key));
        aud.observe(
            source,
            tuple,
            validated,
            slot.map(|s| &s.seg),
            &self.modeled[source],
            slot.and_then(|s| s.validation).map(|s| s.mode),
            &self.plan,
            &mut self.tracer,
        );
    }

    /// The solve half of the violation path: pushes `(source, key)`'s
    /// current predictive segment through the plan, appending the results
    /// to `outs`, and installs the inverted bounds (or slack mode) from the
    /// results. Profiled as `Solve` (the phases operators enter pause it)
    /// through the recorder's `SolveEnd`, then as `Emit` to the end of
    /// result installation.
    /// `slow_t0` feeds the `runtime.violation_path_ns` histogram.
    fn run_solve(
        &mut self,
        source: usize,
        key: u64,
        ts: f64,
        validation: u64,
        slow_t0: Option<Instant>,
        outs: &mut Vec<Segment>,
    ) {
        let m = self.tracer.enter(pulse_obs::Phase::Solve);
        let obs_on = pulse_obs::enabled();
        let trace_on = self.tracer.on();
        let vkey = VKey::new(source, key);
        let seg = &self.slots.get(&vkey).expect("solve queued for a live segment").seg;
        let solve_start = if trace_on {
            let remodel =
                self.tracer.emit(validation, key, ts, TraceKind::Remodel { seg: seg.id.0 });
            let kind = TraceKind::SolveStart { system_size: self.plan.len() as u32 };
            let id = self.tracer.emit(remodel, key, ts, kind);
            // Operators inside the push parent their OpSolve events here.
            self.tracer.set_scope(id);
            id
        } else {
            0
        };
        let solve_t0 = trace_on.then(Instant::now);
        let start = outs.len();
        self.plan.push_traced(source, seg, &mut self.tracer, outs);
        let new_outs = &outs[start..];
        let solve_end = if trace_on {
            self.tracer.set_scope(0);
            let (iters, _) = self.tracer.scope_op_totals(solve_start);
            let ns = solve_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let kind = TraceKind::SolveEnd {
                system_size: self.plan.len() as u32,
                roots: new_outs.len() as u32,
                iters,
                ns,
            };
            self.tracer.emit(solve_start, key, ts, kind)
        } else {
            0
        };
        self.tracer.enter(pulse_obs::Phase::Emit);
        if trace_on {
            // Each OutputEmit walks lineage to its sources: emit work.
            let store = self.plan.lineage();
            for out in new_outs {
                let sources = store.sources_of(out.id).iter().map(|s| s.0).collect();
                let kind = TraceKind::OutputEmit {
                    seg: out.id.0,
                    lo: out.span.lo,
                    hi: out.span.hi,
                    sources,
                };
                let emit_id = self.tracer.emit(solve_end, out.key, out.span.lo, kind);
                if let Some(aud) = self.auditor.as_mut() {
                    // Audited keys' emits anchor later GuaranteeBreach
                    // events to the answer they indict.
                    aud.record_emit(out.key, out.span.lo, emit_id);
                }
            }
        }
        self.stats.outputs += new_outs.len() as u64;
        if obs_on {
            // Where each emitted range stands relative to the watermark:
            // lag = how far it starts behind arrivals, lead = how far the
            // prediction answers into the future (both stream-time µs).
            for out in new_outs {
                let lag = (self.watermark - out.span.lo).max(0.0);
                let lead = (out.span.hi - self.watermark).max(0.0);
                if lag.is_finite() {
                    self.obs.output_lag_us.record((lag * 1e6) as u64);
                }
                if lead.is_finite() {
                    self.obs.output_lead_us.record((lead * 1e6) as u64);
                }
            }
        }
        if new_outs.is_empty() {
            // Null result: slack validation until inputs leave the band.
            let mode = match self.plan.last_slack() {
                Some(slack) => ValidationMode::Slack(slack),
                None => ValidationMode::Accuracy(Bound::symmetric(self.cfg.bound)),
            };
            self.install(vkey, mode);
        } else {
            self.install_bounds(new_outs, vkey);
        }
        self.tracer.leave(m);
        if let Some(t0) = slow_t0 {
            self.obs.violation_path_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Inverts the output bound through lineage and installs each source
    /// segment's allocation on the stream key that owns it (the split
    /// heuristics exist exactly to differentiate these shares, §IV-C).
    fn install_bounds(&mut self, outs: &[Segment], trigger_vkey: VKey) {
        let store = self.plan.lineage();
        let equi = EquiSplit;
        let grad = GradientSplit;
        let heuristic: &dyn SplitHeuristic = match self.cfg.heuristic {
            Heuristic::Equi => &equi,
            Heuristic::Gradient => &grad,
        };
        let inverter = BoundInverter::new(store, heuristic, 1);
        let output_bound = Bound::symmetric(self.cfg.bound);
        let alloc = &mut self.allocations;
        alloc.clear();
        for out in outs {
            inverter.invert_into(out.id, output_bound, &mut self.invert);
            alloc.extend(
                self.invert
                    .sources()
                    .iter()
                    .filter_map(|(sid, b)| self.seg_owner.get(sid).map(|&vk| (vk, *b))),
            );
        }
        // The triggering key always leaves with a fresh accuracy bound,
        // even if lineage didn't surface its segment (capped fan-in).
        if !alloc.iter().any(|(vk, _)| *vk == trigger_vkey) {
            alloc.push((trigger_vkey, output_bound));
        }
        keep_tightest(alloc);
        for i in 0..self.allocations.len() {
            let (vk, b) = self.allocations[i];
            self.install(vk, ValidationMode::Accuracy(b));
        }
    }

    /// Installs `mode` in `vkey`'s slot. Every key that receives a mode
    /// has a slot: bounds go to the trigger key and to owners of live
    /// segments, and a key's slot is made by its first re-model.
    fn install(&mut self, vkey: VKey, mode: ValidationMode) {
        let slot = self.slots.get_mut(&vkey).expect("a validated key has a slot");
        self.validator.install(&mut slot.validation, mode);
        #[cfg(test)]
        self.reference.install(vkey, mode);
    }

    /// Runtime statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The underlying continuous plan (metrics, lineage).
    pub fn plan(&self) -> &CPlan {
        &self.plan
    }

    /// Validation counters.
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// Aggregate accuracy telemetry across every key with an installed
    /// mode.
    pub fn accuracy(&self) -> AccuracySummary {
        self.validator.accuracy(self.slots.values().filter_map(|s| s.validation.as_ref()))
    }

    /// The shadow oracle's guarantee ledger (None while auditing is off).
    pub fn audit_ledger(&self) -> Option<&pulse_obs::AuditLedger> {
        self.auditor.as_ref().map(ShadowAuditor::ledger)
    }

    /// Garbage-collects lineage older than `t`.
    pub fn gc_before(&mut self, t: f64) {
        self.plan.lineage_mut().gc_before(t);
    }

    /// Walks the flight recorder backwards for `key` over stream-time
    /// `[t0, t1]`: every retained solve the key triggered in (or emitting
    /// into) the range, unwound to input arrival → validation verdict →
    /// re-model → solve → output ranges. Empty when tracing was off.
    pub fn explain(&self, key: u64, t0: f64, t1: f64) -> ExplainReport {
        self.tracer.explain(key, t0, t1)
    }

    /// The runtime's flight recorder (read-only).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A copy of the flight recorder's retained events, oldest first —
    /// what [`pulse_obs::chrome_trace`] turns into a Perfetto-loadable
    /// trace. Empty when tracing was off.
    pub fn trace_events(&self) -> Vec<pulse_obs::TraceEvent> {
        self.tracer.events().cloned().collect()
    }

    /// The periodic collector tick: exports current totals into the
    /// global registry and appends one sample of every metric (counters
    /// plus histogram percentiles) to the global time-series store. A
    /// no-op when observability is disabled, and never called from the
    /// per-tuple path — history costs nothing on the suppressed path.
    pub fn publish_metrics(&self) {
        if !pulse_obs::enabled() {
            return;
        }
        self.export_metrics(pulse_obs::global(), &[]);
        pulse_obs::timeseries::store().sample(&pulse_obs::global().snapshot());
    }

    /// The violation-path phase table (empty unless profiling was on, see
    /// [`pulse_obs::set_prof_enabled`]).
    pub fn phases(&self) -> &pulse_obs::PhaseTable {
        self.tracer.phases()
    }

    /// Input watermark: the max tuple timestamp ingested so far
    /// (`NEG_INFINITY` before the first tuple). Pair with
    /// [`crate::sampler::Sampler::sample_with_watermark`] to split output
    /// samples into settled vs speculative.
    pub fn watermark(&self) -> f64 {
        self.watermark
    }

    /// Publishes end-of-run totals into `reg`: the runtime counters (under
    /// `runtime.*`), the validator's (`validate.*`), the accuracy-telemetry
    /// gauges, the auditor's (`audit.*`), the profiler's phase cells
    /// (`prof.*`) and every plan operator's (`cops.*`, see
    /// [`CPlan::export_metrics`]). Live span histograms accumulate during
    /// the run when observability is enabled; this fills in the totals
    /// that are kept in plain fields for the hot path. Everything here uses
    /// gauge semantics (`set`), so repeated exports are idempotent.
    ///
    /// `labels` are attached Prometheus-style to every name
    /// (`runtime.tuples_in{shard="3"}`), so hybrid workers' series share
    /// one metric family in the exposition; with none, the names are bare.
    pub fn export_metrics(&self, reg: &pulse_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        let decorate = |name: &str| pulse_obs::labeled(name, labels);
        let s = &self.stats;
        for (name, v) in [
            ("runtime.tuples_in", s.tuples_in),
            ("runtime.suppressed", s.suppressed),
            ("runtime.violations", s.violations),
            ("runtime.segments_pushed", s.segments_pushed),
            ("runtime.outputs", s.outputs),
            ("runtime.model_errors", s.model_errors),
        ] {
            reg.counter(&decorate(name)).set(v);
        }
        // Watermark in stream-time ms (0 before the first tuple — the
        // saturating float→int cast maps NEG_INFINITY there).
        reg.counter(&decorate("runtime.watermark_ms")).set((self.watermark * 1e3) as u64);
        let v = self.validator.stats();
        for (name, v) in [
            ("validate.checks", v.checks),
            ("validate.violations", v.violations),
            ("validate.accuracy_keys", v.accuracy_keys),
            ("validate.slack_keys", v.slack_keys),
        ] {
            reg.counter(&decorate(name)).set(v);
        }
        // Accuracy telemetry: ratios in basis points (10000 = at budget),
        // drift in milli-units of the measured attribute.
        let a = self.accuracy();
        for (name, v) in [
            ("validate.budget_mean_bp", (a.mean_budget_ratio * 1e4) as u64),
            ("validate.budget_max_bp", (a.max_budget_ratio * 1e4) as u64),
            ("validate.drift_mean_milli", (a.mean_drift * 1e3) as u64),
            ("validate.drift_max_milli", (a.max_drift * 1e3) as u64),
            ("validate.hot_keys", a.hot_keys),
            ("validate.bursts", a.bursts),
            ("validate.burst_max", a.burst_max as u64),
        ] {
            reg.counter(&decorate(name)).set(v);
        }
        if let Some(aud) = &self.auditor {
            let l = aud.ledger();
            for (name, v) in [
                ("audit.keys", l.audited_keys() as u64),
                ("audit.checks", l.checks),
                ("audit.skips", l.skips),
                ("audit.breaches", l.breaches),
            ] {
                reg.counter(&decorate(name)).set(v);
            }
        }
        self.tracer.phases().export(reg, labels);
        self.plan.export_metrics(reg, labels);
    }
}

/// The span a re-model at `ts` gives its new segment `span`, given the
/// predecessor's `old` span. Expiry (not violation) must not leave a
/// coverage gap: the old prediction stays authoritative until the new one
/// begins, so a segment that expired within the last horizon backdates
/// its successor's start to its own end (update semantics — a successor
/// supersedes only from where it starts).
fn backdated(old: Span, span: Span, ts: f64, horizon: f64) -> Span {
    if old.hi <= ts && old.hi > span.lo - horizon {
        Span::new(old.hi.min(span.lo), span.hi)
    } else {
        span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::CheckOutcome;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema};
    use pulse_stream::{LogicalOp, PortRef};

    /// A moving-object source: x modeled as x + v·t.
    fn source() -> (Schema, StreamModel) {
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let sm = StreamModel::new(
            schema.clone(),
            vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
        )
        .unwrap();
        (schema, sm)
    }

    fn filter_plan(schema: Schema, threshold: f64) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(threshold)) },
            vec![PortRef::Source(0)],
        );
        lp
    }

    fn tup(key: u64, ts: f64, x: f64, v: f64) -> Tuple {
        Tuple::new(key, ts, vec![x, v])
    }

    #[test]
    fn accurate_predictions_suppress_processing() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0); // always true → accuracy mode
        let cfg = RuntimeConfig { horizon: 100.0, bound: 1.0, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        // First tuple: no model yet → solve.
        let outs = rt.on_tuple(0, &tup(1, 0.0, 0.0, 2.0));
        assert_eq!(outs.len(), 1);
        // Object keeps moving exactly as modeled: all suppressed.
        for i in 1..50 {
            let ts = i as f64 * 0.1;
            let outs = rt.on_tuple(0, &tup(1, ts, 2.0 * ts, 2.0));
            assert!(outs.is_empty(), "prediction holds, no re-solving");
        }
        let s = rt.stats();
        assert_eq!(s.tuples_in, 50);
        assert_eq!(s.suppressed, 49);
        assert_eq!(s.segments_pushed, 1);
        assert_eq!(s.violations, 0);
    }

    #[test]
    fn deviation_triggers_resolve() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let cfg = RuntimeConfig { horizon: 100.0, bound: 0.5, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        rt.on_tuple(0, &tup(1, 0.0, 0.0, 1.0));
        // Object follows the model for a while…
        assert!(rt.on_tuple(0, &tup(1, 1.0, 1.0, 1.0)).is_empty());
        // …then jumps beyond the bound: must re-model and re-solve.
        let outs = rt.on_tuple(0, &tup(1, 2.0, 10.0, 1.0));
        assert!(!outs.is_empty());
        let s = rt.stats();
        assert_eq!(s.violations, 1);
        assert_eq!(s.segments_pushed, 2);
    }

    #[test]
    fn tighter_bounds_mean_more_violations() {
        // The Fig. 9iii relationship: violations grow as the bound shrinks.
        let run = |bound: f64| -> u64 {
            let (schema, sm) = source();
            let lp = filter_plan(schema, -100.0);
            let cfg = RuntimeConfig { horizon: 1e9, bound, ..Default::default() };
            let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
            // Noisy walk around the modeled trajectory.
            for i in 0..200 {
                let ts = i as f64 * 0.1;
                let noise = ((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.5;
                rt.on_tuple(0, &tup(1, ts, 1.0 * ts + noise, 1.0));
            }
            rt.stats().violations
        };
        let loose = run(2.0);
        let tight = run(0.05);
        assert!(tight > loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn null_result_switches_to_slack() {
        let (schema, sm) = source();
        // Threshold far above: filter never fires → slack mode.
        let lp = filter_plan(schema, 1e6);
        let cfg = RuntimeConfig { horizon: 10.0, bound: 1.0, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        let outs = rt.on_tuple(0, &tup(1, 0.0, 0.0, 1.0));
        assert!(outs.is_empty());
        let mode = rt.slots[&VKey::new(0, 1)].validation.map(|s| s.mode);
        assert!(matches!(mode, Some(ValidationMode::Slack(_))), "{mode:?}");
        // Small deviations stay inside the huge slack: suppressed.
        assert!(rt.on_tuple(0, &tup(1, 1.0, 1.5, 1.0)).is_empty());
        assert_eq!(rt.stats().suppressed, 1);
    }

    #[test]
    fn stats_partition_every_tuple() {
        // Every tuple is either suppressed or re-modeled (landing in
        // segments_pushed or model_errors); violations are the subset of
        // re-models triggered by a failed check.
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let cfg = RuntimeConfig { horizon: 5.0, bound: 0.3, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        for i in 0..300 {
            let ts = i as f64 * 0.1;
            let noise = ((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.5;
            let key = 1 + (i % 3) as u64;
            rt.on_tuple(0, &tup(key, ts, 1.0 * ts + noise, 1.0));
        }
        let s = rt.stats();
        assert_eq!(s.tuples_in, 300);
        assert_eq!(s.suppressed + s.segments_pushed + s.model_errors, s.tuples_in, "{s:?}");
        assert!(s.violations <= s.segments_pushed, "{s:?}");
        assert!(s.suppressed > 0 && s.violations > 0, "{s:?}");
        // The validator saw one check batch per non-first tuple at least.
        assert!(rt.validator().stats().checks >= s.suppressed);
    }

    /// The ring's capacity is the flight recorder's only switch: a runtime
    /// built with one records every causal event with no other call, and
    /// the default configuration records nothing.
    #[test]
    fn trace_capacity_is_the_recorder_switch() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let recorded = |trace_capacity| {
            let cfg =
                RuntimeConfig { horizon: 100.0, bound: 0.5, trace_capacity, ..Default::default() };
            let mut rt = PulseRuntime::new(vec![sm.clone()], &lp, cfg).unwrap();
            rt.on_tuple(0, &tup(9, 0.0, 0.0, 1.0)); // initial solve
            rt.on_tuple(0, &tup(9, 1.0, 1.0, 1.0)); // suppressed
            rt.on_tuple(0, &tup(9, 2.0, 50.0, 1.0)); // violation → re-solve
            rt.trace_events()
        };
        let events = recorded(64);
        let solves = events.iter().filter(|e| matches!(e.kind, TraceKind::SolveEnd { .. })).count();
        assert_eq!(solves, 2, "{events:?}");
        assert!(recorded(RuntimeConfig::default().trace_capacity).is_empty());
    }

    #[test]
    fn obs_wiring_records_counters_and_histograms() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let cfg = RuntimeConfig { horizon: 100.0, bound: 0.5, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        let before = pulse_obs::global().snapshot();
        pulse_obs::set_enabled(true);
        rt.on_tuple(0, &tup(9, 0.0, 0.0, 1.0)); // initial solve
        rt.on_tuple(0, &tup(9, 1.0, 1.0, 1.0)); // suppressed
        rt.on_tuple(0, &tup(9, 2.0, 50.0, 1.0)); // violation → re-solve
        pulse_obs::set_enabled(false);
        rt.export_metrics(pulse_obs::global(), &[]);
        let d = pulse_obs::global().snapshot().delta(&before);
        // ≥ because other tests in this binary may run concurrently.
        assert!(d.counter("runtime.tuples_in").unwrap() >= 3);
        assert!(d.counter("runtime.suppressed").unwrap() >= 1);
        assert!(d.counter("runtime.violations").unwrap() >= 1);
        assert!(d.histogram("runtime.fast_path_ns").unwrap().count >= 1);
        assert!(d.histogram("runtime.violation_path_ns").unwrap().count >= 1);
        assert!(d.counter("cops.filter.systems_solved").unwrap() >= 2);
        assert!(d.counter("validate.checks").unwrap() >= 2);
    }

    #[test]
    fn clean_run_audits_without_breaches() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let cfg = RuntimeConfig { horizon: 100.0, bound: 1.0, audit_rate: 1, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        for i in 0..50 {
            let ts = i as f64 * 0.1;
            rt.on_tuple(0, &tup(1, ts, 2.0 * ts, 2.0));
        }
        let l = rt.audit_ledger().unwrap();
        assert_eq!(l.breaches, 0, "{l:?}");
        assert!(l.checks >= 49, "{l:?}");
        assert_eq!(l.audited_keys(), 1);
        assert_eq!(l.mean_headroom_bp(), 10000, "exact model consumes no budget");
    }

    #[test]
    fn injected_fault_breaches_the_audit() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let cfg = RuntimeConfig {
            horizon: 100.0,
            bound: 1.0,
            audit_rate: 1,
            audit_fault_offset: 50.0,
            ..Default::default()
        };
        let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
        for i in 0..10 {
            let ts = i as f64 * 0.1;
            rt.on_tuple(0, &tup(3, ts, 2.0 * ts, 2.0));
        }
        let l = rt.audit_ledger().unwrap();
        assert!(l.breaches > 0, "{l:?}");
        let b = l.last_breach.as_ref().unwrap();
        assert_eq!(b.key, 3);
        assert!(b.observed > b.bound);
    }

    #[test]
    fn audit_rate_zero_has_no_ledger() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let mut rt = PulseRuntime::new(vec![sm], &lp, RuntimeConfig::default()).unwrap();
        rt.on_tuple(0, &tup(1, 0.0, 0.0, 1.0));
        assert!(rt.audit_ledger().is_none());
    }

    #[test]
    fn vkey_collision_regression() {
        // Under the old `(source << 48) ^ key` packing, (source 1, key 0)
        // and (source 0, key 2^48) shared a validator slot: installing a
        // tight slack for one stream clobbered the other's wide slack and
        // forced spurious violations. The composite key keeps them apart.
        let k_big = 1u64 << 48;
        assert_ne!(VKey::new(1, 0), VKey::new(0, k_big));

        let (schema, sm0) = source();
        let (_, sm1) = source();
        let mut lp = LogicalPlan::new(vec![schema.clone(), schema]);
        let far = Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(1e6));
        lp.add(LogicalOp::Filter { pred: far.clone() }, vec![PortRef::Source(0)]);
        lp.add(LogicalOp::Filter { pred: far }, vec![PortRef::Source(1)]);
        let cfg = RuntimeConfig { horizon: 100.0, bound: 1.0, ..Default::default() };
        let mut rt = PulseRuntime::new(vec![sm0, sm1], &lp, cfg).unwrap();
        // Source 0, key 2^48: x far from the threshold → huge slack.
        rt.on_tuple(0, &tup(k_big, 0.0, 0.0, 0.0));
        // Source 1, key 0: x just below the threshold → tiny slack, which
        // used to overwrite the colliding slot above.
        rt.on_tuple(1, &tup(0, 0.0, 1e6 - 0.5, 0.0));
        // A 10-unit deviation on source 0 sits far inside its own slack.
        assert!(rt.on_tuple(0, &tup(k_big, 1.0, 10.0, 0.0)).is_empty());
        assert_eq!(rt.stats().violations, 0, "{:?}", rt.stats());
        assert_eq!(rt.stats().suppressed, 1);
    }

    /// Every check and install the runtime makes on a slot-held
    /// [`KeyState`] is mirrored into the map-based reference validator
    /// (test builds do this inside `ingest` and `install`, asserting each
    /// outcome and the key's state bit for bit as they go). This drives
    /// the mirror over two sources that share key numbers, with the pair
    /// that collided under the old packed key, through the untraced `check`
    /// and the traced `check_explained` paths, batched and not, and then
    /// compares what the validator reports against the reference.
    #[test]
    fn slot_held_validator_state_matches_the_map_reference() {
        let (schema, sm) = source();
        let mut lp = LogicalPlan::new(vec![schema.clone(), schema]);
        lp.add(
            LogicalOp::Join {
                window: 1.0,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)),
                on_keys: pulse_stream::KeyJoin::Eq,
            },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(3.0)) },
            vec![PortRef::Source(1)],
        );
        let keys = [0, 1, 2, 1u64 << 48];
        let mut rng = 0x5107_u64;
        let mut unit = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut feed = Vec::new();
        for i in 0..3000 {
            let (source, key) = (i % 2, keys[(i / 2) % keys.len()]);
            let ts = i as f64 * 0.01;
            let phase = key as f64 * 0.7 + source as f64 * 2.0;
            let mut x = 2.0 + 3.0 * (0.2 * ts + phase).sin() + 0.6 * (unit() - 0.5);
            // Every 300 tuples, 24 tuples of alternating jumps: runs of
            // violations on every key, long enough to count as bursts.
            if i % 300 < 24 {
                x += if (i / 8) % 2 == 0 { 6.0 } else { -6.0 };
            }
            let v = 0.6 * (0.2 * ts + phase).cos();
            feed.push((source, tup(key, ts, x - v * ts, v)));
        }
        let mut runs = Vec::new();
        for trace_capacity in [0, 1 << 14] {
            let cfg =
                RuntimeConfig { horizon: 2.0, bound: 0.5, trace_capacity, ..Default::default() };
            let mut rt = PulseRuntime::new(vec![sm.clone(); 2], &lp, cfg).unwrap();
            let (mut saw_accuracy, mut saw_slack) = (false, false);
            for (c, chunk) in feed.chunks(16).enumerate() {
                if c % 2 == 0 {
                    rt.on_pairs(chunk);
                } else {
                    chunk.iter().for_each(|(source, t)| drop(rt.on_tuple(*source, t)));
                }
                let stats = rt.validator().stats();
                assert_eq!(stats, rt.reference.stats(), "after chunk {c}");
                saw_accuracy |= stats.accuracy_keys > 0;
                saw_slack |= stats.slack_keys > 0;
            }
            assert!(saw_accuracy && saw_slack, "both modes installed");
            let (v, r) = (rt.validator(), &rt.reference);
            assert_eq!((v.checks, v.violations, v.bursts), (r.checks, r.violations, r.bursts));
            assert!(v.bursts > 0 && v.violations > 0 && rt.stats().suppressed > 0);
            assert!(rt.stats().segments_pushed > 2 * keys.len() as u64, "keys re-modelled");
            let bits = |o: Option<CheckOutcome>| {
                o.map(|o| (o.ok, o.deviation.to_bits(), o.allowance.to_bits()))
            };
            assert_eq!(bits(v.last_violation()), bits(r.last_violation));
            // Every key the reference holds is a slot holding the same
            // state, and no slot holds a state the reference lacks.
            for (vkey, want) in &r.modes {
                assert_eq!(rt.slots[vkey].validation.as_ref(), Some(want), "{vkey:?}");
            }
            let held = rt.slots.values().filter(|s| s.validation.is_some()).count();
            assert_eq!(held, r.modes.len());
            assert!(r.modes.keys().any(|k| k.source == 1 && k.key == 0));
            assert!(r.modes.keys().any(|k| k.source == 0 && k.key == 1 << 48));
            // The summary sums per-key floats in map order, and the two maps
            // need not iterate alike: counts and maxima match exactly, means
            // up to summation order.
            let (got, want) = (rt.accuracy(), r.accuracy());
            assert_eq!(got.keys, want.keys);
            assert_eq!(got.ratio_count, want.ratio_count);
            assert_eq!(got.max_budget_ratio.to_bits(), want.max_budget_ratio.to_bits());
            assert_eq!(got.max_drift.to_bits(), want.max_drift.to_bits());
            assert_eq!(
                (got.hot_keys, got.bursts, got.burst_max),
                (want.hot_keys, want.bursts, want.burst_max)
            );
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1.0);
            assert!(close(got.mean_budget_ratio, want.mean_budget_ratio), "{got:?} {want:?}");
            assert!(close(got.mean_drift, want.mean_drift), "{got:?} {want:?}");
            runs.push((v.stats(), got.keys, rt.stats()));
        }
        // Tracing changes which verdict function runs, not what it decides.
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn per_key_models_are_independent() {
        let (schema, sm) = source();
        let lp = filter_plan(schema, -100.0);
        let mut rt = PulseRuntime::new(vec![sm], &lp, RuntimeConfig::default()).unwrap();
        rt.on_tuple(0, &tup(1, 0.0, 0.0, 1.0));
        rt.on_tuple(0, &tup(2, 0.0, 100.0, -1.0));
        assert_eq!(rt.stats().segments_pushed, 2);
        // Each follows its own model.
        assert!(rt.on_tuple(0, &tup(1, 1.0, 1.0, 1.0)).is_empty());
        assert!(rt.on_tuple(0, &tup(2, 1.0, 99.0, -1.0)).is_empty());
        assert_eq!(rt.stats().suppressed, 2);
    }

    /// The allocating re-model the runtime used before per-key slots: a
    /// fresh segment per re-model, the anchor in a map of its own, and the
    /// predecessor backdating the new segment before the insert. Kept as
    /// the reference the in-place [`PulseRuntime::remodel`] must match.
    #[derive(Default)]
    struct AllocatingRemodel {
        anchors: KeyMap<VKey, (f64, Vec<f64>)>,
        predicted: KeyMap<VKey, Segment>,
    }

    impl AllocatingRemodel {
        fn predict(&mut self, rt: &PulseRuntime, source: usize, tuple: &Tuple) -> Option<Segment> {
            match &rt.predictors[source] {
                Predictor::Clause(sm) => sm.segment_for(tuple, rt.cfg.horizon).ok(),
                Predictor::AdaptiveLinear(_) => {
                    let modeled = &rt.modeled[source];
                    let vals: Vec<f64> = modeled.iter().map(|&a| tuple.values[a]).collect();
                    let vkey = VKey::new(source, tuple.key);
                    let anchor = self.anchors.insert(vkey, (tuple.ts, vals.clone()));
                    let models = modeled
                        .iter()
                        .zip(&vals)
                        .enumerate()
                        .map(|(slot, (_, &v))| {
                            let slope = match &anchor {
                                Some((ats, avs)) if tuple.ts - ats > 1e-9 => {
                                    (v - avs[slot]) / (tuple.ts - ats)
                                }
                                _ => 0.0,
                            };
                            Poly::linear(v - slope * tuple.ts, slope)
                        })
                        .collect();
                    let unmodeled = rt.unmodeled[source].iter().map(|&a| tuple.values[a]).collect();
                    Some(Segment {
                        id: SegmentId::fresh(),
                        key: tuple.key,
                        span: Span::new(tuple.ts, tuple.ts + rt.cfg.horizon),
                        models,
                        unmodeled,
                    })
                }
            }
        }

        /// Returns whether the key had a predecessor, and whether the new
        /// segment was backdated to the predecessor's end.
        fn remodel(&mut self, rt: &PulseRuntime, source: usize, tuple: &Tuple) -> (bool, bool) {
            let pkey = VKey::new(source, tuple.key);
            let mut seg = self.predict(rt, source, tuple).expect("clause instantiates");
            let mut backdated = false;
            if let Some(old) = self.predicted.get(&pkey) {
                if old.span.hi <= tuple.ts && old.span.hi > seg.span.lo - rt.cfg.horizon {
                    seg.span = Span::new(old.span.hi.min(seg.span.lo), seg.span.hi);
                    backdated = true;
                }
            }
            (self.predicted.insert(pkey, seg).is_some(), backdated)
        }
    }

    /// Bit pattern of a segment's content, id aside.
    fn seg_bits(seg: &Segment) -> (u64, [u64; 2], Vec<Vec<u64>>, Vec<u64>) {
        (
            seg.key,
            [seg.span.lo.to_bits(), seg.span.hi.to_bits()],
            seg.models.iter().map(|p| p.coeffs().iter().map(|c| c.to_bits()).collect()).collect(),
            seg.unmodeled.iter().map(|u| u.to_bits()).collect(),
        )
    }

    #[test]
    fn in_place_remodel_matches_the_allocating_reference() {
        // Source 0: a MODEL clause over two modeled attributes; source 1:
        // the adaptive predictor. Both carry one unmodeled attribute.
        let clause_schema = Schema::of(&[
            ("x", AttrKind::Modeled),
            ("vx", AttrKind::Coefficient),
            ("y", AttrKind::Modeled),
            ("vy", AttrKind::Coefficient),
            ("w", AttrKind::Unmodeled),
        ]);
        let sm = StreamModel::new(
            clause_schema.clone(),
            vec![
                ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time),
                ModelSpec::new(2, Expr::attr(2) + Expr::attr(3) * Expr::Time),
            ],
        )
        .unwrap();
        let adaptive_schema = Schema::of(&[
            ("x", AttrKind::Modeled),
            ("y", AttrKind::Modeled),
            ("w", AttrKind::Unmodeled),
        ]);
        let mut lp = LogicalPlan::new(vec![clause_schema, adaptive_schema.clone()]);
        lp.add(LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Source(0)]);
        lp.add(LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Source(1)]);
        let cfg = RuntimeConfig { horizon: 1.0, ..Default::default() };
        let predictors = vec![Predictor::Clause(sm), Predictor::AdaptiveLinear(adaptive_schema)];
        let mut rt = PulseRuntime::with_predictors(predictors, &lp, cfg).unwrap();
        let mut reference = AllocatingRemodel::default();

        let mut rng = 0x5eed_u64;
        let mut unit = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut ts, mut last) = (0.0, (0, 0));
        let (mut first_sights, mut backdates, mut same_ts) = (0, 0, 0);
        for _ in 0..4000 {
            // One tuple in ten repeats the last (source, key) at the same
            // timestamp or under 1e-9 s after it; the rest advance time by
            // up to 0.3 s, so a key's gaps straddle the 1 s horizon and its
            // prediction sometimes expires before the next tuple.
            let (source, key) = if unit() < 0.1 {
                if unit() < 0.5 {
                    ts += 5e-10 * unit();
                }
                last
            } else {
                ts += 0.3 * unit();
                ((unit() * 2.0) as usize, (unit() * 6.0) as u64)
            };
            last = (source, key);
            let values = if source == 0 {
                vec![100.0 * unit(), unit() - 0.5, 100.0 * unit(), unit() - 0.5, unit()]
            } else {
                vec![100.0 * unit(), 100.0 * unit(), unit()]
            };
            let tuple = Tuple::new(key, ts, values);
            let pkey = VKey::new(source, key);
            let prev = rt.slots.get(&pkey).map(|s| (s.seg.id, s.anchor_ts));
            if let Some((_, anchor_ts)) = prev {
                same_ts += (source == 1 && ts - anchor_ts <= 1e-9) as u32;
            }
            let replaced = rt.remodel(source, &tuple).expect("clause instantiates");
            let (had, backdated) = reference.remodel(&rt, source, &tuple);
            assert_eq!(replaced, prev.map(|(id, _)| id), "returns the replaced segment's id");
            assert_eq!(had, prev.is_some());
            first_sights += !had as u32;
            backdates += backdated as u32;
            let slot = &rt.slots[&pkey];
            assert_ne!(Some(slot.seg.id), replaced, "every re-model takes a fresh id");
            assert_eq!(seg_bits(&slot.seg), seg_bits(&reference.predicted[&pkey]));
            if source == 1 {
                let (ats, avs) = &reference.anchors[&pkey];
                assert_eq!(slot.anchor_ts.to_bits(), ats.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&slot.anchor), bits(avs));
            }
        }
        assert_eq!(first_sights, 12, "every (source, key) pair is first seen once");
        assert!(backdates > 50, "{backdates} backdated re-models");
        assert!(same_ts > 50, "{same_ts} same-timestamp adaptive re-models");
    }
}
