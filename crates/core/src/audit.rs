//! Live guarantee auditing: an in-production shadow oracle.
//!
//! The qa crate's offline oracle checks the paper's contract — continuous
//! answers within ε of the true discrete answers — after the fact, on
//! corpora. [`ShadowAuditor`] runs the same comparison *inside* a live
//! runtime, on a deterministic 1-in-N key subset, so the guarantee becomes
//! a measured per-key SLO instead of a design-time promise:
//!
//! * **Sampling** — a key is audited iff `splitmix64(key) % audit_rate ==
//!   0` (the shard router's own finalizer), so the subset is stable across
//!   shards, runs and restarts, and every shard audits exactly the audited
//!   keys it owns.
//! * **Source checks** — on the suppressed (validated) path the runtime
//!   already promises `|tuple − model|` stays within the allowance the
//!   bound inversion installed. The auditor re-derives that comparison
//!   from the live predictive segment and the validator's installed mode
//!   ([`ValidationMode::allowance_for`]), so a clean run is structurally
//!   breach-free and any reported breach is a real contract violation
//!   (or an injected fault, see below).
//! * **Aggregate checks** — audited tuples are teed into a discrete
//!   reference plan (the `pulse_stream` engine over the same logical
//!   plan). Each reference window close is compared against the live
//!   continuous operator's [`window value`](crate::cops::CMinMax::window_value)
//!   under the shared tolerance model extracted from the oracle
//!   ([`pulse_stream::ToleranceModel`]). Windows the reference could not
//!   have seen in full (stream prefix before auditing began) and min/max
//!   windows disturbed by a mid-window re-model are skipped — a re-modeled
//!   envelope cannot self-audit against a reference that kept every
//!   sample, exactly the oracle's margin gates.
//! * **Fault injection** — `audit_fault_offset` shifts the *continuous*
//!   side of every comparison. Tests use it to prove the auditor detects
//!   a perturbed substitution path end to end (ledger breach, trace
//!   event, `/health` flip) without touching the engine under audit.
//!
//! Breaches land in the per-key [`AuditLedger`] (merged across shards at
//! `finish()`), the `audit.headroom_bp` histogram, and — when the flight
//! recorder is on — a [`TraceKind::GuaranteeBreach`] event chained to the
//! most recent `OutputEmit` of the offending key.

use crate::cops::{CGroupBy, CMinMax, COperator, CSumAvg};
use crate::hybrid::splitmix64;
use crate::plan::CPlan;
use crate::runtime::RuntimeConfig;
use crate::validate::ValidationMode;
use pulse_model::{Segment, Tuple};
use pulse_obs::{AuditLedger, Histogram, TraceKind, Tracer};
use pulse_stream::{AggFunc, Comparison, LogicalOp, LogicalPlan, Plan, ToleranceModel};

/// Retained `OutputEmit` ids per runtime for breach chaining.
const EMIT_RING: usize = 64;

/// What the auditor needs to know about one tapped aggregate node.
#[derive(Debug, Clone, Copy)]
struct AggSpec {
    func: AggFunc,
    width: f64,
    grouped: bool,
}

/// The per-runtime shadow oracle. One lives inside each [`crate::PulseRuntime`]
/// whose [`RuntimeConfig::audit_rate`] is non-zero; [`crate::HybridRuntime`]
/// merges its workers' ledgers at `finish()`.
pub struct ShadowAuditor {
    rate: u64,
    fault: f64,
    tol: ToleranceModel,
    /// Discrete reference evaluator over the same logical plan, fed only
    /// the audited keys' raw tuples.
    reference: Plan,
    /// Which plan nodes get tapped mid-reference-push (the aggregates).
    tapped: Vec<bool>,
    specs: Vec<Option<AggSpec>>,
    ledger: AuditLedger,
    /// Timestamp of the first audited tuple: windows opening before it
    /// compare unlike prefixes and are skipped.
    min_ts: f64,
    /// `(key, ts)` of audited tuples that failed validation: a min/max
    /// window containing a re-model compares an envelope rebuilt
    /// mid-window against a reference that kept every sample, so those
    /// closes skip (the oracle's disturbance gate).
    events: Vec<(u64, f64)>,
    /// Retention horizon for `events` past the watermark.
    event_retain: f64,
    /// Recent `(key, span.lo, trace id)` of emitted outputs for audited
    /// keys — breach events chain to the output they indict.
    emits: Vec<(u64, f64, u64)>,
    /// Scratch for reference taps (reused across tuples).
    taps: Vec<(usize, Tuple)>,
    headroom: Histogram,
}

impl ShadowAuditor {
    /// Builds the auditor for a plan. Ungrouped aggregates mix audited
    /// and unaudited keys into one state, so they are only auditable when
    /// every key is audited (`audit_rate == 1`).
    pub fn new(logical: &LogicalPlan, cfg: &RuntimeConfig) -> Self {
        let mut tapped = vec![false; logical.nodes.len()];
        let mut specs = vec![None; logical.nodes.len()];
        let mut max_width = 0.0f64;
        for (i, n) in logical.nodes.iter().enumerate() {
            if let LogicalOp::Aggregate { func, width, group_by_key, .. } = n.op {
                if matches!(func, AggFunc::Count) || (!group_by_key && cfg.audit_rate != 1) {
                    continue;
                }
                tapped[i] = true;
                specs[i] = Some(AggSpec { func, width, grouped: group_by_key });
                max_width = max_width.max(width);
            }
        }
        let cal = cfg.calibration;
        ShadowAuditor {
            rate: cfg.audit_rate.max(1),
            fault: cfg.audit_fault_offset,
            tol: ToleranceModel { bound: cfg.bound, horizon: cfg.horizon, cal },
            reference: Plan::compile(logical),
            tapped,
            specs,
            ledger: AuditLedger::default(),
            min_ts: f64::INFINITY,
            events: Vec::new(),
            event_retain: max_width + cfg.horizon + cal.sample_dt + 1.0,
            emits: Vec::new(),
            taps: Vec::new(),
            headroom: pulse_obs::global().histogram("audit.headroom_bp"),
        }
    }

    /// Whether a key is in the audited subset (stable across shards/runs).
    pub fn audited(&self, key: u64) -> bool {
        splitmix64(key).is_multiple_of(self.rate)
    }

    /// The per-key guarantee ledger accumulated so far.
    pub fn ledger(&self) -> &AuditLedger {
        &self.ledger
    }

    /// One audited observation: tees the tuple into the discrete
    /// reference, compares the live model against the tuple on the
    /// validated path, and compares every reference window close that
    /// results against the live continuous operator state. `plan` must
    /// already reflect this tuple (i.e. call after any inline solve).
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &mut self,
        source: usize,
        tuple: &Tuple,
        validated: bool,
        predicted: Option<&Segment>,
        modeled: &[usize],
        mode: Option<ValidationMode>,
        plan: &CPlan,
        tracer: &mut Tracer,
    ) {
        if !self.audited(tuple.key) {
            return;
        }
        if tuple.ts < self.min_ts {
            self.min_ts = tuple.ts;
        }
        if validated {
            self.check_source(tuple, predicted, modeled, mode, tracer);
        } else {
            // Re-model: remember the disturbance for the min/max gate.
            self.events.push((tuple.key, tuple.ts));
            if self.events.len() > 4 * EMIT_RING {
                let cutoff = tuple.ts - self.event_retain;
                self.events.retain(|&(_, t)| t > cutoff);
            }
        }
        // Tee into the reference; compare whatever windows it closed.
        let mut taps = std::mem::take(&mut self.taps);
        taps.clear();
        let _ = self.reference.push_tap(source, tuple, &self.tapped, &mut taps);
        for (node, out) in taps.drain(..) {
            self.check_agg(node, &out, plan, tracer);
        }
        self.taps = taps;
    }

    /// The source-model comparison on the suppressed path: the runtime
    /// promised every modeled attribute stays within the installed
    /// allowance, so re-deriving the check must agree (modulo the
    /// injected fault).
    fn check_source(
        &mut self,
        tuple: &Tuple,
        predicted: Option<&Segment>,
        modeled: &[usize],
        mode: Option<ValidationMode>,
        tracer: &mut Tracer,
    ) {
        let (Some(seg), Some(mode)) = (predicted, mode) else {
            self.ledger.skip(tuple.key);
            return;
        };
        if !seg.span.contains(tuple.ts) {
            self.ledger.skip(tuple.key);
            return;
        }
        for (slot, &attr) in modeled.iter().enumerate() {
            let predicted_v = seg.eval(slot, tuple.ts) + self.fault;
            let d = tuple.values[attr] - predicted_v;
            let c = Comparison { deviation: d.abs(), allowance: mode.allowance_for(d) };
            self.record(tuple.key, tuple.ts, tuple.values[attr], predicted_v, c, tracer);
        }
    }

    /// One reference window close against the live operator's window
    /// value at the same instant.
    fn check_agg(&mut self, node: usize, out: &Tuple, plan: &CPlan, tracer: &mut Tracer) {
        let Some(spec) = self.specs[node] else { return };
        let close = out.ts;
        // Stream prefix: the reference only saw tuples from min_ts on.
        if close - spec.width < self.min_ts - 1e-9 {
            self.ledger.skip(out.key);
            return;
        }
        if matches!(spec.func, AggFunc::Min | AggFunc::Max) {
            let times: Vec<f64> = self
                .events
                .iter()
                .filter(|&&(k, _)| !spec.grouped || k == out.key)
                .map(|&(_, t)| t)
                .collect();
            if self.tol.window_disturbed(close, spec.width, &times) {
                self.ledger.skip(out.key);
                return;
            }
        }
        let Some(qv) = live_window_value(plan, node, spec, out.key, close) else {
            self.ledger.skip(out.key);
            return;
        };
        let qv = qv + self.fault;
        let dv = out.values[0];
        let Some(c) = self.tol.compare_agg(spec.func, spec.width, dv, qv) else {
            self.ledger.skip(out.key);
            return;
        };
        self.record(out.key, close, qv, dv, c, tracer);
    }

    /// Ledger + histogram + (on breach) flight-recorder entry.
    fn record(
        &mut self,
        key: u64,
        t: f64,
        observed: f64,
        expected: f64,
        c: Comparison,
        tracer: &mut Tracer,
    ) {
        let breach = self.ledger.check(key, t, c.deviation, c.allowance);
        if pulse_obs::enabled() {
            self.headroom.record(c.headroom_bp());
        }
        if breach && tracer.on() {
            // Chain to the most recent emitted output covering t (else the
            // key's last emit) so the event indicts a concrete answer.
            let parent = self
                .emits
                .iter()
                .rev()
                .find(|&&(k, lo, _)| k == key && lo <= t + 1e-9)
                .or_else(|| self.emits.iter().rev().find(|&&(k, _, _)| k == key))
                .map_or(0, |&(_, _, id)| id);
            let kind = TraceKind::GuaranteeBreach { observed, expected, allowance: c.allowance };
            tracer.emit(parent, key, t, kind);
        }
    }

    /// Notes an emitted output's trace id for breach chaining. Called by
    /// the runtime from the `OutputEmit` loop; cheap no-op for keys
    /// outside the audited subset.
    pub fn record_emit(&mut self, key: u64, lo: f64, id: u64) {
        if !self.audited(key) {
            return;
        }
        if self.emits.len() >= EMIT_RING {
            self.emits.remove(0);
        }
        self.emits.push((key, lo, id));
    }
}

/// The live continuous window value behind a tapped aggregate node: the
/// grouped wrapper is unwrapped to the group's operator, then min/max
/// reads the envelope and sum/avg integrates history at `close`. `None`
/// (unknown group, no coverage) skips the comparison.
fn live_window_value(
    plan: &CPlan,
    node: usize,
    spec: AggSpec,
    group: u64,
    close: f64,
) -> Option<f64> {
    let op: &dyn COperator = plan.op(node)?;
    let inner: &dyn COperator =
        if spec.grouped { op.as_any().downcast_ref::<CGroupBy>()?.group(group)? } else { op };
    match spec.func {
        AggFunc::Min | AggFunc::Max => {
            inner.as_any().downcast_ref::<CMinMax>()?.window_value(close)
        }
        _ => inner.as_any().downcast_ref::<CSumAvg>()?.window_value(close),
    }
}
