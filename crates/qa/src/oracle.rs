//! The three-way differential oracle.
//!
//! Each case runs through three engines:
//!
//! 1. the **discrete** tuple-at-a-time plan ([`pulse_stream::Plan`]) — the
//!    semantic baseline;
//! 2. the **continuous** single-threaded [`PulseRuntime`] — the system
//!    under test;
//! 3. the **sharded** [`HybridRuntime::partitioned`] (4 shards) when the plan is
//!    key-partitionable, or a second single-threaded run when it is not
//!    (the documented fallback path).
//!
//! Discrete vs continuous is *not* compared output-to-output: the two
//! engines legitimately disagree near filter boundaries, slope breaks, and
//! by the validator's error bound ε. Instead every comparison is **anchored
//! to exact ground truth** (the [`TrackSet`] signal): the oracle recomputes
//! what each plan *should* produce from the noiseless signal, and only
//! checks instants whose truth margin clears a tolerance budget derived
//! from ε, the observation noise, and the sampling interval. Within that
//! margin, disagreement is a real bug — not numerics.
//!
//! Continuous vs sharded *is* compared output-to-output: partitioned
//! execution must be bit-for-bit equivalent (id-blind), so the comparison
//! is exact on the f64 bit patterns of spans, model coefficients, and
//! unmodeled values.
//!
//! [`run_case_with`] additionally threads the whole case through a plan
//! [`Optimizer`] first: engines 1 and 2 run the *optimized* plan (the
//! comparators stay anchored to the same ground truth, so any semantic
//! drift a pass introduces is caught), and when the optimized plan is
//! still not partitionable the third engine becomes the partition-rewrite
//! [`HybridRuntime`] — run at 1 and 4 shards and compared bit-exactly,
//! since the hybrid merge order is shard-count-invariant by design.

use crate::plangen::{branch_slots, residual, AggSpec, JoinSpec, Shape, Step};
use crate::streamgen::Case;
use pulse_core::{
    CGroupBy, CMinMax, COperator, CPlan, CSumAvg, Heuristic, HybridRuntime, Predictor,
    PulseRuntime, RuntimeConfig, ShardError,
};
use pulse_model::{Pred, Segment, Tuple};
use pulse_stream::{
    fingerprint, partition_rewrite, AggFunc, Calibration, HybridPlan, KeyJoin, LogicalOp,
    LogicalPlan, Optimizer, ToleranceModel,
};
use pulse_workload::{tracks, TrackSet};

/// How a case failed: enough context to reproduce and diagnose.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    pub seed: u64,
    pub stage: &'static str,
    pub detail: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "case seed {} failed at stage `{}`:", self.seed, self.stage)?;
        writeln!(f, "  {}", self.detail)?;
        write!(
            f,
            "  replay: add the seed to crates/qa/corpus/*.seed or run Case::from_seed({})",
            self.seed
        )
    }
}

/// What a passing case exercised (aggregated by the test driver to assert
/// the suite actually covered every operator kind and comparator).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    pub partitionable: bool,
    /// Discrete passthrough outputs value-checked against continuous models.
    pub value_points: usize,
    /// Grid instants checked for coverage agreement (noise-free cases).
    pub coverage_points: usize,
    /// Join matches checked (both directions).
    pub join_points: usize,
    /// Min/max window closes compared.
    pub minmax_points: usize,
    /// Sum/avg window closes compared.
    pub sumavg_points: usize,
    /// Sharded output segments compared bit-exactly.
    pub shard_outputs: usize,
    /// Instants skipped as within tolerance of a decision boundary.
    pub skipped: usize,
    /// Optimizer runs only: how often predicate pushdown fired.
    pub pushdown_fires: u64,
    /// Optimizer runs only: how often projection pruning fired.
    pub prune_fires: u64,
    /// Optimizer runs only: the partition rewrite carried the third engine.
    pub partition_fire: bool,
    /// Hybrid merge-stage output segments compared across shard counts.
    pub hybrid_outputs: usize,
}

/// A passed case's report plus the discrete engine's raw sink trace —
/// `opt_equiv` compares the trace bit-exactly between the optimized and
/// unoptimized runs (normalization must not change the discrete
/// interpretation at all).
pub struct CaseOutcome {
    pub report: CaseReport,
    pub disc: Vec<Tuple>,
}

/// Bit-exact identity of a discrete sink trace, in emission order.
pub fn tuple_trace(tuples: &[Tuple]) -> Vec<(u64, u64, Vec<u64>)> {
    tuples
        .iter()
        .map(|t| (t.key, t.ts.to_bits(), t.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

struct Batch {
    key: u64,
    ts: f64,
    outs: Vec<Segment>,
}

/// Result of evaluating a filter/map chain on ground truth at one instant.
struct ChainEval {
    /// Sink model-slot values.
    vals: Vec<f64>,
    /// Sensitivity (L1 coefficient mass) per slot: how much the value moves
    /// per unit of input perturbation. Scales every tolerance.
    sens: Vec<f64>,
    /// Worst filter margin, normalized to input units (positive ⇒ all
    /// filters robustly pass; negative ⇒ some filter robustly rejects).
    worst: f64,
}

fn eval_chain(tr: &TrackSet, key: u64, ts: f64, steps: &[Step]) -> ChainEval {
    let mut vals = vec![
        tr.truth(key, 0, ts),
        tr.slope(key, 0, ts),
        tr.truth(key, 1, ts),
        tr.slope(key, 1, ts),
    ];
    let mut sens: Vec<f64> = vec![1.0; 4];
    let mut worst = f64::INFINITY;
    for step in steps {
        match step {
            Step::Filter { attr, op, c } => {
                let m = residual(*op, vals[*attr], *c) / sens[*attr].max(1e-9);
                worst = worst.min(m);
            }
            Step::Map { rows } => {
                let new_vals: Vec<f64> = rows
                    .iter()
                    .map(|r| r.terms.iter().map(|(a, c)| c * vals[*a]).sum::<f64>() + r.c)
                    .collect();
                sens = rows
                    .iter()
                    .map(|r| r.terms.iter().map(|(a, c)| c.abs() * sens[*a]).sum::<f64>())
                    .collect();
                vals = new_vals;
            }
        }
    }
    let slots = branch_slots(steps);
    ChainEval {
        vals: slots.iter().map(|&a| vals[a]).collect(),
        sens: slots.iter().map(|&a| sens[a]).collect(),
        worst,
    }
}

/// A filter whose predicate normalizes to `true` has no system to solve,
/// so the compiled plan must hold no operator for it.
fn no_pass_through_operator(lp: &LogicalPlan, plan: &CPlan) -> Result<(), String> {
    for (i, n) in lp.nodes.iter().enumerate() {
        if let LogicalOp::Filter { pred } = &n.op {
            if pred.normalize() == Pred::True && plan.op(i).is_some() {
                return Err(format!("n{i}: a `true` filter compiled to an operator\n{lp}"));
            }
        }
    }
    Ok(())
}

fn agg_window_value(
    rt: &PulseRuntime,
    sink: usize,
    spec: &AggSpec,
    group: u64,
    close: f64,
) -> Option<f64> {
    let op: &dyn COperator = rt.plan().op(sink)?;
    let inner: &dyn COperator =
        if spec.grouped { op.as_any().downcast_ref::<CGroupBy>()?.group(group)? } else { op };
    match spec.func {
        AggFunc::Min | AggFunc::Max => {
            inner.as_any().downcast_ref::<CMinMax>()?.window_value(close)
        }
        _ => inner.as_any().downcast_ref::<CSumAvg>()?.window_value(close),
    }
}

/// Runs one case through all three engines and every applicable comparator.
pub fn run_case(case: &Case) -> Result<CaseReport, CaseFailure> {
    run_case_with(case, None).map(|o| o.report)
}

/// [`run_case`] with an optional plan optimizer in front of every engine.
/// The sink is re-located through the optimizer's node map; comparators
/// stay anchored to ground truth, so they hold the optimized plan to the
/// exact same contract as the original.
pub fn run_case_with(
    case: &Case,
    optimizer: Option<&Optimizer>,
) -> Result<CaseOutcome, CaseFailure> {
    let fail = |stage: &'static str, detail: String| CaseFailure { seed: case.seed, stage, detail };
    let (lp, sink, opt_stats) = {
        let (lp0, sink0) = case.plan.to_logical();
        match optimizer {
            None => (lp0, sink0, None),
            Some(o) => {
                let optd = o.run(&lp0);
                let sink = optd.node_map[sink0];
                (optd.plan, sink, Some(optd.stats))
            }
        }
    };
    let tr = TrackSet::generate(case.stream.tracks.clone(), case.stream.duration);
    let tuples = tr.tuples();
    let dt = case.stream.tracks.sample_dt;
    let noise = case.stream.tracks.noise;
    let bound = case.stream.bound;
    let horizon = case.stream.horizon;
    let max_slope = case.stream.tracks.max_slope;
    let breaks = tr.breakpoints();

    let cfg = RuntimeConfig {
        horizon,
        bound,
        heuristic: Heuristic::Equi,
        trace_capacity: 0,
        ..Default::default()
    };
    let predictors = || vec![Predictor::Clause(tracks::stream_model())];
    let mut rt = PulseRuntime::with_predictors(predictors(), &lp, cfg.clone())
        .map_err(|e| fail("compile", format!("continuous transform failed: {e}\n{lp}")))?;
    no_pass_through_operator(&lp, rt.plan()).map_err(|d| fail("compile", d))?;
    let mut disc = pulse_stream::Plan::compile(&lp);

    // ---- interleaved drive: single-threaded continuous + discrete -------
    let mut batches: Vec<Batch> = Vec::new();
    let mut cont_all: Vec<Segment> = Vec::new();
    let mut disc_out: Vec<Tuple> = Vec::new();
    // Every discrete sink tuple in emission order, agg or not — the
    // bit-exact identity `opt_equiv` compares across optimizer modes.
    let mut disc_trace: Vec<Tuple> = Vec::new();
    // Aggregate closes captured interleaved, because the continuous
    // operators expire state older than `now − width`: (group, close,
    // discrete value, continuous window value at capture time).
    let mut agg_pairs: Vec<(u64, f64, f64, Option<f64>)> = Vec::new();
    let agg_spec = match &case.plan.shape {
        Shape::Agg(a) => Some(a.clone()),
        _ => None,
    };
    for t in &tuples {
        let suppressed_before = rt.stats().suppressed;
        let outs = rt.on_tuple(0, t);
        if rt.stats().suppressed == suppressed_before {
            // Not the fast path ⇒ this tuple re-modeled and re-solved; its
            // (possibly empty) output batch supersedes earlier claims for
            // this key from now on.
            batches.push(Batch { key: t.key, ts: t.ts, outs: outs.clone() });
        }
        cont_all.extend(outs);
        for d in disc.push(0, t) {
            disc_trace.push(d.clone());
            if let Some(spec) = &agg_spec {
                let qv = agg_window_value(&rt, sink, spec, d.key, d.ts);
                agg_pairs.push((d.key, d.ts, d.values[0], qv));
            } else {
                disc_out.push(d);
            }
        }
    }
    let last_ts = tuples.last().map(|t| t.ts).unwrap_or(0.0);
    let stats = rt.stats();
    if stats.model_errors != 0 {
        return Err(fail(
            "drive",
            format!("{} model errors with an exact MODEL clause", stats.model_errors),
        ));
    }

    let mut report = CaseReport { partitionable: lp.is_key_partitionable(), ..Default::default() };
    // The shared tolerance budget (also used by the runtime's live
    // auditor): ε, horizon, and the stream calibration.
    let tolm = ToleranceModel {
        bound,
        horizon,
        cal: Calibration { noise, max_slope, sample_dt: dt, max_abs: tr.max_abs() + noise },
    };
    match &case.plan.shape {
        Shape::Chain { steps } => {
            chain_forward(&tolm, &tr, steps, &disc_out, &batches, &mut report, &|s, d| fail(s, d))?;
            if noise == 0.0 {
                chain_converse(
                    &tolm,
                    &tr,
                    steps,
                    &tuples,
                    &disc_out,
                    &batches,
                    &mut report,
                    &|s, d| fail(s, d),
                )?;
            }
        }
        Shape::Join(j) => {
            join_forward(&tolm, &tr, j, &disc_out, &cont_all, &mut report, &|s, d| fail(s, d))?;
            if noise == 0.0 {
                join_converse(
                    &tolm,
                    &tr,
                    j,
                    &disc_out,
                    &tuples,
                    case.stream.tracks.keys,
                    &mut report,
                    &|s, d| fail(s, d),
                )?;
            }
        }
        Shape::Agg(a) => {
            let minmax = matches!(a.func, AggFunc::Min | AggFunc::Max);
            // Pre-map sensitivity: the tolerance model is calibrated in raw
            // input units, so aggregate values over a mapped attribute are
            // normalized back by the (data-independent) L1 coefficient mass
            // before comparison. Pre-maps carry no additive offset, so the
            // rescaled values really are input-unit quantities.
            let pre_slots = branch_slots(&a.pre);
            let sens = eval_chain(&tr, 0, 0.0, &a.pre).sens[a.axis % pre_slots.len()].max(1e-9);
            for (_, close, dv, qv) in &agg_pairs {
                if close - a.width < -1e-9 || *close > last_ts + 1e-9 {
                    continue;
                }
                // The envelope keeps no retractions: predictions made
                // just before a slope break stay in it until their
                // horizon runs out, so only break-free windows compare.
                if minmax && tolm.window_disturbed(*close, a.width, &breaks) {
                    report.skipped += 1;
                    continue;
                }
                let Some(qv) = qv else {
                    report.skipped += 1;
                    continue;
                };
                let Some(c) = tolm.compare_agg(a.func, a.width, *dv / sens, *qv / sens) else {
                    report.skipped += 1;
                    continue;
                };
                if c.is_breach() {
                    return Err(fail(
                        if minmax { "minmax" } else { "sumavg" },
                        format!(
                            "{:?} window closing at {close:.3}: deviation {:.6} vs continuous {qv:.6} (tol {:.6})",
                            a.func, c.deviation, c.allowance
                        ),
                    ));
                }
                if minmax {
                    report.minmax_points += 1;
                } else {
                    report.sumavg_points += 1;
                }
            }
        }
    }

    if let Some(ps) = &opt_stats {
        for p in ps {
            match p.name {
                "pushdown" => report.pushdown_fires = p.applied,
                "prune" => report.prune_fires = p.applied,
                _ => {}
            }
        }
    }

    // ---- engine 3: sharded run, partition-rewrite hybrid, or fallback ---
    // In optimizer mode a non-partitionable plan goes through the partition
    // rewrite; only when even that declines do we accept the wholesale
    // single-threaded fallback.
    if optimizer.is_some() && lp.key_partition_violation().is_some() {
        if let Some(hp) = partition_rewrite(&lp) {
            report.partition_fire = true;
            run_hybrid_engine(
                case,
                &hp,
                &tuples,
                &cfg,
                predictors,
                &tolm,
                &tr,
                &disc_out,
                &mut report,
            )?;
        } else {
            run_third_engine(case, &lp, &tuples, &cont_all, &stats, &cfg, predictors, &mut report)?;
        }
    } else {
        run_third_engine(case, &lp, &tuples, &cont_all, &stats, &cfg, predictors, &mut report)?;
    }
    Ok(CaseOutcome { report, disc: disc_trace })
}

/// Drives the partition-rewritten [`HybridRuntime`] at 1 and 4 shards and
/// requires bit-exact agreement: per-key state is isolated in the prefix
/// and the merge drains branches in canonical order, so the shard count
/// must be unobservable in both outputs and stats. Join shapes get an
/// extra truth anchor: every robust discrete match must be covered by a
/// hybrid output segment.
#[allow(clippy::too_many_arguments)]
fn run_hybrid_engine(
    case: &Case,
    hp: &HybridPlan,
    tuples: &[Tuple],
    cfg: &RuntimeConfig,
    predictors: impl Fn() -> Vec<Predictor>,
    tolm: &ToleranceModel,
    tr: &TrackSet,
    disc_out: &[Tuple],
    report: &mut CaseReport,
) -> Result<(), CaseFailure> {
    let fail = |stage: &'static str, detail: String| CaseFailure { seed: case.seed, stage, detail };
    for b in &hp.branches {
        let plan = CPlan::compile(&b.plan)
            .map_err(|e| fail("hybrid", format!("branch transform failed: {e}\n{}", b.plan)))?;
        no_pass_through_operator(&b.plan, &plan).map_err(|d| fail("hybrid", d))?;
    }
    let mut runs = Vec::new();
    for shards in [1usize, 4] {
        let mut h = HybridRuntime::new(predictors(), hp, cfg.clone(), shards).map_err(|e| {
            fail("hybrid", format!("rewritten plan rejected at {shards} shards: {e}"))
        })?;
        // Sync often enough that merge-stage windows see fresh branch
        // output within a QA case's short duration.
        h.set_sync_every(128);
        for t in tuples {
            h.on_tuple(0, t);
        }
        runs.push(h.finish());
    }
    let four = runs.pop().expect("two hybrid runs");
    let one = runs.pop().expect("two hybrid runs");
    if one.stats != four.stats {
        return Err(fail(
            "hybrid",
            format!("stats diverge across shard counts: 1×{:?} vs 4×{:?}", one.stats, four.stats),
        ));
    }
    if fingerprint(&one.outputs) != fingerprint(&four.outputs) {
        return Err(fail(
            "hybrid",
            format!(
                "merge outputs diverge across shard counts: {} segments at 1 shard vs {} at 4",
                one.outputs.len(),
                four.outputs.len()
            ),
        ));
    }
    report.hybrid_outputs = one.outputs.len();
    if let Shape::Join(j) = &case.plan.shape {
        // Truth anchor: every robust discrete match the forward comparator
        // accepts for the single-threaded engine must also be covered by a
        // hybrid merge output segment.
        join_forward(tolm, tr, j, disc_out, &one.outputs, report, &fail)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_third_engine(
    case: &Case,
    lp: &LogicalPlan,
    tuples: &[Tuple],
    cont_all: &[Segment],
    stats: &pulse_core::RuntimeStats,
    cfg: &RuntimeConfig,
    predictors: impl Fn() -> Vec<Predictor>,
    report: &mut CaseReport,
) -> Result<(), CaseFailure> {
    let fail = |stage: &'static str, detail: String| CaseFailure { seed: case.seed, stage, detail };
    match lp.key_partition_violation() {
        None => {
            let mut sh = HybridRuntime::partitioned(predictors(), lp, cfg.clone(), 4)
                .map_err(|e| fail("shard", format!("partitionable plan rejected: {e}")))?;
            for t in tuples {
                sh.on_tuple(0, t);
            }
            let merged = sh.finish();
            if merged.stats != *stats {
                return Err(fail(
                    "shard",
                    format!("stats diverge: sharded {:?} vs single {:?}", merged.stats, stats),
                ));
            }
            let (a, b) = (fingerprint(&merged.outputs), fingerprint(cont_all));
            if a != b {
                return Err(fail(
                    "shard",
                    format!(
                        "output multisets diverge: sharded {} segments vs single {}",
                        merged.outputs.len(),
                        cont_all.len()
                    ),
                ));
            }
            report.shard_outputs = merged.outputs.len();
        }
        Some(v) => {
            match HybridRuntime::partitioned(predictors(), lp, cfg.clone(), 4) {
                Err(ShardError::NotPartitionable(pv)) => {
                    if pv != v {
                        return Err(fail(
                            "shard",
                            format!("violation mismatch: builder said {pv}, plan said {v}"),
                        ));
                    }
                }
                Err(e) => return Err(fail("shard", format!("wrong error: {e}"))),
                Ok(_) => {
                    return Err(fail(
                        "shard",
                        format!("non-partitionable plan accepted (violation: {v})"),
                    ))
                }
            }
            // The documented fallback is a single-threaded run; it must be
            // deterministic — bit-identical to the first run.
            let mut rt2 = PulseRuntime::with_predictors(predictors(), lp, cfg.clone())
                .map_err(|e| fail("shard", format!("fallback compile failed: {e}")))?;
            let mut outs2 = Vec::new();
            for t in tuples {
                outs2.extend(rt2.on_tuple(0, t));
            }
            if rt2.stats() != *stats {
                return Err(fail("shard", "fallback run stats diverge".into()));
            }
            if fingerprint(&outs2) != fingerprint(cont_all) {
                return Err(fail("shard", "fallback run outputs diverge".into()));
            }
            report.shard_outputs = outs2.len();
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn chain_forward(
    tolm: &ToleranceModel,
    tr: &TrackSet,
    steps: &[Step],
    disc_out: &[Tuple],
    batches: &[Batch],
    report: &mut CaseReport,
    fail: &dyn Fn(&'static str, String) -> CaseFailure,
) -> Result<(), CaseFailure> {
    let gate = tolm.margin_gate();
    let breaks = tr.breakpoints();
    let slots = branch_slots(steps);
    for d in disc_out {
        if tolm.near_breakpoint(d.ts, &breaks) {
            report.skipped += 1;
            continue;
        }
        let ev = eval_chain(tr, d.key, d.ts, steps);
        if ev.worst < -gate {
            return Err(fail(
                "chain-forward",
                format!(
                    "discrete engine emitted a robustly-rejected tuple (key {}, t={:.3}, margin {:.3})",
                    d.key, d.ts, ev.worst
                ),
            ));
        }
        if ev.worst < gate {
            report.skipped += 1;
            continue;
        }
        let Some(b) = batches.iter().rev().find(|b| b.key == d.key && b.ts <= d.ts + 1e-9) else {
            return Err(fail(
                "chain-forward",
                format!(
                    "discrete output at t={:.3} key {} precedes any continuous solve",
                    d.ts, d.key
                ),
            ));
        };
        if tolm.beyond_horizon(d.ts, b.ts) {
            report.skipped += 1;
            continue;
        }
        let Some(seg) = b.outs.iter().find(|s| s.key == d.key && s.span.contains(d.ts)) else {
            return Err(fail(
                "chain-forward",
                format!(
                    "robustly-passing tuple (key {}, t={:.3}, margin {:.3}) not covered by the continuous result",
                    d.key, d.ts, ev.worst
                ),
            ));
        };
        for (slot, (truth, sens)) in ev.vals.iter().zip(&ev.sens).enumerate() {
            let tol = tolm.model_value_tol(*sens);
            let cv = seg.eval(slot, d.ts);
            if (cv - truth).abs() > tol {
                return Err(fail(
                    "chain-forward",
                    format!(
                        "continuous model slot {slot} at t={:.3} key {}: {cv:.6} vs truth {truth:.6} (tol {tol:.6})",
                        d.ts, d.key
                    ),
                ));
            }
            let dv = d.values[slots[slot]];
            let dtol = tolm.discrete_value_tol(*sens);
            if (dv - truth).abs() > dtol {
                return Err(fail(
                    "chain-forward",
                    format!(
                        "discrete value slot {slot} at t={:.3} key {}: {dv:.6} vs truth {truth:.6} (tol {dtol:.6})",
                        d.ts, d.key
                    ),
                ));
            }
        }
        report.value_points += 1;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn chain_converse(
    tolm: &ToleranceModel,
    tr: &TrackSet,
    steps: &[Step],
    tuples: &[Tuple],
    disc_out: &[Tuple],
    batches: &[Batch],
    report: &mut CaseReport,
    fail: &dyn Fn(&'static str, String) -> CaseFailure,
) -> Result<(), CaseFailure> {
    // Only runs on noise-free cases, where the margin gate reduces to
    // 3ε + slope·dt.
    let dt = tolm.cal.sample_dt;
    let gate = tolm.margin_gate();
    let horizon = tolm.horizon;
    let breaks = tr.breakpoints();
    // Discrete chains pass tuples through unchanged, so a robustly-passing
    // grid instant must have a matching discrete output (and vice versa).
    let disc_set: std::collections::HashSet<(u64, i64)> =
        disc_out.iter().map(|d| (d.key, (d.ts / dt).round() as i64)).collect();
    for t in tuples {
        if tolm.near_breakpoint(t.ts, &breaks) {
            report.skipped += 1;
            continue;
        }
        let ev = eval_chain(tr, t.key, t.ts, steps);
        let b = batches.iter().rev().find(|b| b.key == t.key && b.ts <= t.ts + 1e-9);
        let in_disc = disc_set.contains(&(t.key, (t.ts / dt).round() as i64));
        if ev.worst > gate {
            if !in_disc {
                return Err(fail(
                    "chain-converse",
                    format!(
                        "discrete engine dropped a robustly-passing tuple (key {}, t={:.3}, margin {:.3})",
                        t.key, t.ts, ev.worst
                    ),
                ));
            }
            let Some(b) = b else {
                return Err(fail(
                    "chain-converse",
                    format!("no continuous solve for key {} by t={:.3}", t.key, t.ts),
                ));
            };
            if tolm.beyond_horizon(t.ts, b.ts) {
                report.skipped += 1;
                continue;
            }
            if !b.outs.iter().any(|s| s.key == t.key && s.span.contains(t.ts)) {
                return Err(fail(
                    "chain-converse",
                    format!(
                        "robustly-passing instant (key {}, t={:.3}, margin {:.3}) missing from continuous coverage",
                        t.key, t.ts, ev.worst
                    ),
                ));
            }
            report.coverage_points += 1;
        } else if ev.worst < -gate {
            if in_disc {
                return Err(fail(
                    "chain-converse",
                    format!(
                        "discrete engine kept a robustly-rejected tuple (key {}, t={:.3}, margin {:.3})",
                        t.key, t.ts, ev.worst
                    ),
                ));
            }
            if let Some(b) = b {
                if t.ts <= b.ts + horizon
                    && b.outs.iter().any(|s| {
                        s.key == t.key && s.span.lo + 1e-6 < t.ts && t.ts < s.span.hi - 1e-6
                    })
                {
                    return Err(fail(
                        "chain-converse",
                        format!(
                            "robustly-rejected instant (key {}, t={:.3}, margin {:.3}) covered by continuous output",
                            t.key, t.ts, ev.worst
                        ),
                    ));
                }
            }
            report.coverage_points += 1;
        } else {
            report.skipped += 1;
        }
    }
    Ok(())
}

fn decode_pair(on: KeyJoin, okey: u64) -> (u64, u64) {
    match on {
        KeyJoin::Eq => (okey, okey),
        KeyJoin::Any | KeyJoin::Ne => (okey >> 32, okey & 0xFFFF_FFFF),
    }
}

#[allow(clippy::too_many_arguments)]
fn join_forward(
    tolm: &ToleranceModel,
    tr: &TrackSet,
    j: &JoinSpec,
    disc_out: &[Tuple],
    cont_all: &[Segment],
    report: &mut CaseReport,
    fail: &dyn Fn(&'static str, String) -> CaseFailure,
) -> Result<(), CaseFailure> {
    let dt = tolm.cal.sample_dt;
    let gate = tolm.margin_gate();
    let breaks = tr.breakpoints();
    for d in disc_out {
        if tolm.near_breakpoint(d.ts, &breaks) {
            report.skipped += 1;
            continue;
        }
        let (lk, rk) = decode_pair(j.on, d.key);
        let le = eval_chain(tr, lk, d.ts, &j.left);
        let re = eval_chain(tr, rk, d.ts, &j.right);
        if le.worst < gate || re.worst < gate {
            report.skipped += 1;
            continue;
        }
        let jsens = (le.sens[j.lslot] + re.sens[j.rslot]).max(1e-9);
        let jr = residual(j.op, le.vals[j.lslot], re.vals[j.rslot]) / jsens;
        if jr < -gate {
            // Both branches robustly pass yet truth robustly rejects the
            // join predicate at this instant: the match can only have come
            // from a stale buffered tuple whose value drifted across the
            // boundary — excluded by the window-wide margin below — or a
            // real bug. Gate on the worst residual over the buffer window
            // before declaring failure.
            let worst_window = (0..=(j.window / dt).ceil() as usize)
                .map(|k| {
                    let t0 = (d.ts - k as f64 * dt).max(0.0);
                    let l0 = eval_chain(tr, lk, t0, &j.left);
                    let r0 = eval_chain(tr, rk, t0, &j.right);
                    residual(j.op, l0.vals[j.lslot], re.vals[j.rslot]).max(residual(
                        j.op,
                        le.vals[j.lslot],
                        r0.vals[j.rslot],
                    )) / jsens
                })
                .fold(f64::NEG_INFINITY, f64::max);
            if worst_window < -gate {
                return Err(fail(
                    "join-forward",
                    format!(
                        "discrete join emitted a robustly-rejected match (keys {lk}⋈{rk}, t={:.3}, margin {jr:.3})",
                        d.ts
                    ),
                ));
            }
            report.skipped += 1;
            continue;
        }
        if jr < gate {
            report.skipped += 1;
            continue;
        }
        let pad = 2.0 * dt;
        if !cont_all
            .iter()
            .any(|s| s.key == d.key && s.span.lo - pad <= d.ts && d.ts <= s.span.hi + pad)
        {
            return Err(fail(
                "join-forward",
                format!(
                    "robust discrete match (keys {lk}⋈{rk}, t={:.3}, margin {jr:.3}) not covered by any continuous join segment",
                    d.ts
                ),
            ));
        }
        report.join_points += 1;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn join_converse(
    tolm: &ToleranceModel,
    tr: &TrackSet,
    j: &JoinSpec,
    disc_out: &[Tuple],
    tuples: &[Tuple],
    keys: u64,
    report: &mut CaseReport,
    fail: &dyn Fn(&'static str, String) -> CaseFailure,
) -> Result<(), CaseFailure> {
    let dt = tolm.cal.sample_dt;
    let gate = tolm.margin_gate();
    let breaks = tr.breakpoints();
    let disc_set: std::collections::HashSet<(u64, i64)> =
        disc_out.iter().map(|d| (d.key, (d.ts / dt).round() as i64)).collect();
    let mut grid: Vec<f64> = Vec::new();
    for t in tuples {
        if grid.last().map(|g| (g - t.ts).abs() > 1e-9).unwrap_or(true) {
            grid.push(t.ts);
        }
    }
    for &ts in &grid {
        if tolm.near_breakpoint(ts, &breaks) {
            continue;
        }
        for lk in 0..keys {
            for rk in 0..keys {
                if !j.on.test(lk, rk) {
                    continue;
                }
                let le = eval_chain(tr, lk, ts, &j.left);
                let re = eval_chain(tr, rk, ts, &j.right);
                if le.worst < gate || re.worst < gate {
                    continue;
                }
                let jsens = (le.sens[j.lslot] + re.sens[j.rslot]).max(1e-9);
                if residual(j.op, le.vals[j.lslot], re.vals[j.rslot]) / jsens < gate {
                    continue;
                }
                let okey = j.on.output_key(lk, rk);
                if !disc_set.contains(&(okey, (ts / dt).round() as i64)) {
                    return Err(fail(
                        "join-converse",
                        format!("discrete join missed a robust match: keys {lk}⋈{rk} at t={ts:.3}"),
                    ));
                }
                report.join_points += 1;
            }
        }
    }
    Ok(())
}
