//! End-to-end provenance: the flight recorder must explain real solves.
//!
//! Runs the MACD-shaped plan from the equivalence suite with tracing on and
//! checks the causal invariants the recorder promises: every `SolveEnd`
//! chains (via `SolveStart` → `Remodel`) to exactly one `ValidationOutcome`
//! whose observed slack exceeds the bound in force — solves only happen on
//! violations — and `explain()` reconstructs output ranges that match the
//! segments the runtime actually emitted. The sharded test exercises the
//! same query fanned to the owning worker over its channel.

use pulse_core::runtime::{Predictor, PulseRuntime, RuntimeConfig};
use pulse_core::HybridRuntime;
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, Pred, Schema, Tuple};
use pulse_obs::{set_trace_enabled, TraceEvent, TraceKind};
use pulse_stream::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// The trace flag is process-global; tests that flip it serialize here.
fn flag_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn schema() -> Schema {
    Schema::of(&[("price", AttrKind::Modeled)])
}

/// Same MACD shape as `shard_equiv`: two grouped averages joined on key
/// with `S.avg > L.avg`, projected to the divergence.
fn macd_plan() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema()]);
    let short = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: 1.0,
            slide: 0.5,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    let long = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: 3.0,
            slide: 0.5,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    let j = lp.add(
        LogicalOp::Join {
            window: 0.5,
            pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::attr_of(1, 0)),
            on_keys: KeyJoin::Eq,
        },
        vec![short, long],
    );
    lp.add(
        LogicalOp::Map {
            exprs: vec![Expr::attr(0) - Expr::attr(1)],
            schema: Schema::of(&[("diff", AttrKind::Modeled)]),
        },
        vec![j],
    );
    lp
}

fn config() -> RuntimeConfig {
    RuntimeConfig { horizon: 5.0, bound: 0.05, trace_capacity: 65536, ..Default::default() }
}

/// Noisy per-key price streams; the tick noise exceeds the bound so
/// validation keeps violating and the recorder sees plenty of solves.
fn tuples(keys: u64, rounds: usize) -> Vec<Tuple> {
    let mut rng: u64 = 0x1234_5678_9ABC_DEF0;
    let mut noise = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut out = Vec::with_capacity(keys as usize * rounds);
    for r in 0..rounds {
        let ts = r as f64 * 0.05;
        let phase = (ts / 4.0).fract();
        let tri = if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
        for key in 0..keys {
            let price = 50.0 + key as f64 + 2.0 * tri + 0.2 * noise();
            out.push(Tuple::new(key, ts, vec![price]));
        }
    }
    out
}

#[test]
fn every_solve_chains_to_a_violated_validation() {
    let _g = flag_lock();
    set_trace_enabled(true);
    let lp = macd_plan();
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
            .unwrap();
    let mut outs = Vec::new();
    for t in tuples(8, 160) {
        outs.extend(rt.on_tuple(0, &t));
    }
    set_trace_enabled(false);

    let by_id: HashMap<u64, &TraceEvent> = rt.tracer().events().map(|e| (e.id, e)).collect();
    let parent = |e: &TraceEvent| (e.parent != 0).then(|| by_id.get(&e.parent).copied()).flatten();

    let mut solve_ends = 0u64;
    for e in rt.tracer().events() {
        let TraceKind::SolveEnd { .. } = e.kind else { continue };
        solve_ends += 1;
        // Fixed chain shape: SolveEnd → SolveStart → Remodel →
        // ValidationOutcome → SegmentArrival → (root).
        let ss = parent(e).expect("SolveEnd retains its SolveStart");
        assert!(matches!(ss.kind, TraceKind::SolveStart { .. }), "{ss:?}");
        let rm = parent(ss).expect("SolveStart retains its Remodel");
        assert!(matches!(rm.kind, TraceKind::Remodel { .. }), "{rm:?}");
        let val = parent(rm).expect("Remodel retains its ValidationOutcome");
        let TraceKind::ValidationOutcome { slack, bound, ok } = val.kind else {
            panic!("Remodel parent must be a ValidationOutcome, got {val:?}");
        };
        assert!(!ok, "a solve must be caused by a violation: {val:?}");
        assert!(slack > bound, "violation means slack exceeds bound: {val:?}");
        // Exactly one validation per chain: the rest of the walk holds the
        // arrival and then the root, never another verdict.
        let arr = parent(val).expect("ValidationOutcome retains its arrival");
        assert!(matches!(arr.kind, TraceKind::SegmentArrival { .. }), "{arr:?}");
        assert!(parent(arr).is_none(), "arrival is the chain root: {arr:?}");
    }
    assert!(solve_ends > 8, "workload must actually solve: {solve_ends}");
    assert!(!outs.is_empty(), "join never fired");

    // explain() on a violating key reconstructs ranges the runtime really
    // emitted: every OutputEmit in the report matches an actual segment.
    let key = outs[0].key;
    let actual: Vec<(u64, u64, u64)> =
        outs.iter().map(|s| (s.key, s.span.lo.to_bits(), s.span.hi.to_bits())).collect();
    let rep = rt.explain(key, 0.0, 100.0);
    assert!(!rep.solves.is_empty(), "violating key must explain to a non-empty tree");
    let mut emitted = 0;
    for solve in &rep.solves {
        assert!(solve.validation.is_some(), "each solve carries its verdict");
        for o in &solve.outputs {
            let TraceKind::OutputEmit { lo, hi, ref sources, .. } = o.kind else {
                panic!("outputs hold OutputEmit events, got {o:?}");
            };
            assert!(
                actual.contains(&(o.key, lo.to_bits(), hi.to_bits())),
                "explain range [{lo}, {hi}] for key {} not among real outputs",
                o.key
            );
            assert!(!sources.is_empty(), "lineage must reach source segments");
            emitted += 1;
        }
    }
    assert!(emitted > 0, "at least one explained solve produced outputs");
}

#[test]
fn sharded_explain_reaches_the_owning_worker() {
    let _g = flag_lock();
    set_trace_enabled(true);
    let lp = macd_plan();
    let mut sharded =
        HybridRuntime::partitioned(vec![Predictor::AdaptiveLinear(schema())], &lp, config(), 4)
            .unwrap();
    for t in tuples(8, 120) {
        sharded.on_tuple(0, &t);
    }
    // Every key's first tuple is an unseen-key violation, so any key has at
    // least one solve to explain; the query flushes the owning shard first.
    let rep = sharded.explain(3, 0.0, 100.0);
    assert_eq!(rep.key, 3);
    assert!(!rep.solves.is_empty(), "shard must explain a key it processed");
    assert!(rep.solves.iter().all(|s| s.solve_end.key == 3));

    // The cloneable handle answers from another thread while the runtime
    // is still live, and reports the shutdown afterwards as `None`.
    let handle = sharded.explain_handle();
    let from_thread = std::thread::spawn({
        let h = handle.clone();
        move || h.explain(3, 0.0, 100.0)
    })
    .join()
    .unwrap();
    assert!(from_thread.is_some_and(|r| !r.solves.is_empty()));

    sharded.finish();
    set_trace_enabled(false);
    assert!(handle.explain(3, 0.0, 100.0).is_none(), "dead runtime explains nothing");
}

/// Edge cases: `explain()` must degrade to an empty (but well-formed)
/// report rather than panic or fabricate solves — for keys the runtime
/// never saw, keys that never violated inside the queried range, and
/// degenerate time ranges.
#[test]
fn explain_edge_cases_return_empty_reports() {
    let _g = flag_lock();
    set_trace_enabled(true);
    let lp = macd_plan();
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
            .unwrap();
    for t in tuples(4, 120) {
        rt.on_tuple(0, &t);
    }
    set_trace_enabled(false);

    // A key the stream never carried: nothing to explain.
    let rep = rt.explain(999, 0.0, 100.0);
    assert_eq!(rep.key, 999);
    assert!(rep.solves.is_empty(), "unseen key must explain to an empty tree");

    // A range entirely before the stream started: no solve can match.
    let rep = rt.explain(0, -50.0, -1.0);
    assert!(rep.solves.is_empty(), "pre-stream range must be empty");

    // An inverted range matches nothing (and must not panic).
    let rep = rt.explain(0, 80.0, 2.0);
    assert!(rep.solves.is_empty(), "inverted range must be empty");

    // The reports above still serialize (the `/explain` endpoint path).
    assert!(rt.explain(999, 0.0, 100.0).to_json().contains("\"solves\""));
}

/// A key whose model never violates after its initial unseen-key solve:
/// explaining a range past that first solve finds nothing, while the full
/// range finds exactly the initial solve.
#[test]
fn explain_zero_violation_key_reports_only_the_initial_solve() {
    let _g = flag_lock();
    set_trace_enabled(true);
    // Passthrough filter over a constant stream with a generous bound:
    // after each key's first tuple instantiates a model, every later
    // tuple validates and is suppressed — zero violations.
    let mut lp = LogicalPlan::new(vec![schema()]);
    lp.add(
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-1.0)) },
        vec![PortRef::Source(0)],
    );
    let cfg = RuntimeConfig { horizon: 100.0, bound: 5.0, ..config() };
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, cfg).unwrap();
    for round in 0..50 {
        for key in 0..3u64 {
            rt.on_tuple(0, &Tuple::new(key, round as f64 * 0.1, vec![7.0]));
        }
    }
    set_trace_enabled(false);
    let stats = rt.stats();
    assert_eq!(stats.violations, 0, "constant stream within bound must not violate");

    // Full range: exactly the unseen-key solve at t = 0.
    let rep = rt.explain(1, 0.0, 100.0);
    assert_eq!(rep.solves.len(), 1, "only the initial model instantiation solves");
    assert_eq!(rep.solves[0].solve_end.key, 1);

    // A range *inside* the initial model's coverage still explains to that
    // solve — its prediction is what covers the range — but a range beyond
    // everything the key's model ever claimed is violation-free and empty.
    let rep = rt.explain(1, 0.5, 99.0);
    assert_eq!(rep.solves.len(), 1, "covering solve explains the window it predicts");
    let rep = rt.explain(1, 150.0, 200.0);
    assert!(rep.solves.is_empty(), "range beyond all coverage must explain to nothing");
}
