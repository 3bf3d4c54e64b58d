//! Visit counts of the violation-path profiler against the runtime's own
//! counters, on a fixed MACD drive with profiling on: per tuple and
//! batched, each with the flight recorder off and on.
//!
//! The counts pin down where each phase begins: one `RemodelFit` per
//! re-model, one `Solve` per pushed segment, one `RootIsolate` per system
//! the join solves, one `TemplateSubstitute` per join system and map
//! projection. Batched execution is exactly equivalent to per-tuple
//! execution, so every phase but the batch queue's own has the same count
//! in all four runs.
//!
//! This is the only test in its binary: it turns the process-wide
//! profiler flag on and never off.

use pulse_core::runtime::{Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, Pred, Schema, Tuple};
use pulse_obs::{Phase, PhaseTable};
use pulse_stream::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};

fn schema() -> Schema {
    Schema::of(&[("price", AttrKind::Modeled)])
}

/// Short and long grouped averages joined on key with `S.avg > L.avg`,
/// projected to the divergence. Node indices: 0 and 1 the averages, 2 the
/// join, 3 the map.
fn macd_plan() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema()]);
    let avg = |width| LogicalOp::Aggregate {
        func: AggFunc::Avg,
        attr: 0,
        width,
        slide: 0.5,
        group_by_key: true,
    };
    let short = lp.add(avg(1.0), vec![PortRef::Source(0)]);
    let long = lp.add(avg(3.0), vec![PortRef::Source(0)]);
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

/// Noisy per-key triangle waves: the tick noise exceeds the bound, so
/// validation keeps failing and the solver runs often.
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

struct Run {
    stats: RuntimeStats,
    phases: PhaseTable,
    join_solved: u64,
    map_in: u64,
}

fn drive(batched: bool, trace_capacity: usize) -> Run {
    let cfg = RuntimeConfig { horizon: 5.0, bound: 0.05, trace_capacity, ..Default::default() };
    let lp = macd_plan();
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, cfg).unwrap();
    assert!(rt.batchable());
    let input = tuples(12, 200);
    if batched {
        for chunk in input.chunks(64) {
            rt.on_batch(0, chunk);
        }
    } else {
        for t in &input {
            rt.on_tuple(0, t);
        }
    }
    Run {
        stats: rt.stats(),
        phases: *rt.phases(),
        join_solved: rt.plan().node_metrics(2).systems_solved,
        map_in: rt.plan().node_metrics(3).items_in,
    }
}

#[test]
fn phase_visits_match_the_runtime_counters() {
    pulse_obs::set_prof_enabled(true);
    let runs: Vec<(&str, Run)> = vec![
        ("per tuple", drive(false, 0)),
        ("per tuple, recorder on", drive(false, 1 << 16)),
        ("batched", drive(true, 0)),
        ("batched, recorder on", drive(true, 1 << 16)),
    ];
    // Every phase the batch queue does not own has one count in all runs.
    let shared = [
        Phase::RemodelFit,
        Phase::TemplateSubstitute,
        Phase::RootIsolate,
        Phase::SolveAssemble,
        Phase::SolveSturm,
        Phase::SolveRefine,
        Phase::Solve,
        Phase::Slack,
    ];
    let counts = |r: &Run| shared.map(|p| r.phases.count(p));
    for (name, r) in &runs {
        let (s, p) = (&r.stats, &r.phases);
        assert!(s.violations > 100 && s.outputs > 0, "{name}: the drive must solve: {s:?}");
        assert_eq!(s.model_errors, 0, "{name}");
        assert_eq!(p.count(Phase::RemodelFit), s.segments_pushed + s.model_errors, "{name}");
        assert_eq!(p.count(Phase::Solve), s.segments_pushed, "{name}");
        assert_eq!(p.count(Phase::RootIsolate), r.join_solved, "{name}");
        assert_eq!(p.count(Phase::TemplateSubstitute), r.join_solved + r.map_in, "{name}");
        assert_eq!(p.count(Phase::SolveSturm), p.count(Phase::SolveRefine), "{name}");
        assert!(p.count(Phase::Slack) <= p.count(Phase::Solve), "{name}");
        for phase in Phase::ALL {
            assert!(p.ns(phase) == 0 || p.count(phase) > 0, "{name}: {phase:?} time, no visit");
        }
        assert_eq!(counts(r), counts(&runs[0].1), "{name}: counts differ from per tuple");
        assert_eq!(s.segments_pushed, runs[0].1.stats.segments_pushed, "{name}");
    }
    // Per tuple there is no batch queue; batched runs drain it.
    for (name, r) in &runs[..2] {
        assert_eq!(r.phases.count(Phase::SolveBatchDrain), 0, "{name}");
    }
    for (name, r) in &runs[2..] {
        assert!(r.phases.count(Phase::SolveBatchDrain) > 0, "{name}");
    }
    // One result installation per solve (pinned with the recorder off,
    // where no recorder work shares the cell).
    for (name, r) in [&runs[0], &runs[2]] {
        assert_eq!(r.phases.count(Phase::Emit), r.phases.count(Phase::Solve), "{name}");
    }
}
