//! Ablation studies for the design choices documented in DESIGN.md:
//!
//! 1. join state layout — linear scan vs the interval index (§VII's
//!    "segment indexing" future work) on a highly segmented stream;
//! 2. online segmentation residual check — exact full rescan vs the O(1)
//!    new-point check;
//! 3. equation-system solving — the all-equality linear fast path vs the
//!    general root-isolation path;
//! 4. bound-splitting heuristic — equi-split vs gradient split, measured by
//!    bound longevity (violations on the same workload).

use pulse_bench::{report, Params};
use pulse_core::cops::{CJoin, COperator, JoinState};
use pulse_core::runtime::Heuristic;
use pulse_core::{Binding, LineageStore, PulseRuntime, RuntimeConfig, System};
use pulse_math::{CmpOp, Poly, Span};
use pulse_model::{
    AttrKind, CheckMode, Expr, FitConfig, Pred, Schema, Segment, StreamFitter, Tuple,
};
use pulse_obs::Tracer;
use pulse_stream::KeyJoin;
use pulse_workload::{moving, MovingConfig, MovingObjectGen};
use std::time::Instant;

fn xschema() -> Schema {
    Schema::of(&[("x", AttrKind::Modeled)])
}

fn join_state_ablation() {
    let mut rows = Vec::new();
    for &n_segments in &[200usize, 1000, 4000] {
        // Highly segmented stream: short segments, a long join window so
        // the buffer holds everything.
        let mk_segments = |offset: f64| -> Vec<Segment> {
            (0..n_segments)
                .map(|i| {
                    let lo = i as f64 * 0.01 + offset;
                    Segment::single(
                        i as u64,
                        Span::new(lo, lo + 0.012),
                        Poly::linear(i as f64, 0.1),
                    )
                })
                .collect()
        };
        let (left, right) = (mk_segments(0.0), mk_segments(0.005));
        let mut cells = vec![report::fmt(n_segments as f64)];
        for state in [JoinState::Scan, JoinState::Indexed] {
            let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0));
            let mut j = CJoin::with_state(
                1e9, // never expire: stress the state size
                pred,
                KeyJoin::Any,
                [Binding::new(xschema()), Binding::new(xschema())],
                state,
            );
            let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
            let start = Instant::now();
            let mut out = Vec::new();
            for i in 0..n_segments {
                j.process(0, &left[i], &mut store, &mut tr, &mut out);
                j.process(1, &right[i], &mut store, &mut tr, &mut out);
                out.clear();
            }
            let secs = start.elapsed().as_secs_f64();
            cells.push(report::fmt(2.0 * n_segments as f64 / secs));
        }
        rows.push(cells);
    }
    report::table(
        "Ablation 1 — join state: scan vs interval index (segments/s)",
        &["buffered segs", "scan seg/s", "indexed seg/s"],
        &rows,
    );
}

fn fitting_ablation(p: &Params) {
    let tuples = MovingObjectGen::new(MovingConfig {
        objects: 20,
        sample_dt: 0.01,
        leg_duration: 5.0,
        noise: 0.05,
        seed: 14,
        ..Default::default()
    })
    .generate(p.duration.min(30.0));
    let mut rows = Vec::new();
    for (name, check) in [("full rescan", CheckMode::Full), ("new-point", CheckMode::NewPoint)] {
        let cfg = FitConfig { max_error: 0.5, check, ..Default::default() };
        let mut fitter = StreamFitter::new(cfg, vec![0, 2]);
        let start = Instant::now();
        let mut segments = 0;
        for t in &tuples {
            if fitter.push(t).is_some() {
                segments += 1;
            }
        }
        segments += fitter.finish().len();
        let secs = start.elapsed().as_secs_f64();
        rows.push(vec![
            name.to_string(),
            report::fmt(tuples.len() as f64 / secs),
            segments.to_string(),
        ]);
    }
    report::table(
        "Ablation 2 — segmentation residual check (tuples/s)",
        &["check", "throughput t/s", "segments"],
        &rows,
    );
}

fn solver_ablation() {
    // Same difference rows, once as equalities (fast path) and once as
    // inequalities (general path).
    let lookup = |i: usize, _: usize| -> Result<Poly, pulse_model::ExprError> {
        Ok(Poly::linear(i as f64, 1.0))
    };
    let mk_pred = |op: CmpOp| {
        Pred::cmp(Expr::attr_of(0, 0), op, Expr::c(5.0))
            .and(Pred::cmp(Expr::attr_of(0, 0), op, Expr::c(5.0)))
            .and(Pred::cmp(Expr::attr_of(0, 0), op, Expr::c(5.0)))
    };
    let domain = Span::new(0.0, 100.0);
    let mut rows = Vec::new();
    for (name, op) in [("equality (Gaussian path)", CmpOp::Eq), ("inequality (general)", CmpOp::Le)]
    {
        let sys = System::build(&mk_pred(op), &lookup).unwrap();
        let start = Instant::now();
        let mut n = 0u64;
        let reps = 200_000;
        for _ in 0..reps {
            let sol = sys.solve(domain, &mut n);
            std::hint::black_box(sol);
        }
        let secs = start.elapsed().as_secs_f64();
        rows.push(vec![name.to_string(), report::fmt(reps as f64 / secs)]);
    }
    report::table(
        "Ablation 3 — equation-system solve path (systems/s)",
        &["path", "solves/s"],
        &rows,
    );
}

fn split_ablation() {
    // A join of a fast, noisy stream with a slow, precise one: the output
    // bound must be apportioned across both inputs. Equi-split gives each
    // half; gradient split gives the fast mover the larger share — which
    // matches where the error actually is, so its allocations live longer
    // ("improving the longevity of the bounds", §IV-C).
    let fast = MovingObjectGen::new(MovingConfig {
        objects: 5,
        sample_dt: 0.1,
        leg_duration: 10.0,
        max_speed: 10.0,
        noise: 0.45,
        seed: 6,
    })
    .generate(120.0);
    let slow = MovingObjectGen::new(MovingConfig {
        objects: 5,
        sample_dt: 0.1,
        leg_duration: 10.0,
        max_speed: 0.3,
        noise: 0.005,
        seed: 7,
    })
    .generate(120.0);
    let mut lp = pulse_stream::LogicalPlan::new(vec![moving::schema(), moving::schema()]);
    lp.add(
        pulse_stream::LogicalOp::Join { window: 5.0, pred: Pred::True, on_keys: KeyJoin::Any },
        vec![pulse_stream::PortRef::Source(0), pulse_stream::PortRef::Source(1)],
    );
    let mut rows = Vec::new();
    for (name, heuristic) in [("equi-split", Heuristic::Equi), ("gradient", Heuristic::Gradient)] {
        let mut rt = PulseRuntime::new(
            vec![moving::stream_model(), moving::stream_model()],
            &lp,
            RuntimeConfig { horizon: 10.0, bound: 1.0, heuristic, ..Default::default() },
        )
        .unwrap();
        for i in 0..fast.len().min(slow.len()) {
            rt.on_tuple(0, &Tuple::new(fast[i].key, fast[i].ts, fast[i].values.clone()));
            rt.on_tuple(1, &Tuple::new(slow[i].key, slow[i].ts, slow[i].values.clone()));
        }
        let s = rt.stats();
        rows.push(vec![
            name.to_string(),
            s.violations.to_string(),
            s.suppressed.to_string(),
            format!("{:.4}", s.violations as f64 / s.tuples_in as f64),
        ]);
    }
    report::table(
        "Ablation 4 — bound split heuristic (violations = shorter bound longevity)",
        &["heuristic", "violations", "suppressed", "violations/tuple"],
        &rows,
    );
}

fn main() {
    let p = Params::from_env();
    report::begin_telemetry();
    join_state_ablation();
    fitting_ablation(&p);
    solver_ablation();
    split_ablation();

    report::end_telemetry("ablation");
}
