//! Overhead of the observability wiring on the suppressed-tuple fast path.
//!
//! The fast path is PulseRuntime's whole value proposition (validation
//! instead of solving), so instrumentation must not tax it: with
//! observability disabled the per-tuple cost is one relaxed atomic load,
//! and enabled it adds only a branch plus a 1-in-64 sampled latency
//! record — counter totals are published once per run from the plain
//! `RuntimeStats` fields, never incremented live on this path. The
//! `suppressed/obs_off` vs `suppressed/obs_on` results printed here should
//! land within ~5% of each other — judge by the mins (the medians on
//! shared hardware wobble by more than the ~2 ns effect being measured).
//! `scripts/check.sh` documents how to run this gate.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pulse_core::{PulseRuntime, RuntimeConfig};
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema, StreamModel, Tuple};
use pulse_stream::{LogicalOp, LogicalPlan, PortRef};

/// Runtime primed so every benched tuple is absorbed by validation alone;
/// `trace_capacity` > 0 gives it a flight-recorder ring.
fn suppressed_runtime(trace_capacity: usize) -> (PulseRuntime, Tuple) {
    let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
    let sm = StreamModel::new(
        schema.clone(),
        vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
    )
    .unwrap();
    let mut lp = LogicalPlan::new(vec![schema]);
    lp.add(
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-1e9)) },
        vec![PortRef::Source(0)],
    );
    let cfg = RuntimeConfig { horizon: 1e12, bound: 1.0, trace_capacity, ..Default::default() };
    let mut rt = PulseRuntime::new(vec![sm], &lp, cfg).unwrap();
    // First tuple installs the model and accuracy bound (the one solve).
    rt.on_tuple(0, &Tuple::new(1, 0.0, vec![0.0, 2.0]));
    // Exactly on-model at t = 1: validated and suppressed forever after.
    let t = Tuple::new(1, 1.0, vec![2.0, 2.0]);
    assert!(rt.on_tuple(0, &t).is_empty(), "bench tuple must be suppressed");
    (rt, t)
}

fn bench_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("suppressed");
    group.sample_size(100);

    let (mut rt, t) = suppressed_runtime(0);
    pulse_obs::set_enabled(false);
    group.bench_function("obs_off", |b| b.iter(|| black_box(rt.on_tuple(0, black_box(&t)).len())));
    // Everything except the initial model-installing tuple was suppressed.
    assert_eq!(rt.stats().suppressed + 1, rt.stats().tuples_in);

    let (mut rt, t) = suppressed_runtime(0);
    pulse_obs::set_enabled(true);
    group.bench_function("obs_on", |b| b.iter(|| black_box(rt.on_tuple(0, black_box(&t)).len())));
    pulse_obs::set_enabled(false);
    assert!(
        pulse_obs::global().histogram("runtime.fast_path_ns").count() > 0,
        "enabled runs must land in the fast-path histogram"
    );

    // Flight recorder on: every suppressed tuple records an arrival and a
    // validation verdict into the ring. This is the debugging posture, not
    // the production one — no gate, just visibility into the cost.
    let (mut rt, t) = suppressed_runtime(16_384);
    pulse_obs::set_enabled(true);
    group.bench_function("obs_on_trace", |b| {
        b.iter(|| black_box(rt.on_tuple(0, black_box(&t)).len()))
    });
    pulse_obs::set_enabled(false);
    assert!(!rt.tracer().is_empty(), "traced runs must land events in the ring");

    group.finish();
}

criterion_group!(benches, bench_fast_path);
criterion_main!(benches);
