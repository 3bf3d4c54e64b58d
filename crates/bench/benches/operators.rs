//! Criterion micro-benchmarks for the per-item costs behind Figures 5 & 7:
//! equation-system solving, per-tuple discrete operator costs, validation
//! checks, model fitting, and lineage bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pulse_bench::{queries, run_discrete, run_predictive};
use pulse_core::validate::{Bound, BoundInverter, EquiSplit};
use pulse_core::LineageStore;
use pulse_math::{poly_roots_in, Poly, Span};
use pulse_model::{CheckMode, FitConfig, Segment, SegmentId, StreamFitter};
use pulse_workload::{moving, MovingConfig, MovingObjectGen};

fn workload(tps: f64, duration: f64) -> Vec<pulse_model::Tuple> {
    MovingObjectGen::new(MovingConfig {
        objects: 10,
        sample_dt: 0.1,
        leg_duration: tps * 0.1,
        seed: 1,
        ..Default::default()
    })
    .generate(duration)
}

fn bench_root_finding(c: &mut Criterion) {
    let mut g = c.benchmark_group("roots");
    let quad = Poly::new(vec![16.0, -10.0, 1.0]);
    g.bench_function("quadratic", |b| {
        b.iter(|| poly_roots_in(std::hint::black_box(&quad), 0.0, 10.0, 1e-10))
    });
    let quartic = Poly::new(vec![6.0, -5.0, -7.0, 3.0, 1.0]);
    g.bench_function("quartic", |b| {
        b.iter(|| poly_roots_in(std::hint::black_box(&quartic), -10.0, 10.0, 1e-10))
    });
    g.finish();
}

fn bench_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("filter");
    g.sample_size(10);
    for tps in [50.0, 500.0] {
        let tuples = workload(tps, 20.0);
        let lp = queries::micro::filter(0.0);
        g.bench_with_input(BenchmarkId::new("discrete", tps as u64), &tuples, |b, t| {
            b.iter(|| run_discrete(&lp, &[(0, t)]))
        });
        g.bench_with_input(BenchmarkId::new("pulse", tps as u64), &tuples, |b, t| {
            b.iter(|| run_predictive(&lp, vec![moving::stream_model()], &[(0, t)], 1.0, tps * 0.1))
        });
    }
    g.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregate_min");
    g.sample_size(10);
    let tuples = workload(150.0, 20.0);
    for window in [10.0, 60.0] {
        let lp = queries::micro::min_agg(window, 2.0);
        g.bench_with_input(BenchmarkId::new("discrete", window as u64), &tuples, |b, t| {
            b.iter(|| run_discrete(&lp, &[(0, t)]))
        });
        g.bench_with_input(BenchmarkId::new("pulse", window as u64), &tuples, |b, t| {
            b.iter(|| run_predictive(&lp, vec![moving::stream_model()], &[(0, t)], 1.0, 15.0))
        });
    }
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("join");
    g.sample_size(10);
    let left = workload(50.0, 10.0);
    let right = MovingObjectGen::new(MovingConfig {
        objects: 10,
        sample_dt: 0.1,
        leg_duration: 5.0,
        seed: 2,
        ..Default::default()
    })
    .generate(10.0);
    let lp = queries::micro::join(0.1);
    g.bench_function("discrete", |b| b.iter(|| run_discrete(&lp, &[(0, &left), (1, &right)])));
    g.bench_function("pulse", |b| {
        b.iter(|| {
            run_predictive(
                &lp,
                vec![moving::stream_model(), moving::stream_model()],
                &[(0, &left), (1, &right)],
                1.0,
                5.0,
            )
        })
    });
    g.finish();
}

fn bench_fitting(c: &mut Criterion) {
    let mut g = c.benchmark_group("fitting");
    g.sample_size(10);
    let tuples = workload(150.0, 20.0);
    for (name, check) in [("full", CheckMode::Full), ("newpoint", CheckMode::NewPoint)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = FitConfig { max_error: 0.5, check, ..Default::default() };
                let mut f = StreamFitter::new(cfg, vec![0, 2]);
                let mut n = 0;
                for t in &tuples {
                    if f.push(t).is_some() {
                        n += 1;
                    }
                }
                n + f.finish().len()
            })
        });
    }
    g.finish();
}

/// Lineage as a MACD violation drives it: one source segment enters the
/// plan; a window function over the key's last 18 sources, a join piece
/// over two window functions and a map piece derive from it; the map
/// piece's bound is inverted back to the sources; and every 1000 steps
/// the store drops what ended more than 50 stream-seconds ago. Returns
/// how many source bounds the inversions produced.
fn lineage_steps(steps: usize) -> usize {
    let mut store = LineageStore::default();
    let mut history: Vec<SegmentId> = Vec::new();
    let mut last_wf = None;
    let mut bounds = 0;
    for i in 0..steps {
        let t = i as f64 * 0.02;
        let src = Segment::single(7, Span::new(t, t + 5.0), Poly::linear(1.0, 0.5));
        store.register(&src);
        if history.len() == 18 {
            history.remove(0);
        }
        history.push(src.id);
        let wf = Segment::single(7, Span::new(t, t + 2.0), Poly::linear(2.0, 0.1));
        store.emit(&wf, &history);
        let joined = Segment::new(7, wf.span, vec![wf.models[0].clone(); 2], Vec::new());
        store.emit(&joined, &[last_wf.unwrap_or(wf.id), wf.id]);
        let mapped = Segment::single(7, wf.span, Poly::linear(0.0, 0.0));
        store.emit(&mapped, &[joined.id]);
        last_wf = Some(wf.id);
        let inverter = BoundInverter::new(&store, &EquiSplit, 1);
        bounds += inverter.invert(mapped.id, Bound::symmetric(0.05)).len();
        if i % 1000 == 999 {
            store.gc_before(t - 50.0);
        }
    }
    bounds
}

fn bench_lineage(c: &mut Criterion) {
    let mut g = c.benchmark_group("lineage");
    g.sample_size(10);
    g.bench_function("violation_steps_10k", |b| b.iter(|| lineage_steps(10_000)));
    g.finish();
}

criterion_group!(
    benches,
    bench_root_finding,
    bench_filter,
    bench_aggregate,
    bench_join,
    bench_fitting,
    bench_lineage
);
criterion_main!(benches);
