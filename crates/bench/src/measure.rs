//! Measurement helpers: run a query through either engine over a workload
//! and report capacity (items/s), outputs, and abstract work.

use pulse_core::{CPlan, PulseRuntime, RuntimeConfig, RuntimeStats};
use pulse_model::{FitConfig, Segment, StreamFitter, StreamModel, Tuple};
use pulse_stream::{LogicalPlan, Plan};
use std::time::Instant;

/// Outcome of one timed run.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct RunResult {
    /// Items (tuples or segments) fed in.
    pub items: u64,
    /// Busy wall-clock seconds.
    pub secs: f64,
    /// Query outputs produced.
    pub outputs: u64,
    /// Abstract work units (comparisons + state updates + systems solved).
    pub work: u64,
}

impl RunResult {
    /// Sustainable processing rate.
    pub fn capacity(&self) -> f64 {
        if self.secs <= 0.0 {
            f64::INFINITY
        } else {
            self.items as f64 / self.secs
        }
    }

    /// Abstract work per input item.
    pub fn work_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.work as f64 / self.items as f64
        }
    }

    /// Microseconds of processing per input item.
    pub fn us_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.items as f64
        }
    }
}

/// Times `f`, returning its output and the elapsed wall-clock seconds.
/// When observability is enabled, the duration is also recorded into the
/// global registry's `bench.<name>` nanosecond histogram, so telemetry
/// snapshots carry per-phase bench timings.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    if pulse_obs::enabled() {
        pulse_obs::global().histogram(&format!("bench.{name}")).record(elapsed.as_nanos() as u64);
    }
    (out, elapsed.as_secs_f64())
}

/// Repeats a (stateful, so freshly constructed) measurement and keeps the
/// fastest run — warmup and allocator noise dominate sub-millisecond runs.
pub fn best_of(reps: usize, mut f: impl FnMut() -> RunResult) -> RunResult {
    let mut best: Option<RunResult> = None;
    for _ in 0..reps.max(1) {
        let r = f();
        best = Some(match best {
            None => r,
            Some(b) if r.secs < b.secs => r,
            Some(b) => b,
        });
    }
    best.unwrap()
}

/// Merges several per-source tuple streams into one `(source, tuple)`
/// sequence ordered by timestamp.
pub fn merge_feeds<'a>(feeds: &[(usize, &'a [Tuple])]) -> Vec<(usize, &'a Tuple)> {
    let mut merged: Vec<(usize, &Tuple)> =
        feeds.iter().flat_map(|(src, ts)| ts.iter().map(move |t| (*src, t))).collect();
    merged.sort_by(|a, b| a.1.ts.total_cmp(&b.1.ts));
    merged
}

/// Runs the discrete engine over the merged feeds.
pub fn run_discrete(lp: &LogicalPlan, feeds: &[(usize, &[Tuple])]) -> RunResult {
    let merged = merge_feeds(feeds);
    let mut plan = Plan::compile(lp);
    let (outputs, secs) = timed("run_discrete_ns", || {
        let mut outputs = 0u64;
        for (src, t) in &merged {
            outputs += plan.push(*src, t).len() as u64;
        }
        outputs + plan.finish().len() as u64
    });
    if pulse_obs::enabled() {
        plan.export_metrics(pulse_obs::global());
    }
    RunResult { items: merged.len() as u64, secs, outputs, work: plan.metrics().work() }
}

/// Runs Pulse's online predictive path (MODEL clauses + validation +
/// violation-driven solving) over the merged feeds.
pub fn run_predictive(
    lp: &LogicalPlan,
    models: Vec<StreamModel>,
    feeds: &[(usize, &[Tuple])],
    bound_abs: f64,
    horizon: f64,
) -> (RunResult, RuntimeStats) {
    let merged = merge_feeds(feeds);
    let cfg = RuntimeConfig { horizon, bound: bound_abs, ..Default::default() };
    let mut rt = PulseRuntime::new(models, lp, cfg).expect("transformable query");
    let (outputs, secs) = timed("run_predictive_ns", || {
        let mut outputs = 0u64;
        let mut next_gc = 0usize;
        for (i, (src, t)) in merged.iter().enumerate() {
            outputs += rt.on_tuple(*src, t).len() as u64;
            // Bound lineage memory like a production run would.
            if i >= next_gc {
                rt.gc_before(t.ts - 10.0 * horizon);
                next_gc = i + 50_000;
            }
        }
        outputs
    });
    let stats = rt.stats();
    if pulse_obs::enabled() {
        rt.export_metrics(pulse_obs::global(), &[]);
    }
    (
        RunResult {
            items: merged.len() as u64,
            secs,
            outputs,
            work: rt.plan().metrics().work() + rt.validator().checks,
        },
        stats,
    )
}

/// Historical processing: fit the tuple stream online (the modeling
/// component) and push the resulting segments through the continuous plan.
pub fn run_historical(
    lp: &LogicalPlan,
    feeds: &[(usize, &[Tuple])],
    fit: FitConfig,
    modeled: Vec<usize>,
) -> RunResult {
    let merged = merge_feeds(feeds);
    let mut plan = CPlan::compile(lp).expect("transformable query");
    let mut fitters: Vec<StreamFitter> =
        (0..lp.sources.len()).map(|_| StreamFitter::new(fit.clone(), modeled.clone())).collect();
    let (outputs, secs) = timed("run_historical_ns", || {
        let mut outputs = 0u64;
        for (src, t) in &merged {
            if let Some(seg) = fitters[*src].push(t) {
                outputs += plan.push(*src, &seg).len() as u64;
            }
        }
        for (src, fitter) in fitters.iter_mut().enumerate() {
            for seg in fitter.finish() {
                outputs += plan.push(src, &seg).len() as u64;
            }
        }
        outputs
    });
    if pulse_obs::enabled() {
        plan.export_metrics(pulse_obs::global(), &[]);
    }
    RunResult { items: merged.len() as u64, secs, outputs, work: plan.metrics().work() }
}

/// Modeling alone (Fig. 8's nested plot): fit the stream, discard segments.
pub fn fit_only(feeds: &[(usize, &[Tuple])], fit: FitConfig, modeled: Vec<usize>) -> RunResult {
    let merged = merge_feeds(feeds);
    let mut fitters: Vec<StreamFitter> =
        feeds.iter().map(|_| StreamFitter::new(fit.clone(), modeled.clone())).collect();
    let (segments, secs) = timed("fit_only_ns", || {
        let mut segments = 0u64;
        for (src, t) in &merged {
            if fitters[*src].push(t).is_some() {
                segments += 1;
            }
        }
        for f in &mut fitters {
            segments += f.finish().len() as u64;
        }
        segments
    });
    RunResult { items: merged.len() as u64, secs, outputs: segments, work: 0 }
}

/// Pure segment processing: pre-fitted segments through the continuous
/// plan (the paper's "historical processing … without modelling" series).
pub fn run_segments(lp: &LogicalPlan, feeds: &[(usize, &[Segment])]) -> RunResult {
    let mut merged: Vec<(usize, &Segment)> =
        feeds.iter().flat_map(|(src, ss)| ss.iter().map(move |s| (*src, s))).collect();
    merged.sort_by(|a, b| a.1.span.lo.total_cmp(&b.1.span.lo));
    let mut plan = CPlan::compile(lp).expect("transformable query");
    let (outputs, secs) = timed("run_segments_ns", || {
        let mut outputs = 0u64;
        for (src, s) in &merged {
            outputs += plan.push(*src, s).len() as u64;
        }
        outputs
    });
    if pulse_obs::enabled() {
        plan.export_metrics(pulse_obs::global(), &[]);
    }
    RunResult { items: merged.len() as u64, secs, outputs, work: plan.metrics().work() }
}

/// Mean |value| of an attribute — converts the paper's relative precision
/// bounds into the absolute bounds the runtime uses.
pub fn mean_abs(tuples: &[Tuple], attr: usize) -> f64 {
    if tuples.is_empty() {
        return 1.0;
    }
    tuples.iter().map(|t| t.values[attr].abs()).sum::<f64>() / tuples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use pulse_workload::{moving, MovingConfig, MovingObjectGen};

    #[test]
    fn discrete_and_predictive_run_filter() {
        let cfg =
            MovingConfig { objects: 4, sample_dt: 0.1, leg_duration: 5.0, ..Default::default() };
        let tuples = MovingObjectGen::new(cfg).generate(10.0);
        let lp = queries::micro::filter(0.0);
        let d = run_discrete(&lp, &[(0, &tuples)]);
        assert_eq!(d.items, tuples.len() as u64);
        assert!(d.capacity() > 0.0);
        let (p, stats) =
            run_predictive(&lp, vec![moving::stream_model()], &[(0, &tuples)], 1.0, 100.0);
        assert_eq!(p.items, tuples.len() as u64);
        // Predictions hold on noiseless data: almost everything suppressed.
        assert!(stats.suppressed > stats.segments_pushed);
    }

    #[test]
    fn historical_and_fit_only() {
        let cfg =
            MovingConfig { objects: 2, sample_dt: 0.1, leg_duration: 5.0, ..Default::default() };
        let tuples = MovingObjectGen::new(cfg).generate(20.0);
        let lp = queries::micro::min_agg(5.0, 1.0);
        let fit = pulse_model::FitConfig { max_error: 0.5, ..Default::default() };
        let h = run_historical(&lp, &[(0, &tuples)], fit.clone(), vec![0, 2]);
        assert!(h.outputs > 0, "historical min aggregate must emit envelope updates");
        let f = fit_only(&[(0, &tuples)], fit, vec![0, 2]);
        assert!(f.outputs >= 2, "at least one segment per key");
        assert!(f.outputs < f.items, "compression: fewer segments than tuples");
    }

    #[test]
    fn run_segments_ground_truth() {
        let cfg =
            MovingConfig { objects: 2, sample_dt: 0.1, leg_duration: 5.0, ..Default::default() };
        let segs = MovingObjectGen::ground_truth(&cfg, 20.0);
        let lp = queries::micro::filter(0.0);
        let r = run_segments(&lp, &[(0, &segs)]);
        assert_eq!(r.items, segs.len() as u64);
    }

    #[test]
    fn merge_feeds_orders_by_time() {
        let a = vec![Tuple::new(0, 0.0, vec![]), Tuple::new(0, 2.0, vec![])];
        let b = vec![Tuple::new(1, 1.0, vec![])];
        let m = merge_feeds(&[(0, &a), (1, &b)]);
        let ts: Vec<f64> = m.iter().map(|(_, t)| t.ts).collect();
        assert_eq!(ts, vec![0.0, 1.0, 2.0]);
    }
}
