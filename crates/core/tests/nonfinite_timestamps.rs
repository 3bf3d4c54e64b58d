//! Tuples with a NaN or infinite timestamp are counted and dropped.
//!
//! Such a tuple has no place on the time axis a predictive segment spans,
//! so the runtime counts it in `tuples_in` and `model_errors` and drops it
//! before it touches the watermark, the flight recorder or any key's
//! state. A stream with such tuples interleaved must therefore give what
//! the clean stream gives — the same outputs, validator checks, watermark
//! and trace — in every execution mode, with `model_errors` equal to the
//! number injected.

use pulse_core::runtime::{Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
use pulse_core::{HybridRun, HybridRuntime, DEFAULT_BATCH};
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, Pred, Schema, Segment, Tuple};
use pulse_stream::{partition_rewrite, AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};

fn schema() -> Schema {
    Schema::of(&[("price", AttrKind::Modeled)])
}

fn predictors() -> Vec<Predictor> {
    vec![Predictor::AdaptiveLinear(schema())]
}

fn config(trace_capacity: usize) -> RuntimeConfig {
    RuntimeConfig { horizon: 5.0, bound: 0.05, trace_capacity, ..Default::default() }
}

fn avg(width: f64) -> LogicalOp {
    LogicalOp::Aggregate { func: AggFunc::Avg, attr: 0, width, slide: 0.5, group_by_key: true }
}

/// MACD: a short and a long grouped average, joined on key where the
/// short one is above, projected to the divergence.
fn macd() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema()]);
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

/// The ungrouped minimum, which runs through the partition rewrite.
fn global_min() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema()]);
    let min = LogicalOp::Aggregate {
        func: AggFunc::Min,
        attr: 0,
        width: 2.0,
        slide: 0.5,
        group_by_key: false,
    };
    lp.add(min, vec![PortRef::Source(0)]);
    lp
}

/// Noisy per-key prices on a triangle wave: the averages cross, and tick
/// noise above the bound keeps keys re-modelling.
fn clean(keys: u64, rounds: usize) -> Vec<Tuple> {
    let mut rng: u64 = 0x7157_0bad_5eed;
    let mut noise = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut out = Vec::new();
    for r in 0..rounds {
        let ts = r as f64 * 0.05;
        let phase = (ts / 4.0).fract();
        let tri = if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
        for key in 0..keys {
            out.push(Tuple::new(key, ts, vec![50.0 + key as f64 + 2.0 * tri + 0.2 * noise()]));
        }
    }
    out
}

/// `clean` with a tuple of timestamp NaN, +inf or −inf (in turn) after
/// every fifth tuple, on the key of the tuple before it and with a
/// plausible price; and how many were injected.
fn dirty(clean: &[Tuple]) -> (Vec<Tuple>, u64) {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut out = Vec::new();
    let mut injected = 0;
    for (i, t) in clean.iter().enumerate() {
        out.push(t.clone());
        if i % 5 == 4 {
            out.push(Tuple::new(t.key, bad[injected as usize % 3], t.values.clone()));
            injected += 1;
        }
    }
    (out, injected)
}

/// Bit pattern of each output, id aside, in output order.
#[allow(clippy::type_complexity)]
fn bits(outs: &[Segment]) -> Vec<(u64, [u64; 2], Vec<Vec<u64>>)> {
    outs.iter()
        .map(|s| {
            let models = s.models.iter().map(|p| p.coeffs().iter().map(|c| c.to_bits()).collect());
            (s.key, [s.span.lo.to_bits(), s.span.hi.to_bits()], models.collect())
        })
        .collect()
}

/// The counters a dirty run must show, given the clean run's.
fn with_dropped(clean: RuntimeStats, injected: u64) -> RuntimeStats {
    RuntimeStats {
        tuples_in: clean.tuples_in + injected,
        model_errors: clean.model_errors + injected,
        ..clean
    }
}

/// A traced single runtime over the feed, tuple by tuple for the first
/// half and batched after that.
fn single(feed: &[Tuple]) -> (PulseRuntime, Vec<Segment>) {
    let mut rt = PulseRuntime::with_predictors(predictors(), &macd(), config(1 << 16)).unwrap();
    let mut outs = Vec::new();
    let (first, second) = feed.split_at(feed.len() / 2);
    for t in first {
        outs.extend(rt.on_tuple(0, t));
    }
    let pairs: Vec<(usize, &Tuple)> = second.iter().map(|t| (0, t)).collect();
    for chunk in pairs.chunks(DEFAULT_BATCH) {
        outs.extend(rt.on_pairs(chunk));
    }
    (rt, outs)
}

#[test]
fn single_runtime_drops_nonfinite_timestamps() {
    let feed = clean(5, 240);
    let (feed_dirty, injected) = dirty(&feed);
    let (rt, want) = single(&feed);
    let (rt_dirty, got) = single(&feed_dirty);
    let s = rt.stats();
    assert!(s.violations > 100 && s.suppressed > 100 && !want.is_empty(), "{s:?}");
    assert_eq!(s.model_errors, 0);
    assert_eq!(rt_dirty.stats(), with_dropped(s, injected));
    assert_eq!(rt_dirty.stats().model_errors, injected);
    assert!(bits(&got) == bits(&want), "{} outputs, clean run {}", got.len(), want.len());
    assert_eq!(rt_dirty.validator().stats(), rt.validator().stats());
    assert_eq!(rt_dirty.watermark().to_bits(), rt.watermark().to_bits());
    assert_eq!(rt_dirty.trace_events().len(), rt.trace_events().len());
}

/// A hybrid run over a feed at a shard count.
type Run = fn(&[Tuple], usize) -> HybridRun;

fn partitioned(feed: &[Tuple], shards: usize) -> HybridRun {
    let mut rt =
        HybridRuntime::partitioned(predictors(), &macd(), config(0), shards).expect("partitions");
    rt.set_batch(7);
    for t in feed {
        rt.on_tuple(0, t);
    }
    rt.finish()
}

fn rewritten_min(feed: &[Tuple], shards: usize) -> HybridRun {
    let hp = partition_rewrite(&global_min()).expect("an ungrouped min splits");
    let mut rt = HybridRuntime::new(predictors(), &hp, config(0), shards).expect("compiles");
    rt.set_batch(7);
    rt.set_sync_every(16);
    for t in feed {
        rt.on_tuple(0, t);
    }
    rt.finish()
}

#[test]
fn hybrid_runtimes_drop_nonfinite_timestamps() {
    let feed = clean(5, 240);
    let (feed_dirty, injected) = dirty(&feed);
    for (name, run) in [("partitioned macd", partitioned as Run), ("rewritten min", rewritten_min)]
    {
        for shards in 1..=2 {
            let want = run(&feed, shards);
            let got = run(&feed_dirty, shards);
            assert!(!want.outputs.is_empty(), "{name}, {shards} shards: no outputs");
            assert_eq!(got.stats, with_dropped(want.stats, injected), "{name}, {shards} shards");
            assert_eq!(got.stats.model_errors, injected);
            assert_eq!(got.validator, want.validator, "{name}, {shards} shards");
            assert!(
                bits(&got.outputs) == bits(&want.outputs),
                "{name}, {shards} shards: {} outputs, clean run {}",
                got.outputs.len(),
                want.outputs.len()
            );
        }
    }
}
