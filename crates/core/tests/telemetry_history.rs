//! Telemetry-history integration: the periodic `publish_metrics` tick
//! must feed the global time-series store, and flight-recorder rings
//! must travel off the shard workers and render as valid Chrome Trace
//! Event JSON (what `/trace.json` serves).

use pulse_core::runtime::{Predictor, PulseRuntime, RuntimeConfig};
use pulse_core::HybridRuntime;
use pulse_model::{AttrKind, Schema, Tuple};
use pulse_obs::TraceKind;
use pulse_stream::{AggFunc, LogicalOp, LogicalPlan, PortRef};

fn schema() -> Schema {
    Schema::of(&[("price", AttrKind::Modeled)])
}

/// A keyed windowed average — partitionable, and noisy input keeps the
/// solver busy so the recorder has chains to export.
fn plan() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema()]);
    lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: 1.0,
            slide: 0.5,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    lp
}

fn config() -> RuntimeConfig {
    RuntimeConfig { horizon: 5.0, bound: 0.05, trace_capacity: 4096, ..Default::default() }
}

fn noisy_tuples(keys: u64, rounds: usize) -> Vec<Tuple> {
    let mut rng: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let mut noise = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut out = Vec::new();
    for r in 0..rounds {
        let ts = r as f64 * 0.05;
        for key in 0..keys {
            out.push(Tuple::new(key, ts, vec![50.0 + key as f64 + 0.4 * noise()]));
        }
    }
    out
}

#[test]
fn publish_metrics_samples_the_global_store() {
    pulse_obs::set_enabled(true);
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &plan(), config())
            .unwrap();
    let store = pulse_obs::timeseries::store();
    let before = store.series("runtime.tuples_in", 0.0).len();
    for (i, t) in noisy_tuples(4, 50).iter().enumerate() {
        rt.on_tuple(0, t);
        if i % 40 == 0 {
            rt.publish_metrics();
        }
    }
    rt.publish_metrics();
    pulse_obs::set_enabled(false);
    let series = store.series("runtime.tuples_in", 0.0);
    // Other tests may also tick the collector concurrently — growth is
    // at least our publishes, and timestamps stay strictly ordered.
    assert!(series.len() >= before + 6, "{} -> {}", before, series.len());
    assert!(series.windows(2).all(|w| w[0].t < w[1].t));
    // Histogram percentiles ride along as derived series.
    assert!(store.metric_names().iter().any(|n| n.ends_with(".p99_ns") || n.ends_with(".p50_ns")));

    // Disabled runtimes publish nothing.
    let after = store.series("runtime.tuples_in", 0.0).len();
    rt.publish_metrics();
    assert_eq!(store.series("runtime.tuples_in", 0.0).len(), after);
}

#[test]
fn sharded_trace_rings_export_as_chrome_trace() {
    let mut sharded =
        HybridRuntime::partitioned(vec![Predictor::AdaptiveLinear(schema())], &plan(), config(), 4)
            .unwrap();
    // Small batches so the router has flushed work to every shard before
    // the handle copies the rings (the handle cannot flush the router).
    sharded.set_batch(16);
    for t in noisy_tuples(8, 80) {
        sharded.on_tuple(0, &t);
    }

    // The cloneable handle copies rings from another thread while the
    // runtime is live — the `/trace.json` serving path.
    let handle = sharded.explain_handle();
    let rings = handle.trace_events().expect("live runtime returns rings");
    assert_eq!(rings.len(), 4);
    let total: usize = rings.iter().map(|(_, evs)| evs.len()).sum();
    assert!(total > 0, "tracing on must retain events");
    // Every shard that saw tuples recorded solves, and events carry the
    // shard-monotonic structure the exporter relies on.
    let solves = rings
        .iter()
        .flat_map(|(_, evs)| evs.iter())
        .filter(|e| matches!(e.kind, TraceKind::SolveEnd { .. }))
        .count();
    assert!(solves >= 8, "each key's unseen-key solve must be retained: {solves}");

    let json = pulse_obs::chrome_trace(rings.iter().map(|(shard, evs)| (*shard, evs.as_slice())));
    let doc = serde_json::parse_value(&json).expect("valid Chrome Trace Event JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let tids: std::collections::HashSet<u64> =
        events.iter().filter_map(|e| e.get("tid").and_then(|v| v.as_u64())).collect();
    assert!(tids.len() >= 2, "multi-shard trace renders multiple tracks: {tids:?}");
    assert!(
        events.iter().any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")),
        "solve slices present"
    );
    assert!(
        events.iter().any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("s")),
        "causal flow arrows present"
    );

    // The owning-runtime accessor agrees with the handle's view.
    let direct = sharded.trace_events();
    assert_eq!(direct.len(), 4);
    assert!(direct.iter().map(|(_, evs)| evs.len()).sum::<usize>() >= total);

    sharded.finish();
    assert!(handle.trace_events().is_none(), "dead runtime exports nothing");
}

#[test]
fn single_runtime_trace_events_round_trip() {
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &plan(), config())
            .unwrap();
    for t in noisy_tuples(2, 40) {
        rt.on_tuple(0, &t);
    }
    let events = rt.trace_events();
    assert!(!events.is_empty());
    assert_eq!(events.len(), rt.tracer().len());
    let json = pulse_obs::chrome_trace([(0u32, events.as_slice())]);
    let doc = serde_json::parse_value(&json).expect("valid JSON");
    assert!(!doc.get("traceEvents").unwrap().as_array().unwrap().is_empty());
}
