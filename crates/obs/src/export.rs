//! Flight-recorder rings → Chrome Trace Event / Perfetto JSON.
//!
//! [`chrome_trace`] converts the per-shard [`TraceEvent`] rings into the
//! Chrome Trace Event format (the JSON array flavor wrapped in
//! `{"traceEvents": [...]}`) so any run can be dropped straight into
//! `ui.perfetto.dev` or `chrome://tracing`:
//!
//! - each shard renders as its own track (`pid` 1, `tid` = shard id,
//!   named via `thread_name` metadata events);
//! - `SolveStart`/`SolveEnd` pairs become complete (`ph: "X"`) slices
//!   whose duration is the solve's measured wall `ns`;
//! - `OutputEmit` becomes a slice spanning the emitted output range
//!   `[lo, hi]` on the stream timeline;
//! - arrivals, validation verdicts, and remodels become instants
//!   (`ph: "i"`) carrying their payload in `args`;
//! - each solve's causal chain draws flow arrows (`ph: "s"/"t"/"f"`)
//!   from the triggering `SegmentArrival` through `SolveEnd` to every
//!   `OutputEmit`, so Perfetto renders the paper's
//!   arrival → solve → output causality as clickable arrows.
//!
//! Time base: the recorder stamps **stream time** (seconds); the export
//! maps it to trace microseconds (`ts = t × 1e6`). The one deliberate
//! mix of bases: a solve slice's *duration* is its measured wall-clock
//! `ns`, scaled to µs — solves are instantaneous in stream time, and
//! rendering their real cost is the point of the visualization.

use serde::Value;

use crate::trace::{TraceEvent, TraceKind};

/// Microseconds per stream-time second on the trace timeline.
const US_PER_S: f64 = 1e6;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Common fields of every trace record.
fn base(name: &str, ph: &str, ts: f64, tid: u32) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::String(name.to_string())),
        ("ph", Value::String(ph.to_string())),
        ("ts", Value::F64(ts)),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(tid as u64)),
    ]
}

fn push_flow(out: &mut Vec<Value>, ph: &str, flow_id: u64, ts: f64, tid: u32) {
    let mut rec = base("causal", ph, ts, tid);
    rec.push(("cat", Value::String("flow".into())));
    rec.push(("id", Value::U64(flow_id)));
    if ph == "f" {
        // Bind the arrow head to the enclosing slice, not the next one.
        rec.push(("bp", Value::String("e".into())));
    }
    out.push(obj(rec));
}

/// Renders per-shard event rings as a Chrome Trace Event JSON document.
/// `shards` yields `(shard_id, events)`; a single-threaded runtime
/// passes one entry (conventionally shard 0).
pub fn chrome_trace<'a, I>(shards: I) -> String
where
    I: IntoIterator<Item = (u32, &'a [TraceEvent])>,
{
    let mut records: Vec<Value> = Vec::new();
    for (shard, events) in shards {
        let mut meta = base("thread_name", "M", 0.0, shard);
        meta.push(("args", obj(vec![("name", Value::String(format!("shard {shard}")))])));
        records.push(obj(meta));
        shard_records(shard, events, &mut records);
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(records)),
        ("displayTimeUnit", Value::String("ms".into())),
        (
            "otherData",
            obj(vec![
                ("source", Value::String("pulse flight recorder".into())),
                (
                    "timeBase",
                    Value::String(
                        "ts is stream time in us; solve slice durations are wall-clock ns/1000"
                            .into(),
                    ),
                ),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("trace serialization is infallible")
}

fn shard_records(shard: u32, events: &[TraceEvent], out: &mut Vec<Value>) {
    let find = |id: u64| -> Option<&TraceEvent> {
        (id != 0).then(|| events.iter().find(|e| e.id == id)).flatten()
    };
    for e in events {
        let ts = e.t * US_PER_S;
        match &e.kind {
            TraceKind::SegmentArrival { source } => {
                let mut rec = base("SegmentArrival", "i", ts, shard);
                rec.push(("s", Value::String("t".into())));
                rec.push((
                    "args",
                    obj(vec![("key", Value::U64(e.key)), ("source", Value::U64(*source as u64))]),
                ));
                out.push(obj(rec));
            }
            TraceKind::ValidationOutcome { slack, bound, ok } => {
                let mut rec = base("ValidationOutcome", "i", ts, shard);
                rec.push(("s", Value::String("t".into())));
                rec.push((
                    "args",
                    obj(vec![
                        ("key", Value::U64(e.key)),
                        ("slack", Value::F64(*slack)),
                        ("bound", Value::F64(*bound)),
                        ("ok", Value::Bool(*ok)),
                    ]),
                ));
                out.push(obj(rec));
            }
            TraceKind::Remodel { seg } => {
                let mut rec = base("Remodel", "i", ts, shard);
                rec.push(("s", Value::String("t".into())));
                rec.push((
                    "args",
                    obj(vec![("key", Value::U64(e.key)), ("seg", Value::U64(*seg))]),
                ));
                out.push(obj(rec));
            }
            TraceKind::SolveEnd { system_size, roots, iters, ns } => {
                let mut rec = base("solve", "X", ts, shard);
                rec.push(("dur", Value::F64(*ns as f64 / 1e3)));
                rec.push((
                    "args",
                    obj(vec![
                        ("key", Value::U64(e.key)),
                        ("system_size", Value::U64(*system_size as u64)),
                        ("roots", Value::U64(*roots as u64)),
                        ("iters", Value::U64(*iters)),
                        ("wall_ns", Value::U64(*ns)),
                    ]),
                ));
                out.push(obj(rec));
                // Causal flow: arrival (if still retained) → solve → outputs.
                let arrival = find(e.parent) // SolveStart
                    .and_then(|s| find(s.parent)) // Remodel
                    .and_then(|r| find(r.parent)) // ValidationOutcome
                    .and_then(|v| find(v.parent))
                    .filter(|a| matches!(a.kind, TraceKind::SegmentArrival { .. }));
                let outputs: Vec<&TraceEvent> = events
                    .iter()
                    .filter(|o| o.parent == e.id && matches!(o.kind, TraceKind::OutputEmit { .. }))
                    .collect();
                if arrival.is_some() || !outputs.is_empty() {
                    if let Some(a) = arrival {
                        push_flow(out, "s", e.id, a.t * US_PER_S, shard);
                        push_flow(out, "t", e.id, ts, shard);
                    } else {
                        push_flow(out, "s", e.id, ts, shard);
                    }
                    for o in outputs {
                        push_flow(out, "f", e.id, o.t * US_PER_S, shard);
                    }
                }
            }
            TraceKind::OpSolve { op, rows, outputs } => {
                let mut rec = base(op, "i", ts, shard);
                rec.push(("s", Value::String("t".into())));
                rec.push((
                    "args",
                    obj(vec![
                        ("key", Value::U64(e.key)),
                        ("rows", Value::U64(*rows)),
                        ("outputs", Value::U64(*outputs as u64)),
                    ]),
                ));
                out.push(obj(rec));
            }
            TraceKind::OutputEmit { seg, lo, hi, sources } => {
                let mut rec = base("output", "X", lo * US_PER_S, shard);
                rec.push(("dur", Value::F64(((hi - lo) * US_PER_S).max(1.0))));
                rec.push((
                    "args",
                    obj(vec![
                        ("key", Value::U64(e.key)),
                        ("seg", Value::U64(*seg)),
                        ("lo", Value::F64(*lo)),
                        ("hi", Value::F64(*hi)),
                        ("sources", Value::Array(sources.iter().map(|s| Value::U64(*s)).collect())),
                    ]),
                ));
                out.push(obj(rec));
            }
            TraceKind::GuaranteeBreach { observed, expected, allowance } => {
                let mut rec = base("GuaranteeBreach", "i", ts, shard);
                // Process-scoped instant: a broken guarantee should be
                // visible at any zoom level, not only on its shard track.
                rec.push(("s", Value::String("p".into())));
                rec.push((
                    "args",
                    obj(vec![
                        ("key", Value::U64(e.key)),
                        ("observed", Value::F64(*observed)),
                        ("expected", Value::F64(*expected)),
                        ("allowance", Value::F64(*allowance)),
                        ("emit", Value::U64(e.parent)),
                    ]),
                ));
                out.push(obj(rec));
            }
            TraceKind::SolveStart { .. } => {
                // Rendered via its SolveEnd slice; a bare start (solve
                // still in flight when the ring was copied) is dropped.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    /// One full causal chain in a fresh tracer ring.
    fn recorded_ring() -> Vec<TraceEvent> {
        let mut tr = Tracer::ring(64);
        let a = tr.emit(0, 7, 1.0, TraceKind::SegmentArrival { source: 0 });
        let v =
            tr.emit(a, 7, 1.0, TraceKind::ValidationOutcome { slack: 2.0, bound: 0.5, ok: false });
        let r = tr.emit(v, 7, 1.0, TraceKind::Remodel { seg: 40 });
        let s = tr.emit(r, 7, 1.0, TraceKind::SolveStart { system_size: 4 });
        tr.set_scope(s);
        tr.emit_scoped(7, 1.0, TraceKind::OpSolve { op: "filter", rows: 3, outputs: 1 });
        tr.set_scope(0);
        let e = tr.emit(
            s,
            7,
            1.0,
            TraceKind::SolveEnd { system_size: 4, roots: 1, iters: 3, ns: 1500 },
        );
        tr.emit(e, 7, 1.0, TraceKind::OutputEmit { seg: 41, lo: 1.0, hi: 4.0, sources: vec![40] });
        tr.events().cloned().collect()
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let ring = recorded_ring();
        let json = chrome_trace([(0u32, ring.as_slice())]);
        let doc = serde_json::parse_value(&json).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
        assert!(!events.is_empty());
        for ev in events {
            // Every record carries the Trace Event required fields.
            assert!(ev.get("name").and_then(|v| v.as_str()).is_some(), "{json}");
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
            assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some(), "{json}");
            assert!(ev.get("pid").and_then(|v| v.as_u64()).is_some(), "{json}");
            assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some(), "{json}");
            if ph == "X" {
                assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some(), "X needs dur: {json}");
            }
        }
    }

    #[test]
    fn solve_slice_and_flow_arrows_present() {
        let ring = recorded_ring();
        let json = chrome_trace([(3u32, ring.as_slice())]);
        let doc = serde_json::parse_value(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap().to_vec();
        let ph_of = |ph: &str| -> Vec<&Value> {
            events.iter().filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph)).collect()
        };
        // The solve complete-slice carries its wall-clock duration in µs.
        let slices = ph_of("X");
        let solve = slices
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("solve"))
            .expect("solve slice");
        assert_eq!(solve.get("dur").unwrap().as_f64(), Some(1.5));
        assert_eq!(solve.get("tid").unwrap().as_u64(), Some(3));
        // Full flow chain: start at the arrival, step at the solve,
        // finish at the output, all sharing one flow id.
        let (s, t, f) = (ph_of("s"), ph_of("t"), ph_of("f"));
        assert_eq!((s.len(), t.len(), f.len()), (1, 1, 1), "{json}");
        let id = s[0].get("id").unwrap().as_u64().unwrap();
        assert_eq!(t[0].get("id").unwrap().as_u64(), Some(id));
        assert_eq!(f[0].get("id").unwrap().as_u64(), Some(id));
        // Output slice spans the emitted range on the stream timeline.
        let output = slices
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("output"))
            .expect("output slice");
        assert_eq!(output.get("ts").unwrap().as_f64(), Some(1.0 * 1e6));
        assert_eq!(output.get("dur").unwrap().as_f64(), Some(3.0 * 1e6));
        // Per-shard track naming via metadata record.
        assert!(json.contains("\"shard 3\""), "{json}");
    }

    #[test]
    fn empty_and_multi_shard_rings() {
        let json = chrome_trace(std::iter::empty::<(u32, &[TraceEvent])>());
        let doc = serde_json::parse_value(&json).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);

        let ring = recorded_ring();
        let json = chrome_trace([(0u32, ring.as_slice()), (1u32, ring.as_slice())]);
        let doc = serde_json::parse_value(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let tids: std::collections::HashSet<u64> =
            events.iter().filter_map(|e| e.get("tid").and_then(|v| v.as_u64())).collect();
        assert_eq!(tids, [0u64, 1].into_iter().collect());
    }
}
