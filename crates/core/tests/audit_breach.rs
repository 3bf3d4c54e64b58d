//! End-to-end breach detection: a deliberately perturbed comparison path
//! (seeded fault injection on the audited subset) must surface as a
//! ledger breach, a flight-recorder `GuaranteeBreach` event chained to a
//! real `OutputEmit`, and a 503 from `/health` once the breach counters
//! reach the global registry.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use pulse_core::{Predictor, PulseRuntime, RuntimeConfig};
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema, StreamModel, Tuple};
use pulse_obs::serve::{serve, AuditFn, Routes};
use pulse_obs::{health, TraceKind};
use pulse_stream::{LogicalOp, LogicalPlan, PortRef};

fn source() -> (Schema, StreamModel) {
    let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
    let sm = StreamModel::new(
        schema.clone(),
        vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
    )
    .unwrap();
    (schema, sm)
}

fn filter_plan(schema: Schema) -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema]);
    lp.add(
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-100.0)) },
        vec![PortRef::Source(0)],
    );
    lp
}

fn get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
    let mut out = String::new();
    conn.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn injected_fault_is_detected_reported_and_flips_health() {
    let (schema, sm) = source();
    let lp = filter_plan(schema);
    let cfg = RuntimeConfig {
        horizon: 100.0,
        bound: 1.0,
        audit_rate: 1,
        audit_fault_offset: 50.0,
        trace_capacity: 4096,
        ..Default::default()
    };
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::Clause(sm)], &lp, cfg).expect("compile");
    for i in 0..20 {
        let ts = i as f64 * 0.1;
        // The object follows its model exactly: every check after the
        // first solve is suppressed, and only the injected fault can make
        // the auditor disagree.
        rt.on_tuple(0, &Tuple::new(7, ts, vec![2.0 * ts, 2.0]));
    }

    // 1. The ledger reports the breaches with the offending observation.
    let ledger = rt.audit_ledger().expect("auditor on").clone();
    assert!(ledger.breaches > 0, "fault must breach: {ledger:?}");
    let b = ledger.last_breach.as_ref().expect("breach recorded");
    assert_eq!(b.key, 7);
    assert!((b.observed - 50.0).abs() < 1.0, "deviation ≈ fault: {b:?}");
    assert!(b.observed > b.bound);

    // 2. The flight recorder chains each breach to a real OutputEmit.
    let events = rt.trace_events();
    let breach = events
        .iter()
        .find(|e| matches!(e.kind, TraceKind::GuaranteeBreach { .. }))
        .expect("breach event recorded");
    assert_eq!(breach.key, 7);
    let parent = events.iter().find(|e| e.id == breach.parent).expect("parent retained");
    assert!(
        matches!(parent.kind, TraceKind::OutputEmit { .. }),
        "breach indicts an emitted output, got {:?}",
        parent.kind
    );
    assert_eq!(parent.key, 7);

    // 3. Exported breach counters drive the guarantee_breach health rule.
    rt.export_metrics(pulse_obs::global(), &[]);
    let rules =
        vec![health::Rule::new("guarantee_breach_t", health::Signal::GuaranteeBreaches, 1.0, 1)];
    let audit: AuditFn = Arc::new(move || Some(ledger.summary_json(8)));
    let h = serve("127.0.0.1:0", Routes::new().with_health_rules(rules).with_audit(audit))
        .expect("bind");
    // First poll establishes the delta baseline from zero: the exported
    // total itself is the first delta, so the rule fires immediately.
    let resp = get(h.addr(), "/health");
    assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
    assert!(resp.contains("guarantee_breach_t"), "{resp}");

    // 4. /audit serves the same ledger as JSON.
    let audit_resp = get(h.addr(), "/audit");
    assert!(audit_resp.starts_with("HTTP/1.1 200"), "{audit_resp}");
    assert!(audit_resp.contains("\"audited_keys\":1"), "{audit_resp}");
    assert!(audit_resp.contains("\"last_breach\":{"), "{audit_resp}");
}

#[test]
fn unaudited_keys_carry_no_fault() {
    // audit_rate = 2 splits the keyspace; unaudited keys must behave as
    // if the auditor (and its fault) did not exist.
    let (schema, sm) = source();
    let lp = filter_plan(schema);
    let cfg = RuntimeConfig {
        horizon: 100.0,
        bound: 1.0,
        audit_rate: 2,
        audit_fault_offset: 50.0,
        ..Default::default()
    };
    let mut rt =
        PulseRuntime::with_predictors(vec![Predictor::Clause(sm)], &lp, cfg).expect("compile");
    for key in 0..32u64 {
        for i in 0..5 {
            let ts = i as f64 * 0.1;
            rt.on_tuple(0, &Tuple::new(key, ts, vec![2.0 * ts, 2.0]));
        }
    }
    let l = rt.audit_ledger().unwrap();
    assert!(l.audited_keys() > 0 && l.audited_keys() < 32, "rate-2 subset: {l:?}");
    // Every audited suppressed check sees the fault.
    assert_eq!(l.breaches, l.checks, "{l:?}");
    // The engine under audit is untouched: no extra violations.
    assert_eq!(rt.stats().violations, 0, "{:?}", rt.stats());
}
