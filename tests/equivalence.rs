//! Discrete ↔ continuous equivalence: on data that exactly follows its
//! models, Pulse's transformed operators must agree with the tuple engine
//! (up to the discretization semantics of §IV-A).

use pulse::core::{CMinMax, CPlan, Sampler};
use pulse::math::{CmpOp, Poly, Span};
use pulse::model::{Expr, Pred, Segment, Tuple};
use pulse::stream::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, Plan, PortRef};
use pulse::workload::{moving, MovingConfig, MovingObjectGen};

fn moving_workload(seed: u64) -> (Vec<Tuple>, Vec<Segment>) {
    let cfg = MovingConfig {
        objects: 4,
        sample_dt: 0.1,
        leg_duration: 5.0,
        noise: 0.0,
        seed,
        ..Default::default()
    };
    let tuples = MovingObjectGen::new(cfg.clone()).generate(30.0);
    let segs = MovingObjectGen::ground_truth(&cfg, 30.0);
    (tuples, segs)
}

#[test]
fn filter_outputs_agree_when_sampled_on_the_input_grid() {
    let (tuples, segs) = moving_workload(1);
    let mut query = LogicalPlan::new(vec![moving::schema()]);
    query.add(
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(20.0)) },
        vec![PortRef::Source(0)],
    );
    let mut discrete = Plan::compile(&query);
    let mut disc_out = Vec::new();
    for t in &tuples {
        disc_out.extend(discrete.push(0, t));
    }
    let mut pulse = CPlan::compile(&query).unwrap();
    let mut cont_out = Vec::new();
    for s in &segs {
        cont_out.extend(pulse.push(0, s));
    }
    // Sample the continuous result on the same 10 Hz grid, per key.
    let sampled = Sampler::new(10.0).sample(&cont_out);
    // Compare as (key, rounded time) sets: a discrete match at tuple time t
    // must fall inside a continuous solution range and vice versa.
    let keyed = |ts: &[Tuple]| -> std::collections::HashSet<(u64, i64)> {
        ts.iter().map(|t| (t.key, (t.ts * 10.0).round() as i64)).collect()
    };
    let d = keyed(&disc_out);
    let c = keyed(&sampled);
    // Boundary samples may differ by one grid point (half-open spans), so
    // demand near-complete overlap rather than equality.
    let inter = d.intersection(&c).count();
    assert!(
        inter as f64 >= 0.98 * d.len().max(c.len()) as f64,
        "agreement {inter} of discrete {} / continuous {}",
        d.len(),
        c.len()
    );
    // And every sampled continuous value must satisfy the predicate.
    assert!(sampled.iter().all(|t| t.values[0] < 20.0 + 1e-6));
}

#[test]
fn min_aggregate_envelope_matches_discrete_window_min() {
    let (tuples, segs) = moving_workload(2);
    let (width, slide) = (5.0, 1.0);
    // Discrete windowed min across keys.
    let mut query = LogicalPlan::new(vec![moving::schema()]);
    query.add(
        LogicalOp::Aggregate { func: AggFunc::Min, attr: 0, width, slide, group_by_key: false },
        vec![PortRef::Source(0)],
    );
    let mut discrete = Plan::compile(&query);
    let mut disc_out = Vec::new();
    for t in &tuples {
        disc_out.extend(discrete.push(0, t));
    }
    disc_out.extend(discrete.finish());
    // Continuous: envelope + window extraction. Windows must be read as
    // the stream passes each closing — the operator expires state older
    // than `now − width`, so querying historical windows after the fact
    // would see partially-expired envelopes.
    let mut pulse = CPlan::compile(&query).unwrap();
    let mut next_seg = 0;
    let mut checked = 0;
    for d in &disc_out {
        while next_seg < segs.len() && segs[next_seg].span.lo < d.ts {
            pulse.push(0, &segs[next_seg]);
            next_seg += 1;
        }
        let env = pulse.op(0).unwrap().as_any().downcast_ref::<CMinMax>().unwrap();
        // Discrete min is over samples; continuous min over the continuum
        // of the same window. They agree on piecewise-linear data whose
        // kinks land on sample instants (our generator's construction).
        if let Some(cv) = env.window_value(d.ts) {
            // The continuous minimum is over the full continuum, so it can
            // undercut the sampled minimum by at most one inter-sample step
            // of drift (§IV-A's discretization gap) — never exceed it.
            let max_drift = 5.0 * 0.1; // max_speed · sample_dt
            assert!(
                cv <= d.values[0] + 1e-6 && cv >= d.values[0] - max_drift - 1e-6,
                "window closing {}: continuous {cv} vs discrete {}",
                d.ts,
                d.values[0]
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "too few comparable windows: {checked}");
}

#[test]
fn avg_aggregate_window_function_matches_discrete_average() {
    // Uniform 20 Hz sampling of a keyed linear value → discrete window avg
    // converges to the time average (the integral / width).
    let (width, slide) = (4.0, 1.0);
    let mut query = LogicalPlan::new(vec![moving::schema()]);
    query.add(
        LogicalOp::Aggregate { func: AggFunc::Avg, attr: 0, width, slide, group_by_key: true },
        vec![PortRef::Source(0)],
    );
    let dt = 0.05;
    let mut tuples = Vec::new();
    let poly = Poly::linear(3.0, 0.5); // x = 3 + 0.5t
    let mut i = 0;
    while (i as f64) * dt < 30.0 {
        let ts = i as f64 * dt;
        tuples.push(Tuple::new(1, ts, vec![poly.eval(ts), 0.5, 0.0, 0.0]));
        i += 1;
    }
    let seg = Segment::new(1, Span::new(0.0, 30.0), vec![poly.clone(), Poly::zero()], Vec::new());
    let mut discrete = Plan::compile(&query);
    let mut disc_out = Vec::new();
    for t in &tuples {
        disc_out.extend(discrete.push(0, t));
    }
    disc_out.extend(discrete.finish());
    let mut pulse = CPlan::compile(&query).unwrap();
    let cont_out = pulse.push(0, &seg);
    assert!(!cont_out.is_empty());
    for d in &disc_out {
        let close = d.ts;
        if let Some(wf) = cont_out.iter().find(|s| s.span.contains(close)) {
            let cv = wf.models[0].eval(close);
            // Discrete avg over uniform samples of a line vs the integral:
            // both equal the line's midpoint value up to discretization.
            assert!(
                (cv - d.values[0]).abs() < 0.5 * dt + 1e-6,
                "close {close}: continuous {cv} vs discrete {}",
                d.values[0]
            );
        }
    }
}

#[test]
fn join_discrete_matches_fall_inside_continuous_ranges() {
    // Two keyed linear streams; join where left < right.
    let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0));
    // A small window keeps the discrete join near-simultaneous, making it
    // comparable to Pulse's equi-join-on-time semantics (§III-A).
    let mut query = LogicalPlan::new(vec![moving::schema(), moving::schema()]);
    query.add(
        LogicalOp::Join { window: 0.15, pred, on_keys: KeyJoin::Any },
        vec![PortRef::Source(0), PortRef::Source(1)],
    );
    // Left: x = t − 10 ; Right: x = 5 (crossing at t = 15).
    let mk_tuples = |poly: &Poly, key: u64| -> Vec<Tuple> {
        (0..300)
            .map(|i| {
                let ts = i as f64 * 0.1;
                Tuple::new(key, ts, vec![poly.eval(ts), 0.0, 0.0, 0.0])
            })
            .collect()
    };
    let lp_poly = Poly::linear(-10.0, 1.0);
    let rp_poly = Poly::constant(5.0);
    let lt = mk_tuples(&lp_poly, 1);
    let rt = mk_tuples(&rp_poly, 2);
    let mut discrete = Plan::compile(&query);
    let mut disc_out = Vec::new();
    for i in 0..300 {
        disc_out.extend(discrete.push(0, &lt[i]));
        disc_out.extend(discrete.push(1, &rt[i]));
    }
    let l_seg = Segment::new(1, Span::new(0.0, 30.0), vec![lp_poly, Poly::zero()], Vec::new());
    let r_seg = Segment::new(2, Span::new(0.0, 30.0), vec![rp_poly, Poly::zero()], Vec::new());
    let mut pulse = CPlan::compile(&query).unwrap();
    let mut cont_out = pulse.push(0, &l_seg);
    cont_out.extend(pulse.push(1, &r_seg));
    assert_eq!(cont_out.len(), 1);
    let range = cont_out[0].span;
    // Every discrete match instant lies in the continuous solution range.
    assert!(!disc_out.is_empty());
    for d in &disc_out {
        assert!(
            range.contains(d.ts) || (d.ts - range.hi).abs() < 0.2,
            "discrete match at {} outside continuous range {range:?}",
            d.ts
        );
    }
    // And the range boundary is the analytic crossing t = 15.
    assert!((range.hi - 15.0).abs() < 1e-6);
}
