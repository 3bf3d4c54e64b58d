//! Property-based invariants of the engine datatypes and continuous
//! operators, on randomized inputs.

use proptest::prelude::*;
use pulse::core::{Binding, CFilter, CMinMax, COperator, CSumAvg, LineageStore, Sampler};
use pulse::math::{CmpOp, Poly, Span};
use pulse::model::{AttrKind, Expr, Piecewise, Pred, Schema, Segment};
use pulse::obs::Tracer;

fn xschema() -> Schema {
    Schema::of(&[("x", AttrKind::Modeled)])
}

prop_compose! {
    /// A chain of contiguous linear segments starting at t=0.
    fn seg_chain(max_segs: usize)(
        lens in prop::collection::vec(0.5..5.0_f64, 1..=max_segs),
        icpts in prop::collection::vec(-10.0..10.0_f64, 10),
        slopes in prop::collection::vec(-3.0..3.0_f64, 10),
    ) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut t = 0.0;
        for (i, len) in lens.iter().enumerate() {
            let icpt = icpts[i % icpts.len()];
            let slope = slopes[i % slopes.len()];
            out.push(Segment::single(
                1,
                Span::new(t, t + len),
                // Anchor the line so the value at the segment start is icpt.
                Poly::linear(icpt - slope * t, slope),
            ));
            t += len;
        }
        out
    }
}

proptest! {
    /// Piecewise insert keeps pieces sorted and non-overlapping under
    /// arbitrary (possibly overlapping) insertion order.
    #[test]
    fn piecewise_stays_sorted_disjoint(
        spans in prop::collection::vec((0.0..50.0_f64, 0.1..10.0_f64), 1..20)
    ) {
        let mut pw = Piecewise::new();
        for (i, (lo, len)) in spans.iter().enumerate() {
            pw.insert(Segment::single(
                0,
                Span::new(*lo, lo + len),
                Poly::constant(i as f64),
            ));
        }
        let segs = pw.segments();
        for w in segs.windows(2) {
            prop_assert!(w[0].span.lo <= w[1].span.lo + 1e-9, "sorted");
            prop_assert!(w[0].span.hi <= w[1].span.lo + 1e-6, "disjoint");
        }
        // The most recent covering insert wins at any covered point.
        for (i, (lo, len)) in spans.iter().enumerate() {
            let mid = lo + len / 2.0;
            // Find the last span covering mid.
            let winner = spans
                .iter()
                .enumerate()
                .filter(|(_, (l, n))| mid >= *l && mid < l + n)
                .map(|(j, _)| j)
                .next_back();
            if winner == Some(i) {
                prop_assert_eq!(pw.eval(0, mid), Some(i as f64));
            }
        }
    }

    /// Sampled tuples stay inside their segment spans and reproduce the
    /// model exactly.
    #[test]
    fn sampler_matches_models(
        lo in 0.0..100.0_f64,
        len in 0.1..20.0_f64,
        icpt in -50.0..50.0_f64,
        slope in -5.0..5.0_f64,
        rate in 0.5..50.0_f64,
    ) {
        let seg = Segment::single(3, Span::new(lo, lo + len), Poly::linear(icpt, slope));
        let tuples = Sampler::new(rate).sample_segment(&seg);
        for t in &tuples {
            prop_assert!(t.ts >= lo - 1e-9 && t.ts < lo + len);
            prop_assert!((t.values[0] - (icpt + slope * t.ts)).abs() < 1e-9);
            prop_assert_eq!(t.key, 3);
        }
        // Sample count ≈ len·rate (±1 boundary effect).
        let expected = (len * rate).floor();
        prop_assert!((tuples.len() as f64 - expected).abs() <= 1.0 + 1e-9);
    }

    /// Continuous filter: every output span is inside the input span and
    /// the predicate holds at output midpoints; outside the outputs (but
    /// inside the input) it fails.
    #[test]
    fn cfilter_soundness(
        icpt in -20.0..20.0_f64,
        slope in -4.0..4.0_f64,
        thr in -15.0..15.0_f64,
    ) {
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(thr));
        let mut f = CFilter::new(pred, Binding::new(xschema()));
        let seg = Segment::single(0, Span::new(0.0, 10.0), Poly::linear(icpt, slope));
        let mut out = Vec::new();
        f.process(0, &seg, &mut LineageStore::default(), &mut Tracer::off(), &mut out);
        let model = |t: f64| icpt + slope * t;
        for o in &out {
            prop_assert!(seg.span.contains_span(&o.span));
            if !o.span.is_point() {
                prop_assert!(model(o.span.mid()) < thr + 1e-6);
            }
        }
        // Complement check on a grid.
        for i in 0..40 {
            let t = 0.125 + i as f64 * 0.25;
            let inside = out.iter().any(|o| o.span.contains(t));
            let holds = model(t) < thr;
            if (model(t) - thr).abs() > 1e-3 {
                prop_assert_eq!(inside, holds, "t={}", t);
            }
        }
    }

    /// Min envelope equals the brute-force pointwise minimum for random
    /// sets of linear segments.
    #[test]
    fn envelope_equals_bruteforce(
        segs in prop::collection::vec(
            (0.0..20.0_f64, 1.0..10.0_f64, -10.0..10.0_f64, -2.0..2.0_f64),
            1..8,
        )
    ) {
        let mut op = CMinMax::new(true, 0, 1e6);
        let mut all = Vec::new();
        let mut sorted = segs.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (key, (lo, len, icpt, slope)) in sorted.iter().enumerate() {
            let s = Segment::single(key as u64, Span::new(*lo, lo + len), Poly::linear(*icpt, *slope));
            all.push(s.clone());
            let mut out = Vec::new();
            op.process(0, &s, &mut LineageStore::default(), &mut Tracer::off(), &mut out);
        }
        for i in 0..60 {
            let t = 0.25 + i as f64 * 0.5;
            let brute = all
                .iter()
                .filter(|s| s.span.contains(t))
                .map(|s| s.eval(0, t))
                .fold(f64::INFINITY, f64::min);
            if brute.is_finite() {
                if let Some(env) = op.envelope().eval(0, t) {
                    prop_assert!((env - brute).abs() < 1e-6, "t={} env={} brute={}", t, env, brute);
                }
            }
        }
    }

    /// Sum window functions match numeric integration over random
    /// contiguous piecewise-linear chains.
    #[test]
    fn window_functions_match_integration(chain in seg_chain(6), width in 0.5..4.0_f64) {
        let mut op = CSumAvg::new(false, 0, width);
        let mut outs = Vec::new();
        for s in &chain {
            op.process(0, s, &mut LineageStore::default(), &mut Tracer::off(), &mut outs);
        }
        let numeric = |t: f64| -> f64 {
            let mut acc = 0.0;
            for s in &chain {
                let a = s.span.lo.max(t - width);
                let b = s.span.hi.min(t);
                if b > a {
                    acc += s.models[0].integrate(a, b);
                }
            }
            acc
        };
        for wf in &outs {
            for i in 0..4 {
                let t = wf.span.lo + wf.span.len() * (i as f64 + 0.5) / 4.0;
                let got = wf.models[0].eval(t);
                let want = numeric(t);
                prop_assert!(
                    (got - want).abs() < 1e-6 * (1.0 + want.abs()),
                    "wf({})={} numeric={}",
                    t, got, want
                );
            }
        }
    }
}
