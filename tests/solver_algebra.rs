//! Property tests for the algebra the equation-system solver is built on:
//! the boolean laws of [`RangeSet`] (predicate conjunction/disjunction/
//! negation map to intersection/union/complement) and the soundness of the
//! continuous join against pointwise predicate evaluation.

use proptest::prelude::*;
use pulse::core::{Binding, CJoin, COperator, LineageStore};
use pulse::math::{CmpOp, Poly, RangeSet, Span};
use pulse::model::{AttrKind, Expr, Pred, Schema, Segment};
use pulse::obs::Tracer;
use pulse::stream::KeyJoin;

fn arb_rangeset() -> impl Strategy<Value = RangeSet> {
    prop::collection::vec((0.0..20.0_f64, 0.1..5.0_f64), 0..6).prop_map(|spans| {
        RangeSet::from_spans(spans.into_iter().map(|(lo, len)| Span::new(lo, lo + len)).collect())
    })
}

const DOMAIN: Span = Span { lo: -1.0, hi: 26.0 };

/// Approximate set equality: both differences have (near-)zero measure.
fn assert_set_eq(a: &RangeSet, b: &RangeSet) -> Result<(), TestCaseError> {
    let d1 = a.subtract(b).measure();
    let d2 = b.subtract(a).measure();
    prop_assert!(d1 < 1e-6 && d2 < 1e-6, "sets differ: {a:?} vs {b:?}");
    Ok(())
}

proptest! {
    /// Union and intersection are commutative and associative.
    #[test]
    fn union_intersect_laws(a in arb_rangeset(), b in arb_rangeset(), c in arb_rangeset()) {
        assert_set_eq(&a.union(&b), &b.union(&a))?;
        assert_set_eq(&a.intersect(&b), &b.intersect(&a))?;
        assert_set_eq(&a.union(&b).union(&c), &a.union(&b.union(&c)))?;
        assert_set_eq(&a.intersect(&b).intersect(&c), &a.intersect(&b.intersect(&c)))?;
    }

    /// De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B within the domain — the law the
    /// solver relies on when predicates contain Not over Or.
    #[test]
    fn de_morgan(a in arb_rangeset(), b in arb_rangeset()) {
        let lhs = a.union(&b).complement(DOMAIN);
        let rhs = a.complement(DOMAIN).intersect(&b.complement(DOMAIN));
        assert_set_eq(&lhs, &rhs)?;
    }

    /// Double complement within the domain restores the clipped set.
    #[test]
    fn double_complement(a in arb_rangeset()) {
        let clipped = a.clip(DOMAIN);
        let back = a.complement(DOMAIN).complement(DOMAIN);
        assert_set_eq(&clipped, &back)?;
    }

    /// Distributivity: A ∩ (B ∪ C) = (A ∩ B) ∪ (A ∩ C).
    #[test]
    fn distributivity(a in arb_rangeset(), b in arb_rangeset(), c in arb_rangeset()) {
        let lhs = a.intersect(&b.union(&c));
        let rhs = a.intersect(&b).union(&a.intersect(&c));
        assert_set_eq(&lhs, &rhs)?;
    }

    /// Continuous join soundness on random linear models: inside every
    /// output span the predicate holds pointwise; outside all output spans
    /// (within the overlap) it fails.
    #[test]
    fn cjoin_matches_pointwise_predicate(
        li in -10.0..10.0_f64, ls in -2.0..2.0_f64,
        ri in -10.0..10.0_f64, rs in -2.0..2.0_f64,
    ) {
        let schema = Schema::of(&[("x", AttrKind::Modeled)]);
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0));
        let mut join = CJoin::new(
            100.0,
            pred,
            KeyJoin::Any,
            [Binding::new(schema.clone()), Binding::new(schema)],
        );
        let l = Segment::single(1, Span::new(0.0, 10.0), Poly::linear(li, ls));
        let r = Segment::single(2, Span::new(0.0, 10.0), Poly::linear(ri, rs));
        let (mut store, mut out) = (LineageStore::default(), Vec::new());
        join.process(0, &l, &mut store, &mut Tracer::off(), &mut out);
        join.process(1, &r, &mut store, &mut Tracer::off(), &mut out);
        let lv = |t: f64| li + ls * t;
        let rv = |t: f64| ri + rs * t;
        for o in &out {
            if !o.span.is_point() {
                let t = o.span.mid();
                prop_assert!(lv(t) < rv(t) + 1e-6, "inside output at t={t}");
            }
        }
        // Grid check of the complement.
        for i in 0..40 {
            let t = 0.125 + i as f64 * 0.25;
            let inside = out.iter().any(|o| o.span.contains(t));
            let holds = lv(t) < rv(t);
            // Skip near the crossing where tolerance decides.
            if (lv(t) - rv(t)).abs() > 1e-3 {
                prop_assert_eq!(inside, holds, "t={}", t);
            }
        }
    }
}
