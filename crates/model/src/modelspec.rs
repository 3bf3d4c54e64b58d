//! Declarative MODEL clauses for predictive processing.
//!
//! §II-B: "Query developers provide symbolic models defining a modeled
//! stream attribute in terms of other attributes on the same stream and a
//! variable t", e.g. `MODEL A.x = A.x + A.v*t`. A [`ModelSpec`] is one such
//! definition; instantiating it against an input tuple substitutes the
//! tuple's coefficient values and produces the numeric polynomial segment
//! that predictive processing feeds into the equation systems.

use crate::expr::{Expr, ExprError};
use crate::schema::Schema;
use crate::segment::{Models, Segment};
use crate::tuple::Tuple;
use pulse_math::{Poly, Span};

/// The symbolic model of one modeled attribute.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Schema index of the attribute this model defines.
    pub target: usize,
    /// Defining expression over the tuple's attributes and `Expr::Time`,
    /// where `t` is the offset from the tuple's reference timestamp.
    pub expr: Expr,
}

impl ModelSpec {
    pub fn new(target: usize, expr: Expr) -> Self {
        ModelSpec { target, expr }
    }

    /// Instantiates the model from a tuple: coefficient attributes become
    /// constants, and the local-`t` polynomial is re-based to absolute
    /// stream time (so that `poly.eval(tuple.ts) == value at arrival`).
    pub fn instantiate(&self, tuple: &Tuple) -> Result<Poly, ExprError> {
        let local = self.expr.to_poly(&|input, attr| {
            if input != 0 || attr >= tuple.values.len() {
                return Err(ExprError::UnknownAttr { input, attr });
            }
            Ok(Poly::constant(tuple.values[attr]))
        })?;
        // local is in t-since-tuple; absolute time substitutes t ← t − ts.
        Ok(local.compose_linear(1.0, -tuple.ts))
    }
}

/// A set of MODEL clauses covering every modeled attribute of a stream.
#[derive(Debug, Clone)]
pub struct StreamModel {
    pub schema: Schema,
    pub specs: Vec<ModelSpec>,
}

impl StreamModel {
    /// Builds and validates: there must be exactly one spec per modeled
    /// attribute, in schema modeled order.
    pub fn new(schema: Schema, mut specs: Vec<ModelSpec>) -> Result<Self, String> {
        let modeled = schema.modeled_indices();
        specs.sort_by_key(|s| s.target);
        let targets: Vec<usize> = specs.iter().map(|s| s.target).collect();
        if targets != modeled {
            return Err(format!(
                "MODEL clauses cover attributes {targets:?} but schema models {modeled:?}"
            ));
        }
        Ok(StreamModel { schema, specs })
    }

    /// Builds the predictive segment for one input tuple: every modeled
    /// attribute instantiated, valid for `horizon` seconds from the tuple
    /// (until superseded by the next tuple's segment — update semantics).
    pub fn segment_for(&self, tuple: &Tuple, horizon: f64) -> Result<Segment, ExprError> {
        let models =
            self.specs.iter().map(|s| s.instantiate(tuple)).collect::<Result<Models, _>>()?;
        let unmodeled =
            self.schema.unmodeled_indices().into_iter().map(|i| tuple.values[i]).collect();
        Ok(Segment {
            id: crate::segment::SegmentId::fresh(),
            key: tuple.key,
            span: Span::new(tuple.ts, tuple.ts + horizon),
            models,
            unmodeled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrKind;

    fn moving_object_schema() -> Schema {
        Schema::of(&[
            ("x", AttrKind::Modeled),
            ("vx", AttrKind::Coefficient),
            ("y", AttrKind::Modeled),
            ("vy", AttrKind::Coefficient),
        ])
    }

    fn position_model(schema: &Schema) -> StreamModel {
        // x(t) = x + vx·t ; y(t) = y + vy·t  — Figure 1's MODEL clause.
        StreamModel::new(
            schema.clone(),
            vec![
                ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time),
                ModelSpec::new(2, Expr::attr(2) + Expr::attr(3) * Expr::Time),
            ],
        )
        .unwrap()
    }

    #[test]
    fn instantiation_substitutes_coefficients() {
        let schema = moving_object_schema();
        let sm = position_model(&schema);
        let tuple = Tuple::new(5, 100.0, vec![10.0, 2.0, -3.0, 0.5]);
        let seg = sm.segment_for(&tuple, 10.0).unwrap();
        assert_eq!(seg.key, 5);
        assert_eq!(seg.span, Span::new(100.0, 110.0));
        // At arrival the model reproduces the observed value...
        assert!((seg.eval(0, 100.0) - 10.0).abs() < 1e-9);
        assert!((seg.eval(1, 100.0) + 3.0).abs() < 1e-9);
        // ...and extrapolates linearly.
        assert!((seg.eval(0, 103.0) - 16.0).abs() < 1e-9);
        assert!((seg.eval(1, 104.0) - (-1.0)).abs() < 1e-9);
    }

    #[test]
    fn quadratic_model_clause() {
        // B.y = B.v·t + B.a·t² (Figure 1's right-hand stream).
        let spec = ModelSpec::new(
            0,
            Expr::attr(1) * Expr::Time + Expr::attr(2) * Expr::Pow(Box::new(Expr::Time), 2),
        );
        let tuple = Tuple::new(1, 0.0, vec![0.0, 3.0, 0.5]);
        let p = spec.instantiate(&tuple).unwrap();
        assert!((p.eval(2.0) - (3.0 * 2.0 + 0.5 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_wrong_coverage() {
        let schema = moving_object_schema();
        let err = StreamModel::new(
            schema,
            vec![ModelSpec::new(0, Expr::attr(0))], // misses y
        );
        assert!(err.is_err());
    }

    #[test]
    fn self_reference_allowed() {
        // §II-B allows A.x = A.x + A.v·t because coefficients come from the
        // actual tuple; target and coefficient may be the same attribute.
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let sm = StreamModel::new(
            schema,
            vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
        )
        .unwrap();
        let seg = sm.segment_for(&Tuple::new(0, 1.0, vec![7.0, 1.0]), 5.0).unwrap();
        assert!((seg.eval(0, 1.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_attr_errors() {
        let spec = ModelSpec::new(0, Expr::attr(9));
        let tuple = Tuple::new(0, 0.0, vec![1.0]);
        assert!(matches!(spec.instantiate(&tuple), Err(ExprError::UnknownAttr { .. })));
    }
}
