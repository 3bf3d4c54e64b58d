//! Schema bindings: resolving attribute references against segments.
//!
//! The equation-system builders need to turn `Expr::Attr { input, attr }`
//! into a polynomial. A [`Binding`] knows, for each operator input, which
//! attributes are modeled (→ the segment's polynomial), which are unmodeled
//! (→ a constant polynomial), and which are unavailable in the continuous
//! plan (keys and raw coefficients, which are consumed by MODEL-clause
//! instantiation before segments enter the plan).

use pulse_math::Poly;
use pulse_model::{AttrKind, ExprError, Schema, Segment};

/// Attribute resolution for one operator input.
#[derive(Debug, Clone)]
pub struct Binding {
    schema: Schema,
    /// attr index → model slot (None for non-modeled attrs)
    slots: Vec<Option<usize>>,
    /// attr index → unmodeled slot
    unmodeled: Vec<Option<usize>>,
}

impl Binding {
    pub fn new(schema: Schema) -> Self {
        let mut slots = vec![None; schema.len()];
        for (slot, idx) in schema.modeled_indices().into_iter().enumerate() {
            slots[idx] = Some(slot);
        }
        let mut unmodeled = vec![None; schema.len()];
        for (slot, idx) in schema.unmodeled_indices().into_iter().enumerate() {
            unmodeled[idx] = Some(slot);
        }
        Binding { schema, slots, unmodeled }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Polynomial form of attribute `attr` within `seg`.
    pub fn poly_of(&self, seg: &Segment, attr: usize) -> Result<Poly, ExprError> {
        let mut p = Poly::zero();
        self.poly_into(seg, attr, &mut p).map(|_| p)
    }

    /// [`poly_of`] writing into a caller-owned buffer (a VM coefficient
    /// slot) instead of allocating — the substitution path of the bytecode
    /// VM.
    ///
    /// [`poly_of`]: Binding::poly_of
    pub fn poly_into(&self, seg: &Segment, attr: usize, out: &mut Poly) -> Result<(), ExprError> {
        self.poly_of_parts(&[seg], attr, out)
    }

    /// [`Self::poly_into`] over the columns of `parts` read side by side as
    /// one segment's: a join pair's halves, before anything concatenates
    /// them.
    pub fn poly_of_parts(
        &self,
        parts: &[&Segment],
        attr: usize,
        out: &mut Poly,
    ) -> Result<(), ExprError> {
        if attr >= self.schema.len() {
            return Err(ExprError::UnknownAttr { input: 0, attr });
        }
        match self.schema.attr(attr).kind {
            AttrKind::Modeled => out.copy_from(column(parts, |s| &s.models[..], self.slots[attr])),
            AttrKind::Unmodeled => {
                out.set_constant(*column(parts, |s| &s.unmodeled[..], self.unmodeled[attr]))
            }
            AttrKind::Key | AttrKind::Coefficient => {
                return Err(ExprError::NotPolynomial(
                    "key/coefficient attributes are not visible to continuous operators",
                ))
            }
        }
        Ok(())
    }

    /// Model slot of a modeled attribute (used by aggregates to pick their
    /// target polynomial).
    pub fn model_slot(&self, attr: usize) -> Option<usize> {
        self.slots.get(attr).copied().flatten()
    }
}

/// Column `slot` of `parts` side by side, each part's columns read by
/// `cols`.
fn column<'a, T>(
    parts: &[&'a Segment],
    cols: impl Fn(&'a Segment) -> &'a [T],
    slot: Option<usize>,
) -> &'a T {
    let mut i = slot.expect("the binding's schema gives the attribute a slot");
    for part in parts {
        let c = cols(part);
        match c.get(i) {
            Some(v) => return v,
            None => i -= c.len(),
        }
    }
    panic!("slot past the segment's columns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::Span;

    #[test]
    fn resolves_modeled_and_unmodeled() {
        let schema = Schema::of(&[
            ("x", AttrKind::Modeled),
            ("flag", AttrKind::Unmodeled),
            ("y", AttrKind::Modeled),
        ]);
        let b = Binding::new(schema);
        let seg = Segment::new(
            1,
            Span::new(0.0, 1.0),
            vec![Poly::linear(0.0, 1.0), Poly::linear(5.0, -1.0)],
            vec![9.0],
        );
        assert_eq!(b.poly_of(&seg, 0).unwrap(), Poly::linear(0.0, 1.0));
        assert_eq!(b.poly_of(&seg, 2).unwrap(), Poly::linear(5.0, -1.0));
        assert_eq!(b.poly_of(&seg, 1).unwrap(), Poly::constant(9.0));
        assert!(b.poly_of(&seg, 7).is_err());
        assert_eq!(b.model_slot(2), Some(1));
        assert_eq!(b.model_slot(1), None);
    }

    #[test]
    fn parts_read_as_their_concatenation() {
        let half =
            |name: &str| Schema::of(&[(name, AttrKind::Modeled), ("f", AttrKind::Unmodeled)]);
        let b = Binding::new(half("x").join(&half("y"), "l", "r"));
        let l = Segment::new(1, Span::new(0.0, 1.0), vec![Poly::linear(1.0, 2.0)], vec![3.0]);
        let r = Segment::new(2, Span::new(0.0, 1.0), vec![Poly::linear(4.0, 5.0)], vec![6.0]);
        let whole = Segment::new(
            3,
            Span::new(0.0, 1.0),
            vec![l.models[0].clone(), r.models[0].clone()],
            vec![3.0, 6.0],
        );
        for attr in 0..4 {
            let mut got = Poly::zero();
            b.poly_of_parts(&[&l, &r], attr, &mut got).unwrap();
            assert_eq!(got, b.poly_of(&whole, attr).unwrap(), "attr {attr}");
        }
    }

    #[test]
    fn rejects_coefficient_attrs() {
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let b = Binding::new(schema);
        let seg = Segment::single(0, Span::new(0.0, 1.0), Poly::zero());
        assert!(b.poly_of(&seg, 1).is_err());
    }
}
