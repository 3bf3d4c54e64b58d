//! Model segments — Pulse's first-class datatype.
//!
//! A segment `s = ([tl, tu), c)` (§II-B) is a time range over which a fixed
//! set of polynomial coefficients is valid, for every modeled attribute of a
//! keyed stream. Segments flow through the transformed query plan exactly
//! like tuples flow through a discrete plan, and lineage (§IV-B) is tracked
//! through their ids.

use pulse_math::{Poly, Span};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique segment identifier, used as the lineage handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u64);

static NEXT_SEGMENT_ID: AtomicU64 = AtomicU64::new(1);

impl SegmentId {
    /// Allocates a fresh id (process-wide).
    pub fn fresh() -> Self {
        SegmentId(NEXT_SEGMENT_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// A segment's model polynomials, one per modeled attribute, read as a
/// `[Poly]`.
///
/// One model lives inside the value itself, so a single-attribute segment
/// (a source prediction, an aggregate or envelope piece, a map output)
/// costs no heap allocation to build, clone or drop; more spill to a
/// `Vec`. New values and clones that fit go inline; a spilled buffer
/// cleared in place stays spilled, so refilling it reuses its allocation.
#[derive(Default)]
pub struct Models(Repr);

enum Repr {
    /// No model, or one.
    Inline(Option<Poly>),
    Spilled(Vec<Poly>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline(None)
    }
}

impl Models {
    /// Empty, with room for `n` models: inline for `n <= 1`, one heap
    /// allocation above that.
    pub fn with_capacity(n: usize) -> Self {
        if n <= 1 {
            Models::default()
        } else {
            Models(Repr::Spilled(Vec::with_capacity(n)))
        }
    }

    /// Appends a model, spilling to the heap at the second.
    pub fn push(&mut self, model: Poly) {
        match &mut self.0 {
            Repr::Inline(slot @ None) => *slot = Some(model),
            Repr::Inline(slot) => {
                let first = slot.take();
                self.0 = Repr::Spilled(first.into_iter().chain([model]).collect());
            }
            Repr::Spilled(v) => v.push(model),
        }
    }

    /// Removes every model, keeping a spilled buffer's allocation.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline(slot) => *slot = None,
            Repr::Spilled(v) => v.clear(),
        }
    }

    /// Appends clones of `models`.
    pub fn extend_from_slice(&mut self, models: &[Poly]) {
        match &mut self.0 {
            Repr::Spilled(v) => v.extend_from_slice(models),
            Repr::Inline(_) => models.iter().for_each(|m| self.push(m.clone())),
        }
    }
}

impl Deref for Models {
    type Target = [Poly];

    fn deref(&self) -> &[Poly] {
        match &self.0 {
            Repr::Inline(slot) => slot.as_slice(),
            Repr::Spilled(v) => v,
        }
    }
}

impl Clone for Models {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Inline(slot) => Models(Repr::Inline(slot.clone())),
            Repr::Spilled(v) => v.iter().cloned().collect(),
        }
    }
}

impl PartialEq for Models {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Models {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<Poly>> for Models {
    fn from(mut v: Vec<Poly>) -> Self {
        if v.len() <= 1 {
            Models(Repr::Inline(v.pop()))
        } else {
            Models(Repr::Spilled(v))
        }
    }
}

impl FromIterator<Poly> for Models {
    fn from_iter<I: IntoIterator<Item = Poly>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else { return Models::default() };
        let Some(second) = iter.next() else { return Models(Repr::Inline(Some(first))) };
        let mut v = Vec::with_capacity(2 + iter.size_hint().0);
        v.push(first);
        v.push(second);
        v.extend(iter);
        Models(Repr::Spilled(v))
    }
}

impl<'a> IntoIterator for &'a Models {
    type Item = &'a Poly;
    type IntoIter = std::slice::Iter<'a, Poly>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A model segment: per-attribute polynomials valid over `span`.
///
/// Polynomials are expressed in *absolute* stream time, so two segments from
/// different streams can be differenced directly (the paper's "factor time
/// variable t" step needs no re-basing). `models` is parallel to the
/// schema's [`crate::Schema::modeled_indices`] ordering; `unmodeled` to
/// [`crate::Schema::unmodeled_indices`].
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub id: SegmentId,
    pub key: u64,
    pub span: Span,
    pub models: Models,
    pub unmodeled: Vec<f64>,
}

impl Segment {
    /// Creates a segment with a fresh id.
    pub fn new(key: u64, span: Span, models: impl Into<Models>, unmodeled: Vec<f64>) -> Self {
        Segment { id: SegmentId::fresh(), key, span, models: models.into(), unmodeled }
    }

    /// Single-attribute convenience constructor.
    pub fn single(key: u64, span: Span, model: Poly) -> Self {
        Segment::new(key, span, Models(Repr::Inline(Some(model))), Vec::new())
    }

    /// Model polynomial in slot `slot` (see [`crate::Schema::model_slot`]).
    pub fn model(&self, slot: usize) -> &Poly {
        &self.models[slot]
    }

    /// Evaluates the model in `slot` at absolute time `t`.
    pub fn eval(&self, slot: usize, t: f64) -> f64 {
        self.models[slot].eval(t)
    }

    /// Restriction of this segment to a sub-span (same models, new id,
    /// lineage handled by the caller).
    pub fn restricted(&self, span: Span) -> Segment {
        debug_assert!(self.span.contains_span(&span) || span.is_point());
        Segment {
            id: SegmentId::fresh(),
            key: self.key,
            span,
            models: self.models.clone(),
            unmodeled: self.unmodeled.clone(),
        }
    }

    /// Truncates the segment's span end to `t` (update semantics: a
    /// successor overlapping `[t, …)` supersedes this piece). Returns
    /// `None` when nothing remains.
    pub fn truncated_at(&self, t: f64) -> Option<Segment> {
        if t <= self.span.lo {
            return None;
        }
        if t >= self.span.hi {
            return Some(self.clone());
        }
        let mut s = self.clone();
        s.span = Span::new(s.span.lo, t);
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::Poly;

    fn seg(lo: f64, hi: f64) -> Segment {
        Segment::single(1, Span::new(lo, hi), Poly::linear(0.0, 2.0))
    }

    #[test]
    fn fresh_ids_are_unique() {
        let a = SegmentId::fresh();
        let b = SegmentId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn eval_uses_absolute_time() {
        let s = seg(10.0, 20.0);
        assert_eq!(s.eval(0, 15.0), 30.0);
    }

    #[test]
    fn restriction_keeps_models() {
        let s = seg(0.0, 10.0);
        let r = s.restricted(Span::new(2.0, 3.0));
        assert_eq!(r.span, Span::new(2.0, 3.0));
        assert_eq!(r.models, s.models);
        assert_ne!(r.id, s.id);
        assert_eq!(r.key, s.key);
    }

    #[test]
    fn truncation_update_semantics() {
        let s = seg(0.0, 10.0);
        // Successor starting at 4 truncates us to [0, 4).
        let t = s.truncated_at(4.0).unwrap();
        assert_eq!(t.span, Span::new(0.0, 4.0));
        // Truncation at/before start removes the segment entirely.
        assert!(s.truncated_at(0.0).is_none());
        assert!(s.truncated_at(-1.0).is_none());
        // Truncation beyond the end is a no-op.
        assert_eq!(s.truncated_at(99.0).unwrap().span, s.span);
    }

    fn polys(n: usize) -> Vec<Poly> {
        (0..n).map(|i| Poly::linear(i as f64, 0.5)).collect()
    }

    fn inline(m: &Models) -> bool {
        matches!(m.0, Repr::Inline(_))
    }

    #[test]
    fn models_hold_one_inline_and_spill_above() {
        for n in 0..=3 {
            let want = polys(n);
            let mut m = Models::with_capacity(n);
            for p in &want {
                m.push(p.clone());
            }
            assert_eq!(&*m, &want[..], "{n} models");
            assert_eq!(inline(&m), n <= 1, "{n} models");
            assert_eq!(m.len(), n);
            let mut grown = Models::default();
            grown.extend_from_slice(&want);
            assert_eq!(grown, m);
            assert_eq!(inline(&grown), n <= 1);
        }
    }

    #[test]
    fn models_clone_compare_and_print_like_a_slice() {
        for n in 0..=3 {
            let want = polys(n);
            let from_vec = Models::from(want.clone());
            let collected: Models = want.iter().cloned().collect();
            assert_eq!(inline(&from_vec), n <= 1);
            assert_eq!(inline(&collected), n <= 1);
            assert_eq!(from_vec, collected);
            assert_eq!(from_vec.clone(), from_vec);
            assert_eq!(format!("{from_vec:?}"), format!("{:?}", &want[..]));
            assert_eq!(
                (&collected).into_iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>()
            );
        }
        // A spilled buffer cleared and refilled with one model stays
        // spilled; it still equals (and clones to) the inline one.
        let mut spilled = Models::with_capacity(2);
        spilled.push(Poly::constant(1.0));
        spilled.push(Poly::constant(2.0));
        spilled.clear();
        assert!(spilled.is_empty() && !inline(&spilled));
        spilled.push(Poly::constant(3.0));
        let one = Models::from(vec![Poly::constant(3.0)]);
        assert!(!inline(&spilled) && inline(&one));
        assert_eq!(spilled, one);
        assert!(inline(&spilled.clone()));
    }

    #[test]
    fn segment_stays_small() {
        // One inline `Poly` (40 bytes) in place of a `Vec` (24).
        assert!(std::mem::size_of::<Segment>() <= 104, "{}", std::mem::size_of::<Segment>());
    }
}
