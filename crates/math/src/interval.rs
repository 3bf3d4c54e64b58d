//! Time intervals and sets of intervals.
//!
//! Pulse segments are valid over half-open time ranges `[lo, hi)` and
//! equation-system solutions are unions of such ranges, possibly degenerate
//! (a single point, as produced by equality predicates). [`Span`] models one
//! range, [`RangeSet`] a sorted disjoint union of them with the boolean
//! algebra (union / intersection / complement) needed to evaluate compound
//! predicates over per-conjunct solution sets.

/// Tolerance used when deciding whether two boundaries touch.
///
/// All interval arithmetic in Pulse is numeric (boundaries come out of root
/// finders), so exact open/closed bookkeeping is meaningless below the root
/// tolerance; boundaries closer than `EPS` are treated as equal.
pub const EPS: f64 = 1e-9;

/// A time range `[lo, hi)`, or a single point when `lo == hi`.
///
/// Invariant: `lo <= hi` and both finite. A degenerate span (`lo == hi`)
/// denotes the closed singleton `{lo}`; these arise from equality predicates
/// whose solution is an isolated root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub lo: f64,
    pub hi: f64,
}

impl Span {
    /// Creates `[lo, hi)`; panics if `lo > hi` beyond tolerance or not finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "span bounds must be finite");
        assert!(lo <= hi + EPS, "span lower bound {lo} exceeds upper bound {hi}");
        Span { lo, hi: hi.max(lo) }
    }

    /// The closed singleton `{t}`.
    pub fn point(t: f64) -> Self {
        Span::new(t, t)
    }

    /// True when this span is a single point.
    pub fn is_point(&self) -> bool {
        self.hi - self.lo <= EPS
    }

    /// Length of the span (zero for points).
    pub fn len(&self) -> f64 {
        self.hi - self.lo
    }

    /// True when the span has zero length.
    pub fn is_empty(&self) -> bool {
        self.is_point()
    }

    /// Whether `t` lies inside the span (points are closed, ranges half-open,
    /// both within tolerance).
    pub fn contains(&self, t: f64) -> bool {
        if self.is_point() {
            (t - self.lo).abs() <= EPS
        } else {
            t >= self.lo - EPS && t < self.hi - EPS
        }
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_span(&self, other: &Span) -> bool {
        other.lo >= self.lo - EPS && other.hi <= self.hi + EPS
    }

    /// Whether the two spans share at least one point.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.intersect(other).is_some()
    }

    /// Intersection, `None` when disjoint. Point∩range keeps the point when
    /// the range contains it; range∩range yields the overlap if nonempty.
    pub fn intersect(&self, other: &Span) -> Option<Span> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if self.is_point() {
            return other.contains(self.lo).then_some(*self);
        }
        if other.is_point() {
            return self.contains(other.lo).then_some(*other);
        }
        (hi - lo > EPS).then(|| Span::new(lo, hi))
    }

    /// Midpoint of the span.
    pub fn mid(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Translates the span by `dt`.
    pub fn shift(&self, dt: f64) -> Span {
        Span::new(self.lo + dt, self.hi + dt)
    }
}

/// A sorted set of pairwise-disjoint [`Span`]s.
///
/// This is the solution datatype of Pulse's equation systems: conjunction of
/// predicates intersects per-row solutions, disjunction unions them, and
/// negation complements within the segment's valid range.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RangeSet {
    spans: Vec<Span>,
}

impl RangeSet {
    /// The empty set.
    pub fn empty() -> Self {
        RangeSet { spans: Vec::new() }
    }

    /// A set holding a single span.
    pub fn single(span: Span) -> Self {
        RangeSet { spans: vec![span] }
    }

    /// Builds a set from arbitrary spans, normalizing (sorting + merging
    /// overlapping or touching spans; points absorbed into ranges).
    pub fn from_spans(mut spans: Vec<Span>) -> Self {
        RangeSet::normalize_in_place(&mut spans);
        RangeSet { spans }
    }

    /// Normalizes `spans` in place into sorted, pairwise-disjoint form: the
    /// normalization of [`RangeSet::from_spans`], without a second buffer.
    ///
    /// The greedy merge starts a new span exactly when a span's start lies
    /// more than `EPS` beyond every earlier end, and the kept end is the
    /// running maximum. Normalizing a sub-list first changes neither, so
    /// normalizing a concatenation once is bit-identical to any chain of
    /// [`RangeSet::union`]s over its parts.
    pub fn normalize_in_place(spans: &mut Vec<Span>) {
        // NaN policy: `Span::new` asserts finite endpoints, so `total_cmp`
        // orders exactly like `partial_cmp` here — minus the unwrap that a
        // fuzzer could in principle reach through unchecked constructors.
        spans.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        let mut kept = 0;
        for i in 0..spans.len() {
            let s = spans[i];
            if kept > 0 && s.lo <= spans[kept - 1].hi + EPS {
                // Touching or overlapping: extend unless both are the same
                // point. A point touching the right boundary of a range is
                // kept merged: half-open vs closed distinctions are below
                // root-finder tolerance anyway.
                let last = &mut spans[kept - 1];
                if s.hi > last.hi {
                    last.hi = s.hi;
                }
            } else {
                spans[kept] = s;
                kept += 1;
            }
        }
        spans.truncate(kept);
    }

    /// The spans in ascending order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// True when the set contains nothing.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of disjoint spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total measure (points contribute zero).
    pub fn measure(&self) -> f64 {
        self.spans.iter().map(Span::len).sum()
    }

    /// Whether `t` lies in any span.
    pub fn contains(&self, t: f64) -> bool {
        self.spans.iter().any(|s| s.contains(t))
    }

    /// Set union.
    pub fn union(&self, other: &RangeSet) -> RangeSet {
        let mut all = self.spans.clone();
        all.extend_from_slice(&other.spans);
        RangeSet::from_spans(all)
    }

    /// Set intersection (sweep over both sorted span lists).
    pub fn intersect(&self, other: &RangeSet) -> RangeSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a, b) = (self.spans[i], other.spans[j]);
            if let Some(x) = a.intersect(&b) {
                out.push(x);
            }
            if a.hi <= b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        RangeSet::from_spans(out)
    }

    /// Complement within `domain`. Degenerate boundary slivers (shorter than
    /// tolerance) are dropped; complements of points split the domain.
    pub fn complement(&self, domain: Span) -> RangeSet {
        let mut out = Vec::new();
        RangeSet::complement_into(&self.spans, domain, &mut out);
        RangeSet::from_spans(out)
    }

    /// Appends the complement of `spans` within `domain` to `out`, ascending
    /// but not normalized; `spans` must be normalized (as a [`RangeSet`]'s
    /// are). [`RangeSet::complement`] is this followed by normalization.
    pub fn complement_into(spans: &[Span], domain: Span, out: &mut Vec<Span>) {
        let mut cursor = domain.lo;
        for s in spans {
            if s.hi < domain.lo || s.lo > domain.hi {
                continue;
            }
            if s.lo - cursor > EPS {
                out.push(Span::new(cursor, s.lo.min(domain.hi)));
            }
            // A removed point must clear the containment tolerance of the
            // following span's lower bound, hence the 2·EPS step.
            cursor = cursor.max(if s.is_point() { s.hi + 2.0 * EPS } else { s.hi });
        }
        if domain.hi - cursor > EPS {
            out.push(Span::new(cursor, domain.hi));
        }
    }

    /// Set difference `self \ other` within the hull of `self`.
    pub fn subtract(&self, other: &RangeSet) -> RangeSet {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        let hull = Span::new(self.spans[0].lo, self.spans.last().unwrap().hi);
        self.intersect(&other.complement(hull))
    }

    /// Clips every span to `window`, discarding what falls outside.
    pub fn clip(&self, window: Span) -> RangeSet {
        self.intersect(&RangeSet::single(window))
    }
}

impl From<Span> for RangeSet {
    fn from(s: Span) -> Self {
        RangeSet::single(s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn span_basic_containment() {
        let s = Span::new(1.0, 2.0);
        assert!(s.contains(1.0));
        assert!(s.contains(1.5));
        assert!(!s.contains(2.0)); // half-open
        assert!(!s.contains(0.99));
        assert!(!s.is_point());
        assert_eq!(s.len(), 1.0);
    }

    #[test]
    fn point_span_is_closed() {
        let p = Span::point(3.0);
        assert!(p.is_point());
        assert!(p.contains(3.0));
        assert!(!p.contains(3.1));
        assert_eq!(p.len(), 0.0);
    }

    #[test]
    fn span_intersection() {
        let a = Span::new(0.0, 2.0);
        let b = Span::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Some(Span::new(1.0, 2.0)));
        let c = Span::new(2.0, 3.0);
        assert_eq!(a.intersect(&c), None); // touching half-open ranges share nothing
        let p = Span::point(1.5);
        assert_eq!(a.intersect(&p), Some(p));
        assert_eq!(p.intersect(&a), Some(p));
        let q = Span::point(5.0);
        assert_eq!(a.intersect(&q), None);
    }

    #[test]
    fn rangeset_normalizes_overlaps() {
        let rs = RangeSet::from_spans(vec![
            Span::new(3.0, 4.0),
            Span::new(0.0, 1.0),
            Span::new(0.5, 2.0),
        ]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.spans()[0], Span::new(0.0, 2.0));
        assert_eq!(rs.spans()[1], Span::new(3.0, 4.0));
    }

    #[test]
    fn rangeset_union_intersect() {
        let a = RangeSet::from_spans(vec![Span::new(0.0, 2.0), Span::new(4.0, 6.0)]);
        let b = RangeSet::from_spans(vec![Span::new(1.0, 5.0)]);
        let u = a.union(&b);
        assert_eq!(u.spans(), &[Span::new(0.0, 6.0)]);
        let i = a.intersect(&b);
        assert_eq!(i.spans(), &[Span::new(1.0, 2.0), Span::new(4.0, 5.0)]);
    }

    #[test]
    fn rangeset_complement() {
        let a = RangeSet::from_spans(vec![Span::new(1.0, 2.0)]);
        let c = a.complement(Span::new(0.0, 3.0));
        assert_eq!(c.spans(), &[Span::new(0.0, 1.0), Span::new(2.0, 3.0)]);
        // Complement of empty is the whole domain.
        let e = RangeSet::empty().complement(Span::new(0.0, 1.0));
        assert_eq!(e.spans(), &[Span::new(0.0, 1.0)]);
        // Complement of the whole domain is empty.
        let f = RangeSet::single(Span::new(0.0, 1.0)).complement(Span::new(0.0, 1.0));
        assert!(f.is_empty());
    }

    #[test]
    fn rangeset_subtract() {
        let a = RangeSet::single(Span::new(0.0, 10.0));
        let b = RangeSet::from_spans(vec![Span::new(2.0, 3.0), Span::new(5.0, 6.0)]);
        let d = a.subtract(&b);
        assert_eq!(d.spans(), &[Span::new(0.0, 2.0), Span::new(3.0, 5.0), Span::new(6.0, 10.0)]);
    }

    #[test]
    fn rangeset_measure_and_clip() {
        let a = RangeSet::from_spans(vec![Span::new(0.0, 1.0), Span::new(2.0, 4.0)]);
        assert!((a.measure() - 3.0).abs() < 1e-12);
        let c = a.clip(Span::new(0.5, 3.0));
        assert_eq!(c.spans(), &[Span::new(0.5, 1.0), Span::new(2.0, 3.0)]);
    }

    #[test]
    fn points_in_rangesets() {
        let rs = RangeSet::from_spans(vec![Span::point(1.0), Span::point(1.0), Span::point(2.0)]);
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(1.0));
        assert!(rs.contains(2.0));
        assert!(!rs.contains(1.5));
        assert_eq!(rs.measure(), 0.0);
    }

    /// Fewer than `max` random spans with points, duplicates, exactly
    /// touching and EPS-touching ends, in no particular order.
    pub(crate) fn random_spans(rng: &mut impl rand::Rng, max: usize) -> Vec<Span> {
        let n = rng.gen_range(0..max);
        let mut v: Vec<Span> = Vec::with_capacity(n);
        for _ in 0..n {
            let near = v.get(rng.gen_range(0..v.len().max(1))).copied();
            let s = match (rng.gen_range(0..6), near) {
                (0, _) => Span::point(rng.gen_range(0..20) as f64 * 0.5),
                (1, Some(e)) => e,
                (2, Some(e)) => {
                    let lo = e.hi + rng.gen_range(-2..=3) as f64 * 0.5 * EPS;
                    if rng.gen_bool(0.3) {
                        Span::point(lo)
                    } else {
                        Span::new(lo, lo + rng.gen_range(0..4) as f64 * 0.5)
                    }
                }
                (3, Some(e)) => Span::new(e.hi, e.hi + rng.gen_range(0.0..2.0)),
                (4, _) => {
                    let lo = rng.gen_range(0..20) as f64 * 0.5;
                    Span::new(lo, lo + rng.gen_range(1..4) as f64 * 0.5)
                }
                _ => {
                    let lo = rng.gen_range(0.0..10.0);
                    Span::new(lo, lo + rng.gen_range(0.0..2.0))
                }
            };
            v.push(s);
        }
        v
    }

    pub(crate) fn span_bits(spans: &[Span]) -> Vec<(u64, u64)> {
        spans.iter().map(|s| (s.lo.to_bits(), s.hi.to_bits())).collect()
    }

    #[test]
    fn one_normalization_equals_chained_unions() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut merged = 0;
        for _ in 0..3000 {
            let parts: Vec<Vec<Span>> = (0..3).map(|_| random_spans(&mut rng, 8)).collect();
            let mut all = parts.concat();
            let n = all.len();
            RangeSet::normalize_in_place(&mut all);
            merged += usize::from(all.len() < n);
            let chained = parts
                .iter()
                .map(|p| RangeSet::from_spans(p.clone()))
                .reduce(|a, b| a.union(&b))
                .unwrap();
            assert_eq!(span_bits(&all), span_bits(chained.spans()), "{parts:?}");
            assert!(all.windows(2).all(|w| w[1].lo > w[0].hi + EPS), "{all:?}");
            for s in parts.iter().flatten() {
                assert!(all.iter().any(|o| o.lo <= s.lo && s.hi <= o.hi), "{s:?} in {all:?}");
            }
        }
        assert!(merged > 1000, "{merged}");
    }

    #[test]
    fn complement_into_then_normalize_equals_complement() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..3000 {
            let set = RangeSet::from_spans(random_spans(&mut rng, 8));
            let lo = rng.gen_range(-1.0..5.0);
            let domain = Span::new(lo, lo + rng.gen_range(0.0..8.0));
            let mut out = Vec::new();
            RangeSet::complement_into(set.spans(), domain, &mut out);
            RangeSet::normalize_in_place(&mut out);
            assert_eq!(span_bits(&out), span_bits(set.complement(domain).spans()), "{set:?}");
            // Appended after other spans, as the min/max envelope does.
            let prefix = random_spans(&mut rng, 4);
            let mut out = prefix.clone();
            RangeSet::complement_into(set.spans(), domain, &mut out);
            RangeSet::normalize_in_place(&mut out);
            let want = RangeSet::from_spans(prefix).union(&set.complement(domain));
            assert_eq!(span_bits(&out), span_bits(want.spans()), "{set:?}");
        }
    }
}
