//! Piecewise models with online update semantics.
//!
//! §II-B: "for two adjacent input segments overlapping temporally, the
//! successor segment acts as an update to the preceding segment for the
//! overlap". [`Piecewise`] maintains that invariant for one key's worth of
//! segments, supports point evaluation, and is reused by the min/max
//! aggregate's envelope state (§III-B).

use crate::segment::Segment;
use pulse_math::{Span, EPS};

/// An ordered, non-overlapping sequence of segments for a single entity.
#[derive(Debug, Clone, Default)]
pub struct Piecewise {
    segments: Vec<Segment>,
}

impl Piecewise {
    pub fn new() -> Self {
        Piecewise { segments: Vec::new() }
    }

    /// The pieces in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of pieces.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no pieces are present.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Overall covered span, if any (gaps allowed inside).
    pub fn extent(&self) -> Option<Span> {
        match (self.segments.first(), self.segments.last()) {
            (Some(a), Some(b)) => Some(Span::new(a.span.lo, b.span.hi)),
            _ => None,
        }
    }

    /// Inserts a segment, applying update semantics: any existing piece
    /// overlapping the newcomer's span (by more than `EPS`) is truncated
    /// to its head before the newcomer, split around it, or removed — the
    /// newcomer wins, since pieces appear sequentially online.
    ///
    /// Edits the pieces in place, so the envelope allocates only when it
    /// grows. A head keeps its piece's slot, id and start; a tail (a fresh
    /// id) goes before the first piece starting at or after the
    /// newcomer's end, and the newcomer after the last piece starting at
    /// or before its own start. That is the order a stable sort by start
    /// gives the list of kept pieces with each overlapped piece's head and
    /// tail in its place and the newcomer last.
    pub fn insert(&mut self, seg: Segment) {
        let Span { lo, hi } = seg.span;
        let segs = &mut self.segments;
        let (mut i, mut tails) = (0, 0);
        while i < segs.len() {
            let old = &mut segs[i];
            if old.span.hi <= lo + EPS || old.span.lo >= hi - EPS {
                i += 1;
                continue;
            }
            // The non-overlapped tail of the old piece, if any, cut before
            // the head shortens it.
            let tail = (old.span.hi > hi + EPS).then(|| old.restricted(Span::new(hi, old.span.hi)));
            // Keep the non-overlapped head of the old piece, if any.
            let head = (lo > old.span.lo).then(|| Span::new(old.span.lo, lo));
            match head.filter(|h| h.len() > EPS) {
                Some(head) => {
                    old.span = head;
                    i += 1;
                }
                None => {
                    segs.remove(i);
                }
            }
            if let Some(tail) = tail {
                // After any earlier tail. Every piece before `i` starts
                // before `hi`, so the tail lands at or after `i`, and the
                // scan passes over it (it starts at `hi`: no overlap).
                let at = segs.partition_point(|s| s.span.lo.total_cmp(&hi).is_lt());
                segs.insert(at + tails, tail);
                tails += 1;
            }
        }
        let at = segs.partition_point(|s| s.span.lo.total_cmp(&lo).is_le());
        segs.insert(at, seg);
    }

    /// The piece valid at time `t`, if any.
    pub fn piece_at(&self, t: f64) -> Option<&Segment> {
        // Binary search over sorted starts, then verify containment.
        let idx = self.segments.partition_point(|s| s.span.lo <= t + EPS);
        idx.checked_sub(1)
            .map(|i| &self.segments[i])
            .filter(|s| s.span.contains(t) || (t - s.span.hi).abs() <= EPS && s.span.is_point())
    }

    /// Evaluates model slot `slot` at `t`, if covered.
    pub fn eval(&self, slot: usize, t: f64) -> Option<f64> {
        self.piece_at(t).map(|s| s.eval(slot, t))
    }

    /// Drops every piece that ends at or before `t` (state bounding via the
    /// reference timestamp's monotonicity, §II-B).
    pub fn expire_before(&mut self, t: f64) {
        self.segments.retain(|s| s.span.hi > t + EPS);
    }

    /// Pieces overlapping the given span.
    pub fn overlapping(&self, span: Span) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.span.overlaps(&span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::Poly;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seg(lo: f64, hi: f64, level: f64) -> Segment {
        Segment::single(1, Span::new(lo, hi), Poly::constant(level))
    }

    #[test]
    fn sequential_inserts_stay_sorted() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 1.0, 1.0));
        pw.insert(seg(1.0, 2.0, 2.0));
        pw.insert(seg(2.0, 3.0, 3.0));
        assert_eq!(pw.len(), 3);
        assert_eq!(pw.eval(0, 0.5), Some(1.0));
        assert_eq!(pw.eval(0, 1.5), Some(2.0));
        assert_eq!(pw.eval(0, 2.5), Some(3.0));
        assert_eq!(pw.eval(0, 3.5), None);
        assert_eq!(pw.extent(), Some(Span::new(0.0, 3.0)));
    }

    #[test]
    fn successor_truncates_overlap() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 10.0, 1.0));
        pw.insert(seg(4.0, 6.0, 2.0)); // punches a hole in the middle
        assert_eq!(pw.len(), 3);
        assert_eq!(pw.eval(0, 2.0), Some(1.0));
        assert_eq!(pw.eval(0, 5.0), Some(2.0));
        assert_eq!(pw.eval(0, 8.0), Some(1.0)); // old tail survives
    }

    #[test]
    fn successor_replaces_entirely() {
        let mut pw = Piecewise::new();
        pw.insert(seg(2.0, 4.0, 1.0));
        pw.insert(seg(0.0, 10.0, 2.0));
        assert_eq!(pw.len(), 1);
        assert_eq!(pw.eval(0, 3.0), Some(2.0));
    }

    #[test]
    fn update_wins_on_exact_overlap_prefix() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 10.0, 1.0));
        pw.insert(seg(5.0, 10.0, 2.0));
        assert_eq!(pw.len(), 2);
        assert_eq!(pw.eval(0, 4.9), Some(1.0));
        assert_eq!(pw.eval(0, 5.1), Some(2.0));
    }

    #[test]
    fn expiry_bounds_state() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 1.0, 1.0));
        pw.insert(seg(1.0, 2.0, 2.0));
        pw.insert(seg(2.0, 3.0, 3.0));
        pw.expire_before(1.5);
        // [0,1) fully expired; [1,2) still has live tail; [2,3) untouched.
        assert_eq!(pw.len(), 2);
        assert_eq!(pw.eval(0, 0.5), None);
    }

    #[test]
    fn overlapping_query() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 1.0, 1.0));
        pw.insert(seg(2.0, 3.0, 2.0));
        let hits: Vec<_> = pw.overlapping(Span::new(0.5, 2.5)).collect();
        assert_eq!(hits.len(), 2);
        let hits: Vec<_> = pw.overlapping(Span::new(1.2, 1.8)).collect();
        assert!(hits.is_empty());
    }

    /// The rebuild-and-sort insert: every piece moved into a fresh list,
    /// each overlapped one replaced by its head and tail, the newcomer
    /// appended, then a stable sort by start.
    fn reference_insert(pieces: &mut Vec<Segment>, seg: Segment) {
        let mut out: Vec<Segment> = Vec::with_capacity(pieces.len() + 1);
        for old in pieces.drain(..) {
            if old.span.hi <= seg.span.lo + EPS || old.span.lo >= seg.span.hi - EPS {
                out.push(old);
                continue;
            }
            if let Some(head) = old.truncated_at(seg.span.lo) {
                if head.span.len() > EPS {
                    out.push(head);
                }
            }
            if old.span.hi > seg.span.hi + EPS {
                out.push(old.restricted(Span::new(seg.span.hi, old.span.hi)));
            }
        }
        out.push(seg);
        out.sort_by(|a, b| a.span.lo.total_cmp(&b.span.lo));
        *pieces = out;
    }

    /// Starts on a coarse grid, some nudged by a fraction of `EPS`, and
    /// lengths that include zero and sub-`EPS` ones: pieces tie on
    /// starts, touch within `EPS` and nest.
    fn random_span(rng: &mut StdRng) -> Span {
        let nudge = [0.0, 0.0, 0.3 * EPS, -0.3 * EPS, 2.0 * EPS];
        let lo = rng.gen_range(0..40) as f64 * 0.5 + nudge[rng.gen_range(0..nudge.len())];
        let len = match rng.gen_range(0..8) {
            0 => 0.0,
            1 => 0.5 * EPS,
            2 => EPS,
            3 => 1.5 * EPS,
            _ => rng.gen_range(1..12) as f64 * 0.5 + nudge[rng.gen_range(0..nudge.len())],
        };
        Span::new(lo, lo + len)
    }

    /// Spans, model bits and the relative order of ids: ids are drawn
    /// from a process-wide counter, so two runs match by rank.
    fn assert_same(got: &[Segment], want: &[Segment]) {
        let ranks = |segs: &[Segment]| {
            let mut ids: Vec<_> = segs.iter().map(|s| s.id).collect();
            ids.sort();
            segs.iter().map(|s| ids.binary_search(&s.id).unwrap()).collect::<Vec<_>>()
        };
        let bits = |segs: &[Segment]| {
            let bits = |p: &Poly| p.coeffs().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            let span = |s: &Span| [s.lo.to_bits(), s.hi.to_bits()];
            segs.iter().map(|s| (span(&s.span), bits(&s.models[0]))).collect::<Vec<_>>()
        };
        assert_eq!(bits(got), bits(want));
        assert_eq!(ranks(got), ranks(want));
    }

    #[test]
    fn in_place_insert_matches_rebuild_and_sort() {
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut pw, mut want) = (Piecewise::new(), Vec::new());
            for step in 0..40 {
                let piece = Segment::single(1, random_span(&mut rng), Poly::constant(step as f64));
                pw.insert(piece.clone());
                reference_insert(&mut want, piece);
                assert_same(pw.segments(), &want);
            }
        }
    }
}
