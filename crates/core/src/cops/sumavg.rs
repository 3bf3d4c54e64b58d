//! Continuous sum/average aggregate — window functions.
//!
//! §III-B: "the sum aggregate has a well-defined continuous form, namely
//! the integration operator", windowed. For a window of width `w` closing
//! at `t`, the operator emits a *window function* — a polynomial in `t` —
//! valid over a span of closing times:
//!
//! * single-segment window (Eq. 2):  `wf(t) = ∫_{t−w}^{t} x  = A(t) − A(t−w)`
//! * multi-segment window:           `wf(t) = tail(t) + C + head(t)` where
//!   the *tail integral* `∫_{t−w}^{tu₃} x₃` expands `(t−w)^i` terms by the
//!   binomial theorem ([`pulse_math::Poly::compose_linear`]), `C` is the
//!   cached integral of fully covered segments, and the *head integral* is
//!   `∫_{tl}^{t}` of the newest segment.
//!
//! Averages divide by `w` (`wf_avg = wf_sum / w`). Window functions
//! "preserve continuity downstream from the aggregate": the emitted
//! segments flow into further operators like any model segment.

use super::COperator;
use crate::lineage::SharedLineage;
use pulse_math::{Poly, Span, EPS};
use pulse_model::{Segment, SegmentId};
use pulse_obs::{TraceKind, Tracer};
use pulse_stream::OpMetrics;
use std::any::Any;

struct HistEntry {
    span: Span,
    /// Antiderivative, cached on arrival ("we compute and cache the segment
    /// integral C, in addition to a function for the tail integral").
    anti: Poly,
    id: SegmentId,
}

/// Continuous sum/avg aggregate over one modeled attribute (one group).
pub struct CSumAvg {
    avg: bool,
    slot: usize,
    width: f64,
    history: Vec<HistEntry>,
    /// `prefix[i]` = Σ_{j ≤ i} ∫ history[j] over its span (rebuilt per
    /// arrival; O(1) covered-segment constants per window function).
    prefix: Vec<f64>,
    /// Contiguous-run id per entry: `group[i] == group[j]` iff the pieces
    /// between i and j tile time without a gap (O(1) coverage checks).
    group: Vec<usize>,
    start: Option<f64>,
    emitted_until: f64,
    lineage: SharedLineage,
    /// Parent ids of the window function being emitted (reused).
    parents: Vec<SegmentId>,
    m: OpMetrics,
}

impl CSumAvg {
    pub fn new(avg: bool, slot: usize, width: f64, lineage: SharedLineage) -> Self {
        CSumAvg {
            avg,
            slot,
            width,
            history: Vec::new(),
            prefix: Vec::new(),
            group: Vec::new(),
            start: None,
            emitted_until: f64::NEG_INFINITY,
            lineage,
            parents: Vec::new(),
            m: OpMetrics::default(),
        }
    }

    /// Builds the window function for closes in `[a, b)` with the covering
    /// set fixed, or `None` on a coverage gap. Returns the polynomial and
    /// leaves the contributing segment ids in `parents`.
    fn window_fn(&self, a: f64, b: f64, parents: &mut Vec<SegmentId>) -> Option<Poly> {
        let mid = 0.5 * (a + b);
        // History is sorted by span start: binary-search the covering piece.
        let locate = |t: f64| -> Option<usize> {
            let i = self.history.partition_point(|h| h.span.lo <= t + EPS).checked_sub(1)?;
            let h = &self.history[i];
            (h.span.contains(t) || (t - h.span.lo).abs() <= EPS).then_some(i)
        };
        let head_idx = locate(mid)?;
        let tail_time = mid - self.width;
        let tail_idx = locate(tail_time)?;
        let head = &self.history[head_idx];
        let tail = &self.history[tail_idx];
        if head_idx == tail_idx {
            // Entire window inside one segment: wf(t) = A(t) − A(t−w).
            let wf = head.anti.sub(&head.anti.compose_linear(1.0, -self.width));
            parents.clear();
            parents.push(head.id);
            return Some(wf);
        }
        // Coverage gap anywhere between tail and head → no window function.
        if self.group[tail_idx] != self.group[head_idx] {
            return None;
        }
        // tail(t) = A_tail(tu) − A_tail(t − w): binomial expansion of (t−w)^i.
        let tail_part = Poly::constant(tail.anti.eval(tail.span.hi))
            .sub(&tail.anti.compose_linear(1.0, -self.width));
        // C: cached integrals of the fully covered segments, via prefix
        // sums rebuilt once per arrival (O(1) per window function).
        let mut c = 0.0;
        if head_idx > tail_idx + 1 {
            c = self.prefix[head_idx - 1] - self.prefix[tail_idx];
        }
        // head(t) = A_head(t) − A_head(tl_head).
        let head_part = head.anti.sub(&Poly::constant(head.anti.eval(head.span.lo)));
        // Lineage fan-in is capped: the tail and head (which shape the
        // polynomial) always recorded, covered segments only when few —
        // allocations stay conservative either way (each share ≤ bound).
        parents.clear();
        parents.push(tail.id);
        if head_idx - tail_idx <= 16 {
            parents.extend(self.history[tail_idx + 1..head_idx].iter().map(|h| h.id));
        }
        parents.push(head.id);
        Some(tail_part.add(&Poly::constant(c)).add(&head_part))
    }
}

impl COperator for CSumAvg {
    fn name(&self) -> &'static str {
        "sumavg"
    }

    fn process_traced(
        &mut self,
        _input: usize,
        seg: &Segment,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        let x = seg.models[self.slot].clone();
        let mut span = seg.span;
        // Update semantics: a successor overlapping the predecessor
        // truncates it for the overlap.
        if let Some(last) = self.history.last_mut() {
            if span.lo < last.span.hi - EPS {
                if span.lo > last.span.lo + EPS {
                    last.span = Span::new(last.span.lo, span.lo);
                } else {
                    self.history.pop();
                }
            } else if span.lo < last.span.hi {
                span = Span::new(last.span.hi, span.hi.max(last.span.hi));
            }
        }
        self.start.get_or_insert(span.lo);
        self.history.push(HistEntry { span, anti: x.antiderivative(), id: seg.id });
        self.rebuild_prefix();

        // Emit window functions for closes within this segment's lifespan
        // that have full window coverage and weren't already emitted.
        let emit_lo = span.lo.max(self.start.unwrap() + self.width).max(self.emitted_until);
        self.emitted_until = self.emitted_until.max(span.hi);
        if emit_lo >= span.hi - EPS {
            self.expire(span.hi);
            return;
        }
        // Breakpoints: covering set changes when the window tail crosses a
        // history boundary.
        let mut cuts = vec![emit_lo, span.hi];
        for h in &self.history {
            for t in [h.span.lo + self.width, h.span.hi + self.width] {
                if t > emit_lo + EPS && t < span.hi - EPS {
                    cuts.push(t);
                }
            }
        }
        cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        cuts.dedup_by(|a, b| (*a - *b).abs() < EPS);
        let mut lineage = self.lineage.lock();
        let mut parents = std::mem::take(&mut self.parents);
        let mut built = 0u64;
        let mut emitted = 0u32;
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b - a <= EPS {
                continue;
            }
            let Some(mut wf) = self.window_fn(a, b, &mut parents) else { continue };
            self.m.systems_solved += 1;
            built += 1;
            if self.avg {
                wf = wf.scale(1.0 / self.width);
            }
            let piece = Segment::single(seg.key, Span::new(a, b), wf);
            lineage.emit(&piece, &parents);
            self.m.items_out += 1;
            emitted += 1;
            out.push(piece);
        }
        drop(lineage);
        self.parents = parents;
        if tr.on() && built > 0 {
            // `rows` = window functions assembled for this arrival.
            let kind = TraceKind::OpSolve { op: "sumavg", rows: built, outputs: emitted };
            tr.emit_scoped(seg.key, span.lo, kind);
        }
        self.expire(span.hi);
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl CSumAvg {
    fn expire(&mut self, now: f64) {
        // Keep everything a future window tail may still need.
        let before = self.history.len();
        self.history.retain(|h| h.span.hi > now - self.width - EPS);
        if self.history.len() != before {
            self.rebuild_prefix();
        }
    }

    fn rebuild_prefix(&mut self) {
        self.prefix.clear();
        self.group.clear();
        let mut acc = 0.0;
        let mut group = 0usize;
        for (i, h) in self.history.iter().enumerate() {
            if i > 0 && (self.history[i - 1].span.hi - h.span.lo).abs() > 1e-6 {
                group += 1;
            }
            acc += h.anti.eval(h.span.hi) - h.anti.eval(h.span.lo);
            self.prefix.push(acc);
            self.group.push(group);
        }
    }

    /// Direct window evaluation (numeric reference / sampling helper):
    /// integral of the history over `[close − width, close)`, divided by
    /// width for averages. `None` if coverage is incomplete.
    pub fn window_value(&self, close: f64) -> Option<f64> {
        let lo = close - self.width;
        let mut acc = 0.0;
        let mut covered = 0.0;
        for h in &self.history {
            let a = h.span.lo.max(lo);
            let b = h.span.hi.min(close);
            if b > a {
                acc += h.anti.eval(b) - h.anti.eval(a);
                covered += b - a;
            }
        }
        if (covered - self.width).abs() > 1e-6 {
            return None;
        }
        Some(if self.avg { acc / self.width } else { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage;

    fn seg(key: u64, lo: f64, hi: f64, poly: Poly) -> Segment {
        Segment::single(key, Span::new(lo, hi), poly)
    }

    /// Numeric integral of the provided pieces over [t−w, t].
    fn numeric_window(pieces: &[(f64, f64, Poly)], t: f64, w: f64) -> f64 {
        let mut acc = 0.0;
        for (lo, hi, p) in pieces {
            let a = lo.max(t - w);
            let b = hi.min(t);
            if b > a {
                acc += p.integrate(a, b);
            }
        }
        acc
    }

    #[test]
    fn single_segment_window_matches_eq2() {
        let mut op = CSumAvg::new(false, 0, 2.0, lineage::shared());
        let mut out = Vec::new();
        // x = 3t on [0, 10): wf(t) = ∫_{t−2}^{t} 3u du = 3/2 (t² − (t−2)²) = 6t − 6.
        op.process(0, &seg(1, 0.0, 10.0, Poly::linear(0.0, 3.0)), &mut out);
        assert_eq!(out.len(), 1);
        let wf = &out[0].models[0];
        assert_eq!(out[0].span, Span::new(2.0, 10.0)); // first full window closes at 2
        for t in [2.0, 3.5, 7.0, 9.9] {
            assert!((wf.eval(t) - (6.0 * t - 6.0)).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn multi_segment_window_uses_tail_and_constant() {
        let mut op = CSumAvg::new(false, 0, 3.0, lineage::shared());
        let mut out = Vec::new();
        let pieces = vec![
            (0.0, 2.0, Poly::linear(1.0, 0.5)),
            (2.0, 4.0, Poly::linear(4.0, -1.0)),
            (4.0, 8.0, Poly::constant(2.0)),
        ];
        for (lo, hi, p) in &pieces {
            op.process(0, &seg(1, *lo, *hi, p.clone()), &mut out);
        }
        assert!(!out.is_empty());
        // Every emitted window function must match numeric integration.
        for piece in &out {
            let wf = &piece.models[0];
            for i in 0..5 {
                let t = piece.span.lo + piece.span.len() * (i as f64 + 0.5) / 5.0;
                let want = numeric_window(&pieces, t, 3.0);
                assert!(
                    (wf.eval(t) - want).abs() < 1e-6,
                    "wf({t}) = {} want {want} in span {:?}",
                    wf.eval(t),
                    piece.span
                );
            }
        }
        // Coverage: closes from width (3.0) through the final segment end.
        let first = out.first().unwrap().span.lo;
        let last = out.last().unwrap().span.hi;
        assert!((first - 3.0).abs() < 1e-9);
        assert!((last - 8.0).abs() < 1e-9);
    }

    #[test]
    fn avg_divides_by_width() {
        let mut op = CSumAvg::new(true, 0, 4.0, lineage::shared());
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 10.0, Poly::constant(6.0)), &mut out);
        assert_eq!(out.len(), 1);
        // avg of a constant is the constant.
        let wf = &out[0].models[0];
        for t in [4.0, 6.0, 9.0] {
            assert!((wf.eval(t) - 6.0).abs() < 1e-9);
        }
    }

    #[test]
    fn no_emission_before_first_full_window() {
        let mut op = CSumAvg::new(false, 0, 5.0, lineage::shared());
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 3.0, Poly::constant(1.0)), &mut out);
        assert!(out.is_empty(), "window not yet full");
        op.process(0, &seg(1, 3.0, 6.0, Poly::constant(1.0)), &mut out);
        // Full windows close in [5, 6).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(5.0, 6.0));
        assert!((out[0].models[0].eval(5.5) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gap_in_coverage_suppresses_output() {
        let mut op = CSumAvg::new(false, 0, 2.0, lineage::shared());
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 1.0, Poly::constant(1.0)), &mut out);
        // Gap [1, 5).
        op.process(0, &seg(1, 5.0, 6.0, Poly::constant(1.0)), &mut out);
        // No close time in [5,6) has full coverage of [t−2, t]: tail would
        // sit in the gap.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn quadratic_window_functions() {
        let mut op = CSumAvg::new(false, 0, 1.0, lineage::shared());
        let mut out = Vec::new();
        let p = Poly::new(vec![0.0, 0.0, 1.0]); // t²
        op.process(0, &seg(1, 0.0, 4.0, p.clone()), &mut out);
        let pieces = vec![(0.0, 4.0, p)];
        for piece in &out {
            let wf = &piece.models[0];
            for i in 0..8 {
                let t = piece.span.lo + piece.span.len() * (i as f64 + 0.5) / 8.0;
                let want = numeric_window(&pieces, t, 1.0);
                assert!((wf.eval(t) - want).abs() < 1e-9, "t={t}");
            }
        }
    }

    #[test]
    fn window_value_reference() {
        let mut op = CSumAvg::new(false, 0, 2.0, lineage::shared());
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 10.0, Poly::constant(3.0)), &mut out);
        assert!((op.window_value(5.0).unwrap() - 6.0).abs() < 1e-9);
        assert!(op.window_value(1.0).is_none(), "incomplete window");
    }

    #[test]
    fn lineage_parents_cover_window() {
        let store = lineage::shared();
        let mut op = CSumAvg::new(false, 0, 3.0, store.clone());
        let mut out = Vec::new();
        let s1 = seg(1, 0.0, 2.0, Poly::constant(1.0));
        let s2 = seg(1, 2.0, 4.0, Poly::constant(2.0));
        let s3 = seg(1, 4.0, 6.0, Poly::constant(3.0));
        op.process(0, &s1, &mut out);
        op.process(0, &s2, &mut out);
        op.process(0, &s3, &mut out);
        // A window closing in (4, 5) spans s1 (tail), s2 (covered), s3 (head).
        let multi =
            out.iter().find(|o| o.span.contains(4.5)).expect("window function covering close 4.5");
        let parents = store.lock().parents_of(multi.id).to_vec();
        assert!(parents.contains(&s1.id) && parents.contains(&s2.id) && parents.contains(&s3.id));
    }
}
