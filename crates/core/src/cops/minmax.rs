//! Continuous min/max aggregate — envelope maintenance by equation system.
//!
//! §III-B: the operator's state `s(t)` is a sequence of model segments
//! forming the lower (min) or upper (max) envelope of all model functions
//! seen within the window (Fig. 2). An arriving segment `x` is compared
//! against the state via the difference equation `x(t) − s(t) R 0`; where
//! the newcomer improves on the envelope, the envelope is rebuilt and the
//! updated pieces are emitted (Fig. 3's outputs `{(t, sᵢ) | DtR0}`).

use super::COperator;
use crate::eqsys::SOLVE_TOL;
use crate::lineage::SharedLineage;
use pulse_math::{poly_roots_in, solve_poly_cmp, CmpOp, RangeSet, Span, EPS};
use pulse_model::{Piecewise, Segment};
use pulse_obs::{TraceKind, Tracer};
use pulse_stream::OpMetrics;
use std::any::Any;

/// Continuous min/max aggregate over one modeled attribute.
pub struct CMinMax {
    is_min: bool,
    /// Model slot of the aggregated attribute in input segments.
    slot: usize,
    /// Window width: state older than `now − width` expires (Fig. 3's
    /// `S = {([tl,tu), s) | tl > tx − w}`).
    width: f64,
    envelope: Piecewise,
    lineage: SharedLineage,
    m: OpMetrics,
}

impl CMinMax {
    pub fn new(is_min: bool, slot: usize, width: f64, lineage: SharedLineage) -> Self {
        CMinMax {
            is_min,
            slot,
            width,
            envelope: Piecewise::new(),
            lineage,
            m: OpMetrics::default(),
        }
    }

    /// The current envelope (exposed for result sampling and tests).
    pub fn envelope(&self) -> &Piecewise {
        &self.envelope
    }

    /// Extremum of the envelope over the window closing at `close`
    /// (`[close − width, close)`) — the discrete window-aggregate value a
    /// sampler extracts from the continuous state. `None` when the window
    /// has no coverage.
    pub fn window_value(&self, close: f64) -> Option<f64> {
        let window = Span::new(close - self.width, close);
        let mut best: Option<f64> = None;
        for piece in self.envelope.overlapping(window) {
            let Some(clip) = piece.span.intersect(&window) else { continue };
            let p = &piece.models[0];
            let mut ext = p.eval(clip.lo).min(p.eval(clip.hi));
            let mut ext_max = p.eval(clip.lo).max(p.eval(clip.hi));
            for r in poly_roots_in(&p.derivative(), clip.lo, clip.hi, SOLVE_TOL) {
                let v = p.eval(r);
                ext = ext.min(v);
                ext_max = ext_max.max(v);
            }
            let v = if self.is_min { ext } else { ext_max };
            best = Some(match best {
                None => v,
                Some(b) if self.is_min => b.min(v),
                Some(b) => b.max(v),
            });
        }
        best
    }
}

impl COperator for CMinMax {
    fn name(&self) -> &'static str {
        "minmax"
    }

    fn process_traced(
        &mut self,
        _input: usize,
        seg: &Segment,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        self.envelope.expire_before(seg.span.lo - self.width);
        let x = seg.models[self.slot].clone();
        let domain = seg.span;
        let better_op = if self.is_min { CmpOp::Lt } else { CmpOp::Gt };

        // Where does x beat the current envelope? One difference equation
        // per overlapping state piece.
        let mut covered = RangeSet::empty();
        let mut win = RangeSet::empty();
        let mut displaced = Vec::new();
        let mut solved = 0u64;
        for piece in self.envelope.overlapping(domain) {
            let Some(ov) = piece.span.intersect(&domain) else { continue };
            covered = covered.union(&RangeSet::single(ov));
            let d = x.sub(&piece.models[0]);
            let sol = solve_poly_cmp(&d, better_op, ov, SOLVE_TOL);
            self.m.systems_solved += 1;
            solved += 1;
            if !sol.is_empty() {
                displaced.push(piece.id);
            }
            win = win.union(&sol);
        }
        // Uncovered time is won by default.
        win = win.union(&covered.complement(domain));

        // Every update is caused by the newcomer and the pieces it beat.
        let mut parents = displaced;
        parents.insert(0, seg.id);
        let mut lineage = self.lineage.lock();
        let mut emitted = 0u32;
        for span in win.spans().iter().filter(|s| s.len() > EPS) {
            let piece = Segment::single(seg.key, *span, x.clone());
            lineage.emit(&piece, &parents);
            self.envelope.insert(piece.clone());
            self.m.items_out += 1;
            emitted += 1;
            out.push(piece);
        }
        drop(lineage);
        if tr.on() {
            // `rows` = difference equations solved against the envelope.
            let kind = TraceKind::OpSolve { op: "minmax", rows: solved, outputs: emitted };
            tr.emit_scoped(seg.key, domain.lo, kind);
        }
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage;
    use pulse_math::Poly;

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    fn min_op(width: f64) -> CMinMax {
        CMinMax::new(true, 0, width, lineage::shared())
    }

    #[test]
    fn first_segment_becomes_envelope() {
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 10.0, 5.0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(op.envelope().len(), 1);
        assert_eq!(op.envelope().eval(0, 3.0), Some(5.0));
    }

    #[test]
    fn crossing_models_split_envelope() {
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        // Key 1: constant 5. Key 2: x = t (crosses 5 at t=5).
        op.process(0, &seg(1, 0.0, 10.0, 5.0, 0.0), &mut out);
        out.clear();
        op.process(0, &seg(2, 0.0, 10.0, 0.0, 1.0), &mut out);
        // The line wins on [0, 5), the constant on [5, 10).
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        assert_eq!(op.envelope().eval(0, 2.0), Some(2.0));
        assert_eq!(op.envelope().eval(0, 7.0), Some(5.0));
    }

    #[test]
    fn worse_model_changes_nothing() {
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 10.0, 1.0, 0.0), &mut out);
        out.clear();
        op.process(0, &seg(2, 0.0, 10.0, 9.0, 0.0), &mut out);
        assert!(out.is_empty(), "a dominated model must not update the envelope");
        assert_eq!(op.envelope().eval(0, 5.0), Some(1.0));
    }

    #[test]
    fn max_keeps_upper_envelope() {
        let mut op = CMinMax::new(false, 0, 100.0, lineage::shared());
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 10.0, 5.0, 0.0), &mut out);
        op.process(0, &seg(2, 0.0, 10.0, 0.0, 1.0), &mut out);
        // Upper envelope: constant 5 until t=5, then the line.
        assert_eq!(op.envelope().eval(0, 2.0), Some(5.0));
        assert_eq!(op.envelope().eval(0, 8.0), Some(8.0));
    }

    #[test]
    fn envelope_matches_brute_force_pointwise_min() {
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        let models = [(0.0, 10.0, 8.0, -0.5), (0.0, 10.0, 1.0, 0.7), (2.0, 9.0, 4.0, 0.0)];
        let segs: Vec<Segment> =
            models.iter().map(|&(lo, hi, b, a)| seg(0, lo, hi, b, a)).collect();
        for s in &segs {
            op.process(0, s, &mut out);
        }
        for i in 0..100 {
            let t = 0.05 + i as f64 * 0.0999;
            let brute = segs
                .iter()
                .filter(|s| s.span.contains(t))
                .map(|s| s.eval(0, t))
                .fold(f64::INFINITY, f64::min);
            if brute.is_finite() {
                let env = op.envelope().eval(0, t).unwrap();
                assert!((env - brute).abs() < 1e-6, "envelope {env} vs brute {brute} at t={t}");
            }
        }
    }

    #[test]
    fn window_value_extracts_minimum() {
        let mut op = min_op(10.0);
        let mut out = Vec::new();
        // V-shape: down then up; min at the kink (t=5, value 0).
        op.process(0, &seg(1, 0.0, 5.0, 5.0, -1.0), &mut out);
        op.process(0, &seg(1, 5.0, 10.0, -5.0, 1.0), &mut out);
        let v = op.window_value(10.0).unwrap();
        assert!(v.abs() < 1e-6, "window min {v}");
        // Window covering only the rising tail.
        let v = op.window_value(12.0).unwrap(); // [2, 12): envelope only to 10
        assert!(v.abs() < 1e-6);
        assert!(op.window_value(0.0).is_none() || op.window_value(0.0).is_some());
    }

    #[test]
    fn state_expires_beyond_window() {
        let mut op = min_op(2.0);
        let mut out = Vec::new();
        op.process(0, &seg(1, 0.0, 1.0, 1.0, 0.0), &mut out);
        // Next segment at t=10: old state far outside the 2s window.
        op.process(0, &seg(2, 10.0, 11.0, 3.0, 0.0), &mut out);
        assert_eq!(op.envelope().len(), 1);
        assert_eq!(op.envelope().eval(0, 10.5), Some(3.0));
        assert_eq!(op.envelope().eval(0, 0.5), None);
    }

    #[test]
    fn quadratic_vs_linear_envelope() {
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        // Parabola (t−5)² and constant 4: parabola below on (3, 7).
        let para = Segment::single(1, Span::new(0.0, 10.0), Poly::new(vec![25.0, -10.0, 1.0]));
        op.process(0, &para, &mut out);
        out.clear();
        op.process(0, &seg(2, 0.0, 10.0, 4.0, 0.0), &mut out);
        // Constant wins outside (3, 7): two emitted pieces.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!((out[0].span.hi - 3.0).abs() < 1e-6);
        assert!((out[1].span.lo - 7.0).abs() < 1e-6);
        assert_eq!(op.envelope().eval(0, 5.0), Some(0.0));
        assert_eq!(op.envelope().eval(0, 1.0), Some(4.0));
    }
}
