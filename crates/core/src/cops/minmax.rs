//! Continuous min/max aggregate — envelope maintenance by equation system.
//!
//! §III-B: the operator's state `s(t)` is a sequence of model segments
//! forming the lower (min) or upper (max) envelope of all model functions
//! seen within the window (Fig. 2). An arriving segment `x` is compared
//! against the state via the difference equation `x(t) − s(t) R 0`; where
//! the newcomer improves on the envelope, the envelope is rebuilt and the
//! updated pieces are emitted (Fig. 3's outputs `{(t, sᵢ) | DtR0}`).

use super::{COperator, Emitter};
use crate::eqsys::SOLVE_TOL;
use pulse_math::{
    poly_roots_in, solve_poly_cmp_append, CmpOp, CmpScratch, Poly, RangeSet, Span, EPS,
};
use pulse_model::{Piecewise, Segment, SegmentId};
use pulse_obs::{TraceKind, Tracer};
use pulse_stream::OpMetrics;
use std::any::Any;
use std::cell::RefCell;

/// Staging for envelope maintenance, reused across arrivals. One per
/// thread, shared by every group's operator: per-group buffers would grow
/// with the key count.
#[derive(Default)]
struct Staging {
    cmp: CmpScratch,
    /// The difference `x − s` against the piece being compared.
    diff: Poly,
    /// Overlaps of the arrival with the envelope, then their union.
    covered: Vec<Span>,
    /// Where the arrival beats the envelope, then their union.
    win: Vec<Span>,
    /// The arrival's id followed by the pieces it displaced.
    parents: Vec<SegmentId>,
}

thread_local! {
    static STAGING: RefCell<Staging> = RefCell::default();
}

/// Continuous min/max aggregate over one modeled attribute.
pub struct CMinMax {
    is_min: bool,
    /// Model slot of the aggregated attribute in input segments.
    slot: usize,
    /// Window width: state older than `now − width` expires (Fig. 3's
    /// `S = {([tl,tu), s) | tl > tx − w}`).
    width: f64,
    envelope: Piecewise,
    m: OpMetrics,
}

impl CMinMax {
    pub fn new(is_min: bool, slot: usize, width: f64) -> Self {
        CMinMax { is_min, slot, width, envelope: Piecewise::new(), m: OpMetrics::default() }
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

    /// Compares `seg` with the envelope, rebuilds the envelope where `seg`
    /// wins and emits the rebuilt pieces. Out of line on purpose: inlined
    /// into `process`, it measured 4% slower on plans without
    /// min/max (a code-layout effect on `pulse-core`).
    #[inline(never)]
    fn update(&mut self, seg: &Segment, st: &mut Staging, tr: &mut Tracer, out: &mut Emitter<'_>) {
        let x = &seg.models[self.slot];
        let domain = seg.span;
        let better_op = if self.is_min { CmpOp::Lt } else { CmpOp::Gt };
        // Where does x beat the current envelope? One difference equation
        // per overlapping state piece. Every solution and the uncovered
        // time go into one span list, normalized once: that is
        // bit-identical to the union of the normalized parts.
        st.covered.clear();
        st.win.clear();
        st.parents.clear();
        // Every update is caused by the newcomer and the pieces it beat.
        st.parents.push(seg.id);
        let mut solved = 0u64;
        for piece in self.envelope.overlapping(domain) {
            let Some(ov) = piece.span.intersect(&domain) else { continue };
            st.covered.push(ov);
            st.diff.copy_from(x);
            st.diff.sub_assign_poly(&piece.models[0]);
            let before = st.win.len();
            solve_poly_cmp_append(&st.diff, better_op, ov, SOLVE_TOL, &mut st.cmp, &mut st.win);
            solved += 1;
            if st.win.len() > before {
                st.parents.push(piece.id);
            }
        }
        self.m.systems_solved += solved;
        // Uncovered time is won by default.
        RangeSet::normalize_in_place(&mut st.covered);
        RangeSet::complement_into(&st.covered, domain, &mut st.win);
        RangeSet::normalize_in_place(&mut st.win);

        let mut emitted = 0u32;
        for span in st.win.iter().filter(|s| s.len() > EPS) {
            let piece = Segment::single(seg.key, *span, x.clone());
            self.envelope.insert(piece.clone());
            self.m.items_out += 1;
            emitted += 1;
            out.emit(piece, &st.parents, tr);
        }
        if tr.on() {
            // `rows` = difference equations solved against the envelope.
            let kind = TraceKind::OpSolve { op: "minmax", rows: solved, outputs: emitted };
            tr.emit_scoped(seg.key, domain.lo, kind);
        }
    }
}

impl COperator for CMinMax {
    fn name(&self) -> &'static str {
        "minmax"
    }

    fn process(&mut self, _input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>) {
        self.m.items_in += 1;
        self.envelope.expire_before(seg.span.lo - self.width);
        STAGING.with_borrow_mut(|st| self.update(seg, st, tr, out));
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
    use crate::cops::Feed;
    use crate::lineage::LineageStore;
    use pulse_math::solve_poly_cmp;
    use std::collections::HashMap;

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    fn min_op(width: f64) -> CMinMax {
        CMinMax::new(true, 0, width)
    }

    #[test]
    fn first_segment_becomes_envelope() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        op.feed(0, &seg(1, 0.0, 10.0, 5.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(op.envelope().len(), 1);
        assert_eq!(op.envelope().eval(0, 3.0), Some(5.0));
    }

    #[test]
    fn crossing_models_split_envelope() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        // Key 1: constant 5. Key 2: x = t (crosses 5 at t=5).
        op.feed(0, &seg(1, 0.0, 10.0, 5.0, 0.0), &mut store, &mut tr, &mut out);
        out.clear();
        op.feed(0, &seg(2, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out);
        // The line wins on [0, 5), the constant on [5, 10).
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        assert_eq!(op.envelope().eval(0, 2.0), Some(2.0));
        assert_eq!(op.envelope().eval(0, 7.0), Some(5.0));
    }

    #[test]
    fn worse_model_changes_nothing() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        op.feed(0, &seg(1, 0.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        out.clear();
        op.feed(0, &seg(2, 0.0, 10.0, 9.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty(), "a dominated model must not update the envelope");
        assert_eq!(op.envelope().eval(0, 5.0), Some(1.0));
    }

    #[test]
    fn max_keeps_upper_envelope() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = CMinMax::new(false, 0, 100.0);
        let mut out = Vec::new();
        op.feed(0, &seg(1, 0.0, 10.0, 5.0, 0.0), &mut store, &mut tr, &mut out);
        op.feed(0, &seg(2, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out);
        // Upper envelope: constant 5 until t=5, then the line.
        assert_eq!(op.envelope().eval(0, 2.0), Some(5.0));
        assert_eq!(op.envelope().eval(0, 8.0), Some(8.0));
    }

    #[test]
    fn envelope_matches_brute_force_pointwise_min() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        let models = [(0.0, 10.0, 8.0, -0.5), (0.0, 10.0, 1.0, 0.7), (2.0, 9.0, 4.0, 0.0)];
        let segs: Vec<Segment> =
            models.iter().map(|&(lo, hi, b, a)| seg(0, lo, hi, b, a)).collect();
        for s in &segs {
            op.feed(0, s, &mut store, &mut tr, &mut out);
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
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(10.0);
        let mut out = Vec::new();
        // V-shape: down then up; min at the kink (t=5, value 0).
        op.feed(0, &seg(1, 0.0, 5.0, 5.0, -1.0), &mut store, &mut tr, &mut out);
        op.feed(0, &seg(1, 5.0, 10.0, -5.0, 1.0), &mut store, &mut tr, &mut out);
        let v = op.window_value(10.0).unwrap();
        assert!(v.abs() < 1e-6, "window min {v}");
        // Window covering only the rising tail.
        let v = op.window_value(12.0).unwrap(); // [2, 12): envelope only to 10
        assert!(v.abs() < 1e-6);
        assert!(op.window_value(0.0).is_none() || op.window_value(0.0).is_some());
    }

    #[test]
    fn state_expires_beyond_window() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(2.0);
        let mut out = Vec::new();
        op.feed(0, &seg(1, 0.0, 1.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        // Next segment at t=10: old state far outside the 2s window.
        op.feed(0, &seg(2, 10.0, 11.0, 3.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(op.envelope().len(), 1);
        assert_eq!(op.envelope().eval(0, 10.5), Some(3.0));
        assert_eq!(op.envelope().eval(0, 0.5), None);
    }

    #[test]
    fn quadratic_vs_linear_envelope() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut op = min_op(100.0);
        let mut out = Vec::new();
        // Parabola (t−5)² and constant 4: parabola below on (3, 7).
        let para = Segment::single(1, Span::new(0.0, 10.0), Poly::new(vec![25.0, -10.0, 1.0]));
        op.feed(0, &para, &mut store, &mut tr, &mut out);
        out.clear();
        op.feed(0, &seg(2, 0.0, 10.0, 4.0, 0.0), &mut store, &mut tr, &mut out);
        // Constant wins outside (3, 7): two emitted pieces.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!((out[0].span.hi - 3.0).abs() < 1e-6);
        assert!((out[1].span.lo - 7.0).abs() < 1e-6);
        assert_eq!(op.envelope().eval(0, 5.0), Some(0.0));
        assert_eq!(op.envelope().eval(0, 1.0), Some(4.0));
    }

    /// Envelope maintenance as one allocating composition: a fresh
    /// `RangeSet` per overlap, folded by `union`. The reference the staged
    /// path must match bit for bit. Returns the emitted pieces and their
    /// parents.
    fn reference_process(op: &mut CMinMax, seg: &Segment) -> (Vec<Segment>, Vec<SegmentId>) {
        op.envelope.expire_before(seg.span.lo - op.width);
        let x = seg.models[op.slot].clone();
        let domain = seg.span;
        let better_op = if op.is_min { CmpOp::Lt } else { CmpOp::Gt };
        let mut covered = RangeSet::empty();
        let mut win = RangeSet::empty();
        let mut displaced = Vec::new();
        for piece in op.envelope.overlapping(domain) {
            let Some(ov) = piece.span.intersect(&domain) else { continue };
            covered = covered.union(&RangeSet::single(ov));
            let sol = solve_poly_cmp(&x.sub(&piece.models[0]), better_op, ov, SOLVE_TOL);
            if !sol.is_empty() {
                displaced.push(piece.id);
            }
            win = win.union(&sol);
        }
        win = win.union(&covered.complement(domain));
        let mut parents = displaced;
        parents.insert(0, seg.id);
        let mut out = Vec::new();
        for span in win.spans().iter().filter(|s| s.len() > EPS) {
            let piece = Segment::single(seg.key, *span, x.clone());
            op.envelope.insert(piece.clone());
            out.push(piece);
        }
        (out, parents)
    }

    fn bits(s: &Segment) -> (u64, u64, Vec<u64>) {
        let coeffs = s.models[0].coeffs().iter().map(|c| c.to_bits()).collect();
        (s.span.lo.to_bits(), s.span.hi.to_bits(), coeffs)
    }

    #[test]
    fn envelope_is_bit_identical_to_allocating_composition() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let (mut split, mut displacing, mut dominated) = (0, 0, 0);
        for run in 0..40 {
            let is_min = run % 2 == 0;
            let width = if run % 4 < 2 { 3.0 } else { 50.0 };
            let mut op = CMinMax::new(is_min, 0, width);
            let mut reference = CMinMax::new(is_min, 0, width);
            // The two operators mint different ids for the same pieces.
            let mut ids: HashMap<SegmentId, SegmentId> = HashMap::new();
            let (mut lo, mut hi) = (0.0, 1.0);
            let mut model = Poly::zero();
            let mut out = Vec::new();
            for _ in 0..60 {
                lo = match rng.gen_range(0..5) {
                    0 => rng.gen_range(lo..hi),                         // overlapping
                    1 => hi,                                            // abutting
                    2 => hi + rng.gen_range(0.1..2.0),                  // gapped
                    3 => hi + rng.gen_range(-2..=2) as f64 * 0.5 * EPS, // EPS-touching
                    _ => lo,                                            // equal start
                };
                hi = lo + rng.gen_range(0.2..3.0);
                // Now and then the previous model again: a zero difference.
                if rng.gen_bool(0.9) {
                    let quad = if rng.gen_bool(0.5) { rng.gen_range(-0.5..0.5) } else { 0.0 };
                    let local = vec![rng.gen_range(-2.0..2.0), rng.gen_range(-1.0..1.0), quad];
                    model = Poly::new(local).compose_linear(1.0, -lo);
                }
                let seg = Segment::single(rng.gen_range(0..4), Span::new(lo, hi), model.clone());
                out.clear();
                op.feed(0, &seg, &mut store, &mut tr, &mut out);
                let (want, want_parents) = reference_process(&mut reference, &seg);
                assert_eq!(out.len(), want.len(), "run {run} at [{lo}, {hi})");
                for (got, want) in out.iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "run {run} at [{lo}, {hi})");
                    ids.insert(got.id, want.id);
                }
                for got in &out {
                    let parents: Vec<SegmentId> = store
                        .parents_of(got.id)
                        .iter()
                        .map(|id| ids.get(id).unwrap_or(id))
                        .copied()
                        .collect();
                    assert_eq!(parents, want_parents, "run {run} at [{lo}, {hi})");
                }
                let (got_env, want_env) =
                    (op.envelope().segments(), reference.envelope().segments());
                assert_eq!(got_env.len(), want_env.len(), "run {run} at [{lo}, {hi})");
                for (got, want) in got_env.iter().zip(want_env) {
                    assert_eq!(bits(got), bits(want), "run {run} at [{lo}, {hi})");
                    ids.insert(got.id, want.id);
                }
                split += usize::from(want.len() > 1);
                displacing += usize::from(want_parents.len() > 1);
                dominated += usize::from(want.is_empty());
            }
        }
        assert!(
            split > 30 && displacing > 200 && dominated > 200,
            "{split} {displacing} {dominated}"
        );
    }
}
