//! Continuous sliding-window join.
//!
//! §III-A: "For a join, we use equi-join semantics along the time
//! dimension: we execute the linear system for each segment held in state
//! that overlaps with [t0, t1)". Each side keeps an order-based segment
//! buffer (Fig. 3); an arriving segment is paired with every temporally
//! overlapping opposite segment, one equation system per pair, solved over
//! the pair's common time range. A segment stays in state until an arrival
//! whose horizon `now − window` it ends at or before.
//!
//! The scan and indexed layouts expire eagerly: every arrival drops, on
//! both sides, everything ending at or before its horizon. The
//! `KeyJoin::Eq` layout touches only the arriving key. It expires lazily
//! through a horizon log that gives, for any stored segment, the largest
//! horizon since it was stored, so every probe sees exactly the segments
//! eager expiry would have left. A sweep of every key frees silent keys.

use super::{meaningful_spans, COperator};
use crate::binding::Binding;
use crate::eqsys::{PendingSlack, SolveScratch, SystemTemplate};
use crate::index::{start_order_pos, SegmentIndex};
use crate::keymap::KeyMap;
use crate::lineage::LineageStore;
use pulse_math::{Span, EPS};
use pulse_model::{Models, Pred, Segment};
use pulse_obs::{prof, Phase, TraceKind, Tracer};
use pulse_stream::{KeyJoin, OpMetrics};
use std::any::Any;

/// How the join buffers its per-side segment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinState {
    /// Linear scan of the whole buffer per arrival (the baseline the paper
    /// prototype used).
    Scan,
    /// Interval-indexed state (§VII future work): `O(log n + k)` overlap
    /// lookup — pays off on highly segmented inputs. For `KeyJoin::Eq`
    /// joins this becomes per-key state expired lazily, so an arrival
    /// never touches other keys' segments.
    #[default]
    Indexed,
}

/// A segment in keyed state and the number of the arrival that stored it.
struct Stored {
    seg: Segment,
    seq: u64,
}

/// The `KeyJoin::Eq` state layout: both sides of a key in one map entry,
/// each a `Vec` in the start order [`SegmentIndex::insert`] gives.
///
/// *Exactness.* Eager expiry keeps a segment stored at arrival `i` live at
/// arrival `p` iff `hi > t_j` for every horizon `t_j`, `i < j ≤ p`, i.e.
/// iff `hi` exceeds their maximum. `log` keeps the `(seq, horizon)` of
/// each arrival whose horizon exceeds every later one, so horizons
/// strictly decrease along it, and that maximum is the horizon of the
/// first entry with `seq > i` ([`is_dead`]). A NaN horizon, which drops
/// everything under eager expiry, is logged as `+∞`, which does the same.
/// Each arrival drops its own key's dead segments on both sides before it
/// stores and probes, so the key's vectors hold exactly the live segments,
/// in the order a [`SegmentIndex`] holding only them would have.
///
/// *Bound.* Other keys keep their dead segments until a sweep, due once
/// the arrivals since the last one reach the segments it left. A sweep
/// drops every dead segment and empty key and clears the log: a survivor
/// ends after every horizon up to the sweep, so only later ones can kill
/// it, and for a segment stored before the sweep [`is_dead`] reads the
/// log's first entry, their maximum. The sweep costs at most one check
/// per arrival, amortised, and keeps stored segments within twice what it
/// left.
#[derive(Default)]
struct KeyedState {
    map: KeyMap<u64, [Vec<Stored>; 2]>,
    log: Vec<(u64, f64)>,
    /// Arrivals so far; the current arrival's number.
    seq: u64,
    /// Segments stored, dead or alive.
    stored: usize,
    /// Segments the last sweep left, and arrivals since it.
    swept: usize,
    since_sweep: usize,
}

/// Whether `s` ends at or before the largest horizon logged after its
/// `seq`, or has a NaN end: the segments [`SegmentIndex::expire_before`]
/// drops, since logged horizons are never NaN.
fn is_dead(s: &Stored, log: &[(u64, f64)]) -> bool {
    let later = log.partition_point(|&(seq, _)| seq <= s.seq);
    let hi = s.seg.span.hi;
    log.get(later).is_some_and(|&(_, h)| hi <= h || hi.is_nan())
}

impl KeyedState {
    /// Opens the next arrival, of `key` at `horizon`: logs the horizon,
    /// sweeps every key when one is due, and drops `key`'s dead segments
    /// on both sides.
    fn arrive(&mut self, key: u64, horizon: f64) {
        self.seq += 1;
        let h = if horizon.is_nan() { f64::INFINITY } else { horizon };
        while self.log.last().is_some_and(|&(_, last)| last <= h) {
            self.log.pop();
        }
        self.log.push((self.seq, h));
        self.since_sweep += 1;
        if self.since_sweep >= self.swept {
            self.sweep();
        } else if let Some(sides) = self.map.get_mut(&key) {
            for side in sides {
                let before = side.len();
                side.retain(|s| !is_dead(s, &self.log));
                self.stored -= before - side.len();
            }
        }
    }

    fn sweep(&mut self) {
        let log = &self.log;
        let mut stored = 0;
        self.map.retain(|_, sides| {
            for side in sides.iter_mut() {
                side.retain(|s| !is_dead(s, log));
                stored += side.len();
            }
            sides.iter().any(|side| !side.is_empty())
        });
        self.log.clear();
        self.stored = stored;
        self.swept = stored;
        self.since_sweep = 0;
    }

    /// `key`'s segments on `side` overlapping `q`, as
    /// [`SegmentIndex::overlapping`] finds them in the same entries: those
    /// starting before `q.hi − EPS`, from the first whose running maximum
    /// end passes `q.lo + EPS`, that overlap `q`, in start order.
    fn candidates(&self, key: u64, side: usize, q: Span) -> impl Iterator<Item = &Segment> {
        let v = self.map.get(&key).map_or(&[][..], |sides| &sides[side][..]);
        let end = v.partition_point(|s| s.seg.span.lo < q.hi - EPS);
        let mut max_hi = f64::NEG_INFINITY;
        v[..end]
            .iter()
            .map(|s| &s.seg)
            .skip_while(move |s| {
                max_hi = max_hi.max(s.span.hi);
                max_hi <= q.lo + EPS
            })
            .filter(move |s| s.span.overlaps(&q))
    }

    /// Stores a copy of the current arrival's segment on `side`.
    fn store(&mut self, side: usize, seg: &Segment) {
        let v = &mut self.map.entry(seg.key).or_default()[side];
        let pos = start_order_pos(v, seg.span.lo, |s| s.seg.span.lo);
        v.insert(pos, Stored { seg: seg.clone(), seq: self.seq });
        self.stored += 1;
    }
}

/// One side's buffer in the scan and indexed layouts.
enum SideState {
    Scan(Vec<Segment>),
    Indexed(SegmentIndex),
}

impl SideState {
    /// Drops every segment ending at or before `t`.
    fn expire(&mut self, t: f64) {
        match self {
            SideState::Scan(v) => v.retain(|s| s.span.hi > t),
            SideState::Indexed(idx) => idx.expire_before(t),
        }
    }

    fn push(&mut self, seg: Segment) {
        match self {
            SideState::Scan(v) => v.push(seg),
            SideState::Indexed(idx) => idx.insert(seg),
        }
    }

    fn len(&self) -> usize {
        match self {
            SideState::Scan(v) => v.len(),
            SideState::Indexed(idx) => idx.len(),
        }
    }

    /// Segments overlapping `span` (the Scan variant reproduces the naive
    /// full-buffer walk, including the comparisons against non-overlapping
    /// state that the index avoids).
    fn candidates(&self, span: Span, scanned: &mut u64) -> Vec<&Segment> {
        match self {
            SideState::Scan(v) => {
                *scanned += v.len() as u64;
                v.iter().filter(|s| s.span.overlaps(&span)).collect()
            }
            SideState::Indexed(idx) => {
                let hits = idx.overlapping(span);
                *scanned += hits.len() as u64;
                hits
            }
        }
    }
}

/// Both sides' state.
enum Sides {
    /// Scan or indexed buffers, expired at every arrival's horizon.
    Eager([SideState; 2]),
    Keyed(KeyedState),
}

impl Sides {
    fn new(kind: JoinState, on_keys: KeyJoin) -> Self {
        match kind {
            JoinState::Indexed if on_keys == KeyJoin::Eq => Sides::Keyed(KeyedState::default()),
            JoinState::Indexed => {
                Sides::Eager([0, 1].map(|_| SideState::Indexed(SegmentIndex::new())))
            }
            JoinState::Scan => Sides::Eager([0, 1].map(|_| SideState::Scan(Vec::new()))),
        }
    }
}

/// Continuous join operator.
pub struct CJoin {
    window: f64,
    /// Per-pair equation system compiled once from the normalized join
    /// predicate; each candidate pair substitutes its models into it.
    template: SystemTemplate,
    on_keys: KeyJoin,
    bindings: [Binding; 2],
    sides: Sides,
    /// The last arrival's null pairs, in probe order.
    nulls: PendingSlack,
    /// Solver scratch shared by every candidate pair of every arrival.
    scratch: SolveScratch,
    m: OpMetrics,
}

impl CJoin {
    pub fn new(window: f64, pred: Pred, on_keys: KeyJoin, bindings: [Binding; 2]) -> Self {
        Self::with_state(window, pred, on_keys, bindings, JoinState::default())
    }

    /// Chooses the state layout explicitly (the ablation harness compares
    /// Scan vs Indexed).
    pub fn with_state(
        window: f64,
        pred: Pred,
        on_keys: KeyJoin,
        bindings: [Binding; 2],
        state: JoinState,
    ) -> Self {
        let template = SystemTemplate::compile(&pred.normalize());
        CJoin {
            window,
            template,
            on_keys,
            bindings,
            sides: Sides::new(state, on_keys),
            nulls: PendingSlack::default(),
            scratch: SolveScratch::default(),
            m: OpMetrics::default(),
        }
    }

    /// Segments stored on both sides, and horizon log entries (keyed
    /// layout only): the `state.join_segments` and `state.join_horizons`
    /// gauges. The keyed layout counts dead segments its next sweep frees.
    pub fn state_sizes(&self) -> (usize, usize) {
        match &self.sides {
            Sides::Eager(sides) => (sides.iter().map(SideState::len).sum(), 0),
            Sides::Keyed(k) => (k.stored, k.log.len()),
        }
    }
}

impl COperator for CJoin {
    fn name(&self) -> &'static str {
        "join"
    }

    fn process(
        &mut self,
        input: usize,
        seg: &Segment,
        lineage: &mut LineageStore,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        let now = seg.span.lo;
        let horizon = now - self.window;
        match &mut self.sides {
            Sides::Eager(sides) => sides.iter_mut().for_each(|s| s.expire(horizon)),
            Sides::Keyed(k) => k.arrive(seg.key, horizon),
        }
        let from_left = input == 0;
        let (side, opposite) = if from_left { (0, 1) } else { (1, 0) };
        // Stored before the probe, which reads only the opposite side.
        match &mut self.sides {
            Sides::Eager(sides) => sides[side].push(seg.clone()),
            Sides::Keyed(k) => k.store(side, seg),
        }

        self.nulls.clear();
        let mut any_overlap = false;
        let mut scanned = 0;
        let mut trace_rows = 0u64;
        let mut trace_outputs = 0u32;
        let mut eager_hits;
        let mut keyed_hits;
        let candidates: &mut dyn Iterator<Item = &Segment> = match &self.sides {
            Sides::Eager(sides) => {
                eager_hits = sides[opposite].candidates(seg.span, &mut scanned).into_iter();
                &mut eager_hits
            }
            Sides::Keyed(k) => {
                keyed_hits = k.candidates(seg.key, opposite, seg.span).inspect(|_| scanned += 1);
                &mut keyed_hits
            }
        };
        for opp in candidates {
            let (l, r) = if from_left { (seg, opp) } else { (opp, seg) };
            if !self.on_keys.test(l.key, r.key) {
                continue;
            }
            let Some(overlap) = l.span.intersect(&r.span) else { continue };
            any_overlap = true;
            let lb = &self.bindings[0];
            let rb = &self.bindings[1];
            let t0 = prof::start();
            let sys = match self.template.substitute_into(|inp, attr, slot| {
                if inp == 0 {
                    lb.poly_into(l, attr, slot)
                } else {
                    rb.poly_into(r, attr, slot)
                }
            }) {
                Ok(sys) => sys,
                Err(_) => continue,
            };
            let t0 = tr.prof_lap(t0, Phase::TemplateSubstitute);
            let nested0 = t0.map(|_| Phase::solve_nested_ns(tr.phases()));
            let mut rows = 0;
            let sol = sys.solve_with(overlap, &mut rows, &mut self.scratch, tr);
            if let (Some(t0), Some(n0)) = (t0, nested0) {
                let nested = Phase::solve_nested_ns(tr.phases()).saturating_sub(n0);
                let total = t0.elapsed().as_nanos() as u64;
                tr.phases_mut().record(Phase::RootIsolate, total.saturating_sub(nested));
            }
            self.m.systems_solved += 1;
            self.m.comparisons += rows;
            trace_rows += rows;
            if sol.is_empty() {
                self.nulls.record(sys, overlap);
                continue;
            }
            let mut models = Models::with_capacity(l.models.len() + r.models.len());
            models.extend_from_slice(&l.models);
            models.extend_from_slice(&r.models);
            let mut unmodeled = Vec::with_capacity(l.unmodeled.len() + r.unmodeled.len());
            unmodeled.extend_from_slice(&l.unmodeled);
            unmodeled.extend_from_slice(&r.unmodeled);
            let key = self.on_keys.output_key(l.key, r.key);
            let mut spans = meaningful_spans(&sol).peekable();
            while let Some(span) = spans.next() {
                // The last span takes the vectors; earlier ones copy them.
                let (models, unmodeled) = if spans.peek().is_some() {
                    (models.clone(), unmodeled.clone())
                } else {
                    (std::mem::take(&mut models), std::mem::take(&mut unmodeled))
                };
                let joined = Segment::new(key, span, models, unmodeled);
                lineage.emit(&joined, &[l.id, r.id]);
                self.m.items_out += 1;
                trace_outputs += 1;
                out.push(joined);
            }
        }
        self.m.comparisons += scanned;
        if tr.on() && any_overlap {
            let kind = TraceKind::OpSolve { op: "join", rows: trace_rows, outputs: trace_outputs };
            tr.emit_scoped(seg.key, now, kind);
        }
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn reset_slack(&mut self) {
        self.nulls.clear();
    }

    fn resolve_slack(&mut self) -> Option<f64> {
        self.nulls.resolve(&mut self.scratch)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{CmpOp, Poly, Span};
    use pulse_model::{AttrKind, Expr, Schema, SegmentId};
    use std::collections::HashMap;

    fn schema() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn bindings() -> [Binding; 2] {
        [Binding::new(schema()), Binding::new(schema())]
    }

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    fn lt_pred() -> Pred {
        Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0))
    }

    #[test]
    fn crossing_models_join_on_subrange() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, lt_pred(), KeyJoin::Any, bindings());
        let mut out = Vec::new();
        // Left: x = t on [0, 10); Right: y = 5 on [0, 10). x < y ⇔ t < 5.
        j.process(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty(), "nothing buffered on the other side yet");
        j.process(1, &seg(2, 0.0, 10.0, 5.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        // Joined segment carries both models.
        assert_eq!(out[0].models.len(), 2);
        assert_eq!(out[0].key, (1 << 32) | 2);
    }

    #[test]
    fn equality_join_yields_point() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::attr_of(1, 0));
        let mut j = CJoin::new(100.0, pred, KeyJoin::Any, bindings());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out); // x = t
        j.process(1, &seg(2, 0.0, 10.0, 8.0, -1.0), &mut store, &mut tr, &mut out); // y = 8 − t; equal at t=4
        assert_eq!(out.len(), 1);
        assert!(out[0].span.is_point());
        assert!((out[0].span.lo - 4.0).abs() < 1e-8);
    }

    #[test]
    fn solutions_clipped_to_overlap() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, lt_pred(), KeyJoin::Any, bindings());
        let mut out = Vec::new();
        // Left valid [0, 4); right valid [2, 10): overlap [2, 4). x<y always.
        j.process(0, &seg(1, 0.0, 4.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        j.process(1, &seg(2, 2.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(2.0, 4.0));
    }

    #[test]
    fn key_ne_excludes_same_key() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, Pred::True, KeyJoin::Ne, bindings());
        let mut out = Vec::new();
        j.process(0, &seg(7, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        j.process(1, &seg(7, 0.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty(), "same key must not self-join under Ne");
        j.process(1, &seg(8, 0.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn key_eq_joins_matching_keys_only() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, Pred::True, KeyJoin::Eq, bindings());
        let mut out = Vec::new();
        j.process(0, &seg(5, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        j.process(1, &seg(6, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty());
        j.process(1, &seg(5, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, 5);
    }

    #[test]
    fn state_expiry_drops_old_segments() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Any, bindings());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 0.5, 0.0, 0.0), &mut store, &mut tr, &mut out);
        // Arrives at t=5: the old left segment (ended 0.5) is beyond the 1s window.
        j.process(1, &seg(2, 5.0, 6.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty());
    }

    fn ids<'a>(segs: impl IntoIterator<Item = &'a Segment>) -> Vec<SegmentId> {
        segs.into_iter().map(|s| s.id).collect()
    }

    fn stored_ids(side: &[Stored]) -> Vec<SegmentId> {
        ids(side.iter().map(|s| &s.seg))
    }

    /// The brute-force reference for keyed state: one [`SegmentIndex`] per
    /// key and side, every key expired at every arrival.
    #[derive(Default)]
    struct EagerKeyed(HashMap<u64, [SegmentIndex; 2]>);

    impl EagerKeyed {
        fn arrive(&mut self, horizon: f64) {
            self.0.values_mut().flatten().for_each(|idx| idx.expire_before(horizon));
        }

        fn side(&self, key: u64, side: usize) -> Vec<SegmentId> {
            self.0.get(&key).map_or_else(Vec::new, |sides| ids(sides[side].iter()))
        }
    }

    /// Checks the lazy state against the reference: the arriving key's
    /// sides hold the same segments in the same order, the stored count
    /// is right, and after a sweep every key matches, no key is empty and
    /// the log is empty. Returns whether a sweep ran.
    fn assert_keyed_state(lazy: &KeyedState, eager: &EagerKeyed, key: u64) -> bool {
        let held =
            |k: u64, side: usize| lazy.map.get(&k).map_or_else(Vec::new, |s| stored_ids(&s[side]));
        for side in 0..2 {
            assert_eq!(held(key, side), eager.side(key, side), "key {key} side {side}");
        }
        assert_eq!(lazy.stored, lazy.map.values().flatten().map(Vec::len).sum::<usize>());
        let swept = lazy.log.is_empty();
        if swept {
            assert!(
                lazy.map.values().all(|sides| sides.iter().any(|s| !s.is_empty())),
                "empty key"
            );
            let live = eager.0.iter().filter(|(_, sides)| sides.iter().any(|i| !i.is_empty()));
            assert_eq!(live.clone().count(), lazy.map.len(), "keys after a sweep");
            for (&k, _) in live {
                for side in 0..2 {
                    assert_eq!(held(k, side), eager.side(k, side), "key {k} after a sweep");
                }
            }
        }
        swept
    }

    #[test]
    fn keyed_lazy_expiry_matches_eager_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let (mut probes, mut hits, mut sweeps, mut late) = (0, 0, 0, 0);
        for _ in 0..24 {
            let window = if rng.gen_bool(0.5) {
                rng.gen_range(1..12) as f64 / 4.0
            } else {
                rng.gen_range(0.1..3.0)
            };
            let keys: u64 = rng.gen_range(3..200);
            let mut lazy = KeyedState::default();
            let mut eager = EagerKeyed::default();
            let mut now: f64 = 0.0;
            let mut max_horizon = f64::NEG_INFINITY;
            for _ in 0..300 {
                // Time mostly creeps forward; sometimes a push runs well
                // behind the latest one, sometimes the stream jumps ahead
                // past several windows. A few keys arrive often, most go
                // silent for long stretches.
                now += match rng.gen_range(0..20) {
                    0 | 1 => -rng.gen_range(0.0..2.0 * window),
                    2 => rng.gen_range(0.0..4.0 * window),
                    _ => rng.gen_range(0.0..0.3),
                };
                // A grid makes ends meet horizons and probe bounds exactly;
                // jitter moves them to within a few EPS.
                if rng.gen_bool(0.5) {
                    now = (now * 8.0).round() / 8.0;
                }
                let key =
                    if rng.gen_bool(0.6) { rng.gen_range(0..3) } else { rng.gen_range(3..keys) };
                let side: usize = rng.gen_range(0..2);
                // A late push ends at or before a horizon already seen.
                let (lo, hi) = if rng.gen_bool(0.05) && max_horizon.is_finite() {
                    late += 1;
                    let hi = max_horizon - rng.gen_range(0..3) as f64 / 8.0;
                    (hi - rng.gen_range(0.0..1.0), hi)
                } else if rng.gen_bool(0.1) {
                    (now, now)
                } else {
                    (now, now + rng.gen_range(0.0..2.0))
                };
                // The push's pieces arrive newest first, as `CPlan`'s LIFO
                // queue delivers them.
                let mut cuts: Vec<f64> = (0..rng.gen_range(0..4))
                    .map(|_| lo + rng.gen_range(0.0..1.0) * (hi - lo))
                    .collect();
                cuts.extend([lo, hi]);
                cuts.sort_by(f64::total_cmp);
                let mut jitter = |t: f64| {
                    let steps = [0.0, 0.0, 0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0];
                    t + steps[rng.gen_range(0..steps.len())] * EPS
                };
                let pieces: Vec<Span> = cuts
                    .windows(2)
                    .map(|w| {
                        let lo = jitter(w[0]);
                        Span::new(lo, jitter(w[1]).max(lo))
                    })
                    .collect();
                for mut span in pieces.into_iter().rev() {
                    // Rarely, a NaN end or a NaN horizon.
                    if rng.gen_bool(0.003) {
                        span.hi = f64::NAN;
                    }
                    // Models of varying count and degree, so a store that
                    // reuses a dropped segment must resize what it copies.
                    let n_models = rng.gen_range(1..3);
                    let mut values = |n: usize| -> Vec<f64> {
                        (0..rng.gen_range(0..n)).map(|_| rng.gen_range(-1.0..1.0)).collect()
                    };
                    let models: Models = (0..n_models).map(|_| Poly::new(values(4))).collect();
                    let s = Segment::new(key, span, models, values(3));
                    let horizon = if rng.gen_bool(0.003) { f64::NAN } else { span.lo - window };
                    max_horizon = max_horizon.max(horizon);
                    lazy.arrive(key, horizon);
                    eager.arrive(horizon);
                    sweeps += usize::from(assert_keyed_state(&lazy, &eager, key));
                    let got: Vec<&Segment> = lazy.candidates(key, 1 - side, span).collect();
                    let want = eager
                        .0
                        .get(&key)
                        .map_or_else(Vec::new, |sides| sides[1 - side].overlapping(span));
                    assert_eq!(got, want, "key {key} probing {span:?}");
                    probes += 1;
                    hits += usize::from(!want.is_empty());
                    lazy.store(side, &s);
                    eager.0.entry(key).or_default()[side].insert(s);
                }
            }
        }
        assert!(hits > probes / 10, "too few probes hit state: {hits} of {probes}");
        assert!(sweeps > 100 && late > 100, "sweeps {sweeps}, late pushes {late}");
    }

    #[test]
    fn keyed_walk_keeps_the_index_eps_edges() {
        let point = |t: f64| Span::new(t, t);
        let spans = [
            Span::new(0.0, 0.5),
            Span::new(0.5, 1.0),
            Span::new(0.5, 1.0 + EPS),
            point(1.0 - EPS),
            point(1.0),
            point(1.0 + EPS),
            point(1.0 + 2.0 * EPS),
            point(2.0 - EPS),
            Span::new(2.0 - EPS, 3.0),
            Span::new(2.0, 3.0),
        ];
        let probes = [Span::new(1.0, 2.0), point(1.0), point(1.0 + EPS), point(2.0)];
        // Every prefix of the spans, so each one is last (the running
        // maximum end cut-off) in some state.
        for n in 1..=spans.len() {
            let mut k = KeyedState::default();
            let mut idx = SegmentIndex::new();
            for &span in &spans[..n] {
                let s = Segment::single(7, span, Poly::constant(0.0));
                k.arrive(7, f64::NEG_INFINITY);
                k.store(0, &s);
                idx.insert(s);
            }
            for q in probes {
                assert_eq!(ids(k.candidates(7, 0, q)), ids(idx.overlapping(q)), "{n} spans, {q:?}");
            }
        }
    }

    #[test]
    fn silent_key_is_freed_by_the_next_sweep() {
        let mut k = KeyedState::default();
        for key in 0..8 {
            k.arrive(key, -1.0);
            k.store(0, &seg(key, 0.0, 0.5 + key as f64, 0.0, 0.0));
        }
        // Keys 0..4 never arrive again; key 9's arrivals at horizon 4.0
        // leave their dead segments stored until the next sweep, which
        // comes within as many arrivals as there are stored segments.
        let stored = k.stored;
        for n in 1..=stored {
            k.arrive(9, 4.0);
            if k.log.is_empty() {
                assert!((0..4).all(|key| !k.map.contains_key(&key)));
                assert_eq!((k.map.len(), k.stored), (4, 4), "{n} arrivals to the sweep");
                return;
            }
            assert!(k.map.contains_key(&0), "key 0 freed before a sweep");
        }
        panic!("no sweep within {stored} arrivals");
    }

    #[test]
    fn key_that_empties_and_returns_keeps_live_segments() {
        let mut k = KeyedState::default();
        k.arrive(7, -1.0);
        k.store(0, &seg(7, 0.0, 1.0, 0.0, 0.0));
        k.arrive(7, -1.0);
        k.store(0, &seg(7, 0.5, 1.0, 0.0, 0.0));
        k.arrive(7, 1.5);
        assert_eq!(k.stored, 0);
        // Back with a segment ending later than the old ones: arrivals at
        // the old ends, and at an earlier horizon, must keep it.
        k.store(0, &seg(7, 2.0, 10.0, 0.0, 0.0));
        for t in [1.0, 1.5, 0.0, 9.0] {
            k.arrive(7, t);
            assert_eq!(k.candidates(7, 0, Span::new(9.5, 9.6)).count(), 1, "t={t}");
        }
        k.arrive(7, 10.0);
        assert_eq!(k.candidates(7, 0, Span::new(9.5, 9.6)).count(), 0);
        assert_eq!(k.stored, 0);
    }

    #[test]
    fn state_sizes_track_stored_segments() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Eq, bindings());
        let mut out = Vec::new();
        for key in 0..8 {
            j.process(0, &seg(key, 0.0, 0.5, 0.0, 0.0), &mut store, &mut tr, &mut out);
        }
        assert_eq!(j.state_sizes().0, 8);
        // Key 9 arrives past every stored end. The dead segments count
        // until the next sweep frees them and empties the horizon log.
        for n in 1..=8 {
            j.process(1, &seg(9, 1.6, 2.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            match j.state_sizes() {
                (segments, 0) => return assert_eq!(segments, n, "key 9's segments alone"),
                (segments, _) => assert_eq!(segments, 8 + n, "dead segments wait for the sweep"),
            }
        }
        panic!("no sweep within 8 arrivals");
    }

    #[test]
    fn non_finite_times_drop_state_without_panicking() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let nan_hi = Segment::single(1, Span { lo: 0.0, hi: f64::NAN }, Poly::constant(0.0));
        let nan_lo = Segment::single(1, Span { lo: f64::NAN, hi: 1.0 }, Poly::constant(0.0));
        for state in [JoinState::Scan, JoinState::Indexed] {
            let join =
                |window| CJoin::with_state(window, Pred::True, KeyJoin::Eq, bindings(), state);
            let mut out = Vec::new();
            // A NaN horizon (here from a NaN window) drops everything stored.
            let mut j = join(f64::NAN);
            j.process(0, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            j.process(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            assert!(out.is_empty(), "{state:?}");
            assert_eq!(j.state_sizes().0, 1, "{state:?}");
            // A NaN end is dropped at its first check.
            let mut j = join(100.0);
            j.process(0, &nan_hi, &mut store, &mut tr, &mut out);
            j.process(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            assert!(out.is_empty(), "{state:?}");
            assert_eq!(j.state_sizes().0, 1, "{state:?}");
            // A NaN start's horizon drops everything too.
            j.process(0, &nan_lo, &mut store, &mut tr, &mut out);
            assert_eq!(j.state_sizes().0, 1, "{state:?}");
            j.process(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        }
    }

    #[test]
    fn null_join_records_slack() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        // Overlapping segments, predicate never satisfied: slack is the gap.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::attr_of(1, 0));
        let mut j = CJoin::new(100.0, pred, KeyJoin::Any, bindings());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out); // x = 0
        j.process(1, &seg(2, 0.0, 10.0, 3.0, 0.0), &mut store, &mut tr, &mut out); // y = 3
        assert!(out.is_empty());
        let slack = j.resolve_slack().unwrap();
        assert!((slack - 3.0).abs() < 1e-6, "slack {slack}");
    }

    /// The reference for deferred slack: `None` when the system has a
    /// solution over `domain`, else its `System::slack_with` there.
    fn eager_null_slack(
        template: &mut SystemTemplate,
        bind: impl FnMut(usize, usize, &mut Poly) -> Result<(), pulse_model::ExprError>,
        domain: Span,
    ) -> Option<f64> {
        let sys = template.substitute_into(bind).ok()?;
        let sol = sys.solve(domain, &mut 0);
        sol.is_empty().then(|| sys.slack_with(domain, &mut SolveScratch::default()))
    }

    /// After every push that returns nothing, `CPlan::last_slack` is, bit
    /// for bit, the eager minimum of `System::slack_with` over the null
    /// pairs of the push's last join call, or the filter's null result
    /// when no piece reached the join.
    #[test]
    fn deferred_slack_matches_eager_slack_bit_for_bit() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        use crate::cops::CFilter;
        use crate::plan::CPlan;
        use pulse_stream::{LogicalOp, LogicalPlan, PortRef};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (l, r) = (Expr::attr_of(0, 0), Expr::attr_of(1, 0));
        // Two rows: l − r > 0.3 and l − 0.8 < 0.
        let join_pred =
            Pred::cmp(l.clone(), CmpOp::Gt, Expr::Add(Box::new(r), Box::new(Expr::c(0.3))))
                .and(Pred::cmp(l, CmpOp::Lt, Expr::c(0.8)));
        // Quadratic left models cross the filter's threshold up to twice,
        // so one push can call the join twice (pieces newest first).
        let filter_pred = Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-0.2));
        let mut rng = StdRng::seed_from_u64(41);
        let (mut checked, mut multi_null, mut points, mut filter_nulls) = (0, 0, 0, 0);
        let mut two_calls = 0;
        for _ in 0..8 {
            let window = rng.gen_range(0.5..3.0);
            let mut lp = LogicalPlan::new(vec![schema(), schema()]);
            let filter =
                lp.add(LogicalOp::Filter { pred: filter_pred.clone() }, vec![PortRef::Source(0)]);
            lp.add(
                LogicalOp::Join { window, pred: join_pred.clone(), on_keys: KeyJoin::Eq },
                vec![filter, PortRef::Source(1)],
            );
            let mut plan = CPlan::compile(&lp).unwrap();
            let mut filter_ref = CFilter::new(filter_pred.clone(), Binding::new(schema()));
            let mut filter_template = SystemTemplate::compile(&filter_pred.normalize());
            let mut join_template = SystemTemplate::compile(&join_pred.normalize());
            let [lb, rb] = bindings();
            let mut eager = EagerKeyed::default();
            let mut now: f64 = 0.0;
            for _ in 0..400 {
                now += if rng.gen_bool(0.1) {
                    -rng.gen_range(0.0..window)
                } else {
                    rng.gen_range(0.0..0.4)
                };
                // On a grid, ends and starts meet exactly.
                if rng.gen_bool(0.5) {
                    now = (now * 4.0).round() / 4.0;
                }
                let key = rng.gen_range(0..4);
                let source: usize = rng.gen_range(0..2);
                let hi = if rng.gen_bool(0.15) { now } else { now + rng.gen_range(0.0..2.0) };
                let len = hi - now;
                // a + b·(t − now) + c·(t − now)², expanded. Left models
                // are often a valley that dips below the filter's
                // threshold mid-span only, which the filter cuts in two.
                let (a, b, c) = if source == 0 && len > 0.5 && rng.gen_bool(0.5) {
                    let bottom = -0.2 - rng.gen_range(0.05..1.0);
                    let c: f64 = 4.0 * (-0.2 - bottom) / (len * len) * rng.gen_range(1.2..3.0);
                    (c * len * len / 4.0 + bottom, -c * len, c)
                } else {
                    (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), 0.0)
                };
                let poly = Poly::new(vec![a - b * now + c * now * now, b - 2.0 * c * now, c]);
                let s = Segment::single(key, Span::new(now, hi), poly);
                let results = plan.push(source, &s);

                // The reference: the filter's pieces, then one join call
                // per piece, newest first, each expiring eagerly.
                let mut pieces = Vec::new();
                let mut want = None;
                if source == 0 {
                    filter_ref.process(0, &s, &mut store, &mut tr, &mut pieces);
                    if pieces.is_empty() {
                        want = eager_null_slack(
                            &mut filter_template,
                            |_, attr, slot| lb.poly_into(&s, attr, slot),
                            s.span,
                        );
                        filter_nulls += 1;
                    }
                } else {
                    pieces.push(s.clone());
                }
                let mut joined = 0;
                for q in pieces.iter().rev() {
                    eager.arrive(q.span.lo - window);
                    let opposite = eager.0.get(&key).map_or_else(Vec::new, |sides| {
                        sides[1 - source].overlapping(q.span).into_iter().cloned().collect()
                    });
                    want = None;
                    let mut nulls = 0;
                    for o in &opposite {
                        let (l, r) = if source == 0 { (q, o) } else { (o, q) };
                        let Some(overlap) = l.span.intersect(&r.span) else { continue };
                        let bind = |inp: usize, attr: usize, slot: &mut Poly| {
                            if inp == 0 {
                                lb.poly_into(l, attr, slot)
                            } else {
                                rb.poly_into(r, attr, slot)
                            }
                        };
                        match eager_null_slack(&mut join_template, bind, overlap) {
                            Some(slack) => {
                                want = Some(want.map_or(slack, |w: f64| w.min(slack)));
                                nulls += 1;
                                points += usize::from(overlap.is_point());
                            }
                            None => joined += 1,
                        }
                    }
                    multi_null += usize::from(nulls > 1);
                    eager.0.entry(key).or_default()[source].insert(q.clone());
                }
                assert_eq!(results.is_empty(), joined == 0, "push at {now}");
                if results.is_empty() {
                    assert_eq!(plan.last_slack().map(f64::to_bits), want.map(f64::to_bits));
                    checked += usize::from(want.is_some());
                    two_calls += usize::from(pieces.len() > 1);
                }
            }
        }
        assert!(
            checked > 500 && multi_null > 100,
            "checked {checked}, multi-null calls {multi_null}"
        );
        assert!(
            points > 20 && filter_nulls > 100 && two_calls > 100,
            "point overlaps {points}, filter nulls {filter_nulls}, two-call pushes {two_calls}"
        );
    }

    #[test]
    fn lineage_links_both_parents() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, lt_pred(), KeyJoin::Any, bindings());
        let mut out = Vec::new();
        let l = seg(1, 0.0, 10.0, 0.0, 1.0);
        let r = seg(2, 0.0, 10.0, 5.0, 0.0);
        j.process(0, &l, &mut store, &mut tr, &mut out);
        j.process(1, &r, &mut store, &mut tr, &mut out);
        let parents = store.parents_of(out[0].id).to_vec();
        assert_eq!(parents, vec![l.id, r.id]);
    }
}
