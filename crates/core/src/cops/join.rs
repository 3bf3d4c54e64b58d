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
//! State is one layout for every join: buckets of both sides' segments, one
//! per key for a `KeyJoin::Eq` join and a single one otherwise, where
//! `KeyJoin::test` filters the pairs. Each side of a bucket is sorted by
//! start and carries the running maximum end (§VII's segment index), so a
//! probe is two binary searches plus the overlaps it returns. An arrival
//! touches only its own bucket. It expires lazily through a horizon log
//! that gives, for any stored segment, the largest horizon since it was
//! stored, so every probe sees exactly the segments that expiring every
//! bucket at every arrival would have left. A sweep of every bucket frees
//! silent keys.

use super::{meaningful_spans, COperator, Emitter};
use crate::binding::Binding;
use crate::eqsys::{PendingSlack, SolveScratch, SystemTemplate};
use crate::keymap::KeyMap;
use pulse_math::{Span, EPS};
use pulse_model::{Pred, Segment};
use pulse_obs::{Phase, TraceKind, Tracer};
use pulse_stream::{KeyJoin, OpMetrics};
use std::any::Any;

/// A segment in join state, the number of the arrival that stored it, and
/// the largest end among it and the entries before it on its side.
struct Stored {
    seg: Segment,
    seq: u64,
    max_hi: f64,
}

/// The bucket a segment of `key` goes to: its key when the join pairs
/// equal keys only, else the one bucket every segment shares.
fn bucket(on_keys: KeyJoin, key: u64) -> u64 {
    if on_keys == KeyJoin::Eq {
        key
    } else {
        0
    }
}

/// Where an entry starting at `lo` goes among `entries`, whose starts
/// `start` reads: last when it starts no more than `EPS` before the last
/// entry, else after every entry starting at or before it.
fn start_order_pos<T>(entries: &[T], lo: f64, start: impl Fn(&T) -> f64) -> usize {
    if entries.last().is_none_or(|l| start(l) <= lo + EPS) {
        entries.len()
    } else {
        entries.partition_point(|e| start(e) <= lo)
    }
}

/// One side of a bucket: its segments in [`start_order_pos`] order, and
/// the earliest end among them, a NaN end counting as `−∞` (`+∞` when
/// there are none).
struct Side {
    segs: Vec<Stored>,
    min_hi: f64,
}

impl Default for Side {
    fn default() -> Self {
        Side { segs: Vec::new(), min_hi: f64::INFINITY }
    }
}

impl std::ops::Deref for Side {
    type Target = [Stored];

    fn deref(&self) -> &[Stored] {
        &self.segs
    }
}

/// A span end as [`Side::min_hi`] counts it.
fn end(hi: f64) -> f64 {
    if hi.is_nan() {
        f64::NEG_INFINITY
    } else {
        hi
    }
}

impl Side {
    /// Drops the dead segments and returns how many. When the earliest end
    /// is after the log's first, largest horizon, none is dead, and the
    /// side is not scanned: an arrival that frees nothing costs O(1) even
    /// in the single bucket of an `Any` or `Ne` join.
    fn expire(&mut self, log: &[(u64, f64)]) -> usize {
        if log.first().is_none_or(|&(_, max)| self.min_hi > max) {
            return 0;
        }
        let before = self.segs.len();
        self.segs.retain(|s| !is_dead(s, log));
        // A second pass: folding the minimum into `retain` measured slower.
        self.min_hi = self.segs.iter().map(|s| end(s.seg.span.hi)).fold(f64::INFINITY, f64::min);
        before - self.segs.len()
    }
}

/// The join state: both sides of a bucket in one map entry.
///
/// *Exactness.* Eager expiry keeps a segment stored at arrival `i` live at
/// arrival `p` iff `hi > t_j` for every horizon `t_j`, `i < j ≤ p`, i.e.
/// iff `hi` exceeds their maximum. `log` keeps the `(seq, horizon)` of
/// each arrival whose horizon exceeds every later one, so horizons
/// strictly decrease along it, and that maximum is the horizon of the
/// first entry with `seq > i` ([`is_dead`]). A NaN horizon, which drops
/// everything under eager expiry, is logged as `+∞`, which does the same.
/// Each arrival drops its own bucket's dead segments on both sides before
/// it stores and probes, so the bucket's vectors hold exactly the live
/// segments, in the order eager expiry would have left them.
///
/// *Bound.* Other buckets keep their dead segments until a sweep, due once
/// the arrivals since the last one reach the segments it left. A sweep
/// drops every dead segment and empty bucket and clears the log: a
/// survivor ends after every horizon up to the sweep, so only later ones
/// can kill it, and for a segment stored before the sweep [`is_dead`]
/// reads the log's first entry, their maximum. The sweep costs at most one
/// check per arrival, amortised, and keeps stored segments within twice
/// what it left.
///
/// *Running maximum.* Only a store renews maxima, from its position on:
/// dropping dead segments leaves every survivor's running maximum end as
/// it was, because a segment `d` that dies ends before every survivor `s`
/// of its bucket does. If `d` was stored after `s`, every horizon that can
/// kill `d` came after `s` was stored, and `s` outlives them all. If
/// before, `d` outlived `s`'s arrival, which dropped the bucket's dead
/// first, so the horizon that kills `d` came after `s` was stored too.
#[derive(Default)]
struct KeyedState {
    map: KeyMap<u64, [Side; 2]>,
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
/// `seq`, or has a NaN end: the segments eager expiry drops, since logged
/// horizons are never NaN.
fn is_dead(s: &Stored, log: &[(u64, f64)]) -> bool {
    let hi = s.seg.span.hi;
    // The log's first horizon is its largest: a segment ending after it
    // lives, whenever it was stored.
    if log.first().is_none_or(|&(_, max)| hi > max) {
        return false;
    }
    let later = log.partition_point(|&(seq, _)| seq <= s.seq);
    log.get(later).is_some_and(|&(_, h)| hi <= h || hi.is_nan())
}

impl KeyedState {
    /// Takes the next arrival, `seg` into `bucket`'s `side` at `horizon`:
    /// logs the horizon, sweeps every bucket when one is due, drops
    /// `bucket`'s dead segments on both sides and stores a copy of `seg`.
    /// Returns the bucket's other side, the one the arrival probes.
    fn arrive(&mut self, bucket: u64, horizon: f64, side: usize, seg: &Segment) -> &[Stored] {
        self.seq += 1;
        let h = if horizon.is_nan() { f64::INFINITY } else { horizon };
        while self.log.last().is_some_and(|&(_, last)| last <= h) {
            self.log.pop();
        }
        self.log.push((self.seq, h));
        self.since_sweep += 1;
        if self.since_sweep >= self.swept {
            self.sweep();
        }
        let sides = self.map.entry(bucket).or_default();
        for v in sides.iter_mut() {
            self.stored -= v.expire(&self.log);
        }
        let Side { segs: v, min_hi } = &mut sides[side];
        *min_hi = min_hi.min(end(seg.span.hi));
        let pos = start_order_pos(v, seg.span.lo, |s| s.seg.span.lo);
        let mut max_hi = pos.checked_sub(1).map_or(f64::NEG_INFINITY, |i| v[i].max_hi);
        v.insert(pos, Stored { seg: seg.clone(), seq: self.seq, max_hi });
        for s in &mut v[pos..] {
            max_hi = max_hi.max(s.seg.span.hi);
            s.max_hi = max_hi;
        }
        self.stored += 1;
        &sides[1 - side]
    }

    fn sweep(&mut self) {
        let log = &self.log;
        let mut stored = 0;
        self.map.retain(|_, sides| {
            for side in sides.iter_mut() {
                side.expire(log);
                stored += side.len();
            }
            sides.iter().any(|side| !side.is_empty())
        });
        self.log.clear();
        self.stored = stored;
        self.swept = stored;
        self.since_sweep = 0;
    }
}

/// The segments of a bucket side `v` overlapping `q`, in start order. Two
/// binary searches bound the walk: it ends at the first entry starting at
/// or after `q.hi − EPS` and starts at the first whose running maximum end
/// passes `q.lo + EPS`.
fn overlapping(v: &[Stored], q: Span) -> impl Iterator<Item = &Segment> {
    let v = &v[..v.partition_point(|s| s.seg.span.lo < q.hi - EPS)];
    let start = v.partition_point(|s| s.max_hi <= q.lo + EPS);
    v[start..].iter().map(|s| &s.seg).filter(move |s| s.span.overlaps(&q))
}

/// Continuous join operator.
pub struct CJoin {
    window: f64,
    /// Per-pair equation system compiled once from the normalized join
    /// predicate; each candidate pair substitutes its models into it.
    template: SystemTemplate,
    on_keys: KeyJoin,
    bindings: [Binding; 2],
    state: KeyedState,
    /// The last arrival's null pairs, in probe order.
    nulls: PendingSlack,
    /// Solver scratch shared by every candidate pair of every arrival.
    scratch: SolveScratch,
    m: OpMetrics,
}

impl CJoin {
    pub fn new(window: f64, pred: Pred, on_keys: KeyJoin, bindings: [Binding; 2]) -> Self {
        CJoin {
            window,
            template: SystemTemplate::compile(&pred.normalize()),
            on_keys,
            bindings,
            state: KeyedState::default(),
            nulls: PendingSlack::default(),
            scratch: SolveScratch::default(),
            m: OpMetrics::default(),
        }
    }

    /// Segments stored on both sides, counting dead ones the next sweep
    /// frees, and horizon log entries: the `state.join_segments` and
    /// `state.join_horizons` gauges.
    pub fn state_sizes(&self) -> (usize, usize) {
        (self.state.stored, self.state.log.len())
    }
}

impl COperator for CJoin {
    fn name(&self) -> &'static str {
        "join"
    }

    fn process(&mut self, input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>) {
        self.m.items_in += 1;
        let now = seg.span.lo;
        let from_left = input == 0;
        let side = if from_left { 0 } else { 1 };
        // Stored before the probe, which reads only the opposite side.
        let bucket = bucket(self.on_keys, seg.key);
        let opposite = self.state.arrive(bucket, now - self.window, side, seg);

        self.nulls.clear();
        let mut any_overlap = false;
        let mut scanned = 0;
        let mut trace_rows = 0u64;
        let mut trace_outputs = 0u32;
        for opp in overlapping(opposite, seg.span) {
            scanned += 1;
            let (l, r) = if from_left { (seg, opp) } else { (opp, seg) };
            if !self.on_keys.test(l.key, r.key) {
                continue;
            }
            let Some(overlap) = l.span.intersect(&r.span) else { continue };
            any_overlap = true;
            let lb = &self.bindings[0];
            let rb = &self.bindings[1];
            let m = tr.enter(Phase::TemplateSubstitute);
            let sys = match self.template.substitute_into(|inp, attr, slot| {
                if inp == 0 {
                    lb.poly_into(l, attr, slot)
                } else {
                    rb.poly_into(r, attr, slot)
                }
            }) {
                Ok(sys) => sys,
                Err(_) => {
                    tr.leave(m);
                    continue;
                }
            };
            tr.enter(Phase::RootIsolate);
            let mut rows = 0;
            let sol = sys.solve_with(overlap, &mut rows, &mut self.scratch, tr);
            tr.leave(m);
            self.m.systems_solved += 1;
            self.m.comparisons += rows;
            trace_rows += rows;
            if sol.is_empty() {
                self.nulls.record(sys, overlap);
                continue;
            }
            let key = self.on_keys.output_key(l.key, r.key);
            for span in meaningful_spans(&sol) {
                self.m.items_out += 1;
                trace_outputs += 1;
                out.emit_parts(key, span, &[l, r], &[l.id, r.id], tr);
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
    use crate::cops::Feed;
    use crate::lineage::LineageStore;
    use pulse_math::{CmpOp, Poly, Span};
    use pulse_model::{AttrKind, Expr, Models, Schema, SegmentId};
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
        j.feed(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty(), "nothing buffered on the other side yet");
        j.feed(1, &seg(2, 0.0, 10.0, 5.0, 0.0), &mut store, &mut tr, &mut out);
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
        j.feed(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out); // x = t
        j.feed(1, &seg(2, 0.0, 10.0, 8.0, -1.0), &mut store, &mut tr, &mut out); // y = 8 − t; equal at t=4
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
        j.feed(0, &seg(1, 0.0, 4.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        j.feed(1, &seg(2, 2.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(2.0, 4.0));
    }

    #[test]
    fn key_ne_excludes_same_key() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, Pred::True, KeyJoin::Ne, bindings());
        let mut out = Vec::new();
        j.feed(0, &seg(7, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        j.feed(1, &seg(7, 0.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty(), "same key must not self-join under Ne");
        j.feed(1, &seg(8, 0.0, 10.0, 1.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn key_eq_joins_matching_keys_only() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(100.0, Pred::True, KeyJoin::Eq, bindings());
        let mut out = Vec::new();
        j.feed(0, &seg(5, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        j.feed(1, &seg(6, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty());
        j.feed(1, &seg(5, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, 5);
    }

    #[test]
    fn state_expiry_drops_old_segments() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Any, bindings());
        let mut out = Vec::new();
        j.feed(0, &seg(1, 0.0, 0.5, 0.0, 0.0), &mut store, &mut tr, &mut out);
        // Arrives at t=5: the old left segment (ended 0.5) is beyond the 1s window.
        j.feed(1, &seg(2, 5.0, 6.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty());
    }

    fn ids<'a>(segs: impl IntoIterator<Item = &'a Segment>) -> Vec<SegmentId> {
        segs.into_iter().map(|s| s.id).collect()
    }

    fn stored_ids(side: &[Stored]) -> Vec<SegmentId> {
        ids(side.iter().map(|s| &s.seg))
    }

    /// The eager reference for one bucket side: segments in
    /// [`start_order_pos`] order with an augmented running maximum end,
    /// expired at every arrival, whose overlap walk runs backwards from the
    /// last entry starting before the probe ends.
    #[derive(Debug, Default)]
    struct SegmentIndex {
        entries: Vec<Segment>,
        /// `max_hi[i]` = max of `entries[0..=i].span.hi`.
        max_hi: Vec<f64>,
    }

    impl SegmentIndex {
        fn len(&self) -> usize {
            self.entries.len()
        }

        fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        fn insert(&mut self, seg: Segment) {
            let pos = start_order_pos(&self.entries, seg.span.lo, |e| e.span.lo);
            self.entries.insert(pos, seg);
            self.rebuild_from(pos);
        }

        fn rebuild_from(&mut self, pos: usize) {
            self.max_hi.truncate(pos);
            for i in pos..self.entries.len() {
                let prev = if i == 0 { f64::NEG_INFINITY } else { self.max_hi[i - 1] };
                self.max_hi.push(prev.max(self.entries[i].span.hi));
            }
        }

        /// Removes every segment ending at or before `t`.
        fn expire_before(&mut self, t: f64) {
            let before = self.entries.len();
            self.entries.retain(|e| e.span.hi > t);
            if self.entries.len() != before {
                self.rebuild_from(0);
            }
        }

        /// All segments whose spans overlap `q`, in start order.
        fn overlapping(&self, q: Span) -> Vec<&Segment> {
            let mut out = Vec::new();
            let end = self.entries.partition_point(|e| e.span.lo < q.hi - EPS);
            for i in (0..end).rev() {
                if self.max_hi[i] <= q.lo + EPS {
                    break;
                }
                if self.entries[i].span.overlaps(&q) {
                    out.push(&self.entries[i]);
                }
            }
            out.reverse();
            out
        }

        fn iter(&self) -> impl Iterator<Item = &Segment> {
            self.entries.iter()
        }
    }

    fn zero_seg(key: u64, lo: f64, hi: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::zero())
    }

    #[test]
    fn index_ordered_insert_and_overlap() {
        let mut idx = SegmentIndex::default();
        idx.insert(zero_seg(1, 0.0, 5.0));
        idx.insert(zero_seg(2, 2.0, 3.0));
        idx.insert(zero_seg(3, 6.0, 8.0));
        let hits = idx.overlapping(Span::new(2.5, 6.5));
        let keys: Vec<u64> = hits.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        let hits = idx.overlapping(Span::new(5.5, 5.9));
        assert!(hits.is_empty());
    }

    #[test]
    fn index_out_of_order_insert() {
        let mut idx = SegmentIndex::default();
        idx.insert(zero_seg(2, 4.0, 6.0));
        idx.insert(zero_seg(1, 0.0, 2.0)); // earlier start after a later one
        let keys: Vec<u64> = idx.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(idx.overlapping(Span::new(1.0, 5.0)).len(), 2);
    }

    #[test]
    fn index_long_segment_not_missed_by_pruning() {
        let mut idx = SegmentIndex::default();
        let mut k = KeyedState::default();
        for s in std::iter::once(zero_seg(1, 0.0, 100.0))
            .chain((1..50).map(|i| zero_seg(i + 1, i as f64, i as f64 + 0.5)))
        {
            k.arrive(0, f64::NEG_INFINITY, 0, &s);
            idx.insert(s);
        }
        // Query far to the right: only the long segment overlaps; the
        // augmented max prevents an early stop.
        let q = Span::new(80.0, 80.1);
        let hits = idx.overlapping(q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, 1);
        assert_eq!(probe(&k, 0, 0, q), ids(hits));
    }

    #[test]
    fn index_expiry() {
        let mut idx = SegmentIndex::default();
        idx.insert(zero_seg(1, 0.0, 1.0));
        idx.insert(zero_seg(2, 0.5, 5.0));
        idx.insert(zero_seg(3, 2.0, 3.0));
        idx.expire_before(1.5);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.overlapping(Span::new(0.0, 10.0)).len(), 2);
    }

    /// The reference and the join state's walk both find exactly the
    /// overlapping segments of a random layout.
    #[test]
    fn index_and_walk_match_linear_scan_on_random_layout() {
        let mut idx = SegmentIndex::default();
        let mut k = KeyedState::default();
        let mut all = Vec::new();
        // Deterministic pseudo-random spans (LCG).
        let mut rngf = {
            let mut s = 9876543u64;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            }
        };
        for key in 0..200 {
            let lo = rngf() * 100.0;
            let len = rngf() * 10.0 + 0.01;
            let s = zero_seg(key, lo, lo + len);
            all.push(s.clone());
            k.arrive(0, f64::NEG_INFINITY, 0, &s);
            idx.insert(s);
        }
        for _ in 0..50 {
            let lo = rngf() * 100.0;
            let q = Span::new(lo, lo + rngf() * 5.0 + 0.01);
            let mut want: Vec<u64> =
                all.iter().filter(|s| s.span.overlaps(&q)).map(|s| s.key).collect();
            want.sort_unstable();
            let mut got: Vec<u64> = idx.overlapping(q).iter().map(|s| s.key).collect();
            got.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
            assert_eq!(probe(&k, 0, 0, q), ids(idx.overlapping(q)), "query {q:?}");
        }
    }

    /// The eager reference for join state: one [`SegmentIndex`] per
    /// bucket and side, every bucket expired at every arrival.
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

    /// Checks the lazy state against the reference: the arriving bucket's
    /// sides hold the same segments in the same order, with the same
    /// running maximum ends bit for bit, every side's earliest end is
    /// exact, the stored count is right, and after a sweep every bucket
    /// matches, no bucket is empty and the log is empty. Returns whether a
    /// sweep ran.
    fn assert_keyed_state(lazy: &KeyedState, eager: &EagerKeyed, key: u64) -> bool {
        let matches = |k: u64, what: &str| {
            for side in 0..2 {
                let held = lazy.map.get(&k).map_or(&[][..], |s| &s[side][..]);
                assert_eq!(stored_ids(held), eager.side(k, side), "key {k} side {side} {what}");
                let got: Vec<u64> = held.iter().map(|s| s.max_hi.to_bits()).collect();
                let want: Vec<u64> = eager.0.get(&k).map_or_else(Vec::new, |s| {
                    s[side].max_hi.iter().map(|h| h.to_bits()).collect()
                });
                assert_eq!(got, want, "key {k} side {side} running maximum end {what}");
            }
        };
        matches(key, "");
        assert_eq!(lazy.stored, lazy.map.values().flatten().map(|s| s.len()).sum::<usize>());
        for side in lazy.map.values().flatten() {
            let min = side.iter().map(|s| end(s.seg.span.hi)).fold(f64::INFINITY, f64::min);
            assert_eq!(side.min_hi.to_bits(), min.to_bits(), "earliest end");
        }
        let swept = lazy.log.is_empty();
        if swept {
            assert!(
                lazy.map.values().all(|sides| sides.iter().any(|s| !s.is_empty())),
                "empty key"
            );
            let live = eager.0.iter().filter(|(_, sides)| sides.iter().any(|i| !i.is_empty()));
            assert_eq!(live.clone().count(), lazy.map.len(), "keys after a sweep");
            live.for_each(|(&k, _)| matches(k, "after a sweep"));
        }
        swept
    }

    /// Per-key buckets (`KeyJoin::Eq`) and the single bucket (`Any`, `Ne`)
    /// against the eager reference: the same candidates, in the same order,
    /// at every probe.
    #[test]
    fn keyed_lazy_expiry_matches_eager_reference() {
        for on_keys in [KeyJoin::Eq, KeyJoin::Any, KeyJoin::Ne] {
            lazy_expiry_matches_eager_reference(on_keys);
        }
    }

    fn lazy_expiry_matches_eager_reference(on_keys: KeyJoin) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let (mut probes, mut hits, mut sweeps, mut late) = (0, 0, 0, 0);
        let (mut skips, mut scans) = (0, 0);
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
                    let b = bucket(on_keys, key);
                    let got: Vec<&Segment> =
                        overlapping(lazy.arrive(b, horizon, side, &s), span).collect();
                    eager.arrive(horizon);
                    let want = eager
                        .0
                        .get(&b)
                        .map_or_else(Vec::new, |sides| sides[1 - side].overlapping(span));
                    assert_eq!(got, want, "{on_keys:?}: key {key} probing {span:?}");
                    // Whether the arrival skipped scanning the side it
                    // probed, which it left as it was: the matching probe
                    // shows the skip dropped nothing it should have.
                    let probed = &lazy.map.get(&b).expect("the arrival's bucket")[1 - side];
                    if !probed.is_empty() {
                        match lazy.log.first() {
                            Some(&(_, max)) if probed.min_hi <= max => scans += 1,
                            _ => skips += 1,
                        }
                    }
                    probes += 1;
                    hits += usize::from(!want.is_empty());
                    eager.0.entry(b).or_default()[side].insert(s);
                    sweeps += usize::from(assert_keyed_state(&lazy, &eager, b));
                }
            }
        }
        assert!(hits > probes / 10, "{on_keys:?}: too few probes hit state: {hits} of {probes}");
        assert!(sweeps > 100 && late > 100, "{on_keys:?}: sweeps {sweeps}, late pushes {late}");
        assert!(skips > 100 && scans > 100, "{on_keys:?}: {skips} skipped scans, {scans} scans");
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
        // Probes starting and ending at, just before and just after every
        // stored end point, so both binary searches cut at every edge.
        let mut probes = vec![Span::new(1.0, 2.0), Span::new(-1.0, 0.0), Span::new(3.0, 4.0)];
        for t in spans.iter().flat_map(|s| [s.lo, s.hi]) {
            for d in [-EPS, 0.0, EPS] {
                probes.extend([point(t + d), Span::new(t + d, t + 1.0), Span::new(t - 1.0, t + d)]);
            }
        }
        // Every prefix of the spans, so each one is last (the running
        // maximum end cut-off) in some state.
        for n in 1..=spans.len() {
            let mut k = KeyedState::default();
            let mut idx = SegmentIndex::default();
            for &span in &spans[..n] {
                let s = Segment::single(7, span, Poly::constant(0.0));
                k.arrive(7, f64::NEG_INFINITY, 0, &s);
                idx.insert(s);
            }
            for &q in &probes {
                assert_eq!(probe(&k, 7, 0, q), ids(idx.overlapping(q)), "{n} spans, {q:?}");
            }
        }
    }

    /// `bucket`'s segments on `side` that a probe of `q` finds.
    fn probe(k: &KeyedState, bucket: u64, side: usize, q: Span) -> Vec<SegmentId> {
        ids(overlapping(k.map.get(&bucket).map_or(&[][..], |sides| &sides[side][..]), q))
    }

    #[test]
    fn silent_key_is_freed_by_the_next_sweep() {
        let mut k = KeyedState::default();
        for key in 0..8 {
            k.arrive(key, -1.0, 0, &seg(key, 0.0, 0.5 + key as f64, 0.0, 0.0));
        }
        // Keys 0..4 never arrive again; key 9's arrivals at horizon 4.0
        // leave their dead segments stored until the next sweep, which
        // comes within as many arrivals as there are stored segments.
        let stored = k.stored;
        for n in 1..=stored {
            k.arrive(9, 4.0, 0, &seg(9, 4.5, 5.0, 0.0, 0.0));
            if k.log.is_empty() {
                assert!((0..4).all(|key| !k.map.contains_key(&key)));
                assert_eq!((k.map.len(), k.stored), (5, 4 + n), "{n} arrivals to the sweep");
                return;
            }
            assert!(k.map.contains_key(&0), "key 0 freed before a sweep");
        }
        panic!("no sweep within {stored} arrivals");
    }

    #[test]
    fn key_that_empties_and_returns_keeps_live_segments() {
        let mut k = KeyedState::default();
        let late = |k: &KeyedState| probe(k, 7, 0, Span::new(9.5, 9.6)).len();
        k.arrive(7, -1.0, 0, &seg(7, 0.0, 1.0, 0.0, 0.0));
        k.arrive(7, -1.0, 0, &seg(7, 0.5, 1.0, 0.0, 0.0));
        // An arrival at 1.5 drops both; its own point is all the key holds.
        k.arrive(7, 1.5, 1, &seg(7, 1.5, 1.5, 0.0, 0.0));
        assert_eq!(k.stored, 1);
        // Back with a segment ending later than the old ones: arrivals at
        // the old ends, and at an earlier horizon, must keep it.
        k.arrive(7, 1.5, 0, &seg(7, 2.0, 10.0, 0.0, 0.0));
        for t in [1.0, 1.5, 0.0, 9.0] {
            k.arrive(7, t, 1, &seg(7, t, t, 0.0, 0.0));
            assert_eq!(late(&k), 1, "t={t}");
        }
        k.arrive(7, 10.0, 1, &seg(7, 10.0, 10.0, 0.0, 0.0));
        assert_eq!(late(&k), 0);
        assert_eq!(k.stored, 1, "the last arrival's point alone");
    }

    #[test]
    fn state_sizes_track_stored_segments() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Eq, bindings());
        let mut out = Vec::new();
        for key in 0..8 {
            j.feed(0, &seg(key, 0.0, 0.5, 0.0, 0.0), &mut store, &mut tr, &mut out);
        }
        assert_eq!(j.state_sizes().0, 8);
        // Key 9 arrives past every stored end. The dead segments count
        // until the next sweep frees them and empties the horizon log.
        for n in 1..=8 {
            j.feed(1, &seg(9, 1.6, 2.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
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
        for on_keys in [KeyJoin::Any, KeyJoin::Ne, KeyJoin::Eq] {
            let join = |window| CJoin::new(window, Pred::True, on_keys, bindings());
            let mut out = Vec::new();
            // A NaN horizon (here from a NaN window) drops everything stored.
            let mut j = join(f64::NAN);
            j.feed(0, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            j.feed(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            assert!(out.is_empty(), "{on_keys:?}");
            assert_eq!(j.state_sizes().0, 1, "{on_keys:?}");
            // A NaN end is dropped at its first check.
            let mut j = join(100.0);
            j.feed(0, &nan_hi, &mut store, &mut tr, &mut out);
            j.feed(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
            assert!(out.is_empty(), "{on_keys:?}");
            assert_eq!(j.state_sizes().0, 1, "{on_keys:?}");
            // A NaN start's horizon drops everything too.
            j.feed(0, &nan_lo, &mut store, &mut tr, &mut out);
            assert_eq!(j.state_sizes().0, 1, "{on_keys:?}");
            j.feed(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut store, &mut tr, &mut out);
        }
    }

    #[test]
    fn null_join_records_slack() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        // Overlapping segments, predicate never satisfied: slack is the gap.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::attr_of(1, 0));
        let mut j = CJoin::new(100.0, pred, KeyJoin::Any, bindings());
        let mut out = Vec::new();
        j.feed(0, &seg(1, 0.0, 10.0, 0.0, 0.0), &mut store, &mut tr, &mut out); // x = 0
        j.feed(1, &seg(2, 0.0, 10.0, 3.0, 0.0), &mut store, &mut tr, &mut out); // y = 3
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
                    filter_ref.feed(0, &s, &mut store, &mut tr, &mut pieces);
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
        j.feed(0, &l, &mut store, &mut tr, &mut out);
        j.feed(1, &r, &mut store, &mut tr, &mut out);
        let parents = store.parents_of(out[0].id).to_vec();
        assert_eq!(parents, vec![l.id, r.id]);
    }
}
