//! Query lineage — which input segments caused each output segment.
//!
//! §IV-B: joins and aggregates have no unique inverse from outputs alone,
//! but "we may invert these operators given both the outputs and the inputs
//! that caused them". Properties 1 (temporal sub-ranges) and 2 (keys
//! functionally determine models) guarantee each output segment has a
//! unique causing set; this store records it, plus a snapshot of every
//! segment, so bound inversion can walk from query outputs back to source
//! segments. The paper notes lineage is cheap "due to a segment's
//! compactness", and the layout below keeps it that way:
//!
//! * **One owner, no lock.** Each [`crate::CPlan`] owns its store and lends
//!   it to the [`crate::cops::Emitter`] of one `process` call; a plan runs
//!   on one thread, so nothing is shared. A hybrid runtime's workers and
//!   its merge stage each have a plan, and so a store, of their own.
//! * **One snapshot per segment.** A segment is snapshotted when it enters
//!   the plan (a pushed source segment) or when an operator hands it to
//!   its emitter (an output), never again by the operators that consume
//!   it. A map that is its producer's only consumer is compiled into the
//!   producer, whose emitter projects each output before the snapshot, so
//!   a projected answer is one segment and one snapshot, not two.
//! * **Only what inversion reads.** A snapshot is the span, the parent ids
//!   and — only while the gradient split heuristic may read them — the
//!   models' derivative coefficients. Nothing else of the segment is kept.
//! * **No per-snapshot allocation.** Snapshots are fixed-size records
//!   appended to chunks of `CHUNK` records; parent ids and derivatives go into
//!   per-chunk arenas. Recycled chunks keep their capacity.
//! * **No hashing.** `SegmentId`s come from one increasing counter, so an
//!   id finds its snapshot through a paged offset table.
//! * **Incremental garbage collection.** [`LineageStore::gc_before`] raises
//!   a horizon: a snapshot whose span ends before it is gone from every
//!   lookup at once, and a chunk is recycled whole once its latest span
//!   end falls behind the horizon. Nothing is rebuilt. A chunk lives as
//!   long as its longest span: snapshots of predictions and what derives
//!   from them end within one prediction horizon of being registered, so
//!   memory trails the horizon by at most that much.

use pulse_math::{Poly, Span};
use pulse_model::{Segment, SegmentId};
use std::collections::{HashSet, VecDeque};

/// Snapshots per chunk — the unit of allocation and of reclamation.
const CHUNK: u64 = 1024;
/// Offset-table entries per page.
const PAGE: u64 = 1024;
/// Offset-table entry of an id with no snapshot.
const NONE: u64 = u64::MAX;
/// Recycled chunks kept for reuse.
const SPARE_CHUNKS: usize = 2;

/// One segment's snapshot. The ranges index its chunk's arenas.
#[derive(Debug, Clone, Copy)]
struct Snap {
    id: SegmentId,
    span: Span,
    parents: (u32, u32),
    grads: (u32, u32),
}

#[derive(Debug)]
struct Chunk {
    snaps: Vec<Snap>,
    parents: Vec<SegmentId>,
    /// Per non-constant model: its derivative's coefficient count, then
    /// the coefficients.
    grads: Vec<f64>,
    /// Latest span end held: the chunk is recycled once the horizon
    /// passes it.
    max_hi: f64,
    /// Earliest span end held (NaN counts as −∞), so [`LineageStore::len`]
    /// scans only the chunks the horizon cuts through.
    min_hi: f64,
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            snaps: Vec::with_capacity(CHUNK as usize),
            parents: Vec::new(),
            grads: Vec::new(),
            max_hi: f64::NEG_INFINITY,
            min_hi: f64::INFINITY,
        }
    }

    fn clear(&mut self) {
        self.snaps.clear();
        self.parents.clear();
        self.grads.clear();
        self.max_hi = f64::NEG_INFINITY;
        self.min_hi = f64::INFINITY;
    }

    fn view(&self, slot: usize) -> Snapshot<'_> {
        let s = &self.snaps[slot];
        Snapshot {
            span: s.span,
            parents: &self.parents[s.parents.0 as usize..s.parents.1 as usize],
            grads: &self.grads[s.grads.0 as usize..s.grads.1 as usize],
        }
    }
}

/// One page of the offset table: a sequence number per id, and how many
/// of them are set (the page is freed when that reaches 0).
#[derive(Debug)]
struct Page {
    seqs: Box<[u64]>,
    live: usize,
}

/// A segment as lineage remembers it.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    pub span: Span,
    /// Direct parents (empty for sources).
    pub parents: &'a [SegmentId],
    grads: &'a [f64],
}

impl Snapshot<'_> {
    /// `Σ |x′(t)|` over the segment's models — the gradient split's weight.
    /// 0 when the store was not keeping derivatives.
    pub fn gradient(&self, t: f64) -> f64 {
        let mut rest = self.grads;
        let mut sum = 0.0;
        while let Some((&n, tail)) = rest.split_first() {
            let (coeffs, tail) = tail.split_at(n as usize);
            sum += Poly::eval_coeffs(coeffs, t).abs();
            rest = tail;
        }
        sum
    }
}

/// The lineage graph plus segment snapshots (see the module docs for the
/// layout).
pub struct LineageStore {
    /// Page `i` covers ids from `(first_page + i) * PAGE`; `None` where no
    /// id of the page has a snapshot.
    pages: VecDeque<Option<Page>>,
    first_page: u64,
    /// `chunks[i]` holds the snapshots numbered from
    /// `(first_chunk + i) * CHUNK`; `None` once recycled. The last chunk
    /// takes new snapshots and is never recycled.
    chunks: VecDeque<Option<Chunk>>,
    first_chunk: u64,
    next_seq: u64,
    spare: Vec<Chunk>,
    /// Largest `t` passed to [`Self::gc_before`].
    horizon: f64,
    /// Whether new snapshots keep the models' derivatives.
    gradients: bool,
}

impl Default for LineageStore {
    fn default() -> Self {
        LineageStore {
            pages: VecDeque::new(),
            first_page: 0,
            chunks: VecDeque::new(),
            first_chunk: 0,
            next_seq: 0,
            spare: Vec::new(),
            horizon: f64::NEG_INFINITY,
            gradients: true,
        }
    }
}

impl std::fmt::Debug for LineageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineageStore")
            .field("snapshots", &self.len())
            .field("chunks", &self.chunks.iter().flatten().count())
            .field("pages", &self.pages.iter().flatten().count())
            .field("horizon", &self.horizon)
            .finish()
    }
}

impl LineageStore {
    /// Returns the store itself. A compatibility shim that keeps callers
    /// written for the old mutex-guarded store (`lineage().lock().len()`)
    /// compiling; the replay benchmark is the last one. Delete it once
    /// ROADMAP item 3(b) moves the benchmark to [`crate::CPlan::lineage`].
    #[doc(hidden)]
    pub fn lock(&self) -> &Self {
        self
    }

    /// Whether snapshots registered from now on keep their models'
    /// derivatives. Only [`crate::validate::GradientSplit`] reads them, so
    /// a runtime inverting with the equi-split turns this off. On by
    /// default.
    pub fn set_gradients(&mut self, keep: bool) {
        self.gradients = keep;
    }

    /// Snapshots a segment with no parents (a source). A segment already
    /// held keeps its first snapshot.
    pub fn register(&mut self, seg: &Segment) {
        self.insert(seg, &[]);
    }

    /// Records that `out` was caused by `parents`, replacing any earlier
    /// record. `out` must already be registered; otherwise nothing is
    /// recorded.
    pub fn record(&mut self, out: SegmentId, parents: &[SegmentId]) {
        let Some((c, slot)) = self.locate(out) else { return };
        let chunk = self.chunks[c].as_mut().expect("located chunks are held");
        let start = chunk.parents.len() as u32;
        chunk.parents.extend_from_slice(parents);
        chunk.snaps[slot].parents = (start, chunk.parents.len() as u32);
    }

    /// Snapshots an output together with its parents.
    pub fn emit(&mut self, out: &Segment, parents: &[SegmentId]) {
        self.insert(out, parents);
    }

    /// Direct parents of a segment (empty for sources and for segments
    /// the store does not hold).
    pub fn parents_of(&self, id: SegmentId) -> &[SegmentId] {
        self.snapshot(id).map_or(&[], |s| s.parents)
    }

    /// Snapshot lookup: `None` for ids never registered here and for
    /// snapshots behind the garbage-collection horizon.
    pub fn snapshot(&self, id: SegmentId) -> Option<Snapshot<'_>> {
        let (c, slot) = self.locate(id)?;
        let view = self.chunks[c].as_ref()?.view(slot);
        self.live(view.span.hi).then_some(view)
    }

    /// Whether [`Self::snapshot`] finds `id`.
    pub fn contains(&self, id: SegmentId) -> bool {
        self.snapshot(id).is_some()
    }

    /// Transitive closure down to source segments (those with no recorded
    /// parents), deduplicated. Each node is expanded once — diamond-shaped
    /// lineage (shared ancestors along several paths) stays linear instead
    /// of re-walking the shared subgraph per path.
    pub fn sources_of(&self, id: SegmentId) -> Vec<SegmentId> {
        let mut visited = HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            let ps = self.parents_of(cur);
            if ps.is_empty() {
                out.push(cur);
            } else {
                stack.extend_from_slice(ps);
            }
        }
        out.sort_unstable();
        out
    }

    /// Drops lineage for segments entirely before `t` (state bounding):
    /// from now on no lookup sees a snapshot whose span ends before `t`,
    /// and every chunk holding only such snapshots is recycled. A NaN `t`
    /// is ignored.
    pub fn gc_before(&mut self, t: f64) {
        self.horizon = self.horizon.max(t);
        let open = self.chunks.len().saturating_sub(1);
        for c in 0..open {
            if self.chunks[c].as_ref().is_some_and(|ch| !self.live(ch.max_hi)) {
                let chunk = self.chunks[c].take().expect("checked above");
                self.recycle(chunk);
            }
        }
        while matches!(self.chunks.front(), Some(None)) {
            self.chunks.pop_front();
            self.first_chunk += 1;
        }
        while matches!(self.pages.front(), Some(None)) {
            self.pages.pop_front();
            self.first_page += 1;
        }
        while matches!(self.pages.back(), Some(None)) {
            self.pages.pop_back();
        }
    }

    /// Number of snapshots visible to lookups.
    pub fn len(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .map(|c| {
                if self.live(c.min_hi) {
                    c.snaps.len()
                } else if !self.live(c.max_hi) {
                    0
                } else {
                    c.snaps.iter().filter(|s| self.live(s.span.hi)).count()
                }
            })
            .sum()
    }

    /// True when no snapshot is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the store holds: chunk arenas (spares included), offset
    /// pages and the two queues, by capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let chunk = |c: &Chunk| {
            c.snaps.capacity() * size_of::<Snap>()
                + c.parents.capacity() * size_of::<SegmentId>()
                + c.grads.capacity() * size_of::<f64>()
        };
        let chunks: usize = self.chunks.iter().flatten().chain(&self.spare).map(chunk).sum();
        let pages = self.pages.iter().flatten().count() * PAGE as usize * size_of::<u64>();
        chunks
            + pages
            + self.chunks.capacity() * size_of::<Option<Chunk>>()
            + self.pages.capacity() * size_of::<Option<Page>>()
            + self.spare.capacity() * size_of::<Chunk>()
    }

    /// Whether a snapshot ending at `hi` is in front of the horizon (before
    /// the first collection, every snapshot is).
    fn live(&self, hi: f64) -> bool {
        self.horizon == f64::NEG_INFINITY || hi >= self.horizon
    }

    fn insert(&mut self, seg: &Segment, parents: &[SegmentId]) {
        if self.locate(seg.id).is_some() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.set_entry(seg.id, seq);
        let gradients = self.gradients;
        let chunk = self.open_chunk(seq);
        let p0 = chunk.parents.len() as u32;
        chunk.parents.extend_from_slice(parents);
        let g0 = chunk.grads.len() as u32;
        if gradients {
            for m in &seg.models {
                let at = chunk.grads.len();
                chunk.grads.push(0.0);
                match m.derivative_append(&mut chunk.grads) {
                    0 => {
                        chunk.grads.pop();
                    }
                    n => chunk.grads[at] = n as f64,
                }
            }
        }
        let hi = seg.span.hi;
        chunk.snaps.push(Snap {
            id: seg.id,
            span: seg.span,
            parents: (p0, chunk.parents.len() as u32),
            grads: (g0, chunk.grads.len() as u32),
        });
        chunk.max_hi = chunk.max_hi.max(hi);
        chunk.min_hi = if hi.is_nan() { f64::NEG_INFINITY } else { chunk.min_hi.min(hi) };
    }

    /// The chunk that takes snapshot number `seq` (always the last one, or
    /// a new one after it).
    fn open_chunk(&mut self, seq: u64) -> &mut Chunk {
        let c = (seq / CHUNK - self.first_chunk) as usize;
        if c == self.chunks.len() {
            let fresh = self.spare.pop().unwrap_or_else(Chunk::new);
            self.chunks.push_back(Some(fresh));
        }
        self.chunks[c].as_mut().expect("the open chunk is never recycled")
    }

    /// Chunk index and slot of `id`'s snapshot, expired or not.
    fn locate(&self, id: SegmentId) -> Option<(usize, usize)> {
        let p = usize::try_from((id.0 / PAGE).checked_sub(self.first_page)?).ok()?;
        let seq = self.pages.get(p)?.as_ref()?.seqs[(id.0 % PAGE) as usize];
        if seq == NONE {
            return None;
        }
        // Entries of recycled chunks are cleared, so the chunk is held.
        Some(((seq / CHUNK - self.first_chunk) as usize, (seq % CHUNK) as usize))
    }

    fn set_entry(&mut self, id: SegmentId, seq: u64) {
        let p = id.0 / PAGE;
        if self.pages.is_empty() {
            self.first_page = p;
        }
        while p < self.first_page {
            self.pages.push_front(None);
            self.first_page -= 1;
        }
        let i = (p - self.first_page) as usize;
        if i >= self.pages.len() {
            self.pages.resize_with(i + 1, || None);
        }
        let page = self.pages[i]
            .get_or_insert_with(|| Page { seqs: vec![NONE; PAGE as usize].into(), live: 0 });
        let entry = &mut page.seqs[(id.0 % PAGE) as usize];
        if *entry == NONE {
            page.live += 1;
        }
        *entry = seq;
    }

    /// Clears the offset-table entries of a chunk's snapshots and keeps
    /// the chunk's buffers for reuse.
    fn recycle(&mut self, mut chunk: Chunk) {
        for s in &chunk.snaps {
            let i = (s.id.0 / PAGE - self.first_page) as usize;
            let slot = &mut self.pages[i];
            let page = slot.as_mut().expect("a held snapshot's page is held");
            page.seqs[(s.id.0 % PAGE) as usize] = NONE;
            page.live -= 1;
            if page.live == 0 {
                *slot = None;
            }
        }
        if self.spare.len() < SPARE_CHUNKS {
            chunk.clear();
            self.spare.push(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    fn seg(lo: f64, hi: f64) -> Segment {
        Segment::single(1, Span::new(lo, hi), Poly::zero())
    }

    #[test]
    fn record_and_walk() {
        let mut store = LineageStore::default();
        let (a, b) = (seg(0.0, 1.0), seg(0.0, 1.0));
        let mid = seg(0.2, 0.8);
        let out = seg(0.3, 0.6);
        for s in [&a, &b, &mid, &out] {
            store.register(s);
        }
        store.record(mid.id, &[a.id, b.id]);
        store.record(out.id, &[mid.id]);
        assert_eq!(store.parents_of(out.id), &[mid.id]);
        assert_eq!(store.sources_of(out.id), {
            let mut v = vec![a.id, b.id];
            v.sort();
            v
        });
        // A source is its own source-set.
        assert_eq!(store.sources_of(a.id), vec![a.id]);
    }

    #[test]
    fn gc_drops_expired() {
        let mut store = LineageStore::default();
        let old = seg(0.0, 1.0);
        let new = seg(5.0, 6.0);
        store.register(&old);
        store.register(&new);
        store.record(new.id, &[old.id]);
        store.gc_before(2.0);
        assert!(store.snapshot(old.id).is_none());
        assert!(store.snapshot(new.id).is_some());
        assert_eq!(store.len(), 1);
        // The parent list outlives the parent: inversion skips it.
        assert_eq!(store.parents_of(new.id), &[old.id]);
        assert!(store.parents_of(old.id).is_empty());
    }

    #[test]
    fn each_segment_is_snapshotted_once() {
        let mut store = LineageStore::default();
        let src = seg(0.0, 1.0);
        let out = seg(0.0, 1.0);
        store.register(&src);
        store.emit(&out, &[src.id]);
        // Consumers registering the same segments again change nothing.
        store.register(&src);
        store.register(&out);
        assert_eq!(store.len(), 2);
        assert_eq!(store.parents_of(out.id), &[src.id]);
        assert_eq!(store.next_seq, 2);
    }

    #[test]
    fn out_of_order_and_sparse_ids() {
        let mut store = LineageStore::default();
        let segs: Vec<Segment> = (0..5000).map(|i| seg(i as f64, i as f64 + 1.0)).collect();
        // Every third id only, newest first: the table grows at both ends
        // and leaves holes for ids registered elsewhere.
        for s in segs.iter().step_by(3).rev() {
            store.register(s);
        }
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(store.contains(s.id), i % 3 == 0, "id {i}");
        }
        assert_eq!(store.len(), segs.len().div_ceil(3));
    }

    #[test]
    fn chunks_are_recycled_and_pages_freed() {
        let mut store = LineageStore::default();
        for i in 0..10 * CHUNK {
            store.register(&seg(i as f64, i as f64 + 1.0));
        }
        let held = |s: &LineageStore| s.chunks.iter().flatten().count();
        assert_eq!(held(&store), 10);
        store.gc_before(5.0 * CHUNK as f64 + 1.0);
        // The first five chunks end before the horizon.
        assert_eq!(held(&store), 5);
        assert_eq!(store.first_chunk, 5);
        assert_eq!(store.len(), 5 * CHUNK as usize);
        store.gc_before(1e8);
        assert!(store.is_empty());
        // The open chunk stays, and only its ids keep offset-table entries.
        assert_eq!(held(&store), 1);
        assert_eq!(store.pages.iter().flatten().map(|p| p.live).sum::<usize>(), CHUNK as usize);
        // Recycled buffers serve new snapshots.
        let s = Segment::single(1, Span::new(1e9, 1e9 + 1.0), Poly::linear(0.0, 2.0));
        store.register(&s);
        assert_eq!(store.snapshot(s.id).map(|v| v.span), Some(s.span));
    }

    #[test]
    fn an_unexpired_snapshot_pins_only_its_chunk() {
        let mut store = LineageStore::default();
        let long = seg(0.0, 1e9);
        store.register(&long);
        let mut ids = Vec::new();
        for i in 0..4 * CHUNK {
            let s = seg(i as f64, i as f64 + 1.0);
            store.register(&s);
            ids.push(s.id);
        }
        store.gc_before(4.0 * CHUNK as f64);
        assert!(store.contains(long.id));
        assert!(ids[..ids.len() - 1].iter().all(|&id| !store.contains(id)));
        // Chunk 0 (pinned) and the open chunk remain.
        assert_eq!(store.chunks.iter().flatten().count(), 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn a_snapshot_costs_tens_of_bytes() {
        let mut store = LineageStore::default();
        store.set_gradients(false);
        let mut prev = None;
        for i in 0..20 * CHUNK {
            let s = Segment::new(
                i % 100,
                Span::new(i as f64, i as f64 + 5.0),
                vec![Poly::linear(1.0, 0.5); 3],
                vec![1.0, 2.0],
            );
            store.emit(&s, prev.as_slice());
            prev = Some(s.id);
        }
        // 40-byte record + one parent + an offset entry, plus arena slack.
        let per = store.heap_bytes() / store.len();
        assert!(per <= 80, "{per} bytes per snapshot");
    }

    #[test]
    fn gradient_matches_the_segment_models() {
        let mut store = LineageStore::default();
        let models =
            vec![Poly::new(vec![1.0, -2.0, 0.5]), Poly::constant(3.0), Poly::linear(0.0, 4.0)];
        let s = Segment::new(1, Span::new(0.0, 10.0), models, vec![7.0]);
        store.register(&s);
        let snap = store.snapshot(s.id).unwrap();
        for t in [0.0, 1.5, 9.25] {
            let want: f64 = s.models.iter().map(|m| m.derivative().eval(t).abs()).sum();
            assert_eq!(snap.gradient(t).to_bits(), want.to_bits(), "t={t}");
        }
        store.set_gradients(false);
        let bare = Segment::single(2, Span::new(0.0, 1.0), Poly::linear(0.0, 1.0));
        store.register(&bare);
        assert_eq!(store.snapshot(bare.id).unwrap().gradient(0.5), 0.0);
    }

    /// The store against the obvious model — a map of segments plus a map
    /// of parents, rebuilt by every collection — over a random mix of
    /// registrations, records and collections.
    #[test]
    fn matches_a_hash_map_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut store = LineageStore::default();
        let mut snaps: HashMap<SegmentId, Span> = HashMap::new();
        let mut parents: HashMap<SegmentId, Vec<SegmentId>> = HashMap::new();
        let mut made: Vec<Segment> = Vec::new();
        let mut now = 0.0;
        for step in 0..20_000 {
            now += 0.01;
            match next(10) {
                0..=5 => {
                    let lo = now - next(100) as f64 * 0.01;
                    made.push(seg(lo, lo + 0.01 * (1 + next(300)) as f64));
                    // Register a recent segment, not always the newest.
                    let back = (next(4) as usize).min(made.len() - 1);
                    let s = &made[made.len() - 1 - back];
                    let ps: Vec<SegmentId> = (0..next(4))
                        .map(|_| made[made.len() - 1 - (next(50) as usize).min(made.len() - 1)].id)
                        .collect();
                    // Recent segments are never behind the horizon, so the
                    // model holds one exactly when the store does.
                    if let Entry::Vacant(e) = snaps.entry(s.id) {
                        e.insert(s.span);
                        parents.insert(s.id, ps.clone());
                    }
                    store.emit(s, &ps);
                }
                6..=8 => {
                    let s = &made[next(made.len() as u64) as usize];
                    let ps = vec![made[next(made.len() as u64) as usize].id];
                    if snaps.contains_key(&s.id) {
                        parents.insert(s.id, ps.clone());
                    }
                    store.record(s.id, &ps);
                }
                _ if step % 7 == 0 => {
                    let t = now - 1.0;
                    snaps.retain(|_, span| span.hi >= t);
                    parents.retain(|id, _| snaps.contains_key(id));
                    store.gc_before(t);
                }
                _ => {}
            }
        }
        assert_eq!(store.len(), snaps.len());
        for s in &made {
            assert_eq!(store.snapshot(s.id).map(|v| v.span), snaps.get(&s.id).copied());
            let want = parents.get(&s.id).map_or(&[][..], Vec::as_slice);
            assert_eq!(store.parents_of(s.id), want);
        }
    }
}
