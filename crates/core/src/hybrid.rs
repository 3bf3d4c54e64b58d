//! The parallel executor: key-partitioned worker threads, plus a serial
//! merge stage when the plan has one.
//!
//! [`HybridRuntime`] hash-partitions stream keys across N worker threads.
//! Each worker owns one [`PulseRuntime`] **per branch** — full predictive
//! runtimes (models, validator, lineage) over the keys the hash assigns
//! it. That is sound only while no operator mixes keys (§II-B), so branch
//! plans are key-partitionable, and each worker batches its solves
//! through the deferred-solve queue ([`PulseRuntime::batchable`]). A
//! worker's join and aggregate state holds only its own keys, so
//! candidate scans shrink with the shard count even on one core.
//!
//! * A key-partitionable [`LogicalPlan`] ([`HybridRuntime::partitioned`])
//!   is one branch and no merge stage: no drains are sent, and each worker
//!   keeps its result segments until [`HybridRuntime::finish`].
//! * A partition-rewritten [`HybridPlan`] ([`HybridRuntime::new`], from
//!   [`pulse_stream::partition_rewrite`]) adds a merge stage: a bare
//!   [`CPlan`] on the router thread that consumes the branches' result
//!   segments — the sparse, already-validated model stream — so it needs
//!   no validator; the accuracy contract is enforced at the branch sinks.
//!
//! Tuples travel in batches over bounded channels (backpressure), and a
//! worker handles its channel in FIFO order. Merge inputs are
//! synchronized every [`HybridRuntime::SYNC_EVERY`] routed tuples and at
//! finish. Sync point *k* asks every worker for the result segments of
//! the tuples routed since sync point *k − 1* (drain *k*), then merges
//! drain *k − 1* in a canonical order (segment start time, then branch,
//! then key): the merge stage runs one window behind the workers, so
//! neither side idles while the other runs, at the price of one window of
//! latency. FIFO order makes drain *k* exactly the outputs of the tuples
//! routed before sync point *k*, and per-key segment content does not
//! depend on the shard count, so the merge outputs are identical at any
//! shard count.
//!
//! Provenance, flight-recorder rings and guarantee-audit ledgers are
//! answered by the worker that owns the key, across all of its branch
//! runtimes. A worker that panics closes its channels; the router's next
//! send to or receive from it resumes the worker's own panic.

use crate::plan::{CPlan, TransformError};
use crate::runtime::{Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
use crate::validate::ValidatorStats;
use pulse_model::{Segment, Tuple};
use pulse_obs::{AuditLedger, ExplainReport, PhaseTable, TraceEvent, Tracer};
use pulse_stream::{HybridPlan, LogicalPlan, OpMetrics, PartitionViolation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuples per channel message. Large enough that the per-message
/// synchronization and allocation cost vanishes against per-tuple work,
/// small enough that batches stay cache-resident and backpressure stays
/// responsive.
pub const DEFAULT_BATCH: usize = 256;

/// Batches in flight per worker before `send` blocks (bounded
/// backpressure).
const CHANNEL_DEPTH: usize = 4;

/// Why a parallel runtime could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The plan mixes keys inside an operator and cannot be partitioned;
    /// run it single-threaded, or through the partition rewrite, instead.
    NotPartitionable(PartitionViolation),
    /// The plan failed the continuous transform (would fail single-threaded
    /// too); surfaced here so workers never panic on compile.
    Transform(TransformError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotPartitionable(v) => {
                write!(f, "plan is not key-partitionable: {v}")
            }
            ShardError::Transform(e) => write!(f, "continuous transform failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<TransformError> for ShardError {
    fn from(e: TransformError) -> Self {
        ShardError::Transform(e)
    }
}

/// Finalizer from splitmix64: avalanches low-entropy keys (sequential
/// symbol ids, packed pair keys) so `% shards` balances the load. The
/// shadow auditor reuses it for 1-in-N key sampling, so the audited
/// subset is the same deterministic set on every worker and every run.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One worker's drain reply: its branch-tagged result segments since the
/// previous drain, in emission order.
type Drained = Vec<(usize, Segment)>;

/// Work sent to a worker.
enum Msg {
    /// `(slot, tuple)` pairs, all keys owned by this worker. A slot names
    /// a `(branch, local_source)` pair; with one branch it is the plan's
    /// own source index.
    Batch(Vec<(usize, Tuple)>),
    /// Hand back every result segment produced since the last drain,
    /// tagged with its branch, in emission order.
    Drain(SyncSender<Drained>),
    /// Garbage-collect lineage older than `t` in every branch runtime.
    Gc(f64),
    /// Answer a provenance query. A recorder ring is single-writer, so
    /// queries run on the owning thread and answer over a reply channel.
    Explain { key: u64, t0: f64, t1: f64, reply: SyncSender<ExplainReport> },
    /// Copy the flight-recorder rings back (the `/trace.json` path).
    Trace(SyncSender<Vec<TraceEvent>>),
    /// Copy the guarantee-audit ledgers back (the `/audit` path).
    Audit(SyncSender<AuditLedger>),
    /// Publish every branch runtime's counters (live scrape support).
    Export,
    /// Stop the worker loop even though sender clones (an
    /// [`ExplainHandle`]) may still be alive.
    Shutdown,
}

/// End-of-run totals: every worker's counters and audit ledgers, plus the
/// merge stage's operator counters and outputs.
#[derive(Debug, Default)]
pub struct HybridRun {
    /// Summed runtime counters of every branch runtime (the merge stage
    /// consumes segments, not tuples: its counters land in `metrics`).
    pub stats: RuntimeStats,
    pub validator: ValidatorStats,
    /// Every branch's continuous-operator counters plus the merge stage's.
    pub metrics: OpMetrics,
    /// Summed violation-path phase attribution (empty unless the profiler
    /// was enabled, see [`pulse_obs::set_prof_enabled`]).
    pub phases: PhaseTable,
    /// Every branch runtime's guarantee ledger, merged (empty unless
    /// [`RuntimeConfig::audit_rate`] was non-zero).
    pub audit: AuditLedger,
    /// The sink outputs. With a merge stage, its outputs in canonical
    /// merge order; without one, every worker's outputs concatenated
    /// worker by worker (order across workers is not meaningful; per-key
    /// order is preserved).
    pub outputs: Vec<Segment>,
}

impl HybridRun {
    fn absorb(&mut self, other: HybridRun) {
        self.stats.absorb(&other.stats);
        self.validator.absorb(&other.validator);
        self.metrics.absorb(&other.metrics);
        self.phases.absorb(&other.phases);
        self.audit.absorb(&other.audit);
        self.outputs.extend(other.outputs);
    }
}

/// A worker's queue depth: batches in flight, counted up by the router
/// before `send` and down by the worker on receipt (the channel exposes no
/// `len()`). With obs on it is mirrored into the
/// `shard.queue_depth{shard="i"}` gauge behind the `/health`
/// `queue_saturated` rule.
struct Depth {
    batches: AtomicU64,
    gauge: Option<pulse_obs::Counter>,
}

impl Depth {
    fn show(&self, batches: u64) {
        if let Some(g) = &self.gauge {
            g.set(batches);
        }
    }
}

/// The serial merge stage of a partition-rewritten plan.
struct Merge {
    suffix: CPlan,
    /// `wiring[suffix_source] = branch` (from the rewrite).
    wiring: Vec<usize>,
    /// Merge-stage sink outputs accumulated across sync points.
    outputs: Vec<Segment>,
}

/// Key-partitioned worker runtimes, feeding a serial merge-stage
/// [`CPlan`] at deterministic sync points when the plan has one.
pub struct HybridRuntime {
    txs: Vec<SyncSender<Msg>>,
    handles: Vec<JoinHandle<HybridRun>>,
    /// Per-worker batch under construction.
    pending: Vec<Vec<(usize, Tuple)>>,
    batch: usize,
    /// `feeds[original_source]` = every slot that consumes it (a source
    /// shared by two branches fans out).
    feeds: Vec<Vec<usize>>,
    /// `None` for a key-partitionable plan: no drains, no sync points.
    merge: Option<Merge>,
    /// Routed tuples between merge synchronizations.
    sync_every: usize,
    since_sync: usize,
    /// Per-worker replies to the last sync point's drain, not merged yet
    /// (empty before the first sync and after [`Self::settle`]).
    inflight: Vec<Receiver<Drained>>,
    depths: Vec<Arc<Depth>>,
    /// Time the router spent blocked in `send` (backpressure stalls).
    send_wait: Option<pulse_obs::Histogram>,
}

impl std::fmt::Debug for HybridRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridRuntime")
            .field("shards", &self.handles.len())
            .field("merge_stage", &self.merge.is_some())
            .finish_non_exhaustive()
    }
}

impl HybridRuntime {
    /// Default merge synchronization interval, in routed tuples. The
    /// merge of one window overlaps the workers' processing of the next,
    /// so merge-stage state lags the branches by up to two windows: small
    /// enough to keep that lag short, large enough to amortize the drain
    /// round-trip.
    pub const SYNC_EVERY: usize = 1024;

    /// Runs a key-partitionable plan on `shards` workers, one runtime
    /// each, with no merge stage.
    ///
    /// Fails fast — before spawning anything — if the plan mixes keys
    /// ([`ShardError::NotPartitionable`]) or does not transform
    /// ([`ShardError::Transform`]).
    pub fn partitioned(
        predictors: Vec<Predictor>,
        logical: &LogicalPlan,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        assert_eq!(predictors.len(), logical.sources.len(), "one predictor per source");
        if let Some(v) = logical.key_partition_violation() {
            return Err(ShardError::NotPartitionable(v));
        }
        // Compile once here so the per-worker compiles cannot fail.
        CPlan::compile(logical)?;
        let sources: Vec<usize> = (0..logical.sources.len()).collect();
        Ok(Self::start(predictors, &[(&sources, logical)], None, cfg, shards))
    }

    /// Builds `shards` prefix workers (each owning one runtime per branch)
    /// and compiles the merge stage. Fails fast — before spawning — if any
    /// piece of the rewritten plan does not transform.
    pub fn new(
        predictors: Vec<Predictor>,
        hp: &HybridPlan,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        for b in &hp.branches {
            assert!(
                b.plan.is_key_partitionable(),
                "partition rewrite must produce partitionable branches"
            );
            // Compile once here so the per-worker compiles cannot fail.
            CPlan::compile(&b.plan)?;
        }
        let mut suffix = CPlan::compile(&hp.suffix)?;
        // The merge stage inverts no bounds: its lineage needs no models.
        suffix.lineage_mut().set_gradients(false);
        let n_sources = hp.branches.iter().flat_map(|b| &b.sources).max().map_or(0, |&s| s + 1);
        assert_eq!(predictors.len(), n_sources, "one predictor per original source");
        let branches: Vec<_> = hp.branches.iter().map(|b| (&b.sources[..], &b.plan)).collect();
        let merge = Merge { suffix, wiring: hp.wiring.clone(), outputs: Vec::new() };
        Ok(Self::start(predictors, &branches, Some(merge), cfg, shards))
    }

    /// Spawns the workers. `branches` holds each branch's original source
    /// indices and its (compiled-before) plan.
    fn start(
        predictors: Vec<Predictor>,
        branches: &[(&[usize], &LogicalPlan)],
        merge: Option<Merge>,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Self {
        assert!(shards >= 1, "need at least one shard");
        // Slots number the `(branch, local_source)` pairs branch-major, so
        // a single branch's slots are its own source indices.
        let mut feeds = vec![Vec::new(); predictors.len()];
        for (slot, &orig) in branches.iter().flat_map(|(sources, _)| sources.iter()).enumerate() {
            feeds[orig].push(slot);
        }
        let obs_on = pulse_obs::enabled();
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = sync_channel::<Msg>(CHANNEL_DEPTH);
            let plans: Vec<(Vec<Predictor>, LogicalPlan)> = branches
                .iter()
                .map(|&(sources, lp)| {
                    (sources.iter().map(|&o| predictors[o].clone()).collect(), lp.clone())
                })
                .collect();
            let cfg = cfg.clone();
            let gauge = obs_on.then(|| {
                pulse_obs::global()
                    .counter(&pulse_obs::labeled("shard.queue_depth", &[("shard", &i.to_string())]))
            });
            let depth = Arc::new(Depth { batches: AtomicU64::new(0), gauge });
            depths.push(Arc::clone(&depth));
            let handle = std::thread::Builder::new()
                .name(format!("pulse-shard-{i}"))
                .spawn(move || {
                    let slots: Vec<(usize, usize)> = (plans.iter().enumerate())
                        .flat_map(|(b, (preds, _))| (0..preds.len()).map(move |local| (b, local)))
                        .collect();
                    let rts = plans
                        .into_iter()
                        .map(|(preds, lp)| {
                            PulseRuntime::with_predictors(preds, &lp, cfg.clone())
                                .expect("plan compiled before spawn")
                        })
                        .collect();
                    work(rx, rts, &slots, &depth, i)
                })
                .expect("spawn shard worker");
            txs.push(tx);
            handles.push(handle);
        }
        HybridRuntime {
            txs,
            handles,
            pending: vec![Vec::new(); shards],
            batch: DEFAULT_BATCH,
            feeds,
            merge,
            sync_every: Self::SYNC_EVERY,
            since_sync: 0,
            inflight: Vec::new(),
            depths,
            send_wait: obs_on.then(|| pulse_obs::global().histogram("shard.send_wait_ns")),
        }
    }

    /// Overrides the tuples-per-message batch size (tests use 1 to
    /// exercise the channel per tuple).
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Overrides the merge synchronization interval. Results are
    /// independent of the interval; it only trades merge latency (a
    /// window is merged at the next sync point, one window behind)
    /// against drain round-trips. Without a merge stage there are no sync
    /// points.
    pub fn set_sync_every(&mut self, every: usize) {
        self.sync_every = every.max(1);
    }

    /// Which worker owns a key.
    pub fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.txs.len() as u64) as usize
    }

    /// Routes one tuple to its key's worker, fanning out to every branch
    /// that consumes `source`. Batches internally; the send blocks
    /// (backpressure) when the worker is `CHANNEL_DEPTH` batches behind.
    /// Result segments surface at [`Self::finish`].
    pub fn on_tuple(&mut self, source: usize, tuple: &Tuple) {
        let s = self.shard_of(tuple.key);
        for &slot in &self.feeds[source] {
            self.pending[s].push((slot, tuple.clone()));
        }
        if self.pending[s].len() >= self.batch {
            self.flush(s);
        }
        if self.merge.is_some() {
            self.since_sync += 1;
            if self.since_sync >= self.sync_every {
                self.sync();
            }
        }
    }

    /// Garbage-collects lineage older than `t` in every branch runtime
    /// and in the merge stage. Flushes pending batches first so GC stays
    /// ordered, and merges the in-flight drain first, so the merge stage's
    /// lineage holds every synchronized window before it is collected.
    pub fn gc_before(&mut self, t: f64) {
        for s in 0..self.txs.len() {
            self.flush(s);
            self.send(s, Msg::Gc(t));
        }
        self.settle();
        if let Some(m) = &mut self.merge {
            m.suffix.lineage_mut().gc_before(t);
        }
    }

    /// Publishes every worker's counters (labeled by shard, and by branch
    /// when there are several) plus the merge stage's (labeled
    /// `stage="merge"`) for live scraping, after flushing every pending
    /// batch and merging the in-flight drain. Each worker exports when it
    /// reaches the message, so a scrape racing the export may see the
    /// previous publication.
    ///
    /// Doubles as the collector tick of the telemetry-history layer: one
    /// sample of every global-registry metric lands in the time-series
    /// store per call, taken router-side — one tick stale for workers
    /// still draining.
    pub fn publish_metrics(&mut self) {
        for s in 0..self.txs.len() {
            self.flush(s);
            self.send(s, Msg::Export);
        }
        self.settle();
        if pulse_obs::enabled() {
            if let Some(m) = &self.merge {
                m.suffix.export_metrics(pulse_obs::global(), &[("stage", "merge")]);
            }
            pulse_obs::timeseries::store().sample(&pulse_obs::global().snapshot());
        }
    }

    /// Asks the worker owning `key` to explain its outputs over
    /// `[t0, t1]` (every branch's solves, branch by branch) and blocks for
    /// the report. The worker's pending batch is flushed first so its
    /// flight recorders have seen every tuple routed before the call.
    pub fn explain(&mut self, key: u64, t0: f64, t1: f64) -> ExplainReport {
        let s = self.shard_of(key);
        self.flush(s);
        match ask(&self.txs[s], |reply| Msg::Explain { key, t0, t1, reply }) {
            Some(report) => report,
            None => self.worker_died(s),
        }
    }

    /// Copies every worker's flight-recorder rings: `(shard, events)`
    /// pairs, each worker's branches concatenated, events oldest first.
    /// Flushes pending batches first so the rings have seen every tuple
    /// routed before the call. Empty rings (tracing off) come back empty
    /// rather than being skipped.
    pub fn trace_events(&mut self) -> Vec<(u32, Vec<TraceEvent>)> {
        (0..self.txs.len())
            .map(|s| {
                self.flush(s);
                match ask(&self.txs[s], Msg::Trace) {
                    Some(events) => (s as u32, events),
                    None => self.worker_died(s),
                }
            })
            .collect()
    }

    /// A cloneable handle other threads (e.g. the HTTP serving surface)
    /// can use to answer explain, trace and audit queries while this
    /// runtime keeps ingesting. Answers reflect state as of the last
    /// flushed batch — tuples still pending in the router are not yet
    /// visible.
    pub fn explain_handle(&self) -> ExplainHandle {
        ExplainHandle { txs: self.txs.clone() }
    }

    /// Batches currently in flight to `shard` (router-side count; the
    /// worker decrements as it drains). Saturates at `CHANNEL_DEPTH` + 1
    /// — one batch may sit counted while the router blocks in `send`.
    pub fn queue_depth(&self, shard: usize) -> u64 {
        self.depths[shard].batches.load(Ordering::Relaxed)
    }

    fn flush(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending[shard]);
        // Count the batch before the (possibly blocking) send so a stalled
        // router reads as a full queue, not an idle one.
        let depth = &self.depths[shard];
        depth.show(depth.batches.fetch_add(1, Ordering::Relaxed) + 1);
        let waited = self.send_wait.is_some().then(std::time::Instant::now);
        self.send(shard, Msg::Batch(batch));
        if let (Some(t0), Some(h)) = (waited, &self.send_wait) {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Sends `msg` to worker `shard`, re-raising its panic if it died.
    fn send(&mut self, shard: usize, msg: Msg) {
        if self.txs[shard].send(msg).is_err() {
            self.worker_died(shard);
        }
    }

    /// Re-raises worker `shard`'s panic on the calling thread. A channel
    /// to a worker fails only once the worker's thread is unwinding (its
    /// receiver, and with it every queued message, is dropped), so the
    /// join returns promptly.
    #[cold]
    fn worker_died(&mut self, shard: usize) -> ! {
        match self.handles.remove(shard).join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(_) => panic!("shard worker {shard} stopped before shutdown"),
        }
    }

    /// A merge synchronization point: flushes every worker and requests
    /// its drain, then merges the drain requested at the previous sync
    /// point while the workers process this one's window.
    fn sync(&mut self) {
        self.since_sync = 0;
        let mut requested = Vec::with_capacity(self.txs.len());
        for s in 0..self.txs.len() {
            self.flush(s);
            let (reply_tx, reply_rx) = sync_channel(1);
            self.send(s, Msg::Drain(reply_tx));
            requested.push(reply_rx);
        }
        self.settle();
        self.inflight = requested;
    }

    /// Merges the in-flight drain, if any: feeds the tagged segments to the
    /// merge plan in canonical order — `(span.lo, branch, key)`, ties left
    /// in worker emission order (ties share a key, and a key lives on one
    /// worker, so the order is deterministic and independent of shard
    /// count).
    fn settle(&mut self) {
        if self.inflight.is_empty() {
            return;
        }
        let mut merged: Drained = Vec::new();
        for (s, rx) in std::mem::take(&mut self.inflight).into_iter().enumerate() {
            match rx.recv() {
                Ok(drained) => merged.extend(drained),
                Err(_) => self.worker_died(s),
            }
        }
        merged.sort_by(|a, b| {
            a.1.span.lo.total_cmp(&b.1.span.lo).then(a.0.cmp(&b.0)).then(a.1.key.cmp(&b.1.key))
        });
        let m = self.merge.as_mut().expect("drains are requested only with a merge stage");
        for (branch, seg) in merged {
            // A self-join wires one branch to both merge sources; feed
            // them in ascending source order, like the unrewritten plan's
            // own fan-out would.
            for (src, &b) in m.wiring.iter().enumerate() {
                if b == branch {
                    m.suffix.push_traced(src, &seg, &mut Tracer::off(), &mut m.outputs);
                }
            }
        }
    }

    /// Ends the stream: final merge synchronization (or, with no merge
    /// stage, a final flush), worker shutdown and join, merge-stage flush,
    /// and counter roll-up. A worker that panicked has its panic resumed
    /// here.
    pub fn finish(mut self) -> HybridRun {
        if self.merge.is_some() {
            self.sync();
            self.settle();
        }
        for s in 0..self.txs.len() {
            self.flush(s);
            // An explicit stop rather than relying on channel close:
            // cloned [`ExplainHandle`]s may outlive this runtime and would
            // otherwise hold the channel open forever.
            self.send(s, Msg::Shutdown);
        }
        self.txs.clear();
        let mut run = HybridRun::default();
        for h in self.handles.drain(..) {
            run.absorb(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        if let Some(m) = self.merge.take() {
            // Every worker's buffer went to the final drain: the workers
            // returned no outputs.
            run.metrics.absorb(&m.suffix.metrics());
            run.outputs = m.outputs;
        }
        run
    }
}

/// A worker thread: handles its inbox in FIFO order until `Shutdown` (or
/// until every sender is gone), then rolls its branch runtimes up.
fn work(
    rx: Receiver<Msg>,
    mut rts: Vec<PulseRuntime>,
    slots: &[(usize, usize)],
    depth: &Depth,
    shard: usize,
) -> HybridRun {
    // Branch-tagged result segments since the last drain (with no merge
    // stage, since the start: they go back at the end).
    let mut buffer: Drained = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(batch) => {
                depth.show(depth.batches.fetch_sub(1, Ordering::Relaxed) - 1);
                if let [rt] = rts.as_mut_slice() {
                    // One branch: its slots are its own source indices.
                    buffer.extend(rt.on_pairs(&batch).into_iter().map(|s| (0, s)));
                } else {
                    let mut per: Vec<Vec<(usize, Tuple)>> = vec![Vec::new(); rts.len()];
                    for (slot, t) in batch {
                        let (b, local) = slots[slot];
                        per[b].push((local, t));
                    }
                    for (b, pairs) in per.into_iter().enumerate() {
                        if !pairs.is_empty() {
                            buffer.extend(rts[b].on_pairs(&pairs).into_iter().map(|s| (b, s)));
                        }
                    }
                }
            }
            // A dead reply slot (a querier that gave up, an unwinding
            // router) is ignored.
            Msg::Drain(reply) => {
                let _ = reply.send(std::mem::take(&mut buffer));
            }
            Msg::Gc(t) => rts.iter_mut().for_each(|rt| rt.gc_before(t)),
            Msg::Explain { key, t0, t1, reply } => {
                let mut report = rts[0].explain(key, t0, t1);
                for rt in &rts[1..] {
                    report.solves.extend(rt.explain(key, t0, t1).solves);
                }
                let _ = reply.send(report);
            }
            Msg::Trace(reply) => {
                let _ = reply.send(rts.iter().flat_map(|rt| rt.trace_events()).collect());
            }
            Msg::Audit(reply) => {
                let _ = reply.send(ledger(&rts));
            }
            Msg::Export => export_worker(&rts, shard),
            Msg::Shutdown => break,
        }
    }
    export_worker(&rts, shard);
    // Done draining: pin the gauge at zero so a post-run health scrape
    // sees an idle queue, not the last in-flight count.
    depth.show(0);
    let mut run = HybridRun {
        audit: ledger(&rts),
        outputs: buffer.into_iter().map(|(_, s)| s).collect(),
        ..Default::default()
    };
    for rt in &rts {
        run.stats.absorb(&rt.stats());
        run.validator.absorb(&rt.validator().stats());
        run.metrics.absorb(&rt.plan().metrics());
        run.phases.absorb(rt.phases());
    }
    run
}

/// Every branch runtime's guarantee ledger, merged.
fn ledger(rts: &[PulseRuntime]) -> AuditLedger {
    let mut merged = AuditLedger::default();
    for a in rts.iter().filter_map(PulseRuntime::audit_ledger) {
        merged.absorb(a);
    }
    merged
}

/// Per-worker live export: every branch runtime's counters under a
/// `shard` label, plus a `branch` label when there are several.
fn export_worker(rts: &[PulseRuntime], shard: usize) {
    if !pulse_obs::enabled() {
        return;
    }
    let (shard, several) = (shard.to_string(), rts.len() > 1);
    for (b, rt) in rts.iter().enumerate() {
        let branch = b.to_string();
        let labels = [("shard", shard.as_str()), ("branch", branch.as_str())];
        rt.export_metrics(pulse_obs::global(), &labels[..1 + several as usize]);
    }
}

/// Sends the message `make` builds around a fresh reply channel and waits
/// for the answer; `None` once the worker is gone.
fn ask<T>(tx: &SyncSender<Msg>, make: impl FnOnce(SyncSender<T>) -> Msg) -> Option<T> {
    let (reply_tx, reply_rx) = sync_channel(1);
    tx.send(make(reply_tx)).ok()?;
    reply_rx.recv().ok()
}

/// Cross-thread access to a live [`HybridRuntime`]'s workers. Routes each
/// query over the workers' own channels; the recorder rings stay
/// single-writer because queries execute on the worker threads.
#[derive(Clone, Debug)]
pub struct ExplainHandle {
    txs: Vec<SyncSender<Msg>>,
}

impl ExplainHandle {
    /// Asks the worker owning `key` to explain its outputs over
    /// `[t0, t1]`. Returns `None` once the runtime has shut down.
    pub fn explain(&self, key: u64, t0: f64, t1: f64) -> Option<ExplainReport> {
        let s = (splitmix64(key) % self.txs.len() as u64) as usize;
        ask(&self.txs[s], |reply| Msg::Explain { key, t0, t1, reply })
    }

    /// Copies every worker's flight-recorder rings (see
    /// [`HybridRuntime::trace_events`]). Reflects state as of the last
    /// flushed batch; `None` once the runtime has shut down.
    pub fn trace_events(&self) -> Option<Vec<(u32, Vec<TraceEvent>)>> {
        let rings = self.txs.iter().map(|tx| ask(tx, Msg::Trace));
        rings.enumerate().map(|(s, events)| Some((s as u32, events?))).collect()
    }

    /// Merges every worker's guarantee-audit ledgers (the live `/audit`
    /// path). Reflects state as of each worker's last drained batch;
    /// `None` once the runtime has shut down. Empty ledgers when auditing
    /// is off.
    pub fn audit(&self) -> Option<AuditLedger> {
        let mut merged = AuditLedger::default();
        for tx in &self.txs {
            merged.absorb(&ask(tx, Msg::Audit)?);
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema, StreamModel};
    use pulse_stream::{partition_rewrite, AggFunc, KeyJoin, LogicalOp, PortRef};

    fn source() -> (Schema, StreamModel) {
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let sm = StreamModel::new(
            schema.clone(),
            vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
        )
        .unwrap();
        (schema, sm)
    }

    /// One aggregate over attribute 0 of source 0.
    fn aggregate(
        schema: Schema,
        func: AggFunc,
        width: f64,
        slide: f64,
        by_key: bool,
    ) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema]);
        let op = LogicalOp::Aggregate { func, attr: 0, width, slide, group_by_key: by_key };
        lp.add(op, vec![PortRef::Source(0)]);
        lp
    }

    fn min_plan(schema: Schema) -> LogicalPlan {
        aggregate(schema, AggFunc::Min, 1e6, 1.0, false)
    }

    fn filter_plan() -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![source().0]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-100.0)) },
            vec![PortRef::Source(0)],
        );
        lp
    }

    /// `lp` over the linear-model source, partitioned across `shards`.
    fn partitioned(
        lp: &LogicalPlan,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<HybridRuntime, ShardError> {
        HybridRuntime::partitioned(vec![Predictor::Clause(source().1)], lp, cfg, shards)
    }

    #[test]
    fn shard_of_covers_all_shards() {
        let rt = partitioned(&filter_plan(), RuntimeConfig::default(), 4).unwrap();
        let mut hit = [false; 4];
        for key in 0..64u64 {
            hit[rt.shard_of(key)] = true;
        }
        assert_eq!(hit, [true; 4], "sequential keys must spread over shards");
        // Routing is deterministic.
        assert_eq!(rt.shard_of(7), rt.shard_of(7));
        rt.finish();
    }

    #[test]
    fn basic_run_merges_stats() {
        let cfg = RuntimeConfig { horizon: 100.0, bound: 1.0, ..Default::default() };
        let mut rt = partitioned(&filter_plan(), cfg, 3).unwrap();
        rt.set_batch(2);
        for i in 0..60 {
            let key = (i % 6) as u64;
            let ts = (i / 6) as f64;
            rt.on_tuple(0, &Tuple::new(key, ts, vec![2.0 * ts, 2.0]));
        }
        rt.gc_before(0.0);
        let run = rt.finish();
        assert_eq!(run.stats.tuples_in, 60);
        // Six keys following their model exactly: one solve each.
        assert_eq!(run.stats.segments_pushed, 6);
        assert_eq!(run.stats.suppressed, 54);
        assert_eq!(run.stats.violations, 0);
        assert_eq!(run.outputs.len() as u64, run.stats.outputs);
        assert!(run.validator.checks >= 54);
        assert!(run.metrics.systems_solved >= 6);
    }

    #[test]
    fn non_partitionable_plan_is_rejected_before_spawn() {
        let lp = aggregate(source().0, AggFunc::Min, 10.0, 2.0, false);
        let err = partitioned(&lp, RuntimeConfig::default(), 2).unwrap_err();
        let ShardError::NotPartitionable(v) = &err else {
            panic!("expected NotPartitionable, got {err:?}")
        };
        assert_eq!(v.node, 0);
        assert!(err.to_string().contains("aggregate"), "{err}");
    }

    #[test]
    fn untransformable_plan_is_a_transform_error() {
        let lp = aggregate(source().0, AggFunc::Count, 10.0, 2.0, true);
        let err = partitioned(&lp, RuntimeConfig::default(), 2).unwrap_err();
        assert!(matches!(err, ShardError::Transform(_)), "{err:?}");
    }

    #[test]
    fn hybrid_runs_a_non_partitionable_min() {
        let (schema, sm) = source();
        let lp = min_plan(schema);
        let hp = partition_rewrite(&lp).expect("must split");
        let cfg = RuntimeConfig { horizon: 1e6, bound: 1.0, ..Default::default() };
        let mut rt =
            HybridRuntime::new(vec![Predictor::Clause(sm)], &hp, cfg, 2).expect("build hybrid");
        rt.set_batch(2);
        // Keys 0..4 at constant levels 10, 11, 12, 13: the global min is 10.
        for key in 0..4u64 {
            rt.on_tuple(0, &Tuple::new(key, 0.0, vec![10.0 + key as f64, 0.0]));
        }
        rt.gc_before(0.0);
        let run = rt.finish();
        assert_eq!(run.stats.tuples_in, 4);
        assert!(!run.outputs.is_empty(), "merge stage must emit the global envelope");
        // Every output piece tracks the winning key's level; the winner
        // everywhere is key 0 at 10.
        let last = run.outputs.last().unwrap();
        assert!((last.models[0].eval(last.span.lo) - 10.0).abs() < 1e-9, "{last:?}");
    }

    #[test]
    fn gc_reaches_the_merge_stage_lineage() {
        let (schema, sm) = source();
        let hp = partition_rewrite(&aggregate(schema, AggFunc::Min, 5.0, 1.0, false))
            .expect("must split");
        // Predictions expire before a key's next tuple: every tuple
        // re-models and sends a segment on to the merge stage.
        let cfg = RuntimeConfig { horizon: 1.0, bound: 0.01, ..Default::default() };
        let mut rt =
            HybridRuntime::new(vec![Predictor::Clause(sm)], &hp, cfg, 1).expect("build hybrid");
        rt.set_sync_every(8);
        for i in 0..400u64 {
            let ts = i as f64 * 0.5;
            rt.on_tuple(0, &Tuple::new(i % 4, ts, vec![(i % 7) as f64, 0.0]));
            if i % 40 == 39 {
                rt.gc_before(ts - 10.0);
            }
        }
        // About 10 s of 2 segments/s survive, not 200 s.
        let held = rt.merge.as_ref().unwrap().suffix.lineage().len();
        assert!((1..100).contains(&held), "merge-stage lineage holds {held} snapshots");
        rt.finish();
    }

    /// Adaptive price source, one modeled attribute.
    fn price() -> Schema {
        Schema::of(&[("price", AttrKind::Modeled)])
    }

    /// A cross-key join whose two sides are separate branches (two
    /// branches, so the merge order interleaves them).
    fn join_plan() -> LogicalPlan {
        let mut join = LogicalPlan::new(vec![price(), price()]);
        let f = join.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(53.0)) },
            vec![PortRef::Source(0)],
        );
        join.add(
            LogicalOp::Join {
                window: 0.5,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)),
                on_keys: KeyJoin::Ne,
            },
            vec![f, PortRef::Source(1)],
        );
        join
    }

    /// Noisy per-key price walks: tick noise above the bound keeps every
    /// key re-modelling, so result segments flow to the merge stage all
    /// through the stream. Sources alternate when there are two.
    fn noisy_feed(sources: usize, keys: u64, rounds: usize) -> Vec<(usize, Tuple)> {
        let mut rng = 0x0dd5_eed5_u64;
        let mut noise = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut out = Vec::new();
        for r in 0..rounds {
            let ts = r as f64 * 0.05;
            for key in 0..keys {
                let p = 50.0 + key as f64 + (ts * (1.0 + key as f64 * 0.1)).sin() + 0.2 * noise();
                out.push((out.len() % sources, Tuple::new(key, ts, vec![p])));
            }
        }
        out
    }

    /// The barrier sync the pipelined one must reproduce, run on one
    /// thread (returned with its branch runtimes): a runtime per branch
    /// fed tuple by tuple, and every `sync_every` tuples (and at the end)
    /// the outputs since the last sync sorted by `(span.lo, branch, key)`
    /// and pushed through the wiring into the merge stage. `gc_at(i)` collects lineage older than the
    /// returned time everywhere after tuple `i`.
    fn barrier_model(
        hp: &HybridPlan,
        cfg: &RuntimeConfig,
        feed: &[(usize, Tuple)],
        sync_every: usize,
        gc_at: &dyn Fn(usize) -> Option<f64>,
    ) -> (Vec<Segment>, Vec<PulseRuntime>) {
        let mut rts: Vec<PulseRuntime> = hp
            .branches
            .iter()
            .map(|b| {
                let preds = b.sources.iter().map(|_| Predictor::AdaptiveLinear(price())).collect();
                PulseRuntime::with_predictors(preds, &b.plan, cfg.clone()).unwrap()
            })
            .collect();
        let mut suffix = CPlan::compile(&hp.suffix).unwrap();
        suffix.lineage_mut().set_gradients(false);
        let mut window: Vec<(usize, Segment)> = Vec::new();
        let mut outputs = Vec::new();
        let mut merge = |window: &mut Vec<(usize, Segment)>, suffix: &mut CPlan| {
            window.sort_by(|a, b| {
                a.1.span.lo.total_cmp(&b.1.span.lo).then(a.0.cmp(&b.0)).then(a.1.key.cmp(&b.1.key))
            });
            for (branch, seg) in window.drain(..) {
                for (src, &b) in hp.wiring.iter().enumerate() {
                    if b == branch {
                        outputs.extend(suffix.push(src, &seg));
                    }
                }
            }
        };
        for (i, (source, t)) in feed.iter().enumerate() {
            for (bi, b) in hp.branches.iter().enumerate() {
                for (local, &orig) in b.sources.iter().enumerate() {
                    if orig == *source {
                        window.extend(rts[bi].on_tuple(local, t).into_iter().map(|s| (bi, s)));
                    }
                }
            }
            if (i + 1) % sync_every == 0 {
                merge(&mut window, &mut suffix);
            }
            if let Some(cut) = gc_at(i) {
                for rt in &mut rts {
                    rt.gc_before(cut);
                }
                suffix.lineage_mut().gc_before(cut);
            }
        }
        merge(&mut window, &mut suffix);
        (outputs, rts)
    }

    /// Ordered, id-blind bit pattern of a run's outputs.
    fn ordered_bits(outs: &[Segment]) -> Vec<(u64, [u64; 2], Vec<Vec<u64>>)> {
        outs.iter()
            .map(|s| {
                (
                    s.key,
                    [s.span.lo.to_bits(), s.span.hi.to_bits()],
                    s.models
                        .iter()
                        .map(|p| p.coeffs().iter().map(|c| c.to_bits()).collect())
                        .collect(),
                )
            })
            .collect()
    }

    /// The pipelined merge must emit exactly the barrier sync's outputs in
    /// exactly its order — not just the same multiset — at any shard
    /// count and sync interval, with lineage GC and metric scrapes landing
    /// mid-window and a partial last window.
    #[test]
    fn pipelined_merge_matches_the_barrier_sync_in_order() {
        let cfg = RuntimeConfig { horizon: 5.0, bound: 0.05, ..Default::default() };
        // 7 keys × 87 rounds = 609 tuples: a partial last window at every
        // interval below. Ungrouped min (one branch), and the two-branch
        // join.
        for (lp, sources) in [(min_plan(price()), 1), (join_plan(), 2)] {
            let hp = partition_rewrite(&lp).expect("must split");
            let feed = noisy_feed(sources, 7, 87);
            let gc_at = |i: usize| (i % 150 == 149).then(|| feed[i].1.ts - 2.0);
            for sync_every in [1, 5, 64] {
                let (want, _) = barrier_model(&hp, &cfg, &feed, sync_every, &gc_at);
                assert!(want.len() > 20, "{} merge outputs", want.len());
                for shards in 1..=3 {
                    let preds = vec![Predictor::AdaptiveLinear(price()); sources];
                    let mut rt = HybridRuntime::new(preds, &hp, cfg.clone(), shards).unwrap();
                    rt.set_batch(3);
                    rt.set_sync_every(sync_every);
                    for (i, (source, t)) in feed.iter().enumerate() {
                        rt.on_tuple(*source, t);
                        if let Some(cut) = gc_at(i) {
                            rt.gc_before(cut);
                        }
                        if i % 200 == 100 {
                            rt.publish_metrics();
                        }
                    }
                    let got = rt.finish().outputs;
                    assert!(
                        ordered_bits(&got) == ordered_bits(&want),
                        "{sources} source(s), {shards} shards, sync every {sync_every}: \
                         {} outputs, barrier model {}",
                        got.len(),
                        want.len()
                    );
                }
            }
        }
    }

    /// A worker answers explain and audit across every branch it runs:
    /// the same solves and the same merged ledger as one thread running
    /// each branch over every key.
    #[test]
    fn explain_and_audit_cover_every_branch() {
        let cfg = RuntimeConfig {
            horizon: 5.0,
            bound: 0.05,
            audit_rate: 1,
            trace_capacity: 16384,
            ..Default::default()
        };
        // The auditor's discrete reference keeps one open window per
        // slide step, so the min gets a short window here.
        let min = aggregate(price(), AggFunc::Min, 2.0, 0.5, false);
        for (lp, sources) in [(min, 1), (join_plan(), 2)] {
            let hp = partition_rewrite(&lp).expect("must split");
            let feed = noisy_feed(sources, 7, 87);
            let (_, model) = barrier_model(&hp, &cfg, &feed, 64, &|_| None);
            let mut want = AuditLedger::default();
            for ledger in model.iter().filter_map(PulseRuntime::audit_ledger) {
                want.absorb(ledger);
            }
            assert!(want.checks > 0, "{sources} source(s): nothing audited");
            let solves = |key| -> usize {
                model.iter().map(|rt| rt.explain(key, 0.0, 1e9).solves.len()).sum()
            };
            assert!((0..7).all(|key| solves(key) > 0), "{sources} source(s): no solves traced");
            for shards in 1..=3 {
                let preds = vec![Predictor::AdaptiveLinear(price()); sources];
                let mut rt = HybridRuntime::new(preds, &hp, cfg.clone(), shards).unwrap();
                rt.set_sync_every(64);
                for (source, t) in &feed {
                    rt.on_tuple(*source, t);
                }
                for key in 0..7 {
                    assert_eq!(
                        rt.explain(key, 0.0, 1e9).solves.len(),
                        solves(key),
                        "{sources} source(s), {shards} shards, key {key}"
                    );
                }
                let run = rt.finish();
                assert!(run.audit == want, "{sources} source(s), {shards} shards: ledgers differ");
            }
        }
    }

    /// A panic inside a worker resurfaces on the router thread as the
    /// worker's own panic, whether the router next sends to the worker or
    /// waits on its drain, and with no merge stage at all.
    #[test]
    fn a_dead_worker_reports_its_own_panic() {
        let hp = partition_rewrite(&min_plan(price())).expect("must split");
        let preds = || vec![Predictor::AdaptiveLinear(price())];
        let mut cases = Vec::new();
        for sync_every in [1, HybridRuntime::SYNC_EVERY] {
            let mut rt = HybridRuntime::new(preds(), &hp, RuntimeConfig::default(), 2).unwrap();
            rt.set_sync_every(sync_every);
            cases.push((format!("sync every {sync_every}"), rt));
        }
        let mut filter = LogicalPlan::new(vec![price()]);
        filter.add(LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Source(0)]);
        let rt = HybridRuntime::partitioned(preds(), &filter, RuntimeConfig::default(), 2).unwrap();
        cases.push(("partitioned filter".to_string(), rt));
        for (label, mut rt) in cases {
            rt.set_batch(1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                // An adaptive source reads the modeled value the tuple lacks.
                rt.on_tuple(0, &Tuple::new(1, 0.0, Vec::new()));
                for i in 1..200 {
                    rt.on_tuple(0, &Tuple::new(1, i as f64, vec![1.0]));
                }
                rt.finish()
            }));
            let payload = caught.expect_err("the worker's panic must reach the router");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("index out of bounds"), "{label}: {msg:?}");
        }
    }
}
