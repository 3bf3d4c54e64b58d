//! One replay of a workload's input through Pulse's public entry points,
//! timed from the first call into the runtime to the return of the last.
//!
//! The replay is a closed loop: a single caller sends the next chunk only
//! after the previous call returns. The same code serves the timed pass
//! (span log off) and the traced pass (span log on). Between emission
//! groups it probes the host's speed; probe time counts in no total.

use crate::calib::{Clock, Speed};
use crate::check::Fingerprint;
use crate::spans::{SpanLog, NO_GROUP};
use crate::workloads::{Workload, GC_EVERY, GC_RETENTION};
use pulse_core::runtime::Predictor;
use pulse_core::{HybridRuntime, PulseRuntime, RuntimeConfig, RuntimeStats, ValidatorStats};
use pulse_model::Tuple;
use pulse_obs::PhaseTable;
use pulse_stream::{partition_rewrite, OpMetrics};
use pulse_workload::nyse;
use std::time::Instant;

/// Tuples per `on_pairs` call: one emission group of the single-runtime
/// workloads.
pub const CHUNK: usize = pulse_core::DEFAULT_BATCH;

/// Tuples per emission group of the hybrid workload: its merge stage
/// emits at every sync point.
pub const SYNC: usize = HybridRuntime::SYNC_EVERY;

/// What one replay measured and produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// First call into the runtime until the last call (or `finish`)
    /// returns.
    pub wall_s: f64,
    /// `wall_s` at the reference speed (see [`crate::calib`]).
    pub ref_wall_s: f64,
    pub tuples: usize,
    /// Emission-group latencies, in group order.
    pub group_ns: Vec<u64>,
    /// `group_ns` at the reference speed.
    pub ref_group_ns: Vec<u64>,
    pub fingerprint: Fingerprint,
    pub stats: RuntimeStats,
    pub validator: ValidatorStats,
    pub phases: PhaseTable,
    /// Operator counters in [`Workload::node_names`] order.
    pub nodes: Vec<OpMetrics>,
    /// Lineage snapshots held at the end (single runtime only).
    pub lineage_snapshots: usize,
    /// Hybrid only: the merge stage's outputs (the branches' outputs are
    /// `stats.outputs`).
    pub merge_out: u64,
    /// Shadow-auditor breaches, when the auditor ran.
    pub audit_breaches: Option<u64>,
}

impl Replay {
    pub fn tuples_per_s(&self) -> f64 {
        self.tuples as f64 / self.wall_s
    }
}

fn predictors() -> Vec<Predictor> {
    vec![Predictor::AdaptiveLinear(nyse::schema())]
}

fn build_single(w: Workload, cfg: RuntimeConfig) -> PulseRuntime {
    PulseRuntime::with_predictors(predictors(), &w.plan(), cfg).expect("workload plan compiles")
}

fn build_hybrid(w: Workload, cfg: RuntimeConfig, workers: usize) -> HybridRuntime {
    let hp = partition_rewrite(&w.plan()).expect("an ungrouped min takes the partition rewrite");
    HybridRuntime::new(predictors(), &hp, cfg, workers).expect("rewritten branches compile")
}

/// Builds and tears down the workload's runtime once; returns the build
/// time in seconds (teardown excluded).
pub fn setup_once(w: Workload, cfg: RuntimeConfig, workers: usize) -> f64 {
    let t0 = Instant::now();
    if w.is_hybrid() {
        let rt = build_hybrid(w, cfg, workers);
        let s = t0.elapsed().as_secs_f64();
        rt.finish();
        s
    } else {
        let rt = build_single(w, cfg);
        let s = t0.elapsed().as_secs_f64();
        drop(rt);
        s
    }
}

/// Replays `input` once on a freshly built runtime. `workers` is the
/// hybrid prefix worker count (ignored by the single-runtime workloads).
pub fn replay(
    w: Workload,
    input: &[(usize, Tuple)],
    cfg: RuntimeConfig,
    workers: usize,
    log: &mut SpanLog,
    speed: &mut Speed,
) -> Replay {
    if w.is_hybrid() {
        replay_hybrid(w, input, cfg, workers, log, speed)
    } else {
        replay_single(w, input, cfg, log, speed)
    }
}

fn replay_single(
    w: Workload,
    input: &[(usize, Tuple)],
    cfg: RuntimeConfig,
    log: &mut SpanLog,
    speed: &mut Speed,
) -> Replay {
    let t_setup = Instant::now();
    let root = log.open("replay", 0, t_setup);
    let mut rt = build_single(w, cfg);
    let start = Instant::now();
    log.record("setup", root, NO_GROUP, t_setup, start);
    let mut clock = Clock::new(speed, start);
    let mut fp = Fingerprint::default();
    let mut group_ns = Vec::with_capacity(input.len() / CHUNK + 1);
    let mut ref_group_ns = Vec::with_capacity(input.len() / CHUNK + 1);
    let (mut next_gc, mut seen, mut end) = (0usize, 0usize, start);
    for (g, chunk) in input.chunks(CHUNK).enumerate() {
        let t0 = Instant::now();
        let outs = rt.on_pairs(chunk);
        end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        group_ns.push(ns);
        ref_group_ns.push(clock.to_ref(ns));
        log.record("runtime.on_pairs", root, g as u32, t0, end);
        fp.add_all(&outs);
        seen += chunk.len();
        if seen > next_gc {
            let t0 = Instant::now();
            rt.gc_before(chunk.last().expect("chunks are non-empty").1.ts - GC_RETENTION);
            end = Instant::now();
            log.record("lineage.gc_before", root, g as u32, t0, end);
            next_gc += GC_EVERY;
        }
        clock.group_done(Instant::now());
    }
    log.close(root, end);
    let lineage_snapshots = rt.plan().lineage().lock().len();
    Replay {
        wall_s: clock.wall_ns as f64 * 1e-9,
        ref_wall_s: clock.ref_ns * 1e-9,
        tuples: input.len(),
        group_ns,
        ref_group_ns,
        fingerprint: fp,
        stats: rt.stats(),
        validator: rt.validator().stats(),
        phases: *rt.phases(),
        nodes: (0..rt.plan().len()).map(|n| rt.plan().node_metrics(n)).collect(),
        lineage_snapshots,
        audit_breaches: rt.audit_ledger().map(|l| l.breaches),
        ..Replay::default()
    }
}

fn replay_hybrid(
    w: Workload,
    input: &[(usize, Tuple)],
    cfg: RuntimeConfig,
    workers: usize,
    log: &mut SpanLog,
    speed: &mut Speed,
) -> Replay {
    let t_setup = Instant::now();
    let root = log.open("replay", 0, t_setup);
    let mut rt = build_hybrid(w, cfg, workers);
    let start = Instant::now();
    log.record("setup", root, NO_GROUP, t_setup, start);
    let mut clock = Clock::new(speed, start);
    let mut group_ns = Vec::with_capacity(input.len() / SYNC + 1);
    let mut ref_group_ns = Vec::with_capacity(input.len() / SYNC + 1);
    let mut group_t0 = start;
    for (i, (src, t)) in input.iter().enumerate() {
        let first = i % SYNC == 0;
        // The call that completes a window runs the merge stage.
        let syncs = (i + 1) % SYNC == 0;
        // The timed pass reads the clock only at group boundaries.
        let t0 = (first || syncs || log.is_on()).then(Instant::now);
        rt.on_tuple(*src, t);
        if let Some(t0) = t0 {
            let t1 = Instant::now();
            if first {
                group_t0 = t0;
            }
            if syncs {
                let ns = (t1 - group_t0).as_nanos() as u64;
                group_ns.push(ns);
                ref_group_ns.push(clock.to_ref(ns));
            }
            let name = if syncs { "hybrid.sync" } else { "hybrid.route" };
            log.record(name, root, (i / SYNC) as u32, t0, t1);
        }
        if i % GC_EVERY == 0 {
            let t0 = Instant::now();
            rt.gc_before(t.ts - GC_RETENTION);
            log.record("lineage.gc_before", root, (i / SYNC) as u32, t0, Instant::now());
        }
        if syncs {
            clock.group_done(Instant::now());
        }
    }
    let t0 = Instant::now();
    let run = rt.finish();
    let end = Instant::now();
    clock.read(end);
    // `finish` emits the trailing partial window.
    if !input.len().is_multiple_of(SYNC) {
        let ns = (end - group_t0).as_nanos() as u64;
        group_ns.push(ns);
        ref_group_ns.push(clock.to_ref(ns));
    }
    log.record("hybrid.finish", root, (input.len() / SYNC) as u32, t0, end);
    log.close(root, end);
    let mut fp = Fingerprint::default();
    fp.add_all(&run.outputs);
    Replay {
        wall_s: clock.wall_ns as f64 * 1e-9,
        ref_wall_s: clock.ref_ns * 1e-9,
        tuples: input.len(),
        group_ns,
        ref_group_ns,
        fingerprint: fp,
        stats: run.stats,
        validator: run.validator,
        phases: run.phases,
        nodes: vec![run.metrics],
        merge_out: run.outputs.len() as u64,
        ..Replay::default()
    }
}
