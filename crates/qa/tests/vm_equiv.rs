//! Equivalence pins for the two violation-path rewrites:
//!
//! 1. **Bytecode VM substitution** — `SystemTemplate::substitute_into`
//!    compiles coefficient expressions to a stack VM; the retained AST-walk
//!    interpreter is kept behind `set_legacy_subst(true)`. Both must produce
//!    bit-identical outputs over the full generated plan grammar.
//! 2. **Batched per-key solving** — `on_batch`/`on_pairs` defer violation
//!    solves into a per-key queue and drain at batch end. On partitionable
//!    plans this must be output-, order- and counter-identical to per-tuple
//!    `on_tuple`; on non-partitionable plans it must fall back to per-tuple
//!    processing (`batchable() == false`). The sharded engine feeds its
//!    workers through `on_pairs`, so 1- and 4-shard runs pin the same
//!    contract under partitioning.
//!
//! The legacy-substitution toggle is a process-global atomic, so every test
//! that drives a runtime serializes on one mutex.

use std::sync::Mutex;

use pulse_core::{
    set_legacy_subst, Heuristic, HybridRuntime, Predictor, PulseRuntime, RuntimeConfig,
    RuntimeStats,
};
use pulse_model::{Segment, Tuple};
use pulse_qa::Case;
use pulse_stream::LogicalPlan;
use pulse_workload::{tracks, TrackSet};

/// Serializes tests in this binary: `set_legacy_subst` is process-global.
static SUBST_LOCK: Mutex<()> = Mutex::new(());

/// Restores VM substitution even if a comparison panics mid-test.
struct LegacyGuard;

impl LegacyGuard {
    fn on() -> LegacyGuard {
        set_legacy_subst(true);
        LegacyGuard
    }
}

impl Drop for LegacyGuard {
    fn drop(&mut self) {
        set_legacy_subst(false);
    }
}

fn inputs(seed: u64) -> (LogicalPlan, Vec<Tuple>, RuntimeConfig) {
    let case = Case::from_seed(seed);
    let (lp, _sink) = case.plan.to_logical();
    let tr = TrackSet::generate(case.stream.tracks.clone(), case.stream.duration);
    let cfg = RuntimeConfig {
        horizon: case.stream.horizon,
        bound: case.stream.bound,
        heuristic: Heuristic::Equi,
        trace_capacity: 0,
        ..Default::default()
    };
    (lp, tr.tuples(), cfg)
}

fn runtime(lp: &LogicalPlan, cfg: &RuntimeConfig) -> PulseRuntime {
    PulseRuntime::with_predictors(vec![Predictor::Clause(tracks::stream_model())], lp, cfg.clone())
        .expect("qa plan must compile")
}

/// Id-blind segment identity: key, span bits, model coefficient bits,
/// unmodeled value bits. Ids are process-global counters and legitimately
/// differ between runtimes; everything else must match to the bit.
type SegPrint = (u64, u64, u64, Vec<u64>, Vec<u64>);

/// Order-preserving prints — single-threaded drives must agree on emission
/// order, not just the multiset.
fn prints(segs: &[Segment]) -> Vec<SegPrint> {
    segs.iter()
        .map(|s| {
            (
                s.key,
                s.span.lo.to_bits(),
                s.span.hi.to_bits(),
                s.models.iter().flat_map(|p| p.coeffs().iter().map(|c| c.to_bits())).collect(),
                s.unmodeled.iter().map(|u| u.to_bits()).collect(),
            )
        })
        .collect()
}

/// Sorted prints for cross-shard comparisons, where merge order is arbitrary.
fn sorted_prints(segs: &[Segment]) -> Vec<SegPrint> {
    let mut v = prints(segs);
    v.sort();
    v
}

fn drive_per_tuple(
    lp: &LogicalPlan,
    tuples: &[Tuple],
    cfg: &RuntimeConfig,
) -> (Vec<Segment>, RuntimeStats) {
    let mut rt = runtime(lp, cfg);
    let mut outs = Vec::new();
    for t in tuples {
        outs.extend(rt.on_tuple(0, t));
    }
    (outs, rt.stats())
}

fn drive_batched(
    lp: &LogicalPlan,
    tuples: &[Tuple],
    cfg: &RuntimeConfig,
    batch: usize,
) -> (Vec<Segment>, RuntimeStats, bool) {
    let mut rt = runtime(lp, cfg);
    let mut outs = Vec::new();
    for chunk in tuples.chunks(batch) {
        outs.extend(rt.on_batch(0, chunk));
    }
    let batchable = rt.batchable();
    (outs, rt.stats(), batchable)
}

/// VM vs retained AST interpreter, bit-exact across two full cycles of the
/// generated plan grammar (seeds 0..10 force every operator kind twice,
/// spanning both noise regimes and both ε regimes).
#[test]
fn vm_substitution_matches_legacy_ast_walk() {
    let _lock = SUBST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut total_violations = 0u64;
    for seed in 0..10u64 {
        let (lp, tuples, cfg) = inputs(seed);
        let (vm_outs, vm_stats) = drive_per_tuple(&lp, &tuples, &cfg);
        let (legacy_outs, legacy_stats) = {
            let _legacy = LegacyGuard::on();
            drive_per_tuple(&lp, &tuples, &cfg)
        };
        assert_eq!(vm_stats, legacy_stats, "seed {seed}: counters diverge");
        assert_eq!(
            prints(&vm_outs),
            prints(&legacy_outs),
            "seed {seed}: VM substitution is not bit-identical to the AST walk"
        );
        total_violations += vm_stats.violations;
    }
    assert!(total_violations > 0, "no seed exercised the solve path");
}

/// Batched solving vs per-tuple, at batch sizes that split keys across
/// batch boundaries (1 = degenerate, 7 = misaligned, 64 = channel-like).
/// Order-exact, not just multiset-equal: the drain preserves arrival order.
#[test]
fn batched_solving_matches_per_tuple() {
    let _lock = SUBST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut saw_batchable, mut saw_fallback) = (false, false);
    // Seeds 0..10 happen to all be partitionable; 47 is a non-partitionable
    // join (also in corpus/violation-storm.seed) that pins the fallback.
    for seed in (0..10u64).chain([47]) {
        let (lp, tuples, cfg) = inputs(seed);
        let (one, stats_one) = drive_per_tuple(&lp, &tuples, &cfg);
        for batch in [1usize, 7, 64] {
            let (many, stats_many, batchable) = drive_batched(&lp, &tuples, &cfg, batch);
            assert_eq!(batchable, lp.is_key_partitionable(), "seed {seed}");
            saw_batchable |= batchable;
            saw_fallback |= !batchable;
            assert_eq!(stats_one, stats_many, "seed {seed} batch {batch}: counters diverge");
            assert_eq!(
                prints(&one),
                prints(&many),
                "seed {seed} batch {batch}: deferred solves changed outputs or their order"
            );
        }
    }
    assert!(saw_batchable, "no seed exercised the deferred-solve queue");
    assert!(saw_fallback, "no seed exercised the per-tuple fallback");
}

/// The sharded engine feeds workers 256-tuple channel batches through
/// `on_pairs`; 1 and 4 shards must both stay bit-identical (id-blind) to a
/// single-threaded per-tuple run on every partitionable plan.
#[test]
fn sharded_batching_bit_identical_at_1_and_4_shards() {
    let _lock = SUBST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut covered = 0usize;
    for seed in 0..10u64 {
        let (lp, tuples, cfg) = inputs(seed);
        if !lp.is_key_partitionable() {
            continue;
        }
        if covered == 5 {
            break;
        }
        covered += 1;
        let (one, stats_one) = drive_per_tuple(&lp, &tuples, &cfg);
        for shards in [1usize, 4] {
            let mut sh = HybridRuntime::partitioned(
                vec![Predictor::Clause(tracks::stream_model())],
                &lp,
                cfg.clone(),
                shards,
            )
            .expect("partitionable plan must shard");
            for t in &tuples {
                sh.on_tuple(0, t);
            }
            let merged = sh.finish();
            assert_eq!(merged.stats, stats_one, "seed {seed} shards {shards}: counters diverge");
            assert_eq!(
                sorted_prints(&merged.outputs),
                sorted_prints(&one),
                "seed {seed} shards {shards}: sharded outputs diverge from single-threaded"
            );
        }
    }
    assert!(covered >= 3, "too few partitionable seeds covered ({covered})");
}
