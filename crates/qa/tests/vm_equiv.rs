//! Equivalence pins for the violation path:
//!
//! 1. **Bytecode VM substitution** — `SystemTemplate::substitute` runs each
//!    predicate row as a compiled stack-VM program, and `CMap` projects
//!    through the same VM. The tree walk (`System::build` over
//!    `Expr::to_poly`) is the reference: for every predicate and
//!    projection the qa grammar generates, under seeded random models of
//!    degree 0–3, both must give the same bits and the same errors.
//! 2. **Batched per-key solving** — `on_batch`/`on_pairs` defer violation
//!    solves into a per-key queue and drain at batch end. On partitionable
//!    plans this must be output-, order- and counter-identical to per-tuple
//!    `on_tuple`; on non-partitionable plans it must fall back to per-tuple
//!    processing (`batchable() == false`). The sharded engine feeds its
//!    workers through `on_pairs`, so 1- and 4-shard runs pin the same
//!    contract under partitioning.

use std::collections::HashMap;

use pulse_core::{
    Heuristic, HybridRuntime, Predictor, PulseRuntime, RuntimeConfig, RuntimeStats, System,
    SystemTemplate,
};
use pulse_math::{CmpOp, Poly};
use pulse_model::{Expr, ExprError, ExprVm, Pred, Segment, SlotMap, Tuple, VmProgram};
use pulse_qa::Case;
use pulse_stream::{LogicalOp, LogicalPlan};
use pulse_workload::{tracks, TrackSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn inputs(seed: u64) -> (LogicalPlan, Vec<Tuple>, RuntimeConfig) {
    let case = Case::from_seed(seed);
    let (lp, _sink) = case.plan.to_logical();
    let tr = TrackSet::generate(case.stream.tracks.clone(), case.stream.duration);
    let cfg = RuntimeConfig {
        horizon: case.stream.horizon,
        bound: case.stream.bound,
        heuristic: Heuristic::Equi,
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

/// Coefficient bits of a polynomial.
fn bits(p: &Poly) -> Vec<u64> {
    p.coeffs().iter().map(|c| c.to_bits()).collect()
}

/// A system's rows, in `System::rows` order, as comparable bits.
fn row_bits(sys: &System) -> Vec<(CmpOp, Vec<u64>)> {
    sys.rows().iter().map(|r| (r.op, bits(&r.poly))).collect()
}

/// Every predicate, normalized as `CPlan` compiles filters and joins, and
/// every map's projection list.
fn plan_exprs(lp: &LogicalPlan) -> (Vec<Pred>, Vec<Vec<Expr>>) {
    let (mut preds, mut maps) = (Vec::new(), Vec::new());
    for node in &lp.nodes {
        match &node.op {
            LogicalOp::Filter { pred } | LogicalOp::Join { pred, .. } => {
                preds.push(pred.normalize())
            }
            LogicalOp::Map { exprs, .. } => maps.push(exprs.clone()),
            LogicalOp::Aggregate { .. } | LogicalOp::Union => {}
        }
    }
    (preds, maps)
}

/// A random model of degree 0–3 for every reference in `refs`, except
/// that with probability 1/4 one reference has none and its lookup fails.
fn random_models(rng: &mut StdRng, refs: &[(usize, usize)]) -> HashMap<(usize, usize), Poly> {
    let mut models: HashMap<_, _> = refs
        .iter()
        .map(|&r| {
            let degree = rng.gen_range(0usize..=3);
            (r, Poly::new((0..=degree).map(|_| rng.gen_range(-10.0..10.0)).collect()))
        })
        .collect();
    if !refs.is_empty() && rng.gen_bool(0.25) {
        models.remove(&refs[rng.gen_range(0..refs.len())]);
    }
    models
}

/// A model lookup over `models`; a missing reference fails as unknown.
fn lookup_in(
    models: &HashMap<(usize, usize), Poly>,
) -> impl Fn(usize, usize) -> Result<Poly, ExprError> + '_ {
    |input, attr| models.get(&(input, attr)).cloned().ok_or(ExprError::UnknownAttr { input, attr })
}

/// `CMap`'s projection: every expression compiled against one slot map,
/// each slot bound once, then every program run.
fn vm_project(
    programs: &[VmProgram],
    slots: &SlotMap,
    vm: &mut ExprVm,
    lookup: &impl Fn(usize, usize) -> Result<Poly, ExprError>,
) -> Result<Vec<Vec<u64>>, ExprError> {
    vm.ensure_slots(slots.len());
    for (i, &(input, attr)) in slots.attrs().iter().enumerate() {
        vm.bind(i, &lookup(input, attr)?);
    }
    programs
        .iter()
        .map(|prog| {
            let mut p = Poly::zero();
            vm.run(prog, &mut p).map(|_| bits(&p))
        })
        .collect()
}

/// The VM against the tree walk, bit for bit and error for error, over
/// every filter and join predicate and every map expression of the qa
/// grammar's plans (seeds 0..32 cover every operator kind several times).
/// Each compiled template and program set is reused across trials, so a
/// substitution must also fully overwrite the one before it.
#[test]
fn vm_substitution_matches_tree_walk() {
    const TRIALS: usize = 24;
    let (mut rows, mut projections, mut errors) = (0usize, 0usize, 0usize);
    for seed in 0..32u64 {
        let (lp, _, _) = inputs(seed);
        let (preds, maps) = plan_exprs(&lp);
        let mut rng = StdRng::seed_from_u64(seed);
        for pred in &preds {
            let mut tpl = SystemTemplate::compile(pred);
            let refs = pred.referenced_attrs();
            for trial in 0..TRIALS {
                let models = random_models(&mut rng, &refs);
                let lookup = lookup_in(&models);
                let want = System::build(pred, &lookup).map(|s| row_bits(&s));
                let got = tpl.substitute(&lookup).map(row_bits);
                assert_eq!(got, want, "seed {seed} trial {trial}: {pred:?}");
                match want {
                    Ok(r) => rows += r.len(),
                    Err(_) => errors += 1,
                }
            }
        }
        for exprs in &maps {
            let mut slots = SlotMap::new();
            let programs: Vec<_> =
                exprs.iter().map(|e| VmProgram::compile(e, &mut slots)).collect();
            let mut vm = ExprVm::new();
            let mut refs = Vec::new();
            exprs.iter().for_each(|e| e.collect_attrs(&mut refs));
            for trial in 0..TRIALS {
                let models = random_models(&mut rng, &refs);
                let lookup = lookup_in(&models);
                let want: Result<Vec<_>, _> =
                    exprs.iter().map(|e| e.to_poly(&lookup).map(|p| bits(&p))).collect();
                let got = vm_project(&programs, &slots, &mut vm, &lookup);
                assert_eq!(got, want, "seed {seed} trial {trial}: {exprs:?}");
                match want {
                    Ok(p) => projections += p.len(),
                    Err(_) => errors += 1,
                }
            }
        }
    }
    assert!(rows > 250, "too few predicate rows compared ({rows})");
    assert!(projections > 200, "too few projections compared ({projections})");
    assert!(errors > 100, "too few failing substitutions compared ({errors})");
}

/// Batched solving vs per-tuple, at batch sizes that split keys across
/// batch boundaries (1 = degenerate, 7 = misaligned, 64 = channel-like).
/// Order-exact, not just multiset-equal: the drain preserves arrival order.
#[test]
fn batched_solving_matches_per_tuple() {
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
