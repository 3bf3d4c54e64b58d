//! Seeded random generation of well-typed [`LogicalPlan`]s.
//!
//! The generator does not emit arbitrary DAGs: it draws from a small grammar
//! of shapes that the *oracle* can also evaluate against exact ground truth.
//! Every generated plan therefore carries structured metadata ([`GenPlan`])
//! describing what it computes, so `oracle.rs` can replay the same
//! computation on noiseless truth values in plain `f64` arithmetic and gate
//! comparisons on how far each filter/join predicate is from its boundary.
//!
//! Three shapes cover all five operator kinds the engines implement:
//!
//! * **Chain** — 1–3 filter/map steps over the source, passthrough sink;
//! * **Agg** — a windowed aggregate (min/max/sum/avg) directly over the
//!   source. Sum/avg are always grouped (the continuous transform rejects
//!   ungrouped sum/avg); min/max are sometimes ungrouped, which is exactly
//!   the multi-model envelope shape that is *not* key-partitionable;
//! * **Join** — two filter/map branches over the source meeting in a
//!   sliding-window join. Key condition is usually `Eq` (partitionable) but
//!   sometimes `Any`/`Ne` (deliberately not partitionable).
//!
//! Filters and maps reference only *modeled* attributes, because the
//! continuous transform rejects predicates over coefficient attributes.

use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, Pred, Schema};
use pulse_stream::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};
use rand::rngs::StdRng;
use rand::Rng;

/// The five operator kinds the suite must cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Filter,
    Map,
    Join,
    MinMax,
    SumAvg,
}

/// Force-kind cycle: `Case::from_seed` picks `KINDS[seed % 5]`, so any run
/// of five consecutive seeds covers every operator kind.
pub const KINDS: [OpKind; 5] =
    [OpKind::Filter, OpKind::Map, OpKind::Join, OpKind::MinMax, OpKind::SumAvg];

/// One linear map output row: `Σ coef·attr + c`.
#[derive(Debug, Clone)]
pub struct MapRow {
    pub terms: Vec<(usize, f64)>,
    pub c: f64,
}

/// One step of a filter/map chain. Attribute indices are schema-level
/// indices into the step's *input* schema.
#[derive(Debug, Clone)]
pub enum Step {
    Filter { attr: usize, op: CmpOp, c: f64 },
    Map { rows: Vec<MapRow> },
}

/// Windowed-aggregate spec. With no `pre` steps, `axis` is the track axis
/// (0 = x, 1 = y) and the source attribute is `axis · 2`; with `pre`
/// steps, the aggregate reads model slot `axis % slots` of the prefix
/// output (see [`branch_slots`]).
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub axis: usize,
    pub width: f64,
    pub slide: f64,
    pub grouped: bool,
    /// Filter/map prefix between the source and the aggregate. The
    /// optimizer-biased generator emits **maps only** here: a pre-filter
    /// would change which samples enter the window, which the oracle's
    /// aggregate comparator cannot margin-gate.
    pub pre: Vec<Step>,
}

/// Sliding-window join spec. `lslot`/`rslot` index the *model slots* of the
/// branch outputs (slot order; see [`branch_slots`]).
#[derive(Debug, Clone)]
pub struct JoinSpec {
    pub left: Vec<Step>,
    pub right: Vec<Step>,
    pub window: f64,
    pub lslot: usize,
    pub rslot: usize,
    pub op: CmpOp,
    pub on: KeyJoin,
}

/// Shape of a generated plan, with everything the oracle needs to evaluate
/// it on ground truth.
#[derive(Debug, Clone)]
pub enum Shape {
    Chain { steps: Vec<Step> },
    Agg(AggSpec),
    Join(JoinSpec),
}

/// A generated plan: the shape metadata plus derived [`LogicalPlan`].
#[derive(Debug, Clone)]
pub struct GenPlan {
    pub shape: Shape,
}

/// Modeled source attributes of the track schema (x at 0, y at 2).
pub const SRC_MODELED: [usize; 2] = [0, 2];

fn comparison(rng: &mut StdRng) -> CmpOp {
    match rng.gen_range(0u32..4) {
        0 => CmpOp::Lt,
        1 => CmpOp::Le,
        2 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// Signed margin of `lhs OP rhs`: positive iff the predicate holds, with
/// magnitude = distance from the decision boundary. `Le`/`Ge` share the
/// boundary with `Lt`/`Gt`; the boundary itself has measure zero and the
/// oracle skips a band around it anyway.
pub fn residual(op: CmpOp, lhs: f64, rhs: f64) -> f64 {
    match op {
        CmpOp::Lt | CmpOp::Le => rhs - lhs,
        CmpOp::Gt | CmpOp::Ge => lhs - rhs,
        CmpOp::Eq => -(lhs - rhs).abs(),
        CmpOp::Ne => (lhs - rhs).abs(),
    }
}

/// State threaded through step generation: which schema-level attrs are
/// modeled, and a rough per-attr magnitude scale for picking thresholds.
#[derive(Clone)]
struct StepCtx {
    modeled: Vec<usize>,
    scale: Vec<f64>,
    arity: usize,
}

impl StepCtx {
    fn source(value_scale: f64) -> Self {
        StepCtx { modeled: SRC_MODELED.to_vec(), scale: vec![value_scale; 4], arity: 4 }
    }
}

/// Draws one map step of `nrows` rows and updates the ctx. The draw
/// sequence matches what [`gen_steps`] has always used (corpus seeds
/// depend on it byte-for-byte). `zero_offset` discards the additive
/// offsets — aggregate prefixes need `c = 0` so window comparators can
/// rescale both engines' values by the chain sensitivity alone.
fn gen_map(rng: &mut StdRng, ctx: &mut StepCtx, nrows: usize, zero_offset: bool) -> Step {
    let rows = (0..nrows)
        .map(|_| {
            let nterms = rng.gen_range(1usize..=ctx.modeled.len().min(2));
            let mut attrs = ctx.modeled.clone();
            let terms = (0..nterms)
                .map(|_| {
                    let a = attrs.remove(rng.gen_range(0..attrs.len()));
                    let coef = rng.gen_range(0.4..1.6) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    (a, coef)
                })
                .collect::<Vec<_>>();
            let c = rng.gen_range(-15.0..15.0);
            MapRow { terms, c: if zero_offset { 0.0 } else { c } }
        })
        .collect::<Vec<_>>();
    // Post-map every output attr is modeled; update scales.
    ctx.scale = rows
        .iter()
        .map(|r| r.terms.iter().map(|(a, c)| c.abs() * ctx.scale[*a]).sum::<f64>() + r.c.abs())
        .collect();
    ctx.modeled = (0..rows.len()).collect();
    ctx.arity = rows.len();
    Step::Map { rows }
}

/// Draws one filter step over a modeled attr of the current ctx.
fn gen_filter(rng: &mut StdRng, ctx: &StepCtx) -> Step {
    let attr = ctx.modeled[rng.gen_range(0..ctx.modeled.len())];
    let c = rng.gen_range(-0.7..0.7) * ctx.scale[attr].max(1.0);
    Step::Filter { attr, op: comparison(rng), c }
}

fn gen_steps(rng: &mut StdRng, ctx: &mut StepCtx, n: usize, want: Option<OpKind>) -> Vec<Step> {
    let mut steps = Vec::with_capacity(n);
    for i in 0..n {
        let make_map = match want {
            Some(OpKind::Map) if i == 0 => true,
            // A filter-forced chain stays pure filters so the case is
            // attributed to the right operator kind.
            Some(OpKind::Filter) => false,
            _ => rng.gen_bool(0.4),
        };
        if make_map {
            let nrows = rng.gen_range(1usize..=2);
            steps.push(gen_map(rng, ctx, nrows, false));
        } else {
            steps.push(gen_filter(rng, ctx));
        }
    }
    steps
}

/// Generates a plan whose sink involves the forced operator kind.
/// `value_scale` is the stream's rough value magnitude (threshold scaling).
pub fn gen_plan(rng: &mut StdRng, force: OpKind, value_scale: f64) -> GenPlan {
    let shape = match force {
        OpKind::Filter | OpKind::Map => {
            let mut ctx = StepCtx::source(value_scale);
            let n = rng.gen_range(1usize..=3);
            Shape::Chain { steps: gen_steps(rng, &mut ctx, n, Some(force)) }
        }
        OpKind::MinMax => {
            let func = if rng.gen_bool(0.5) { AggFunc::Min } else { AggFunc::Max };
            let width = rng.gen_range(0.6..1.4);
            Shape::Agg(AggSpec {
                func,
                axis: rng.gen_range(0usize..2),
                width,
                slide: rng.gen_range(0.3..0.9_f64).min(width),
                grouped: rng.gen_bool(0.65),
                pre: Vec::new(),
            })
        }
        OpKind::SumAvg => {
            let func = if rng.gen_bool(0.5) { AggFunc::Sum } else { AggFunc::Avg };
            let width = rng.gen_range(0.6..1.4);
            Shape::Agg(AggSpec {
                func,
                axis: rng.gen_range(0usize..2),
                width,
                slide: rng.gen_range(0.3..0.9_f64).min(width),
                // The continuous transform rejects ungrouped sum/avg
                // (frequency-dependent), so sum/avg is always grouped.
                grouped: true,
                pre: Vec::new(),
            })
        }
        OpKind::Join => {
            let mut lctx = StepCtx::source(value_scale);
            let mut rctx = StepCtx::source(value_scale);
            let nl = rng.gen_range(0usize..=1);
            let nr = rng.gen_range(0usize..=1);
            let left = gen_steps(rng, &mut lctx, nl, None);
            let right = gen_steps(rng, &mut rctx, nr, None);
            let on = match rng.gen_range(0u32..10) {
                0 => KeyJoin::Any,
                1 => KeyJoin::Ne,
                _ => KeyJoin::Eq,
            };
            Shape::Join(JoinSpec {
                lslot: rng.gen_range(0..lctx.modeled.len()),
                rslot: rng.gen_range(0..rctx.modeled.len()),
                left,
                right,
                window: rng.gen_range(0.4..1.2),
                op: if rng.gen_bool(0.5) { CmpOp::Lt } else { CmpOp::Gt },
                on,
            })
        }
    };
    GenPlan { shape }
}

/// Generates plans biased toward optimizer activity — the shapes
/// `opt_equiv` needs so every pass demonstrably fires:
///
/// * **Filter** — a map followed by a filter over a mapped attr: the
///   [`pulse_stream::PredicatePushdown`] swap site;
/// * **Map** — a two-row map followed by a one-row map reading only one of
///   them: the dead row is [`pulse_stream::ProjectionPrune`]'s site;
/// * **MinMax** — always *ungrouped*, over a two-row zero-offset map
///   prefix: prune narrows the prefix and
///   [`pulse_stream::partition_rewrite`] splits the envelope;
/// * **SumAvg** — grouped, over the same two-row prefix: prune fires on a
///   partitionable plan (the sharded third engine stays covered);
/// * **Join** — key condition always `Any`/`Ne`, so the partition rewrite
///   carries the join as its merge stage.
///
/// This is a separate entry point so the default [`gen_plan`] draw
/// sequence — which checked-in corpus seeds replay byte-for-byte — stays
/// untouched.
pub fn gen_plan_opt(rng: &mut StdRng, force: OpKind, value_scale: f64) -> GenPlan {
    let shape = match force {
        OpKind::Filter => {
            let mut ctx = StepCtx::source(value_scale);
            let nrows = rng.gen_range(1usize..=2);
            let map = gen_map(rng, &mut ctx, nrows, false);
            let filter = gen_filter(rng, &ctx);
            Shape::Chain { steps: vec![map, filter] }
        }
        OpKind::Map => {
            let mut ctx = StepCtx::source(value_scale);
            let wide = gen_map(rng, &mut ctx, 2, false);
            // One row over one of the two wide outputs: the other is dead.
            let a = ctx.modeled[rng.gen_range(0..ctx.modeled.len())];
            let coef = rng.gen_range(0.4..1.6) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let narrow = Step::Map {
                rows: vec![MapRow { terms: vec![(a, coef)], c: rng.gen_range(-15.0..15.0) }],
            };
            Shape::Chain { steps: vec![wide, narrow] }
        }
        OpKind::MinMax => {
            let func = if rng.gen_bool(0.5) { AggFunc::Min } else { AggFunc::Max };
            let width = rng.gen_range(0.6..1.4);
            let mut ctx = StepCtx::source(value_scale);
            let pre = vec![gen_map(rng, &mut ctx, 2, true)];
            Shape::Agg(AggSpec {
                func,
                axis: rng.gen_range(0usize..2),
                width,
                slide: rng.gen_range(0.3..0.9_f64).min(width),
                grouped: false,
                pre,
            })
        }
        OpKind::SumAvg => {
            let func = if rng.gen_bool(0.5) { AggFunc::Sum } else { AggFunc::Avg };
            let width = rng.gen_range(0.6..1.4);
            let mut ctx = StepCtx::source(value_scale);
            let pre = vec![gen_map(rng, &mut ctx, 2, true)];
            Shape::Agg(AggSpec {
                func,
                axis: rng.gen_range(0usize..2),
                width,
                slide: rng.gen_range(0.3..0.9_f64).min(width),
                grouped: true,
                pre,
            })
        }
        OpKind::Join => {
            let mut lctx = StepCtx::source(value_scale);
            let mut rctx = StepCtx::source(value_scale);
            let nl = rng.gen_range(0usize..=1);
            let nr = rng.gen_range(0usize..=1);
            let left = gen_steps(rng, &mut lctx, nl, None);
            let right = gen_steps(rng, &mut rctx, nr, None);
            let on = if rng.gen_bool(0.5) { KeyJoin::Any } else { KeyJoin::Ne };
            Shape::Join(JoinSpec {
                lslot: rng.gen_range(0..lctx.modeled.len()),
                rslot: rng.gen_range(0..rctx.modeled.len()),
                left,
                right,
                window: rng.gen_range(0.4..1.2),
                op: if rng.gen_bool(0.5) { CmpOp::Lt } else { CmpOp::Gt },
                on,
            })
        }
    };
    GenPlan { shape }
}

fn map_schema(rows: &[MapRow]) -> Schema {
    Schema::new(
        rows.iter()
            .enumerate()
            .map(|(i, _)| pulse_model::Attr::new(format!("m{i}"), AttrKind::Modeled))
            .collect(),
    )
}

fn row_expr(row: &MapRow) -> Expr {
    let mut e = Expr::c(row.c);
    for (a, coef) in &row.terms {
        e = e + Expr::attr(*a) * Expr::c(*coef);
    }
    e
}

fn add_steps(lp: &mut LogicalPlan, mut port: PortRef, steps: &[Step]) -> PortRef {
    for s in steps {
        port = match s {
            Step::Filter { attr, op, c } => lp.add(
                LogicalOp::Filter { pred: Pred::cmp(Expr::attr(*attr), *op, Expr::c(*c)) },
                vec![port],
            ),
            Step::Map { rows } => lp.add(
                LogicalOp::Map {
                    exprs: rows.iter().map(row_expr).collect(),
                    schema: map_schema(rows),
                },
                vec![port],
            ),
        };
    }
    port
}

impl GenPlan {
    /// Derives the logical plan. Returns the plan and its sink node index.
    pub fn to_logical(&self) -> (LogicalPlan, usize) {
        let mut lp = LogicalPlan::new(vec![pulse_workload::tracks::schema()]);
        match &self.shape {
            Shape::Chain { steps } => {
                add_steps(&mut lp, PortRef::Source(0), steps);
            }
            Shape::Agg(a) => {
                let port = add_steps(&mut lp, PortRef::Source(0), &a.pre);
                // With no prefix this is the track-axis attr (`axis · 2`);
                // with one, the prefix's model slot `axis % slots`.
                let slots = branch_slots(&a.pre);
                lp.add(
                    LogicalOp::Aggregate {
                        func: a.func,
                        attr: slots[a.axis % slots.len()],
                        width: a.width,
                        slide: a.slide,
                        group_by_key: a.grouped,
                    },
                    vec![port],
                );
            }
            Shape::Join(j) => {
                let l = add_steps(&mut lp, PortRef::Source(0), &j.left);
                let r = add_steps(&mut lp, PortRef::Source(0), &j.right);
                let (le, re) =
                    (self.slot_expr(&j.left, j.lslot), self.slot_expr(&j.right, j.rslot));
                lp.add(
                    LogicalOp::Join {
                        window: j.window,
                        pred: Pred::cmp(rebase(le, 0), j.op, rebase(re, 1)),
                        on_keys: j.on,
                    },
                    vec![l, r],
                );
            }
        }
        let sink = lp.nodes.len() - 1;
        (lp, sink)
    }

    /// Schema-level attr expression for model slot `slot` of a branch
    /// output (input 0 by default; [`rebase`] fixes the join side).
    fn slot_expr(&self, steps: &[Step], slot: usize) -> Expr {
        Expr::attr(branch_slots(steps)[slot])
    }

    /// Whether the plan's sink forces per-kind coverage accounting.
    pub fn kind(&self) -> OpKind {
        match &self.shape {
            Shape::Chain { steps } => {
                if steps.iter().any(|s| matches!(s, Step::Map { .. })) {
                    OpKind::Map
                } else {
                    OpKind::Filter
                }
            }
            Shape::Agg(a) => match a.func {
                AggFunc::Min | AggFunc::Max => OpKind::MinMax,
                _ => OpKind::SumAvg,
            },
            Shape::Join(_) => OpKind::Join,
        }
    }
}

/// Re-targets attribute references in a join predicate to input `input`.
fn rebase(e: Expr, input: usize) -> Expr {
    match e {
        Expr::Attr { attr, .. } => Expr::attr_of(input, attr),
        other => other,
    }
}

/// Schema-level attribute indices of a branch output's model slots, in
/// slot order. A branch with no map keeps the 4-attr source schema whose
/// modeled attrs are x (slot 0 → attr 0) and y (slot 1 → attr 2); after a
/// map, every output attr is modeled and slot order equals attr order.
pub fn branch_slots(steps: &[Step]) -> Vec<usize> {
    let mut slots = SRC_MODELED.to_vec();
    for s in steps {
        if let Step::Map { rows } = s {
            slots = (0..rows.len()).collect();
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forced_kinds_are_honored_and_plans_compile() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let force = KINDS[(seed % 5) as usize];
            let plan = gen_plan(&mut rng, force, 50.0);
            assert_eq!(plan.kind(), force, "seed {seed}");
            let (lp, sink) = plan.to_logical();
            assert_eq!(lp.sinks(), vec![sink], "seed {seed}: single sink");
            // Both engines must accept every generated plan.
            let _ = pulse_stream::Plan::compile(&lp);
            pulse_core::CPlan::compile(&lp).unwrap_or_else(|e| {
                panic!("seed {seed}: continuous transform rejected plan: {e}\n{lp}")
            });
        }
    }

    #[test]
    fn opt_generator_guarantees_pass_sites() {
        use pulse_stream::{partition_rewrite, Optimizer};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let force = KINDS[(seed % 5) as usize];
            let plan = gen_plan_opt(&mut rng, force, 50.0);
            let (lp, sink) = plan.to_logical();
            assert_eq!(lp.sinks(), vec![sink], "seed {seed}: single sink");
            let opt = Optimizer::standard().run(&lp);
            let fired = |name: &str| {
                opt.stats.iter().find(|s| s.name == name).map(|s| s.applied).unwrap_or(0)
            };
            match force {
                OpKind::Filter => assert!(fired("pushdown") >= 1, "seed {seed}\n{lp}"),
                OpKind::Map | OpKind::SumAvg => {
                    assert!(fired("prune") >= 1, "seed {seed}\n{lp}")
                }
                OpKind::MinMax | OpKind::Join => {
                    assert!(
                        partition_rewrite(&opt.plan).is_some(),
                        "seed {seed}: rewrite must fire\n{}",
                        opt.plan
                    );
                }
            }
            // Both engines must accept the optimized plan too.
            let _ = pulse_stream::Plan::compile(&opt.plan);
            pulse_core::CPlan::compile(&opt.plan).unwrap_or_else(|e| {
                panic!("seed {seed}: continuous transform rejected optimized plan: {e}")
            });
        }
    }

    #[test]
    fn residual_sign_matches_predicate_truth() {
        for (op, l, r) in [
            (CmpOp::Lt, 1.0, 2.0),
            (CmpOp::Le, 1.0, 2.0),
            (CmpOp::Gt, 3.0, 2.0),
            (CmpOp::Ge, 3.0, 2.0),
        ] {
            assert!(residual(op, l, r) > 0.0);
        }
        assert!(residual(CmpOp::Lt, 5.0, 2.0) < 0.0);
        assert!(residual(CmpOp::Gt, 1.0, 2.0) < 0.0);
        assert_eq!(residual(CmpOp::Lt, 1.0, 2.0), 1.0, "margin is boundary distance");
    }
}
