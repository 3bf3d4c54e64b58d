//! The paper's benchmark queries (§V-B), built once against the logical
//! plan and compiled to whichever engine an experiment needs.

use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, Pred, Schema};
use pulse_stream::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};
use pulse_workload::{ais, moving, nyse};

/// The MACD query (moving average convergence/divergence):
///
/// ```sql
/// select symbol, S.ap - L.ap as diff from
///   (select symbol, avg(price) ... [size short advance slide]) as S
///   join
///   (select symbol, avg(price) ... [size long advance slide]) as L
///   on (S.Symbol = L.Symbol) where S.ap > L.ap
/// ```
pub fn macd(short: f64, long: f64, slide: f64) -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![nyse::schema()]);
    let s = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: short,
            slide,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    let l = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: long,
            slide,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    let j = lp.add(
        LogicalOp::Join {
            window: slide,
            pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::attr_of(1, 0)),
            on_keys: KeyJoin::Eq,
        },
        vec![s, l],
    );
    lp.add(
        LogicalOp::Map {
            exprs: vec![Expr::attr(0) - Expr::attr(1)],
            schema: Schema::of(&[("diff", AttrKind::Modeled)]),
        },
        vec![j],
    );
    lp
}

/// The AIS "following" query: a self-join on distinct vessel ids computing
/// pairwise separation, a long windowed average per pair, and a threshold
/// filter.
///
/// Distances are kept *squared* in both engines (thresholds squared
/// accordingly): `sqrt` in a projection has no polynomial form, and
/// squaring preserves the comparison semantics exactly — see DESIGN.md.
pub fn following(join_window: f64, avg_window: f64, avg_slide: f64, threshold: f64) -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![ais::schema()]);
    // Self-join: the single source wired to both ports.
    let j = lp.add(
        LogicalOp::Join { window: join_window, pred: Pred::True, on_keys: KeyJoin::Ne },
        vec![PortRef::Source(0), PortRef::Source(0)],
    );
    // Join schema: l.x=0 l.vx=1 l.y=2 l.vy=3 r.x=4 r.vx=5 r.y=6 r.vy=7.
    let dist2 = Expr::dist2(Expr::attr(0), Expr::attr(2), Expr::attr(4), Expr::attr(6));
    let d = lp.add(
        LogicalOp::Map { exprs: vec![dist2], schema: Schema::of(&[("dist2", AttrKind::Modeled)]) },
        vec![j],
    );
    let a = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: avg_window,
            slide: avg_slide,
            group_by_key: true,
        },
        vec![d],
    );
    lp.add(
        LogicalOp::Filter {
            pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(threshold * threshold)),
        },
        vec![a],
    );
    lp
}

/// The intro's collision-detection query: join on distinct object ids where
/// the separation stays below `c` (distance squared form).
pub fn collision(window: f64, c: f64) -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![moving::schema()]);
    let dist2 = Expr::dist2(
        Expr::attr_of(0, 0),
        Expr::attr_of(0, 2),
        Expr::attr_of(1, 0),
        Expr::attr_of(1, 2),
    );
    lp.add(
        LogicalOp::Join {
            window,
            pred: Pred::cmp(dist2, CmpOp::Lt, Expr::c(c * c)),
            on_keys: KeyJoin::Ne,
        },
        vec![PortRef::Source(0), PortRef::Source(0)],
    );
    lp
}

/// Microbenchmark plans over the moving-object schema.
pub mod micro {
    use super::*;

    /// Fig. 5i: a simple position filter.
    pub fn filter(threshold: f64) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![moving::schema()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(threshold)) },
            vec![PortRef::Source(0)],
        );
        lp
    }

    /// Fig. 5ii / 7i: min aggregate over x (multi-model envelope, no
    /// grouping — §III-B's key-attribute scenario).
    pub fn min_agg(width: f64, slide: f64) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![moving::schema()]);
        lp.add(
            LogicalOp::Aggregate { func: AggFunc::Min, attr: 0, width, slide, group_by_key: false },
            vec![PortRef::Source(0)],
        );
        lp
    }

    /// Fig. 5iii / 7ii: position-comparison join of two object streams.
    pub fn join(window: f64) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![moving::schema(), moving::schema()]);
        let dist2 = Expr::dist2(
            Expr::attr_of(0, 0),
            Expr::attr_of(0, 2),
            Expr::attr_of(1, 0),
            Expr::attr_of(1, 2),
        );
        lp.add(
            LogicalOp::Join {
                window,
                pred: Pred::cmp(dist2, CmpOp::Lt, Expr::c(50.0 * 50.0)),
                on_keys: KeyJoin::Any,
            },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_core::CPlan;
    use pulse_stream::Plan;

    #[test]
    fn all_queries_compile_on_both_engines() {
        for lp in [
            macd(10.0, 60.0, 2.0),
            following(10.0, 600.0, 10.0, 1000.0),
            collision(1.0, 100.0),
            micro::filter(0.0),
            micro::min_agg(10.0, 2.0),
            micro::join(0.1),
        ] {
            let _ = Plan::compile(&lp);
            CPlan::compile(&lp).expect("continuous transform must succeed");
        }
    }

    #[test]
    fn macd_shape() {
        let lp = macd(10.0, 60.0, 2.0);
        assert_eq!(lp.nodes.len(), 4);
        assert_eq!(lp.sinks(), vec![3]);
    }

    #[test]
    fn following_shape() {
        let lp = following(10.0, 600.0, 10.0, 1000.0);
        assert_eq!(lp.nodes.len(), 4);
        assert_eq!(lp.sinks(), vec![3]);
    }

    /// The partition rewrite splits `following` at its `Ne` self-join, so
    /// the branch is only the identity filter over the source. That filter
    /// compiles to nothing: each worker hands the merge stage the pushed
    /// segments themselves. Stationary vessels make every tuple after a
    /// key's first one suppressed, so the hybrid run must equal the
    /// unrewritten single-threaded run bit for bit at any shard count.
    #[test]
    fn following_hybrid_branch_is_a_bare_source() {
        use pulse_core::{HybridRuntime, Predictor, PulseRuntime, RuntimeConfig};
        use pulse_model::Tuple;
        use pulse_stream::{fingerprint, partition_rewrite};

        let lp = following(1.0, 2.0, 0.5, 1000.0);
        let hp = partition_rewrite(&lp).expect("the Ne self-join splits");
        assert_eq!(hp.branches.len(), 1);
        let b = &hp.branches[0];
        assert!(matches!(b.plan.nodes[b.sink].op, LogicalOp::Filter { pred: Pred::True }));
        assert!(CPlan::compile(&b.plan).unwrap().op(b.sink).is_none());

        let feed: Vec<Tuple> = (0..60)
            .flat_map(|r| {
                (0..5u64).map(move |k| {
                    let (x, y) = (100.0 * k as f64, 50.0 * k as f64);
                    Tuple::new(k, r as f64 * 0.1, vec![x, 0.0, y, 0.0])
                })
            })
            .collect();
        let cfg = RuntimeConfig { horizon: 5.0, bound: 0.05, ..Default::default() };
        let predictors = || vec![Predictor::Clause(ais::stream_model())];
        let mut single = PulseRuntime::with_predictors(predictors(), &lp, cfg.clone()).unwrap();
        let mut want = Vec::new();
        for t in &feed {
            want.extend(single.on_tuple(0, t));
        }
        assert!(!want.is_empty(), "no pair stayed under the threshold");
        let mut stats = None;
        for shards in 1..=3 {
            let mut h = HybridRuntime::new(predictors(), &hp, cfg.clone(), shards).unwrap();
            h.set_sync_every(16);
            for t in &feed {
                h.on_tuple(0, t);
            }
            let run = h.finish();
            // The branch emits each pushed segment once, as itself.
            assert_eq!(run.stats.outputs, run.stats.segments_pushed, "{shards} shards");
            assert_eq!(*stats.get_or_insert(run.stats), run.stats, "{shards} shards");
            assert_eq!(fingerprint(&run.outputs), fingerprint(&want), "{shards} shards");
        }
    }
}
