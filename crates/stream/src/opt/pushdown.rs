//! Predicate pushdown.
//!
//! Two sites, both justified by attribute provenance:
//!
//! * **filter-after-map** — the filter's predicate is rewritten by
//!   substituting the map's row expressions for its attribute references
//!   (exact symbolic substitution; the expression language is closed under
//!   it), and the two nodes swap roles in place. `σ_p(π_e(X)) ≡
//!   π_e(σ_{p∘e}(X))` for any expression list `e`.
//! * **filter-after-join** — when every attribute the predicate reads comes
//!   from one join side, the filter slides below the join onto that side's
//!   input; the original node degenerates to a pass-through (`Pred::True`),
//!   which the continuous compiler builds no operator for. Sound because
//!   the join treats its value predicate and the downstream filter
//!   conjunctively over the same pair span, and a one-sided predicate's
//!   truth does not depend on the pairing.

use super::{consumer_counts, insert_node, Pass, Rewrite};
use crate::logical::{LogicalOp, LogicalPlan, PortRef};
use pulse_model::{Expr, Pred};

pub struct PredicatePushdown;

/// Replaces every `Attr { input: 0, attr }` reference with `rows[attr]` —
/// the composition `p ∘ e` of a predicate over map output with the map's
/// row expressions. `Time` is left alone: both sides of the swap evaluate
/// at the same `t`.
fn subst_expr(e: &Expr, rows: &[Expr]) -> Expr {
    match e {
        Expr::Const(_) | Expr::Time => e.clone(),
        Expr::Attr { input: 0, attr } => rows[*attr].clone(),
        // Filters are unary; a non-zero input reference cannot occur in a
        // well-formed filter predicate, keep it untouched.
        Expr::Attr { .. } => e.clone(),
        Expr::Add(a, b) => Expr::Add(Box::new(subst_expr(a, rows)), Box::new(subst_expr(b, rows))),
        Expr::Sub(a, b) => Expr::Sub(Box::new(subst_expr(a, rows)), Box::new(subst_expr(b, rows))),
        Expr::Mul(a, b) => Expr::Mul(Box::new(subst_expr(a, rows)), Box::new(subst_expr(b, rows))),
        Expr::Div(a, b) => Expr::Div(Box::new(subst_expr(a, rows)), Box::new(subst_expr(b, rows))),
        Expr::Neg(a) => Expr::Neg(Box::new(subst_expr(a, rows))),
        Expr::Pow(a, n) => Expr::Pow(Box::new(subst_expr(a, rows)), *n),
        Expr::Sqrt(a) => Expr::Sqrt(Box::new(subst_expr(a, rows))),
        Expr::Abs(a) => Expr::Abs(Box::new(subst_expr(a, rows))),
    }
}

fn subst_pred(p: &Pred, rows: &[Expr]) -> Pred {
    match p {
        Pred::True | Pred::False => p.clone(),
        Pred::Cmp { lhs, op, rhs } => {
            Pred::Cmp { lhs: subst_expr(lhs, rows), op: *op, rhs: subst_expr(rhs, rows) }
        }
        Pred::And(a, b) => subst_pred(a, rows).and(subst_pred(b, rows)),
        Pred::Or(a, b) => subst_pred(a, rows).or(subst_pred(b, rows)),
        Pred::Not(a) => subst_pred(a, rows).not(),
    }
}

/// Shifts a one-sided join predicate onto the side's own attribute space:
/// identity for the left side, `attr - left_width` for the right.
fn shift_pred(p: &Pred, delta: usize) -> Pred {
    fn shift_expr(e: &Expr, delta: usize) -> Expr {
        match e {
            Expr::Attr { input: 0, attr } => Expr::Attr { input: 0, attr: attr - delta },
            Expr::Const(_) | Expr::Time | Expr::Attr { .. } => e.clone(),
            Expr::Add(a, b) => {
                Expr::Add(Box::new(shift_expr(a, delta)), Box::new(shift_expr(b, delta)))
            }
            Expr::Sub(a, b) => {
                Expr::Sub(Box::new(shift_expr(a, delta)), Box::new(shift_expr(b, delta)))
            }
            Expr::Mul(a, b) => {
                Expr::Mul(Box::new(shift_expr(a, delta)), Box::new(shift_expr(b, delta)))
            }
            Expr::Div(a, b) => {
                Expr::Div(Box::new(shift_expr(a, delta)), Box::new(shift_expr(b, delta)))
            }
            Expr::Neg(a) => Expr::Neg(Box::new(shift_expr(a, delta))),
            Expr::Pow(a, n) => Expr::Pow(Box::new(shift_expr(a, delta)), *n),
            Expr::Sqrt(a) => Expr::Sqrt(Box::new(shift_expr(a, delta))),
            Expr::Abs(a) => Expr::Abs(Box::new(shift_expr(a, delta))),
        }
    }
    match p {
        Pred::True | Pred::False => p.clone(),
        Pred::Cmp { lhs, op, rhs } => {
            Pred::Cmp { lhs: shift_expr(lhs, delta), op: *op, rhs: shift_expr(rhs, delta) }
        }
        Pred::And(a, b) => shift_pred(a, delta).and(shift_pred(b, delta)),
        Pred::Or(a, b) => shift_pred(a, delta).or(shift_pred(b, delta)),
        Pred::Not(a) => shift_pred(a, delta).not(),
    }
}

impl Pass for PredicatePushdown {
    fn name(&self) -> &'static str {
        "pushdown"
    }

    fn apply(&self, plan: &LogicalPlan) -> Option<Rewrite> {
        let consumers = consumer_counts(plan);
        for f in 0..plan.nodes.len() {
            let LogicalOp::Filter { pred } = &plan.nodes[f].op else { continue };
            if matches!(pred, Pred::True) {
                continue; // pass-through left behind by an earlier push
            }
            let PortRef::Node(up) = plan.nodes[f].inputs[0] else { continue };
            if consumers[up] != 1 {
                // Another consumer still wants the unfiltered stream.
                continue;
            }
            match &plan.nodes[up].op {
                LogicalOp::Map { exprs, schema } => {
                    // Swap in place: `up` becomes the composed filter,
                    // `f` becomes the map. Node count and indices are
                    // untouched, so consumers of `f` are unaffected.
                    let mut new = plan.clone();
                    new.nodes[up].op = LogicalOp::Filter { pred: subst_pred(pred, exprs) };
                    new.nodes[f].op =
                        LogicalOp::Map { exprs: exprs.clone(), schema: schema.clone() };
                    return Some(Rewrite {
                        plan: new,
                        node_map: (0..plan.nodes.len()).collect(),
                        note: format!("filter n{f} pushed below map n{up}"),
                    });
                }
                LogicalOp::Join { .. } => {
                    let lw = plan.schema_of(plan.nodes[up].inputs[0]).len();
                    let attrs = pred.referenced_attrs();
                    let side = if attrs.iter().all(|&(_, a)| a < lw) {
                        0
                    } else if attrs.iter().all(|&(_, a)| a >= lw) {
                        1
                    } else {
                        continue; // reads both sides: stays above the join
                    };
                    let pushed = if side == 0 { pred.clone() } else { shift_pred(pred, lw) };
                    let side_input = plan.nodes[up].inputs[side];
                    let (mut new, node_map) =
                        insert_node(plan, up, LogicalOp::Filter { pred: pushed }, vec![side_input]);
                    new.nodes[node_map[up]].inputs[side] = PortRef::Node(up);
                    new.nodes[node_map[f]].op = LogicalOp::Filter { pred: Pred::True };
                    return Some(Rewrite {
                        plan: new,
                        node_map,
                        note: format!("filter n{f} pushed below join n{up} onto input {side}"),
                    });
                }
                _ => continue,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::KeyJoin;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Schema, Tuple};

    fn src() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)])
    }

    #[test]
    fn map_swap_composes_predicate() {
        // map y = 2x + v; filter y > 3  ⇒  filter 2x + v > 3; map.
        let mut p = LogicalPlan::new(vec![src()]);
        let m = p.add(
            LogicalOp::Map {
                exprs: vec![Expr::attr(0) * Expr::c(2.0) + Expr::attr(1)],
                schema: Schema::of(&[("y", AttrKind::Modeled)]),
            },
            vec![PortRef::Source(0)],
        );
        p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(3.0)) },
            vec![m],
        );
        let rw = PredicatePushdown.apply(&p).expect("must fire");
        let LogicalOp::Filter { pred } = &rw.plan.nodes[0].op else { panic!("n0 not a filter") };
        // Composed predicate agrees with the original pipeline pointwise.
        for (x, v) in [(0.5, 0.0), (1.0, 1.5), (2.0, -1.0), (3.0, 0.0)] {
            let t = Tuple::new(1, 0.0, vec![x, v]);
            let mapped = Tuple::new(1, 0.0, vec![2.0 * x + v]);
            let original = Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(3.0));
            assert_eq!(pred.eval(&[&t], 0.0), original.eval(&[&mapped], 0.0), "x={x} v={v}");
        }
        assert!(matches!(rw.plan.nodes[1].op, LogicalOp::Map { .. }));
        // No renumbering: same sink index, pushdown is done after one round.
        assert_eq!(rw.node_map, vec![0, 1]);
        assert!(PredicatePushdown.apply(&rw.plan).is_none());
    }

    #[test]
    fn join_filter_slides_onto_owning_side() {
        // join(l, r); filter on r's second attribute (index lw+1 = 3).
        let mut p = LogicalPlan::new(vec![src(), src()]);
        let j = p.add(
            LogicalOp::Join { window: 1.0, pred: Pred::True, on_keys: KeyJoin::Any },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(3), CmpOp::Lt, Expr::c(0.0)) },
            vec![j],
        );
        let rw = PredicatePushdown.apply(&p).expect("must fire");
        // New shape: n0 = pushed filter on src1, n1 = join reading it,
        // n2 = pass-through filter.
        let LogicalOp::Filter { pred } = &rw.plan.nodes[0].op else { panic!("no pushed filter") };
        assert_eq!(*pred, Pred::cmp(Expr::attr(1), CmpOp::Lt, Expr::c(0.0)));
        assert_eq!(rw.plan.nodes[0].inputs, vec![PortRef::Source(1)]);
        assert_eq!(rw.plan.nodes[1].inputs, vec![PortRef::Source(0), PortRef::Node(0)]);
        let LogicalOp::Filter { pred } = &rw.plan.nodes[2].op else { panic!("no residual") };
        assert_eq!(*pred, Pred::True);
        assert_eq!(rw.node_map, vec![1, 2], "join and filter shifted by the insertion");
        assert_eq!(rw.plan.sinks(), vec![2]);
        assert!(PredicatePushdown.apply(&rw.plan).is_none(), "True residual must not re-fire");
    }

    #[test]
    fn shared_map_output_blocks_the_push() {
        // The map feeds both a filter and an aggregate: pushing would
        // filter the aggregate's input too.
        let mut p = LogicalPlan::new(vec![src()]);
        let m = p.add(
            LogicalOp::Map {
                exprs: vec![Expr::attr(0)],
                schema: Schema::of(&[("y", AttrKind::Modeled)]),
            },
            vec![PortRef::Source(0)],
        );
        p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(0.0)) },
            vec![m],
        );
        p.add(
            LogicalOp::Aggregate {
                func: crate::logical::AggFunc::Min,
                attr: 0,
                width: 2.0,
                slide: 1.0,
                group_by_key: true,
            },
            vec![m],
        );
        assert!(PredicatePushdown.apply(&p).is_none());
    }

    #[test]
    fn both_sides_referenced_stays_put() {
        let mut p = LogicalPlan::new(vec![src(), src()]);
        let j = p.add(
            LogicalOp::Join { window: 1.0, pred: Pred::True, on_keys: KeyJoin::Any },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::attr(2)) },
            vec![j],
        );
        assert!(PredicatePushdown.apply(&p).is_none());
    }
}
