//! Partition rewrite: sharded prefix + single-threaded merge stage.
//!
//! A plan with one cross-key operator on an otherwise per-key DAG does not
//! have to fall back to a single thread wholesale: everything upstream of
//! the offending node is key-partitionable and can run sharded, with only
//! the cross-key operator itself (and whatever follows it) executing as a
//! serial merge stage over the prefix's — much sparser — output stream.
//!
//! Two shapes are rewritten:
//!
//! * **Ungrouped `min`/`max` aggregate.** The continuous min/max is an
//!   envelope over the live model segments, and envelopes decompose over
//!   any partition of the keys: `min_k x_k(t) = min_k (per-key envelope)`.
//!   The prefix appends a *grouped* copy of the aggregate (per-key partial
//!   envelopes, maintained shard-locally) and the merge stage folds those
//!   winners with an ungrouped aggregate of the same width. Ungrouped
//!   `sum`/`avg` is recognized but conservatively left alone: a cross-key
//!   sum is not an envelope, and the continuous engine has no partial-sum
//!   combiner to merge with (the unrewritten plan cannot run continuously
//!   either — `pulse_core::TransformError::NonGroupedSumAvg` — so nothing
//!   regresses).
//! * **`Any`/`Ne` join.** Each input subtree is per-key, so both branches
//!   run sharded; the join itself becomes the merge stage. The pairing is
//!   unchanged — the merge stage sees exactly the branch sink streams the
//!   single-threaded plan would have produced internally.
//!
//! The rewrite is refused (returns `None`) unless exactly one violation
//! exists, every non-violating node is strictly upstream or downstream of
//! it, and downstream nodes consume only the violation's output — the
//! conservative frontier where the split provably preserves the dataflow.

use crate::logical::{AggFunc, KeyJoin, LogicalNode, LogicalOp, LogicalPlan, PortRef};

/// One sharded prefix branch: a self-contained, key-partitionable plan
/// over a subset of the original sources.
#[derive(Debug, Clone)]
pub struct BranchPlan {
    pub plan: LogicalPlan,
    /// `sources[local] = original` source index mapping.
    pub sources: Vec<usize>,
    /// The branch's sink node; its output stream feeds the merge stage.
    pub sink: usize,
}

/// A plan split into sharded branches plus a serial merge stage.
#[derive(Debug, Clone)]
pub struct HybridPlan {
    pub branches: Vec<BranchPlan>,
    /// `wiring[suffix_source] = branch` — which branch's sink stream feeds
    /// each merge-stage source (a self-join wires one branch to both).
    pub wiring: Vec<usize>,
    /// The single-threaded merge stage; its sources are the branch sinks.
    pub suffix: LogicalPlan,
    /// The merge stage's sink node.
    pub suffix_sink: usize,
    /// Provenance line for explain surfaces.
    pub note: String,
}

/// Nodes reachable from `v` (inclusive) following consumer edges.
fn descendants(plan: &LogicalPlan, v: usize) -> Vec<bool> {
    let mut desc = vec![false; plan.nodes.len()];
    desc[v] = true;
    for (i, n) in plan.nodes.iter().enumerate() {
        if n.inputs.iter().any(|p| matches!(p, PortRef::Node(k) if desc[*k])) {
            desc[i] = true;
        }
    }
    desc
}

/// Nodes feeding `port` transitively (inclusive of the port's own node).
fn ancestors(plan: &LogicalPlan, port: PortRef) -> Vec<bool> {
    let mut anc = vec![false; plan.nodes.len()];
    let mut stack = vec![port];
    while let Some(p) = stack.pop() {
        if let PortRef::Node(i) = p {
            if !anc[i] {
                anc[i] = true;
                stack.extend(plan.nodes[i].inputs.iter().copied());
            }
        }
    }
    anc
}

/// Extracts the subplan rooted at `port` as a standalone branch. A bare
/// source root gets an identity pass-through filter so the branch has a
/// sink to stream from; the continuous compiler builds no operator for
/// it, so the branch emits each pushed segment itself.
fn extract_branch(plan: &LogicalPlan, port: PortRef) -> BranchPlan {
    let anc = ancestors(plan, port);
    // Sources referenced by the subtree, ascending for determinism.
    let mut sources: Vec<usize> = Vec::new();
    let note_source = |s: usize, sources: &mut Vec<usize>| {
        if !sources.contains(&s) {
            sources.push(s);
        }
    };
    if let PortRef::Source(s) = port {
        note_source(s, &mut sources);
    }
    for (i, n) in plan.nodes.iter().enumerate() {
        if anc[i] {
            for p in &n.inputs {
                if let PortRef::Source(s) = p {
                    note_source(*s, &mut sources);
                }
            }
        }
    }
    sources.sort_unstable();
    let src_local =
        |s: usize| sources.iter().position(|&o| o == s).expect("source collected above");
    let mut node_local = vec![usize::MAX; plan.nodes.len()];
    let mut bp = LogicalPlan::new(sources.iter().map(|&s| plan.sources[s].clone()).collect());
    for (i, n) in plan.nodes.iter().enumerate() {
        if !anc[i] {
            continue;
        }
        node_local[i] = bp.nodes.len();
        bp.nodes.push(LogicalNode {
            op: n.op.clone(),
            inputs: n
                .inputs
                .iter()
                .map(|p| match p {
                    PortRef::Source(s) => PortRef::Source(src_local(*s)),
                    PortRef::Node(k) => PortRef::Node(node_local[*k]),
                })
                .collect(),
        });
    }
    let sink = match port {
        PortRef::Node(i) => node_local[i],
        PortRef::Source(s) => {
            bp.nodes.push(LogicalNode {
                op: LogicalOp::Filter { pred: pulse_model::Pred::True },
                inputs: vec![PortRef::Source(src_local(s))],
            });
            bp.nodes.len() - 1
        }
    };
    BranchPlan { plan: bp, sources, sink }
}

/// Rebuilds the violation node and its descendants as the merge stage,
/// with the violation's inputs replaced by fresh sources. `None` if any
/// descendant consumes something other than the violation chain.
fn build_suffix(
    plan: &LogicalPlan,
    v: usize,
    v_op: LogicalOp,
    source_schemas: Vec<pulse_model::Schema>,
    desc: &[bool],
) -> Option<(LogicalPlan, usize)> {
    let mut suffix = LogicalPlan::new(source_schemas);
    let n_sources = suffix.sources.len();
    let mut node_local = vec![usize::MAX; plan.nodes.len()];
    node_local[v] = 0;
    suffix
        .nodes
        .push(LogicalNode { op: v_op, inputs: (0..n_sources).map(PortRef::Source).collect() });
    for (i, n) in plan.nodes.iter().enumerate() {
        if !desc[i] || i == v {
            continue;
        }
        let mut inputs = Vec::with_capacity(n.inputs.len());
        for p in &n.inputs {
            match p {
                // A downstream node reading a source or a prefix node
                // directly would need its own feed across the split.
                PortRef::Source(_) => return None,
                PortRef::Node(k) if !desc[*k] => return None,
                PortRef::Node(k) => inputs.push(PortRef::Node(node_local[*k])),
            }
        }
        node_local[i] = suffix.nodes.len();
        suffix.nodes.push(LogicalNode { op: n.op.clone(), inputs });
    }
    let sinks = suffix.sinks();
    if sinks.len() != 1 {
        return None;
    }
    Some((suffix, sinks[0]))
}

/// Attempts the partition rewrite. `None` when the plan is already
/// partitionable or no sound split exists.
pub fn partition_rewrite(plan: &LogicalPlan) -> Option<HybridPlan> {
    let violations = plan.key_partition_violations();
    let [violation] = violations.as_slice() else { return None };
    let v = violation.node;
    let desc = descendants(plan, v);
    match plan.nodes[v].op.clone() {
        LogicalOp::Aggregate { func, attr, width, slide, group_by_key: false } => {
            if !matches!(func, AggFunc::Min | AggFunc::Max) {
                return None; // sum/avg/count: no continuous partial combiner
            }
            let input = plan.nodes[v].inputs[0];
            // Every non-descendant must feed the aggregate.
            let anc = ancestors(plan, input);
            if (0..plan.nodes.len()).any(|i| !desc[i] && !anc[i]) {
                return None;
            }
            let mut branch = extract_branch(plan, input);
            let partial = branch.plan.add(
                LogicalOp::Aggregate { func, attr, width, slide, group_by_key: true },
                vec![PortRef::Node(branch.sink)],
            );
            let PortRef::Node(partial_idx) = partial else { unreachable!() };
            branch.sink = partial_idx;
            let partial_schema = branch.plan.schema_of(partial);
            let merge = LogicalOp::Aggregate { func, attr: 0, width, slide, group_by_key: false };
            let (suffix, suffix_sink) = build_suffix(plan, v, merge, vec![partial_schema], &desc)?;
            Some(HybridPlan {
                branches: vec![branch],
                wiring: vec![0],
                suffix,
                suffix_sink,
                note: format!(
                    "ungrouped {func:?} n{v} split: sharded per-key partial envelopes \
                     + serial global merge"
                ),
            })
        }
        LogicalOp::Join { window, pred, on_keys: on_keys @ (KeyJoin::Any | KeyJoin::Ne) } => {
            let (l, r) = (plan.nodes[v].inputs[0], plan.nodes[v].inputs[1]);
            let anc_l = ancestors(plan, l);
            let anc_r = ancestors(plan, r);
            if (0..plan.nodes.len()).any(|i| !desc[i] && !anc_l[i] && !anc_r[i]) {
                return None;
            }
            let (branches, wiring) = if l == r {
                (vec![extract_branch(plan, l)], vec![0, 0])
            } else {
                (vec![extract_branch(plan, l), extract_branch(plan, r)], vec![0, 1])
            };
            let schemas = wiring
                .iter()
                .map(|&b| branches[b].plan.schema_of(PortRef::Node(branches[b].sink)))
                .collect();
            let merge = LogicalOp::Join { window, pred, on_keys };
            let (suffix, suffix_sink) = build_suffix(plan, v, merge, schemas, &desc)?;
            Some(HybridPlan {
                branches,
                wiring,
                suffix,
                suffix_sink,
                note: format!(
                    "{on_keys:?}-join n{v} split: sharded per-key branches \
                     + serial join merge"
                ),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, Pred, Schema};

    fn src() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)])
    }

    #[test]
    fn ungrouped_min_splits_into_partial_and_merge() {
        let mut p = LogicalPlan::new(vec![src()]);
        let f = p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(0.0)) },
            vec![PortRef::Source(0)],
        );
        p.add(
            LogicalOp::Aggregate {
                func: AggFunc::Min,
                attr: 0,
                width: 2.0,
                slide: 1.0,
                group_by_key: false,
            },
            vec![f],
        );
        let hp = partition_rewrite(&p).expect("must split");
        assert_eq!(hp.branches.len(), 1);
        let b = &hp.branches[0];
        assert!(b.plan.is_key_partitionable(), "prefix must shard:\n{}", b.plan);
        assert_eq!(b.sources, vec![0]);
        // filter + grouped partial aggregate.
        assert_eq!(b.plan.nodes.len(), 2);
        assert!(matches!(
            b.plan.nodes[b.sink].op,
            LogicalOp::Aggregate { group_by_key: true, func: AggFunc::Min, .. }
        ));
        // Merge stage: single ungrouped aggregate over the partial stream.
        assert_eq!(hp.suffix.sources.len(), 1);
        assert_eq!(hp.suffix.sources[0].len(), 1);
        assert!(matches!(
            hp.suffix.nodes[hp.suffix_sink].op,
            LogicalOp::Aggregate { group_by_key: false, attr: 0, func: AggFunc::Min, .. }
        ));
        assert_eq!(hp.wiring, vec![0]);
    }

    #[test]
    fn cross_key_join_splits_into_two_branches() {
        let mut p = LogicalPlan::new(vec![src(), src()]);
        let f = p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(1.0)) },
            vec![PortRef::Source(0)],
        );
        let j = p.add(
            LogicalOp::Join {
                window: 0.5,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)),
                on_keys: KeyJoin::Ne,
            },
            vec![f, PortRef::Source(1)],
        );
        p.add(
            LogicalOp::Aggregate {
                func: AggFunc::Avg,
                attr: 0,
                width: 1.0,
                slide: 0.5,
                group_by_key: true,
            },
            vec![j],
        );
        let hp = partition_rewrite(&p).expect("must split");
        assert_eq!(hp.branches.len(), 2);
        assert!(hp.branches.iter().all(|b| b.plan.is_key_partitionable()));
        // Left branch: the filter. Right branch: identity pass-through.
        assert_eq!(hp.branches[0].sources, vec![0]);
        assert_eq!(hp.branches[1].sources, vec![1]);
        assert!(matches!(
            hp.branches[1].plan.nodes[hp.branches[1].sink].op,
            LogicalOp::Filter { pred: Pred::True }
        ));
        assert_eq!(hp.wiring, vec![0, 1]);
        // Merge stage: the join plus the downstream grouped aggregate.
        assert_eq!(hp.suffix.nodes.len(), 2);
        assert!(matches!(hp.suffix.nodes[0].op, LogicalOp::Join { on_keys: KeyJoin::Ne, .. }));
        assert_eq!(hp.suffix_sink, 1);
        assert_eq!(hp.suffix.sources[0].len(), 2);
        assert_eq!(hp.suffix.sources[1].len(), 2);
    }

    #[test]
    fn self_join_shares_one_branch() {
        let mut p = LogicalPlan::new(vec![src()]);
        p.add(
            LogicalOp::Join { window: 0.5, pred: Pred::True, on_keys: KeyJoin::Ne },
            vec![PortRef::Source(0), PortRef::Source(0)],
        );
        let hp = partition_rewrite(&p).expect("must split");
        assert_eq!(hp.branches.len(), 1);
        assert_eq!(hp.wiring, vec![0, 0]);
    }

    #[test]
    fn unsupported_shapes_are_refused() {
        // Partitionable plan: nothing to do.
        let mut p = LogicalPlan::new(vec![src()]);
        p.add(LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Source(0)]);
        assert!(partition_rewrite(&p).is_none());

        // Ungrouped sum: no partial combiner, refused.
        let mut p = LogicalPlan::new(vec![src()]);
        p.add(
            LogicalOp::Aggregate {
                func: AggFunc::Sum,
                attr: 0,
                width: 2.0,
                slide: 1.0,
                group_by_key: false,
            },
            vec![PortRef::Source(0)],
        );
        assert!(partition_rewrite(&p).is_none());

        // Two violations: frontier is ambiguous, refused.
        let mut p = LogicalPlan::new(vec![src(), src()]);
        let j = p.add(
            LogicalOp::Join { window: 0.5, pred: Pred::True, on_keys: KeyJoin::Any },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        p.add(
            LogicalOp::Aggregate {
                func: AggFunc::Min,
                attr: 0,
                width: 2.0,
                slide: 1.0,
                group_by_key: false,
            },
            vec![j],
        );
        assert!(partition_rewrite(&p).is_none());
    }
}
