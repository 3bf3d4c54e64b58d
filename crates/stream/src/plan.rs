//! Physical discrete plans and the push-based executor.
//!
//! A [`Plan`] is the compiled form of a [`crate::logical::LogicalPlan`] for
//! the tuple-at-a-time engine: operators wired into a DAG, executed by
//! pushing each source tuple through topological order. Query outputs are
//! the tuples produced by sink operators.

use crate::logical::{LogicalOp, LogicalPlan, PortRef};
use crate::metrics::OpMetrics;
use crate::ops::{AggregateOp, FilterOp, JoinOp, MapOp, Operator, UnionOp};
use pulse_model::Tuple;

/// An edge target: node index + input port.
type Consumer = (usize, usize);

/// A compiled discrete plan.
pub struct Plan {
    nodes: Vec<Box<dyn Operator>>,
    /// consumers of each node's output
    node_edges: Vec<Vec<Consumer>>,
    /// consumers of each external source
    source_edges: Vec<Vec<Consumer>>,
    /// nodes whose output is a query output
    sinks: Vec<bool>,
}

impl Plan {
    /// Compiles a logical plan for the discrete engine.
    pub fn compile(logical: &LogicalPlan) -> Plan {
        let mut nodes: Vec<Box<dyn Operator>> = Vec::with_capacity(logical.nodes.len());
        let mut node_edges = vec![Vec::new(); logical.nodes.len()];
        let mut source_edges = vec![Vec::new(); logical.sources.len()];
        for (i, ln) in logical.nodes.iter().enumerate() {
            let op: Box<dyn Operator> = match &ln.op {
                LogicalOp::Filter { pred } => Box::new(FilterOp::new(pred.clone())),
                LogicalOp::Map { exprs, .. } => Box::new(MapOp::new(exprs.clone())),
                LogicalOp::Join { window, pred, on_keys } => {
                    Box::new(JoinOp::new(*window, pred.clone(), *on_keys))
                }
                LogicalOp::Aggregate { func, attr, width, slide, group_by_key } => {
                    Box::new(AggregateOp::new(*func, *attr, *width, *slide, *group_by_key))
                }
                LogicalOp::Union => Box::new(UnionOp::new()),
            };
            nodes.push(op);
            for (port, input) in ln.inputs.iter().enumerate() {
                match input {
                    PortRef::Source(s) => source_edges[*s].push((i, port)),
                    PortRef::Node(n) => node_edges[*n].push((i, port)),
                }
            }
        }
        let mut sinks = vec![false; logical.nodes.len()];
        for s in logical.sinks() {
            sinks[s] = true;
        }
        Plan { nodes, node_edges, source_edges, sinks }
    }

    /// Pushes one tuple from source `source`, returning query outputs.
    pub fn push(&mut self, source: usize, tuple: &Tuple) -> Vec<Tuple> {
        let mut results = Vec::new();
        let mut queue: Vec<(usize, usize, Tuple)> =
            self.source_edges[source].iter().map(|&(n, p)| (n, p, tuple.clone())).collect();
        let mut scratch = Vec::new();
        while let Some((node, port, t)) = queue.pop() {
            scratch.clear();
            self.nodes[node].process(port, &t, &mut scratch);
            for out in scratch.drain(..) {
                if self.sinks[node] {
                    results.push(out.clone());
                }
                for &(n, p) in &self.node_edges[node] {
                    queue.push((n, p, out.clone()));
                }
            }
        }
        results
    }

    /// Pushes one tuple like [`Plan::push`], additionally recording the
    /// outputs of every node whose index is flagged in `tapped` into
    /// `taps` as `(node, tuple)` pairs — sink or not. The live guarantee
    /// auditor uses this to observe interior aggregate closes (e.g. the
    /// two Avg nodes of a MACD plan) that a sink-only drive would lose
    /// inside the downstream join.
    pub fn push_tap(
        &mut self,
        source: usize,
        tuple: &Tuple,
        tapped: &[bool],
        taps: &mut Vec<(usize, Tuple)>,
    ) -> Vec<Tuple> {
        let mut results = Vec::new();
        let mut queue: Vec<(usize, usize, Tuple)> =
            self.source_edges[source].iter().map(|&(n, p)| (n, p, tuple.clone())).collect();
        let mut scratch = Vec::new();
        while let Some((node, port, t)) = queue.pop() {
            scratch.clear();
            self.nodes[node].process(port, &t, &mut scratch);
            for out in scratch.drain(..) {
                if self.sinks[node] {
                    results.push(out.clone());
                }
                if tapped.get(node).copied().unwrap_or(false) {
                    taps.push((node, out.clone()));
                }
                for &(n, p) in &self.node_edges[node] {
                    queue.push((n, p, out.clone()));
                }
            }
        }
        results
    }

    /// End-of-stream: flushes every operator in topological order (nodes
    /// are stored topologically — a logical plan can only wire to already
    /// added nodes), routing flushed tuples downstream. Returns the query
    /// outputs this produces.
    pub fn finish(&mut self) -> Vec<Tuple> {
        let mut results = Vec::new();
        let mut scratch = Vec::new();
        for node in 0..self.nodes.len() {
            scratch.clear();
            self.nodes[node].flush(&mut scratch);
            let pending: Vec<Tuple> = std::mem::take(&mut scratch);
            for out in pending {
                if self.sinks[node] {
                    results.push(out.clone());
                }
                // Route through descendants with the normal push machinery.
                let mut queue: Vec<(usize, usize, Tuple)> =
                    self.node_edges[node].iter().map(|&(n, p)| (n, p, out.clone())).collect();
                while let Some((n, p, t)) = queue.pop() {
                    let mut produced = Vec::new();
                    self.nodes[n].process(p, &t, &mut produced);
                    for o in produced {
                        if self.sinks[n] {
                            results.push(o.clone());
                        }
                        for &(n2, p2) in &self.node_edges[n] {
                            queue.push((n2, p2, o.clone()));
                        }
                    }
                }
            }
        }
        results
    }

    /// Sum of all operator metrics.
    pub fn metrics(&self) -> OpMetrics {
        let mut m = OpMetrics::default();
        for n in &self.nodes {
            m.absorb(&n.metrics());
        }
        m
    }

    /// Metrics of a single node.
    pub fn node_metrics(&self, node: usize) -> OpMetrics {
        self.nodes[node].metrics()
    }

    /// Publishes every operator's counters into `reg` under
    /// `stream.<op>.<metric>`, merging operators of the same kind.
    pub fn export_metrics(&self, reg: &pulse_obs::MetricsRegistry) {
        let mut per: std::collections::BTreeMap<&'static str, OpMetrics> =
            std::collections::BTreeMap::new();
        for n in &self.nodes {
            per.entry(n.name()).or_default().absorb(&n.metrics());
        }
        for (name, m) in per {
            for (field, v) in m.fields() {
                reg.counter(&format!("stream.{name}.{field}")).set(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggFunc, KeyJoin};
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, Pred, Schema};

    fn src() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn tup(key: u64, ts: f64, v: f64) -> Tuple {
        Tuple::new(key, ts, vec![v])
    }

    #[test]
    fn filter_then_aggregate_pipeline() {
        let mut lp = LogicalPlan::new(vec![src()]);
        let f = lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Ge, Expr::c(0.0)) },
            vec![PortRef::Source(0)],
        );
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Sum,
                attr: 0,
                width: 10.0,
                slide: 10.0,
                group_by_key: true,
            },
            vec![f],
        );
        let mut plan = Plan::compile(&lp);
        let mut outs = Vec::new();
        for i in 0..25 {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 }; // odd ones filtered out
            outs.extend(plan.push(0, &tup(0, i as f64, v)));
        }
        // Windows [0,10) and [10,20) have closed: 5 positive tuples each.
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].values[0], 5.0);
        assert_eq!(outs[1].values[0], 5.0);
        assert!(plan.metrics().comparisons >= 25);
    }

    #[test]
    fn join_of_two_sources() {
        let mut lp = LogicalPlan::new(vec![src(), src()]);
        lp.add(
            LogicalOp::Join {
                window: 5.0,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)),
                on_keys: KeyJoin::Any,
            },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        let mut plan = Plan::compile(&lp);
        assert!(plan.push(0, &tup(1, 0.0, 1.0)).is_empty());
        let out = plan.push(1, &tup(2, 0.1, 2.0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, vec![1.0, 2.0]);
        // 1.0 < 0.5 fails: no output.
        assert!(plan.push(1, &tup(2, 0.2, 0.5)).is_empty());
    }

    #[test]
    fn fan_out_to_two_sinks() {
        // One source feeding two filters: both are sinks.
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(0.0)) },
            vec![PortRef::Source(0)],
        );
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Ge, Expr::c(0.0)) },
            vec![PortRef::Source(0)],
        );
        let mut plan = Plan::compile(&lp);
        let out = plan.push(0, &tup(0, 0.0, 3.0));
        assert_eq!(out.len(), 1); // only the ≥0 branch fires
        let out = plan.push(0, &tup(0, 1.0, -3.0));
        assert_eq!(out.len(), 1); // only the <0 branch fires
    }

    #[test]
    fn finish_routes_flushed_windows_downstream() {
        // Aggregate → filter: windows flushed at end-of-stream must still
        // pass through the filter before reaching the output.
        let mut lp = LogicalPlan::new(vec![src()]);
        let a = lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Sum,
                attr: 0,
                width: 10.0,
                slide: 10.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(3.0)) },
            vec![a],
        );
        let mut plan = Plan::compile(&lp);
        let mut out = Vec::new();
        // Window [0,10): sum 2 → filtered when it closes mid-stream.
        // Window [10,20): sum 5 → only flushed at end-of-stream.
        for i in 0..2 {
            out.extend(plan.push(0, &tup(0, i as f64, 1.0)));
        }
        for i in 0..5 {
            out.extend(plan.push(0, &tup(0, 10.0 + i as f64, 1.0)));
        }
        assert!(out.is_empty(), "first window fails the filter: {out:?}");
        let flushed = plan.finish();
        assert_eq!(flushed.len(), 1, "{flushed:?}");
        assert_eq!(flushed[0].values[0], 5.0);
    }

    #[test]
    fn union_merges_two_sources() {
        let mut lp = LogicalPlan::new(vec![src(), src()]);
        lp.add(LogicalOp::Union, vec![PortRef::Source(0), PortRef::Source(1)]);
        let mut plan = Plan::compile(&lp);
        let mut out = plan.push(0, &tup(1, 0.0, 1.0));
        out.extend(plan.push(1, &tup(2, 0.5, 2.0)));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].values[0], 1.0);
        assert_eq!(out[1].values[0], 2.0);
    }

    #[test]
    fn macd_shape_plan_runs() {
        // Two aggregates over one source joined on key equality via values:
        // the structural shape of the paper's MACD query.
        let mut lp = LogicalPlan::new(vec![src()]);
        let short = lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Avg,
                attr: 0,
                width: 4.0,
                slide: 2.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        let long = lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Avg,
                attr: 0,
                width: 8.0,
                slide: 2.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        let j = lp.add(
            LogicalOp::Join {
                window: 0.5,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::attr_of(1, 0)),
                on_keys: KeyJoin::Any,
            },
            vec![short, long],
        );
        lp.add(
            LogicalOp::Map {
                exprs: vec![Expr::attr(0) - Expr::attr(1)],
                schema: Schema::of(&[("diff", AttrKind::Modeled)]),
            },
            vec![j],
        );
        let mut plan = Plan::compile(&lp);
        let mut outs = Vec::new();
        // Rising price: short-term avg exceeds long-term avg eventually.
        for i in 0..100 {
            let ts = i as f64 * 0.25;
            outs.extend(plan.push(0, &tup(1, ts, ts * ts)));
        }
        assert!(!outs.is_empty(), "MACD crossover should fire on rising data");
        assert!(outs.iter().all(|t| t.values.len() == 1));
        assert!(outs.iter().all(|t| t.values[0] > 0.0));
    }

    #[test]
    fn push_tap_records_interior_node_outputs() {
        // Aggregate → filter that rejects everything: the sink never
        // fires, but a tap on the aggregate node still sees its closes.
        let mut lp = LogicalPlan::new(vec![src()]);
        let a = lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Sum,
                attr: 0,
                width: 10.0,
                slide: 10.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(1e9)) },
            vec![a],
        );
        let mut plan = Plan::compile(&lp);
        let tapped = vec![true, false];
        let mut taps = Vec::new();
        let mut outs = Vec::new();
        for i in 0..25 {
            outs.extend(plan.push_tap(0, &tup(0, i as f64, 1.0), &tapped, &mut taps));
        }
        assert!(outs.is_empty(), "filter rejects every close: {outs:?}");
        assert_eq!(taps.len(), 2, "windows [0,10) and [10,20): {taps:?}");
        assert!(taps.iter().all(|(node, _)| *node == 0));
        assert_eq!(taps[0].1.values[0], 10.0);
        // Tapping with no flags set behaves exactly like push.
        let mut no_taps = Vec::new();
        plan.push_tap(0, &tup(0, 25.0, 1.0), &[false, false], &mut no_taps);
        assert!(no_taps.is_empty());
    }
}
