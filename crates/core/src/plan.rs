//! Continuous query plans — Pulse's query transform.
//!
//! §III-C: "Pulse performs operator-by-operator transformation of regular
//! stream queries, instantiating an internal query plan comprised of
//! simultaneous equation systems." [`CPlan::compile`] maps each logical
//! operator to its continuous counterpart over the same DAG; segments are
//! the first-class items flowing between nodes.

use crate::binding::Binding;
use crate::cops::{CFilter, CGroupBy, CJoin, CMap, CMinMax, COperator, CSumAvg, CUnion};
use crate::lineage::{self, SharedLineage};
use pulse_model::Segment;
use pulse_obs::Tracer;
use pulse_stream::{AggFunc, LogicalOp, LogicalPlan, OpMetrics, PortRef};

/// Errors from the continuous query transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// Frequency-based aggregates have no continuous form (§III-B
    /// "Transformation Limitations").
    FrequencyAggregate(&'static str),
    /// The aggregated attribute carries no model.
    AttrNotModeled { node: usize, attr: usize },
    /// Continuous sum/avg requires per-key grouping: a single integral over
    /// interleaved multi-key segments is not well defined in this build.
    NonGroupedSumAvg { node: usize },
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::FrequencyAggregate(name) => {
                write!(f, "aggregate `{name}` is frequency-based and cannot be transformed")
            }
            TransformError::AttrNotModeled { node, attr } => {
                write!(f, "node {node}: aggregate attribute {attr} is not a modeled attribute")
            }
            TransformError::NonGroupedSumAvg { node } => {
                write!(f, "node {node}: continuous sum/avg requires group_by_key")
            }
        }
    }
}

impl std::error::Error for TransformError {}

type Consumer = (usize, usize);

/// The buffers a push works in, kept across pushes so their allocations
/// are reused: the produced-segment arena, which of its segments are
/// results, the work queue of `(node, port, arena index)`, and the
/// output buffer each operator call appends to.
#[derive(Default)]
struct PushBuffers {
    produced: Vec<Segment>,
    is_result: Vec<bool>,
    queue: Vec<(usize, usize, usize)>,
    scratch: Vec<Segment>,
}

/// A compiled continuous plan.
pub struct CPlan {
    nodes: Vec<Box<dyn COperator>>,
    node_edges: Vec<Vec<Consumer>>,
    source_edges: Vec<Vec<Consumer>>,
    sinks: Vec<bool>,
    lineage: SharedLineage,
    bufs: PushBuffers,
}

impl CPlan {
    /// Transforms a logical plan into equation-system operators.
    pub fn compile(logical: &LogicalPlan) -> Result<CPlan, TransformError> {
        let store = lineage::shared();
        let mut nodes: Vec<Box<dyn COperator>> = Vec::with_capacity(logical.nodes.len());
        let mut node_edges = vec![Vec::new(); logical.nodes.len()];
        let mut source_edges = vec![Vec::new(); logical.sources.len()];
        for (i, ln) in logical.nodes.iter().enumerate() {
            let in_schema = |port: usize| Binding::new(logical.schema_of(ln.inputs[port]));
            let op: Box<dyn COperator> = match &ln.op {
                LogicalOp::Filter { pred } => {
                    Box::new(CFilter::new(pred.clone(), in_schema(0), store.clone()))
                }
                LogicalOp::Map { exprs, .. } => {
                    Box::new(CMap::new(exprs.clone(), in_schema(0), store.clone()))
                }
                LogicalOp::Join { window, pred, on_keys } => Box::new(CJoin::new(
                    *window,
                    pred.clone(),
                    *on_keys,
                    [in_schema(0), in_schema(1)],
                    store.clone(),
                )),
                LogicalOp::Union => Box::new(CUnion::new()),
                LogicalOp::Aggregate { func, attr, width, slide: _, group_by_key } => {
                    let binding = in_schema(0);
                    let slot = binding
                        .model_slot(*attr)
                        .ok_or(TransformError::AttrNotModeled { node: i, attr: *attr })?;
                    let width = *width;
                    match func {
                        AggFunc::Count => return Err(TransformError::FrequencyAggregate("count")),
                        AggFunc::Min | AggFunc::Max => {
                            let is_min = matches!(func, AggFunc::Min);
                            if *group_by_key {
                                let st = store.clone();
                                Box::new(CGroupBy::new(Box::new(move |_| {
                                    Box::new(CMinMax::new(is_min, slot, width, st.clone()))
                                })))
                            } else {
                                Box::new(CMinMax::new(is_min, slot, width, store.clone()))
                            }
                        }
                        AggFunc::Sum | AggFunc::Avg => {
                            if !*group_by_key {
                                return Err(TransformError::NonGroupedSumAvg { node: i });
                            }
                            let avg = matches!(func, AggFunc::Avg);
                            let st = store.clone();
                            Box::new(CGroupBy::new(Box::new(move |_| {
                                Box::new(CSumAvg::new(avg, slot, width, st.clone()))
                            })))
                        }
                    }
                }
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
        Ok(CPlan {
            nodes,
            node_edges,
            source_edges,
            sinks,
            lineage: store,
            bufs: PushBuffers::default(),
        })
    }

    /// Sentinel index standing for the pushed source segment in the
    /// produced-buffer queue.
    const SRC: usize = usize::MAX;

    /// Pushes one segment from source `source`, returning query outputs.
    /// [`Self::push_traced`] with recording off.
    pub fn push(&mut self, source: usize, seg: &Segment) -> Vec<Segment> {
        self.push_traced(source, seg, &mut Tracer::off())
    }

    /// Pushes one segment from source `source`, returning query outputs;
    /// operators stamp their equation-system work into `tr` as they go.
    ///
    /// Produced segments live in one arena; the work queue and fan-out
    /// edges carry indices into it, so a segment consumed by several
    /// operators (or kept as a result *and* consumed downstream) is never
    /// cloned.
    ///
    /// The pushed segment is snapshotted into lineage here, once; each
    /// operator snapshots only the outputs it emits.
    pub fn push_traced(&mut self, source: usize, seg: &Segment, tr: &mut Tracer) -> Vec<Segment> {
        for n in &mut self.nodes {
            n.reset_slack();
        }
        self.lineage.lock().register(seg);
        let PushBuffers { produced, is_result, queue, scratch } = &mut self.bufs;
        produced.clear();
        is_result.clear();
        queue.clear();
        queue.extend(self.source_edges[source].iter().map(|&(n, p)| (n, p, Self::SRC)));
        while let Some((node, port, idx)) = queue.pop() {
            scratch.clear();
            let input = if idx == Self::SRC { seg } else { &produced[idx] };
            self.nodes[node].process_traced(port, input, tr, scratch);
            for out in scratch.drain(..) {
                let oi = produced.len();
                is_result.push(self.sinks[node]);
                for &(n, p) in &self.node_edges[node] {
                    queue.push((n, p, oi));
                }
                produced.push(out);
            }
        }
        produced.drain(..).zip(is_result.drain(..)).filter_map(|(s, r)| r.then_some(s)).collect()
    }

    /// Pushes a batch of segments (time-ordered per source).
    pub fn push_all(&mut self, source: usize, segs: &[Segment]) -> Vec<Segment> {
        let mut out = Vec::new();
        for s in segs {
            out.extend(self.push(source, s));
        }
        out
    }

    /// End-of-stream flush through the DAG (same arena scheme as `push`).
    pub fn finish(&mut self) -> Vec<Segment> {
        let mut results = Vec::new();
        let mut scratch = Vec::new();
        for node in 0..self.nodes.len() {
            let mut pending = Vec::new();
            self.nodes[node].flush(&mut pending);
            let mut produced: Vec<Segment> = Vec::new();
            let mut is_result: Vec<bool> = Vec::new();
            let mut queue: Vec<(usize, usize, usize)> = Vec::new();
            for out in pending {
                let oi = produced.len();
                is_result.push(self.sinks[node]);
                for &(n, p) in &self.node_edges[node] {
                    queue.push((n, p, oi));
                }
                produced.push(out);
                while let Some((n, p, idx)) = queue.pop() {
                    scratch.clear();
                    self.nodes[n].process(p, &produced[idx], &mut scratch);
                    for o in scratch.drain(..) {
                        let oi = produced.len();
                        is_result.push(self.sinks[n]);
                        for &(n2, p2) in &self.node_edges[n] {
                            queue.push((n2, p2, oi));
                        }
                        produced.push(o);
                    }
                }
            }
            results.extend(produced.into_iter().zip(is_result).filter_map(|(s, r)| r.then_some(s)));
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
    /// `cops.<op>.<metric>`, merging operators of the same kind (e.g. both
    /// filters of a join query sum into `cops.filter.*`), the lineage
    /// store's size as `state.lineage_snapshots` / `state.lineage_bytes`,
    /// and the joins' state as `state.join_segments` (live segments, both
    /// sides) / `state.join_due` (pending due-time entries).
    pub fn export_metrics(&self, reg: &pulse_obs::MetricsRegistry) {
        self.export_metrics_with(reg, &|name| name.to_string());
    }

    /// [`Self::export_metrics`] with Prometheus-style labels attached to
    /// every metric name (`cops.filter.items_in{shard="3"}`), so the
    /// sharded runtime can publish every worker's operator counters into the
    /// same registry without them clobbering each other.
    pub fn export_metrics_labeled(
        &self,
        reg: &pulse_obs::MetricsRegistry,
        labels: &[(&str, &str)],
    ) {
        self.export_metrics_with(reg, &|name| pulse_obs::labeled(name, labels));
    }

    /// Shared export core: publishes every operator's counters under the
    /// name produced by `decorate` (identity or label block).
    fn export_metrics_with(
        &self,
        reg: &pulse_obs::MetricsRegistry,
        decorate: &dyn Fn(&str) -> String,
    ) {
        let mut per: std::collections::BTreeMap<&'static str, OpMetrics> =
            std::collections::BTreeMap::new();
        for n in &self.nodes {
            per.entry(n.name()).or_default().absorb(&n.metrics());
        }
        for (name, m) in per {
            for (field, v) in m.fields() {
                reg.counter(&decorate(&format!("cops.{name}.{field}"))).set(v);
            }
        }
        let lineage = self.lineage.lock();
        reg.counter(&decorate("state.lineage_snapshots")).set(lineage.len() as u64);
        reg.counter(&decorate("state.lineage_bytes")).set(lineage.heap_bytes() as u64);
        let (segments, due) = self
            .nodes
            .iter()
            .filter_map(|n| n.as_any().downcast_ref::<CJoin>())
            .fold((0, 0), |(s, d), j| {
                let (js, jd) = j.state_sizes();
                (s + js, d + jd)
            });
        reg.counter(&decorate("state.join_segments")).set(segments as u64);
        reg.counter(&decorate("state.join_due")).set(due as u64);
    }

    /// The shared lineage store (for bound inversion and validation).
    pub fn lineage(&self) -> &SharedLineage {
        &self.lineage
    }

    /// Operator access for state inspection (e.g. sampling an envelope).
    pub fn op(&self, node: usize) -> &dyn COperator {
        self.nodes[node].as_ref()
    }

    /// Number of operator nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Slack of the most recent null result across selective operators, if
    /// any (drives the accuracy↔slack mode alternation of §IV).
    pub fn last_slack(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| n.last_slack())
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.min(s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{CmpOp, Poly, Span};
    use pulse_model::{AttrKind, Expr, Pred, Schema};
    use pulse_stream::KeyJoin;

    fn src() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    #[test]
    fn compile_rejects_count() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Count,
                attr: 0,
                width: 1.0,
                slide: 1.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        assert!(matches!(CPlan::compile(&lp), Err(TransformError::FrequencyAggregate("count"))));
    }

    #[test]
    fn compile_rejects_non_grouped_sum() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Sum,
                attr: 0,
                width: 1.0,
                slide: 1.0,
                group_by_key: false,
            },
            vec![PortRef::Source(0)],
        );
        assert!(matches!(CPlan::compile(&lp), Err(TransformError::NonGroupedSumAvg { node: 0 })));
    }

    #[test]
    fn compile_rejects_unmodeled_aggregate_attr() {
        let schema = Schema::of(&[("flag", AttrKind::Unmodeled)]);
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Min,
                attr: 0,
                width: 1.0,
                slide: 1.0,
                group_by_key: false,
            },
            vec![PortRef::Source(0)],
        );
        assert!(matches!(
            CPlan::compile(&lp),
            Err(TransformError::AttrNotModeled { node: 0, attr: 0 })
        ));
    }

    #[test]
    fn filter_plan_end_to_end() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(3.0)) },
            vec![PortRef::Source(0)],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        // x = t on [0, 10): x > 3 on (3, 10).
        let out = plan.push(0, &seg(1, 0.0, 10.0, 0.0, 1.0));
        assert_eq!(out.len(), 1);
        assert!((out[0].span.lo - 3.0).abs() < 1e-8);
        assert_eq!(plan.metrics().systems_solved, 1);
    }

    #[test]
    fn join_after_filters() {
        let mut lp = LogicalPlan::new(vec![src(), src()]);
        let f0 = lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Ge, Expr::c(0.0)) },
            vec![PortRef::Source(0)],
        );
        lp.add(
            LogicalOp::Join {
                window: 100.0,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)),
                on_keys: KeyJoin::Any,
            },
            vec![f0, PortRef::Source(1)],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        // Left: x = t (≥ 0 everywhere on the span). Right: y = 5.
        assert!(plan.push(0, &seg(1, 0.0, 10.0, 0.0, 1.0)).is_empty());
        let out = plan.push(1, &seg(2, 0.0, 10.0, 5.0, 0.0));
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        // Lineage chains back to both source segments.
        let store = plan.lineage().lock();
        let sources = store.sources_of(out[0].id);
        assert_eq!(sources.len(), 2);
    }

    #[test]
    fn grouped_avg_plan() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Avg,
                attr: 0,
                width: 2.0,
                slide: 1.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        let out1 = plan.push(0, &seg(1, 0.0, 10.0, 4.0, 0.0));
        let out2 = plan.push(0, &seg(2, 0.0, 10.0, 8.0, 0.0));
        assert_eq!(out1.len(), 1);
        assert_eq!(out2.len(), 1);
        assert!((out1[0].models[0].eval(5.0) - 4.0).abs() < 1e-9);
        assert!((out2[0].models[0].eval(5.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn union_then_filter() {
        let mut lp = LogicalPlan::new(vec![src(), src()]);
        let u = lp.add(LogicalOp::Union, vec![PortRef::Source(0), PortRef::Source(1)]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(0.0)) },
            vec![u],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        // Source 0: positive constant → passes whole span.
        let out = plan.push(0, &seg(1, 0.0, 5.0, 2.0, 0.0));
        assert_eq!(out.len(), 1);
        // Source 1: negative constant → dropped.
        let out = plan.push(1, &seg(2, 0.0, 5.0, -2.0, 0.0));
        assert!(out.is_empty());
    }

    #[test]
    fn slack_surfaces_from_plan() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Eq, Expr::c(50.0)) },
            vec![PortRef::Source(0)],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        let out = plan.push(0, &seg(1, 0.0, 10.0, 0.0, 1.0)); // x peaks at 10 → slack 40
        assert!(out.is_empty());
        let slack = plan.last_slack().unwrap();
        assert!((slack - 40.0).abs() < 1e-3, "slack {slack}");
    }
}
