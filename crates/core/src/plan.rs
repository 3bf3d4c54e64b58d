//! Continuous query plans — Pulse's query transform.
//!
//! §III-C: "Pulse performs operator-by-operator transformation of regular
//! stream queries, instantiating an internal query plan comprised of
//! simultaneous equation systems." [`CPlan::compile`] maps each logical
//! operator to its continuous counterpart over the same DAG; segments are
//! the first-class items flowing between nodes. A filter whose predicate
//! normalizes to `true` has no system to solve and compiles to nothing, and
//! a map that is its producer's only consumer compiles into that producer.

use crate::binding::Binding;
use crate::cops::{CFilter, CGroupBy, CJoin, CMap, CMinMax, COperator, CSumAvg, CUnion, Emitter};
use crate::lineage::LineageStore;
use pulse_model::{Pred, Segment};
use pulse_obs::{Phase, Tracer};
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

/// A compiled node: its operator, `None` for a pass-through filter and
/// for a fused map, and the map fused into it, with the map's logical
/// index. The map is boxed and kept here, not in a list of its own, so
/// the plan allocates for fusion only what it allocated for the map
/// operator before: a list of unboxed maps (an allocation past a
/// kilobyte) added a fifth to `macd`'s set-up time.
struct Node {
    op: Option<Box<dyn COperator>>,
    map: Option<(usize, Box<CMap>)>,
}

/// A compiled continuous plan, indexed by logical node.
pub struct CPlan {
    nodes: Vec<Node>,
    node_edges: Vec<Vec<Consumer>>,
    source_edges: Vec<Vec<Consumer>>,
    /// Whether a node's outputs are query results: a sink's, or those of
    /// the producer a sink map is fused into.
    sinks: Vec<bool>,
    /// Every segment the plan has seen or made, with its parents: what
    /// bound inversion walks (§IV-B). Operators write to it through
    /// [`COperator::process`].
    lineage: LineageStore,
    bufs: PushBuffers,
    /// [`Self::last_slack`]: resolved at the end of a push that appended
    /// nothing, `None` after one that appended results.
    slack: Option<f64>,
}

impl CPlan {
    /// Transforms a logical plan into equation-system operators.
    ///
    /// A filter whose predicate normalizes to [`Pred::True`] (the residue
    /// predicate pushdown leaves, the partition rewrite's identity branch,
    /// or one written by hand) maps every input to itself, so it gets no
    /// operator: its consumers attach to its input, transitively through
    /// chains of such filters. When it is a sink, its edge stays, and a
    /// push copies the segment arriving on it into the results at the
    /// position its output had, so a sink over a source returns the pushed
    /// segment itself.
    ///
    /// A map fuses into its input when that input is a node that compiles
    /// to an operator and the map is its only consumer. The producer then
    /// projects each output through the map's programs before it is
    /// snapshotted or queued (see [`Emitter`]), so an answer is one
    /// segment with one lineage snapshot, not two. The map keeps its
    /// logical index: `op` and `node_metrics` return its operator, which
    /// counts its projections as before, and the producer's consumers are
    /// the map's.
    pub fn compile(logical: &LogicalPlan) -> Result<CPlan, TransformError> {
        let mut nodes: Vec<Node> = Vec::with_capacity(logical.nodes.len());
        let mut node_edges = vec![Vec::new(); logical.nodes.len()];
        let mut source_edges = vec![Vec::new(); logical.sources.len()];
        let consumers = |port: PortRef| {
            logical.nodes.iter().flat_map(|ln| &ln.inputs).filter(|&&q| q == port).count()
        };
        for (i, ln) in logical.nodes.iter().enumerate() {
            let in_schema = |port: usize| Binding::new(logical.schema_of(ln.inputs[port]));
            let op: Option<Box<dyn COperator>> = match &ln.op {
                LogicalOp::Filter { pred } => {
                    let pred = pred.normalize();
                    if pred == Pred::True {
                        None
                    } else {
                        Some(Box::new(CFilter::new(pred, in_schema(0))))
                    }
                }
                LogicalOp::Map { exprs, .. } => {
                    let map = Box::new(CMap::new(exprs.clone(), in_schema(0)));
                    match ln.inputs[0] {
                        PortRef::Node(p)
                            if nodes[p].op.is_some() && consumers(ln.inputs[0]) == 1 =>
                        {
                            nodes[p].map = Some((i, map));
                            None
                        }
                        _ => Some(map),
                    }
                }
                LogicalOp::Join { window, pred, on_keys } => Some(Box::new(CJoin::new(
                    *window,
                    pred.clone(),
                    *on_keys,
                    [in_schema(0), in_schema(1)],
                ))),
                LogicalOp::Union => Some(Box::new(CUnion::new())),
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
                                Some(Box::new(CGroupBy::new(Box::new(move |_| {
                                    Box::new(CMinMax::new(is_min, slot, width))
                                }))))
                            } else {
                                Some(Box::new(CMinMax::new(is_min, slot, width)))
                            }
                        }
                        AggFunc::Sum | AggFunc::Avg => {
                            if !*group_by_key {
                                return Err(TransformError::NonGroupedSumAvg { node: i });
                            }
                            let avg = matches!(func, AggFunc::Avg);
                            Some(Box::new(CGroupBy::new(Box::new(move |_| {
                                Box::new(CSumAvg::new(avg, slot, width))
                            }))))
                        }
                    }
                }
            };
            nodes.push(Node { op, map: None });
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
        // A fused producer takes its map's consumers and sink flag; nothing
        // reaches the map itself.
        for (p, node) in nodes.iter().enumerate() {
            if let Some((m, _)) = node.map {
                node_edges[p] = std::mem::take(&mut node_edges[m]);
                sinks[p] = std::mem::replace(&mut sinks[m], false);
            }
        }
        // Splice each pass-through non-sink out of its producers' edge
        // lists, its consumers taking its place in order: the LIFO queue
        // then visits them exactly when it would have visited them after
        // the filter.
        let splice = |edges: &[Consumer]| {
            let mut out = Vec::with_capacity(edges.len());
            let mut stack: Vec<Consumer> = edges.iter().rev().copied().collect();
            while let Some((n, p)) = stack.pop() {
                if nodes[n].op.is_some() || sinks[n] {
                    out.push((n, p));
                } else {
                    stack.extend(node_edges[n].iter().rev().copied());
                }
            }
            out
        };
        let source_edges = source_edges.iter().map(|e| splice(e)).collect();
        let node_edges = node_edges.iter().map(|e| splice(e)).collect();
        Ok(CPlan {
            nodes,
            node_edges,
            source_edges,
            sinks,
            lineage: LineageStore::default(),
            bufs: PushBuffers::default(),
            slack: None,
        })
    }

    /// Sentinel index standing for the pushed source segment in the
    /// produced-buffer queue.
    const SRC: usize = usize::MAX;

    /// Pushes one segment from source `source`, returning query outputs:
    /// [`Self::push_traced`] with recording off, into a fresh `Vec`.
    pub fn push(&mut self, source: usize, seg: &Segment) -> Vec<Segment> {
        let mut results = Vec::new();
        self.push_traced(source, seg, &mut Tracer::off(), &mut results);
        results
    }

    /// Pushes one segment from source `source` and appends the query
    /// outputs to `results`, after whatever it already holds, so a caller
    /// that keeps its buffer allocates nothing per push; operators stamp
    /// their equation-system work into `tr` as they go.
    ///
    /// The pushed segment is snapshotted into lineage here, once; every
    /// output is snapshotted once, by the [`Emitter`] its operator hands
    /// it to.
    ///
    /// Operators only record their null results; when the push appends
    /// nothing, their slack is resolved here, before returning, for
    /// [`Self::last_slack`], and timed as the profiler's `slack` phase.
    pub fn push_traced(
        &mut self,
        source: usize,
        seg: &Segment,
        tr: &mut Tracer,
        results: &mut Vec<Segment>,
    ) {
        for n in self.nodes.iter_mut().filter_map(|n| n.op.as_mut()) {
            n.reset_slack();
        }
        self.lineage.register(seg);
        let queue = &mut self.bufs.queue;
        queue.clear();
        queue.extend(self.source_edges[source].iter().map(|&(n, p)| (n, p, Self::SRC)));
        let start = results.len();
        self.drain(seg, tr, results);
        self.slack = None;
        if results.len() == start {
            let m = tr.enter(Phase::Slack);
            for n in self.nodes.iter_mut().filter_map(|n| n.op.as_mut()) {
                if let Some(s) = n.resolve_slack() {
                    self.slack = Some(self.slack.map_or(s, |a: f64| a.min(s)));
                }
            }
            tr.leave(m);
        }
    }

    /// Runs the work queue to empty, `SRC` entries reading `seg`, and
    /// appends the results to `results` in the order they were produced.
    ///
    /// Produced segments live in one arena; the work queue and fan-out
    /// edges carry indices into it, so a segment consumed by several
    /// operators (or kept as a result *and* consumed downstream) is never
    /// cloned. An entry for a pass-through sink, which has no operator,
    /// copies its input into the arena as a result.
    fn drain(&mut self, seg: &Segment, tr: &mut Tracer, results: &mut Vec<Segment>) {
        let CPlan { nodes, node_edges, sinks, lineage, bufs, .. } = self;
        let PushBuffers { produced, is_result, queue, scratch } = bufs;
        while let Some((node, port, idx)) = queue.pop() {
            let input = if idx == Self::SRC { seg } else { &produced[idx] };
            let Node { op: Some(op), map } = &mut nodes[node] else {
                let out = input.clone();
                is_result.push(true);
                produced.push(out);
                continue;
            };
            scratch.clear();
            let map = map.as_mut().map(|(_, map)| &mut **map);
            op.process(port, input, tr, &mut Emitter::fused(lineage, map, scratch));
            for out in scratch.drain(..) {
                let oi = produced.len();
                is_result.push(sinks[node]);
                for &(n, p) in &node_edges[node] {
                    queue.push((n, p, oi));
                }
                produced.push(out);
            }
        }
        results.extend(
            produced.drain(..).zip(is_result.drain(..)).filter_map(|(s, r)| r.then_some(s)),
        );
    }

    /// Every operator: the nodes' and the fused maps'.
    fn ops(&self) -> impl Iterator<Item = &dyn COperator> {
        self.nodes.iter().flat_map(|n| {
            let map = n.map.as_ref().map(|(_, map)| &**map as &dyn COperator);
            n.op.as_deref().into_iter().chain(map)
        })
    }

    /// Sum of all operator metrics.
    pub fn metrics(&self) -> OpMetrics {
        let mut m = OpMetrics::default();
        for n in self.ops() {
            m.absorb(&n.metrics());
        }
        m
    }

    /// Metrics of a single node (zeros for a pass-through filter).
    pub fn node_metrics(&self, node: usize) -> OpMetrics {
        self.op(node).map(|n| n.metrics()).unwrap_or_default()
    }

    /// Publishes every operator's counters into `reg` under
    /// `cops.<op>.<metric>`, merging operators of the same kind (e.g. both
    /// filters of a join query sum into `cops.filter.*`), the lineage
    /// store's size as `state.lineage_snapshots` / `state.lineage_bytes`,
    /// and the joins' state as `state.join_segments` (stored segments, both
    /// sides, including dead ones a keyed join's next sweep frees) /
    /// `state.join_horizons` (keyed joins' horizon log entries).
    ///
    /// `labels` are attached Prometheus-style to every name
    /// (`cops.filter.items_in{shard="3"}`), so the hybrid runtime's
    /// workers and merge stage publish into one registry without
    /// clobbering each other; with none, the names are bare.
    pub fn export_metrics(&self, reg: &pulse_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        let set = |name: &str, v: u64| reg.counter(&pulse_obs::labeled(name, labels)).set(v);
        let mut per: std::collections::BTreeMap<&'static str, OpMetrics> =
            std::collections::BTreeMap::new();
        for n in self.ops() {
            per.entry(n.name()).or_default().absorb(&n.metrics());
        }
        for (name, m) in per {
            for (field, v) in m.fields() {
                set(&format!("cops.{name}.{field}"), v);
            }
        }
        set("state.lineage_snapshots", self.lineage.len() as u64);
        set("state.lineage_bytes", self.lineage.heap_bytes() as u64);
        let (segments, horizons) = self
            .ops()
            .filter_map(|n| n.as_any().downcast_ref::<CJoin>())
            .fold((0, 0), |(s, h), j| {
                let (js, jh) = j.state_sizes();
                (s + js, h + jh)
            });
        set("state.join_segments", segments as u64);
        set("state.join_horizons", horizons as u64);
    }

    /// The plan's lineage store (for bound inversion and validation).
    pub fn lineage(&self) -> &LineageStore {
        &self.lineage
    }

    /// Mutable access to the lineage store, for its settings
    /// ([`LineageStore::set_gradients`]) and garbage collection
    /// ([`LineageStore::gc_before`]).
    pub fn lineage_mut(&mut self) -> &mut LineageStore {
        &mut self.lineage
    }

    /// Operator access for state inspection (e.g. sampling an envelope);
    /// `None` for a pass-through filter, which compiles to no operator. A
    /// fused map's is the operator its producer projects through.
    pub fn op(&self, node: usize) -> Option<&dyn COperator> {
        self.nodes[node].op.as_deref().or_else(|| {
            let (_, map) =
                self.nodes.iter().find_map(|n| n.map.as_ref().filter(|m| m.0 == node))?;
            Some(&**map as &dyn COperator)
        })
    }

    /// Number of logical nodes, pass-through filters included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Slack of the last push's null results: the smallest over the
    /// selective operators that recorded any in their last call of the
    /// push (drives the accuracy↔slack mode alternation of §IV). Defined
    /// only after a push that appended nothing; `None` after one that
    /// appended results, or when no operator recorded a null result.
    pub fn last_slack(&self) -> Option<f64> {
        self.slack
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
        let sources = plan.lineage().sources_of(out[0].id);
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

    #[test]
    fn push_traced_appends_after_the_buffer_and_resolves_slack_only_on_none() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(50.0)) },
            vec![PortRef::Source(0)],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        let held = seg(9, 0.0, 1.0, 7.0, 0.0);
        let mut results = vec![held.clone()];
        // A null result appends nothing; what the buffer already held is
        // not this push's, so the slack resolves.
        plan.push_traced(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut Tracer::off(), &mut results);
        assert_eq!(results, std::slice::from_ref(&held));
        let slack = plan.last_slack().unwrap();
        assert!((slack - 40.0).abs() < 1e-3, "slack {slack}");
        // A hit lands after the held segment and clears the slack.
        plan.push_traced(0, &seg(1, 10.0, 100.0, 0.0, 1.0), &mut Tracer::off(), &mut results);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0], held);
        assert_eq!((results[1].key, results[1].span), (1, Span::new(50.0, 100.0)));
        assert_eq!(plan.last_slack(), None);
    }

    #[test]
    fn slack_resolution_is_timed_in_its_own_cell() {
        let mut lp = LogicalPlan::new(vec![src()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(50.0)) },
            vec![PortRef::Source(0)],
        );
        let mut plan = CPlan::compile(&lp).unwrap();
        let (mut tr, mut results) = (Tracer::off(), Vec::new());
        pulse_obs::set_prof_enabled(true);
        // A null result resolves its slack; a hit resolves none.
        plan.push_traced(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut tr, &mut results);
        plan.push_traced(0, &seg(1, 10.0, 100.0, 0.0, 1.0), &mut tr, &mut results);
        pulse_obs::set_prof_enabled(false);
        assert_eq!(results.len(), 1);
        assert_eq!(tr.phases().count(Phase::Slack), 1);
    }

    fn pass() -> LogicalOp {
        LogicalOp::Filter { pred: Pred::True }
    }

    /// A filter that holds on every test segment but compiles to a
    /// `CFilter`, which is what a `true` filter ran as before.
    fn always() -> LogicalOp {
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-1e9)) }
    }

    /// Everything but the id: what a pass-through must preserve.
    fn content(segs: &[Segment]) -> Vec<(u64, Span, Vec<Poly>, Vec<f64>)> {
        segs.iter().map(|s| (s.key, s.span, s.models.to_vec(), s.unmodeled.to_vec())).collect()
    }

    /// `filters` chained over source 0: the plan and the chain's end.
    fn chain(filters: &[LogicalOp]) -> (LogicalPlan, PortRef) {
        let mut lp = LogicalPlan::new(vec![src()]);
        let mut port = PortRef::Source(0);
        for f in filters {
            port = lp.add(f.clone(), vec![port]);
        }
        (lp, port)
    }

    /// [`chain`] under a grouped min.
    fn min_over(filters: &[LogicalOp]) -> LogicalPlan {
        let (mut lp, port) = chain(filters);
        let min = LogicalOp::Aggregate {
            func: AggFunc::Min,
            attr: 0,
            width: 2.0,
            slide: 1.0,
            group_by_key: true,
        };
        lp.add(min, vec![port]);
        lp
    }

    fn arrivals() -> Vec<Segment> {
        (0..12)
            .map(|i| {
                let lo = i as f64 * 0.5;
                seg(i % 3, lo, lo + 1.0, (i * 7 % 5) as f64, if i % 2 == 0 { 0.5 } else { -0.5 })
            })
            .collect()
    }

    #[test]
    fn true_filters_compile_to_nothing() {
        // One filter, then a chain of two that resolves transitively.
        for depth in 1..=2 {
            let mut bare = CPlan::compile(&min_over(&[])).unwrap();
            let mut passed = CPlan::compile(&min_over(&vec![pass(); depth])).unwrap();
            let mut solved = CPlan::compile(&min_over(&[always()])).unwrap();
            assert!((0..depth).all(|n| passed.op(n).is_none()) && solved.op(0).is_some());
            assert_eq!(passed.len(), depth + 1);
            for (i, a) in arrivals().iter().enumerate() {
                let want = bare.push(0, a);
                assert_eq!(content(&passed.push(0, a)), content(&want));
                assert_eq!(content(&solved.push(0, a)), content(&want));
                // The solved filter snapshots each arrival once more.
                let snaps = |p: &CPlan| p.lineage().len();
                assert_eq!(snaps(&passed), snaps(&bare));
                assert_eq!(snaps(&solved), snaps(&bare) + i + 1);
            }
            assert_eq!(passed.node_metrics(0), OpMetrics::default());
            assert_eq!(passed.metrics(), bare.metrics());
            let reg = pulse_obs::MetricsRegistry::new();
            passed.export_metrics(&reg, &[]);
            let names = reg.snapshot().counters;
            assert!(names.iter().any(|(n, _)| n.starts_with("cops.minmax.")));
            assert!(!names.iter().any(|(n, _)| n.starts_with("cops.filter.")), "{names:?}");
        }
    }

    #[test]
    fn true_filter_sink_over_a_source_returns_the_pushed_segment() {
        for depth in 1..=2 {
            let mut plan = CPlan::compile(&chain(&vec![pass(); depth]).0).unwrap();
            for a in &arrivals() {
                let out = plan.push(0, a);
                assert_eq!(out.len(), 1);
                assert_eq!(out[0].id, a.id);
                assert_eq!(content(&out), content(std::slice::from_ref(a)));
                assert_eq!(plan.lineage().sources_of(out[0].id), vec![a.id]);
            }
        }
    }

    #[test]
    fn true_filter_sink_keeps_its_result_order() {
        // A two-piece filter (x² > 4 on x = t over [-5, 5]) feeds a map
        // sink and a filter sink, in both edge orders; the filter sink's
        // results must interleave with the map's exactly as a solved
        // filter's do.
        let build = |sink: LogicalOp, sink_first: bool| {
            let mut lp = LogicalPlan::new(vec![src()]);
            let x = Expr::attr(0);
            let two = lp.add(
                LogicalOp::Filter { pred: Pred::cmp(x.clone() * x, CmpOp::Gt, Expr::c(4.0)) },
                vec![PortRef::Source(0)],
            );
            let map = LogicalOp::Map { exprs: vec![Expr::attr(0) * Expr::c(2.0)], schema: src() };
            if sink_first {
                lp.add(sink, vec![two]);
                lp.add(map, vec![two]);
            } else {
                lp.add(map, vec![two]);
                lp.add(sink, vec![two]);
            }
            CPlan::compile(&lp).unwrap()
        };
        for sink_first in [true, false] {
            let mut passed = build(pass(), sink_first);
            let mut solved = build(always(), sink_first);
            let a = seg(1, -5.0, 5.0, 0.0, 1.0);
            let (got, want) = (passed.push(0, &a), solved.push(0, &a));
            assert_eq!(want.len(), 4);
            assert_eq!(content(&got), content(&want));
        }
    }

    /// `x · 2 − 1` over a one-column producer, the difference of the
    /// columns over a join's two.
    fn projection(lp: &LogicalPlan, over: PortRef) -> LogicalOp {
        let schema = lp.schema_of(over);
        let exprs = if schema.len() == 1 {
            vec![Expr::attr(0) * Expr::c(2.0) - Expr::c(1.0)]
        } else {
            vec![Expr::attr(0) - Expr::attr(1)]
        };
        LogicalOp::Map { exprs, schema: src() }
    }

    /// `bare` with `path` (pass-through filters) and then the projection
    /// added over the output of `bare`'s last node, or of source 0 when it
    /// has none.
    fn mapped(bare: &LogicalPlan, path: &[LogicalOp]) -> LogicalPlan {
        let mut lp = bare.clone();
        let mut port = bare.nodes.len().checked_sub(1).map_or(PortRef::Source(0), PortRef::Node);
        let map = projection(&lp, port);
        for op in path {
            port = lp.add(op.clone(), vec![port]);
        }
        lp.add(map, vec![port]);
        lp
    }

    /// Pushes `arrivals` through `lp`, whose maps all read the output of
    /// `bare`'s last node (source 0 when it has none), and through `bare`
    /// followed by a standalone `CMap` per map over each of its outputs,
    /// snapshotting into bare's lineage: the plan as it ran with every map
    /// an operator. A fused plan must give the same answers in the
    /// producer's order, with the same sources and map metrics; an
    /// unfused one the same answers (its queue runs a producer's outputs
    /// newest first). Returns the number of answers, the most one push
    /// gave and how many fewer snapshots the plan took.
    fn check_maps(
        lp: &LogicalPlan,
        bare_lp: &LogicalPlan,
        arrivals: &[(usize, Segment)],
    ) -> (usize, usize, usize) {
        use crate::cops::Feed;
        let fused = bare_lp.nodes.last().is_some() && lp.nodes.len() == bare_lp.nodes.len() + 1;
        let mut plan = CPlan::compile(lp).unwrap();
        let mut bare = CPlan::compile(bare_lp).unwrap();
        assert_eq!(plan.len(), lp.nodes.len());
        let producer = bare_lp.nodes.len().checked_sub(1).map_or(PortRef::Source(0), PortRef::Node);
        let mut maps: Vec<(usize, CMap)> = (bare_lp.nodes.len()..lp.nodes.len())
            .filter_map(|n| match &lp.nodes[n].op {
                LogicalOp::Map { exprs, .. } => {
                    Some((n, CMap::new(exprs.clone(), Binding::new(lp.schema_of(producer)))))
                }
                _ => None,
            })
            .collect();
        let (mut answers, mut most) = (0, 0);
        for (source, a) in arrivals {
            let mut produced = bare.push(*source, a);
            if producer == PortRef::Source(0) {
                produced = vec![a.clone()];
            }
            let mut want = Vec::new();
            for o in &produced {
                for (_, m) in &mut maps {
                    m.feed(0, o, bare.lineage_mut(), &mut Tracer::off(), &mut want);
                }
            }
            let got = plan.push(*source, a);
            answers += got.len();
            most = most.max(got.len());
            if fused {
                assert_eq!(content(&got), content(&want));
                // Leaves that are not pushed segments are envelope tails
                // the min cut off with fresh ids, different in each plan.
                let sources = |p: &CPlan, id| {
                    let leaves = p.lineage().sources_of(id);
                    let pushed =
                        leaves.iter().filter(|&&l| arrivals.iter().any(|(_, a)| a.id == l));
                    (leaves.len(), pushed.copied().collect::<Vec<_>>())
                };
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(sources(&plan, g.id), sources(&bare, w.id));
                }
            } else {
                assert_eq!(pulse_stream::fingerprint(&got), pulse_stream::fingerprint(&want));
            }
        }
        for (n, m) in &maps {
            assert!(plan.op(*n).is_some_and(|op| op.name() == "map"));
            assert_eq!(plan.node_metrics(*n), m.metrics());
        }
        (answers, most, bare.lineage().len() - plan.lineage().len())
    }

    /// Long crossing lines, where a pair's predicate holds on two pieces,
    /// then [`arrivals`] on alternate sources, each key arriving twice in a
    /// row: once on each side.
    fn two_sources() -> Vec<(usize, Segment)> {
        let crossing = [
            (0, seg(1, 0.0, 10.0, 0.0, 1.0)),
            (1, seg(1, 0.0, 10.0, 5.0, 0.0)),
            (1, seg(2, 2.0, 8.0, 3.0, 0.5)),
            (0, seg(2, 1.0, 9.0, 9.0, -1.0)),
        ];
        let rekey = |(i, a): (usize, Segment)| (i % 2, Segment { key: (i / 2 % 3) as u64, ..a });
        crossing.into_iter().chain(arrivals().into_iter().enumerate().map(rekey)).collect()
    }

    fn join(on_keys: KeyJoin) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![src(), src()]);
        let x = |side| Expr::attr_of(side, 0);
        let pred = Pred::cmp((x(0) - x(1)) * (x(0) - x(1)), CmpOp::Gt, Expr::c(0.25));
        lp.add(
            LogicalOp::Join { window: 100.0, pred, on_keys },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        lp
    }

    fn grouped_avg() -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![src()]);
        let avg = LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: 2.0,
            slide: 1.0,
            group_by_key: true,
        };
        lp.add(avg, vec![PortRef::Source(0)]);
        lp
    }

    /// `x² > 4`: two pieces of a line through 0.
    fn two_piece_filter() -> LogicalPlan {
        let x = Expr::attr(0);
        let (lp, _) =
            chain(&[LogicalOp::Filter { pred: Pred::cmp(x.clone() * x, CmpOp::Gt, Expr::c(4.0)) }]);
        lp
    }

    /// Lines through `x² = 4` twice; a constant cutting a parabola under
    /// another constant, so it wins the min on two pieces; a key whose
    /// pieces tile time off the average's window grid, so each closes
    /// windows on two pieces; then [`arrivals`].
    fn one_source() -> Vec<(usize, Segment)> {
        let parabola = Poly::new(vec![6.25, -2.5, 0.25]);
        let mut segs = vec![
            seg(7, -5.0, 5.0, 0.0, 1.0),
            seg(8, -3.0, 3.0, 1.0, -1.5),
            seg(9, 0.0, 10.0, 2.0, 0.0),
            Segment::single(9, Span::new(0.0, 10.0), parabola),
            seg(9, 0.0, 10.0, 1.5, 0.0),
        ];
        segs.extend((0..8).map(|i| seg(5, 0.7 * i as f64, 0.7 * (i + 1) as f64, i as f64, 0.5)));
        segs.into_iter().chain(arrivals()).map(|a| (0, a)).collect()
    }

    #[test]
    fn a_map_fuses_into_its_only_producer() {
        for (name, bare, arrivals) in [
            ("join", join(KeyJoin::Any), two_sources()),
            ("keyed join", join(KeyJoin::Eq), two_sources()),
            ("grouped avg", grouped_avg(), one_source()),
            ("filter", two_piece_filter(), one_source()),
            ("grouped min", min_over(&[]), one_source()),
        ] {
            let (answers, most, saved) = check_maps(&mapped(&bare, &[]), &bare, &arrivals);
            assert!(most >= 2, "{name}: {answers} answers, at most {most} a push");
            assert_eq!(saved, answers, "{name}: one snapshot per answer");
        }
        // A union makes no segment: its projected outputs are new ones,
        // snapshotted as the map's were.
        let mut union = LogicalPlan::new(vec![src(), src()]);
        union.add(LogicalOp::Union, vec![PortRef::Source(0), PortRef::Source(1)]);
        let (answers, _, saved) = check_maps(&mapped(&union, &[]), &union, &two_sources());
        assert_eq!((answers, saved), (two_sources().len(), 0));
    }

    #[test]
    fn a_map_without_a_sole_producer_stays_an_operator() {
        // Over a source.
        let none = LogicalPlan::new(vec![src()]);
        let (answers, _, saved) = check_maps(&mapped(&none, &[]), &none, &one_source());
        assert_eq!((answers, saved), (one_source().len(), 0));
        // Over a pass-through filter, which has no operator.
        let min = min_over(&[]);
        let (_, most, saved) = check_maps(&mapped(&min, &[pass()]), &min, &one_source());
        assert_eq!((most >= 2, saved), (true, 0));
        // Over a producer with a second consumer: two maps over one filter.
        let filter = two_piece_filter();
        let mut two = mapped(&filter, &[]);
        two.add(projection(&filter, PortRef::Node(0)), vec![PortRef::Node(0)]);
        let (_, most, saved) = check_maps(&two, &filter, &one_source());
        assert_eq!((most >= 2, saved), (true, 0));
    }

    /// The MACD plan of `tests/phase_counts.rs`: short and long grouped
    /// averages joined on key with `S.avg > L.avg`, projected to the
    /// divergence.
    fn macd_plan() -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![src()]);
        let avg = |width| LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width,
            slide: 0.5,
            group_by_key: true,
        };
        let short = lp.add(avg(1.0), vec![PortRef::Source(0)]);
        let long = lp.add(avg(3.0), vec![PortRef::Source(0)]);
        let j = lp.add(
            LogicalOp::Join {
                window: 0.5,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::attr_of(1, 0)),
                on_keys: KeyJoin::Eq,
            },
            vec![short, long],
        );
        let diff = LogicalOp::Map {
            exprs: vec![Expr::attr(0) - Expr::attr(1)],
            schema: Schema::of(&[("diff", AttrKind::Modeled)]),
        };
        lp.add(diff, vec![j]);
        lp
    }

    /// An id-blind, order-blind hash of `segs`: key, span and model
    /// coefficients, bit for bit, summed over segments.
    fn print(segs: &[Segment]) -> u64 {
        let mix = |h: u64, v: u64| {
            let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        segs.iter().fold(0u64, |sum, s| {
            let mut h = mix(mix(mix(0, s.key), s.span.lo.to_bits()), s.span.hi.to_bits());
            for c in s.models.iter().flat_map(|m| m.coeffs()) {
                h = mix(h, c.to_bits());
            }
            sum.wrapping_add(h)
        })
    }

    /// A `PulseRuntime` drive of the MACD plan under the gradient split,
    /// which reads lineage's derivatives at every split: its outputs and
    /// counters are the ones the plan produced before the map fused into
    /// the join.
    #[test]
    fn fused_macd_drive_keeps_its_gradient_split_outputs() {
        use crate::runtime::{Heuristic, Predictor, PulseRuntime, RuntimeConfig};
        use pulse_model::Tuple;
        let cfg = RuntimeConfig {
            horizon: 5.0,
            bound: 0.05,
            heuristic: Heuristic::Gradient,
            ..Default::default()
        };
        let mut rt = PulseRuntime::with_predictors(
            vec![Predictor::AdaptiveLinear(src())],
            &macd_plan(),
            cfg,
        )
        .unwrap();
        // Noisy per-key triangle waves: the noise exceeds the bound.
        let mut rng: u64 = 0x1234_5678_9ABC_DEF0;
        let mut noise = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut outs = Vec::new();
        for r in 0..200 {
            let ts = r as f64 * 0.05;
            let phase = (ts / 4.0).fract();
            let tri = if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
            for key in 0..12u64 {
                let price = 50.0 + key as f64 + 2.0 * tri + 0.2 * noise();
                outs.extend(rt.on_tuple(0, &Tuple::new(key, ts, vec![price])));
            }
        }
        let (s, v) = (rt.stats(), rt.validator().stats());
        assert_eq!((outs.len(), print(&outs)), (586, 0x3330_9c27_f0e1_e63a));
        assert_eq!(
            (s.tuples_in, s.suppressed, s.violations, s.segments_pushed, s.outputs),
            (2400, 1653, 735, 747, 586)
        );
        assert_eq!(s.model_errors, 0);
        assert_eq!((v.checks, v.violations, v.accuracy_keys, v.slack_keys), (2388, 735, 7, 5));
        // The map is fused: one snapshot per answer.
        assert!(rt.plan().op(3).is_some() && rt.plan().node_metrics(3).items_in > 0);
    }
}
