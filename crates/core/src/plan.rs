//! Continuous query plans — Pulse's query transform.
//!
//! §III-C: "Pulse performs operator-by-operator transformation of regular
//! stream queries, instantiating an internal query plan comprised of
//! simultaneous equation systems." [`CPlan::compile`] maps each logical
//! operator to its continuous counterpart over the same DAG; segments are
//! the first-class items flowing between nodes. A filter whose predicate
//! normalizes to `true` has no system to solve and compiles to nothing.

use crate::binding::Binding;
use crate::cops::{CFilter, CGroupBy, CJoin, CMap, CMinMax, COperator, CSumAvg, CUnion};
use crate::lineage::LineageStore;
use pulse_model::{Pred, Segment};
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

/// A compiled continuous plan, indexed by logical node.
pub struct CPlan {
    /// `None` for a pass-through filter, which has no operator.
    nodes: Vec<Option<Box<dyn COperator>>>,
    node_edges: Vec<Vec<Consumer>>,
    source_edges: Vec<Vec<Consumer>>,
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
    pub fn compile(logical: &LogicalPlan) -> Result<CPlan, TransformError> {
        let mut nodes = Vec::with_capacity(logical.nodes.len());
        let mut node_edges = vec![Vec::new(); logical.nodes.len()];
        let mut source_edges = vec![Vec::new(); logical.sources.len()];
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
                    Some(Box::new(CMap::new(exprs.clone(), in_schema(0))))
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
        // Splice each pass-through non-sink out of its producers' edge
        // lists, its consumers taking its place in order: the LIFO queue
        // then visits them exactly when it would have visited them after
        // the filter.
        let splice = |edges: &[Consumer]| {
            let mut out = Vec::with_capacity(edges.len());
            let mut stack: Vec<Consumer> = edges.iter().rev().copied().collect();
            while let Some((n, p)) = stack.pop() {
                if nodes[n].is_some() || sinks[n] {
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
    /// The pushed segment is snapshotted into lineage here, once; each
    /// operator snapshots only the outputs it emits.
    ///
    /// Operators only record their null results; when the push appends
    /// nothing, their slack is resolved here, before returning, for
    /// [`Self::last_slack`].
    pub fn push_traced(
        &mut self,
        source: usize,
        seg: &Segment,
        tr: &mut Tracer,
        results: &mut Vec<Segment>,
    ) {
        for n in self.nodes.iter_mut().flatten() {
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
            for n in self.nodes.iter_mut().flatten() {
                if let Some(s) = n.resolve_slack() {
                    self.slack = Some(self.slack.map_or(s, |a: f64| a.min(s)));
                }
            }
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
            let Some(op) = &mut nodes[node] else {
                let out = input.clone();
                is_result.push(true);
                produced.push(out);
                continue;
            };
            scratch.clear();
            op.process(port, input, lineage, tr, scratch);
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

    /// Pushes a batch of segments (time-ordered per source).
    pub fn push_all(&mut self, source: usize, segs: &[Segment]) -> Vec<Segment> {
        let mut out = Vec::new();
        for s in segs {
            self.push_traced(source, s, &mut Tracer::off(), &mut out);
        }
        out
    }

    /// Sum of all operator metrics.
    pub fn metrics(&self) -> OpMetrics {
        let mut m = OpMetrics::default();
        for n in self.nodes.iter().flatten() {
            m.absorb(&n.metrics());
        }
        m
    }

    /// Metrics of a single node (zeros for a pass-through filter).
    pub fn node_metrics(&self, node: usize) -> OpMetrics {
        self.nodes[node].as_ref().map(|n| n.metrics()).unwrap_or_default()
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
        for n in self.nodes.iter().flatten() {
            per.entry(n.name()).or_default().absorb(&n.metrics());
        }
        for (name, m) in per {
            for (field, v) in m.fields() {
                set(&format!("cops.{name}.{field}"), v);
            }
        }
        set("state.lineage_snapshots", self.lineage.len() as u64);
        set("state.lineage_bytes", self.lineage.heap_bytes() as u64);
        let (segments, horizons) =
            self.nodes.iter().flatten().filter_map(|n| n.as_any().downcast_ref::<CJoin>()).fold(
                (0, 0),
                |(s, h), j| {
                    let (js, jh) = j.state_sizes();
                    (s + js, h + jh)
                },
            );
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
    /// `None` for a pass-through filter, which compiles to no operator.
    pub fn op(&self, node: usize) -> Option<&dyn COperator> {
        self.nodes[node].as_deref()
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
}
