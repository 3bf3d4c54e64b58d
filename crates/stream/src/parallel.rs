//! Pipelined parallel execution of discrete plans.
//!
//! Borealis ran operator boxes on a scheduler with queues between them;
//! this module provides the equivalent for the baseline engine: one worker
//! thread per operator, connected by bounded crossbeam channels, with
//! backpressure when a downstream operator falls behind. Useful both as a
//! fidelity point (the paper's throughput ceilings came from queue growth)
//! and to overlap operator work on multi-core machines.

use crate::logical::{LogicalOp, LogicalPlan, PortRef};
use crate::ops::{AggregateOp, FilterOp, JoinOp, MapOp, Operator, UnionOp};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use pulse_model::Tuple;
use std::thread;

/// Message flowing between pipeline stages.
enum Msg {
    /// A tuple arriving on the given input port.
    Item(usize, Tuple),
    /// Upstream is done; flush and stop after `remaining` producers finish.
    Eof,
}

/// A running pipelined plan: feed tuples, then finish to collect outputs.
pub struct Pipeline {
    /// Senders for each external source.
    source_txs: Vec<Vec<(Sender<Msg>, usize)>>,
    /// All node input senders (to signal EOF).
    node_txs: Vec<Sender<Msg>>,
    /// Producer counts per node (sources + upstream nodes feeding it).
    producer_counts: Vec<usize>,
    /// Query output receiver.
    out_rx: Receiver<Tuple>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Pipeline {
    /// Builds and starts worker threads for a logical plan.
    ///
    /// `queue_cap` bounds each inter-operator queue (backpressure).
    pub fn start(logical: &LogicalPlan, queue_cap: usize) -> Pipeline {
        let n = logical.nodes.len();
        // One input channel per node (ports multiplexed via Msg).
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded::<Msg>(queue_cap.max(1));
            txs.push(tx);
            rxs.push(rx);
        }
        // The output channel is unbounded: results are only drained at
        // finish(), so a bounded sink would deadlock the whole pipeline the
        // moment a query emits more than the queue capacity mid-stream.
        let (out_tx, out_rx) = unbounded::<Tuple>();
        // Wiring: consumers of each node's output / each source.
        let mut node_consumers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut source_consumers: Vec<Vec<(usize, usize)>> =
            vec![Vec::new(); logical.sources.len()];
        let mut producer_counts = vec![0usize; n];
        for (i, ln) in logical.nodes.iter().enumerate() {
            for (port, input) in ln.inputs.iter().enumerate() {
                match input {
                    PortRef::Source(s) => {
                        source_consumers[*s].push((i, port));
                        producer_counts[i] += 1;
                    }
                    PortRef::Node(m) => {
                        node_consumers[*m].push((i, port));
                        producer_counts[i] += 1;
                    }
                }
            }
        }
        let sinks: Vec<bool> = {
            let mut v = vec![false; n];
            for s in logical.sinks() {
                v[s] = true;
            }
            v
        };
        // Spawn one worker per operator.
        let mut handles = Vec::with_capacity(n);
        for (i, ln) in logical.nodes.iter().enumerate() {
            let mut op: Box<dyn Operator + Send> = match &ln.op {
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
            let rx = rxs[i].clone();
            let downstream: Vec<(Sender<Msg>, usize)> =
                node_consumers[i].iter().map(|&(node, port)| (txs[node].clone(), port)).collect();
            let out = sinks[i].then(|| out_tx.clone());
            let mut eofs_needed = producer_counts[i];
            handles.push(thread::spawn(move || {
                let mut scratch = Vec::new();
                let route = |scratch: &mut Vec<Tuple>,
                             downstream: &[(Sender<Msg>, usize)],
                             out: &Option<Sender<Tuple>>| {
                    for t in scratch.drain(..) {
                        if let Some(o) = out {
                            let _ = o.send(t.clone());
                        }
                        for (tx, port) in downstream {
                            let _ = tx.send(Msg::Item(*port, t.clone()));
                        }
                    }
                };
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Item(port, tuple) => {
                            scratch.clear();
                            op.process(port, &tuple, &mut scratch);
                            route(&mut scratch, &downstream, &out);
                        }
                        Msg::Eof => {
                            eofs_needed = eofs_needed.saturating_sub(1);
                            if eofs_needed == 0 {
                                scratch.clear();
                                op.flush(&mut scratch);
                                route(&mut scratch, &downstream, &out);
                                // Propagate EOF downstream once.
                                for (tx, _) in &downstream {
                                    let _ = tx.send(Msg::Eof);
                                }
                                break;
                            }
                        }
                    }
                }
            }));
        }
        drop(out_tx);
        let source_txs = source_consumers
            .iter()
            .map(|cons| cons.iter().map(|&(node, port)| (txs[node].clone(), port)).collect())
            .collect();
        Pipeline { source_txs, node_txs: txs, producer_counts, out_rx, handles }
    }

    /// Feeds one tuple from a source (blocks on backpressure).
    pub fn push(&self, source: usize, tuple: &Tuple) {
        for (tx, port) in &self.source_txs[source] {
            let _ = tx.send(Msg::Item(*port, tuple.clone()));
        }
    }

    /// Signals end-of-stream, waits for workers, and returns all outputs.
    pub fn finish(self) -> Vec<Tuple> {
        // One EOF per source edge into each node.
        for cons in &self.source_txs {
            for (tx, _) in cons {
                let _ = tx.send(Msg::Eof);
            }
        }
        drop(self.source_txs);
        drop(self.node_txs);
        let _ = self.producer_counts;
        // Drain outputs while workers run down.
        let mut out = Vec::new();
        while let Ok(t) = self.out_rx.recv() {
            out.push(t);
        }
        for h in self.handles {
            let _ = h.join();
        }
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::AggFunc;
    use crate::plan::Plan;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, Pred, Schema};

    fn src() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn tup(key: u64, ts: f64, v: f64) -> Tuple {
        Tuple::new(key, ts, vec![v])
    }

    fn pipeline_plan() -> LogicalPlan {
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
        lp
    }

    #[test]
    fn parallel_matches_sequential() {
        let lp = pipeline_plan();
        let tuples: Vec<Tuple> =
            (0..100).map(|i| tup(0, i as f64 * 0.5, if i % 2 == 0 { 1.0 } else { -1.0 })).collect();
        // Sequential reference.
        let mut seq_plan = Plan::compile(&lp);
        let mut seq = Vec::new();
        for t in &tuples {
            seq.extend(seq_plan.push(0, t));
        }
        seq.extend(seq_plan.finish());
        // Pipelined.
        let pipe = Pipeline::start(&lp, 16);
        for t in &tuples {
            pipe.push(0, t);
        }
        let mut par = pipe.finish();
        par.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap());
        seq.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn parallel_join_two_sources() {
        let mut lp = LogicalPlan::new(vec![src(), src()]);
        lp.add(
            LogicalOp::Join {
                window: 100.0,
                pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::attr_of(1, 0)),
                on_keys: crate::logical::KeyJoin::Any,
            },
            vec![PortRef::Source(0), PortRef::Source(1)],
        );
        let pipe = Pipeline::start(&lp, 8);
        pipe.push(0, &tup(1, 0.0, 42.0));
        pipe.push(1, &tup(2, 0.5, 42.0));
        pipe.push(1, &tup(2, 0.6, 7.0));
        let out = pipe.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, vec![42.0, 42.0]);
    }

    #[test]
    fn empty_pipeline_finishes() {
        let lp = pipeline_plan();
        let pipe = Pipeline::start(&lp, 4);
        let out = pipe.finish();
        assert!(out.is_empty());
    }

    #[test]
    fn backpressure_does_not_deadlock() {
        // Tiny queues + many tuples: the pipeline must still complete.
        let lp = pipeline_plan();
        let pipe = Pipeline::start(&lp, 1);
        for i in 0..5000 {
            pipe.push(0, &tup(0, i as f64 * 0.01, 1.0));
        }
        let out = pipe.finish();
        assert!(!out.is_empty());
    }
}
