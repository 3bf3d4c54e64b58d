//! Discrete-time stream processing engine — the Borealis stand-in.
//!
//! The paper implemented Pulse inside the Borealis prototype and compared
//! every experiment against Borealis's standard tuple-at-a-time operators.
//! This crate provides that baseline: a push-based engine with filters,
//! maps, nested-loops sliding-window joins and keyed windowed aggregates,
//! preserving the baseline's asymptotics (quadratic join comparisons,
//! aggregate cost linear in open windows) that the paper's figures measure.
//!
//! Queries are written against the engine-neutral [`logical::LogicalPlan`]
//! and compiled here with [`plan::Plan::compile`]; Pulse's continuous
//! transform consumes the same logical form.

pub mod explain;
pub mod logical;
pub mod metrics;
pub mod ops;
pub mod opt;
pub mod plan;
pub mod reference;

pub use explain::{explain, expr_to_string, pred_to_string};
pub use logical::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, PartitionViolation, PortRef};
pub use metrics::OpMetrics;
pub use ops::{AggregateOp, FilterOp, JoinOp, MapOp, Operator, UnionOp};
pub use opt::{
    partition_rewrite, BranchPlan, HybridPlan, Optimized, Optimizer, Pass, PassStat,
    PredicatePushdown, ProjectionPrune,
};
pub use plan::Plan;
pub use reference::{fingerprint, Calibration, Comparison, SegPrint, ToleranceModel};
