//! Pulse core: continuous query processing via simultaneous equation
//! systems (reproduction of Ahmad et al., ICDE 2008).
//!
//! The crate implements the paper's primary contribution:
//!
//! * [`eqsys`] — predicates over polynomial models become systems of
//!   difference equations `D·t R 0`, solved by root finding + sign tests
//!   (§III-A), with slack (`min‖Dt‖∞`, §IV) for null results;
//! * [`cops`] — continuous operators: filter, map, join, min/max envelope
//!   aggregates, sum/avg window functions, hash group-by (§III-A/B);
//! * [`plan`] — the operator-by-operator query transform producing a plan
//!   of equation systems from the engine-neutral logical plan (§III-C);
//! * [`sampler`] — output tuple production from result segments (§III-C);
//! * [`lineage`], [`validate`] — query inversion: lineage tracking, bound
//!   splitting heuristics (equi/gradient), accuracy & slack validation at
//!   query inputs (§IV);
//! * [`runtime`] — the online predictive processing loop: models predict,
//!   validation detects errors, and the solver re-runs only on violations
//!   (§II-A, §IV);
//! * [`hybrid`] — parallel execution: N worker threads each run a full
//!   runtime over the keys a hash assigns them, plus a serial merge stage
//!   for plans the partition rewrite split at a cross-key operator.
//!
//! ```
//! use pulse_core::CPlan;
//! use pulse_math::{CmpOp, Poly, Span};
//! use pulse_model::{AttrKind, Expr, Pred, Schema, Segment};
//! use pulse_stream::{LogicalOp, LogicalPlan, PortRef};
//!
//! // SELECT * FROM objects WHERE x > 3, over a model x(t) = t on [0, 10).
//! let schema = Schema::of(&[("x", AttrKind::Modeled)]);
//! let mut query = LogicalPlan::new(vec![schema]);
//! query.add(
//!     LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(3.0)) },
//!     vec![PortRef::Source(0)],
//! );
//! let mut plan = CPlan::compile(&query).unwrap();
//! let seg = Segment::single(1, Span::new(0.0, 10.0), Poly::linear(0.0, 1.0));
//! let out = plan.push(0, &seg);
//! // One equation system solved: x(t) − 3 > 0 ⇔ t ∈ (3, 10).
//! assert_eq!(out.len(), 1);
//! assert!((out[0].span.lo - 3.0).abs() < 1e-9);
//! ```

pub mod audit;
pub mod binding;
pub mod cops;
pub mod eqsys;
pub mod historical;
pub mod hybrid;
mod keymap;
pub mod lineage;
pub mod plan;
pub mod runtime;
pub mod sampler;
pub mod validate;

pub use audit::ShadowAuditor;
pub use binding::Binding;
pub use cops::{CFilter, CGroupBy, CJoin, CMap, CMinMax, COperator, CSumAvg, CUnion, Emitter};
pub use eqsys::{DiffEq, SolveScratch, System, SystemTemplate, SOLVE_TOL};
pub use historical::HistoricalStore;
pub use hybrid::{ExplainHandle, HybridRun, HybridRuntime, ShardError, DEFAULT_BATCH};
pub use lineage::LineageStore;
pub use plan::{CPlan, TransformError};
pub use runtime::{Heuristic, Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
pub use sampler::{SampleStaleness, Sampler};
pub use validate::{
    AccuracySummary, BoundInverter, EquiSplit, GradientSplit, KeyAccuracy, KeyState,
    SplitHeuristic, VKey, ValidationMode, Validator, ValidatorStats,
};
