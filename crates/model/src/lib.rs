//! Data model for the Pulse continuous-time stream processor.
//!
//! This crate defines everything both engines share: stream [`Schema`]s with
//! the paper's four attribute roles (§II-B), discrete [`Tuple`]s, model
//! [`Segment`]s (the first-class datatype of Pulse's transformed plans),
//! [`Piecewise`] models with online update semantics, the expression /
//! predicate language ([`expr`]) with its polynomial substitution and
//! `sqrt`/`abs` normalization, declarative MODEL clauses ([`modelspec`]) for
//! predictive processing, and the modeling component ([`fitting`]) for
//! historical processing.

pub mod archive;
pub mod expr;
pub mod fitting;
pub mod modelspec;
pub mod piecewise;
pub mod schema;
pub mod segment;
pub mod tuple;
pub mod vm;

pub use archive::{decode as decode_archive, encode as encode_archive, ArchiveError};
pub use expr::{Expr, ExprError, Pred};
pub use fitting::{bottom_up, CheckMode, FitConfig, OnlineSegmenter, StreamFitter};
pub use modelspec::{ModelSpec, StreamModel};
pub use piecewise::Piecewise;
pub use schema::{Attr, AttrKind, Schema};
pub use segment::{Models, Segment, SegmentId};
pub use tuple::Tuple;
pub use vm::{ExprVm, Op, SlotMap, VmProgram};
