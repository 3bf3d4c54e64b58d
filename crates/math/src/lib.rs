//! Numeric substrate for the Pulse continuous-time query processor.
//!
//! This crate implements, from scratch, everything the paper's equation
//! systems need: dense univariate polynomials ([`poly::Poly`]), root finding
//! (Newton's and Brent's methods plus a robust recursive isolator,
//! [`roots`]), sign analysis of `p(t) R 0` rows ([`cmp`]), interval sets
//! with full boolean algebra ([`interval`]), and dense linear
//! systems / least squares for equality systems and model fitting
//! ([`linsys`]).
//!
//! No external numeric crates are used: the polynomials Pulse manipulates
//! are low-degree and univariate, which a few hundred careful lines cover
//! with better control over tolerances than a general library.

pub mod cmp;
pub mod interval;
pub mod linsys;
pub mod poly;
pub mod roots;
pub mod sturm;

pub use cmp::{
    solve_cmp_degenerate, solve_cmp_from_roots, solve_poly_cmp, solve_poly_cmp_append,
    solve_poly_cmp_scratch, CmpOp, CmpScratch,
};
pub use interval::{RangeSet, Span, EPS};
pub use linsys::{fit_poly, solve_dense, IncrementalLinFit, LinSysError};
pub use poly::Poly;
pub use roots::{brent, newton, poly_newton, poly_roots_in, poly_roots_into, RootScratch};
pub use sturm::{
    certified_roots, count_roots, isolate_roots, sturm_chain, try_div_rem, try_sturm_chain,
    FlatChain, SturmError,
};
