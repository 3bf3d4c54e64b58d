//! End-to-end replay benchmark for Pulse.
//!
//! Replays seeded NYSE-style streams through Pulse's public entry points
//! (`PulseRuntime::on_pairs`, `HybridRuntime::on_tuple`/`finish`), checks
//! the outputs, and reports end-to-end metrics from an untraced pass and
//! per-layer metrics from a separate traced pass. See `README.md`.

pub mod bench;
pub mod calib;
pub mod check;
pub mod replay;
pub mod spans;
pub mod sys;
pub mod workloads;
