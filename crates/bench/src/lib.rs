//! Figure declarations and reporting utilities for the `lcl` CLI,
//! built on the unified `lcl_harness` execution API.
//!
//! `lcl sweep <figure>` regenerates one figure or theorem of the paper
//! (see `DESIGN.md` for the index) by dispatching into [`figures`]; each
//! figure prints a human-readable table and writes a machine-readable
//! JSON record under `bench-results/`. The `lcl` CLI binary is the
//! single entry point (`lcl list`, `lcl run`, `lcl sweep <figure>`,
//! `lcl sweep --scale <preset>`, `lcl perfgate`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod classify;
pub mod figures;
pub mod measure;
pub mod report;
pub mod scale;
pub mod service_bench;
