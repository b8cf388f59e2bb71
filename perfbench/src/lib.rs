//! End-to-end and per-layer benchmark of the tectonic reproduction.
//!
//! Three workloads drive the library through its public API (see
//! `README.md` in this directory for why each was chosen and which layer
//! metric should move which end-to-end metric). A plain run measures the
//! end-to-end metrics with nothing instrumented; a traced run times the
//! calls into each layer from this crate's own code.

#![forbid(unsafe_code)]

pub mod checks;
pub mod env;
pub mod output;
pub mod paper;
pub mod reference;
pub mod scan;
pub mod storm;
pub mod timing;
pub mod workloads;
