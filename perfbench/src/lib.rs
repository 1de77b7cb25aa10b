//! Open-loop benchmark of a live 1024-node Crescendo cluster.
//!
//! One process builds the cluster on the `canon-node` runtime, drives it
//! with a seeded request stream through the runtime's public calls only,
//! checks every completion, and reports end-to-end and per-layer metrics.
//! See `README.md` for the workloads, the passes and the metrics.

#![forbid(unsafe_code)]

pub mod clock;
pub mod drive;
pub mod pass;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
