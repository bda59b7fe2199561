//! A sized, repeatable benchmark of Query Binning over partitioned
//! sensitive and non-sensitive data.
//!
//! Three workloads run through the two real deployment paths — the
//! in-process threaded fan-out and TCP pipelined to shard daemons — and
//! report end-to-end metrics with tracing off, or per-layer metrics from
//! a traced run.  See `README.md` beside this crate for the workloads,
//! the metrics and which layer should move which end-to-end number.

#![forbid(unsafe_code)]

pub mod bench;
pub mod data;
pub mod report;
pub mod stats;
