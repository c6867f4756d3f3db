//! # daosim-cluster — the simulated DAOS service
//!
//! Deploys a DAOS-shaped cluster onto the simulation substrate: server
//! nodes run one *engine* per socket, each engine owns 12 *targets* (FIFO
//! service queues with a static share of the socket's Optane bandwidth),
//! and a pool spans every target. [`client::SimClient`] implements the
//! [`daosim_objstore::DaosApi`] trait with modelled time, so the field
//! I/O layer and the benchmarks run unchanged against it.
//!
//! The calibration (all constants in [`calibration::Calibration`]) is
//! fitted to the paper's own measurements; see that module's docs for the
//! fit provenance and DESIGN.md for the model rationale.

pub mod calibration;
pub mod client;
pub mod deploy;
pub mod fault;
pub mod fuzz;
pub mod rebuild;
pub mod tiering;

pub use calibration::Calibration;
pub use client::{ClientMetrics, ClientOp, QosClass, SimClient, SimCont};
pub use deploy::{BacklogGauge, ClusterSpec, ClusterSpecError, Deployment, Engine, Target};
pub use tiering::spawn_aggregation;
// Media tier types travel with the spec that carries them.
pub use daosim_media::{
    MediaConfigError, MediaFull, NvmeSpec, ScmSpec, Tier, TierCounts, TierPolicy, TieredMedia,
};
pub use fault::{
    FaultEvent, FaultPlan, ResilienceReport, ResilienceStats, RetryPolicy, RetryPolicyBuilder,
};
pub use fuzz::{FuzzFailure, FuzzProgram, FuzzReport, Observation};
pub use rebuild::{rebuild_engine, RebuildError, RebuildReport};
