//! # lina-core
//!
//! The paper's primary contribution, faithfully reimplemented:
//!
//! * **Training** (§4): a priority-based micro-op communication
//!   scheduler that guarantees all-to-all full bandwidth (allreduce
//!   micro-ops run only in the gaps), plus the expert-packing
//!   controller that grows packing until expert-FFN micro-ops match
//!   all-to-all micro-ops for pipelining.
//! * **Inference** (§5): sample-path popularity estimation from the
//!   cross-layer expert-selection pattern, Eq. (1) device allocation
//!   with first-fit-decreasing packing and replication, and the
//!   two-phase (estimate, then fine-tune on deviation) protocol.
//!
//! The [`policy::CommPolicy`] trait is the narrow interface through
//! which any scheduler — Lina's or a baseline's — controls the
//! execution engine.

#![warn(missing_docs)]

pub mod inference;
pub mod policy;
pub mod training;

pub use inference::{
    popularity_placement, top_indices, PathCounts, PhaseOne, PhaseTwo, PlacementConfig,
    PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler,
};
pub use policy::{ActiveComm, CommPolicy, CommView, PendingComm};
pub use training::{
    LinaTrainScheduler, PackingController, PackingDecision, PackingObservation, PackingPlan,
};
