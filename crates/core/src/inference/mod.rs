//! Lina's inference-side contribution: popularity estimation from
//! token-level selection patterns, Eq. (1) placement with first-fit-
//! decreasing packing, and the two-phase scheduling protocol.

pub mod estimator;
pub mod placement;
pub mod twophase;

pub use estimator::{top_indices, PathCounts, PopularityEstimator};
pub use placement::{popularity_placement, PlacementConfig};
pub use twophase::{PhaseOne, PhaseTwo, TwoPhaseConfig, TwoPhaseScheduler};
