//! Proactive expert re-sharding under skew drift.
//!
//! Lina re-places experts at *epoch* boundaries: the online
//! re-estimation window periodically re-profiles the popularity
//! estimator and the two-phase scheduler re-plans placement for the
//! next batches. Between epochs, a drifting workload leaves the hot
//! expert pinned to one device. This module closes that gap with a
//! continuous control loop (HarMoEny-style): an online per-expert load
//! monitor (a [`LoadWindow`] over the same dispatched batches the
//! re-estimator samples) feeds a [`ReshardPolicy`] that, mid-serving,
//! emits [`ReshardAction`]s — replicate a hot expert onto another
//! device, evict a cold replica, or migrate an expert wholesale. The
//! cluster event loop evaluates the policy at a fixed control interval
//! as its own priority class; actuation pays the modeled PCIe weight
//! transfer through the shared [`crate::provisioning`] helper and bumps
//! the plan-cache placement epoch so executors re-plan against the new
//! shard map.
//!
//! [`LoadWindow`]: crate::engine::LoadWindow

use lina_simcore::{SimDuration, SimTime};

/// One shard-map mutation a policy may request. Expert indices refer
/// to the model's global expert ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardAction {
    /// Add one more replica of the expert on the least-crowded device
    /// with spare capacity (a no-op when every device is full or
    /// already hosts it).
    Replicate(usize),
    /// Remove the expert's replica from the most-crowded device
    /// hosting it (a no-op when only one replica remains — an expert
    /// must always stay hosted somewhere).
    Evict(usize),
    /// Move the expert from its most-crowded host to the
    /// least-crowded device with spare capacity (a no-op when no
    /// strictly better home exists).
    Migrate(usize),
}

/// What a policy sees at each control tick: the monitored per-expert
/// load and the current shard map's shape.
#[derive(Clone, Debug)]
pub struct ReshardObservation<'a> {
    /// The control tick's instant.
    pub now: SimTime,
    /// Each expert's share of the token-selections observed in the
    /// monitoring window (sums to ~1 when any tokens were observed;
    /// all-zero on an empty window).
    pub expert_share: &'a [f64],
    /// Current replica count per expert in the shard map.
    pub replicas: &'a [usize],
    /// Devices in the replica topology.
    pub devices: usize,
    /// Hard cap on experts hosted per device.
    pub max_experts_per_device: usize,
}

/// A re-sharding policy: observes per-expert load, decides shard-map
/// mutations. Implementations must be deterministic in the
/// observation — the cluster event loop replays bit-identically.
pub trait ReshardPolicy {
    /// The policy's display name.
    fn name(&self) -> &'static str;
    /// Decides this tick's actions, applied in order.
    fn decide(&mut self, obs: &ReshardObservation<'_>) -> Vec<ReshardAction>;
}

/// The reference policy: hot/cold watermarks with hysteresis and a
/// per-tick transfer budget.
///
/// An expert whose *per-replica* load share exceeds `hot / experts`
/// for `hysteresis` consecutive ticks gains a replica; an expert with
/// more than one replica whose per-replica share falls below
/// `cold / experts` for `hysteresis` consecutive ticks loses one. At
/// most `transfer_budget` weight-moving actions are emitted per tick,
/// hottest-first, so a drifting trace amortizes transfers instead of
/// thrashing the PCIe bus.
#[derive(Clone, Debug)]
pub struct ThresholdReshardPolicy {
    /// Replicate when an expert's per-replica share exceeds
    /// `hot / experts` (in units of the uniform share; e.g. 2.0 means
    /// "twice the fair share").
    pub hot: f64,
    /// Evict when a multi-replica expert's per-replica share falls
    /// below `cold / experts`.
    pub cold: f64,
    /// Consecutive ticks a watermark must hold before acting.
    pub hysteresis: usize,
    /// Max weight-moving actions per tick.
    pub transfer_budget: usize,
    hot_streak: Vec<usize>,
    cold_streak: Vec<usize>,
}

impl ThresholdReshardPolicy {
    /// Creates the policy; streak counters start cold.
    pub fn new(hot: f64, cold: f64, hysteresis: usize, transfer_budget: usize) -> Self {
        ThresholdReshardPolicy {
            hot,
            cold,
            hysteresis,
            transfer_budget,
            hot_streak: Vec::new(),
            cold_streak: Vec::new(),
        }
    }
}

impl ReshardPolicy for ThresholdReshardPolicy {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn decide(&mut self, obs: &ReshardObservation<'_>) -> Vec<ReshardAction> {
        let experts = obs.expert_share.len();
        self.hot_streak.resize(experts, 0);
        self.cold_streak.resize(experts, 0);
        let fair = 1.0 / experts.max(1) as f64;
        let observed: f64 = obs.expert_share.iter().sum();
        if observed <= 0.0 {
            // An empty monitoring window (e.g. right after a shard-map
            // change flushed it) resets the streaks: stale momentum
            // must not trigger on the first post-flush tick.
            self.hot_streak.iter_mut().for_each(|s| *s = 0);
            self.cold_streak.iter_mut().for_each(|s| *s = 0);
            return Vec::new();
        }
        // Rank hot candidates hottest-first so the transfer budget
        // goes to the worst offender; ties break on the lower id for
        // determinism.
        let mut hot_ranked: Vec<usize> = Vec::new();
        for e in 0..experts {
            let per_replica = obs.expert_share[e] / obs.replicas[e].max(1) as f64;
            if per_replica > self.hot * fair {
                self.hot_streak[e] += 1;
            } else {
                self.hot_streak[e] = 0;
            }
            if obs.replicas[e] > 1 && per_replica < self.cold * fair {
                self.cold_streak[e] += 1;
            } else {
                self.cold_streak[e] = 0;
            }
            if self.hot_streak[e] >= self.hysteresis {
                hot_ranked.push(e);
            }
        }
        hot_ranked.sort_by(|&a, &b| {
            obs.expert_share[b]
                .partial_cmp(&obs.expert_share[a])
                .expect("shares are finite")
                .then(a.cmp(&b))
        });
        let mut actions = Vec::new();
        for e in hot_ranked {
            if actions.len() >= self.transfer_budget {
                break;
            }
            actions.push(ReshardAction::Replicate(e));
            self.hot_streak[e] = 0;
        }
        // Evictions move no weights (dropping a replica is free), so
        // they ride outside the transfer budget.
        for e in 0..experts {
            if self.cold_streak[e] >= self.hysteresis {
                actions.push(ReshardAction::Evict(e));
                self.cold_streak[e] = 0;
            }
        }
        actions
    }
}

/// The degeneracy policy: observes every tick, never acts. An armed
/// inert re-sharder must reproduce the fixed cluster bit for bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct InertPolicy;

impl ReshardPolicy for InertPolicy {
    fn name(&self) -> &'static str {
        "inert"
    }

    fn decide(&mut self, _obs: &ReshardObservation<'_>) -> Vec<ReshardAction> {
        Vec::new()
    }
}

/// Replays a pre-scripted action sequence, one entry per control tick
/// (holds after the script runs out). Drives the property tests'
/// arbitrary reshard schedules.
#[derive(Clone, Debug)]
pub struct ScriptedReshardPolicy {
    script: Vec<Vec<ReshardAction>>,
    next: usize,
}

impl ScriptedReshardPolicy {
    /// Creates the scripted policy.
    pub fn new(script: Vec<Vec<ReshardAction>>) -> Self {
        ScriptedReshardPolicy { script, next: 0 }
    }
}

impl ReshardPolicy for ScriptedReshardPolicy {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn decide(&mut self, _obs: &ReshardObservation<'_>) -> Vec<ReshardAction> {
        let actions = self.script.get(self.next).cloned().unwrap_or_default();
        self.next += 1;
        actions
    }
}

/// Declarative policy selection for configs (mirrors
/// [`crate::AutoscalePolicyKind`]).
#[derive(Clone, Debug)]
pub enum ReshardPolicyKind {
    /// [`ThresholdReshardPolicy`] with the given watermarks.
    Threshold {
        /// Hot watermark in fair-share units.
        hot: f64,
        /// Cold watermark in fair-share units.
        cold: f64,
        /// Consecutive ticks before acting.
        hysteresis: usize,
        /// Max weight-moving actions per tick.
        transfer_budget: usize,
    },
    /// [`InertPolicy`] — observe, never act.
    Inert,
    /// [`ScriptedReshardPolicy`] replaying the given per-tick actions.
    Scripted {
        /// Actions per control tick.
        script: Vec<Vec<ReshardAction>>,
    },
}

impl ReshardPolicyKind {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn ReshardPolicy> {
        match self {
            ReshardPolicyKind::Threshold {
                hot,
                cold,
                hysteresis,
                transfer_budget,
            } => Box::new(ThresholdReshardPolicy::new(
                *hot,
                *cold,
                *hysteresis,
                *transfer_budget,
            )),
            ReshardPolicyKind::Inert => Box::new(InertPolicy),
            ReshardPolicyKind::Scripted { script } => {
                Box::new(ScriptedReshardPolicy::new(script.clone()))
            }
        }
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ReshardPolicyKind::Threshold { .. } => "threshold",
            ReshardPolicyKind::Inert => "inert",
            ReshardPolicyKind::Scripted { .. } => "scripted",
        }
    }
}

/// Re-sharding configuration: the policy, its control cadence, the
/// monitoring window, and the transfer cost scale.
#[derive(Clone, Debug)]
pub struct ReshardConfig {
    /// The policy evaluated each tick.
    pub policy: ReshardPolicyKind,
    /// Control interval (first tick fires one interval into the run).
    pub interval: SimDuration,
    /// Batches the load monitor's sliding window holds.
    pub window: usize,
    /// Scale on the modeled per-expert PCIe weight transfer charged to
    /// every replica when an actuation moves weights (1.0 = one
    /// [`expert_swap`](lina_model::CostModel::expert_swap) per moved
    /// replica; 0.0 models free transfers).
    pub transfer_cost: f64,
}

impl ReshardConfig {
    /// An armed-but-inert configuration: the control loop ticks and
    /// observes at `interval` but can never mutate the shard map. Used
    /// by the degeneracy tests: the outcome must be bit-identical to
    /// running with no re-sharding at all.
    pub fn inert(interval: SimDuration) -> Self {
        ReshardConfig {
            policy: ReshardPolicyKind::Inert,
            interval,
            window: 8,
            transfer_cost: 1.0,
        }
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or window, or a non-finite/negative
    /// transfer cost.
    pub fn validate(&self) {
        assert!(
            self.interval > SimDuration::ZERO,
            "resharding: interval must be > 0"
        );
        assert!(self.window > 0, "resharding: window must be > 0");
        assert!(
            self.transfer_cost.is_finite() && self.transfer_cost >= 0.0,
            "resharding: transfer_cost must be finite and >= 0"
        );
        if let ReshardPolicyKind::Threshold {
            hot,
            cold,
            hysteresis,
            ..
        } = &self.policy
        {
            assert!(
                hot.is_finite() && cold.is_finite() && cold < hot,
                "resharding: watermarks must satisfy cold < hot"
            );
            assert!(*hysteresis > 0, "resharding: hysteresis must be > 0");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(share: &'a [f64], replicas: &'a [usize], devices: usize) -> ReshardObservation<'a> {
        ReshardObservation {
            now: SimTime::ZERO,
            expert_share: share,
            replicas,
            devices,
            max_experts_per_device: 2,
        }
    }

    #[test]
    fn threshold_replicates_a_hot_expert_after_hysteresis() {
        let mut p = ThresholdReshardPolicy::new(2.0, 0.5, 2, 1);
        let share = [0.7, 0.1, 0.1, 0.1];
        let replicas = [1usize, 1, 1, 1];
        // First tick arms the streak, second fires.
        assert!(p.decide(&obs(&share, &replicas, 4)).is_empty());
        assert_eq!(
            p.decide(&obs(&share, &replicas, 4)),
            vec![ReshardAction::Replicate(0)]
        );
        // The streak resets after acting.
        assert!(p.decide(&obs(&share, &replicas, 4)).is_empty());
    }

    #[test]
    fn threshold_evicts_a_cold_replicated_expert() {
        let mut p = ThresholdReshardPolicy::new(4.0, 0.8, 1, 1);
        // Expert 0 holds 2 replicas but receives a sub-fair share.
        let share = [0.05, 0.35, 0.3, 0.3];
        let replicas = [2usize, 1, 1, 1];
        assert_eq!(
            p.decide(&obs(&share, &replicas, 4)),
            vec![ReshardAction::Evict(0)]
        );
    }

    #[test]
    fn threshold_never_evicts_the_last_replica() {
        let mut p = ThresholdReshardPolicy::new(4.0, 0.8, 1, 1);
        let share = [0.01, 0.33, 0.33, 0.33];
        let replicas = [1usize, 1, 1, 1];
        // Cold but single-homed: no action.
        assert!(p.decide(&obs(&share, &replicas, 4)).is_empty());
    }

    #[test]
    fn transfer_budget_caps_replications_hottest_first() {
        let mut p = ThresholdReshardPolicy::new(1.2, 0.1, 1, 1);
        let share = [0.45, 0.4, 0.05, 0.1];
        let replicas = [1usize, 1, 1, 1];
        // Both 0 and 1 are hot; budget 1 picks the hotter (0).
        assert_eq!(
            p.decide(&obs(&share, &replicas, 4)),
            vec![ReshardAction::Replicate(0)]
        );
        // Once 0's replica lands, its per-replica share cools below
        // the watermark and the budget goes to expert 1.
        let replicas = [2usize, 1, 1, 1];
        assert_eq!(
            p.decide(&obs(&share, &replicas, 4)),
            vec![ReshardAction::Replicate(1)]
        );
    }

    #[test]
    fn per_replica_share_decides_hotness() {
        let mut p = ThresholdReshardPolicy::new(2.0, 0.1, 1, 4);
        // Expert 0 is hot in aggregate but already has 3 replicas:
        // per-replica share 0.2 < 2.0/4 — no further replication.
        let share = [0.6, 0.2, 0.1, 0.1];
        let replicas = [3usize, 1, 1, 1];
        assert!(p.decide(&obs(&share, &replicas, 4)).is_empty());
    }

    #[test]
    fn empty_window_resets_streaks_and_holds() {
        let mut p = ThresholdReshardPolicy::new(2.0, 0.5, 2, 1);
        let share = [0.7, 0.1, 0.1, 0.1];
        let replicas = [1usize, 1, 1, 1];
        assert!(p.decide(&obs(&share, &replicas, 4)).is_empty());
        // A flushed window wipes the armed streak.
        let zero = [0.0; 4];
        assert!(p.decide(&obs(&zero, &replicas, 4)).is_empty());
        assert!(p.decide(&obs(&share, &replicas, 4)).is_empty());
        assert_eq!(
            p.decide(&obs(&share, &replicas, 4)),
            vec![ReshardAction::Replicate(0)]
        );
    }

    #[test]
    fn inert_policy_never_acts() {
        let mut p = InertPolicy;
        let share = [1.0, 0.0];
        let replicas = [1usize, 1];
        for _ in 0..8 {
            assert!(p.decide(&obs(&share, &replicas, 2)).is_empty());
        }
        assert_eq!(p.name(), "inert");
    }

    #[test]
    fn scripted_policy_replays_then_holds() {
        let mut p = ScriptedReshardPolicy::new(vec![
            vec![ReshardAction::Replicate(1)],
            vec![],
            vec![ReshardAction::Evict(1), ReshardAction::Migrate(0)],
        ]);
        let share = [0.5, 0.5];
        let replicas = [1usize, 1];
        assert_eq!(
            p.decide(&obs(&share, &replicas, 2)),
            vec![ReshardAction::Replicate(1)]
        );
        assert!(p.decide(&obs(&share, &replicas, 2)).is_empty());
        assert_eq!(
            p.decide(&obs(&share, &replicas, 2)),
            vec![ReshardAction::Evict(1), ReshardAction::Migrate(0)]
        );
        assert!(p.decide(&obs(&share, &replicas, 2)).is_empty());
    }

    #[test]
    fn kind_builds_the_matching_policy() {
        let kinds = [
            ReshardPolicyKind::Threshold {
                hot: 2.0,
                cold: 0.5,
                hysteresis: 1,
                transfer_budget: 1,
            },
            ReshardPolicyKind::Inert,
            ReshardPolicyKind::Scripted { script: vec![] },
        ];
        for kind in &kinds {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn inert_config_validates() {
        ReshardConfig::inert(SimDuration::from_millis(1)).validate();
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let mut c = ReshardConfig::inert(SimDuration::from_millis(1));
        c.interval = SimDuration::ZERO;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cold < hot")]
    fn inverted_watermarks_rejected() {
        let c = ReshardConfig {
            policy: ReshardPolicyKind::Threshold {
                hot: 0.5,
                cold: 2.0,
                hysteresis: 1,
                transfer_budget: 1,
            },
            interval: SimDuration::from_millis(1),
            window: 8,
            transfer_cost: 1.0,
        };
        c.validate();
    }
}
