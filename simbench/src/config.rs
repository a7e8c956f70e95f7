//! Every program config type the benchmark builds lives in this file.
//!
//! The simulator's config structs (`ServeConfig`, `ClusterConfig`,
//! `PerfConfig`, `HealthConfig`, `HedgeConfig`, `FaultPlan`,
//! `TrainScheme`, ...) are expected to change shape as features are
//! deleted or moved. Keeping every literal here means such a change
//! forces one mechanical edit in one file, and the workload-input
//! digest (see [`crate::digest`]) proves the edit generated the same
//! inputs.

use lina_baselines::{InferScheme, TrainScheme};
use lina_model::{BatchShape, CostModel, DeviceSpec, MoeModelConfig};
use lina_netsim::{ClusterSpec, Topology};
use lina_serve::{
    ArrivalProcess, BalancerKind, BatcherConfig, ClusterConfig, DegradationPolicy,
    EstimatorSharing, FaultEvent, FaultKind, FaultPlan, FaultRateConfig, FaultSchedule,
    HealthConfig, HedgeConfig, NetworkMode, PerfConfig, ServeConfig,
};
use lina_simcore::{SimDuration, SimTime};
use lina_workload::WorkloadSpec;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Lina, 3 replicas, JSQ, shared online re-estimation, MMPP bursts.
    DriftReestimate,
    /// Lina on the offline profile, many small fixed-size requests.
    SteadySolo,
    /// Baseline on the contended network with gray faults, a crash,
    /// retries, the phi-accrual detector and hedging.
    GrayContendedHedged,
    /// 16-expert training steps under Baseline and full Lina.
    TrainStepMix,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DriftReestimate,
        Workload::SteadySolo,
        Workload::GrayContendedHedged,
        Workload::TrainStepMix,
    ];

    /// The name the command line and the references use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DriftReestimate => "drift_reestimate",
            Workload::SteadySolo => "steady_solo",
            Workload::GrayContendedHedged => "gray_contended_hedged",
            Workload::TrainStepMix => "train_step_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives the serving cluster.
    pub fn is_serving(self) -> bool {
        self != Workload::TrainStepMix
    }

    /// Salt mixed into the benchmark seed, so two workloads run with
    /// the same `--seed` never share a program seed.
    fn salt(self) -> u64 {
        match self {
            Workload::DriftReestimate => 0xD41F_7000,
            Workload::SteadySolo => 0x57EA_D100,
            Workload::GrayContendedHedged => 0x64A7_C0DE,
            Workload::TrainStepMix => 0x7A1A_5E9D,
        }
    }
}

/// How much work one simulation of a workload is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Requests in a serving trace.
    pub requests: usize,
    /// Nominal tokens per request.
    pub tokens_per_request: usize,
    /// Training steps per simulation (alternating Baseline and Lina).
    pub train_steps: usize,
    /// Transformer layers of the training model.
    pub train_layers: usize,
}

impl Size {
    /// The size the benchmark measures.
    pub fn full(w: Workload) -> Size {
        match w {
            Workload::DriftReestimate => Size {
                requests: 3_000,
                tokens_per_request: 256,
                ..Size::NONE
            },
            Workload::SteadySolo => Size {
                requests: 2_000,
                tokens_per_request: 64,
                ..Size::NONE
            },
            Workload::GrayContendedHedged => Size {
                requests: 1_500,
                tokens_per_request: 256,
                ..Size::NONE
            },
            Workload::TrainStepMix => Size {
                train_steps: 24,
                train_layers: 12,
                ..Size::NONE
            },
        }
    }

    /// A size small enough for unit tests.
    pub fn tiny(w: Workload) -> Size {
        match w {
            Workload::DriftReestimate => Size {
                requests: 120,
                tokens_per_request: 256,
                ..Size::NONE
            },
            Workload::SteadySolo => Size {
                requests: 200,
                tokens_per_request: 64,
                ..Size::NONE
            },
            Workload::GrayContendedHedged => Size {
                requests: 240,
                tokens_per_request: 256,
                ..Size::NONE
            },
            Workload::TrainStepMix => Size {
                train_steps: 2,
                train_layers: 2,
                ..Size::NONE
            },
        }
    }

    const NONE: Size = Size {
        requests: 0,
        tokens_per_request: 0,
        train_steps: 0,
        train_layers: 0,
    };
}

/// Seed of the capacity probe that anchors every serving workload's
/// offered rate. Fixed, so the offered rate does not move with
/// `--seed`; only the arrivals, request tokens and faults do.
pub const PROBE_SEED: u64 = 0;

/// Maps the benchmark's `--seed` to the program's master seed for a
/// workload (splitmix64 over the salted seed).
pub fn program_seed(w: Workload, seed: u64) -> u64 {
    let mut z = (seed ^ w.salt()).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serving model context: the cost model, topology and gating workload
/// every serving workload shares (8 experts on 8 GPUs, 6 MoE layers).
pub struct ServeModel {
    /// Inference cost model.
    pub cost: CostModel,
    /// Cluster topology of one replica.
    pub topo: Topology,
    /// Gating workload the request tokens are drawn from.
    pub spec: WorkloadSpec,
}

/// Experts (= GPUs per replica) of the serving model.
const SERVE_EXPERTS: usize = 8;

/// Builds the serving model context.
pub fn serve_model() -> ServeModel {
    let model = MoeModelConfig::transformer_xl(6, SERVE_EXPERTS);
    let spec = WorkloadSpec::enwik8(SERVE_EXPERTS, model.layers);
    ServeModel {
        cost: CostModel::new(DeviceSpec::a100_inference(), model.for_inference()),
        topo: Topology::new(ClusterSpec::with_total_gpus(SERVE_EXPERTS)),
        spec,
    }
}

/// Offered load as a fraction of modelled aggregate capacity.
pub fn load(w: Workload) -> f64 {
    match w {
        Workload::DriftReestimate => 0.6,
        Workload::SteadySolo => 0.7,
        Workload::GrayContendedHedged => 0.7,
        Workload::TrainStepMix => 0.0,
    }
}

/// The serving knobs of a workload at an offered `rate` (requests/s).
pub fn serve_config(w: Workload, size: Size, rate: f64, seed: u64) -> ServeConfig {
    let n = size.requests;
    let common = ServeConfig {
        scheme: InferScheme::Lina,
        top_k: 1,
        path_length: 3,
        max_experts_per_device: 2,
        arrival: ArrivalProcess::Poisson { rate },
        batcher: BatcherConfig {
            max_batch_requests: 8,
            max_wait: SimDuration::from_millis(2),
        },
        slo: SimDuration::from_millis(60),
        n_requests: n,
        tokens_per_request: size.tokens_per_request,
        token_spread: 0.0,
        drift_period: None,
        reestimate_every: None,
        reestimate_window: 1,
        network: NetworkMode::Solo,
        max_inflight: 1,
        seed: program_seed(w, seed),
        perf: PerfConfig::default(),
    };
    match w {
        Workload::DriftReestimate => ServeConfig {
            arrival: ArrivalProcess::Mmpp {
                calm_rate: 0.3 * rate,
                burst_rate: 1.7 * rate,
                mean_calm: 0.002,
                mean_burst: 0.002,
            },
            slo: SimDuration::from_millis(8),
            token_spread: 0.9,
            drift_period: Some((n / 6).max(1)),
            reestimate_every: Some(4),
            reestimate_window: 8,
            ..common
        },
        Workload::SteadySolo => ServeConfig {
            slo: SimDuration::from_millis(4),
            ..common
        },
        Workload::GrayContendedHedged => ServeConfig {
            scheme: InferScheme::Baseline,
            slo: SimDuration::from_millis(5),
            token_spread: 0.3,
            network: NetworkMode::Contended,
            max_inflight: 4,
            ..common
        },
        Workload::TrainStepMix => unreachable!("training has no serving config"),
    }
}

/// Replicas behind the balancer.
pub fn replicas(w: Workload) -> usize {
    match w {
        Workload::SteadySolo => 2,
        _ => 3,
    }
}

/// The cluster shape around a serving config.
pub fn cluster_config(w: Workload, serve: ServeConfig, faults: FaultPlan) -> ClusterConfig {
    let gray = w == Workload::GrayContendedHedged;
    ClusterConfig {
        serve,
        replicas: replicas(w),
        balancer: match w {
            Workload::DriftReestimate => BalancerKind::JoinShortestQueue,
            Workload::SteadySolo => BalancerKind::RoundRobin,
            _ => BalancerKind::LeastExpectedLatency,
        },
        sharing: EstimatorSharing::Shared,
        faults,
        autoscale: None,
        resharding: None,
        placement: None,
        locality: false,
        health: if gray {
            HealthConfig::phi_accrual()
        } else {
            HealthConfig::oracle()
        },
        hedging: gray.then_some(HedgeConfig {
            quantile: 0.5,
            multiplier: 1.5,
            min_samples: 8,
        }),
    }
}

/// The fault plan of a workload whose healthy arrival span is `span`:
/// none for the fault-free workloads; for `gray_contended_hedged`,
/// rate-generated gray episodes on every replica plus one scripted
/// crash of each replica in turn (at 30%, 50% and 70% of the span, each
/// down for a tenth of it), under retry + failover without a request
/// timeout, so every displaced request is re-dispatched and completes.
pub fn fault_plan(w: Workload, span: SimDuration, seed: u64) -> FaultPlan {
    if w != Workload::GrayContendedHedged {
        return FaultPlan::none();
    }
    let span_s = span.as_secs_f64();
    // About ten gray episodes per replica over the span, each 3% of it
    // long: compute 3x slower, links at a third.
    let rates = FaultRateConfig::gray(
        10.0 / span_s,
        3.0,
        1.0 / 3.0,
        SimDuration::from_secs_f64(0.03 * span_s),
    );
    let gray = FaultSchedule::generate(&rates, replicas(w), span, program_seed(w, seed) ^ 0xFA17);
    let mut events = gray.events().to_vec();
    for replica in 0..replicas(w) {
        let down = 0.3 + 0.2 * replica as f64;
        events.push(FaultEvent {
            at: SimTime::ZERO + span.mul_f64(down),
            replica,
            kind: FaultKind::ReplicaCrash,
        });
        events.push(FaultEvent {
            at: SimTime::ZERO + span.mul_f64(down + 0.1),
            replica,
            kind: FaultKind::ReplicaRecover,
        });
    }
    FaultPlan {
        schedule: FaultSchedule::from_script(events),
        policy: DegradationPolicy::retry_failover(None),
    }
}

/// Training context: the 16-expert model, its topology and batch.
pub struct TrainModel {
    /// Training cost model.
    pub cost: CostModel,
    /// The 16-GPU topology.
    pub topo: Topology,
    /// Per-device batch.
    pub batch: BatchShape,
}

/// Experts (= GPUs) of the training model.
const TRAIN_EXPERTS: usize = 16;

/// Builds the training context.
pub fn train_model(size: Size) -> TrainModel {
    let model = MoeModelConfig::transformer_xl(size.train_layers, TRAIN_EXPERTS);
    let batch = BatchShape {
        seqs_per_device: 64,
        seq_len: model.seq_len,
    };
    TrainModel {
        cost: CostModel::new(DeviceSpec::a100(), model),
        topo: Topology::new(ClusterSpec::with_total_gpus(TRAIN_EXPERTS)),
        batch,
    }
}

/// The step mix: alternating Baseline (fair-share) and full Lina
/// (priority, micro-ops, pipelining, packing 4 experts per device, the
/// paper's setting for 16-expert Transformer-XL), each with its own
/// jitter seed.
pub fn train_steps(size: Size, seed: u64) -> Vec<(TrainScheme, u64)> {
    let base = program_seed(Workload::TrainStepMix, seed);
    (0..size.train_steps)
        .map(|i| {
            let scheme = if i % 2 == 0 {
                TrainScheme::Baseline
            } else {
                TrainScheme::Lina {
                    experts_per_device: 4,
                }
            };
            (scheme, base.wrapping_add(i as u64))
        })
        .collect()
}

/// Step-time target of the training workload's attainment metric.
pub const TRAIN_STEP_TARGET: SimDuration = SimDuration::from_millis(400);
