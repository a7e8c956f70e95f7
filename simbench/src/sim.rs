//! Setting a workload up, simulating it, and reading its simulated
//! metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use lina_baselines::TrainScheme;
use lina_runner::{run_train_step, StepMetrics};
use lina_serve::{ClusterConfig, ClusterEngine, ClusterOutcome, FaultPlan, Request, ServeEngine};
use lina_simcore::SimTime;

use crate::config::{self, ServeModel, Size, TrainModel, Workload};
use crate::digest;
use crate::metrics::{percentile, tail_quantile, Metrics};
use crate::trace::{maybe, Tracer};

/// A serving workload's generated inputs.
pub struct ServeSetup {
    /// Cost model, topology and gating workload.
    pub model: ServeModel,
    /// The cluster config the timed run uses.
    pub config: ClusterConfig,
    /// Offered rate, requests per simulated second.
    pub rate: f64,
    /// The open-loop request trace, in `(arrival, id)` order.
    pub trace: Vec<Request>,
}

/// The training workload's inputs.
pub struct TrainSetup {
    /// Cost model, topology and batch.
    pub model: TrainModel,
    /// `(scheme, jitter seed)` per step.
    pub steps: Vec<(TrainScheme, u64)>,
}

/// A workload's inputs.
pub enum Setup {
    /// A serving workload.
    Serve(Box<ServeSetup>),
    /// The training workload.
    Train(Box<TrainSetup>),
}

/// Builds a workload's inputs from the benchmark seed: the model, the
/// capacity probe that anchors the offered rate, and the request trace
/// (serving). With a tracer, the probe and trace generation are spans.
pub fn setup(w: Workload, size: Size, seed: u64, tracer: Option<&Tracer>) -> Setup {
    if !w.is_serving() {
        return Setup::Train(Box::new(TrainSetup {
            model: config::train_model(size),
            steps: config::train_steps(size, seed),
        }));
    }
    let model = config::serve_model();
    let probe = ClusterEngine::new(
        &model.cost,
        &model.topo,
        &model.spec,
        config::cluster_config(
            w,
            config::serve_config(w, size, 1.0, config::PROBE_SEED),
            FaultPlan::none(),
        ),
    );
    let capacity = maybe(tracer, "serve.capacity", None, || probe.capacity());
    let rate = config::load(w) * capacity;
    let serve = config::serve_config(w, size, rate, seed);
    let trace = {
        let engine = ServeEngine::new(&model.cost, &model.topo, &model.spec, serve.clone());
        maybe(tracer, "serve.trace", None, || engine.generate_requests())
    };
    let span = trace
        .last()
        .expect("a workload offers at least one request")
        .arrival
        .saturating_since(SimTime::ZERO);
    let config = config::cluster_config(w, serve, config::fault_plan(w, span, seed));
    Setup::Serve(Box::new(ServeSetup {
        model,
        config,
        rate,
        trace,
    }))
}

impl Setup {
    /// Digest of every generated input.
    pub fn input_digest(&self) -> u64 {
        match self {
            Setup::Serve(s) => digest::serve_inputs(&s.config, s.rate, &s.trace),
            Setup::Train(t) => {
                let m = &t.model;
                let describe = format!(
                    "{}|{}|{}|{}|{}|{}",
                    m.cost.model.name,
                    m.cost.model.layers,
                    m.cost.model.experts,
                    m.topo.devices(),
                    m.batch.seqs_per_device,
                    m.batch.seq_len
                );
                let steps: Vec<(String, u64)> = t
                    .steps
                    .iter()
                    .map(|(s, seed)| (format!("{s:?}"), *seed))
                    .collect();
                digest::train_inputs(&describe, &steps)
            }
        }
    }

    /// Runs the simulation once and returns its outputs and the host
    /// seconds the simulation itself took (the trace copy the run
    /// consumes is made before the clock starts).
    pub fn simulate(&self) -> (Outputs, f64) {
        match self {
            Setup::Serve(s) => {
                let engine = ClusterEngine::new(
                    &s.model.cost,
                    &s.model.topo,
                    &s.model.spec,
                    s.config.clone(),
                );
                let trace = s.trace.clone();
                let t0 = Instant::now();
                let out = engine.run_trace(trace);
                let dt = t0.elapsed().as_secs_f64();
                (Outputs::Serve(Box::new(out)), dt)
            }
            Setup::Train(t) => {
                let m = &t.model;
                let t0 = Instant::now();
                let steps: Vec<StepMetrics> = t
                    .steps
                    .iter()
                    .map(|&(scheme, seed)| {
                        run_train_step(&m.cost, &m.topo, m.batch, scheme, seed).metrics
                    })
                    .collect();
                let dt = t0.elapsed().as_secs_f64();
                (Outputs::Train(steps), dt)
            }
        }
    }

    /// Simulated operations one simulation attempts: offered requests,
    /// or training steps.
    pub fn ops(&self) -> u64 {
        match self {
            Setup::Serve(s) => s.trace.len() as u64,
            Setup::Train(t) => t.steps.len() as u64,
        }
    }
}

/// What one simulation produced.
pub enum Outputs {
    /// The cluster run.
    Serve(Box<ClusterOutcome>),
    /// One metrics record per training step.
    Train(Vec<StepMetrics>),
}

impl Outputs {
    /// Digest of every record.
    pub fn digest(&self) -> u64 {
        match self {
            Outputs::Serve(o) => digest::serve_outputs(o.tracker.records(), o.tracker.failures()),
            Outputs::Train(steps) => digest::train_outputs(steps),
        }
    }

    /// Operations that failed in the simulation: dropped and timed-out
    /// requests.
    pub fn sim_failures(&self) -> u64 {
        match self {
            Outputs::Serve(o) => o.tracker.failures().len() as u64,
            Outputs::Train(_) => 0,
        }
    }

    /// Conservation: every offered request ends exactly once, with
    /// arrival <= dispatched <= completed; every training step ran.
    /// Returns one line per violation.
    pub fn conservation(&self, setup: &Setup) -> Vec<String> {
        let mut errors = Vec::new();
        match (self, setup) {
            (Outputs::Serve(o), Setup::Serve(s)) => {
                let mut seen = BTreeSet::new();
                for r in o.tracker.records() {
                    if !seen.insert(r.id) {
                        errors.push(format!("request {} ended twice", r.id));
                    }
                    if !(r.arrival <= r.dispatched && r.dispatched <= r.completed) {
                        errors.push(format!(
                            "request {}: arrival {} dispatched {} completed {} out of order",
                            r.id, r.arrival.0, r.dispatched.0, r.completed.0
                        ));
                    }
                    if r.completed - r.dispatched != r.service {
                        errors.push(format!(
                            "request {}: service != completed - dispatched",
                            r.id
                        ));
                    }
                }
                for f in o.tracker.failures() {
                    if !seen.insert(f.id) {
                        errors.push(format!("request {} ended twice", f.id));
                    }
                    if f.ended < f.arrival {
                        errors.push(format!("request {} ended before it arrived", f.id));
                    }
                }
                for r in &s.trace {
                    if !seen.remove(&r.id) {
                        errors.push(format!("request {} never ended", r.id));
                    }
                }
                for id in seen {
                    errors.push(format!("request {id} ended but was never offered"));
                }
            }
            (Outputs::Train(steps), Setup::Train(t)) => {
                if steps.len() != t.steps.len() {
                    errors.push(format!("{} of {} steps ran", steps.len(), t.steps.len()));
                }
                for (i, m) in steps.iter().enumerate() {
                    if m.step_time.0 == 0 {
                        errors.push(format!("step {i} took no simulated time"));
                    }
                }
            }
            _ => errors.push("outputs do not belong to this setup".into()),
        }
        errors
    }

    /// The simulated end-to-end metrics, plus a note on the tail
    /// percentile actually reported.
    pub fn end_to_end(&self, setup: &Setup, m: &mut Metrics) -> String {
        match (self, setup) {
            (Outputs::Serve(o), Setup::Serve(s)) => {
                let records = o.tracker.records();
                let mut lat: Vec<f64> = records
                    .iter()
                    .map(|r| r.latency().as_millis_f64())
                    .collect();
                lat.sort_by(f64::total_cmp);
                let q = tail_quantile(lat.len());
                m.set("sim_latency_ms_p50", percentile(&lat, 0.5));
                m.set("sim_latency_ms_p99", percentile(&lat, q));
                let slo = s.config.serve.slo;
                let good = records.iter().filter(|r| r.latency() <= slo).count();
                let offered = records.len() + o.tracker.failures().len();
                m.set("sim_slo_attainment", good as f64 / offered.max(1) as f64);
                // Goodput at the offered rate: the configured mean rate
                // times the share of offered requests that met the SLO
                // (a finite trace's realized span would add arrival noise).
                m.set(
                    "sim_goodput_rps",
                    s.rate * good as f64 / offered.max(1) as f64,
                );
                let mut service: Vec<f64> = batch_services(o).values().copied().collect();
                service.sort_by(f64::total_cmp);
                m.set("sim_step_ms_p50", percentile(&service, 0.5));
                format!(
                    "sim_latency_ms_p99 is p{:.0} of {} completed requests ({} offered, {} failed)",
                    q * 100.0,
                    lat.len(),
                    offered,
                    o.tracker.failures().len()
                )
            }
            (Outputs::Train(steps), Setup::Train(_)) => {
                let mut t: Vec<f64> = steps.iter().map(|s| s.step_time.as_millis_f64()).collect();
                t.sort_by(f64::total_cmp);
                let q = tail_quantile(t.len());
                m.set("sim_latency_ms_p50", percentile(&t, 0.5));
                m.set("sim_latency_ms_p99", percentile(&t, q));
                m.set("sim_step_ms_p50", percentile(&t, 0.5));
                let good = steps
                    .iter()
                    .filter(|s| s.step_time <= config::TRAIN_STEP_TARGET)
                    .count();
                m.set(
                    "sim_slo_attainment",
                    good as f64 / steps.len().max(1) as f64,
                );
                let total_s: f64 = steps.iter().map(|s| s.step_time.as_secs_f64()).sum();
                m.set(
                    "sim_goodput_rps",
                    good as f64 / total_s.max(f64::MIN_POSITIVE),
                );
                format!(
                    "sim_latency_ms_p99 is p{:.0} of {} training steps (step-time target {} ms)",
                    q * 100.0,
                    t.len(),
                    config::TRAIN_STEP_TARGET.as_millis_f64()
                )
            }
            _ => unreachable!("outputs belong to their setup"),
        }
    }

    /// The simulated per-layer metrics that come from the run itself
    /// (the replay adds `sim.a2a_share`).
    pub fn per_layer(&self, m: &mut Metrics) {
        let zero = [
            "sim.queue_wait_ms_p50",
            "sim.queue_wait_ms_p99",
            "sim.service_ms_p50",
            "sim.service_ms_p99",
            "sim.batches",
            "sim.batch_requests_mean",
            "sim.reestimations",
            "sim.hedges_issued",
            "sim.hedge_win_ratio",
            "sim.hedge_wasted_frac",
            "sim.aborted_batches",
            "sim.train.a2a_bwd_slowdown_p50",
            "sim.train.pipelining_efficiency",
            "sim.train.compute_util",
        ];
        for name in zero {
            m.set(name, 0.0);
        }
        match self {
            Outputs::Serve(o) => {
                let records = o.tracker.records();
                let mut wait: Vec<f64> = records
                    .iter()
                    .map(|r| r.queue_delay().as_millis_f64())
                    .collect();
                wait.sort_by(f64::total_cmp);
                m.set("sim.queue_wait_ms_p50", percentile(&wait, 0.5));
                m.set("sim.queue_wait_ms_p99", percentile(&wait, 0.99));
                let services = batch_services(o);
                let mut service: Vec<f64> = services.values().copied().collect();
                service.sort_by(f64::total_cmp);
                m.set("sim.service_ms_p50", percentile(&service, 0.5));
                m.set("sim.service_ms_p99", percentile(&service, 0.99));
                m.set("sim.batches", o.batches as f64);
                m.set(
                    "sim.batch_requests_mean",
                    records.len() as f64 / services.len().max(1) as f64,
                );
                m.set("sim.reestimations", o.reestimations as f64);
                m.set("sim.hedges_issued", o.hedges_issued as f64);
                if o.hedges_issued > 0 {
                    m.set(
                        "sim.hedge_win_ratio",
                        o.hedges_won as f64 / o.hedges_issued as f64,
                    );
                }
                m.set("sim.hedge_wasted_frac", o.hedge_wasted_frac);
                m.set("sim.aborted_batches", o.aborted_batches as f64);
            }
            Outputs::Train(steps) => {
                let mut slow: Vec<f64> = steps
                    .iter()
                    .flat_map(|s| s.a2a_bwd_slowdowns.iter().copied())
                    .collect();
                slow.sort_by(f64::total_cmp);
                m.set("sim.train.a2a_bwd_slowdown_p50", percentile(&slow, 0.5));
                let n = steps.len().max(1) as f64;
                m.set(
                    "sim.train.pipelining_efficiency",
                    steps.iter().map(|s| s.pipelining_efficiency).sum::<f64>() / n,
                );
                m.set(
                    "sim.train.compute_util",
                    steps.iter().map(|s| s.compute_util).sum::<f64>() / n,
                );
            }
        }
    }
}

/// Simulated service (ms) of every batch that has a completed member,
/// by batch id.
pub fn batch_services(o: &ClusterOutcome) -> BTreeMap<usize, f64> {
    o.tracker
        .records()
        .iter()
        .map(|r| (r.batch, r.service.as_millis_f64()))
        .collect()
}

/// Times the workload's set-up: blocks of set-ups, each block at least
/// 1 ms long so that sub-microsecond set-ups are not timer noise, until
/// at least `min_blocks` blocks and `min_secs` seconds. Returns the last
/// setup and the per-set-up time of each block, in seconds.
pub fn timed_setup(
    w: Workload,
    size: Size,
    seed: u64,
    min_blocks: usize,
    min_secs: f64,
) -> (Setup, Vec<f64>) {
    let mut per_setup = Vec::new();
    let mut spent = 0.0;
    let mut block = 1;
    loop {
        let t0 = Instant::now();
        let mut s = setup(w, size, seed, None);
        for _ in 1..block {
            s = setup(w, size, seed, None);
        }
        let dt = t0.elapsed().as_secs_f64();
        spent += dt;
        if dt < 1e-3 {
            // Too short to time well: grow the block and discard it.
            block *= 2;
            continue;
        }
        per_setup.push(dt / block as f64);
        if per_setup.len() >= min_blocks && spent >= min_secs {
            return (s, per_setup);
        }
    }
}
