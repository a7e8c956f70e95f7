//! The traced replay: re-runs a finished simulation's own work through
//! each layer's public functions, one span per call, in dispatch order.
//!
//! Serving batches are rebuilt from the run's `RequestRecord`s (batch
//! id, dispatch instant, members in queue order) and the trace's token
//! paths. Training steps are rebuilt from the step list. The replay
//! checks itself against the run: it must plan every batch the run
//! dispatched, re-estimate exactly as often, and, where the run priced
//! batches alone on the wire without faults, reproduce every batch's
//! simulated service to the nanosecond.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use lina_baselines::{InferScheme, TrainScheme};
use lina_core::{CommPolicy, CommView, PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
use lina_model::{balanced_routing, build_train_step, CommMeta};
use lina_netsim::{CollectiveSpec, SoloTimer};
use lina_runner::{
    execute, execute_plan_solo, plan_batch_layered, ExecutionPlan, FinishedBatch, InferenceConfig,
    ReplicaExecutor, StepMetrics,
};
use lina_serve::{
    Batcher, ClusterOutcome, HealthMonitor, LoadBalancer, NetworkMode, ReplicaSnapshot,
    RequestRecord, ServeConfig, ServeEngine,
};
use lina_simcore::{Rng, SimDuration, SimTime};
use lina_workload::{Mode, TokenBatch, TokenSource};

use crate::digest::Fnv;
use crate::sim::{Outputs, ServeSetup, Setup, TrainSetup};
use crate::trace::Tracer;

/// What the replay counted and found.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Work counts, by metric name (`runner.plan.tokens`, ...).
    pub counts: BTreeMap<&'static str, f64>,
    /// Share of replayed simulated service spent in all-to-alls.
    pub a2a_share: f64,
    /// Replayed batches (or steps) whose simulated time differs from
    /// the run's.
    pub service_mismatches: u64,
    /// Batch ids the run dispatched that no completed request names.
    pub unmatched_batches: u64,
    /// Host seconds the replay took, tracing included.
    pub wall_s: f64,
    /// Fidelity findings, one line each.
    pub notes: Vec<String>,
    /// Whether every fidelity check passed.
    pub ok: bool,
}

impl Replay {
    fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    fn check(&mut self, ok: bool, note: String) {
        self.ok &= ok;
        self.notes
            .push(format!("{} {note}", if ok { "ok:" } else { "MISMATCH:" }));
    }
}

/// Replays `outputs` (produced from `setup`) under `tracer`.
pub fn replay(setup: &Setup, outputs: &Outputs, tracer: &Tracer) -> Replay {
    let t0 = Instant::now();
    let mut r = match (setup, outputs) {
        (Setup::Serve(s), Outputs::Serve(o)) => replay_serve(s, o, tracer),
        (Setup::Train(t), Outputs::Train(steps)) => replay_train(t, steps, tracer),
        _ => unreachable!("outputs belong to their setup"),
    };
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

fn needs_scheduler(scheme: InferScheme) -> bool {
    matches!(
        scheme,
        InferScheme::Lina | InferScheme::LinaNoEstimation | InferScheme::LinaNoFinetune
    )
}

fn estimates(scheme: InferScheme) -> bool {
    matches!(scheme, InferScheme::Lina | InferScheme::LinaNoFinetune)
}

/// The scheduler timing knobs the serving engine derives for its batch
/// size: the paper's overheads, measured at 16384 tokens per device,
/// scaled down to a full serving batch.
fn two_phase_config(serve: &ServeConfig, devices: usize) -> TwoPhaseConfig {
    let full_tokens_per_device = (serve.batcher.max_batch_requests * serve.tokens_per_request)
        .div_ceil(devices)
        .max(1);
    let factor = (full_tokens_per_device as f64 / 16_384.0).clamp(1.0 / 512.0, 1.0);
    let mut cfg = TwoPhaseConfig::paper_defaults(devices);
    cfg.top_k = serve.top_k;
    cfg.max_experts_per_device = serve.max_experts_per_device;
    cfg.schedule_time = cfg.schedule_time.mul_f64(factor);
    cfg.resume_time = cfg.resume_time.mul_f64(factor);
    cfg
}

/// The serving engine's offline profile: eight training-distribution
/// batches drawn from the second word of the master seed's stream.
fn offline_scheduler(s: &ServeSetup) -> TwoPhaseScheduler {
    let serve = &s.config.serve;
    let devices = s.model.topo.devices();
    let mut root = Rng::new(serve.seed);
    root.next_u64();
    let profile_seed = root.next_u64();
    let mut src = TokenSource::new(&s.model.spec, serve.top_k, profile_seed);
    let profile: Vec<TokenBatch> = (0..8)
        .map(|_| src.sample_batch(devices, 1024, Mode::Train))
        .collect();
    let estimator = PopularityEstimator::profile(&profile, serve.path_length);
    TwoPhaseScheduler::new(two_phase_config(serve, devices), estimator)
}

/// Digest of a collective's shape, for counting repeated specs.
fn spec_digest(spec: &CollectiveSpec) -> u64 {
    let mut h = Fnv::default();
    match spec {
        CollectiveSpec::AllToAll {
            participants,
            sizes,
            algo,
        } => {
            h.str(&format!("{algo:?}"));
            for p in participants {
                h.u64(u64::from(p.0));
            }
            for row in sizes {
                for &b in row {
                    h.f64(b);
                }
            }
        }
        other => {
            h.str(&format!("{other:?}"));
        }
    }
    h.finish()
}

/// The per-replica queue state the balancer replay keeps: requests
/// picked for a replica until the run dispatched (or failed) them.
struct Queues {
    /// `(instant the request left the queue, tokens)` per replica.
    fifo: Vec<VecDeque<(SimTime, usize)>>,
    tokens: Vec<usize>,
}

impl Queues {
    fn drain_until(&mut self, now: SimTime) {
        for (q, tokens) in self.fifo.iter_mut().zip(&mut self.tokens) {
            while let Some(&(left, t)) = q.front() {
                if left > now {
                    break;
                }
                q.pop_front();
                *tokens -= t;
            }
        }
    }
}

fn replay_serve(s: &ServeSetup, o: &ClusterOutcome, tracer: &Tracer) -> Replay {
    let mut out = Replay {
        ok: true,
        ..Replay::default()
    };
    let cfg = &s.config;
    let serve = &cfg.serve;
    let (cost, topo, spec) = (&s.model.cost, &s.model.topo, &s.model.spec);
    let devices = topo.devices();
    let replicas = cfg.replicas;
    let infer = InferenceConfig {
        scheme: serve.scheme,
        top_k: serve.top_k,
    };
    let contended = serve.network == NetworkMode::Contended;
    let fault_free = cfg.faults.schedule.is_empty();

    // Batches in dispatch order (ids count dispatches), members in
    // queue order (admission order, which is id order without retries).
    let mut batches: BTreeMap<usize, Vec<&RequestRecord>> = BTreeMap::new();
    for rec in o.tracker.records() {
        batches.entry(rec.batch).or_default().push(rec);
    }
    for members in batches.values_mut() {
        members.sort_by_key(|r| r.id);
    }
    let recorded: BTreeMap<u64, SimDuration> = batches
        .iter()
        .map(|(&b, m)| (b as u64, m[0].service))
        .collect();
    let mut left = vec![SimTime::MAX; s.trace.len()];
    for rec in o.tracker.records() {
        left[rec.id] = rec.dispatched;
    }
    for f in o.tracker.failures() {
        left[f.id] = f.ended;
    }

    // Run-start work inside `run_trace`: the capacity probe (only the
    // least-expected-latency balancer reads it) and the offline profile.
    let capacity = if cfg.balancer == lina_serve::BalancerKind::LeastExpectedLatency {
        let engine = ServeEngine::new(cost, topo, spec, serve.clone());
        tracer.span("serve.capacity", None, || engine.capacity())
    } else {
        0.0
    };
    let mut scheduler = needs_scheduler(serve.scheme)
        .then(|| tracer.span("serve.offline_profile", None, || offline_scheduler(s)));
    let two_phase = two_phase_config(serve, devices);
    let reestimate_every = serve.reestimate_every.filter(|_| estimates(serve.scheme));
    let mut window: VecDeque<TokenBatch> = VecDeque::new();
    let mut estimator_calls = 0;

    let mut timer = SoloTimer::new(topo);
    let mut executors: Vec<ReplicaExecutor> = if contended {
        (0..replicas)
            .map(|_| ReplicaExecutor::new(NetworkMode::Contended, topo))
            .collect()
    } else {
        Vec::new()
    };
    let mut expected: BTreeMap<u64, (usize, SimDuration)> = BTreeMap::new();
    let mut balancer: Box<dyn LoadBalancer> = cfg.balancer.build();
    let mut monitor = HealthMonitor::new(cfg.health.clone(), replicas);
    let batcher = Batcher::new(serve.batcher.clone());
    let mut queues = Queues {
        fifo: vec![VecDeque::new(); replicas],
        tokens: vec![0; replicas],
    };
    let mut seen_specs = BTreeSet::new();
    let (mut collectives, mut repeats) = (0u64, 0u64);
    let (mut a2a, mut service) = (SimDuration::ZERO, SimDuration::ZERO);
    let mut mismatched: Vec<(u64, SimDuration, SimDuration)> = Vec::new();

    let mut admit = |req: &lina_serve::Request, monitor: &HealthMonitor, tracer: &Tracer| {
        let now = req.arrival;
        queues.drain_until(now);
        let mut snaps: Vec<ReplicaSnapshot> = (0..replicas)
            .map(|i| ReplicaSnapshot {
                id: i,
                suspicion: tracer.span("serve.health", None, || monitor.suspicion(i, now)),
                draining: false,
                provisioning: false,
                queued_requests: queues.fifo[i].len(),
                queued_tokens: queues.tokens[i],
                in_flight_tokens: 0,
                server_free: now,
                capacity,
            })
            .collect();
        if !snaps.iter().any(ReplicaSnapshot::routable) {
            for snap in &mut snaps {
                snap.suspicion = 0.0;
            }
        }
        let pick = tracer.span("serve.balancer", None, || balancer.pick(&snaps, now));
        queues.fifo[pick].push_back((left[req.id], req.tokens.len()));
        queues.tokens[pick] += req.tokens.len();
    };

    let mut finish = |fb: FinishedBatch,
                      monitor: &mut HealthMonitor,
                      expected: &mut BTreeMap<u64, (usize, SimDuration)>,
                      tracer: &Tracer| {
        let (replica, nominal) = expected.remove(&fb.id).expect("submitted batch");
        tracer.span("serve.health", Some(fb.id), || {
            monitor.observe(replica, nominal, fb.report.total, fb.completed)
        });
        a2a += fb.report.a2a_times.iter().copied().sum::<SimDuration>();
        service += fb.report.total;
        if recorded.get(&fb.id) != Some(&fb.report.total) {
            mismatched.push((fb.id, fb.report.total, recorded[&fb.id]));
        }
    };

    let mut arrivals = s.trace.iter().peekable();
    let mut last_at = SimTime::ZERO;
    for (k, (&bid, members)) in batches.iter().enumerate() {
        let id = bid as u64;
        let at = members
            .iter()
            .map(|r| r.dispatched)
            .min()
            .expect("a batch has members")
            .max(last_at);
        last_at = at;
        // An arrival beats a dispatch at the same instant.
        while let Some(req) = arrivals.next_if(|r| r.arrival <= at) {
            admit(req, &monitor, tracer);
        }
        for (i, exec) in executors.iter_mut().enumerate() {
            let done = tracer.span("runner.exec.contended", None, || match exec.next_event() {
                Some(t) if t <= at => exec.advance_to(at),
                _ => Vec::new(),
            });
            for fb in done {
                debug_assert_eq!(expected[&fb.id].0, i);
                finish(fb, &mut monitor, &mut expected, tracer);
            }
        }

        let batch = TokenBatch {
            tokens: members
                .iter()
                .flat_map(|r| s.trace[r.id].tokens.iter().cloned())
                .collect(),
            devices,
            experts: spec.experts,
        };
        let member_arrivals: Vec<SimTime> = members.iter().map(|r| r.arrival).collect();
        tracer.span("serve.batcher", Some(id), || {
            batcher.next_dispatch(&member_arrivals, 0, at)
        });
        let plan: Arc<ExecutionPlan> = Arc::new(tracer.span("runner.plan", Some(id), || {
            plan_batch_layered(cost, topo, &infer, scheduler.as_ref(), &batch, None, false)
        }));
        out.count("runner.plan.tokens", batch.tokens.len() as f64);
        let mut plan_collectives = 0.0;
        for lp in &plan.layers {
            for spec in lp.dispatch.iter().chain(lp.combine_a2a.iter()) {
                plan_collectives += 1.0;
                collectives += 1;
                if !seen_specs.insert(spec_digest(spec)) {
                    repeats += 1;
                }
            }
        }
        let report = tracer.span("runner.exec.solo", Some(id), || {
            execute_plan_solo(&plan, &mut timer)
        });
        out.count("runner.exec.solo.collectives", plan_collectives);
        let replica = k % replicas;
        if contended {
            // The solo price is the detector's expected service; the
            // contended executor prices what the batch actually took.
            expected.insert(id, (replica, report.total));
            tracer.span("runner.exec.contended", Some(id), || {
                executors[replica].submit(id, at, plan.clone())
            });
            out.count("runner.exec.contended.collectives", plan_collectives);
        } else {
            let fb = FinishedBatch {
                id,
                dispatched: at,
                completed: at + report.total,
                tokens: batch.tokens.len(),
                report,
            };
            expected.insert(id, (replica, fb.report.total));
            finish(fb, &mut monitor, &mut expected, tracer);
        }

        if let Some(every) = reestimate_every {
            window.push_back(batch);
            if window.len() > serve.reestimate_window {
                window.pop_front();
            }
            if (k + 1) % every == 0 {
                let tokens: usize = window.iter().map(|b| b.tokens.len()).sum();
                out.count("core.estimator.window_tokens", tokens as f64);
                estimator_calls += 1;
                let estimator = tracer.span("core.estimator", None, || {
                    PopularityEstimator::profile(window.make_contiguous(), serve.path_length)
                });
                scheduler = Some(tracer.span("core.twophase.new", None, || {
                    TwoPhaseScheduler::new(two_phase.clone(), estimator)
                }));
            }
        }
    }
    for req in arrivals {
        admit(req, &monitor, tracer);
    }
    for exec in &mut executors {
        loop {
            let done = tracer.span("runner.exec.contended", None, || {
                exec.next_event().map(|t| exec.advance_to(t))
            });
            let Some(done) = done else { break };
            for fb in done {
                finish(fb, &mut monitor, &mut expected, tracer);
            }
        }
    }

    out.a2a_share = a2a.as_secs_f64() / service.as_secs_f64().max(f64::MIN_POSITIVE);
    out.count(
        "runner.exec.solo.repeat_spec_share",
        repeats as f64 / collectives.max(1) as f64,
    );
    out.service_mismatches = mismatched.len() as u64;
    out.unmatched_batches = (o.batches - batches.len()) as u64;

    let planned = batches.len();
    if out.unmatched_batches == 0 {
        out.check(
            planned == o.batches,
            format!("runner.plan.calls {planned} == sim.batches {}", o.batches),
        );
    } else {
        out.check(
            out.unmatched_batches <= o.aborted_batches as u64,
            format!(
                "runner.plan.calls {planned} + {} batch ids with no completed member == sim.batches {}; \
                 those ids are aborted batches (sim.aborted_batches {}) whose members were re-dispatched or failed, \
                 so their contents cannot be rebuilt",
                out.unmatched_batches, o.batches, o.aborted_batches
            ),
        );
    }
    out.check(
        estimator_calls == o.reestimations,
        format!(
            "core.estimator.calls {estimator_calls} == sim.reestimations {}",
            o.reestimations
        ),
    );
    if !contended && fault_free {
        out.check(
            mismatched.is_empty(),
            format!(
                "execute_plan_solo(..).total equals the recorded service on {} of {planned} batches",
                planned - mismatched.len()
            ),
        );
    } else {
        let diff: f64 = mismatched
            .iter()
            .map(|(_, a, b)| (a.as_millis_f64() - b.as_millis_f64()).abs())
            .sum::<f64>()
            / mismatched.len().max(1) as f64;
        out.notes.push(format!(
            "differs: the run's replica assignment, gray slowdowns, crash aborts and hedges are not \
             rebuilt, so the replay sends batch k to replica k mod {replicas} at nominal speed; \
             {} of {planned} replayed services differ from the recorded ones (mean |diff| {diff:.3} ms)",
            mismatched.len()
        ));
    }
    out.notes.push(
        "approximate: serve.balancer and serve.health replay one pick (and one suspicion query per \
         replica) per admission over a queue model rebuilt from the records; serve.batcher replays \
         one next_dispatch per batch over that batch's members"
            .to_string(),
    );
    out
}

/// Delegating policy that times every call into the wrapped
/// `TrainScheme::policy()`.
struct TracedPolicy<'a> {
    inner: Box<dyn CommPolicy>,
    tracer: &'a Tracer,
    step: u64,
}

impl CommPolicy for TracedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, view: &CommView<'_>) -> Vec<usize> {
        let inner = &mut self.inner;
        self.tracer
            .span("core.training", Some(self.step), || inner.select(view))
    }

    fn on_complete(&mut self, meta: &CommMeta) {
        let inner = &mut self.inner;
        self.tracer
            .span("core.training", Some(self.step), || inner.on_complete(meta))
    }
}

fn replay_train(t: &TrainSetup, steps: &[StepMetrics], tracer: &Tracer) -> Replay {
    let mut out = Replay {
        ok: true,
        ..Replay::default()
    };
    let m = &t.model;
    let mut mismatches = 0;
    for (i, &(scheme, seed)) in t.steps.iter().enumerate() {
        let step = i as u64;
        let graph = tracer.span("model.graph", Some(step), || {
            let routing = balanced_routing(&m.cost.model, m.topo.devices(), m.batch);
            let mut opts = scheme.step_options(m.cost.model.experts, &m.topo);
            opts.seed = seed;
            build_train_step(&m.cost, &m.topo, m.batch, &routing, &opts)
        });
        out.count("model.graph.ops", graph.ops().len() as f64);
        let mut policy = TracedPolicy {
            inner: scheme.policy(),
            tracer,
            step,
        };
        let exec = tracer.span("runner.engine", Some(step), || {
            execute(&graph, &m.topo, &mut policy)
        });
        if steps.get(i).map(|s| s.step_time) != Some(exec.makespan) {
            mismatches += 1;
        }
    }
    out.service_mismatches = mismatches;
    let names: BTreeSet<String> = t
        .steps
        .iter()
        .map(|(s, _)| match s {
            TrainScheme::Lina { .. } => "Lina".to_string(),
            other => format!("{other:?}"),
        })
        .collect();
    out.check(
        mismatches == 0,
        format!(
            "replayed makespan equals the recorded step time on {} of {} steps ({})",
            t.steps.len() as u64 - mismatches,
            t.steps.len(),
            names.into_iter().collect::<Vec<_>>().join(", ")
        ),
    );
    out
}
