//! # lina-simbench
//!
//! The simulator's benchmark: one command runs a fixed workload through
//! the public API of `lina-serve` / `lina-runner`, checks the simulated
//! outputs, and prints every metric by name with its unit. See
//! `README.md` beside this crate for the workloads, the layer map and
//! the predictions.

pub mod config;
pub mod digest;
pub mod metrics;
pub mod reference;
pub mod replay;
pub mod sim;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use config::{Size, Workload};
use metrics::{median, Metrics, LAYERS};
use reference::{Entry, References};
use sim::{Outputs, Setup};
use trace::Tracer;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Simulation size.
    pub size: Size,
    /// Reference file to check against (and to update).
    pub references: PathBuf,
    /// Store this run's outputs as the reference for its workload and
    /// seed instead of checking them.
    pub update_reference: bool,
    /// Where the traced run writes its spans (`None`: nowhere).
    pub spans_out: Option<PathBuf>,
}

/// What one invocation measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Conservation, determinism, reference and replay checks passed.
    pub correct: bool,
    /// Simulated operations attempted across every simulation run.
    pub attempted: u64,
    /// Operations failed: simulated drops and timeouts, or every
    /// operation of a run whose outputs failed a check.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
}

impl Outcome {
    /// The result line.
    pub fn result_line(&self) -> String {
        metrics::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// The reference entry of one run: input and output digests, the
/// simulated operation and failure counts, and every simulated metric.
pub fn reference_entry(setup: &Setup, outputs: &Outputs) -> Entry {
    let mut e2e = Metrics::end_to_end();
    outputs.end_to_end(setup, &mut e2e);
    let mut layer = Metrics::per_layer();
    outputs.per_layer(&mut layer);
    let mut entry = Entry::new();
    entry.insert(
        "input_digest".into(),
        format!("{:016x}", setup.input_digest()),
    );
    entry.insert("output_digest".into(), format!("{:016x}", outputs.digest()));
    entry.insert("ops".into(), setup.ops().to_string());
    entry.insert("ops_failed".into(), outputs.sim_failures().to_string());
    for (name, value, _) in e2e.entries().into_iter().chain(layer.entries()) {
        if name.starts_with("sim") {
            entry.insert(name.to_string(), metrics::number(value));
        }
    }
    entry
}

/// Conservation plus the reference check of a first simulation.
fn check_outputs(
    opts: &Options,
    setup: &Setup,
    outputs: &Outputs,
    log: &mut Vec<String>,
) -> Result<bool, String> {
    let mut ok = true;
    let errors = outputs.conservation(setup);
    for e in errors.iter().take(20) {
        log.push(format!("conservation: {e}"));
    }
    ok &= errors.is_empty();
    let name = opts.workload.name();
    let entry = reference_entry(setup, outputs);
    log.push(format!(
        "input_digest {} output_digest {}",
        entry["input_digest"], entry["output_digest"]
    ));
    let mut refs = References::load(&opts.references)?;
    if opts.update_reference {
        refs.set(name, opts.seed, entry);
        std::fs::write(&opts.references, refs.render())
            .map_err(|e| format!("{}: {e}", opts.references.display()))?;
        log.push(format!("reference stored for {name} seed {}", opts.seed));
    } else if let Some(expected) = refs.get(name, opts.seed) {
        let diffs = reference::compare(expected, &entry);
        for d in &diffs {
            log.push(format!("reference mismatch: {d}"));
        }
        log.push(format!(
            "reference for {name} seed {}: {}",
            opts.seed,
            if diffs.is_empty() {
                "matched"
            } else {
                "MISMATCHED"
            }
        ));
        ok &= diffs.is_empty();
    } else {
        log.push(format!(
            "no stored reference for {name} seed {} (references exist for seeds {} and {})",
            opts.seed,
            reference::DEFAULT_SEED,
            reference::HELDOUT_SEED
        ));
    }
    Ok(ok)
}

/// Host memory high-water mark of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    }
}

fn run_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut log = Vec::new();
    let (setup, mut setup_samples) = sim::timed_setup(w, opts.size, opts.seed, 3, 1.0);
    let ops = setup.ops();

    // Every simulation is timed; the first is the one checked, and the
    // rest must reproduce it exactly.
    let start = Instant::now();
    let (first, dt) = setup.simulate();
    let mut correct = check_outputs(opts, &setup, &first, &mut log)?;
    let digest = first.digest();
    let mut rates = vec![ops as f64 / dt.max(f64::MIN_POSITIVE)];
    while rates.len() < 3 || start.elapsed().as_secs_f64() < opts.seconds {
        // One more set-up before each simulation spreads the set-up
        // samples over the whole run, so that `setup_s` averages over
        // the same swings in machine speed as `sim_ops_per_host_s`.
        setup_samples.extend(sim::timed_setup(w, opts.size, opts.seed, 1, 0.0).1);
        let (out, dt) = setup.simulate();
        rates.push(ops as f64 / dt.max(f64::MIN_POSITIVE));
        if out.digest() != digest {
            log.push(format!(
                "determinism: simulation {} differs from the first",
                rates.len()
            ));
            correct = false;
        }
    }
    let runs = rates.len() as u64;

    let mut m = Metrics::end_to_end();
    m.set("sim_ops_per_host_s", median(&rates));
    m.set("setup_s", median(&setup_samples));
    let note = first.end_to_end(&setup, &mut m);
    m.set("peak_rss_mb", peak_rss_mb()?);
    log.push(note);
    log.push(format!(
        "{} set-up samples, median {:.4e} s",
        setup_samples.len(),
        median(&setup_samples)
    ));
    log.push(format!(
        "{} timed simulations of {ops} ops in {:.2} s, ops/s per simulation: {}",
        rates.len(),
        start.elapsed().as_secs_f64(),
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let attempted = ops * runs;
    let failed = if correct {
        first.sim_failures() * runs
    } else {
        attempted
    };
    log.push(format!("ops_attempted {attempted} ops_failed {failed}"));
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        log,
    })
}

/// Layers whose calls happen inside the timed simulation (as opposed
/// to set-up); the event loop's residual is the untraced run time
/// minus their replayed self time.
fn in_run(layer: &str) -> bool {
    !matches!(layer, "serve.trace")
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let mut log = Vec::new();
    let tracer = Tracer::default();
    let setup = tracer.span("bench.setup", None, || {
        sim::setup(w, opts.size, opts.seed, Some(&tracer))
    });
    let setup_totals = tracer.layer_totals();
    let ops = setup.ops();

    let (first, _) = setup.simulate();
    let mut correct = check_outputs(opts, &setup, &first, &mut log)?;
    let digest = first.digest();
    let mut runs = 1u64;
    let mut untraced = Vec::new();
    let start = Instant::now();
    while untraced.len() < 3 || start.elapsed().as_secs_f64() < opts.seconds {
        let (out, dt) = setup.simulate();
        runs += 1;
        untraced.push(dt);
        if out.digest() != digest {
            log.push(format!(
                "determinism: simulation {runs} differs from the first"
            ));
            correct = false;
        }
    }
    let untraced_s = median(&untraced);

    let replay = tracer.span("bench.replay", None, || {
        replay::replay(&setup, &first, &tracer)
    });
    correct &= replay.ok;
    log.extend(replay.notes.iter().map(|n| format!("replay {n}")));

    let totals = tracer.layer_totals();
    let busy = |layer: &str| totals.get(layer).map_or(0.0, |t| t.self_s);
    let setup_busy = |layer: &str| setup_totals.get(layer).map_or(0.0, |t| t.self_s);
    let in_run_busy: f64 = LAYERS
        .iter()
        .filter(|l| in_run(l))
        .map(|l| busy(l) - setup_busy(l))
        .sum();
    let setup_layers: f64 = LAYERS.iter().map(|l| setup_busy(l)).sum();
    // The part of the untraced run no replayed layer accounts for: the
    // cluster event loop (serving), or `run_train_step`'s metric
    // extraction with its solo pricing of every backward all-to-all
    // (training).
    let residual = untraced_s - in_run_busy;
    let traced_total = setup_layers + untraced_s;
    let mut m = Metrics::per_layer();
    for layer in LAYERS {
        let t = totals.get(layer).copied().unwrap_or_default();
        m.set(&format!("{layer}.calls"), t.calls as f64);
        m.set(&format!("{layer}.busy_s"), t.self_s);
        m.set(&format!("{layer}.share"), t.self_s / traced_total);
        m.set(
            &format!("{layer}.per_call_us"),
            if t.calls == 0 {
                0.0
            } else {
                t.self_s / t.calls as f64 * 1e6
            },
        );
    }
    let (requests, tokens) = match &setup {
        Setup::Serve(s) => (
            s.trace.len() as f64,
            s.trace.iter().map(|r| r.tokens.len()).sum::<usize>() as f64,
        ),
        Setup::Train(_) => (0.0, 0.0),
    };
    m.set("serve.trace.requests", requests);
    m.set("serve.trace.tokens", tokens);
    for name in [
        "runner.plan.tokens",
        "runner.exec.solo.collectives",
        "runner.exec.solo.repeat_spec_share",
        "runner.exec.contended.collectives",
        "core.estimator.window_tokens",
        "model.graph.ops",
    ] {
        m.set(name, replay.counts.get(name).copied().unwrap_or(0.0));
    }
    let (cluster_residual, train_residual) = if w.is_serving() {
        (residual, 0.0)
    } else {
        (0.0, residual)
    };
    m.set("serve.cluster.residual_s", cluster_residual);
    m.set("runner.train.residual_s", train_residual);
    m.set("trace.total_s", traced_total);
    m.set("trace.replay_s", replay.wall_s);
    m.set("trace.untraced_s", untraced_s);
    m.set("trace.overhead_s", replay.wall_s - untraced_s);
    m.set("trace.spans", tracer.len() as f64);
    m.set(
        "replay.service_mismatches",
        replay.service_mismatches as f64,
    );
    m.set("replay.unmatched_batches", replay.unmatched_batches as f64);
    first.per_layer(&mut m);
    m.set("sim.a2a_share", replay.a2a_share);
    log.push(format!(
        "layer shares are of {traced_total:.4} s: set-up layers plus the median untraced run \
         ({untraced_s:.4} s over {} runs); the replay itself took {:.4} s",
        untraced.len(),
        replay.wall_s
    ));
    if let Some(path) = &opts.spans_out {
        tracer
            .write_chrome_json(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        log.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        ));
    }

    let attempted = ops * runs;
    let failed = if correct {
        first.sim_failures() * runs
    } else {
        attempted
    };
    log.push(format!("ops_attempted {attempted} ops_failed {failed}"));
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        log,
    })
}
