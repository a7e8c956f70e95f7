//! Order-sensitive 64-bit FNV-1a digests of the workload inputs and of
//! the simulated outputs. The benchmark hashes with its own code so a
//! change to the simulator's hashing helpers cannot move a reference.

use lina_runner::StepMetrics;
use lina_serve::{ClusterConfig, FailureRecord, FaultEvent, Request, RequestRecord};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    /// Mixes one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mixes a string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a serving workload's inputs: the knob values the benchmark
/// sets (read field by field, so removing an unrelated field from a
/// config struct leaves it unchanged), the offered rate, every request
/// of the trace, and every scheduled fault.
pub fn serve_inputs(config: &ClusterConfig, rate: f64, trace: &[Request]) -> u64 {
    let s = &config.serve;
    let mut h = Fnv::default();
    h.str(&format!(
        "{:?}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}|{:?}|{:?}|{}|{:?}|{}|{}",
        s.scheme,
        s.top_k,
        s.path_length,
        s.max_experts_per_device,
        s.arrival,
        s.batcher.max_batch_requests,
        s.batcher.max_wait.as_nanos(),
        s.slo.as_nanos(),
        s.n_requests,
        s.tokens_per_request,
        s.drift_period,
        s.reestimate_every,
        s.reestimate_window,
        s.network,
        s.max_inflight,
        s.seed,
    ));
    h.f64(s.token_spread);
    h.str(&format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}",
        config.replicas,
        config.balancer,
        config.sharing,
        config.health.detector,
        config
            .hedging
            .as_ref()
            .map(|x| (x.quantile, x.multiplier, x.min_samples)),
        config.faults.policy.retry_budget,
        config.faults.policy.jitter,
        config.faults.policy.request_timeout,
    ));
    h.f64(rate);
    for r in trace {
        h.u64(r.id as u64)
            .u64(r.arrival.0)
            .u64(r.tokens.len() as u64);
        for t in &r.tokens {
            h.u64(t.class as u64);
            for layer in &t.selections {
                h.u64(layer.len() as u64);
                for &e in layer {
                    h.u64(u64::from(e));
                }
            }
        }
    }
    for e in config.faults.schedule.events() {
        fault_event(&mut h, e);
    }
    h.finish()
}

fn fault_event(h: &mut Fnv, e: &FaultEvent) {
    h.u64(e.at.0)
        .u64(e.replica as u64)
        .str(&format!("{:?}", e.kind));
}

/// Digest of a serving run's outputs: every completion record and every
/// failure record, in the order the run produced them.
pub fn serve_outputs(records: &[RequestRecord], failures: &[FailureRecord]) -> u64 {
    let mut h = Fnv::default();
    for r in records {
        h.u64(r.id as u64)
            .u64(r.arrival.0)
            .u64(r.dispatched.0)
            .u64(r.completed.0)
            .u64(r.tokens as u64)
            .u64(r.batch as u64)
            .u64(r.service.0);
    }
    for f in failures {
        h.u64(f.id as u64)
            .u64(f.arrival.0)
            .u64(f.ended.0)
            .u64(f.tokens as u64)
            .str(f.outcome.name());
    }
    h.finish()
}

/// Digest of the training workload's inputs.
pub fn train_inputs(describe: &str, steps: &[(String, u64)]) -> u64 {
    let mut h = Fnv::default();
    h.str(describe);
    for (scheme, seed) in steps {
        h.str(scheme).u64(*seed);
    }
    h.finish()
}

/// Digest of every step's metrics.
pub fn train_outputs(steps: &[StepMetrics]) -> u64 {
    let mut h = Fnv::default();
    for m in steps {
        h.u64(m.step_time.0)
            .u64(m.fwd_layer_time.0)
            .u64(m.bwd_layer_time.0)
            .u64(m.a2a_total.0)
            .f64(m.pipelining_efficiency)
            .f64(m.compute_util);
        for ((t, s), o) in m
            .a2a_bwd_times
            .iter()
            .zip(&m.a2a_bwd_slowdowns)
            .zip(&m.a2a_bwd_overlapped)
        {
            h.u64(t.0).f64(*s).u64(u64::from(*o));
        }
    }
    h.finish()
}
