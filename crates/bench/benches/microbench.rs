//! Micro-benchmarks of the simulator and scheduler hot paths: these
//! quantify the cost of the reproduction's own machinery (as opposed to
//! the table/figure binaries, which report *simulated* time).
//!
//! The harness is self-contained (`harness = false`): each case is
//! warmed up, then timed over enough iterations to fill a ~200 ms
//! window, reporting mean wall-clock time per iteration.

use std::time::Instant;

use lina_baselines::TrainScheme;
use lina_core::{popularity_placement, PathCounts, PlacementConfig, PopularityEstimator};
use lina_model::{
    assign_replicas, balanced_routing, build_train_step, BatchShape, CostModel, DeviceSpec,
    ExpertPlacement, LayerRouting, MoeModelConfig,
};
use lina_netsim::{max_min_rates, AllToAllAlgo, ClusterSpec, CollectiveSpec, FlowDemand, Topology};
use lina_runner::{execute, train::solo_collective_time};
use lina_workload::{Mode, TokenBatch, TokenSource, WorkloadSpec};

/// Times `f` and prints one result line. Returns-value of `f` is
/// black-boxed through `std::hint::black_box` to stop the optimizer
/// from deleting the work.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up and per-iteration estimate.
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / once) as u64).clamp(1, 100_000);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{name:<40} {:>12} / iter  ({iters} iters)",
        lina_simcore::format_secs(per)
    );
}

fn bench_fairshare() {
    for &flows in &[16usize, 64, 240] {
        let capacities = vec![12e9; 64];
        let paths: Vec<Vec<u32>> = (0..flows)
            .map(|i| vec![(i % 32) as u32, 32 + (i % 32) as u32])
            .collect();
        let demands: Vec<FlowDemand<'_>> = paths
            .iter()
            .map(|p| FlowDemand {
                weight: 1.0,
                links: p,
            })
            .collect();
        bench(&format!("fairshare/max_min_rates/{flows}"), || {
            max_min_rates(&capacities, &demands)
        });
    }
}

fn bench_collectives() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    for (name, algo) in [
        ("flat", AllToAllAlgo::Flat),
        ("hierarchical", AllToAllAlgo::Hierarchical),
    ] {
        let spec = CollectiveSpec::uniform_all_to_all(topo.device_ids().collect(), 2e6, algo);
        bench(&format!("collectives/a2a_16dev/{name}"), || {
            solo_collective_time(&topo, &spec)
        });
    }
}

fn bench_placement() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let pop: Vec<f64> = (0..16).map(|e| 1.0 / (e + 1) as f64).collect();
    let config = PlacementConfig {
        devices: 16,
        max_experts_per_device: 4,
    };
    bench("popularity_placement_16", || {
        popularity_placement(&pop, config)
    });
    let placement = popularity_placement(&pop, config);
    let routing = LayerRouting::balanced(16, 16, 16_384, 1);
    bench("assign_replicas_16", || {
        assign_replicas(&routing, &placement, &topo)
    });
}

fn bench_estimator() {
    let spec = WorkloadSpec::enwik8(16, 12);
    let mut src = TokenSource::new(&spec, 1, 1);
    let profile: Vec<TokenBatch> = (0..4)
        .map(|_| src.sample_batch(16, 1024, Mode::Train))
        .collect();
    bench("estimator_profile_l3", || {
        PopularityEstimator::profile(&profile, 3)
    });
    let est = PopularityEstimator::profile(&profile, 3);
    let batch = src.sample_batch(16, 1024, Mode::Inference);
    bench("estimate_popularity_16k_tokens", || {
        est.estimate_popularity(&batch.tokens, 6, 1)
    });
    // One online re-estimation of an 8-batch sliding window: count the
    // newest batch, un-count the evicted one, normalize.
    let stream: Vec<TokenBatch> = (0..16)
        .map(|_| src.sample_batch(16, 64, Mode::Inference))
        .collect();
    let window = 8;
    let mut counts = PathCounts::new(3);
    for b in &stream[..window] {
        counts.add(b);
    }
    let mut next = window;
    bench("window_push_evict_snapshot_l3", || {
        counts.add(&stream[next % stream.len()]);
        counts.remove(&stream[(next - window) % stream.len()]);
        next += 1;
        counts.snapshot()
    });
}

fn bench_step_simulation() {
    let model = MoeModelConfig::transformer_xl(4, 16);
    let topo = Topology::new(ClusterSpec::with_total_gpus(16));
    let cost = CostModel::new(DeviceSpec::a100(), model.clone());
    let batch = BatchShape {
        seqs_per_device: 32,
        seq_len: model.seq_len,
    };
    let routing = balanced_routing(&model, 16, batch);
    for scheme in [TrainScheme::Baseline, TrainScheme::LinaNoPack] {
        let opts = scheme.step_options(16, &topo);
        bench(
            &format!("step_simulation/4layer_16dev/{}", scheme.name()),
            || {
                let graph = build_train_step(&cost, &topo, batch, &routing, &opts);
                let mut policy = scheme.policy();
                execute(&graph, &topo, policy.as_mut())
            },
        );
    }
}

fn bench_workload() {
    let spec = WorkloadSpec::enwik8(16, 12);
    let mut src = TokenSource::new(&spec, 1, 9);
    bench("sample_batch_8k_tokens", move || {
        src.sample_batch(16, 512, Mode::Inference)
    });
}

fn bench_packed_dispatch() {
    let topo = Topology::new(ClusterSpec::paper_testbed());
    let placement = ExpertPlacement::packed(16, &topo, 4);
    let routing = LayerRouting::balanced(16, 16, 16_384, 2);
    bench("assign_replicas_packed4", || {
        assign_replicas(&routing, &placement, &topo)
    });
}

fn main() {
    println!("lina micro-benchmarks (wall-clock cost of the simulator itself)");
    println!("----------------------------------------------------------------");
    bench_fairshare();
    bench_collectives();
    bench_placement();
    bench_estimator();
    bench_step_simulation();
    bench_workload();
    bench_packed_dispatch();
}
