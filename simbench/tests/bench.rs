//! The benchmark's own tests, at tiny simulation sizes.

use std::collections::BTreeMap;
use std::path::PathBuf;

use lina_simbench::config::{Size, Workload};
use lina_simbench::metrics::{self, valid_name, Metrics};
use lina_simbench::reference::{self, References};
use lina_simbench::{run, Options, Outcome};
use lina_simcore::Json;

fn options(w: Workload, trace: bool, references: PathBuf) -> Options {
    Options {
        workload: w,
        seed: 3,
        seconds: 0.01,
        trace,
        size: Size::tiny(w),
        references,
        update_reference: false,
        spans_out: None,
    }
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn run_ok(opts: &Options) -> Outcome {
    let out = run(opts).expect("the benchmark runs");
    assert!(out.correct, "{:?}: {:#?}", opts.workload, out.log);
    out
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn printed(out: &Outcome) -> BTreeMap<String, String> {
    let json = Json::parse(&out.result_line()).expect("the result line is JSON");
    assert!(json.get("correct").is_some() && json.get("attempted").is_some());
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} value"
            );
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("every metric has a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn metric_names_use_only_the_allowed_characters() {
    let e2e: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    let layer: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
    let mut seen = std::collections::BTreeSet::new();
    for name in e2e.iter().chain(&layer) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is declared twice");
    }
    assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name("a/b"));
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    for w in Workload::ALL {
        let refs = scratch(&format!("units-{}.txt", w.name()));
        assert_eq!(
            printed(&run_ok(&options(w, false, refs.clone()))),
            e2e,
            "{w:?}"
        );
        assert_eq!(printed(&run_ok(&options(w, true, refs))), layer, "{w:?}");
    }
}

#[test]
#[should_panic(expected = "not registered")]
fn an_unregistered_metric_cannot_be_set() {
    Metrics::end_to_end().set("latency", 1.0);
}

#[test]
fn a_perturbed_reference_is_caught() {
    let path = scratch("perturbed-references.txt");
    let _ = std::fs::remove_file(&path);
    let w = Workload::GrayContendedHedged;
    let mut opts = options(w, false, path.clone());
    opts.update_reference = true;
    run(&opts).expect("stores the reference");
    opts.update_reference = false;
    let clean = run_ok(&opts);
    assert!(clean.log.iter().any(|l| l.ends_with(": matched")));

    let text = std::fs::read_to_string(&path).expect("reference written");
    let perturbed: String = text
        .lines()
        .map(|l| {
            if l.contains(" sim_latency_ms_p50 ") {
                format!("{l}1\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(perturbed, text);
    std::fs::write(&path, perturbed).expect("perturb");
    let caught = run(&opts).expect("runs");
    assert!(!caught.correct);
    assert_eq!(caught.failed, caught.attempted);
    assert!(caught
        .log
        .iter()
        .any(|l| l.starts_with("reference mismatch: sim_latency_ms_p50")));
}

#[test]
fn reference_compare_reports_each_difference() {
    let a = References::parse("w 1 x 1.5\nw 1 y 2\n").expect("parses");
    let b = References::parse("w 1 x 1.5\nw 1 y 3\nw 1 z 0\n").expect("parses");
    let diffs = reference::compare(a.get("w", 1).unwrap(), b.get("w", 1).unwrap());
    assert_eq!(diffs.len(), 2, "{diffs:?}");
    assert!(References::parse("w one x 1").is_err());
}

#[test]
fn replay_counts_equal_end_to_end_counts() {
    for w in Workload::ALL {
        let out = run_ok(&options(w, true, scratch("replay-references.txt")));
        let m = |name: &str| out.metrics.get(name).expect(name);
        assert_eq!(
            m("runner.plan.calls") + m("replay.unmatched_batches"),
            m("sim.batches"),
            "{w:?}"
        );
        assert!(
            m("replay.unmatched_batches") <= m("sim.aborted_batches"),
            "{w:?}"
        );
        assert_eq!(m("core.estimator.calls"), m("sim.reestimations"), "{w:?}");
        if matches!(w, Workload::DriftReestimate | Workload::SteadySolo) {
            assert_eq!(m("replay.service_mismatches"), 0.0, "{w:?}");
        }
        if w == Workload::TrainStepMix {
            assert_eq!(m("model.graph.calls"), Size::tiny(w).train_steps as f64);
            assert_eq!(m("replay.service_mismatches"), 0.0);
        }
    }
}

#[test]
fn stored_references_cover_the_default_and_held_out_seeds() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(reference::FILE);
    let refs = References::load(&path).expect("reference file");
    for w in Workload::ALL {
        for seed in [reference::DEFAULT_SEED, reference::HELDOUT_SEED] {
            let entry = refs
                .get(w.name(), seed)
                .unwrap_or_else(|| panic!("no reference for {} seed {seed}", w.name()));
            assert!(entry.contains_key("output_digest"));
        }
    }
}

/// Every workload is chosen so that no operation fails: faults slow
/// requests down or move them, but each one completes.
#[test]
fn no_workload_fails_an_operation() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(reference::FILE);
    let refs = References::load(&path).expect("reference file");
    for w in Workload::ALL {
        for seed in [reference::DEFAULT_SEED, reference::HELDOUT_SEED] {
            let entry = refs.get(w.name(), seed).expect("reference");
            assert_eq!(entry["ops_failed"], "0", "{} seed {seed}", w.name());
        }
        let out = run_ok(&options(w, false, scratch("no-failure-references.txt")));
        assert_eq!(out.failed, 0, "{w:?}");
    }
}
