//! Equivalence of the incrementally kept popularity estimator with a
//! from-scratch profile and with a reference implementation of the
//! `Ψ` tables keyed by expert-id vectors.
//!
//! Random push / evict / clear sequences run over a sliding window of
//! batches. After every step, [`PathCounts::snapshot`] must equal
//! [`PopularityEstimator::profile`] on the window and the reference:
//! the same paths per (length, layer), the same probabilities to the
//! bit, and the same `next_layer_distribution` and
//! `estimate_popularity` results.

use std::collections::{BTreeMap, VecDeque};

use lina_core::{PathCounts, PopularityEstimator};
use lina_simcore::Rng;
use lina_workload::{Mode, TokenBatch, TokenPath, TokenSource, WorkloadSpec};

/// The reference estimator: every path is keyed by the vector of its
/// primary experts, and every table is built from scratch.
struct Reference {
    path_length: usize,
    experts: usize,
    layers: usize,
    /// `tables[len-1][layer]`: path of primaries for layers
    /// `layer-len+1 ..= layer` (cut at layer 0) to the next layer's
    /// selection distribution.
    tables: Vec<Vec<BTreeMap<Vec<u16>, Vec<f64>>>>,
    marginals: Vec<Vec<f64>>,
}

fn path_suffix(tok: &TokenPath, layer: usize, l: usize) -> Vec<u16> {
    let start = (layer + 1).saturating_sub(l);
    (start..=layer).map(|i| tok.primary(i)).collect()
}

fn normalize(dist: &mut [f64]) {
    let total: f64 = dist.iter().sum();
    if total > 0.0 {
        for v in dist {
            *v /= total;
        }
    }
}

fn top_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("finite popularity")
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

impl Reference {
    fn profile<'a>(
        batches: impl Iterator<Item = &'a TokenBatch> + Clone,
        path_length: usize,
    ) -> Self {
        let first = batches.clone().next().expect("a batch");
        let experts = first.experts;
        let layers = first.tokens[0].selections.len();
        let mut tables: Vec<Vec<BTreeMap<Vec<u16>, Vec<f64>>>> =
            vec![vec![BTreeMap::new(); layers - 1]; path_length];
        let mut marginals = vec![vec![0.0f64; experts]; layers];
        for batch in batches {
            for tok in &batch.tokens {
                for layer in 0..layers {
                    marginals[layer][tok.primary(layer) as usize] += 1.0;
                    if layer + 1 < layers {
                        for len in 1..=path_length {
                            tables[len - 1][layer]
                                .entry(path_suffix(tok, layer, len))
                                .or_insert_with(|| vec![0.0; experts])
                                [tok.primary(layer + 1) as usize] += 1.0;
                        }
                    }
                }
            }
        }
        for dist in tables.iter_mut().flatten().flat_map(|t| t.values_mut()) {
            normalize(dist);
        }
        for dist in &mut marginals {
            normalize(dist);
        }
        Reference {
            path_length,
            experts,
            layers,
            tables,
            marginals,
        }
    }

    fn next_layer_distribution(&self, tok: &TokenPath, layer: usize) -> &[f64] {
        for len in (1..=self.path_length).rev() {
            let key = path_suffix(tok, layer, len);
            if let Some(dist) = self.tables[len - 1].get(layer).and_then(|t| t.get(&key)) {
                return dist;
            }
        }
        &self.marginals[(layer + 1).min(self.layers - 1)]
    }

    fn estimate_popularity(&self, tokens: &[TokenPath], layer: usize, top_k: usize) -> Vec<f64> {
        let mut agg = vec![0.0f64; self.experts];
        for tok in tokens {
            let dist = self.next_layer_distribution(tok, layer);
            for e in top_indices(dist, top_k) {
                agg[e] += dist[e];
            }
        }
        for v in &mut agg {
            *v /= tokens.len() as f64;
        }
        agg
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The path code of an expert-id path: base `experts`, the last layer
/// least significant.
fn code(path: &[u16], experts: usize) -> u64 {
    path.iter()
        .fold(0, |c, &e| c * experts as u64 + u64::from(e))
}

fn tables(est: &PopularityEstimator, len: usize, layer: usize) -> Vec<(u64, Vec<u64>)> {
    est.paths(len, layer)
        .map(|(code, dist)| (code, bits(dist)))
        .collect()
}

/// `est` holds exactly the reference's paths and probabilities, and
/// answers every lookup with the same bits.
fn assert_matches(
    est: &PopularityEstimator,
    reference: &Reference,
    probes: &[TokenPath],
    ctx: &str,
) {
    let experts = reference.experts;
    assert_eq!(est.layers(), reference.layers, "{ctx}: layers");
    assert_eq!(est.experts(), experts, "{ctx}: experts");
    for layer in 0..reference.layers {
        assert_eq!(
            bits(est.marginal(layer)),
            bits(&reference.marginals[layer]),
            "{ctx}: marginal at layer {layer}"
        );
        for len in 1..=reference.path_length {
            let expected: Vec<(u64, Vec<u64>)> = reference.tables[len - 1]
                .get(layer)
                .into_iter()
                .flatten()
                .map(|(path, dist)| (code(path, experts), bits(dist)))
                .collect();
            assert_eq!(
                tables(est, len, layer),
                expected,
                "{ctx}: paths of length {len} at layer {layer}"
            );
        }
    }
    for layer in 0..reference.layers {
        for tok in probes {
            assert_eq!(
                bits(est.next_layer_distribution(tok, layer)),
                bits(reference.next_layer_distribution(tok, layer)),
                "{ctx}: next_layer_distribution at layer {layer}"
            );
        }
        for top_k in [1, 2] {
            assert_eq!(
                bits(&est.estimate_popularity(probes, layer, top_k)),
                bits(&reference.estimate_popularity(probes, layer, top_k)),
                "{ctx}: estimate_popularity at layer {layer}, top_k {top_k}"
            );
        }
    }
}

/// A batch of 1..=24 tokens per device: drawn from the gating model,
/// or with uniformly random selections so that rare paths appear and
/// vanish as the window slides.
fn random_batch(rng: &mut Rng, src: &mut TokenSource, experts: usize, layers: usize) -> TokenBatch {
    let devices = 1 + rng.index(3);
    let per_device = 1 + rng.index(24);
    if rng.bernoulli(0.5) {
        let mode = if rng.bernoulli(0.5) {
            Mode::Train
        } else {
            Mode::Inference
        };
        return src.sample_batch(devices, per_device, mode);
    }
    let tokens = (0..devices * per_device)
        .map(|_| TokenPath {
            class: 0,
            selections: (0..layers)
                .map(|_| {
                    let a = rng.index(experts) as u16;
                    let b = (a + 1 + rng.index(experts - 1) as u16) % experts as u16;
                    vec![a, b]
                })
                .collect(),
        })
        .collect();
    TokenBatch {
        tokens,
        devices,
        experts,
    }
}

#[test]
fn incremental_counts_equal_a_fresh_profile_and_the_reference() {
    let mut rng = Rng::new(0xE571_3A7E);
    for experts in [4usize, 8, 16] {
        for path_length in 1..=6 {
            let layers = 2 + rng.index(7);
            let ctx = format!("experts {experts}, l {path_length}, layers {layers}");
            let spec = WorkloadSpec::enwik8(experts, layers);
            let mut src = TokenSource::new(&spec, 2, rng.next_u64());
            let cap = 1 + rng.index(6);
            let mut window: VecDeque<TokenBatch> = VecDeque::new();
            let mut counts = PathCounts::new(path_length);
            for step in 0..40 {
                let op = rng.index(10);
                if op == 0 {
                    window.clear();
                    counts.clear();
                } else if op <= 2 && !window.is_empty() {
                    counts.remove(&window.pop_front().expect("non-empty window"));
                } else {
                    let batch = random_batch(&mut rng, &mut src, experts, layers);
                    counts.add(&batch);
                    window.push_back(batch);
                    if window.len() > cap {
                        counts.remove(&window.pop_front().expect("over-cap window"));
                    }
                }
                assert_eq!(counts.is_empty(), window.is_empty(), "{ctx}, step {step}");
                if window.is_empty() {
                    continue;
                }
                let ctx = format!("{ctx}, step {step}, {} batches", window.len());
                let incremental = counts.snapshot();
                let fresh = PopularityEstimator::profile(window.make_contiguous(), path_length);
                let reference = Reference::profile(window.iter(), path_length);
                let mut probes = random_batch(&mut rng, &mut src, experts, layers).tokens;
                probes.extend(window[0].tokens.iter().take(8).cloned());
                assert_matches(
                    &incremental,
                    &reference,
                    &probes,
                    &format!("incremental, {ctx}"),
                );
                assert_matches(&fresh, &reference, &probes, &format!("profile, {ctx}"));
            }
        }
    }
}

#[test]
#[should_panic(expected = "PathCounts")]
fn removing_a_batch_that_was_never_added_panics() {
    let spec = WorkloadSpec::enwik8(8, 4);
    let mut src = TokenSource::new(&spec, 1, 5);
    let added = src.sample_batch(2, 16, Mode::Train);
    let other = src.sample_batch(2, 16, Mode::Train);
    let mut counts = PathCounts::new(3);
    counts.add(&added);
    counts.remove(&added);
    counts.remove(&other);
}
