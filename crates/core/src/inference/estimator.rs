//! Expert-popularity estimation from token-level selection patterns (§5.2).
//!
//! In a profiling stage (run on training-distribution data once the
//! load-balancing loss has stabilized), Lina groups tokens by the
//! sample path of experts they traversed over the last `l` layers and
//! records, for each path, the empirical distribution `Ψ_j^{i+1}` of the
//! next layer's selection. At inference, each token's observed path is
//! looked up; its top-k next-layer experts and their probabilities feed
//! Eq. (1) to estimate per-expert device demand before the gate runs.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use lina_workload::{TokenBatch, TokenPath};

/// Profiled `Ψ` tables and lookup logic.
///
/// A path of primary experts `e_{i-len+1}, ..., e_i` is keyed by its
/// *path code*, the base-`experts` number `Σ e_j · experts^(i-j)`: the
/// expert at layer `i` is the least significant digit. A table holds
/// paths of one length, so a code identifies its path uniquely, and
/// the codes' numeric order is the paths' lexicographic order.
#[derive(Clone, Debug)]
pub struct PopularityEstimator {
    /// Sample-path length `l`.
    path_length: usize,
    experts: usize,
    layers: usize,
    /// `tables[i][len-1]` maps the code of the path of primary experts
    /// for layers `i-len+1 ..= i` to the selection distribution at
    /// layer `i+1`. Lengths 1..=l are all profiled so lookups can back
    /// off from the full path to shorter suffixes when a path was never
    /// observed; a path cannot reach below layer 0, so layer `i` has
    /// `min(l, i+1)` tables.
    tables: Vec<Vec<PathTable>>,
    /// Fallback per-layer marginal distribution for unseen paths, one
    /// entry per layer.
    marginals: Dists,
}

/// One `(length, layer)` table: sorted path codes and their
/// distributions, entry for entry.
#[derive(Clone, Debug, Default)]
struct PathTable {
    codes: Vec<u64>,
    dists: Dists,
}

impl PathTable {
    /// The table of sorted `codes` whose next-layer counts are the
    /// consecutive `experts`-wide rows of `rows`.
    fn new(codes: &[u64], rows: &[u32], experts: usize) -> Self {
        let mut dists = Dists {
            probs: Vec::with_capacity(rows.len()),
            order: Vec::with_capacity(rows.len()),
        };
        for counts in rows.chunks_exact(experts) {
            dists.push(counts);
        }
        PathTable {
            codes: codes.to_vec(),
            dists,
        }
    }
}

/// Normalized distributions over the experts, stored flat: entry `i`
/// owns `probs[i*experts..(i+1)*experts]`, and the same range of
/// `order` lists its experts by descending probability, ties to the
/// lower id (the order [`top_indices`] returns).
#[derive(Clone, Debug, Default)]
struct Dists {
    probs: Vec<f64>,
    order: Vec<u16>,
}

impl Dists {
    /// Appends the distribution of integer `counts` (sum > 0). A count
    /// and its total are exact in `f64`, so each probability is the
    /// correctly rounded quotient, whatever order the counts were
    /// accumulated in.
    fn push(&mut self, counts: &[u32]) {
        let total = counts.iter().map(|&c| u64::from(c)).sum::<u64>() as f64;
        let start = self.probs.len();
        self.probs.extend(counts.iter().map(|&c| c as f64 / total));
        let probs = &self.probs[start..];
        self.order.extend(0..counts.len() as u16);
        self.order[start..].sort_unstable_by(|&a, &b| descending(probs, a as usize, b as usize));
    }

    /// Entry `i`'s probabilities and descending expert order.
    fn get(&self, i: usize, experts: usize) -> (&[f64], &[u16]) {
        let range = i * experts..(i + 1) * experts;
        (&self.probs[range.clone()], &self.order[range])
    }
}

impl PopularityEstimator {
    /// Profiles the estimator from training-distribution batches: every
    /// batch is counted into a [`PathCounts`], which is then normalized.
    ///
    /// # Panics
    ///
    /// Panics if `path_length` is zero, no batches are given, or the
    /// batches are empty.
    pub fn profile(batches: &[TokenBatch], path_length: usize) -> Self {
        assert!(!batches.is_empty(), "profile: no batches");
        let mut counts = PathCounts::new(path_length);
        for batch in batches {
            counts.add(batch);
        }
        counts.snapshot()
    }

    /// The profiled path length `l`.
    pub fn path_length(&self) -> usize {
        self.path_length
    }

    /// Experts per layer.
    pub fn experts(&self) -> usize {
        self.experts
    }

    /// Layers profiled.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The table of paths of length `len` ending at `layer`, if any.
    /// Paths longer than `layer + 1` are cut at layer 0, so they share
    /// the `layer + 1` table.
    fn table(&self, len: usize, layer: usize) -> Option<&PathTable> {
        let per_len = self.tables.get(layer)?;
        per_len.get(len.min(per_len.len()).checked_sub(1)?)
    }

    /// Number of distinct full-length profiled paths ending at `layer`.
    pub fn paths_at(&self, layer: usize) -> usize {
        self.table(self.path_length, layer)
            .map_or(0, |t| t.codes.len())
    }

    /// The profiled paths of length `len` (`1..=l`) ending at `layer`,
    /// as `(path code, Ψ distribution)` in ascending code order. Empty
    /// for the last layer, which has no next layer.
    pub fn paths(&self, len: usize, layer: usize) -> impl Iterator<Item = (u64, &[f64])> {
        assert!(
            (1..=self.path_length).contains(&len),
            "paths: length {len} outside 1..={}",
            self.path_length
        );
        let experts = self.experts;
        self.table(len, layer).into_iter().flat_map(move |t| {
            t.codes
                .iter()
                .zip(t.dists.probs.chunks_exact(experts))
                .map(|(&code, dist)| (code, dist))
        })
    }

    /// The marginal selection distribution at `layer`.
    pub fn marginal(&self, layer: usize) -> &[f64] {
        self.marginals.get(layer, self.experts).0
    }

    /// The distribution [`Self::next_layer_distribution`] returns, with
    /// its descending expert order.
    fn lookup(&self, token: &TokenPath, layer: usize) -> (&[f64], &[u16]) {
        if let Some(per_len) = self.tables.get(layer) {
            for (len, table) in per_len.iter().enumerate().rev() {
                let code = path_code(token, layer, len + 1, self.experts);
                if let Ok(i) = table.codes.binary_search(&code) {
                    return table.dists.get(i, self.experts);
                }
            }
        }
        self.marginals
            .get((layer + 1).min(self.layers - 1), self.experts)
    }

    /// `Ψ_j^{layer+1}` for the token's observed path up to `layer`.
    /// Unseen full-length paths back off to progressively shorter
    /// suffixes, and finally to the layer marginal.
    pub fn next_layer_distribution(&self, token: &TokenPath, layer: usize) -> &[f64] {
        self.lookup(token, layer).0
    }

    /// Eq. (1)'s aggregate: estimated popularity of each expert at
    /// `layer + 1`, averaging each token's top-k probabilities from its
    /// `Ψ` distribution. The result is an (unnormalized, <= 1 per
    /// entry) fraction-of-demand vector.
    pub fn estimate_popularity(
        &self,
        tokens: &[TokenPath],
        layer: usize,
        top_k: usize,
    ) -> Vec<f64> {
        let mut agg = vec![0.0f64; self.experts];
        if tokens.is_empty() {
            return agg;
        }
        let k = top_k.min(self.experts);
        for tok in tokens {
            let (dist, order) = self.lookup(tok, layer);
            for &e in &order[..k] {
                agg[e as usize] += dist[e as usize];
            }
        }
        for v in &mut agg {
            *v /= tokens.len() as f64;
        }
        agg
    }

    /// True if the estimate's top-`2k` experts match the actual
    /// popularity's top-`2k` (the paper's phase-two deviation check and
    /// its accuracy definition).
    pub fn estimate_matches(estimated: &[f64], actual: &[f64], two_k: usize) -> bool {
        Self::deviates_too_far(estimated, actual, two_k, 0.0).is_none()
    }

    /// The paper's phase-two check asks whether the actual selection
    /// "deviates too far" from the estimate: a top-`2k` set mismatch
    /// only matters when a missed expert is *meaningfully* more popular
    /// than a kept one — the paper itself observes that estimation
    /// errors usually swap experts of similar popularity, which leaves
    /// the packing decision intact. Returns the worst relative excess
    /// when the deviation exceeds `tolerance`, else `None`.
    pub fn deviates_too_far(
        estimated: &[f64],
        actual: &[f64],
        two_k: usize,
        tolerance: f64,
    ) -> Option<f64> {
        let est_top = top_indices(estimated, two_k);
        let act_top = top_indices(actual, two_k);
        let missed: Vec<usize> = act_top
            .iter()
            .copied()
            .filter(|e| !est_top.contains(e))
            .collect();
        if missed.is_empty() {
            return None;
        }
        // The least actually-popular expert we kept in the estimate's
        // top set.
        let kept_min = est_top
            .iter()
            .map(|&e| actual[e])
            .fold(f64::INFINITY, f64::min)
            .max(1e-12);
        let worst_missed = missed.iter().map(|&e| actual[e]).fold(0.0, f64::max);
        let excess = worst_missed / kept_min - 1.0;
        if excess > tolerance {
            Some(excess)
        } else {
            None
        }
    }
}

/// Indices of the `k` largest entries (ties broken by lower index),
/// ordered by descending value.
pub fn top_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| descending(values, a, b));
    idx.truncate(k);
    idx
}

/// The ranking [`top_indices`] sorts by: descending value, ties to the
/// lower index.
///
/// # Panics
///
/// Panics if either value is NaN.
fn descending(values: &[f64], a: usize, b: usize) -> Ordering {
    values[b]
        .partial_cmp(&values[a])
        .expect("finite popularity")
        .then(a.cmp(&b))
}

/// Integer path counts behind a [`PopularityEstimator`], kept
/// incrementally: batches can be added and removed in any order, and
/// [`PathCounts::snapshot`] normalizes whatever is counted. Only the
/// longest path ending at each layer is counted; a shorter suffix's
/// counts are the sums over the longer paths that end in it, formed at
/// snapshot. A path whose count falls back to zero is dropped, so the
/// counted paths are always exactly those a from-scratch count of the
/// same batches would hold, and the snapshot is bit-identical to
/// [`PopularityEstimator::profile`] over them.
#[derive(Clone, Debug)]
pub struct PathCounts {
    path_length: usize,
    /// Experts and layers of the counted batches; both zero until the
    /// first non-empty batch fixes them.
    experts: usize,
    layers: usize,
    /// `index[i]` maps the code of a counted path of length
    /// `min(path_length, i+1)` ending at layer `i` to its slot.
    index: Vec<HashMap<u64, usize, CodeHash>>,
    /// Per slot, `experts` next-layer selection counts, then their sum.
    slots: Vec<u32>,
    /// Slots whose path was dropped, for reuse.
    free: Vec<usize>,
    /// `marginal[i * experts + e]`: counted tokens whose primary expert
    /// at layer `i` is `e`.
    marginal: Vec<u32>,
}

impl PathCounts {
    /// Empty counts for sample paths up to `path_length` layers long.
    ///
    /// # Panics
    ///
    /// Panics if `path_length` is zero.
    pub fn new(path_length: usize) -> Self {
        assert!(path_length > 0, "profile: zero path length");
        PathCounts {
            path_length,
            experts: 0,
            layers: 0,
            index: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            marginal: Vec::new(),
        }
    }

    /// Counts every token of `batch`.
    ///
    /// # Panics
    ///
    /// Panics if the batch's experts or layers differ from those
    /// already counted, or its path codes would overflow a `u64`.
    pub fn add(&mut self, batch: &TokenBatch) {
        let Some(first) = batch.tokens.first() else {
            return;
        };
        if self.layers == 0 {
            self.size(batch.experts, first.selections.len());
        }
        self.update(batch, true);
    }

    /// Un-counts every token of `batch`, which must have been added.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if a count would fall below zero: the
    /// batch was never added, or was already removed.
    pub fn remove(&mut self, batch: &TokenBatch) {
        if !batch.tokens.is_empty() {
            self.update(batch, false);
        }
    }

    /// Drops every count, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        for map in &mut self.index {
            map.clear();
        }
        self.slots.clear();
        self.free.clear();
        self.marginal.fill(0);
    }

    /// True if no token is counted.
    pub fn is_empty(&self) -> bool {
        self.marginal[..self.experts].iter().all(|&c| c == 0)
    }

    /// Normalizes the current counts into an estimator.
    ///
    /// # Panics
    ///
    /// Panics if no token is counted.
    pub fn snapshot(&self) -> PopularityEstimator {
        assert!(
            self.layers > 0 && !self.is_empty(),
            "profile: no tokens counted"
        );
        let experts = self.experts;
        let stride = experts + 1;
        let tables = self
            .index
            .iter()
            .enumerate()
            .map(|(layer, map)| {
                let longest = self.path_length.min(layer + 1);
                let mut keys: Vec<(u64, usize)> =
                    map.iter().map(|(&code, &slot)| (code, slot)).collect();
                keys.sort_unstable();
                let mut codes: Vec<u64> = keys.iter().map(|&(code, _)| code).collect();
                let mut rows: Vec<u32> = keys
                    .iter()
                    .flat_map(|&(_, slot)| &self.slots[slot * stride..][..experts])
                    .copied()
                    .collect();
                let mut per_len = vec![PathTable::new(&codes, &rows, experts)];
                for len in (1..longest).rev() {
                    let modulus = (experts as u64).pow(len as u32);
                    (codes, rows) = suffix_sums(&codes, &rows, experts, modulus);
                    per_len.push(PathTable::new(&codes, &rows, experts));
                }
                per_len.reverse();
                per_len
            })
            .collect();
        let mut marginals = Dists::default();
        for counts in self.marginal.chunks_exact(experts) {
            marginals.push(counts);
        }
        PopularityEstimator {
            path_length: self.path_length,
            experts,
            layers: self.layers,
            tables,
            marginals,
        }
    }

    fn size(&mut self, experts: usize, layers: usize) {
        let longest = self.path_length.min(layers.saturating_sub(1));
        assert!(
            (experts as u64).checked_pow(longest as u32).is_some(),
            "profile: {experts}^{longest} path codes overflow u64"
        );
        self.experts = experts;
        self.layers = layers;
        self.index = vec![HashMap::default(); layers.saturating_sub(1)];
        self.marginal = vec![0; layers * experts];
    }

    /// Adds (`add`) or removes one count per token and layer.
    fn update(&mut self, batch: &TokenBatch, add: bool) {
        assert!(
            batch.experts == self.experts && batch.tokens[0].selections.len() == self.layers,
            "PathCounts: batch shape differs from the counted batches"
        );
        let experts = self.experts;
        let stride = experts + 1;
        for tok in &batch.tokens {
            for layer in 0..self.layers {
                bump(
                    &mut self.marginal[layer * experts + tok.primary(layer) as usize],
                    add,
                );
                let Some(map) = self.index.get_mut(layer) else {
                    continue;
                };
                let code = path_code(tok, layer, self.path_length, experts);
                let slot = match map.get(&code) {
                    Some(&slot) => slot,
                    None => {
                        assert!(add, "PathCounts: removing a path that was never added");
                        let slot = self.free.pop().unwrap_or_else(|| {
                            self.slots.resize(self.slots.len() + stride, 0);
                            self.slots.len() / stride - 1
                        });
                        map.insert(code, slot);
                        slot
                    }
                };
                let row = &mut self.slots[slot * stride..][..stride];
                bump(&mut row[tok.primary(layer + 1) as usize], add);
                bump(&mut row[experts], add);
                if row[experts] == 0 {
                    map.remove(&code);
                    self.free.push(slot);
                }
            }
        }
    }
}

/// Sums the `experts`-wide count rows of the paths `codes` by their
/// suffix `code % modulus` (a suffix is a code's least significant
/// digits), returning the sorted suffix codes and their rows.
fn suffix_sums(codes: &[u64], rows: &[u32], experts: usize, modulus: u64) -> (Vec<u64>, Vec<u32>) {
    let mut suffixes: Vec<(u64, usize)> = codes
        .iter()
        .enumerate()
        .map(|(i, &code)| (code % modulus, i))
        .collect();
    suffixes.sort_unstable();
    let mut sum_codes: Vec<u64> = Vec::new();
    let mut sum_rows: Vec<u32> = Vec::new();
    for (code, i) in suffixes {
        if sum_codes.last() != Some(&code) {
            sum_codes.push(code);
            sum_rows.resize(sum_rows.len() + experts, 0);
        }
        let sum = sum_rows.len() - experts;
        for (s, &c) in sum_rows[sum..]
            .iter_mut()
            .zip(&rows[i * experts..][..experts])
        {
            *s += c;
        }
    }
    (sum_codes, sum_rows)
}

/// The code of `token`'s path of primary experts for layers
/// `layer-len+1 ..= layer`, cut at layer 0.
fn path_code(token: &TokenPath, layer: usize, len: usize, experts: usize) -> u64 {
    ((layer + 1).saturating_sub(len)..=layer)
        .fold(0, |code, i| code * experts as u64 + token.primary(i) as u64)
}

/// Adds or removes one count.
///
/// # Panics
///
/// Panics, in every build, if the count would fall below zero.
fn bump(count: &mut u32, add: bool) {
    *count = if add {
        *count + 1
    } else {
        count
            .checked_sub(1)
            .expect("PathCounts: count below zero (batch removed but never added)")
    };
}

/// Hashes path codes with a fixed, seedless folded multiply, so the
/// counting tables behave the same in every run.
type CodeHash = BuildHasherDefault<CodeHasher>;

#[derive(Default)]
struct CodeHasher(u64);

impl Hasher for CodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_workload::{Mode, TokenSource, WorkloadSpec};

    fn profiled(l: usize) -> (PopularityEstimator, TokenSource) {
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut src = TokenSource::new(&spec, 1, 7);
        let batches: Vec<TokenBatch> = (0..8)
            .map(|_| src.sample_batch(16, 512, Mode::Train))
            .collect();
        (PopularityEstimator::profile(&batches, l), src)
    }

    #[test]
    fn path_codes_put_the_last_layer_least_significant() {
        let tok = TokenPath {
            class: 0,
            selections: vec![vec![3], vec![7], vec![1], vec![4]],
        };
        assert_eq!(path_code(&tok, 3, 2, 8), 8 + 4);
        // Paths are cut at layer 0.
        assert_eq!(path_code(&tok, 3, 10, 8), ((3 * 8 + 7) * 8 + 1) * 8 + 4);
        assert_eq!(path_code(&tok, 0, 3, 8), 3);
    }

    #[test]
    fn top_indices_basics() {
        assert_eq!(top_indices(&[0.1, 0.5, 0.3], 2), vec![1, 2]);
        assert_eq!(top_indices(&[0.5, 0.5], 1), vec![0]);
        assert_eq!(top_indices(&[1.0], 5), vec![0]);
    }

    #[test]
    fn distributions_are_normalized() {
        let (est, _) = profiled(3);
        for layer in 0..est.layers() {
            for len in 1..=3 {
                for (_, dist) in est.paths(len, layer) {
                    let total: f64 = dist.iter().sum();
                    assert!((total - 1.0).abs() < 1e-9, "sum {total}");
                }
            }
            let total: f64 = est.marginal(layer).iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn longer_paths_give_more_tables() {
        let (e1, _) = profiled(1);
        let (e3, _) = profiled(3);
        assert!(
            e3.paths_at(6) > e1.paths_at(6),
            "l=3 should distinguish more paths"
        );
        // l=1 at layer 6 has at most `experts` paths.
        assert!(e1.paths_at(6) <= 16);
    }

    #[test]
    fn estimate_tracks_actual_popularity() {
        let (est, mut src) = profiled(3);
        let batch = src.sample_batch(16, 512, Mode::Inference);
        let layer = 6;
        let estimated = est.estimate_popularity(&batch.tokens, layer, 1);
        let actual = lina_workload::popularity(&batch, layer + 1);
        // Rank correlation proxy: the estimated top-4 should share most
        // members with the actual top-4.
        let est_top = top_indices(&estimated, 4);
        let act_top = top_indices(&actual, 4);
        let overlap = est_top.iter().filter(|e| act_top.contains(e)).count();
        assert!(
            overlap >= 2,
            "top-4 overlap only {overlap} (est {est_top:?}, act {act_top:?})"
        );
    }

    #[test]
    fn accuracy_improves_with_path_length() {
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut accuracies = Vec::new();
        for l in [1usize, 3, 6] {
            let mut src = TokenSource::new(&spec, 1, 7);
            let batches: Vec<TokenBatch> = (0..12)
                .map(|_| src.sample_batch(16, 1024, Mode::Train))
                .collect();
            let est = PopularityEstimator::profile(&batches, l);
            let mut hits = 0;
            let mut total = 0;
            let mut infer = TokenSource::new(&spec, 1, 99);
            for _ in 0..24 {
                let batch = infer.sample_batch(16, 512, Mode::Inference);
                for layer in 3..11 {
                    let estimated = est.estimate_popularity(&batch.tokens, layer, 1);
                    let actual = lina_workload::popularity(&batch, layer + 1);
                    if PopularityEstimator::estimate_matches(&estimated, &actual, 2) {
                        hits += 1;
                    }
                    total += 1;
                }
            }
            accuracies.push(hits as f64 / total as f64);
        }
        assert!(
            accuracies[1] > accuracies[0],
            "l=3 accuracy {} not above l=1 {}",
            accuracies[1],
            accuracies[0]
        );
        assert!(
            accuracies[2] >= accuracies[1] * 0.9,
            "l=6 accuracy {} collapsed vs l=3 {}",
            accuracies[2],
            accuracies[1]
        );
    }

    #[test]
    fn deviation_tolerance_forgives_near_ties() {
        let est = [0.30, 0.28, 0.22, 0.20];
        // Actual swaps the #2 and #3 experts, but their popularity is
        // close: no significant deviation.
        let act = [0.30, 0.24, 0.26, 0.20];
        assert!(!PopularityEstimator::estimate_matches(&est, &act, 2));
        assert!(PopularityEstimator::deviates_too_far(&est, &act, 2, 0.25).is_none());
        // A genuinely hot missed expert is flagged.
        let act_hot = [0.30, 0.10, 0.50, 0.10];
        let excess = PopularityEstimator::deviates_too_far(&est, &act_hot, 2, 0.25);
        assert!(excess.is_some());
        assert!(excess.expect("deviates") > 0.25);
    }

    #[test]
    fn zero_tolerance_equals_strict_matching() {
        let est = [0.4, 0.3, 0.2, 0.1];
        let act = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(
            PopularityEstimator::estimate_matches(&est, &act, 2),
            PopularityEstimator::deviates_too_far(&est, &act, 2, 0.0).is_none()
        );
    }

    #[test]
    fn estimate_matches_requires_same_sets() {
        let est = [0.5, 0.3, 0.1, 0.1];
        let act_same = [0.4, 0.4, 0.1, 0.1];
        let act_diff = [0.1, 0.1, 0.4, 0.4];
        assert!(PopularityEstimator::estimate_matches(&est, &act_same, 2));
        assert!(!PopularityEstimator::estimate_matches(&est, &act_diff, 2));
    }

    #[test]
    fn unseen_path_falls_back_to_marginal() {
        let (est, _) = profiled(3);
        let tok = TokenPath {
            class: 0,
            // An implausible path unlikely to be profiled.
            selections: (0..12).map(|i| vec![(i % 16) as u16]).collect(),
        };
        // Must not panic and must return a normalized distribution.
        let d = est.next_layer_distribution(&tok, 6);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tokens_give_zero_estimate() {
        let (est, _) = profiled(3);
        let e = est.estimate_popularity(&[], 5, 1);
        assert!(e.iter().all(|&v| v == 0.0));
    }
}
