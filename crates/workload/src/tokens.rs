//! Token streams and batches.
//!
//! A [`TokenSource`] draws tokens (latent class + full per-layer expert
//! selections) from a [`GatingModel`] under a training or inference
//! class distribution. Batches carry enough structure for both sides of
//! the evaluation: per-layer [`LayerRouting`] matrices for the execution
//! engine and per-token sample paths for Lina's popularity estimator.

use lina_simcore::{Rng, Zipf};

use lina_model::LayerRouting;

use crate::gating::{GatingModel, Mode};
use crate::spec::WorkloadSpec;

/// One token's trajectory through the model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenPath {
    /// Latent semantic class (not visible to schedulers; only the
    /// generator and tests may look at it).
    pub class: usize,
    /// `selections[layer]` = the gate's top-k experts, primary first.
    pub selections: Vec<Vec<u16>>,
}

impl TokenPath {
    /// The primary (top-1) expert at a layer.
    pub fn primary(&self, layer: usize) -> u16 {
        self.selections[layer][0]
    }
}

/// A batch of tokens spread across devices.
#[derive(Clone, Debug)]
pub struct TokenBatch {
    /// Tokens in batch order.
    pub tokens: Vec<TokenPath>,
    /// Number of devices the batch is sharded over (contiguous blocks).
    pub devices: usize,
    /// Experts per layer.
    pub experts: usize,
}

impl TokenBatch {
    /// Tokens homed on device `d`.
    pub fn tokens_on(&self, d: usize) -> &[TokenPath] {
        let per = self.tokens.len() / self.devices;
        let start = d * per;
        let end = if d + 1 == self.devices {
            self.tokens.len()
        } else {
            start + per
        };
        &self.tokens[start..end]
    }

    /// Device homing token index `t`.
    pub fn device_of(&self, t: usize) -> usize {
        let per = self.tokens.len() / self.devices;
        (t / per).min(self.devices - 1)
    }

    /// The routing matrix of one layer: counts of (token, selection)
    /// pairs from each device to each expert.
    pub fn routing_for_layer(&self, layer: usize) -> LayerRouting {
        let mut routing = LayerRouting::empty(self.devices, self.experts);
        for d in 0..self.devices {
            for tok in self.tokens_on(d) {
                for &e in &tok.selections[layer] {
                    routing.counts[d][e as usize] += 1;
                }
            }
        }
        routing
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Draws token batches for a workload.
///
/// # Examples
///
/// ```
/// use lina_workload::{Mode, TokenSource, WorkloadSpec};
///
/// let spec = WorkloadSpec::enwik8(16, 12);
/// let mut source = TokenSource::new(&spec, 1, 42);
/// let batch = source.sample_batch(16, 64, Mode::Inference);
/// assert_eq!(batch.len(), 16 * 64);
/// let routing = batch.routing_for_layer(0);
/// assert_eq!(routing.total(), batch.len());
/// ```
#[derive(Clone, Debug)]
pub struct TokenSource {
    gating: GatingModel,
    class_dist: Zipf,
    top_k: usize,
    rng: Rng,
    /// Popularity-drift rotation: the sampled Zipf *rank* is mapped to
    /// class `(rank + rotation) % classes`, so rotating shifts which
    /// latent classes are currently popular without touching the
    /// trained class-to-expert maps.
    class_rotation: usize,
}

impl TokenSource {
    /// Creates a source for a workload. `top_k` is the gate fan-out
    /// (2 in training, 1 in inference per the paper); `seed` controls
    /// the sampling stream, independent of the model seed.
    pub fn new(spec: &WorkloadSpec, top_k: usize, seed: u64) -> Self {
        let gating = GatingModel::new(spec);
        let class_dist = Zipf::new(spec.classes, spec.inference_class_skew);
        TokenSource {
            gating,
            class_dist,
            top_k,
            rng: Rng::new(seed),
            class_rotation: 0,
        }
    }

    /// The underlying gating model.
    pub fn gating(&self) -> &GatingModel {
        &self.gating
    }

    /// Sets the popularity-drift rotation: inference class ranks map to
    /// class `(rank + rotation) % classes`, so advancing the rotation
    /// makes previously cold classes (and hence their canonical
    /// experts) popular. Training-mode sampling is uniform over classes
    /// and therefore unaffected.
    pub fn set_class_rotation(&mut self, rotation: usize) {
        self.class_rotation = rotation % self.gating.spec().classes;
    }

    /// The current popularity-drift rotation.
    pub fn class_rotation(&self) -> usize {
        self.class_rotation
    }

    /// Maps a sampled popularity rank to a class under the current
    /// rotation.
    fn rank_to_class(&self, rank: usize) -> usize {
        (rank + self.class_rotation) % self.gating.spec().classes
    }

    /// Samples one token's full trajectory.
    pub fn sample_token(&mut self, mode: Mode) -> TokenPath {
        let spec = self.gating.spec().clone();
        let class = match mode {
            Mode::Train => self.rng.index(spec.classes),
            Mode::Inference => {
                let rank = self.class_dist.sample(&mut self.rng);
                self.rank_to_class(rank)
            }
        };
        let selections = (0..spec.layers)
            .map(|layer| {
                self.gating
                    .select(layer, class, self.top_k, mode, &mut self.rng)
            })
            .collect();
        TokenPath { class, selections }
    }

    /// Samples a batch of `tokens_per_device * devices` tokens.
    ///
    /// Inference batches are *bursty*: a few topic classes are boosted
    /// for the whole batch, so expert popularity varies batch to batch
    /// (this is what gives the baseline its heavy tail and makes
    /// unchecked misestimates costly).
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `tokens_per_device` is zero.
    pub fn sample_batch(
        &mut self,
        devices: usize,
        tokens_per_device: usize,
        mode: Mode,
    ) -> TokenBatch {
        assert!(
            devices > 0 && tokens_per_device > 0,
            "sample_batch: empty shape"
        );
        let n = devices * tokens_per_device;
        let spec = self.gating.spec().clone();
        let topics: Vec<usize> = if mode == Mode::Inference && spec.burst_topics > 0 {
            (0..spec.burst_topics)
                .map(|_| {
                    let rank = self.class_dist.sample(&mut self.rng);
                    self.rank_to_class(rank)
                })
                .collect()
        } else {
            Vec::new()
        };
        let tokens = (0..n)
            .map(|_| {
                if !topics.is_empty() && self.rng.bernoulli(spec.burst_strength) {
                    let class = topics[self.rng.index(topics.len())];
                    self.sample_token_of_class(class, mode)
                } else {
                    self.sample_token(mode)
                }
            })
            .collect();
        TokenBatch {
            tokens,
            devices,
            experts: spec.experts,
        }
    }

    /// Samples a token with a fixed latent class.
    pub fn sample_token_of_class(&mut self, class: usize, mode: Mode) -> TokenPath {
        let spec = self.gating.spec().clone();
        let selections = (0..spec.layers)
            .map(|layer| {
                self.gating
                    .select(layer, class, self.top_k, mode, &mut self.rng)
            })
            .collect();
        TokenPath { class, selections }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> TokenSource {
        TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 99)
    }

    #[test]
    fn batch_shape_and_sharding() {
        let mut s = source();
        let b = s.sample_batch(4, 128, Mode::Inference);
        assert_eq!(b.len(), 512);
        for d in 0..4 {
            assert_eq!(b.tokens_on(d).len(), 128);
        }
        assert_eq!(b.device_of(0), 0);
        assert_eq!(b.device_of(127), 0);
        assert_eq!(b.device_of(128), 1);
        assert_eq!(b.device_of(511), 3);
    }

    #[test]
    fn routing_conserves_selections() {
        let mut s = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 2, 3);
        let b = s.sample_batch(4, 64, Mode::Train);
        let r = b.routing_for_layer(5);
        // top-2: every token contributes 2 selections.
        assert_eq!(r.total(), 512);
        assert_eq!(r.devices(), 4);
    }

    #[test]
    fn training_routing_is_roughly_balanced() {
        let mut s = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 2, 5);
        let b = s.sample_batch(16, 512, Mode::Train);
        let r = b.routing_for_layer(6);
        let skew = r.skew();
        assert!(skew < 1.5, "training skew {skew}");
    }

    #[test]
    fn inference_routing_is_skewed() {
        let mut s = source();
        let b = s.sample_batch(16, 512, Mode::Inference);
        let r = b.routing_for_layer(6);
        let skew = r.skew();
        assert!(skew > 2.0, "inference skew only {skew}");
    }

    #[test]
    fn primary_is_the_first_selection() {
        let tok = TokenPath {
            class: 0,
            selections: vec![vec![3, 0], vec![7], vec![1, 5], vec![4]],
        };
        assert_eq!(tok.primary(2), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = source();
        let mut b = source();
        let ba = a.sample_batch(2, 16, Mode::Inference);
        let bb = b.sample_batch(2, 16, Mode::Inference);
        assert_eq!(ba.tokens, bb.tokens);
    }

    #[test]
    fn class_rotation_shifts_popular_classes() {
        let spec = WorkloadSpec::enwik8(16, 12);
        let classes = spec.classes;
        let count_classes = |rotation: usize| {
            let mut s = TokenSource::new(&spec, 1, 77);
            s.set_class_rotation(rotation);
            let b = s.sample_batch(8, 512, Mode::Inference);
            let mut counts = vec![0usize; classes];
            for tok in &b.tokens {
                counts[tok.class] += 1;
            }
            counts
        };
        let base = count_classes(0);
        let rotated = count_classes(classes / 2);
        // The same sampling stream shifted by half the class space: the
        // modal class moves by exactly the rotation.
        let argmax = |c: &[usize]| {
            c.iter()
                .enumerate()
                .max_by_key(|&(_, &v)| v)
                .expect("nonempty")
                .0
        };
        assert_eq!((argmax(&base) + classes / 2) % classes, argmax(&rotated));
        // Training mode is uniform over classes and unaffected in shape.
        let mut s = TokenSource::new(&spec, 1, 77);
        s.set_class_rotation(5);
        assert_eq!(s.class_rotation(), 5);
    }

    #[test]
    fn rotation_wraps_modulo_classes() {
        let spec = WorkloadSpec::enwik8(16, 12);
        let mut s = TokenSource::new(&spec, 1, 7);
        s.set_class_rotation(spec.classes + 3);
        assert_eq!(s.class_rotation(), 3);
    }

    #[test]
    fn different_sampling_seeds_differ() {
        let mut a = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 1);
        let mut b = TokenSource::new(&WorkloadSpec::enwik8(16, 12), 1, 2);
        let ba = a.sample_batch(2, 64, Mode::Inference);
        let bb = b.sample_batch(2, 64, Mode::Inference);
        assert_ne!(ba.tokens, bb.tokens);
    }
}
