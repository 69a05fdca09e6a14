//! Differentiable subset sampling (§IV-B of the paper).
//!
//! Drawing the top-`v` words of a topic is a discrete operation; ContraTopic
//! needs gradients to flow from the contrastive loss back into the
//! topic-word distribution. The paper combines the Gumbel-softmax trick
//! (Jang et al. 2017, Eq. 3) with the relaxed subset-sampling procedure of
//! Xie & Ermon (2019, Eq. 4–5): perturb the log-probabilities with Gumbel
//! noise once, then repeatedly take a relaxed arg-max and *suppress* what
//! was already taken via `r <- r + log(1 - p)`, yielding `v` soft one-hot
//! draws without replacement whose sum is a relaxed `v`-hot vector.

use ct_tensor::{Tape, Tensor, Var};
use rand::Rng;

/// A relaxed without-replacement sample of `v` words from each of `K`
/// topics.
pub struct SubsetSample<'t> {
    /// The `v` relaxed one-hot draws stacked draw-major, `(v·K, V)`: row
    /// `j·K + t` is draw `j` of topic `t`.
    pub stacked: Var<'t>,
    /// Topics `K`.
    pub topics: usize,
}

impl SubsetSample<'_> {
    /// Draws per topic, `v`.
    pub fn num_draws(&self) -> usize {
        self.stacked.shape().0 / self.topics
    }
}

/// Sample standard Gumbel noise `g = -log(-log u)`.
pub fn gumbel_noise<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for x in t.data_mut() {
        let u: f32 = rng.gen::<f32>().max(1e-20);
        *x = -(-u.ln()).ln();
    }
    t
}

/// Configuration for the relaxed subset sampler.
#[derive(Clone, Copy, Debug)]
pub struct SubsetSamplerConfig {
    /// Words sampled per topic (`v` in the paper; default 10).
    pub v: usize,
    /// Gumbel-softmax temperature (`tau_g`; paper default 0.5).
    pub tau_g: f32,
}

impl Default for SubsetSamplerConfig {
    fn default() -> Self {
        Self { v: 10, tau_g: 0.5 }
    }
}

/// Draw a relaxed subset of `config.v` words per topic from the
/// differentiable topic-word distribution `beta (K, V)`.
///
/// Algorithm (paper Eq. 3–5):
/// 1. `r^1 = log beta + g`, `g ~ Gumbel(0,1)` (constant w.r.t. the graph);
/// 2. for `j = 1..v`: `p(r^j) = softmax(r^j / tau_g)`,
///    `r^{j+1} = r^j + log(1 - p(r^j))`;
/// 3. the draws are the `p(r^j)`, and `y = Σ_j p(r^j)` is the `v`-hot.
///
/// The whole loop is one tape node ([`Var::relaxed_subset_rows`]) that
/// writes the draws straight into the stacked matrix the regularizer
/// multiplies.
pub fn relaxed_subset<'t, R: Rng>(
    _tape: &'t Tape,
    beta: Var<'t>,
    config: &SubsetSamplerConfig,
    rng: &mut R,
) -> SubsetSample<'t> {
    assert!(config.v >= 1, "v must be >= 1");
    let (k, vocab) = beta.shape();
    assert!(
        config.v < vocab,
        "cannot sample {} words from a {vocab}-word vocabulary",
        config.v
    );
    let g = gumbel_noise(k, vocab, rng);
    SubsetSample {
        stacked: beta.relaxed_subset_rows(&g, config.v, config.tau_g),
        topics: k,
    }
}

/// Hard (non-relaxed) readout: the index each draw puts the most mass on.
pub fn hard_indices(sample: &SubsetSample<'_>, topic: usize) -> Vec<usize> {
    let all = sample.stacked.value();
    (0..sample.num_draws())
        .map(|j| all.argmax_row(j * sample.topics + topic))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn peaked_beta(k: usize, v: usize, peak: f32) -> Tensor {
        // Topic t peaks on words [t*4, t*4+4).
        let mut b = Tensor::full(k, v, (1.0 - peak) / (v - 4) as f32);
        for t in 0..k {
            for i in 0..4 {
                b.set(t, t * 4 + i, peak / 4.0);
            }
        }
        b.normalize_rows_l1();
        b
    }

    #[test]
    fn draws_are_relaxed_one_hots() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let beta = tape.leaf(peaked_beta(3, 20, 0.9));
        let s = relaxed_subset(
            &tape,
            beta,
            &SubsetSamplerConfig { v: 4, tau_g: 0.5 },
            &mut rng,
        );
        assert_eq!(s.num_draws(), 4);
        let all = s.stacked.value();
        assert_eq!(all.shape(), (4 * 3, 20));
        for row in 0..all.rows() {
            let sum: f32 = all.row(row).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "draw row sums to {sum}");
        }
        // The v-hot (the sum of a topic's draws) sums to v per topic.
        for t in 0..3 {
            let sum: f32 = (0..4).map(|j| all.row(j * 3 + t).iter().sum::<f32>()).sum();
            assert!((sum - 4.0).abs() < 1e-3, "v-hot row sums to {sum}");
        }
    }

    #[test]
    fn sampling_is_approximately_without_replacement() {
        // With a sharp temperature, consecutive draws should pick distinct
        // argmax words.
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(2);
        let beta = tape.leaf(peaked_beta(2, 30, 0.95));
        let s = relaxed_subset(
            &tape,
            beta,
            &SubsetSamplerConfig { v: 5, tau_g: 0.1 },
            &mut rng,
        );
        for t in 0..2 {
            let idx = hard_indices(&s, t);
            let uniq: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(uniq.len(), idx.len(), "replacement in draws: {idx:?}");
        }
    }

    #[test]
    fn high_probability_words_sampled_more_often() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(3);
        let beta_t = peaked_beta(1, 25, 0.9);
        let mut core_hits = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let beta = tape.leaf(beta_t.clone());
            let s = relaxed_subset(
                &tape,
                beta,
                &SubsetSamplerConfig { v: 3, tau_g: 0.3 },
                &mut rng,
            );
            for &i in &hard_indices(&s, 0) {
                if i < 4 {
                    core_hits += 1;
                }
                total += 1;
            }
        }
        let frac = core_hits as f64 / total as f64;
        assert!(frac > 0.6, "core words sampled only {frac}");
    }

    #[test]
    fn gradients_flow_back_to_beta() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(4);
        let beta = tape.leaf(peaked_beta(2, 15, 0.8));
        let s = relaxed_subset(&tape, beta, &SubsetSamplerConfig::default(), &mut rng);
        let loss = s.stacked.square().sum_all();
        let grads = tape.backward(loss);
        let g = grads.get(beta).expect("no gradient reached beta");
        assert!(g.norm() > 0.0);
        assert!(!g.has_non_finite());
    }

    #[test]
    fn gumbel_noise_statistics() {
        // Gumbel(0,1) has mean ~0.5772 (Euler–Mascheroni). 160k samples
        // put the standard error near 0.0032, so a 0.015 tolerance is ~4.7
        // sigma — seed-robust while still catching real bias.
        let mut rng = StdRng::seed_from_u64(5);
        let g = gumbel_noise(400, 400, &mut rng);
        assert!((g.mean() - 0.5772).abs() < 0.015, "mean {}", g.mean());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn rejects_v_ge_vocab() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(6);
        let beta = tape.leaf(Tensor::full(1, 3, 1.0 / 3.0));
        let _ = relaxed_subset(
            &tape,
            beta,
            &SubsetSamplerConfig { v: 3, tau_g: 0.5 },
            &mut rng,
        );
    }
}
