//! The topic-wise contrastive regularizer `L_con` (paper Eq. 2).
//!
//! Samples (the `s_i` of Eq. 2) are *words*: `v` relaxed draws from each of
//! the `K` topics. Words drawn from the same topic are positives — pulling
//! them together under the NPMI kernel directly optimizes topic coherence —
//! and words from different topics are negatives, pushing topics apart and
//! enforcing diversity. Everything stays differentiable via the relaxed
//! subset sampler, so the loss backpropagates into the topic-word
//! distribution.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use ct_tensor::ops::QuadScratch;
use ct_tensor::{Tape, Tensor, Var};
use rand::Rng;

use crate::gumbel::{relaxed_subset, SubsetSamplerConfig};
use crate::kernel::SimilarityKernel;

/// Ablation variants of Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// The full topic-wise contrastive loss (positives + negatives, NPMI
    /// kernel, relaxed sampling).
    Full,
    /// ContraTopic-P: positive pairs only (coherence, no diversity).
    PositiveOnly,
    /// ContraTopic-N: negative pairs only (diversity, no coherence).
    NegativeOnly,
    /// ContraTopic-I: inner-product (embedding) kernel instead of NPMI.
    /// Structurally identical to `Full` — the kernel differs.
    InnerProduct,
    /// ContraTopic-S: no sampling; uses the full topic-word distribution as
    /// the expectation of the mutual-information estimate.
    NoSampling,
}

impl AblationVariant {
    /// Every variant, in the paper's Table VI order.
    pub const ALL: [AblationVariant; 5] = [
        AblationVariant::Full,
        AblationVariant::PositiveOnly,
        AblationVariant::NegativeOnly,
        AblationVariant::InnerProduct,
        AblationVariant::NoSampling,
    ];

    /// The paper's name for the variant (e.g. `"ContraTopic-P"`).
    pub fn label(self) -> &'static str {
        match self {
            AblationVariant::Full => "ContraTopic",
            AblationVariant::PositiveOnly => "ContraTopic-P",
            AblationVariant::NegativeOnly => "ContraTopic-N",
            AblationVariant::InnerProduct => "ContraTopic-I",
            AblationVariant::NoSampling => "ContraTopic-S",
        }
    }
}

/// Reusable masks for an `M x M` pair matrix where row `i`'s topic is
/// `i % k` (draws are stacked draw-major).
struct PairMasks {
    /// `0` on allowed entries, `-1e9` elsewhere — added before logsumexp.
    positives: Arc<Tensor>,
    all_but_self: Arc<Tensor>,
    /// `1` on positive (same-topic, non-self) pairs.
    pos_indicator: Arc<Tensor>,
    /// `1` on negative (cross-topic) pairs.
    neg_indicator: Arc<Tensor>,
    num_pos: f32,
    num_neg: f32,
}

const NEG_INF: f32 = -1e9;

fn build_masks(k: usize, v: usize) -> PairMasks {
    let m = k * v;
    let mut positives = Tensor::full(m, m, NEG_INF);
    let mut all_but_self = Tensor::zeros(m, m);
    let mut pos_ind = Tensor::zeros(m, m);
    let mut neg_ind = Tensor::zeros(m, m);
    let mut num_pos = 0f32;
    let mut num_neg = 0f32;
    for i in 0..m {
        for j in 0..m {
            if i == j {
                all_but_self.set(i, j, NEG_INF);
                continue;
            }
            if i % k == j % k {
                positives.set(i, j, 0.0);
                pos_ind.set(i, j, 1.0);
                num_pos += 1.0;
            } else {
                neg_ind.set(i, j, 1.0);
                num_neg += 1.0;
            }
        }
    }
    PairMasks {
        positives: Arc::new(positives),
        all_but_self: Arc::new(all_but_self),
        pos_indicator: Arc::new(pos_ind),
        neg_indicator: Arc::new(neg_ind),
        num_pos,
        num_neg,
    }
}

/// The topic-wise contrastive regularizer.
pub struct ContrastiveRegularizer {
    /// Word-word similarity used for the positive/negative scores.
    pub kernel: SimilarityKernel,
    /// Gumbel subset-sampler settings (`v`, temperature).
    pub sampler: SubsetSamplerConfig,
    /// Which terms of the contrastive objective are active.
    pub variant: AblationVariant,
    /// Pair masks memoized by `(k, v)`. The masks depend only on those two
    /// integers, and `loss` is called once per training step with the same
    /// shape — rebuilding four `M x M` tensors each step was pure waste.
    masks: RefCell<HashMap<(usize, usize), Arc<PairMasks>>>,
    /// How many times mask construction actually ran (test hook).
    masks_built: Cell<usize>,
    /// Reused buffer for the kernel product `T = A·N` inside the fused
    /// `S = A·N·Aᵀ` op — one allocation per instance instead of per step.
    quad_scratch: Rc<RefCell<QuadScratch>>,
}

impl ContrastiveRegularizer {
    /// Build a regularizer from its three knobs; buffers start empty.
    pub fn new(
        kernel: SimilarityKernel,
        sampler: SubsetSamplerConfig,
        variant: AblationVariant,
    ) -> Self {
        Self {
            kernel,
            sampler,
            variant,
            masks: RefCell::new(HashMap::new()),
            masks_built: Cell::new(0),
            quad_scratch: Rc::new(RefCell::new(QuadScratch::new())),
        }
    }

    fn masks(&self, k: usize, v: usize) -> Arc<PairMasks> {
        if let Some(m) = self.masks.borrow().get(&(k, v)) {
            return Arc::clone(m);
        }
        let built = Arc::new(build_masks(k, v));
        self.masks_built.set(self.masks_built.get() + 1);
        self.masks.borrow_mut().insert((k, v), Arc::clone(&built));
        built
    }

    /// Number of times `build_masks` has actually run for this instance.
    /// Stays at one per distinct `(k, v)` shape thanks to memoization.
    pub fn masks_built(&self) -> usize {
        self.masks_built.get()
    }

    /// Build `L_con` on the tape from the differentiable `beta (K, V)`.
    pub fn loss<'t, R: Rng>(&self, tape: &'t Tape, beta: Var<'t>, rng: &mut R) -> Var<'t> {
        let (k, vocab) = beta.shape();
        assert_eq!(
            vocab,
            self.kernel.vocab_size(),
            "beta vocabulary does not match the kernel"
        );
        match self.variant {
            AblationVariant::NoSampling => self.loss_no_sampling(beta, k),
            _ => self.loss_sampled(tape, beta, k, rng),
        }
    }

    fn loss_sampled<'t, R: Rng>(
        &self,
        tape: &'t Tape,
        beta: Var<'t>,
        k: usize,
        rng: &mut R,
    ) -> Var<'t> {
        // Stacked draws: row i is draw (i / k) of topic (i % k).
        let a = relaxed_subset(tape, beta, &self.sampler, rng).stacked; // (M, V)
        let m = (k * self.sampler.v) as f32;
        // Pairwise expected similarity: S = A N A^T (fused; N is symmetric).
        let s = a.sym_quadratic_const(self.kernel.matrix(), &self.quad_scratch); // (M, M)
        let masks = self.masks(k, self.sampler.v);
        match self.variant {
            AblationVariant::Full | AblationVariant::InnerProduct => {
                // Eq. 2: sum_i -log( sum_{p in P(i)} e^{S_ip}
                //                    / sum_{a != i} e^{S_ia} ).
                let denom = s.add_const(&masks.all_but_self).logsumexp_rows();
                let numer = s.add_const(&masks.positives).logsumexp_rows();
                denom.sub(numer).sum_all().scale(1.0 / m)
            }
            AblationVariant::PositiveOnly => {
                // Maximize mean positive similarity.
                s.mul_const(&masks.pos_indicator)
                    .sum_all()
                    .scale(-1.0 / masks.num_pos)
            }
            AblationVariant::NegativeOnly => {
                // Minimize mean negative similarity.
                s.mul_const(&masks.neg_indicator)
                    .sum_all()
                    .scale(1.0 / masks.num_neg)
            }
            AblationVariant::NoSampling => unreachable!("handled in loss()"),
        }
    }

    /// ContraTopic-S: replace sampling by the expectation under `beta`:
    /// `S = beta N beta^T (K, K)`; the diagonal entries are the positives.
    fn loss_no_sampling<'t>(&self, beta: Var<'t>, k: usize) -> Var<'t> {
        let s = beta.sym_quadratic_const(self.kernel.matrix(), &self.quad_scratch); // (K, K)
        let diag = Arc::new(Tensor::eye(k));
        let numer = s.mul_const(&diag).sum_axis1(); // (K, 1) = diagonal
        let denom = s.logsumexp_rows(); // (K, 1)
        denom.sub(numer).sum_all().scale(1.0 / k as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_corpus::{BowCorpus, NpmiMatrix, SparseDoc, Vocab};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference corpus with two clean clusters of 5 words.
    fn kernel_two_clusters() -> SimilarityKernel {
        let vocab = Vocab::from_words((0..10).map(|i| format!("w{i}")));
        let mut c = BowCorpus::new(vocab);
        for _ in 0..30 {
            c.docs.push(SparseDoc::from_tokens(&[0, 1, 2, 3, 4]));
            c.docs.push(SparseDoc::from_tokens(&[5, 6, 7, 8, 9]));
        }
        SimilarityKernel::npmi(&NpmiMatrix::from_corpus(&c))
    }

    fn aligned_beta() -> Tensor {
        // Topics match the clusters: coherent and diverse.
        let mut b = Tensor::full(2, 10, 0.004);
        for i in 0..5 {
            b.set(0, i, 0.196);
            b.set(1, 5 + i, 0.196);
        }
        b.normalize_rows_l1();
        b
    }

    fn collapsed_beta() -> Tensor {
        // Both topics on cluster 0: coherent but not diverse.
        let mut b = Tensor::full(2, 10, 0.004);
        for i in 0..5 {
            b.set(0, i, 0.196);
            b.set(1, i, 0.196);
        }
        b.normalize_rows_l1();
        b
    }

    fn scrambled_beta() -> Tensor {
        // Each topic mixes the clusters: diverse but incoherent.
        let mut b = Tensor::full(2, 10, 0.004);
        for i in 0..5 {
            let (t, w) = (i % 2, i);
            b.set(t, w, 0.196);
            b.set(1 - t, 5 + i, 0.196);
        }
        b.normalize_rows_l1();
        b
    }

    fn loss_value(variant: AblationVariant, beta_t: &Tensor, seed: u64) -> f32 {
        let kernel = kernel_two_clusters();
        let reg =
            ContrastiveRegularizer::new(kernel, SubsetSamplerConfig { v: 4, tau_g: 0.2 }, variant);
        let tape = Tape::new();
        let beta = tape.leaf(beta_t.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        // Average over a few Gumbel draws to reduce variance.
        let mut acc = 0.0;
        let n = 8;
        for i in 0..n {
            let _ = i;
            acc += reg.loss(&tape, beta, &mut rng).scalar_value();
        }
        acc / n as f32
    }

    #[test]
    fn full_loss_prefers_aligned_topics() {
        let good = loss_value(AblationVariant::Full, &aligned_beta(), 1);
        let collapsed = loss_value(AblationVariant::Full, &collapsed_beta(), 1);
        let scrambled = loss_value(AblationVariant::Full, &scrambled_beta(), 1);
        assert!(
            good < collapsed - 0.1,
            "aligned {good} should beat collapsed {collapsed}"
        );
        assert!(
            good < scrambled - 0.1,
            "aligned {good} should beat scrambled {scrambled}"
        );
    }

    #[test]
    fn positive_only_ignores_collapse() {
        // -P cares about coherence only: collapsed topics (both coherent)
        // score as well as aligned ones.
        let good = loss_value(AblationVariant::PositiveOnly, &aligned_beta(), 2);
        let collapsed = loss_value(AblationVariant::PositiveOnly, &collapsed_beta(), 2);
        let scrambled = loss_value(AblationVariant::PositiveOnly, &scrambled_beta(), 2);
        assert!((good - collapsed).abs() < 0.15, "{good} vs {collapsed}");
        assert!(scrambled > good + 0.2, "scrambled {scrambled} vs {good}");
    }

    #[test]
    fn negative_only_punishes_cross_topic_overlap() {
        // -N cares about cross-topic separation only: aligned topics put
        // all cross-topic pairs in different clusters (NPMI -1, best
        // possible); collapsed topics share a cluster (worst); scrambled
        // topics still share clusters across topics, so they also score
        // poorly — but unlike the full loss, -N cannot tell that scrambled
        // topics are internally incoherent.
        let good = loss_value(AblationVariant::NegativeOnly, &aligned_beta(), 3);
        let collapsed = loss_value(AblationVariant::NegativeOnly, &collapsed_beta(), 3);
        let scrambled = loss_value(AblationVariant::NegativeOnly, &scrambled_beta(), 3);
        assert!(collapsed > good + 0.2, "collapsed {collapsed} vs {good}");
        assert!(scrambled > good + 0.2, "scrambled {scrambled} vs {good}");
    }

    #[test]
    fn no_sampling_variant_prefers_aligned() {
        let good = loss_value(AblationVariant::NoSampling, &aligned_beta(), 4);
        let collapsed = loss_value(AblationVariant::NoSampling, &collapsed_beta(), 4);
        assert!(good < collapsed, "aligned {good} vs collapsed {collapsed}");
    }

    #[test]
    fn gradients_improve_beta_under_full_loss() {
        // A few gradient steps on the regularizer alone should decrease it.
        let kernel = kernel_two_clusters();
        let reg = ContrastiveRegularizer::new(
            kernel,
            SubsetSamplerConfig { v: 3, tau_g: 0.3 },
            AblationVariant::Full,
        );
        let mut params = ct_tensor::Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let logits = params.add("logits", Tensor::randn(2, 10, 0.1, &mut rng));
        let mut opt = ct_tensor::Adam::new(0.05);
        use ct_tensor::Optimizer;
        let mut first = None;
        let mut last = 0.0;
        for step in 0..60 {
            let tape = Tape::new();
            let beta = tape.param(&params, logits).softmax_rows(1.0);
            let loss = reg.loss(&tape, beta, &mut rng);
            last = loss.scalar_value();
            if step == 0 {
                first = Some(last);
            }
            tape.backward(loss).accumulate_into(&mut params);
            opt.step(&mut params);
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn masks_built_at_most_once_per_shape() {
        let reg = ContrastiveRegularizer::new(
            kernel_two_clusters(),
            SubsetSamplerConfig { v: 4, tau_g: 0.2 },
            AblationVariant::Full,
        );
        assert_eq!(reg.masks_built(), 0);
        let beta_t = aligned_beta();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let tape = Tape::new();
            let beta = tape.leaf(beta_t.clone());
            let _ = reg.loss(&tape, beta, &mut rng).scalar_value();
        }
        assert_eq!(reg.masks_built(), 1, "masks must be built once per (k, v)");
    }

    #[test]
    fn caching_does_not_change_loss_values() {
        // A long-lived regularizer (warm mask cache + reused scratch) must
        // produce bit-identical losses to fresh instances fed the same RNG
        // stream.
        let mk = || {
            ContrastiveRegularizer::new(
                kernel_two_clusters(),
                SubsetSamplerConfig { v: 4, tau_g: 0.2 },
                AblationVariant::Full,
            )
        };
        let reused = mk();
        let beta_t = aligned_beta();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        for step in 0..4 {
            let ta = Tape::new();
            let la = reused
                .loss(&ta, ta.leaf(beta_t.clone()), &mut rng_a)
                .scalar_value();
            let fresh = mk();
            let tb = Tape::new();
            let lb = fresh
                .loss(&tb, tb.leaf(beta_t.clone()), &mut rng_b)
                .scalar_value();
            assert_eq!(la.to_bits(), lb.to_bits(), "step {step}: {la} vs {lb}");
        }
    }

    #[test]
    fn mask_counts_match_formula() {
        // k*C_v^2*2 positive ordered pairs and v^2*k*(k-1) negative ordered
        // pairs (the paper's §IV-B balance analysis, ordered counting).
        let m = build_masks(3, 4);
        assert_eq!(m.num_pos, (3 * 4 * 3) as f32); // k * v * (v-1)
        assert_eq!(m.num_neg, (12 * 12 - 12 - 36) as f32);
    }
}
