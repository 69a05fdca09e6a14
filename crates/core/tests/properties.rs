//! Property-based tests of the sampler and regularizer invariants.

use contratopic::{
    relaxed_subset, AblationVariant, ContrastiveRegularizer, SimilarityKernel, SubsetSamplerConfig,
};
use ct_tensor::{Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn beta_strat(k: usize, v: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(0.01f32..1.0, k * v).prop_map(move |data| {
        let mut t = Tensor::from_vec(data, k, v);
        t.normalize_rows_l1();
        t
    })
}

fn random_kernel(v: usize, seed: u64) -> SimilarityKernel {
    // Symmetric matrix in [-1, 1] with unit diagonal, like NPMI.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Tensor::rand_uniform(v, v, -1.0, 1.0, &mut rng);
    for i in 0..v {
        for j in (i + 1)..v {
            let x = m.get(i, j);
            m.set(j, i, x);
        }
        m.set(i, i, 1.0);
    }
    SimilarityKernel::custom(m, "random")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn subset_draws_on_simplex(beta_t in beta_strat(3, 12), v in 1usize..6, seed in 0u64..30) {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let beta = tape.leaf(beta_t);
        let s = relaxed_subset(&tape, beta, &SubsetSamplerConfig { v, tau_g: 0.5 }, &mut rng);
        prop_assert_eq!(s.num_draws(), v);
        let all = s.stacked.value();
        prop_assert!(!all.has_non_finite());
        for row in 0..all.rows() {
            let sum: f32 = all.row(row).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3, "draw row sums to {sum}");
        }
        // The v-hot (the sum of a topic's draws) totals v per topic.
        for r in 0..3 {
            let sum: f32 = (0..v).map(|j| all.row(j * 3 + r).iter().sum::<f32>()).sum();
            prop_assert!((sum - v as f32).abs() < 1e-2);
        }
    }

    #[test]
    fn subset_sampler_gradients_finite(beta_t in beta_strat(2, 10), seed in 0u64..30) {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let beta = tape.leaf(beta_t);
        let s = relaxed_subset(
            &tape,
            beta,
            &SubsetSamplerConfig { v: 3, tau_g: 0.5 },
            &mut rng,
        );
        let loss = s.stacked.square().sum_all();
        let grads = tape.backward(loss);
        let g = grads.get(beta).unwrap();
        prop_assert!(!g.has_non_finite());
    }

    #[test]
    fn regularizer_loss_finite_for_all_variants(
        beta_t in beta_strat(3, 10),
        seed in 0u64..20,
    ) {
        let kernel = random_kernel(10, seed);
        for variant in AblationVariant::ALL {
            let reg = ContrastiveRegularizer::new(
                kernel.clone(),
                SubsetSamplerConfig { v: 3, tau_g: 0.5 },
                variant,
            );
            let tape = Tape::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let beta = tape.leaf(beta_t.clone());
            let loss = reg.loss(&tape, beta, &mut rng);
            let value = loss.scalar_value();
            prop_assert!(value.is_finite(), "{variant:?} loss {value}");
            let grads = tape.backward(loss);
            prop_assert!(!grads.get(beta).unwrap().has_non_finite(), "{variant:?} grad");
        }
    }

    #[test]
    fn full_loss_bounded_below_by_log_ratio(beta_t in beta_strat(2, 8), seed in 0u64..20) {
        // L = mean_i [lse_all(i) - lse_pos(i)] >= 0 since positives are a
        // subset of the denominator set.
        let kernel = random_kernel(8, seed);
        let reg = ContrastiveRegularizer::new(
            kernel,
            SubsetSamplerConfig { v: 3, tau_g: 0.5 },
            AblationVariant::Full,
        );
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let beta = tape.leaf(beta_t);
        let loss = reg.loss(&tape, beta, &mut rng).scalar_value();
        prop_assert!(loss >= -1e-4, "contrastive loss {loss} below 0");
    }
}
