//! # contratopic
//!
//! Reproduction of **ContraTopic** (Gao et al., ICDE 2024): enhancing topic
//! interpretability for neural topic modeling through *topic-wise*
//! contrastive learning.
//!
//! The model adds a differentiable regularizer to any VAE-style neural
//! topic model: `v` words are drawn from each topic's word distribution
//! with a relaxed (Gumbel-softmax) subset sampler, words from the same
//! topic are treated as positive pairs and words from different topics as
//! negatives, and their similarity is measured with corpus-precomputed
//! NPMI. Minimizing the contrastive loss therefore directly optimizes
//! topic coherence (positives) and topic diversity (negatives) during
//! training — the two halves of topic interpretability.
//!
//! ```no_run
//! use ct_corpus::{generate, DatasetPreset, NpmiMatrix, Scale, train_embeddings};
//! use ct_models::{TopicModel, TrainConfig};
//! use contratopic::{fit_contratopic, ContraTopicConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let data = generate(&DatasetPreset::Ng20Like.spec(Scale::Quick), &mut rng);
//! let npmi = NpmiMatrix::from_corpus(&data.corpus);
//! let emb = train_embeddings(&data.corpus, 64, &mut rng);
//! let model = fit_contratopic(
//!     &data.corpus, emb, &npmi,
//!     &TrainConfig::default(), &ContraTopicConfig::default(),
//! );
//! let beta = model.beta(); // (K, V) topic-word distributions
//! ```

#![warn(missing_docs)]

pub mod gumbel;
pub mod kernel;
pub mod model;
pub mod online;
pub mod regularizer;
pub mod tuning;

pub use gumbel::{gumbel_noise, relaxed_subset, SubsetSample, SubsetSamplerConfig};
pub use kernel::SimilarityKernel;
pub use model::{
    build_kernel, fit_contratopic, fit_contratopic_traced, fit_contratopic_wete,
    fit_contratopic_wlda, fit_multilevel, fit_with_backbone, ContraTopic, ContraTopicConfig,
};
pub use online::OnlineContraTopic;
pub use regularizer::{AblationVariant, ContrastiveRegularizer};
pub use tuning::{grid_search, GridPoint, GridSearchResult, GridSearchSpace};
