//! # ct-corpus
//!
//! Corpus substrate for the ContraTopic reproduction: vocabulary and
//! bag-of-words types, the paper's preprocessing pipeline, a synthetic
//! corpus generator with planted topics (standing in for 20NG / Yahoo /
//! NYTimes), the NPMI co-occurrence engine used both as the contrastive
//! similarity kernel and as the coherence metric, and PPMI-factorisation
//! word embeddings (standing in for pretrained GloVe).

#![warn(missing_docs)]

pub mod bow;
pub mod embed;
pub mod npmi;
pub mod pipeline;
pub mod stats;
pub mod stream;
pub mod synth;
pub mod vocab;

pub use bow::{csr_batch_from_docs, BatchIter, BowCorpus, SparseDoc};
pub use embed::{cosine, degrade_embeddings, train_embeddings};
pub use npmi::NpmiMatrix;
pub use pipeline::{Pipeline, PipelineConfig};
pub use stream::{parse_drift_script, DocStream, DriftEvent, DriftKind, StreamChunk, StreamSpec};
pub use synth::{
    generate, render_text_with_stopwords, DatasetPreset, Scale, SynthCorpus, SynthSpec,
};
pub use vocab::Vocab;
