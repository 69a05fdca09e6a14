//! # ct-models
//!
//! The neural-topic-model zoo of the ContraTopic paper's baselines, all on
//! the `ct-tensor` substrate: LDA (collapsed Gibbs), ProdLDA, WLDA, ETM,
//! NSTM, WeTe, NTM-R, VTMRL and CLNTM, plus the [`backbone::Backbone`]
//! abstraction ContraTopic plugs its topic-wise contrastive regularizer
//! into.

pub mod backbone;
pub mod bundle;
pub mod clntm;
pub mod common;
pub mod decoder;
pub mod ecrtm;
pub mod encoder;
pub mod etm;
pub mod lda;
pub mod nstm;
pub mod ntmr;
pub mod prodlda;
pub mod testutil;
pub mod trace;
pub mod vtmrl;
pub mod wete;
pub mod wlda;

pub use backbone::{
    fit_backbone, fit_backbone_traced, fit_backbone_with_regularizer,
    fit_backbone_with_regularizer_traced, train_backbone_regularized_traced, train_backbone_traced,
    Backbone, BackboneOut, Fitted, TrainedModel,
};
pub use bundle::ModelBundle;
pub use clntm::{fit_clntm, Clntm, ClntmBackbone};
pub use common::{
    train_loop, train_loop_traced, BatchLoss, DivergencePolicy, TopicModel, TrainConfig,
    TrainOutcome, TrainStats,
};
pub use decoder::{EtmDecoder, FreeDecoder};
pub use ecrtm::{fit_ecrtm, Ecrtm, EcrtmBackbone};
pub use encoder::{Encoder, EncoderWeights};
pub use etm::{fit_etm, Etm, EtmBackbone};
pub use lda::{Lda, LdaConfig};
pub use nstm::{fit_nstm, Nstm, NstmBackbone};
pub use ntmr::{fit_ntmr, NtmR, NtmRBackbone};
pub use prodlda::{fit_prodlda, ProdLda, ProdLdaBackbone};
pub use trace::{
    parse_divergence_policy, CollectSink, ConsoleSink, JsonlSink, LossComponents, NoopSink,
    TraceEvent, TraceSink,
};
pub use vtmrl::{fit_vtmrl, gumbel_top_k, Vtmrl, VtmrlBackbone};
pub use wete::{fit_wete, WeTe, WeTeBackbone};
pub use wlda::{fit_wlda, Wlda, WldaBackbone};
