//! Content-addressed trial specifications.
//!
//! A [`TrialSpec`] captures *everything* that determines a trial's result:
//! model kind, dataset preset and scale, the corpus seed and embedding
//! noise level, the model seed, and the ContraTopic hyper-parameters when
//! the model carries the regularizer. Training is bitwise deterministic in
//! these inputs (DESIGN.md §6), so the spec's canonical serialized form is
//! a sound cache key: the FNV-1a hash of [`TrialSpec::canonical`] is the
//! **trial key** under which the run ledger stores results, and two grids
//! that declare the same spec share one training run.
//!
//! The canonical form is a JSON object with alphabetically ordered keys
//! and shortest-roundtrip number formatting — stable across runs, readable
//! in the ledger, and exactly re-parseable (floats round-trip bit-for-bit).

use contratopic::AblationVariant;
use ct_corpus::{DatasetPreset, Scale};
use ct_tensor::codec::fnv1a64;

use crate::json::Json;

/// Every model the experiment grids can schedule. The first ten are the
/// paper's Figure 2 / Table III lineup; the last two are the Figure 6
/// backbone substitutions (ContraTopic's regularizer attached to WLDA and
/// WeTe instead of ETM).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Collapsed-Gibbs LDA.
    Lda,
    /// ProdLDA (free-logit decoder VAE).
    ProdLda,
    /// Wasserstein LDA.
    Wlda,
    /// Embedded topic model.
    Etm,
    /// Neural sinkhorn topic model.
    Nstm,
    /// Word-embedding topic estimation.
    WeTe,
    /// NTM with a coherence reward.
    NtmR,
    /// VTM with reinforcement learning.
    Vtmrl,
    /// Contrastive (document-wise) NTM.
    Clntm,
    /// The paper's model: ETM backbone + topic-wise contrastive regularizer.
    ContraTopic,
    /// Figure 6: WLDA backbone + the regularizer.
    ContraTopicWlda,
    /// Figure 6: WeTe backbone + the regularizer.
    ContraTopicWete,
}

impl ModelKind {
    /// All models of Figure 2 / Table III (the backbone-substitution
    /// variants are scheduled only by the Figure 6 grid).
    pub const ALL: [ModelKind; 10] = [
        ModelKind::Lda,
        ModelKind::ProdLda,
        ModelKind::Wlda,
        ModelKind::Etm,
        ModelKind::Nstm,
        ModelKind::WeTe,
        ModelKind::NtmR,
        ModelKind::Vtmrl,
        ModelKind::Clntm,
        ModelKind::ContraTopic,
    ];

    /// Display name (matches the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lda => "LDA",
            ModelKind::ProdLda => "ProdLDA",
            ModelKind::Wlda => "WLDA",
            ModelKind::Etm => "ETM",
            ModelKind::Nstm => "NSTM",
            ModelKind::WeTe => "WeTe",
            ModelKind::NtmR => "NTM-R",
            ModelKind::Vtmrl => "VTMRL",
            ModelKind::Clntm => "CLNTM",
            ModelKind::ContraTopic => "ContraTopic",
            ModelKind::ContraTopicWlda => "ContraTopic(WLDA)",
            ModelKind::ContraTopicWete => "ContraTopic(WeTe)",
        }
    }

    /// Stable identifier used in canonical specs and the ledger. Renaming
    /// one invalidates every cached trial of that model — don't.
    pub fn id(self) -> &'static str {
        match self {
            ModelKind::Lda => "lda",
            ModelKind::ProdLda => "prodlda",
            ModelKind::Wlda => "wlda",
            ModelKind::Etm => "etm",
            ModelKind::Nstm => "nstm",
            ModelKind::WeTe => "wete",
            ModelKind::NtmR => "ntmr",
            ModelKind::Vtmrl => "vtmrl",
            ModelKind::Clntm => "clntm",
            ModelKind::ContraTopic => "contratopic",
            ModelKind::ContraTopicWlda => "contratopic_wlda",
            ModelKind::ContraTopicWete => "contratopic_wete",
        }
    }

    /// Inverse of [`ModelKind::id`].
    pub fn from_id(id: &str) -> Result<Self, String> {
        const EVERY: [ModelKind; 12] = [
            ModelKind::Lda,
            ModelKind::ProdLda,
            ModelKind::Wlda,
            ModelKind::Etm,
            ModelKind::Nstm,
            ModelKind::WeTe,
            ModelKind::NtmR,
            ModelKind::Vtmrl,
            ModelKind::Clntm,
            ModelKind::ContraTopic,
            ModelKind::ContraTopicWlda,
            ModelKind::ContraTopicWete,
        ];
        EVERY
            .into_iter()
            .find(|m| m.id() == id)
            .ok_or_else(|| format!("unknown model id '{id}'"))
    }

    /// Whether this model trains with the contrastive regularizer attached
    /// (and therefore requires [`TrialSpec::ct`] to be present).
    pub fn is_contratopic_family(self) -> bool {
        matches!(
            self,
            ModelKind::ContraTopic | ModelKind::ContraTopicWlda | ModelKind::ContraTopicWete
        )
    }
}

/// Stable identifier for a dataset preset.
pub fn preset_id(preset: DatasetPreset) -> &'static str {
    match preset {
        DatasetPreset::Ng20Like => "20ng",
        DatasetPreset::YahooLike => "yahoo",
        DatasetPreset::NyTimesLike => "nytimes",
    }
}

/// Inverse of [`preset_id`].
pub fn preset_from_id(id: &str) -> Result<DatasetPreset, String> {
    DatasetPreset::ALL
        .into_iter()
        .find(|p| preset_id(*p) == id)
        .ok_or_else(|| format!("unknown preset id '{id}' (20ng|yahoo|nytimes)"))
}

/// Stable identifier for an experiment scale.
pub fn scale_id(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// Inverse of [`scale_id`].
pub fn scale_from_id(id: &str) -> Result<Scale, String> {
    match id {
        "tiny" => Ok(Scale::Tiny),
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale id '{other}' (tiny|quick|full)")),
    }
}

/// Stable identifier for an ablation variant.
pub fn variant_id(variant: AblationVariant) -> &'static str {
    match variant {
        AblationVariant::Full => "full",
        AblationVariant::PositiveOnly => "p",
        AblationVariant::NegativeOnly => "n",
        AblationVariant::InnerProduct => "i",
        AblationVariant::NoSampling => "s",
    }
}

/// Inverse of [`variant_id`].
pub fn variant_from_id(id: &str) -> Result<AblationVariant, String> {
    AblationVariant::ALL
        .into_iter()
        .find(|v| variant_id(*v) == id)
        .ok_or_else(|| format!("unknown variant id '{id}' (full|p|n|i|s)"))
}

/// ContraTopic hyper-parameters as carried by a trial spec. Mirrors
/// `contratopic::ContraTopicConfig` but with every field explicit — a spec
/// never refers to a "default", so the same configuration always hashes to
/// the same trial key regardless of which grid declared it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CtParams {
    /// Regularizer weight λ.
    pub lambda: f32,
    /// Words sampled per topic by the subset sampler.
    pub v: usize,
    /// Gumbel temperature of the subset sampler.
    pub tau_g: f32,
    /// Ablation variant (Table II).
    pub variant: AblationVariant,
}

impl CtParams {
    /// The paper's dataset-dependent default λ (rescaled to this
    /// reproduction's loss magnitudes, see DESIGN.md §5b) with the default
    /// sampler settings (v = 10, τ_g = 0.5) and the full variant.
    pub fn preset_default(preset: DatasetPreset) -> Self {
        Self {
            lambda: default_lambda(preset),
            v: 10,
            tau_g: 0.5,
            variant: AblationVariant::Full,
        }
    }

    /// Convert to the runtime config used by the fit entry points.
    pub fn to_config(self) -> contratopic::ContraTopicConfig {
        contratopic::ContraTopicConfig {
            lambda: self.lambda,
            sampler: contratopic::SubsetSamplerConfig {
                v: self.v,
                tau_g: self.tau_g,
            },
            variant: self.variant,
        }
    }
}

/// The paper's dataset-dependent lambda (40 / 40 / 300), rescaled to our
/// loss magnitudes (the contrastive gradient is ~1% of the ELBO gradient
/// per unit lambda on our corpora, measured in DESIGN.md §5b).
pub fn default_lambda(preset: DatasetPreset) -> f32 {
    match preset {
        DatasetPreset::Ng20Like | DatasetPreset::YahooLike => 400.0,
        DatasetPreset::NyTimesLike => 600.0,
    }
}

/// One fully specified training trial. See the module docs for the
/// canonical form and hashing contract.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialSpec {
    /// Which model to train.
    pub model: ModelKind,
    /// Which synthetic dataset preset to train on.
    pub preset: DatasetPreset,
    /// Experiment scale (corpus size, K, epochs).
    pub scale: Scale,
    /// Seed fixing the corpus generation and train/test split.
    pub data_seed: u64,
    /// Out-of-domain embedding noise level (`CT_EMB_NOISE`).
    pub emb_noise: f32,
    /// Model seed (init, batching, sampling).
    pub seed: u64,
    /// Override for the scale's default epoch count (smoke grids use a
    /// tiny budget). `None` = the scale default.
    pub epochs: Option<usize>,
    /// Regularizer hyper-parameters; `Some` iff the model is in the
    /// ContraTopic family.
    pub ct: Option<CtParams>,
}

impl TrialSpec {
    /// A baseline-model spec with the shared experiment defaults.
    pub fn baseline(model: ModelKind, preset: DatasetPreset, scale: Scale, seed: u64) -> Self {
        let ct = model
            .is_contratopic_family()
            .then(|| CtParams::preset_default(preset));
        Self {
            model,
            preset,
            scale,
            data_seed: DEFAULT_DATA_SEED,
            emb_noise: crate::context::embedding_noise(),
            seed,
            epochs: None,
            ct,
        }
    }

    /// Canonical serialized form: a single-line JSON object with keys in
    /// alphabetical order and shortest-roundtrip numbers. This string is
    /// what gets hashed and what the ledger stores.
    pub fn canonical(&self) -> String {
        self.canonical_inner(true)
    }

    /// Canonical form *without* the model seed: identical for the trials an
    /// aggregate averages over, so it serves as the grouping key.
    pub fn group_key(&self) -> String {
        self.canonical_inner(false)
    }

    fn canonical_inner(&self, with_seed: bool) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"ct\":");
        match &self.ct {
            None => s.push_str("null"),
            Some(ct) => {
                s.push_str(&format!(
                    "{{\"lambda\":{},\"tau_g\":{},\"v\":{},\"variant\":\"{}\"}}",
                    ct.lambda,
                    ct.tau_g,
                    ct.v,
                    variant_id(ct.variant)
                ));
            }
        }
        s.push_str(&format!(",\"data_seed\":{}", self.data_seed));
        s.push_str(&format!(",\"emb_noise\":{}", self.emb_noise));
        match self.epochs {
            None => s.push_str(",\"epochs\":null"),
            Some(e) => s.push_str(&format!(",\"epochs\":{e}")),
        }
        s.push_str(&format!(",\"model\":\"{}\"", self.model.id()));
        s.push_str(&format!(",\"preset\":\"{}\"", preset_id(self.preset)));
        s.push_str(&format!(",\"scale\":\"{}\"", scale_id(self.scale)));
        if with_seed {
            s.push_str(&format!(",\"seed\":{}", self.seed));
        }
        s.push('}');
        s
    }

    /// The trial key: FNV-1a 64-bit hash of [`TrialSpec::canonical`], as 16
    /// lowercase hex digits.
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// Short human-readable label for progress lines and reports.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.model.name(), preset_id(self.preset));
        if let Some(ct) = &self.ct {
            if ct.variant != AblationVariant::Full {
                s = format!("{}/{}", ct.variant.label(), preset_id(self.preset));
            }
            let d = CtParams::preset_default(self.preset);
            if ct.lambda != d.lambda {
                s.push_str(&format!(" λ={}", ct.lambda));
            }
            if ct.v != d.v {
                s.push_str(&format!(" v={}", ct.v));
            }
        }
        s.push_str(&format!(" seed={}", self.seed));
        s
    }

    /// Parse a spec back from its ledger JSON (the canonical object).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let get = |k: &str| v.get(k).ok_or_else(|| format!("spec missing '{k}'"));
        let model = ModelKind::from_id(get("model")?.as_str().ok_or("model not a string")?)?;
        let preset = preset_from_id(get("preset")?.as_str().ok_or("preset not a string")?)?;
        let scale = scale_from_id(get("scale")?.as_str().ok_or("scale not a string")?)?;
        let data_seed = get("data_seed")?.as_u64().ok_or("bad data_seed")?;
        let seed = get("seed")?.as_u64().ok_or("bad seed")?;
        let emb_noise = get("emb_noise")?.as_f64().ok_or("bad emb_noise")? as f32;
        let epochs = match get("epochs")? {
            Json::Null => None,
            e => Some(e.as_u64().ok_or("bad epochs")? as usize),
        };
        let ct = match get("ct")? {
            Json::Null => None,
            ct => Some(CtParams {
                lambda: ct
                    .get("lambda")
                    .and_then(Json::as_f64)
                    .ok_or("bad ct.lambda")? as f32,
                tau_g: ct
                    .get("tau_g")
                    .and_then(Json::as_f64)
                    .ok_or("bad ct.tau_g")? as f32,
                v: ct.get("v").and_then(Json::as_u64).ok_or("bad ct.v")? as usize,
                variant: variant_from_id(
                    ct.get("variant")
                        .and_then(Json::as_str)
                        .ok_or("bad ct.variant")?,
                )?,
            }),
        };
        Ok(Self {
            model,
            preset,
            scale,
            data_seed,
            emb_noise,
            seed,
            epochs,
            ct,
        })
    }
}

/// The corpus seed shared by every paper experiment (fixed so all grids hit
/// the same generated datasets and the context cache).
pub const DEFAULT_DATA_SEED: u64 = 42;

/// The model seed the paper grids start from (`seed = BASE_SEED + i`).
pub const BASE_SEED: u64 = 42;

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrialSpec {
        TrialSpec {
            model: ModelKind::ContraTopic,
            preset: DatasetPreset::Ng20Like,
            scale: Scale::Tiny,
            data_seed: 42,
            emb_noise: 0.3,
            seed: 43,
            epochs: None,
            ct: Some(CtParams::preset_default(DatasetPreset::Ng20Like)),
        }
    }

    #[test]
    fn canonical_is_stable_and_sorted() {
        let c = spec().canonical();
        assert_eq!(
            c,
            "{\"ct\":{\"lambda\":400,\"tau_g\":0.5,\"v\":10,\"variant\":\"full\"},\
             \"data_seed\":42,\"emb_noise\":0.3,\"epochs\":null,\"model\":\"contratopic\",\
             \"preset\":\"20ng\",\"scale\":\"tiny\",\"seed\":43}"
        );
        // Hash is a pure function of the canonical string.
        assert_eq!(spec().key(), spec().key());
        assert_eq!(spec().key().len(), 16);
    }

    #[test]
    fn distinct_specs_have_distinct_keys() {
        let a = spec();
        let mut b = spec();
        b.seed = 44;
        let mut c = spec();
        c.ct.as_mut().unwrap().lambda = 100.0;
        let mut d = spec();
        d.model = ModelKind::Etm;
        d.ct = None;
        let keys: std::collections::HashSet<_> =
            [a.key(), b.key(), c.key(), d.key()].into_iter().collect();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn group_key_drops_only_the_seed() {
        let a = spec();
        let mut b = spec();
        b.seed = 44;
        assert_eq!(a.group_key(), b.group_key());
        let mut c = spec();
        c.ct.as_mut().unwrap().v = 7;
        assert_ne!(a.group_key(), c.group_key());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for s in [
            spec(),
            TrialSpec::baseline(ModelKind::Lda, DatasetPreset::NyTimesLike, Scale::Quick, 42),
            TrialSpec {
                epochs: Some(2),
                ..spec()
            },
        ] {
            let parsed =
                TrialSpec::from_json(&crate::json::parse(&s.canonical()).unwrap()).unwrap();
            assert_eq!(parsed, s);
            assert_eq!(parsed.key(), s.key());
        }
    }

    #[test]
    fn model_ids_roundtrip() {
        for m in ModelKind::ALL {
            assert_eq!(ModelKind::from_id(m.id()).unwrap(), m);
        }
        assert_eq!(
            ModelKind::from_id("contratopic_wlda").unwrap(),
            ModelKind::ContraTopicWlda
        );
        assert!(ModelKind::from_id("nope").is_err());
    }

    #[test]
    fn contratopic_family_is_flagged() {
        assert!(ModelKind::ContraTopic.is_contratopic_family());
        assert!(ModelKind::ContraTopicWete.is_contratopic_family());
        assert!(!ModelKind::Etm.is_contratopic_family());
    }
}
