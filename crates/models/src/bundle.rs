//! Trained-model bundle: one checksummed container file, `<prefix>.ckpt`,
//! with sections `config` (architecture hyper-parameters as `key=value`
//! lines), `vocab` (one word per line) and `params`. It is enough to
//! rebuild the model for inference: the CLI's `train` writes one, and the
//! one-shot commands and the serving engine load it. One atomic rename
//! means a crash never pairs a new vocabulary with old parameters.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;

use ct_corpus::Vocab;
use ct_tensor::codec::{self, invalid_data as invalid, Container};
use ct_tensor::{params_from_bytes, params_to_bytes, Params, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::TrainConfig;
use crate::etm::EtmBackbone;

/// Container magic of a model bundle.
const BUNDLE_MAGIC: &[u8; 8] = b"CTBUNDLE";

/// Parse `key` of the `config` section's `key=value` fields.
fn field<T: std::str::FromStr>(fields: &HashMap<&str, &str>, key: &str) -> io::Result<T> {
    let value = fields
        .get(key)
        .ok_or_else(|| invalid(format!("config is missing '{key}'")))?;
    value
        .parse()
        .map_err(|_| invalid(format!("bad value for {key}")))
}

fn section_text<'a>(file: &Container<'a>, name: &str) -> io::Result<&'a str> {
    std::str::from_utf8(file.section(name)?)
        .map_err(|_| invalid(format!("section '{name}' is not UTF-8")))
}

/// Everything needed to rebuild a trained ContraTopic/ETM model.
#[derive(Debug)]
pub struct ModelBundle {
    pub config: TrainConfig,
    pub vocab: Vocab,
}

impl ModelBundle {
    /// The bundle file of `prefix`: `<prefix>.ckpt`.
    pub fn path(prefix: &str) -> PathBuf {
        PathBuf::from(format!("{prefix}.ckpt"))
    }

    /// The `config`, `vocab` and `params` sections of a bundle, for
    /// [`ModelBundle::save`] and for containers that embed a bundle (the
    /// streaming checkpoint).
    pub fn sections(
        config: &TrainConfig,
        vocab: &Vocab,
        params: &Params,
    ) -> [(&'static str, Vec<u8>); 3] {
        let c = config;
        let config = format!(
            "num_topics={}\nhidden={}\nencoder_depth={}\nembed_dim={}\ntau_beta={}\ndropout={}\nseed={}\n",
            c.num_topics, c.hidden, c.encoder_depth, c.embed_dim, c.tau_beta, c.dropout, c.seed
        );
        let vocab: String = vocab.words().iter().map(|w| format!("{w}\n")).collect();
        [
            ("config", config.into_bytes()),
            ("vocab", vocab.into_bytes()),
            ("params", params_to_bytes(params)),
        ]
    }

    /// Write the bundle to `<prefix>.ckpt` in one atomic, durable write,
    /// so an interrupted save leaves the previous bundle intact.
    pub fn save(
        prefix: &str,
        config: &TrainConfig,
        vocab: &Vocab,
        params: &Params,
    ) -> io::Result<()> {
        codec::write_file(
            &Self::path(prefix),
            BUNDLE_MAGIC,
            &Self::sections(config, vocab, params),
        )
    }

    /// Rebuild the ETM backbone and load the trained parameters from
    /// `<prefix>.ckpt`.
    pub fn load_model(prefix: &str) -> io::Result<(ModelBundle, EtmBackbone, Params)> {
        codec::read_file(&Self::path(prefix), BUNDLE_MAGIC, Self::from_container)
    }

    /// Rebuild a model from the [`ModelBundle::sections`] of a decoded
    /// container.
    pub fn from_container(file: &Container<'_>) -> io::Result<(ModelBundle, EtmBackbone, Params)> {
        let fields: HashMap<&str, &str> = section_text(file, "config")?
            .lines()
            .filter_map(|line| line.split_once('='))
            .collect();
        let config = TrainConfig {
            num_topics: field(&fields, "num_topics")?,
            hidden: field(&fields, "hidden")?,
            encoder_depth: field(&fields, "encoder_depth")?,
            embed_dim: field(&fields, "embed_dim")?,
            tau_beta: field(&fields, "tau_beta")?,
            dropout: field(&fields, "dropout")?,
            seed: field(&fields, "seed")?,
            ..TrainConfig::default()
        };
        let vocab = Vocab::from_words(section_text(file, "vocab")?.lines());
        let trained = params_from_bytes(file.section("params")?)?;

        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Placeholder embeddings: real values are restored from the
        // checkpoint (rho is stored like any other parameter).
        let placeholder = Tensor::ones(vocab.len(), config.embed_dim);
        let backbone = EtmBackbone::new(&mut params, vocab.len(), placeholder, &config, &mut rng);
        params.restore_from(&trained)?;
        Ok((ModelBundle { config, vocab }, backbone, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backbone;

    #[test]
    fn bundle_roundtrip_restores_beta() {
        let dir = std::env::temp_dir().join(format!("ct_bundle_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("model");
        let prefix = prefix.to_str().unwrap();

        let vocab = Vocab::from_words((0..12).map(|i| format!("w{i}")));
        let config = TrainConfig {
            num_topics: 3,
            hidden: 16,
            embed_dim: 6,
            ..TrainConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let emb = Tensor::randn(12, 6, 1.0, &mut rng);
        let mut params = Params::new();
        let backbone = EtmBackbone::new(&mut params, 12, emb, &config, &mut rng);
        let beta_before = backbone.beta_tensor(&params);

        ModelBundle::save(prefix, &config, &vocab, &params).unwrap();
        let (bundle, backbone2, params2) = ModelBundle::load_model(prefix).unwrap();
        assert_eq!(bundle.vocab.len(), 12);
        assert_eq!(bundle.config.num_topics, 3);
        assert_eq!(bundle.vocab.word(3), "w3");
        let beta_after = backbone2.beta_tensor(&params2);
        assert_eq!(beta_before, beta_after);

        std::fs::remove_dir_all(&dir).ok();
    }

    fn saved_bundle(tag: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("ct_bundle_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("model").to_str().unwrap().to_string();
        let vocab = Vocab::from_words((0..12).map(|i| format!("w{i}")));
        let config = TrainConfig {
            num_topics: 3,
            hidden: 16,
            embed_dim: 6,
            ..TrainConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let emb = Tensor::randn(12, 6, 1.0, &mut rng);
        let mut params = Params::new();
        EtmBackbone::new(&mut params, 12, emb, &config, &mut rng);
        ModelBundle::save(&prefix, &config, &vocab, &params).unwrap();
        (dir, prefix)
    }

    #[test]
    fn repeated_save_leaves_no_temp_files() {
        let (dir, prefix) = saved_bundle("atomic");
        // Save again over the existing file; the rename must replace it
        // in place and clean up every temp file, leaving the one bundle
        // file and nothing else.
        let (bundle, _, params) = ModelBundle::load_model(&prefix).unwrap();
        ModelBundle::save(&prefix, &bundle.config, &bundle.vocab, &params).unwrap();
        ModelBundle::load_model(&prefix).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, ["model.ckpt"], "bundle directory holds {files:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
