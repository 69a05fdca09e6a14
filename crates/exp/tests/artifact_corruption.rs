//! Every on-disk artifact detects its own corruption.
//!
//! Each artifact kind (a parameter checkpoint, a model bundle, a stream
//! checkpoint and a fleet β export) is saved once from a small fixture.
//! Then every single-byte flip, every truncation and one appended byte is
//! loaded back through the kind's public loader. Each must come back as a
//! typed `io::Error` (`InvalidData` or `UnexpectedEof`): never `Ok`, never
//! a panic. All four kinds share one checksummed container, so this one
//! property replaces the per-format corruption tests.

use std::io;
use std::path::{Path, PathBuf};

use contratopic::gumbel::SubsetSamplerConfig;
use contratopic::{ContraTopicConfig, OnlineContraTopic};
use ct_exp::{load_beta_checkpoint, save_beta_checkpoint};
use ct_models::testutil::{cluster_corpus, cluster_embeddings};
use ct_models::{EtmBackbone, ModelBundle, TrainConfig};
use ct_tensor::{Params, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ct_corrupt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_config() -> TrainConfig {
    TrainConfig {
        num_topics: 2,
        hidden: 8,
        epochs: 1,
        batch_size: 16,
        embed_dim: 8,
        ..TrainConfig::default()
    }
}

/// Load `file` after overwriting it with each corruption of its intact
/// bytes; every load must fail with a typed error.
fn assert_every_corruption_rejected(kind: &str, file: &Path, load: impl Fn() -> io::Result<()>) {
    let intact = std::fs::read(file).unwrap();
    load().unwrap_or_else(|e| panic!("{kind}: intact artifact failed to load: {e}"));
    let check = |what: String, bytes: &[u8]| {
        std::fs::write(file, bytes).unwrap();
        match load() {
            Ok(()) => panic!("{kind}: {what} loaded successfully"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{kind}: {what} gave untyped error {:?}: {e}",
                e.kind()
            ),
        }
    };
    for i in 0..intact.len() {
        for mask in [0x01u8, 0xff] {
            let mut bad = intact.clone();
            bad[i] ^= mask;
            check(format!("byte {i} ^ {mask:#04x}"), &bad);
        }
    }
    for cut in 0..intact.len() {
        check(format!("truncation to {cut} bytes"), &intact[..cut]);
    }
    let mut long = intact.clone();
    long.push(0);
    check("one appended byte".to_string(), &long);
    std::fs::write(file, &intact).unwrap();
    load().unwrap_or_else(|e| panic!("{kind}: restored artifact failed to load: {e}"));
}

#[test]
fn params_checkpoint_rejects_every_corruption() {
    let dir = scratch_dir("params");
    let file = dir.join("params.ckpt");
    let mut params = Params::new();
    params.add("enc.w", Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.25], 2, 2));
    params.add_frozen("rho", Tensor::from_vec(vec![9.0, 8.0, 7.0], 1, 3));
    let mut bytes = Vec::new();
    params.save(&mut bytes).unwrap();
    std::fs::write(&file, &bytes).unwrap();
    assert_every_corruption_rejected("params checkpoint", &file, || {
        Params::load(&mut std::fs::File::open(&file)?).map(drop)
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_bundle_rejects_every_corruption() {
    let dir = scratch_dir("bundle");
    let prefix = dir.join("model").to_str().unwrap().to_string();
    let corpus = cluster_corpus(2, 4, 6);
    let config = base_config();
    let mut rng = StdRng::seed_from_u64(3);
    let mut params = Params::new();
    let emb = cluster_embeddings(&corpus);
    EtmBackbone::new(&mut params, corpus.vocab_size(), emb, &config, &mut rng);
    ModelBundle::save(&prefix, &config, &corpus.vocab, &params).unwrap();
    assert_every_corruption_rejected("model bundle", &ModelBundle::path(&prefix), || {
        ModelBundle::load_model(&prefix).map(drop)
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_state_rejects_every_corruption() {
    let dir = scratch_dir("stream");
    let prefix = dir.join("stream").to_str().unwrap().to_string();
    let corpus = cluster_corpus(2, 4, 12);
    let ct = ContraTopicConfig {
        lambda: 1.0,
        sampler: SubsetSamplerConfig { v: 2, tau_g: 0.5 },
        ..Default::default()
    };
    let mut online = OnlineContraTopic::new(
        corpus.vocab_size(),
        cluster_embeddings(&corpus),
        base_config(),
        ct.clone(),
    );
    online.fit_slice(&corpus);
    online.save_state(&prefix, &corpus.vocab).unwrap();
    assert_every_corruption_rejected(
        "stream checkpoint",
        &OnlineContraTopic::state_path(&prefix),
        || OnlineContraTopic::load_state(&prefix, base_config(), ct.clone()).map(drop),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn beta_export_rejects_every_corruption() {
    let dir = scratch_dir("beta");
    let file = dir.join("trial.ckpt");
    let beta = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 2, 3);
    save_beta_checkpoint(&file, &beta).unwrap();
    assert_every_corruption_rejected("beta export", &file, || {
        load_beta_checkpoint(&file).map(drop)
    });
    std::fs::remove_dir_all(&dir).ok();
}
