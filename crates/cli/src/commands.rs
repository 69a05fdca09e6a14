//! The four CLI subcommands.

use std::fs;
use std::io::BufWriter;

use contratopic::{AblationVariant, ContraTopicConfig, SubsetSamplerConfig};
use ct_corpus::{
    generate as synth_generate, render_text_with_stopwords, train_embeddings, BowCorpus,
    DatasetPreset, NpmiMatrix, Pipeline, PipelineConfig, Scale,
};
use ct_eval::{describe_topic, diversity_at, perplexity, top_topics, TopicScores, K_TC, K_TD};
use ct_models::{parse_divergence_policy, Backbone, JsonlSink, ModelBundle, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Args;

fn parse_preset(s: &str) -> Result<DatasetPreset, String> {
    match s.to_ascii_lowercase().as_str() {
        "20ng" | "ng20" => Ok(DatasetPreset::Ng20Like),
        "yahoo" => Ok(DatasetPreset::YahooLike),
        "nytimes" | "nyt" => Ok(DatasetPreset::NyTimesLike),
        other => Err(format!("unknown preset '{other}' (20ng|yahoo|nytimes)")),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale '{other}' (tiny|quick|full)")),
    }
}

fn parse_variant(s: &str) -> Result<AblationVariant, String> {
    match s.to_ascii_lowercase().as_str() {
        "full" => Ok(AblationVariant::Full),
        "p" => Ok(AblationVariant::PositiveOnly),
        "n" => Ok(AblationVariant::NegativeOnly),
        "i" => Ok(AblationVariant::InnerProduct),
        "s" => Ok(AblationVariant::NoSampling),
        other => Err(format!("unknown variant '{other}' (full|p|n|i|s)")),
    }
}

/// Read a plain-text corpus (one document per line) through the
/// preprocessing pipeline, with optional integer labels (one per line).
fn read_corpus(path: &str, labels_path: Option<&str>) -> Result<BowCorpus, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let docs: Vec<&str> = text.lines().collect();
    let labels: Option<Vec<usize>> = match labels_path {
        None => None,
        Some(lp) => {
            let ltext = fs::read_to_string(lp).map_err(|e| format!("{lp}: {e}"))?;
            let parsed: Result<Vec<usize>, _> =
                ltext.lines().map(|l| l.trim().parse::<usize>()).collect();
            Some(parsed.map_err(|e| format!("{lp}: bad label: {e}"))?)
        }
    };
    if let Some(l) = &labels {
        if l.len() != docs.len() {
            return Err(format!("{} docs but {} labels", docs.len(), l.len()));
        }
    }
    let pipeline = Pipeline::new(PipelineConfig::default());
    let corpus = pipeline.build(&docs, labels.as_deref());
    if corpus.num_docs() == 0 {
        return Err("corpus is empty after preprocessing".into());
    }
    Ok(corpus)
}

pub fn generate(args: &Args) -> Result<(), String> {
    if let Some(f) = args
        .unknown_flags(&["preset", "scale", "out", "labels", "seed"])
        .into_iter()
        .next()
    {
        return Err(format!("unknown flag --{f} for generate"));
    }
    let preset = parse_preset(args.get_or("preset", "20ng".to_string())?.as_str())?;
    let scale = parse_scale(args.get_or("scale", "tiny".to_string())?.as_str())?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let synth = synth_generate(&preset.spec(scale), &mut rng);
    let texts = render_text_with_stopwords(&synth, 0.35, &mut rng);
    fs::write(out, texts.join("\n")).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {} documents to {out}", texts.len());
    if let Some(labels_path) = args.get("labels") {
        let labels = synth.corpus.labels.as_ref().ok_or("preset has no labels")?;
        let body: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        fs::write(labels_path, body.join("\n")).map_err(|e| format!("{labels_path}: {e}"))?;
        eprintln!("wrote labels to {labels_path}");
    }
    Ok(())
}

pub fn train(args: &Args) -> Result<(), String> {
    if let Some(f) = args
        .unknown_flags(&[
            "corpus",
            "out",
            "labels",
            "topics",
            "epochs",
            "lambda",
            "v",
            "hidden",
            "embed-dim",
            "batch",
            "lr",
            "variant",
            "seed",
            "trace",
            "divergence",
        ])
        .into_iter()
        .next()
    {
        return Err(format!("unknown flag --{f} for train"));
    }
    let corpus = read_corpus(args.require("corpus")?, args.get("labels"))?;
    let out = args.require("out")?;
    let divergence =
        parse_divergence_policy(args.get_or("divergence", "skip".to_string())?.as_str())?;
    let config = TrainConfig {
        num_topics: args.get_or("topics", 20)?,
        hidden: args.get_or("hidden", 64)?,
        embed_dim: args.get_or("embed-dim", 32)?,
        epochs: args.get_or("epochs", 15)?,
        batch_size: args.get_or("batch", 256)?,
        learning_rate: args.get_or("lr", 3e-3)?,
        seed: args.get_or("seed", 42)?,
        divergence,
        ..TrainConfig::default()
    };
    let ct_config = ContraTopicConfig {
        lambda: args.get_or("lambda", 100.0)?,
        sampler: SubsetSamplerConfig {
            v: args.get_or("v", 10)?,
            tau_g: 0.5,
        },
        variant: parse_variant(args.get_or("variant", "full".to_string())?.as_str())?,
    };
    eprintln!(
        "training ContraTopic: {} docs, vocab {}, K={}, {} epochs, lambda={}",
        corpus.num_docs(),
        corpus.vocab_size(),
        config.num_topics,
        config.epochs,
        ct_config.lambda
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let npmi = NpmiMatrix::from_corpus(&corpus);
    let embeddings = train_embeddings(&corpus, config.embed_dim, &mut rng);
    let model = match args.get("trace") {
        Some(path) => {
            let file = fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut sink = JsonlSink::new(BufWriter::new(file));
            let model = contratopic::fit_contratopic_traced(
                &corpus, embeddings, &npmi, &config, &ct_config, &mut sink,
            );
            // Surface deferred JSONL write errors before declaring success.
            sink.finish().map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote training trace to {path}");
            model
        }
        None => contratopic::fit_contratopic(&corpus, embeddings, &npmi, &config, &ct_config),
    };
    if let Err(msg) = model.inner.stats.check_diverged() {
        return Err(format!("training diverged: {msg}"));
    }
    ModelBundle::save(out, &config, &corpus.vocab, &model.inner.params)
        .map_err(|e| format!("saving {out}: {e}"))?;
    eprintln!("saved {out}.ckpt");
    Ok(())
}

pub fn topics(args: &Args) -> Result<(), String> {
    if let Some(f) = args
        .unknown_flags(&["model", "corpus", "top"])
        .into_iter()
        .next()
    {
        return Err(format!("unknown flag --{f} for topics"));
    }
    let prefix = args.require("model")?;
    let top: usize = args.get_or("top", 10)?;
    let (bundle, backbone, params) =
        ModelBundle::load_model(prefix).map_err(|e| format!("{prefix}: {e}"))?;
    let beta = backbone.beta_tensor(&params);
    if let Some(cpath) = args.get("corpus") {
        {
            // Rank topics by NPMI coherence against the given corpus.
            let corpus = read_corpus(cpath, None)?;
            if corpus.vocab_size() != bundle.vocab.len() {
                eprintln!(
                    "note: corpus vocabulary ({}) differs from the model's ({}); \
                     ranking by model vocabulary ids",
                    corpus.vocab_size(),
                    bundle.vocab.len()
                );
            }
            let npmi = NpmiMatrix::from_corpus(&corpus);
            if npmi.vocab_size() == bundle.vocab.len() {
                for t in top_topics(&beta, &npmi, &bundle.vocab, beta.rows(), top) {
                    println!("[{:+.3}] {}", t.npmi, t.top_words.join(" "));
                    println!("        {}", describe_topic(&t));
                }
                return Ok(());
            }
        }
    }
    for t in 0..beta.rows() {
        let words: Vec<&str> = beta
            .top_k_row(t, top)
            .into_iter()
            .map(|w| bundle.vocab.word(w as u32))
            .collect();
        println!("topic {:>3}: {}", t + 1, words.join(" "));
    }
    Ok(())
}

pub fn eval(args: &Args) -> Result<(), String> {
    if let Some(f) = args.unknown_flags(&["model", "corpus"]).into_iter().next() {
        return Err(format!("unknown flag --{f} for eval"));
    }
    let prefix = args.require("model")?;
    let (bundle, backbone, params) =
        ModelBundle::load_model(prefix).map_err(|e| format!("{prefix}: {e}"))?;
    let corpus = read_corpus(args.require("corpus")?, None)?;
    if corpus.vocab_size() != bundle.vocab.len() {
        return Err(format!(
            "corpus vocabulary ({}) does not match the model's ({}): evaluate on \
             text preprocessed identically to training",
            corpus.vocab_size(),
            bundle.vocab.len()
        ));
    }
    let npmi = NpmiMatrix::from_corpus(&corpus);
    let beta = backbone.beta_tensor(&params);
    let scores = TopicScores::compute(&beta, &npmi, K_TC);
    let theta = ct_models::common::infer_theta_blocked(&corpus, backbone.num_topics(), |x| {
        backbone.infer_theta_batch(&params, x)
    });
    println!("topics:              {}", backbone.num_topics());
    println!("coherence @10%:      {:+.4}", scores.coherence_at(0.1));
    println!("coherence @100%:     {:+.4}", scores.coherence_at(1.0));
    println!(
        "diversity @100%:     {:.4}",
        diversity_at(&beta, &scores, 1.0, K_TD)
    );
    println!(
        "perplexity:          {:.2}",
        perplexity(&theta, &beta, &corpus)
    );
    Ok(())
}

/// Rebuild NPMI statistics for `path` over the *model's* vocabulary by
/// encoding each line against it, so the matrix aligns with the served
/// snapshot even when corpus-side pipeline filtering would have produced
/// a different vocabulary.
#[cfg(unix)]
fn npmi_over_model_vocab(path: &str, vocab: &ct_corpus::Vocab) -> Result<NpmiMatrix, String> {
    let encoder = ct_serve::DocEncoder::new(vocab.clone());
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut corpus = BowCorpus::new(vocab.clone());
    for line in text.lines() {
        if let Ok(doc) = encoder.encode(line) {
            corpus.docs.push(doc);
        }
    }
    if corpus.num_docs() == 0 {
        return Err(format!("{path}: no document overlaps the model vocabulary"));
    }
    Ok(NpmiMatrix::from_corpus(&corpus))
}

/// `contratopic serve`: load one or more bundles into a model registry
/// and answer doc→topic queries over a Unix socket and/or TCP through
/// the batched `ct-serve` engine.
#[cfg(target_os = "linux")]
pub fn serve(args: &Args) -> Result<(), String> {
    use ct_serve::{
        ModelRegistry, ModelSnapshot, ProtocolLimits, RegistryConfig, Router, ServeConfig,
        SharedSink, TcpServer, UnixServer,
    };
    use std::io::LineWriter;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    if let Some(f) = args
        .unknown_flags(&[
            "model",
            "models",
            "socket",
            "tcp",
            "corpus",
            "top",
            "max-batch",
            "max-wait-ms",
            "queue",
            "cache",
            "threads",
            "trace",
            "max-inflight",
        ])
        .into_iter()
        .next()
    {
        return Err(format!("unknown flag --{f} for serve"));
    }
    let top: usize = args.get_or("top", 10)?;
    let max_batch: usize = args.get_or("max-batch", 32)?;
    let max_wait_ms: u64 = args.get_or("max-wait-ms", 2)?;
    let queue: usize = args.get_or("queue", 256)?;
    let cache: usize = args.get_or("cache", 1024)?;
    let threads: usize = args.get_or("threads", 0)?;
    let max_inflight: usize = args.get_or("max-inflight", 256)?;

    // One `--model PREFIX` (registered as "default") or a roster of
    // `--models name=prefix,name=prefix`; clients pick a model with an
    // `@name ` prefix on the request line.
    let roster: Vec<(String, String)> = match (args.get("model"), args.get("models")) {
        (Some(prefix), None) => vec![("default".to_string(), prefix.to_string())],
        (None, Some(spec)) => spec
            .split(',')
            .map(|pair| {
                pair.split_once('=')
                    .map(|(n, p)| (n.trim().to_string(), p.trim().to_string()))
                    .ok_or_else(|| format!("--models: '{pair}' is not name=prefix"))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("serve needs exactly one of --model or --models".into()),
    };

    let trace: Option<SharedSink> = match args.get("trace") {
        None => None,
        Some(path) => {
            let file = fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("writing serve trace to {path}");
            Some(Arc::new(Mutex::new(JsonlSink::new(LineWriter::new(file)))))
        }
    };
    let registry: Arc<ModelRegistry> = Arc::new(ModelRegistry::new(RegistryConfig {
        max_inflight,
        serve: ServeConfig {
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
            queue_capacity: queue,
            cache_capacity: cache,
            infer_threads: (threads > 0).then_some(threads),
            top_n: top,
        },
        trace,
    }));
    for (name, prefix) in &roster {
        let mut snapshot =
            ModelSnapshot::load(prefix, top).map_err(|e| format!("{prefix}: {e}"))?;
        if let Some(cpath) = args.get("corpus") {
            let npmi = npmi_over_model_vocab(cpath, snapshot.vocab())?;
            snapshot = snapshot.with_npmi(&npmi).map_err(|e| e.to_string())?;
            eprintln!("{name}: nearest-topic annotations computed from {cpath}");
        }
        let topics = snapshot.num_topics();
        registry
            .register_snapshot(name, snapshot)
            .map_err(|e| format!("{name}: {e}"))?;
        eprintln!("registered model '{name}' ({topics} topics) from {prefix}");
    }

    let limits = ProtocolLimits::default();
    let unix_server = match args.get("socket") {
        Some(socket) => {
            let server = UnixServer::bind_router(
                socket,
                Arc::clone(&registry) as Arc<dyn Router>,
                limits.clone(),
            )
            .map_err(|e| format!("{socket}: {e}"))?;
            eprintln!(
                "serving {} model(s) on unix socket {socket} \
                 (max batch {max_batch}, max wait {max_wait_ms}ms)",
                roster.len()
            );
            Some(server)
        }
        None => None,
    };
    let tcp_server = match args.get("tcp") {
        Some(addr) => {
            let server = TcpServer::bind(addr, Arc::clone(&registry) as Arc<dyn Router>, limits)
                .map_err(|e| format!("{addr}: {e}"))?;
            eprintln!(
                "serving {} model(s) on tcp {} \
                 (max batch {max_batch}, max wait {max_wait_ms}ms)",
                roster.len(),
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };

    // Foreground until a shutdown signal or listener error on each
    // listener; with both up, the Unix side joins on a helper thread.
    match (unix_server, tcp_server) {
        (Some(unix), Some(tcp)) => {
            let helper = std::thread::spawn(move || unix.join());
            tcp.join();
            helper
                .join()
                .map_err(|_| "unix join panicked".to_string())?;
        }
        (Some(unix), None) => {
            unix.join();
        }
        (None, Some(tcp)) => {
            tcp.join();
        }
        (None, None) => return Err("serve needs --socket PATH and/or --tcp HOST:PORT".into()),
    }
    Ok(())
}

/// `contratopic query`: send documents to a running `serve` instance and
/// print one JSON response per document.
#[cfg(unix)]
pub fn query(args: &Args) -> Result<(), String> {
    if let Some(f) = args
        .unknown_flags(&["socket", "tcp", "model", "text", "file"])
        .into_iter()
        .next()
    {
        return Err(format!("unknown flag --{f} for query"));
    }
    let mut texts: Vec<String> = match (args.get("text"), args.get("file")) {
        (Some(t), None) => vec![t.to_string()],
        (None, Some(path)) => fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .map(str::to_string)
            .collect(),
        _ => return Err("query needs exactly one of --text or --file".into()),
    };
    // `--model NAME` routes to a named registry entry via the wire
    // protocol's `@name ` prefix (default model otherwise).
    if let Some(model) = args.get("model") {
        for t in &mut texts {
            *t = format!("@{model} {t}");
        }
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let responses = match (args.get("socket"), args.get("tcp")) {
        (Some(socket), None) => {
            ct_serve::query_unix(socket, &refs).map_err(|e| format!("{socket}: {e}"))?
        }
        (None, Some(addr)) => {
            ct_serve::query_tcp(addr, &refs).map_err(|e| format!("{addr}: {e}"))?
        }
        _ => return Err("query needs exactly one of --socket or --tcp".into()),
    };
    for line in responses {
        println!("{line}");
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn serve(_args: &Args) -> Result<(), String> {
    Err("serve requires Linux (the servers run on an epoll reactor); query works elsewhere".into())
}

#[cfg(not(unix))]
pub fn query(_args: &Args) -> Result<(), String> {
    Err("query is only wired up on unix targets in this build".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsers_accept_known_values() {
        assert_eq!(parse_preset("20NG").unwrap(), DatasetPreset::Ng20Like);
        assert_eq!(parse_scale("QUICK").unwrap(), Scale::Quick);
        assert_eq!(parse_variant("s").unwrap(), AblationVariant::NoSampling);
        assert!(parse_preset("bogus").is_err());
        assert!(parse_scale("huge").is_err());
        assert!(parse_variant("x").is_err());
    }

    #[test]
    fn cli_end_to_end_generate_train_topics_eval() {
        let dir = std::env::temp_dir().join(format!("ct_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let model_prefix = dir.join("model");
        let cp = corpus_path.to_str().unwrap().to_string();
        let mp = model_prefix.to_str().unwrap().to_string();

        generate(
            &Args::parse([
                "generate", "--preset", "20ng", "--scale", "tiny", "--out", &cp,
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(corpus_path.exists());

        let trace_path = dir.join("trace.jsonl");
        let tp = trace_path.to_str().unwrap().to_string();
        train(
            &Args::parse([
                "train",
                "--corpus",
                &cp,
                "--out",
                &mp,
                "--topics",
                "6",
                "--epochs",
                "2",
                "--hidden",
                "24",
                "--embed-dim",
                "12",
                "--lambda",
                "10",
                "--trace",
                &tp,
                "--divergence",
                "skip",
            ])
            .unwrap(),
        )
        .unwrap();
        // The bundle is one file.
        assert!(dir.join("model.ckpt").exists());
        assert!(!dir.join("model.meta").exists());
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let epoch_lines: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"event\":\"epoch\""))
            .collect();
        assert_eq!(epoch_lines.len(), 2, "one JSONL record per epoch:\n{trace}");
        assert!(trace.contains("\"masks_built\""), "{trace}");

        topics(&Args::parse(["topics", "--model", &mp, "--top", "5"]).unwrap()).unwrap();
        eval(&Args::parse(["eval", "--model", &mp, "--corpus", &cp]).unwrap()).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }
}
