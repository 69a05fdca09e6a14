//! Synthetic corpus generation.
//!
//! Real 20NG/Yahoo/NYTimes corpora are not available in this environment,
//! so experiments run on corpora drawn from an LDA-style generative process
//! with *planted* semantic topics: each ground-truth topic concentrates most
//! of its mass on a themed core-word cluster, mixed with a Zipfian
//! background over the whole vocabulary. Because the planted structure is
//! known, interpretability metrics (NPMI coherence, diversity, clustering
//! purity against the planted labels) measure exactly what they measure on
//! real data: whether a model recovers coherent, distinct word clusters.

use ct_tensor::Tensor;
use rand::Rng;

use crate::bow::{BowCorpus, SparseDoc};
use crate::stats::{dirichlet_sample, poisson_sample, zipf_weights, CatSampler};
use crate::vocab::Vocab;

/// Hand-written themed word pools: the first ground-truth topics draw their
/// core words from these, so case-study output reads like the paper's
/// Tables IV–VI.
pub const THEMES: &[(&str, [&str; 20])] = &[
    (
        "space",
        [
            "space",
            "nasa",
            "orbit",
            "launch",
            "shuttle",
            "moon",
            "lunar",
            "satellite",
            "earth",
            "astronaut",
            "rocket",
            "mission",
            "mars",
            "telescope",
            "solar",
            "gravity",
            "spacecraft",
            "cosmos",
            "astronomy",
            "payload",
        ],
    ),
    (
        "medicine",
        [
            "patients",
            "health",
            "medical",
            "disease",
            "cancer",
            "drug",
            "treatment",
            "doctor",
            "symptoms",
            "clinical",
            "infection",
            "therapy",
            "diagnosis",
            "blood",
            "surgery",
            "vaccine",
            "chronic",
            "medicine",
            "hospital",
            "dose",
        ],
    ),
    (
        "religion",
        [
            "god",
            "jesus",
            "church",
            "christian",
            "bible",
            "faith",
            "christ",
            "holy",
            "prayer",
            "scripture",
            "religion",
            "belief",
            "worship",
            "gospel",
            "sin",
            "heaven",
            "soul",
            "divine",
            "theology",
            "preacher",
        ],
    ),
    (
        "sports",
        [
            "game",
            "team",
            "season",
            "players",
            "league",
            "hockey",
            "baseball",
            "score",
            "coach",
            "playoff",
            "goal",
            "win",
            "defense",
            "offense",
            "tournament",
            "champion",
            "stadium",
            "referee",
            "rookie",
            "roster",
        ],
    ),
    (
        "encryption",
        [
            "key",
            "encryption",
            "chip",
            "clipper",
            "keys",
            "security",
            "algorithm",
            "privacy",
            "cipher",
            "escrow",
            "nsa",
            "wiretap",
            "cryptography",
            "decrypt",
            "secret",
            "scheme",
            "backdoor",
            "protocol",
            "secure",
            "hash",
        ],
    ),
    (
        "mideast",
        [
            "israel",
            "israeli",
            "arab",
            "jewish",
            "jews",
            "palestinian",
            "peace",
            "land",
            "war",
            "territory",
            "conflict",
            "treaty",
            "border",
            "refugees",
            "diplomacy",
            "militia",
            "occupation",
            "settlement",
            "negotiation",
            "ceasefire",
        ],
    ),
    (
        "hardware",
        [
            "drive",
            "scsi",
            "disk",
            "controller",
            "bus",
            "card",
            "memory",
            "ram",
            "processor",
            "motherboard",
            "cpu",
            "hardware",
            "floppy",
            "cache",
            "chipset",
            "firmware",
            "interface",
            "port",
            "jumper",
            "megabyte",
        ],
    ),
    (
        "graphics",
        [
            "image",
            "graphics",
            "jpeg",
            "gif",
            "color",
            "format",
            "images",
            "pixel",
            "rendering",
            "animation",
            "bitmap",
            "resolution",
            "shader",
            "polygon",
            "texture",
            "palette",
            "viewer",
            "conversion",
            "compression",
            "vector",
        ],
    ),
    (
        "autos",
        [
            "car",
            "engine",
            "cars",
            "dealer",
            "miles",
            "tires",
            "brake",
            "transmission",
            "fuel",
            "driver",
            "highway",
            "vehicle",
            "honda",
            "mileage",
            "clutch",
            "sedan",
            "torque",
            "exhaust",
            "garage",
            "warranty",
        ],
    ),
    (
        "cooking",
        [
            "cup",
            "sugar",
            "butter",
            "flour",
            "bake",
            "oven",
            "sauce",
            "garlic",
            "pepper",
            "recipe",
            "cream",
            "salt",
            "dough",
            "cheese",
            "onion",
            "simmer",
            "whisk",
            "tablespoon",
            "teaspoon",
            "marinade",
        ],
    ),
    (
        "finance",
        [
            "market",
            "stock",
            "price",
            "trading",
            "economy",
            "bank",
            "interest",
            "investment",
            "profit",
            "shares",
            "fund",
            "inflation",
            "earnings",
            "revenue",
            "dividend",
            "broker",
            "portfolio",
            "asset",
            "bond",
            "currency",
        ],
    ),
    (
        "music",
        [
            "album",
            "band",
            "guitar",
            "song",
            "music",
            "concert",
            "drums",
            "vocals",
            "melody",
            "lyrics",
            "chord",
            "studio",
            "tour",
            "record",
            "bass",
            "rhythm",
            "singer",
            "acoustic",
            "orchestra",
            "tempo",
        ],
    ),
    (
        "politics",
        [
            "government",
            "president",
            "congress",
            "election",
            "vote",
            "policy",
            "senate",
            "campaign",
            "democrat",
            "republican",
            "legislation",
            "lobby",
            "governor",
            "debate",
            "ballot",
            "candidate",
            "reform",
            "mandate",
            "veto",
            "caucus",
        ],
    ),
    (
        "wrestling",
        [
            "wrestling",
            "wrestler",
            "ring",
            "match",
            "championship",
            "wwe",
            "smackdown",
            "cena",
            "batista",
            "orton",
            "heel",
            "babyface",
            "promo",
            "tagteam",
            "suplex",
            "pin",
            "submission",
            "brand",
            "feud",
            "rumble",
        ],
    ),
    (
        "aviation",
        [
            "aircraft",
            "pilot",
            "flight",
            "airline",
            "runway",
            "cockpit",
            "altitude",
            "boeing",
            "airport",
            "turbine",
            "fuselage",
            "landing",
            "takeoff",
            "hangar",
            "airspace",
            "propeller",
            "aviation",
            "cargo",
            "crew",
            "radar",
        ],
    ),
    (
        "law",
        [
            "court",
            "judge",
            "lawyer",
            "trial",
            "jury",
            "verdict",
            "appeal",
            "plaintiff",
            "defendant",
            "statute",
            "attorney",
            "testimony",
            "evidence",
            "ruling",
            "lawsuit",
            "prosecutor",
            "bail",
            "felony",
            "contract",
            "litigation",
        ],
    ),
    (
        "gardening",
        [
            "garden",
            "soil",
            "seeds",
            "plants",
            "compost",
            "bloom",
            "pruning",
            "roots",
            "mulch",
            "watering",
            "fertilizer",
            "perennial",
            "greenhouse",
            "weeds",
            "harvest",
            "shrub",
            "botanical",
            "flower",
            "shade",
            "seedling",
        ],
    ),
    (
        "photography",
        [
            "camera",
            "lens",
            "aperture",
            "shutter",
            "exposure",
            "focus",
            "tripod",
            "photograph",
            "iso",
            "flash",
            "portrait",
            "landscape",
            "zoom",
            "filter",
            "darkroom",
            "negative",
            "framing",
            "lighting",
            "composition",
            "print",
        ],
    ),
    (
        "chess",
        [
            "chess",
            "pawn",
            "knight",
            "bishop",
            "rook",
            "queen",
            "checkmate",
            "opening",
            "endgame",
            "gambit",
            "castling",
            "grandmaster",
            "tactics",
            "sacrifice",
            "blunder",
            "tournamentplay",
            "defence",
            "attackline",
            "boardgame",
            "notation",
        ],
    ),
    (
        "weather",
        [
            "storm",
            "rain",
            "temperature",
            "forecast",
            "hurricane",
            "snow",
            "wind",
            "humidity",
            "thunder",
            "climate",
            "drought",
            "flood",
            "frost",
            "tornado",
            "rainfall",
            "barometer",
            "heatwave",
            "blizzard",
            "monsoon",
            "fog",
        ],
    ),
];

/// Number of core words each planted topic owns.
pub const CORE_SIZE: usize = 20;

/// Parameters of the generative process.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Total vocabulary size (must be >= `num_topics * CORE_SIZE`).
    pub vocab_size: usize,
    /// Number of planted ground-truth topics.
    pub num_topics: usize,
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Mean document length (Poisson).
    pub avg_doc_len: f64,
    /// Symmetric Dirichlet concentration for document-topic mixtures.
    pub doc_topic_alpha: f64,
    /// Fraction of each topic's mass on its core-word cluster.
    pub core_mass: f64,
    /// Zipf exponent for within-cluster and background word frequencies.
    pub zipf_s: f64,
    /// Whether generated documents carry labels (dominant planted topic).
    pub with_labels: bool,
    /// Number of label classes. Planted topics are grouped contiguously
    /// into this many classes (a document's label is its dominant topic's
    /// group). `0` means one label per planted topic. Real corpora have
    /// far more latent co-occurrence clusters than annotated classes —
    /// 20NG has 20 labels but hundreds of fine themes — and several
    /// baselines rely on that structure, so presets plant more topics
    /// than label classes.
    pub num_labels: usize,
}

impl Default for SynthSpec {
    fn default() -> Self {
        Self {
            vocab_size: 1200,
            num_topics: 20,
            num_docs: 2500,
            avg_doc_len: 60.0,
            doc_topic_alpha: 0.08,
            core_mass: 0.78,
            zipf_s: 1.05,
            with_labels: true,
            num_labels: 0,
        }
    }
}

/// A generated corpus together with its planted ground truth.
#[derive(Clone, Debug)]
pub struct SynthCorpus {
    /// The sampled documents (with planted labels).
    pub corpus: BowCorpus,
    /// Planted topic-word distributions, `(num_topics, vocab_size)`.
    pub true_beta: Tensor,
    /// Human-readable names for the planted topics.
    pub topic_names: Vec<String>,
}

/// Build the vocabulary for `spec`: themed core words first (topic-major),
/// then synthetic background terms.
fn build_vocab(spec: &SynthSpec) -> (Vocab, Vec<String>) {
    assert!(
        spec.vocab_size >= spec.num_topics * CORE_SIZE,
        "vocab_size {} too small for {} topics x {} core words",
        spec.vocab_size,
        spec.num_topics,
        CORE_SIZE
    );
    let mut words: Vec<String> = Vec::with_capacity(spec.vocab_size);
    let mut names = Vec::with_capacity(spec.num_topics);
    for k in 0..spec.num_topics {
        let theme_idx = k % THEMES.len();
        let round = k / THEMES.len();
        let (name, pool) = THEMES[theme_idx];
        if round == 0 {
            names.push(name.to_string());
            words.extend(pool.iter().map(|w| w.to_string()));
        } else {
            // Re-use themes for extra topics with a distinct word variant so
            // clusters stay disjoint.
            names.push(format!("{name}-{round}"));
            words.extend(pool.iter().map(|w| format!("{w}{round}")));
        }
    }
    for i in words.len()..spec.vocab_size {
        words.push(format!("term{i:05}"));
    }
    (Vocab::from_words(words), names)
}

/// Construct the planted topic-word matrix.
fn build_true_beta(spec: &SynthSpec) -> Tensor {
    let v = spec.vocab_size;
    let k = spec.num_topics;
    let n_core = k * CORE_SIZE;
    assert!(v > n_core, "need background terms beyond the core clusters");
    // Shared background distribution: Zipf over the dedicated background
    // terms (90% of background mass) plus a small uniform floor over all
    // core words (10%) so cross-topic co-occurrence counts are non-trivial
    // and NPMI is defined everywhere.
    let bg = zipf_weights(v - n_core, spec.zipf_s);
    let bg_sum: f64 = bg.iter().sum();
    let core_floor = 0.1 / n_core as f64;
    let core_w = zipf_weights(CORE_SIZE, 0.8);
    let core_sum: f64 = core_w.iter().sum();

    let mut beta = Tensor::zeros(k, v);
    for t in 0..k {
        let row = beta.row_mut(t);
        let bg_mass = 1.0 - spec.core_mass;
        for slot in row.iter_mut().take(n_core) {
            *slot = (bg_mass * core_floor) as f32;
        }
        for (i, &w) in bg.iter().enumerate() {
            row[n_core + i] = (bg_mass * 0.9 * w / bg_sum) as f32;
        }
        let start = t * CORE_SIZE;
        for (j, &w) in core_w.iter().enumerate() {
            row[start + j] += (spec.core_mass * w / core_sum) as f32;
        }
    }
    beta.normalize_rows_l1();
    beta
}

/// The planted vocabulary for `spec` (themed core words topic-major,
/// background terms after), plus topic names — shared with the drifting
/// stream generator ([`crate::stream`]), which needs the vocabulary and
/// planted beta *without* materializing any documents.
pub fn stream_vocab(spec: &SynthSpec) -> (Vocab, Vec<String>) {
    build_vocab(spec)
}

/// The planted topic-word matrix for `spec` (see [`stream_vocab`]).
pub fn stream_true_beta(spec: &SynthSpec) -> Tensor {
    build_true_beta(spec)
}

/// Generate a corpus from `spec` using `rng`.
pub fn generate<R: Rng>(spec: &SynthSpec, rng: &mut R) -> SynthCorpus {
    let (vocab, topic_names) = build_vocab(spec);
    let true_beta = build_true_beta(spec);
    let samplers: Vec<CatSampler> = (0..spec.num_topics)
        .map(|t| {
            CatSampler::new(
                &true_beta
                    .row(t)
                    .iter()
                    .map(|&x| x as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let mut corpus = BowCorpus::new(vocab);
    let mut labels = Vec::with_capacity(spec.num_docs);
    let mut tokens: Vec<u32> = Vec::new();
    while corpus.docs.len() < spec.num_docs {
        let theta = dirichlet_sample(spec.doc_topic_alpha, spec.num_topics, rng);
        let len = poisson_sample(spec.avg_doc_len, rng).max(3);
        let topic_sampler = CatSampler::new(&theta);
        tokens.clear();
        for _ in 0..len {
            let z = topic_sampler.sample(rng);
            tokens.push(samplers[z].sample(rng) as u32);
        }
        corpus.docs.push(SparseDoc::from_tokens(&tokens));
        // Label = dominant planted topic, coarsened into label groups.
        let dominant = theta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let n_labels = if spec.num_labels == 0 {
            spec.num_topics
        } else {
            spec.num_labels.min(spec.num_topics)
        };
        labels.push(dominant * n_labels / spec.num_topics);
    }
    if spec.with_labels {
        corpus.labels = Some(labels);
    }
    SynthCorpus {
        corpus,
        true_beta,
        topic_names,
    }
}

/// Render a generated corpus back to raw text with injected stopwords, for
/// exercising the preprocessing [`crate::pipeline::Pipeline`] end-to-end.
pub fn render_text_with_stopwords<R: Rng>(
    synth: &SynthCorpus,
    stopword_rate: f64,
    rng: &mut R,
) -> Vec<String> {
    let fillers = ["the", "and", "of", "to", "in", "that", "is", "for"];
    synth
        .corpus
        .docs
        .iter()
        .map(|doc| {
            let mut out = String::new();
            for (id, c) in doc.iter() {
                for _ in 0..(c as usize) {
                    if rng.gen::<f64>() < stopword_rate {
                        out.push_str(fillers[rng.gen_range(0..fillers.len())]);
                        out.push(' ');
                    }
                    out.push_str(synth.corpus.vocab.word(id));
                    out.push(' ');
                }
            }
            out
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Dataset presets calibrated to the paper's Table I (relative statistics,
// laptop scale)
// ---------------------------------------------------------------------------

/// The three evaluation datasets of the paper, as synthetic presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// 20 Newsgroups-like: smallest corpus, labelled, medium docs.
    Ng20Like,
    /// Yahoo Answers-like: more docs, shorter docs, labelled.
    YahooLike,
    /// NYTimes-like: biggest vocabulary and docs, unlabelled.
    NyTimesLike,
}

/// Experiment scale knob (`CT_SCALE` in the bench harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Smoke-test scale for unit/integration tests.
    Tiny,
    /// Default scale: minutes per experiment on one core.
    Quick,
    /// Closer to paper proportions; slow.
    Full,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Quick, Scale::Full];

    /// Stable identifier, as written on the command line, in `CT_SCALE`
    /// and in experiment specs: `tiny`, `quick` or `full`.
    pub fn id(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Inverse of [`Scale::id`], ignoring ASCII case. An unknown id is an
    /// error that lists the accepted ones.
    pub fn from_id(id: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|s| s.id().eq_ignore_ascii_case(id))
            .ok_or_else(|| format!("unknown scale '{id}' (tiny|quick|full)"))
    }

    /// Read from the `CT_SCALE` environment variable through
    /// [`Scale::from_id`]; `Quick` when the variable is unset.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("CT_SCALE") {
            Ok(id) => Self::from_id(&id).map_err(|e| format!("CT_SCALE: {e}")),
            Err(_) => Ok(Scale::Quick),
        }
    }

    fn doc_factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.12,
            Scale::Quick => 1.0,
            Scale::Full => 2.5,
        }
    }
}

impl DatasetPreset {
    /// Every preset, in the paper's presentation order.
    pub const ALL: [DatasetPreset; 3] = [
        DatasetPreset::Ng20Like,
        DatasetPreset::YahooLike,
        DatasetPreset::NyTimesLike,
    ];

    /// Human-readable dataset name (e.g. `"20NG-like"`).
    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::Ng20Like => "20NG-like",
            DatasetPreset::YahooLike => "Yahoo-like",
            DatasetPreset::NyTimesLike => "NYTimes-like",
        }
    }

    /// Generator spec at the given scale.
    ///
    /// More topics are planted than the label classes (and than the model
    /// `K` used by the experiment harness): real corpora contain far more
    /// fine-grained co-occurrence clusters than annotated categories, and
    /// the regularizer's tail-topic behaviour depends on free clusters
    /// existing.
    pub fn spec(self, scale: Scale) -> SynthSpec {
        let f = scale.doc_factor();
        // core_mass / alpha make the corpora *hard*: weak clusters and
        // mixed documents, like real text. On easy corpora every model
        // saturates the planted-NPMI ceiling and the paper's comparisons
        // degenerate.
        let (
            vocab_size,
            num_topics,
            num_labels,
            num_docs,
            avg_doc_len,
            with_labels,
            core_mass,
            alpha,
        ) = match self {
            DatasetPreset::Ng20Like => (1200, 48, 20, 2500, 60.0, true, 0.58, 0.15),
            DatasetPreset::YahooLike => (1500, 50, 25, 4000, 46.0, true, 0.56, 0.16),
            DatasetPreset::NyTimesLike => (2400, 60, 0, 4000, 80.0, false, 0.60, 0.13),
        };
        let num_docs = ((num_docs as f64) * f).round() as usize;
        let (vocab_size, num_topics, num_labels, core_mass, alpha) = match scale {
            Scale::Tiny => {
                // Tiny is for smoke tests and runnable examples: fewer,
                // cleaner clusters so demos finish in seconds with legible
                // topics. The headline comparisons use quick/full.
                let topics = num_topics / 3;
                (topics * CORE_SIZE + 100, topics, num_labels / 2, 0.72, 0.10)
            }
            _ => (vocab_size, num_topics, num_labels, core_mass, alpha),
        };
        SynthSpec {
            vocab_size,
            num_topics,
            num_labels,
            num_docs: num_docs.max(60),
            avg_doc_len: if scale == Scale::Tiny {
                avg_doc_len * 0.6
            } else {
                avg_doc_len
            },
            with_labels,
            core_mass,
            doc_topic_alpha: alpha,
            ..Default::default()
        }
    }

    /// Train fraction matching the paper (6:4 for Yahoo/NYTimes; 20NG uses
    /// its original split, which is also roughly 60/40).
    pub fn train_frac(self) -> f64 {
        0.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scale_ids_roundtrip_and_unknown_ids_fail() {
        for scale in Scale::ALL {
            assert_eq!(Scale::from_id(scale.id()), Ok(scale));
        }
        assert_eq!(Scale::from_id("TINY"), Ok(Scale::Tiny));
        // An unknown id is an error naming the accepted ones, never a
        // silent fallback to `Quick`.
        let err = Scale::from_id("huge").unwrap_err();
        assert!(err.contains("tiny|quick|full"), "{err}");
        assert!(Scale::from_id("").is_err());
    }

    fn tiny_spec() -> SynthSpec {
        SynthSpec {
            vocab_size: 4 * CORE_SIZE + 40,
            num_topics: 4,
            num_docs: 120,
            avg_doc_len: 30.0,
            ..Default::default()
        }
    }

    #[test]
    fn generate_produces_requested_docs_and_labels() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = generate(&tiny_spec(), &mut rng);
        assert_eq!(s.corpus.num_docs(), 120);
        assert_eq!(s.corpus.vocab_size(), 4 * CORE_SIZE + 40);
        assert_eq!(s.true_beta.shape(), (4, 4 * CORE_SIZE + 40));
        let labels = s.corpus.labels.as_ref().unwrap();
        assert!(labels.iter().all(|&l| l < 4));
        assert_eq!(s.topic_names.len(), 4);
    }

    #[test]
    fn true_beta_rows_are_distributions_concentrated_on_cores() {
        let spec = tiny_spec();
        let beta = build_true_beta(&spec);
        for t in 0..4 {
            let row = beta.row(t);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            let core: f32 = row[t * CORE_SIZE..(t + 1) * CORE_SIZE].iter().sum();
            assert!(
                (core - spec.core_mass as f32).abs() < 0.05,
                "topic {t} core mass {core}"
            );
        }
    }

    #[test]
    fn themed_words_appear_in_vocab() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = generate(&tiny_spec(), &mut rng);
        assert!(s.corpus.vocab.contains("nasa"));
        assert!(s.corpus.vocab.contains("patients"));
        assert_eq!(s.topic_names[0], "space");
    }

    #[test]
    fn topic_reuse_gets_variant_words() {
        let n_themes = THEMES.len();
        let spec = SynthSpec {
            vocab_size: (n_themes + 2) * CORE_SIZE + 40,
            num_topics: n_themes + 2, // wraps past the theme list
            num_docs: 10,
            avg_doc_len: 20.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let s = generate(&spec, &mut rng);
        assert_eq!(s.topic_names[n_themes], "space-1");
        assert!(s.corpus.vocab.contains("nasa1"));
    }

    #[test]
    fn labels_correlate_with_core_words() {
        // Documents labelled with topic t should use topic t's core words
        // far more than other documents do.
        let mut rng = StdRng::seed_from_u64(4);
        let spec = SynthSpec {
            doc_topic_alpha: 0.05,
            ..tiny_spec()
        };
        let s = generate(&spec, &mut rng);
        let labels = s.corpus.labels.as_ref().unwrap();
        let mut hit = 0.0f64;
        let mut total = 0.0f64;
        for (doc, &l) in s.corpus.docs.iter().zip(labels) {
            let lo = (l * CORE_SIZE) as u32;
            let hi = lo + CORE_SIZE as u32;
            for (id, c) in doc.iter() {
                if id >= lo && id < hi {
                    hit += c as f64;
                }
                total += c as f64;
            }
        }
        assert!(hit / total > 0.4, "core-word fraction {}", hit / total);
    }

    #[test]
    fn label_groups_coarsen_topics() {
        let spec = SynthSpec {
            vocab_size: 8 * CORE_SIZE + 60,
            num_topics: 8,
            num_labels: 4,
            num_docs: 200,
            avg_doc_len: 25.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(17);
        let s = generate(&spec, &mut rng);
        let labels = s.corpus.labels.as_ref().unwrap();
        assert!(labels.iter().all(|&l| l < 4));
        // All four groups should actually occur.
        let distinct: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn presets_plant_more_topics_than_labels() {
        for preset in DatasetPreset::ALL {
            let spec = preset.spec(Scale::Quick);
            if spec.with_labels {
                assert!(spec.num_labels > 0 && spec.num_labels < spec.num_topics);
            }
        }
    }

    #[test]
    fn presets_scale_docs() {
        let q = DatasetPreset::Ng20Like.spec(Scale::Quick);
        let t = DatasetPreset::Ng20Like.spec(Scale::Tiny);
        assert!(t.num_docs < q.num_docs);
        assert!(t.vocab_size < q.vocab_size);
        assert!(!DatasetPreset::NyTimesLike.spec(Scale::Quick).with_labels);
    }

    #[test]
    fn rendered_text_roundtrips_through_pipeline() {
        use crate::pipeline::{Pipeline, PipelineConfig};
        let mut rng = StdRng::seed_from_u64(5);
        let s = generate(&tiny_spec(), &mut rng);
        let texts = render_text_with_stopwords(&s, 0.3, &mut rng);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let p = Pipeline::new(PipelineConfig {
            min_doc_count: 1,
            max_doc_freq: 1.0,
            ..Default::default()
        });
        let rebuilt = p.build(&refs, None);
        // Stopwords injected at render time must be gone.
        assert!(rebuilt.vocab.id("the").is_none());
        // Core vocabulary survives.
        assert!(rebuilt.vocab.id("nasa").is_some());
    }
}
