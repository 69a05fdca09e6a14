//! Seeded input generators: every input a run feeds the program comes
//! from here, derived from the `--seed` argument alone.

use std::collections::HashSet;

use ct_corpus::{generate, BowCorpus, SparseDoc, SynthSpec, Vocab};
use ct_serve::DocEncoder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of every model's initialisation and training randomness. It is
/// fixed: `--seed` varies what the program is fed (corpora, streams,
/// requests), not the model's random draws, so quality metrics move with
/// the inputs only.
pub const MODEL_SEED: u64 = 1;

/// An independent RNG stream for `(seed, purpose)`: SplitMix64 over the
/// pair, so streams for different purposes never overlap.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// One request: the wire text and the bag of words the server's encoder
/// turns it into (the key of the offline reference answer).
#[derive(Clone, Debug)]
pub struct Request {
    pub text: String,
    pub doc: SparseDoc,
}

/// A document rendered back to request text: each word repeated by its
/// count, so the serving encoder sees exactly this bag of words.
pub fn doc_text(doc: &SparseDoc, vocab: &Vocab) -> String {
    let mut text = String::new();
    for (id, count) in doc.iter() {
        for _ in 0..(count as usize).max(1) {
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(vocab.word(id));
        }
    }
    text
}

/// Canonical identity of a bag of words: its ids and exact count bits.
pub fn bow_identity(doc: &SparseDoc) -> Vec<(u32, u32)> {
    doc.iter().map(|(id, c)| (id, c.to_bits())).collect()
}

/// `n` requests with pairwise-distinct bags of words, drawn from the
/// planted-topic process of `spec` (the same generator the fixture
/// corpus comes from, with a request-only RNG stream). Identity is
/// checked on the *encoded* document, which is what the server keys on.
pub fn distinct_requests(
    spec: &SynthSpec,
    encoder: &DocEncoder,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Request> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let batch = SynthSpec {
            num_docs: (n - out.len()) + 16,
            ..spec.clone()
        };
        let corpus: BowCorpus = generate(&batch, rng).corpus;
        for doc in &corpus.docs {
            if out.len() == n {
                break;
            }
            let text = doc_text(doc, &corpus.vocab);
            let Ok(encoded) = encoder.encode(&text) else {
                continue;
            };
            if seen.insert(bow_identity(&encoded)) {
                out.push(Request { text, doc: encoded });
            }
        }
    }
    out
}

/// A Zipf(`s`) sampler over ranks `0..n` (rank 0 most frequent).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A request-index sequence of length `len` over a pool of `pool` items,
/// Zipf-distributed with exponent 1.
pub fn zipf_sequence(pool: usize, len: usize, rng: &mut StdRng) -> Vec<usize> {
    let zipf = Zipf::new(pool, 1.0);
    (0..len).map(|_| zipf.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_corpus::{DatasetPreset, Scale};
    use ct_serve::lru::{bow_key, LruCache};
    use ct_serve::ServeConfig;

    fn spec() -> SynthSpec {
        DatasetPreset::Ng20Like.spec(Scale::Quick)
    }

    fn encoder() -> DocEncoder {
        let (vocab, _) = ct_corpus::synth::stream_vocab(&spec());
        DocEncoder::new(vocab)
    }

    fn texts(seed: u64) -> Vec<String> {
        distinct_requests(&spec(), &encoder(), 200, &mut rng(seed, 1))
            .into_iter()
            .map(|r| r.text)
            .collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(texts(5), texts(5));
        assert_ne!(texts(5), texts(6));
        let a = zipf_sequence(256, 1000, &mut rng(5, 2));
        assert_eq!(a, zipf_sequence(256, 1000, &mut rng(5, 2)));
        assert_ne!(a, zipf_sequence(256, 1000, &mut rng(6, 2)));
        assert_ne!(a, zipf_sequence(256, 1000, &mut rng(5, 3)));
    }

    #[test]
    fn cold_requests_are_pairwise_distinct_bags_of_words() {
        let enc = encoder();
        let reqs = distinct_requests(&spec(), &enc, 3000, &mut rng(9, 1));
        assert_eq!(reqs.len(), 3000);
        let ids: HashSet<_> = reqs.iter().map(|r| bow_identity(&r.doc)).collect();
        assert_eq!(ids.len(), reqs.len());
        for r in reqs.iter().take(50) {
            // The text encodes back to exactly the recorded document.
            let again = enc.encode(&r.text).expect("encodable");
            assert_eq!(bow_identity(&again), bow_identity(&r.doc));
        }
    }

    #[test]
    fn hot_pool_gives_the_stated_hit_share() {
        // The pool is warmed once, then drawn Zipf-like: with the
        // engine's default cache every draw after warm-up must hit.
        let pool = distinct_requests(&spec(), &encoder(), crate::serve::HOT_POOL, &mut rng(3, 1));
        let mut cache = LruCache::new(ServeConfig::default().cache_capacity);
        for r in &pool {
            cache.insert(bow_key(0, &r.doc), ());
        }
        let seq = zipf_sequence(pool.len(), 20_000, &mut rng(3, 2));
        let mut hits = 0usize;
        for &i in &seq {
            let key = bow_key(0, &pool[i].doc);
            if cache.get(key).is_some() {
                hits += 1;
            } else {
                cache.insert(key, ());
            }
        }
        let share = hits as f64 / seq.len() as f64;
        assert!(share >= 0.99, "hit share {share}");
        // And the draw is skewed, not uniform: rank 0 is the most common.
        let top = seq.iter().filter(|&&i| i == 0).count();
        let last = seq.iter().filter(|&&i| i == pool.len() - 1).count();
        assert!(top > 20 * last.max(1), "top {top} last {last}");
    }
}
