//! Synthetic article generation.
//!
//! An article is Zipf-sampled content words from its category's
//! vocabulary plus a few shared background words. The paper shares its
//! Newsgroup articles after stop-word removal and lemmatization, so an
//! article here is drawn directly in that preprocessed space: each drawn
//! word becomes the symbol of its stem. On this vocabulary that equals
//! rendering the text and preprocessing it, because every vocabulary
//! word is one lowercase alphabetic token, is not a stop-word and has a
//! stem no other word shares (see [`crate::vocabulary`]). The output is
//! a set-of-attributes [`Document`] per article, grouped by category,
//! plus the occurrence and document-frequency statistics the query
//! samplers need.

use rand::Rng;
use recluster_types::{seeded_rng, Document, Interner, Sym};

use crate::pipeline::{stem, STOPWORDS};
use crate::vocabulary::VocabularyBuilder;
use crate::zipf::Zipf;

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of article categories (the paper uses 10).
    pub n_categories: usize,
    /// Distinct content words per category vocabulary.
    pub vocab_per_category: usize,
    /// Distinct background words shared by all categories.
    pub shared_vocab: usize,
    /// Articles generated per category.
    pub docs_per_category: usize,
    /// Content-word draws per article (with replacement; the article's
    /// attribute set is typically slightly smaller).
    pub content_words_per_doc: usize,
    /// Shared-background-word draws per article.
    pub shared_words_per_doc: usize,
    /// Zipf exponent for the rank-frequency law of content words.
    pub zipf_exponent: f64,
    /// Master seed; the whole corpus is a pure function of the config.
    pub seed: u64,
}

impl Default for CorpusConfig {
    /// Defaults sized like the paper's testbed: 10 categories, enough
    /// articles for 200 peers to hold a handful each.
    fn default() -> Self {
        CorpusConfig {
            n_categories: 10,
            vocab_per_category: 120,
            shared_vocab: 30,
            docs_per_category: 200,
            content_words_per_doc: 18,
            shared_words_per_doc: 2,
            zipf_exponent: 0.8,
            seed: 0xC0FFEE,
        }
    }
}

/// A generated corpus: documents grouped by category plus vocabulary
/// statistics.
#[derive(Debug, Clone)]
pub struct Corpus {
    config: CorpusConfig,
    interner: Interner,
    /// Rank-ordered stemmed symbols per category.
    category_syms: Vec<Vec<Sym>>,
    /// Stemmed symbols of the shared background vocabulary.
    shared_syms: Vec<Sym>,
    /// Documents per category.
    docs_by_category: Vec<Vec<Document>>,
    /// Occurrence counts aligned with `category_syms` (how often each
    /// word was drawn across the category's articles).
    occurrences: Vec<Vec<u64>>,
    /// Document frequencies aligned with `category_syms`.
    doc_freq: Vec<Vec<u32>>,
    /// Reverse map: symbol index → owning category (`None` for shared).
    sym_category: Vec<Option<u32>>,
}

impl Corpus {
    /// Generates a corpus from `config`. Deterministic.
    pub fn generate(config: CorpusConfig) -> Self {
        assert!(config.n_categories > 0, "need at least one category");
        assert!(config.vocab_per_category > 0, "need a non-empty vocabulary");
        let vocab = VocabularyBuilder::new(
            config.n_categories,
            config.vocab_per_category,
            config.shared_vocab,
            config.seed,
        )
        .build();

        let mut interner = Interner::new();
        let mut rng = seeded_rng(recluster_types::derive_seed(config.seed, 1));
        let zipf = Zipf::new(config.vocab_per_category, config.zipf_exponent);

        // Symbols are numbered in order of first appearance in the
        // articles: a word is interned the first time it is drawn.
        let mut category_tables: Vec<Vec<Option<Sym>>> = vocab
            .categories
            .iter()
            .map(|c| vec![None; c.len()])
            .collect();
        let mut shared_table = vec![None; vocab.shared.len()];
        let n_words = config.n_categories * config.vocab_per_category + vocab.shared.len();
        let mut occurrences = vec![0u64; n_words];
        let mut doc_freq = vec![0u32; n_words];

        let mut docs_by_category = Vec::with_capacity(config.n_categories);
        for (table, category) in category_tables.iter_mut().zip(&vocab.categories) {
            let mut docs = Vec::with_capacity(config.docs_per_category);
            for _ in 0..config.docs_per_category {
                let mut attrs =
                    Vec::with_capacity(config.content_words_per_doc + config.shared_words_per_doc);
                for _ in 0..config.content_words_per_doc {
                    let rank = zipf.sample(&mut rng);
                    skip_stopword(&mut rng);
                    attrs.push(symbol(table, &category.words, rank, &mut interner));
                }
                for _ in 0..config.shared_words_per_doc {
                    if vocab.shared.is_empty() {
                        break;
                    }
                    let i = rng.gen_range(0..vocab.shared.len());
                    skip_stopword(&mut rng);
                    attrs.push(symbol(&mut shared_table, &vocab.shared, i, &mut interner));
                }
                for s in &attrs {
                    occurrences[s.index()] += 1;
                }
                let doc = Document::new(attrs);
                for s in doc.attrs() {
                    doc_freq[s.index()] += 1;
                }
                docs.push(doc);
            }
            docs_by_category.push(docs);
        }

        // Words never drawn are interned now, in rank order, with zero
        // counts.
        let category_syms: Vec<Vec<Sym>> = category_tables
            .iter_mut()
            .zip(&vocab.categories)
            .map(|(table, c)| {
                (0..c.len())
                    .map(|i| symbol(table, &c.words, i, &mut interner))
                    .collect()
            })
            .collect();
        let shared_syms: Vec<Sym> = (0..vocab.shared.len())
            .map(|i| symbol(&mut shared_table, &vocab.shared, i, &mut interner))
            .collect();

        let mut sym_category = vec![None; interner.len()];
        for (cat, syms) in category_syms.iter().enumerate() {
            for &s in syms {
                sym_category[s.index()] = Some(cat as u32);
            }
        }

        Corpus {
            config,
            interner,
            occurrences: by_category(&category_syms, &occurrences),
            doc_freq: by_category(&category_syms, &doc_freq),
            category_syms,
            shared_syms,
            docs_by_category,
            sym_category,
        }
    }

    /// The generation configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Number of categories.
    pub fn n_categories(&self) -> usize {
        self.config.n_categories
    }

    /// The interner mapping stemmed words to symbols.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Documents of one category.
    pub fn docs(&self, category: usize) -> &[Document] {
        &self.docs_by_category[category]
    }

    /// Rank-ordered stemmed symbols of one category's vocabulary.
    pub fn category_syms(&self, category: usize) -> &[Sym] {
        &self.category_syms[category]
    }

    /// Stemmed symbols of the shared background vocabulary.
    pub fn shared_syms(&self) -> &[Sym] {
        &self.shared_syms
    }

    /// Token occurrences of each category word (aligned with
    /// [`Corpus::category_syms`]).
    pub fn occurrences(&self, category: usize) -> &[u64] {
        &self.occurrences[category]
    }

    /// Document frequency (how many of the category's articles contain
    /// the word) aligned with [`Corpus::category_syms`].
    pub fn doc_freq(&self, category: usize) -> &[u32] {
        &self.doc_freq[category]
    }

    /// The category owning `sym`, or `None` for shared/unknown symbols.
    pub fn category_of(&self, sym: Sym) -> Option<usize> {
        self.sym_category
            .get(sym.index())
            .copied()
            .flatten()
            .map(|c| c as usize)
    }

    /// Total number of documents across all categories.
    pub fn total_docs(&self) -> usize {
        self.docs_by_category.iter().map(Vec::len).sum()
    }
}

/// The symbol of `words[i]`: its interned stem, filled into `table` on
/// first use so each word is stemmed once.
fn symbol(table: &mut [Option<Sym>], words: &[String], i: usize, interner: &mut Interner) -> Sym {
    *table[i].get_or_insert_with(|| interner.intern(&stem(&words[i])))
}

/// Makes the draws of the stop-word that raw text would carry before
/// roughly every third token. Preprocessing drops the word itself, but
/// its draws stay in the stream: dropping them would change the corpus
/// and so every golden digest.
fn skip_stopword<R: Rng + ?Sized>(rng: &mut R) {
    if rng.gen_ratio(1, 3) {
        rng.gen_range(0..STOPWORDS.len());
    }
}

/// Gathers a per-symbol column into rows aligned with `category_syms`.
fn by_category<T: Copy>(category_syms: &[Vec<Sym>], column: &[T]) -> Vec<Vec<T>> {
    category_syms
        .iter()
        .map(|syms| syms.iter().map(|s| column[s.index()]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> CorpusConfig {
        CorpusConfig {
            n_categories: 3,
            vocab_per_category: 40,
            shared_vocab: 10,
            docs_per_category: 30,
            content_words_per_doc: 12,
            shared_words_per_doc: 2,
            zipf_exponent: 0.9,
            seed,
        }
    }

    #[test]
    fn generates_requested_document_counts() {
        let c = Corpus::generate(small_config(1));
        assert_eq!(c.n_categories(), 3);
        for cat in 0..3 {
            assert_eq!(c.docs(cat).len(), 30);
        }
        assert_eq!(c.total_docs(), 90);
    }

    #[test]
    fn documents_are_nonempty_and_use_category_vocabulary() {
        let c = Corpus::generate(small_config(2));
        for cat in 0..3 {
            for doc in c.docs(cat) {
                assert!(!doc.is_empty());
                let own = doc
                    .attrs()
                    .iter()
                    .filter(|&&s| c.category_of(s) == Some(cat))
                    .count();
                assert!(own > 0, "article must contain own-category words");
            }
        }
    }

    #[test]
    fn category_vocabularies_are_disjoint_across_categories() {
        let c = Corpus::generate(small_config(3));
        for cat in 0..3 {
            for &s in c.category_syms(cat) {
                assert_eq!(c.category_of(s), Some(cat));
            }
        }
        for &s in c.shared_syms() {
            assert_eq!(c.category_of(s), None);
        }
    }

    #[test]
    fn zipf_rank_ordering_shows_in_occurrences() {
        let c = Corpus::generate(small_config(4));
        for cat in 0..3 {
            let occ = c.occurrences(cat);
            let head: u64 = occ[..5].iter().sum();
            let tail: u64 = occ[occ.len() - 5..].iter().sum();
            assert!(head > tail, "rank-0 words must dominate the tail");
        }
    }

    #[test]
    fn doc_freq_is_consistent_with_documents() {
        let c = Corpus::generate(small_config(5));
        let cat = 1;
        let syms = c.category_syms(cat);
        let df = c.doc_freq(cat);
        for (i, &s) in syms.iter().enumerate().take(10) {
            let manual = c.docs(cat).iter().filter(|d| d.contains(s)).count() as u32;
            assert_eq!(df[i], manual);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(small_config(9));
        let b = Corpus::generate(small_config(9));
        assert_eq!(a.docs(0), b.docs(0));
        assert_eq!(a.occurrences(2), b.occurrences(2));
    }

    #[test]
    fn different_seeds_produce_different_corpora() {
        let a = Corpus::generate(small_config(10));
        let b = Corpus::generate(small_config(11));
        assert_ne!(a.docs(0), b.docs(0));
    }

    #[test]
    fn cross_category_words_only_from_shared_vocab() {
        let c = Corpus::generate(small_config(12));
        for cat in 0..3 {
            for doc in c.docs(cat) {
                for &s in doc.attrs() {
                    if let Some(owner) = c.category_of(s) {
                        assert_eq!(owner, cat); // else: shared background word
                    }
                }
            }
        }
    }

    /// FNV-1a over everything downstream code reads from a corpus:
    /// symbol names in id order, every document's attributes, and the
    /// per-category vocabulary, occurrence and document-frequency rows.
    fn corpus_digest(c: &Corpus) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for i in 0..c.interner().len() {
            eat(c.interner().resolve(Sym::from_index(i)).as_bytes());
            eat(&[0xff]);
        }
        for cat in 0..c.n_categories() {
            for doc in c.docs(cat) {
                eat(&(doc.len() as u32).to_le_bytes());
                for s in doc.attrs() {
                    eat(&s.0.to_le_bytes());
                }
            }
            for s in c.category_syms(cat) {
                eat(&s.0.to_le_bytes());
            }
            for n in c.occurrences(cat) {
                eat(&n.to_le_bytes());
            }
            for n in c.doc_freq(cat) {
                eat(&n.to_le_bytes());
            }
        }
        for s in c.shared_syms() {
            eat(&s.0.to_le_bytes());
        }
        h
    }

    #[test]
    fn generated_corpus_is_pinned() {
        // The corpus orders every downstream digest (symbol ids order
        // documents, summaries and top-k tie-breaks), so generation must
        // stay bit-for-bit stable. The second config is the paper-scale
        // testbed's corpus shape at its default seed.
        let paper = CorpusConfig {
            n_categories: 10,
            vocab_per_category: 400,
            shared_vocab: 30,
            docs_per_category: 400,
            content_words_per_doc: 18,
            shared_words_per_doc: 2,
            zipf_exponent: 1.1,
            seed: recluster_types::derive_seed(2008, 0xC0),
        };
        let digests = [
            corpus_digest(&Corpus::generate(small_config(1))),
            corpus_digest(&Corpus::generate(paper)),
        ];
        assert_eq!(digests, [0xcbef_d3a4_6235_193a, 0xec99_adec_8840_f308]);
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn zero_categories_panics() {
        let mut cfg = small_config(1);
        cfg.n_categories = 0;
        let _ = Corpus::generate(cfg);
    }
}
