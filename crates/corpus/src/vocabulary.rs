//! Category vocabularies of pronounceable pseudo-words.
//!
//! Each of the paper's 10 Newsgroup categories has a characteristic
//! vocabulary; a query word drawn from a category's articles
//! predominantly matches documents of that category. We synthesize one
//! disjoint pseudo-word vocabulary per category plus a shared background
//! vocabulary (words common to all categories), and guarantee that the
//! pipeline's stemmer maps distinct vocabulary entries to distinct stems
//! (otherwise two "different" words would merge downstream).

use std::collections::HashSet;

use recluster_types::seeded_rng;

use crate::pipeline::{stem, STOPWORDS};

const ONSETS: &[&str] = &[
    "b", "br", "c", "cr", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "kl", "l", "m", "n", "p",
    "pr", "qu", "r", "st", "t", "tr", "v", "w", "z",
];
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ou"];
const CODAS: &[&str] = &[
    "b", "ck", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "x", "z",
];

/// The vocabulary of one category: a list of pseudo-words, ordered so that
/// index 0 is the category's most characteristic (highest-frequency under
/// the generator's Zipf composition) word.
#[derive(Debug, Clone)]
pub struct CategoryVocabulary {
    /// Category index this vocabulary belongs to.
    pub category: usize,
    /// Pseudo-words, rank-ordered (rank 0 = most frequent in articles).
    pub words: Vec<String>,
}

impl CategoryVocabulary {
    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Builds stemming-stable, pairwise-disjoint vocabularies.
///
/// # Examples
/// ```
/// use recluster_corpus::VocabularyBuilder;
///
/// let built = VocabularyBuilder::new(3, 40, 10, 99).build();
/// assert_eq!(built.categories.len(), 3);
/// assert_eq!(built.categories[0].words.len(), 40);
/// assert_eq!(built.shared.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct VocabularyBuilder {
    n_categories: usize,
    words_per_category: usize,
    shared_words: usize,
    seed: u64,
}

/// Output of [`VocabularyBuilder::build`].
#[derive(Debug, Clone)]
pub struct BuiltVocabulary {
    /// One vocabulary per category, pairwise disjoint.
    pub categories: Vec<CategoryVocabulary>,
    /// Background words appearing in articles of every category.
    pub shared: Vec<String>,
}

impl VocabularyBuilder {
    /// Configures a builder.
    pub fn new(
        n_categories: usize,
        words_per_category: usize,
        shared_words: usize,
        seed: u64,
    ) -> Self {
        VocabularyBuilder {
            n_categories,
            words_per_category,
            shared_words,
            seed,
        }
    }

    /// Generates the vocabularies. Deterministic for a given seed.
    pub fn build(&self) -> BuiltVocabulary {
        let mut rng = seeded_rng(self.seed);
        let mut used_stems: HashSet<String> = HashSet::new();
        let mut next_word = |rng: &mut rand::rngs::StdRng| -> String {
            loop {
                let word = pseudo_word(rng);
                // Reject stop-words and stem collisions so preprocessing
                // is a bijection on the vocabulary.
                if STOPWORDS.contains(&word.as_str()) {
                    continue;
                }
                let stemmed = stem(&word);
                if stemmed.len() < 3 {
                    continue;
                }
                if used_stems.insert(stemmed) {
                    return word;
                }
            }
        };
        let categories = (0..self.n_categories)
            .map(|category| CategoryVocabulary {
                category,
                words: (0..self.words_per_category)
                    .map(|_| next_word(&mut rng))
                    .collect(),
            })
            .collect();
        let shared = (0..self.shared_words)
            .map(|_| next_word(&mut rng))
            .collect();
        BuiltVocabulary { categories, shared }
    }
}

/// Generates one pronounceable pseudo-word of 2–3 syllables.
fn pseudo_word<R: rand::Rng + ?Sized>(rng: &mut R) -> String {
    let syllables = 2 + (rng.gen::<u32>() % 2) as usize;
    let mut w = String::new();
    for _ in 0..syllables {
        w.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        w.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
    }
    w.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_shapes() {
        let b = VocabularyBuilder::new(4, 25, 8, 1).build();
        assert_eq!(b.categories.len(), 4);
        for (i, cat) in b.categories.iter().enumerate() {
            assert_eq!(cat.category, i);
            assert_eq!(cat.words.len(), 25);
        }
        assert_eq!(b.shared.len(), 8);
    }

    #[test]
    fn all_words_are_globally_distinct() {
        let b = VocabularyBuilder::new(5, 60, 20, 2).build();
        let mut all: Vec<&String> = b.categories.iter().flat_map(|c| c.words.iter()).collect();
        all.extend(b.shared.iter());
        let set: HashSet<&String> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn stems_are_globally_distinct() {
        let b = VocabularyBuilder::new(5, 60, 20, 3).build();
        let mut stems = HashSet::new();
        for w in b
            .categories
            .iter()
            .flat_map(|c| c.words.iter())
            .chain(b.shared.iter())
        {
            assert!(stems.insert(stem(w)), "stem collision for {w}");
        }
    }

    #[test]
    fn no_word_is_a_stopword() {
        let b = VocabularyBuilder::new(3, 50, 10, 4).build();
        for w in b
            .categories
            .iter()
            .flat_map(|c| c.words.iter())
            .chain(b.shared.iter())
        {
            assert!(!STOPWORDS.contains(&w.as_str()), "{w} is a stop-word");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = VocabularyBuilder::new(2, 10, 3, 7).build();
        let b = VocabularyBuilder::new(2, 10, 3, 7).build();
        assert_eq!(a.categories[0].words, b.categories[0].words);
        assert_eq!(a.shared, b.shared);
    }

    #[test]
    fn different_seeds_differ() {
        let a = VocabularyBuilder::new(2, 10, 3, 7).build();
        let b = VocabularyBuilder::new(2, 10, 3, 8).build();
        assert_ne!(a.categories[0].words, b.categories[0].words);
    }

    #[test]
    fn words_survive_the_pipeline_unsplit() {
        // Every category and shared word is one lowercase alphabetic token.
        let b = VocabularyBuilder::new(2, 30, 5, 5).build();
        for w in b
            .categories
            .iter()
            .flat_map(|c| c.words.iter())
            .chain(b.shared.iter())
        {
            assert!(
                !w.is_empty() && w.bytes().all(|c| c.is_ascii_lowercase()),
                "{w}"
            );
        }
    }
}
