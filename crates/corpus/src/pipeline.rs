//! Text preprocessing: stop-words and stemming.
//!
//! The paper preprocesses its Newsgroup articles: "stop words were removed
//! from the text, lemmatization was applied and the resulting words were
//! sorted by frequency of appearance". This module holds the two pieces
//! the synthetic corpus needs: an English stop-word list, which no
//! vocabulary word may belong to, and a light suffix-stripping stemmer
//! standing in for the lemmatizer, which names every symbol.

/// English stop-words (a compact list). Vocabulary words are never
/// stop-words, so removing stop-words from a synthetic article leaves
/// exactly its drawn vocabulary words.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "i", "if", "in", "into", "is", "it", "its", "my", "no", "not", "of", "on",
    "or", "our", "she", "so", "that", "the", "their", "them", "then", "there", "these", "they",
    "this", "to", "was", "we", "were", "which", "will", "with", "you", "your",
];

/// Applies a small suffix-stripping stemmer (a Porter-step-1 style
/// lemmatizer substitute): `sses→ss`, `ies→i`, trailing `s` (but not
/// `ss`), and the inflectional suffixes `ing`/`ed`/`ly` when enough stem
/// remains.
pub fn stem(word: &str) -> String {
    let mut w = word.to_owned();
    if let Some(base) = w.strip_suffix("sses") {
        w = format!("{base}ss");
    } else if let Some(base) = w.strip_suffix("ies") {
        w = format!("{base}i");
    } else if w.ends_with('s') && !w.ends_with("ss") {
        w.truncate(w.len() - 1);
    }
    for suffix in ["ing", "ed", "ly"] {
        if w.len() > suffix.len() + 2 && w.ends_with(suffix) {
            w.truncate(w.len() - suffix.len());
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_handles_plural_forms() {
        assert_eq!(stem("clusters"), "cluster");
        assert_eq!(stem("queries"), "queri");
        assert_eq!(stem("glasses"), "glass");
        assert_eq!(stem("recall"), "recall");
        assert_eq!(stem("class"), "class");
    }

    #[test]
    fn stem_strips_inflections_with_guard() {
        assert_eq!(stem("clustering"), "cluster");
        assert_eq!(stem("reformulated"), "reformulat");
        assert_eq!(stem("greatly"), "great");
        // Too short to strip: "ring" keeps its suffix.
        assert_eq!(stem("ring"), "ring");
        assert_eq!(stem("ed"), "ed");
    }
}
