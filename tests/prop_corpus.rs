//! Property-based tests of the corpus substrate: Zipf sampling, the
//! stemmer, workload arithmetic, and the match predicate.

use proptest::prelude::*;
use recluster_corpus::pipeline::stem;
use recluster_corpus::Zipf;
use recluster_types::{seeded_rng, Document, Query, Sym, Workload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Zipf pmf is a probability distribution and monotone in rank.
    #[test]
    fn zipf_pmf_is_a_distribution(n in 1usize..80, s in 0.0f64..2.5) {
        let z = Zipf::new(n, s);
        let sum: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    /// Integer shares sum exactly and respect the rank ordering.
    #[test]
    fn zipf_integer_shares_sum(n in 1usize..40, s in 0.0f64..2.0, total in 0u64..5000) {
        let z = Zipf::new(n, s);
        let shares = z.integer_shares(total);
        prop_assert_eq!(shares.iter().sum::<u64>(), total);
        if s > 0.0 {
            for w in shares.windows(2) {
                prop_assert!(w[0] + 1 >= w[1], "shares must be near-monotone");
            }
        }
    }

    /// Zipf samples are always in range.
    #[test]
    fn zipf_samples_in_range(n in 1usize..50, s in 0.0f64..2.0, seed in 0u64..100) {
        let z = Zipf::new(n, s);
        let mut rng = seeded_rng(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// The stemmer never grows a word and never empties a word of length
    /// ≥ 3.
    #[test]
    fn stemmer_shrinks_but_preserves(word in "[a-z]{3,12}") {
        let stemmed = stem(&word);
        prop_assert!(stemmed.len() <= word.len());
        prop_assert!(!stemmed.is_empty(), "{word} stemmed to nothing");
    }

    /// Workload::apportion hits the exact target, never exceeds original
    /// per-query counts, and keeps proportions within one unit.
    #[test]
    fn apportion_is_exact_and_proportional(
        counts in proptest::collection::vec((0u32..8, 1u64..30), 1..6),
        target_frac in 0.0f64..=1.0,
    ) {
        let mut w = Workload::new();
        for &(sym, n) in &counts {
            w.add(Query::keyword(Sym(sym)), n);
        }
        let target = (w.total() as f64 * target_frac).floor() as u64;
        let scaled = w.apportion(target);
        prop_assert_eq!(scaled.total(), target);
        for (q, n) in scaled.iter() {
            let orig = w.count(q);
            prop_assert!(n <= orig);
            let exact = orig as f64 * target as f64 / w.total() as f64;
            prop_assert!((n as f64 - exact).abs() <= 1.0, "count {n} vs exact {exact}");
        }
    }

    /// Workload totals always equal the sum of per-query counts.
    #[test]
    fn workload_total_is_consistent(
        ops in proptest::collection::vec((0u32..6, 0u64..10, proptest::bool::ANY), 0..20),
    ) {
        let mut w = Workload::new();
        for &(sym, n, add) in &ops {
            if add {
                w.add(Query::keyword(Sym(sym)), n);
            } else {
                w.remove(&Query::keyword(Sym(sym)), n);
            }
        }
        let sum: u64 = w.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(w.total(), sum);
        if w.total() > 0 {
            let freq_sum: f64 = w.iter().map(|(q, _)| w.frequency(q)).sum();
            prop_assert!((freq_sum - 1.0).abs() < 1e-9);
        }
    }

    /// The document match predicate agrees with the naive set-subset
    /// check.
    #[test]
    fn match_predicate_is_subset(
        doc_attrs in proptest::collection::vec(0u32..16, 0..10),
        query_attrs in proptest::collection::vec(0u32..16, 0..5),
    ) {
        let doc = Document::new(doc_attrs.iter().map(|&a| Sym(a)).collect());
        let query = Query::new(query_attrs.iter().map(|&a| Sym(a)).collect());
        let doc_set: std::collections::HashSet<u32> = doc_attrs.iter().copied().collect();
        let naive = query_attrs.iter().all(|a| doc_set.contains(a));
        prop_assert_eq!(query.matches(&doc), naive);
    }
}
