//! Setup-layer probes every workload's traced run makes on its own
//! configuration, so `corpus.generate_s` and `system.new_s` are measured
//! by all three workloads.

use recluster_core::System;
use recluster_corpus::{Corpus, CorpusConfig};
use recluster_sim::scenario::{ExperimentConfig, TestBed};
use recluster_types::derive_seed;

use crate::measure::{median, timed, Outcome};

/// Per-repetition seconds of `Corpus::generate` and `System::new`.
#[derive(Default)]
pub struct SetupProbe {
    corpus_s: Vec<f64>,
    system_new_s: Vec<f64>,
}

impl SetupProbe {
    /// Times `Corpus::generate` with the corpus configuration the
    /// scenario builders derive from `cfg`, and `System::new` on clones
    /// of `testbed`'s overlay, store and workloads.
    pub fn measure(&mut self, cfg: &ExperimentConfig, testbed: &TestBed) {
        self.corpus_s
            .push(timed(|| Corpus::generate(corpus_config(cfg))).1);
        let system = &testbed.system;
        let (overlay, store, workloads) = (
            system.overlay().clone(),
            system.store().clone(),
            system.workloads().to_vec(),
        );
        let config = system.config();
        self.system_new_s
            .push(timed(|| System::new(overlay, store, workloads, config)).1);
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer("corpus.generate_s", median(&self.corpus_s), "s");
        out.layer("system.new_s", median(&self.system_new_s), "s");
    }
}

/// The corpus configuration `ExperimentConfig` derives for the scenario
/// builders (private to `recluster-sim`, so restated here).
fn corpus_config(cfg: &ExperimentConfig) -> CorpusConfig {
    CorpusConfig {
        n_categories: cfg.n_categories,
        vocab_per_category: cfg.vocab_per_category,
        shared_vocab: 30,
        docs_per_category: cfg.peers_per_category() * cfg.docs_per_peer + cfg.holdout_per_category,
        content_words_per_doc: 18,
        shared_words_per_doc: 2,
        zipf_exponent: cfg.vocab_zipf,
        seed: derive_seed(cfg.seed, 0xC0),
    }
}
