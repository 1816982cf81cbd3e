//! Synthetic Newsgroup-like corpus substrate.
//!
//! The paper's evaluation shares "Newsgroup articles belonging to 10
//! different categories", preprocessed by stop-word removal and
//! lemmatization, with queries "generated by choosing a random word from
//! the texts". The original dataset is not available to us, so this crate
//! builds the closest synthetic equivalent:
//!
//! * [`zipf`] — a seeded Zipf sampler (word frequencies in natural text
//!   are Zipfian; the paper also assigns query demand across peers with a
//!   Zipf distribution).
//! * [`pipeline`] — the preprocessing the paper applies to its articles:
//!   an English stop-word list and a suffix-stripping stemmer standing in
//!   for the lemmatizer.
//! * [`vocabulary`] — pseudo-word vocabularies, one per category plus a
//!   shared background vocabulary, built so that stemming never collides
//!   two distinct vocabulary entries.
//! * [`generator`] — draws synthetic articles directly in stemmed-symbol
//!   space and exposes them as attribute-set documents grouped by
//!   category, together with word-occurrence statistics. Because every
//!   vocabulary word is one lowercase token, no stop-word, and has a stem
//!   of its own, this is exactly what stop-word removal and stemming of
//!   the rendered article text would produce.
//! * [`queries`] — samples query words "from the texts" under several
//!   bias models and builds per-peer workloads, including the Zipf demand
//!   split used in §4.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod pipeline;
pub mod queries;
pub mod vocabulary;
pub mod zipf;

pub use generator::{Corpus, CorpusConfig};
pub use queries::{QueryBias, QuerySampler, WorkloadBuilder};
pub use vocabulary::{CategoryVocabulary, VocabularyBuilder};
pub use zipf::Zipf;
