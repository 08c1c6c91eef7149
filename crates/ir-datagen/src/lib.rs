//! # ir-datagen
//!
//! Synthetic dataset and workload generators standing in for the three
//! evaluation datasets of the paper (Section 7.1):
//!
//! * [`text::TextCorpusGenerator`] — a WSJ-like sparse TF-IDF document
//!   corpus: Zipf-distributed vocabulary, log-normal document lengths, each
//!   document touching only a handful of terms. Candidates of a multi-term
//!   query overwhelmingly have a single non-zero query coordinate, the
//!   structure Figure 6(a) shows and candidate pruning exploits.
//! * [`features::FeatureVectorGenerator`] — a KB-like image-feature
//!   collection: a low-rank latent-factor model with a sparsifying threshold
//!   produces moderately correlated, moderately sparse non-negative feature
//!   vectors, so all three candidate partitions are sizable (Figure 12).
//! * [`correlated::CorrelatedGenerator`] — the ST synthetic dataset: dense
//!   multivariate-normal tuples with pairwise correlation 0.5 (the paper's
//!   `mvnrnd` construction), clustered along the main diagonal of the unit
//!   cube, where `C^L_j` dominates and thresholding is the technique that
//!   matters (Figures 6(b) and 11).
//! * [`queries`] — query workload generation for each dataset kind.
//! * [`drift`] — Zipf-popular weight-drift event streams, the workload a
//!   subscription fleet serves.
//! * [`update_stream`] — Zipf-popular tuple-update streams (inserts,
//!   deletes, rescores) against a concrete dataset, the dynamic-data
//!   workload the engine's maintenance path consumes.
//!
//! All generators are deterministic given a seed, so every experiment in the
//! harness is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlated;
pub mod drift;
pub mod features;
pub mod queries;
pub mod text;
pub mod update_stream;
pub mod zipf;

pub use correlated::{CorrelatedConfig, CorrelatedGenerator};
pub use drift::{DriftConfig, DriftEvent, DriftStream};
pub use features::{FeatureConfig, FeatureVectorGenerator};
pub use queries::{QueryWorkload, WorkloadConfig};
pub use text::{TextCorpusConfig, TextCorpusGenerator};
pub use update_stream::{UpdateConfig, UpdateStream};
pub use zipf::ZipfSampler;
