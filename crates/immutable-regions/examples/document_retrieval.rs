//! Iterative query refinement over a document corpus (the paper's first
//! motivating application, Section 1).
//!
//! A WSJ-like TF-IDF corpus is generated, a multi-term query is issued, and
//! the immutable regions with `φ = 2` show the user exactly how far each
//! term weight must move before the top-10 document list changes — once,
//! twice — without re-running the query.
//!
//! Run with: `cargo run --release --example document_retrieval`

use immutable_regions::prelude::*;
use ir_datagen::queries::DimSelection;

fn main() -> IrResult<()> {
    // A scaled-down WSJ-like corpus (use TextCorpusConfig::full_scale() for
    // the paper's cardinalities).
    let corpus_config = TextCorpusConfig {
        num_docs: 5_000,
        vocabulary: 4_000,
        mean_distinct_terms: 30.0,
        zipf_exponent: 1.0,
    };
    println!(
        "generating a {}-document corpus over {} terms ...",
        corpus_config.num_docs, corpus_config.vocabulary
    );
    let corpus = TextCorpusGenerator::new(corpus_config).generate_corpus(42);
    let stats = corpus.stats();
    println!(
        "  {} documents, avg {:.1} distinct terms/document",
        stats.cardinality, stats.avg_nnz_per_tuple
    );

    // A "web search"-style query: four popularity-biased terms, top-10.
    let workload_config = WorkloadConfig {
        qlen: 4,
        k: 10,
        num_queries: 1,
        min_postings: 50,
        max_postings: usize::MAX,
        selection: DimSelection::PopularityBiased,
        equal_weights: false,
    };
    let workload = QueryWorkload::generate(&corpus, &workload_config, 7)?;
    let query = workload.queries()[0].clone();
    println!("\nquery terms and weights:");
    for (dim, weight) in query.dims() {
        println!("  term {:>6}  weight {:.3}", dim.0, weight);
    }

    // The engine owns the index built over the corpus; φ = 2 reports the
    // two subsequent regions on each side of every term weight.
    let engine = IrEngine::builder()
        .dataset(corpus)
        .config(RegionConfig::with_phi(Algorithm::Cpt, 2))
        .build()?;
    let mut computation = engine.computation(&query)?;
    let report = computation.compute()?;

    println!("\ntop-10 documents: {:?}", computation.result().ids());
    println!("\nper-term refinement map (deviations relative to the current weight):");
    for dim in &report.dims {
        println!(
            "  term {:>6}: result unchanged for delta in ({:+.4}, {:+.4})",
            dim.dim.0, dim.immutable.lo, dim.immutable.hi
        );
        for (i, region) in dim.regions.iter().enumerate() {
            if i == dim.current_region {
                continue;
            }
            println!(
                "        after ({:+.4}, {:+.4}) the top-10 becomes {:?} ...",
                region.delta_lo,
                region.delta_hi,
                &region.result[..region.result.len().min(3)]
            );
        }
    }

    println!(
        "\ncomputed with {} candidate evaluations over {} initial candidates ({} discovered by the resumed scan)",
        report.stats.evaluated_candidates,
        report.stats.initial_candidates,
        report.stats.phase3_tuples
    );
    Ok(())
}
