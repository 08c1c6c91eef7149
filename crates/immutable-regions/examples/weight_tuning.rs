//! Algorithm comparison on a generated workload — a miniature of the
//! paper's Figure 10 experiment, runnable in seconds.
//!
//! Generates a WSJ-like corpus and an ST-like correlated dataset, runs the
//! same query workload with Scan, Thres, Prune and CPT, and prints the
//! average number of evaluated candidates per query dimension plus the I/O
//! performed. On the sparse corpus pruning does most of the work; on the
//! correlated data thresholding does — and CPT wins on both, which is the
//! paper's headline claim.
//!
//! This is the retained *low-level* example: it drives the
//! [`RegionComputation`] API directly (per-query cold starts over a shared
//! index built by hand) for library users who manage storage themselves.
//! The other examples go through the owned [`IrEngine`] façade.
//!
//! Run with: `cargo run --release --example weight_tuning`

use immutable_regions::prelude::*;

fn main() -> IrResult<()> {
    let corpus = TextCorpusGenerator::new(TextCorpusConfig {
        num_docs: 4_000,
        vocabulary: 3_000,
        mean_distinct_terms: 25.0,
        zipf_exponent: 1.0,
    })
    .generate_corpus(11);
    let correlated = CorrelatedGenerator::new(CorrelatedConfig {
        cardinality: 4_000,
        dimensionality: 12,
        correlation: 0.5,
    })
    .generate_dataset(11);

    for (name, dataset, min_postings) in [
        ("WSJ-like (sparse text)", &corpus, 40),
        ("ST (correlated)", &correlated, 40),
    ] {
        println!("=== {name} ===");
        let index = IndexBuilder::new().build_shared(dataset)?;
        let workload = QueryWorkload::generate(
            dataset,
            &WorkloadConfig {
                qlen: 4,
                k: 10,
                num_queries: 10,
                min_postings,
                ..Default::default()
            },
            3,
        )?;

        println!(
            "{:<8} {:>22} {:>18} {:>14}",
            "method", "evaluated cands/dim", "logical reads", "cpu (ms)"
        );
        for algorithm in Algorithm::ALL {
            let mut evaluated = 0.0;
            let mut reads = 0u64;
            let mut cpu_ms = 0.0;
            for query in workload.iter() {
                index.cold_start();
                let mut computation =
                    RegionComputation::new(&index, query, RegionConfig::flat(algorithm))?;
                let report = computation.compute()?;
                evaluated += report.stats.evaluated_per_dim_avg();
                reads += report.stats.io.logical_reads;
                cpu_ms += report.stats.cpu_time.as_secs_f64() * 1e3;
            }
            let n = workload.len() as f64;
            println!(
                "{:<8} {:>22.1} {:>18.0} {:>14.2}",
                algorithm,
                evaluated / n,
                reads as f64 / n,
                cpu_ms / n
            );
        }
        println!();
    }
    Ok(())
}
