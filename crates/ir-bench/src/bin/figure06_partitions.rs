//! Figure 6: the candidate-partition structure per dataset.
//!
//! For one equal-weight 4-term query on the WSJ-like and ST datasets, prints
//! the sizes of the `C⁰_j` / `C^H_j` / `C^L_j` partitions of `C(q)` plus a
//! score-vs-coordinate dump of result and candidate tuples (the scatter the
//! paper plots).

use immutable_regions::engine::{EngineResult, IrEngine};
use ir_bench::{BenchArgs, BenchDataset, Scale};
use ir_core::partition::Partition;
use ir_datagen::{QueryWorkload, WorkloadConfig};
use std::time::Instant;

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    for dataset_kind in [BenchDataset::Wsj, BenchDataset::St] {
        let dataset = dataset_kind.generate(scale);
        let workload = QueryWorkload::generate(
            &dataset,
            &WorkloadConfig {
                qlen: 4,
                k: 10,
                num_queries: 1,
                min_postings: 30,
                // Stopword cut (see `WorkloadConfig::max_postings`): only
                // meaningful for the sparse WSJ-like corpus — every dimension
                // of the dense St dataset has ~cardinality postings and would
                // be cut.
                max_postings: match dataset_kind {
                    BenchDataset::Wsj => dataset.cardinality() / 10,
                    _ => usize::MAX,
                },
                selection: dataset_kind.selection(),
                equal_weights: true,
            },
            6,
        )?;
        let (storage, scratch) = args.storage_backend()?;
        let engine = IrEngine::builder()
            .dataset(dataset)
            .backend(storage)
            .threads(args.threads)
            .build()?;
        drop(scratch);
        let query = &workload.queries()[0];
        let mut computation = engine.computation(query)?;
        let candidates = computation.ta().candidates().entries();
        println!(
            "=== Figure 6 — {} (qlen=4, k=10, equal weights) ===",
            dataset_kind.name()
        );
        println!(
            "result size {}  candidate list size {}",
            computation.result().len(),
            candidates.len()
        );
        for (dim_index, (dim, _)) in query.dims().enumerate() {
            let sizes = Partition::classify(candidates, dim_index).sizes();
            println!(
                "  query dim {:>6}: |C0| = {:>4}  |CH| = {:>4}  |CL| = {:>4}",
                dim.0, sizes.zero, sizes.high, sizes.low
            );
        }
        // Scatter dump (first query dimension): rank, score, coordinate.
        println!("  scatter (dim 1): kind score coord");
        for entry in computation.ta().result_entries() {
            println!("    R {:.4} {:.4}", entry.score, entry.coord(0));
        }
        for entry in candidates.iter().take(30) {
            println!("    C {:.4} {:.4}", entry.score, entry.coord(0));
        }
        // The regions behind the partitions (the one sequential solve, so
        // identical output for every `--threads` value).
        let report = computation.compute()?;
        for dim in &report.dims {
            println!(
                "  IR(dim {:>6}) = ({:+.4}, {:+.4})",
                dim.dim.0, dim.immutable.lo, dim.immutable.hi
            );
        }
        println!();
    }
    args.report_wall_clock(started);
    Ok(())
}
