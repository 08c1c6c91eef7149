//! Ablation study over three design choices of the implementation:
//!
//! 1. **TA probe strategy** — the weighted-key heuristic of Section 7.1
//!    versus plain round-robin: sorted/random accesses and candidate-list
//!    size per query.
//! 2. **Buffer-pool size** — how the physical-I/O gap between Scan and CPT
//!    opens up as the pool shrinks (the disk-resident regime of the paper)
//!    and closes when everything fits in memory (its Section 7.5,
//!    conclusion 4).
//! 3. **Pruning and thresholding in isolation** — the per-dimension pool
//!    sizes each technique leaves for Phase 2 on each dataset kind.
//!
//! Every measurement is one sequential solve per query. The ablation emits
//! no series and takes no option.
//!
//! Run with `cargo run --release -p ir-bench --bin ablation_design_choices`.

use immutable_regions::engine::IrEngine;
use ir_bench::{cli, report_wall_clock, simulated_io_ms, BenchDataset, Scale};
use ir_core::{Algorithm, RegionConfig};
use ir_topk::{ProbeStrategy, TaConfig, TaRun};
use ir_types::IrResult;
use std::time::Instant;

fn main() -> IrResult<()> {
    cli::reject_arguments(std::env::args().skip(1));
    let started = Instant::now();
    let scale = Scale::from_env();
    probe_strategy_ablation(scale)?;
    pool_size_ablation(scale)?;
    phase2_pool_ablation(scale)?;
    report_wall_clock(started);
    Ok(())
}

fn probe_strategy_ablation(scale: Scale) -> IrResult<()> {
    println!("=== Ablation 1: TA probe strategy (k = 10, qlen = 4) ===");
    println!(
        "{:<10} {:<14} {:>16} {:>16} {:>12}",
        "dataset", "strategy", "sorted accesses", "random accesses", "|C(q)|"
    );
    for dataset in [BenchDataset::Wsj, BenchDataset::Kb, BenchDataset::St] {
        let (engine, workload) = dataset.prepare_engine(scale, 4, 10, 5)?;
        for (name, strategy) in [
            ("round-robin", ProbeStrategy::RoundRobin),
            ("weighted-key", ProbeStrategy::WeightedKey),
        ] {
            let mut sorted = 0u64;
            let mut random = 0u64;
            let mut candidates = 0usize;
            for query in workload.iter() {
                let run = TaRun::execute(
                    engine.index(),
                    query,
                    &TaConfig {
                        probe_strategy: strategy,
                    },
                )?;
                sorted += run.stats().sorted_accesses;
                random += run.stats().random_accesses;
                candidates += run.candidates().len();
            }
            let n = workload.len() as f64;
            println!(
                "{:<10} {:<14} {:>16.1} {:>16.1} {:>12.1}",
                dataset.name(),
                name,
                sorted as f64 / n,
                random as f64 / n,
                candidates as f64 / n
            );
        }
    }
    println!();
    Ok(())
}

fn pool_size_ablation(scale: Scale) -> IrResult<()> {
    println!("=== Ablation 2: buffer-pool size (WSJ-like, k = 10, qlen = 4) ===");
    println!(
        "{:<12} {:<8} {:>16} {:>16} {:>14}",
        "pool pages", "method", "logical reads", "physical reads", "sim. I/O (ms)"
    );
    let dataset = BenchDataset::Wsj.generate(scale);
    let workload = BenchDataset::Wsj.workload_for(&dataset, 4, 10, 5)?;
    for pool_pages in [16usize, 128, 1024, 8192] {
        // A fresh engine per pool budget: the pool size is a build-time
        // storage choice, exactly what the engine builder exposes. The
        // dataset is borrowed, not cloned — only the index is rebuilt.
        let engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .pool_capacity(pool_pages)
            .build()?;
        for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
            let mut logical = 0u64;
            let mut physical = 0u64;
            for query in workload.iter() {
                engine.cold_start();
                let report = engine.query_with(query, RegionConfig::flat(algorithm))?;
                logical += report.stats.io.logical_reads;
                physical += report.stats.io.physical_reads;
            }
            let n = workload.len() as f64;
            let io_ms = simulated_io_ms(physical) / n;
            println!(
                "{:<12} {:<8} {:>16.1} {:>16.1} {:>14.2}",
                pool_pages,
                algorithm,
                logical as f64 / n,
                physical as f64 / n,
                io_ms
            );
        }
    }
    println!();
    Ok(())
}

fn phase2_pool_ablation(scale: Scale) -> IrResult<()> {
    println!("=== Ablation 3: evaluated candidates per technique (k = 10, qlen = 4) ===");
    println!(
        "{:<10} {:<8} {:>20} {:>16}",
        "dataset", "method", "evaluated cands/dim", "initial |C(q)|"
    );
    for dataset in [BenchDataset::Wsj, BenchDataset::Kb, BenchDataset::St] {
        let (engine, workload) = dataset.prepare_engine(scale, 4, 10, 5)?;
        for algorithm in Algorithm::ALL {
            let mut evaluated = 0.0;
            let mut initial = 0usize;
            for query in workload.iter() {
                let report = engine.query_with(query, RegionConfig::flat(algorithm))?;
                evaluated += report.stats.evaluated_per_dim_avg();
                initial += report.stats.initial_candidates;
            }
            let n = workload.len() as f64;
            println!(
                "{:<10} {:<8} {:>20.2} {:>16.1}",
                dataset.name(),
                algorithm,
                evaluated / n,
                initial as f64 / n
            );
        }
    }
    Ok(())
}
