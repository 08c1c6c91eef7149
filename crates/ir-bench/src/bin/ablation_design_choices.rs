//! Ablation study over the design choices called out in DESIGN.md:
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
//! Every measurement is one sequential solve per query, so the printed
//! numbers are identical for every `--threads` value.
//!
//! Run with `cargo run --release -p ir-bench --bin ablation_design_choices`.

use immutable_regions::engine::{EngineResult, IrEngine};
use ir_bench::{BenchArgs, BenchDataset, Scale};
use ir_core::{Algorithm, RegionConfig};
use ir_storage::IoConfig;
use ir_topk::{ProbeStrategy, TaConfig, TaRun};
use std::time::Instant;

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    probe_strategy_ablation(scale, &args)?;
    pool_size_ablation(scale, &args)?;
    phase2_pool_ablation(scale, &args)?;
    args.report_wall_clock(started);
    Ok(())
}

fn probe_strategy_ablation(scale: Scale, args: &BenchArgs) -> EngineResult<()> {
    println!("=== Ablation 1: TA probe strategy (k = 10, qlen = 4) ===");
    println!(
        "{:<10} {:<14} {:>16} {:>16} {:>12}",
        "dataset", "strategy", "sorted accesses", "random accesses", "|C(q)|"
    );
    for dataset in [BenchDataset::Wsj, BenchDataset::Kb, BenchDataset::St] {
        let (engine, workload) = dataset.prepare_engine_for(scale, 4, 10, 5, args)?;
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

fn pool_size_ablation(scale: Scale, args: &BenchArgs) -> EngineResult<()> {
    println!("=== Ablation 2: buffer-pool size (WSJ-like, k = 10, qlen = 4) ===");
    println!(
        "{:<12} {:<8} {:>16} {:>16} {:>14}",
        "pool pages", "method", "logical reads", "physical reads", "sim. I/O (ms)"
    );
    let dataset = BenchDataset::Wsj.generate(scale);
    let workload = {
        let (_, workload) = BenchDataset::Wsj.prepare(scale, 4, 10, 5)?;
        workload
    };
    for pool_pages in [16usize, 128, 1024, 8192] {
        // A fresh engine per pool budget: the pool size is a build-time
        // storage choice, exactly what the engine builder exposes. The
        // dataset is borrowed, not cloned — only the index is rebuilt.
        let (storage, scratch) = args.storage_backend()?;
        let engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .backend(storage)
            .pool_capacity(pool_pages)
            .io_config(IoConfig::default())
            .threads(args.threads)
            .build()?;
        drop(scratch);
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
            let io_ms =
                engine.index().io_config().page_read_latency.as_secs_f64() * 1e3 * physical as f64
                    / n;
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

fn phase2_pool_ablation(scale: Scale, args: &BenchArgs) -> EngineResult<()> {
    println!("=== Ablation 3: evaluated candidates per technique (k = 10, qlen = 4) ===");
    println!(
        "{:<10} {:<8} {:>20} {:>16}",
        "dataset", "method", "evaluated cands/dim", "initial |C(q)|"
    );
    for dataset in [BenchDataset::Wsj, BenchDataset::Kb, BenchDataset::St] {
        let (engine, workload) = dataset.prepare_engine_for(scale, 4, 10, 5, args)?;
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
