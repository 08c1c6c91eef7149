//! Figure 15: one-off φ > 0 computation versus iterative re-evaluation of
//! single-region requests, for Prune and CPT.

use immutable_regions::engine::EngineResult;
use ir_bench::{
    measure_iterative, measure_method_threaded, print_table, BenchArgs, BenchDataset,
    ExperimentTable, Scale,
};
use ir_core::{Algorithm, RegionConfig};
use std::time::Instant;

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let queries = BenchDataset::queries_per_point(scale).min(10);
    let phis: &[usize] = match scale {
        Scale::Smoke => &[1, 3, 5],
        _ => &[1, 5, 10, 20, 40],
    };
    let (engine, workload) = BenchDataset::Wsj.prepare_engine_for(scale, 4, 10, queries, &args)?;
    let mut table = ExperimentTable::new(
        "Figure 15 — one-off vs iterative processing, WSJ-like, k = 10, qlen = 4",
        "phi",
    );
    table.cold_start = engine.cold_start_info();
    for &phi in phis {
        for algorithm in [Algorithm::Prune, Algorithm::Cpt] {
            table.push(measure_method_threaded(
                &engine,
                &workload,
                algorithm,
                RegionConfig::with_phi(algorithm, phi),
                phi as f64,
            )?);
            table.push(measure_iterative(
                &engine, &workload, algorithm, phi, phi as f64,
            )?);
        }
    }
    print_table(&table);
    args.emit("figure15_oneoff_vs_iterative", &table)?;
    args.report_wall_clock(started);
    Ok(())
}
