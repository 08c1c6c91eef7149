//! Figure 14: WSJ, k = 10, qlen = 4, varying φ ∈ {0, 10, 20, 30, 40}.

use immutable_regions::engine::EngineResult;
use ir_bench::{
    measure_method_threaded, print_table, BenchArgs, BenchDataset, ExperimentTable, Scale,
};
use ir_core::{Algorithm, RegionConfig};
use std::time::Instant;

fn main() -> EngineResult<()> {
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let queries = BenchDataset::queries_per_point(scale);
    let phis: &[usize] = match scale {
        Scale::Smoke => &[0, 5, 10],
        _ => &[0, 10, 20, 30, 40],
    };
    let (engine, workload) = BenchDataset::Wsj.prepare_engine_for(scale, 4, 10, queries, &args)?;
    let mut table = ExperimentTable::new(
        "Figure 14 — WSJ-like corpus, k = 10, qlen = 4, varying φ (one-off)",
        "phi",
    );
    table.cold_start = engine.cold_start_info();
    for &phi in phis {
        for algorithm in Algorithm::ALL {
            let row = measure_method_threaded(
                &engine,
                &workload,
                algorithm,
                RegionConfig::with_phi(algorithm, phi),
                phi as f64,
            )?;
            table.push(row);
        }
    }
    print_table(&table);
    args.emit("figure14_vary_phi", &table)?;
    args.report_wall_clock(started);
    Ok(())
}
