//! Figure 13: WSJ and ST, qlen = 4, varying k ∈ {10, 20, 40, 60, 80}.

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
    let ks: &[usize] = match scale {
        Scale::Smoke => &[10, 40, 80],
        _ => &[10, 20, 40, 60, 80],
    };
    for dataset in [BenchDataset::Wsj, BenchDataset::St] {
        let mut table = ExperimentTable::new(
            format!("Figure 13 — {} data, qlen = 4, varying k", dataset.name()),
            "k",
        );
        for &k in ks {
            let (engine, workload) = dataset.prepare_engine_for(scale, 4, k, queries, &args)?;
            table.cold_start = engine.cold_start_info();
            for algorithm in Algorithm::ALL {
                let row = measure_method_threaded(
                    &engine,
                    &workload,
                    algorithm,
                    RegionConfig::flat(algorithm),
                    k as f64,
                )?;
                table.push(row);
            }
        }
        print_table(&table);
        let figure_id = match dataset {
            BenchDataset::Wsj => "figure13_vary_k_wsj",
            _ => "figure13_vary_k_st",
        };
        args.emit(figure_id, &table)?;
    }
    args.report_wall_clock(started);
    Ok(())
}
