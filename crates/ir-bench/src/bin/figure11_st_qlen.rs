//! Figure 11: ST correlated data, k = 10, varying qlen ∈ {2, 4, 6, 8, 10}.

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
    let mut table = ExperimentTable::new(
        "Figure 11 — ST correlated data, k = 10, varying qlen",
        "qlen",
    );
    for qlen in [2usize, 4, 6, 8, 10] {
        let (engine, workload) =
            BenchDataset::St.prepare_engine_for(scale, qlen, 10, queries, &args)?;
        table.cold_start = engine.cold_start_info();
        for algorithm in Algorithm::ALL {
            let row = measure_method_threaded(
                &engine,
                &workload,
                algorithm,
                RegionConfig::flat(algorithm),
                qlen as f64,
            )?;
            table.push(row);
        }
    }
    print_table(&table);
    args.emit("figure11_st_qlen", &table)?;
    args.report_wall_clock(started);
    Ok(())
}
