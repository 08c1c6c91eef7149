//! Figure 10: WSJ corpus, k = 10, varying qlen ∈ {2, 4, 6, 8, 10}.
//!
//! Prints, per method and query length, the average number of evaluated
//! candidates per dimension, the I/O time, the CPU time and the memory
//! footprint — the four panels of Figure 10.

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
    let mut table =
        ExperimentTable::new("Figure 10 — WSJ-like corpus, k = 10, varying qlen", "qlen");
    for qlen in [2usize, 4, 6, 8, 10] {
        let (engine, workload) =
            BenchDataset::Wsj.prepare_engine_for(scale, qlen, 10, queries, &args)?;
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
    args.emit("figure10_wsj_qlen", &table)?;
    args.report_wall_clock(started);
    Ok(())
}
