//! Figure 12: KB image features, k = 10, varying qlen ∈ {2, 12, 24, 36, 48}.

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
        "Figure 12 — KB-like image features, k = 10, varying qlen",
        "qlen",
    );
    let qlens: &[usize] = match scale {
        Scale::Smoke => &[2, 6, 12],
        _ => &[2, 12, 24, 36, 48],
    };
    for &qlen in qlens {
        let (engine, workload) =
            BenchDataset::Kb.prepare_engine_for(scale, qlen, 10, queries, &args)?;
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
    args.emit("figure12_kb_qlen", &table)?;
    args.report_wall_clock(started);
    Ok(())
}
