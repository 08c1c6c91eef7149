//! Figures 10–16: the table runners of the paper's evaluation, one spec per
//! figure.
//!
//! `figures <id> [--threads N] [--backend B] [--emit-json DIR] …` prints,
//! per method and x-axis value, the average number of evaluated candidates
//! per dimension, the I/O time, the CPU time and the memory footprint — the
//! four panels of each figure — and emits each printed table as
//! `BENCH_<series id>.json`. An unknown or missing id exits 2 listing the
//! valid ones.

use immutable_regions::engine::EngineResult;
use ir_bench::{
    measure_iterative, measure_method_threaded, print_table, BenchArgs, BenchDataset,
    ExperimentTable, Scale,
};
use ir_core::{Algorithm, RegionConfig};
use std::time::Instant;

/// The workload parameter a figure sweeps; the other two stay at the
/// paper's defaults (qlen = 4, k = 10, φ = 0).
#[derive(Clone, Copy)]
enum Axis {
    Qlen,
    K,
    Phi,
}

struct Figure {
    id: &'static str,
    axis: Axis,
    /// X-axis values at the `default` and `full` scales (the paper's).
    xs: &'static [usize],
    /// X-axis values at the `smoke` scale.
    smoke_xs: &'static [usize],
    /// One printed and emitted table per entry: series id, dataset, title.
    tables: &'static [(&'static str, BenchDataset, &'static str)],
    /// Only changes of the result composition count as perturbations.
    composition_only: bool,
    /// Prune and CPT only, each one-off row followed by its iterative
    /// re-evaluation twin, over at most 10 queries per point.
    iterative: bool,
}

const QLENS: &[usize] = &[2, 4, 6, 8, 10];

const FIGURES: &[Figure] = &[
    Figure {
        id: "figure10_wsj_qlen",
        axis: Axis::Qlen,
        xs: QLENS,
        smoke_xs: QLENS,
        tables: &[(
            "figure10_wsj_qlen",
            BenchDataset::Wsj,
            "Figure 10 — WSJ-like corpus, k = 10, varying qlen",
        )],
        composition_only: false,
        iterative: false,
    },
    Figure {
        id: "figure11_st_qlen",
        axis: Axis::Qlen,
        xs: QLENS,
        smoke_xs: QLENS,
        tables: &[(
            "figure11_st_qlen",
            BenchDataset::St,
            "Figure 11 — ST correlated data, k = 10, varying qlen",
        )],
        composition_only: false,
        iterative: false,
    },
    Figure {
        id: "figure12_kb_qlen",
        axis: Axis::Qlen,
        xs: &[2, 12, 24, 36, 48],
        smoke_xs: &[2, 6, 12],
        tables: &[(
            "figure12_kb_qlen",
            BenchDataset::Kb,
            "Figure 12 — KB-like image features, k = 10, varying qlen",
        )],
        composition_only: false,
        iterative: false,
    },
    Figure {
        id: "figure13_vary_k",
        axis: Axis::K,
        xs: &[10, 20, 40, 60, 80],
        smoke_xs: &[10, 40, 80],
        tables: &[
            (
                "figure13_vary_k_wsj",
                BenchDataset::Wsj,
                "Figure 13 — WSJ-like data, qlen = 4, varying k",
            ),
            (
                "figure13_vary_k_st",
                BenchDataset::St,
                "Figure 13 — ST data, qlen = 4, varying k",
            ),
        ],
        composition_only: false,
        iterative: false,
    },
    Figure {
        id: "figure14_vary_phi",
        axis: Axis::Phi,
        xs: &[0, 10, 20, 30, 40],
        smoke_xs: &[0, 5, 10],
        tables: &[(
            "figure14_vary_phi",
            BenchDataset::Wsj,
            "Figure 14 — WSJ-like corpus, k = 10, qlen = 4, varying φ (one-off)",
        )],
        composition_only: false,
        iterative: false,
    },
    Figure {
        id: "figure15_oneoff_vs_iterative",
        axis: Axis::Phi,
        xs: &[1, 5, 10, 20, 40],
        smoke_xs: &[1, 3, 5],
        tables: &[(
            "figure15_oneoff_vs_iterative",
            BenchDataset::Wsj,
            "Figure 15 — one-off vs iterative processing, WSJ-like, k = 10, qlen = 4",
        )],
        composition_only: false,
        iterative: true,
    },
    Figure {
        id: "figure16_composition_only",
        axis: Axis::Qlen,
        xs: QLENS,
        smoke_xs: QLENS,
        tables: &[(
            "figure16_composition_only",
            BenchDataset::Wsj,
            "Figure 16 — WSJ-like corpus, composition-only perturbations, k = 10, varying qlen",
        )],
        composition_only: true,
        iterative: false,
    },
];

fn main() -> EngineResult<()> {
    let id = std::env::args().nth(1);
    let Some(figure) = FIGURES.iter().find(|f| Some(f.id) == id.as_deref()) else {
        eprintln!("usage: figures <id> [--threads N] [--backend B] [--emit-json DIR] …");
        eprintln!("valid ids:");
        for figure in FIGURES {
            eprintln!("  {}", figure.id);
        }
        std::process::exit(2);
    };
    let args = BenchArgs::parse();
    let started = Instant::now();
    let scale = Scale::from_env();
    let xs = match scale {
        Scale::Smoke => figure.smoke_xs,
        _ => figure.xs,
    };
    // Each (qlen, k) point is its own workload and engine; a φ sweep serves
    // every φ from one.
    let (points, phis): (Vec<(usize, usize)>, &[usize]) = match figure.axis {
        Axis::Qlen => (xs.iter().map(|&qlen| (qlen, 10)).collect(), &[0]),
        Axis::K => (xs.iter().map(|&k| (4, k)).collect(), &[0]),
        Axis::Phi => (vec![(4, 10)], xs),
    };
    let x_label = match figure.axis {
        Axis::Qlen => "qlen",
        Axis::K => "k",
        Axis::Phi => "phi",
    };
    let (algorithms, queries): (&[Algorithm], usize) = if figure.iterative {
        (
            &[Algorithm::Prune, Algorithm::Cpt],
            BenchDataset::queries_per_point(scale).min(10),
        )
    } else {
        (&Algorithm::ALL, BenchDataset::queries_per_point(scale))
    };
    let flavour = |config: RegionConfig| {
        if figure.composition_only {
            config.composition_only()
        } else {
            config
        }
    };

    for (series_id, dataset, title) in figure.tables {
        let mut table = ExperimentTable::new(*title, x_label);
        for &(qlen, k) in &points {
            let (engine, workload) = dataset.prepare_engine_for(scale, qlen, k, queries, &args)?;
            table.cold_start = engine.cold_start_info();
            for &phi in phis {
                let x = match figure.axis {
                    Axis::Qlen => qlen,
                    Axis::K => k,
                    Axis::Phi => phi,
                } as f64;
                for &algorithm in algorithms {
                    table.push(measure_method_threaded(
                        &engine,
                        &workload,
                        algorithm,
                        flavour(RegionConfig::with_phi(algorithm, phi)),
                        x,
                    )?);
                    if figure.iterative {
                        table.push(measure_iterative(&engine, &workload, algorithm, phi, x)?);
                    }
                }
            }
        }
        print_table(&table);
        args.emit_with(series_id, &table, flavour(RegionConfig::default()))?;
    }
    args.report_wall_clock(started);
    Ok(())
}
