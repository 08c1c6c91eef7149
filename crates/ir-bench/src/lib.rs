//! # ir-bench
//!
//! The experiment harness reproducing the evaluation section of the paper
//! (Figures 6 and 10–16). The runner binaries in `src/bin/` — `figures <id>`
//! for Figures 10–16, `figure06_partitions`, `ablation_design_choices` —
//! print the same series the paper plots (method × x-axis value → metric),
//! and `bench_diff` gates emitted series against the committed baselines.
//! Wall-clock measurement lives in the standalone `benchmark/` package.
//!
//! The scale of the generated datasets is controlled by the
//! `IR_BENCH_SCALE` environment variable: `smoke` (seconds, CI-friendly —
//! also what an unset variable means), `default` (minutes, laptop-scale),
//! or `full` (the paper's cardinalities). Any other value exits 2.
//!
//! Every runner additionally accepts `--threads N` (fan the workload out
//! over N workers of the parallel execution layer; the measured candidate
//! and logical-read series are identical for every N),
//! `--backend {mem,file}` (which page store backs the index — the series
//! are byte-identical across backends), `--emit-json DIR` (write each
//! table as `BENCH_<figure>.json` for the CI baseline diff performed by the
//! `bench_diff` binary) and `--snapshot-dir DIR` (serve the figure from a
//! persisted index snapshot reopened zero-copy instead of a freshly built
//! index; deterministic output is identical, and the emitted series
//! envelope's `cold_start` stamp records the provenance). Every runner
//! gets its engine from [`BenchArgs::engine`]. See [`cli`] and [`emit`].
//!
//! The I/O-time column prices each physical page read at one fixed 5 ms
//! ([`simulated_io_ms`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod emit;
pub mod metrics;
pub mod runner;
pub mod workloads;

pub use cli::BenchArgs;
pub use emit::{
    compare_figures, compare_figures_with_tolerance, read_figure, table_to_series, write_figure,
    FigureSeries,
};
pub use metrics::{MethodMeasurement, MethodSeries};
pub use runner::{
    measure_iterative, measure_method, measure_method_threaded, print_table, simulated_io_ms,
    ExperimentTable,
};
pub use workloads::{BenchDataset, Scale};
