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
//! `figures` takes one option, `--emit-json DIR`: write each table as
//! `BENCH_<figure>.json` for the CI baseline diff performed by the
//! `bench_diff` binary. `figure06_partitions` and `ablation_design_choices`
//! emit no series and take no option. Any other argument exits 2. Every
//! runner measures
//! each query on its own after a cold start, on a mem-built engine. See
//! [`cli`] and [`emit`].
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
pub use emit::{compare_figures, read_figure, table_to_series, write_figure, FigureSeries};
pub use metrics::{MethodMeasurement, MethodSeries};
pub use runner::{
    measure_iterative, measure_method, print_table, report_wall_clock, simulated_io_ms,
    ExperimentTable,
};
pub use workloads::{BenchDataset, Scale};
