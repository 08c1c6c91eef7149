//! Running a method over a workload and printing paper-style tables.

use crate::metrics::MethodMeasurement;
use immutable_regions::engine::{EngineResult, IrEngine};
use ir_core::iterative::compute_iterative;
use ir_core::parallel::run_queries;
use ir_core::{Algorithm, ComputationStats, RegionConfig};
use ir_datagen::QueryWorkload;
use ir_storage::{ColdStartInfo, TopKIndex};
use ir_types::IrResult;

fn accumulate_stats(total: &mut MethodMeasurement, index: &TopKIndex, stats: &ComputationStats) {
    total.evaluated_per_dim += stats.evaluated_per_dim_avg();
    total.cpu_time_ms += stats.cpu_time.as_secs_f64() * 1e3;
    total.io_time_ms += index.io_config().simulated_io_time(&stats.io).as_secs_f64() * 1e3;
    total.memory_kbytes += stats.memory_footprint_bytes as f64 / 1024.0;
    total.logical_reads += stats.io.logical_reads as f64;
    total.physical_reads += stats.io.physical_reads as f64;
}

/// Measures one algorithm/configuration over a workload on the sequential
/// path (per-query cold starts), averaging over the queries (the paper
/// averages over 100 queries per point).
pub fn measure_method(
    engine: &IrEngine,
    workload: &QueryWorkload,
    algorithm: Algorithm,
    config: RegionConfig,
    x: f64,
) -> EngineResult<MethodMeasurement> {
    let mut total = MethodMeasurement::new(algorithm, x);
    for query in workload.iter() {
        engine.cold_start();
        let report = engine.query_with(query, config)?;
        accumulate_stats(&mut total, engine.index(), &report.stats);
    }
    Ok(total.averaged_over(workload.len()))
}

/// Like [`measure_method`], but honouring the engine's worker count: with
/// more than one worker the whole workload is fanned out over the engine's
/// batch pool ([`IrEngine::query_batch_detailed`]) sharing one warm buffer
/// pool. The candidate/logical-read metrics are unchanged either way (they
/// are scheduling independent) while wall-clock time drops on a multi-core
/// host.
pub fn measure_method_threaded(
    engine: &IrEngine,
    workload: &QueryWorkload,
    algorithm: Algorithm,
    config: RegionConfig,
    x: f64,
) -> EngineResult<MethodMeasurement> {
    if engine.threads() <= 1 {
        return measure_method(engine, workload, algorithm, config, x);
    }
    engine.cold_start();
    let outcome = engine
        .with_config(config)
        .query_batch_detailed(workload.queries())?;
    let mut total = MethodMeasurement::new(algorithm, x);
    for report in &outcome.reports {
        accumulate_stats(&mut total, engine.index(), &report.stats);
    }
    Ok(total.averaged_over(workload.len()))
}

/// Measures the iterative re-evaluation baseline for `φ > 0` (Figure 15),
/// fanning the per-query re-evaluations out over the engine's workers (each
/// query's iterative chain stays sequential — it is inherently so — but
/// distinct queries run concurrently).
pub fn measure_iterative(
    engine: &IrEngine,
    workload: &QueryWorkload,
    algorithm: Algorithm,
    phi: usize,
    x: f64,
) -> EngineResult<MethodMeasurement> {
    let mut total = MethodMeasurement::new(algorithm, x);
    total.algorithm = format!("{algorithm}-iter");
    let index = engine.index();
    let queries = workload.queries();
    let reports = if engine.threads() <= 1 {
        let mut reports = Vec::with_capacity(queries.len());
        for query in workload.iter() {
            engine.cold_start();
            reports.push(compute_iterative(index, query, algorithm, phi)?);
        }
        reports
    } else {
        engine.cold_start();
        let results = run_queries(engine.threads(), queries.len(), "query", |qi| {
            compute_iterative(index, &queries[qi], algorithm, phi)
        });
        results.into_iter().collect::<IrResult<Vec<_>>>()?
    };
    for report in &reports {
        accumulate_stats(&mut total, index, &report.stats);
    }
    Ok(total.averaged_over(workload.len()))
}

/// A printable experiment table: one row per (method, x) pair.
#[derive(Clone, Debug, Default)]
pub struct ExperimentTable {
    /// Table title (figure id + setting).
    pub title: String,
    /// Label of the x-axis (e.g. "qlen", "k", "phi").
    pub x_label: String,
    /// The measurements.
    pub rows: Vec<MethodMeasurement>,
    /// How the engine serving the table came up — set by the runner from
    /// [`IrEngine::cold_start_info`] and stamped into the emitted series
    /// envelope (the all-zero `built` default until then).
    pub cold_start: ColdStartInfo,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Self {
        ExperimentTable {
            title: title.into(),
            x_label: x_label.into(),
            ..Default::default()
        }
    }

    /// Appends a measurement.
    pub fn push(&mut self, row: MethodMeasurement) {
        self.rows.push(row);
    }

    /// Renders the table in the layout used by `EXPERIMENTS.md`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n", self.title));
        out.push_str(&format!(
            "{:<12} {:>6} {:>16} {:>12} {:>12} {:>12} {:>14}\n",
            "method",
            self.x_label,
            "eval-cands/dim",
            "io-time-ms",
            "cpu-ms",
            "mem-KiB",
            "logical-reads"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>6} {:>16.2} {:>12.2} {:>12.3} {:>12.2} {:>14.1}\n",
                row.algorithm,
                format_x(row.x),
                row.evaluated_per_dim,
                row.io_time_ms,
                row.cpu_time_ms,
                row.memory_kbytes,
                row.logical_reads,
            ));
        }
        out
    }
}

fn format_x(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Prints a rendered table to stdout.
pub fn print_table(table: &ExperimentTable) {
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{BenchDataset, Scale};

    #[test]
    fn measure_method_produces_sane_averages() {
        let (engine, workload) = BenchDataset::Wsj
            .prepare_engine(Scale::Smoke, 2, 5, 2, 1, ir_storage::BackendKind::Mem)
            .unwrap();
        let scan = measure_method(
            &engine,
            &workload,
            Algorithm::Scan,
            RegionConfig::flat(Algorithm::Scan),
            2.0,
        )
        .unwrap();
        let cpt = measure_method(
            &engine,
            &workload,
            Algorithm::Cpt,
            RegionConfig::flat(Algorithm::Cpt),
            2.0,
        )
        .unwrap();
        assert!(scan.evaluated_per_dim >= cpt.evaluated_per_dim);
        assert!(scan.cpu_time_ms > 0.0);
        assert!(scan.logical_reads > 0.0);
    }

    #[test]
    fn threaded_measurements_are_worker_count_invariant() {
        let (engine, workload) = BenchDataset::St
            .prepare_engine(Scale::Smoke, 2, 5, 3, 2, ir_storage::BackendKind::Mem)
            .unwrap();
        let two = measure_method_threaded(
            &engine,
            &workload,
            Algorithm::Cpt,
            RegionConfig::flat(Algorithm::Cpt),
            2.0,
        )
        .unwrap();
        let four = measure_method_threaded(
            &engine.with_threads(4),
            &workload,
            Algorithm::Cpt,
            RegionConfig::flat(Algorithm::Cpt),
            2.0,
        )
        .unwrap();
        // The deterministic series are identical for every worker count —
        // this is what lets CI diff emitted JSON against a baseline.
        assert_eq!(two.evaluated_per_dim, four.evaluated_per_dim);
        assert_eq!(two.logical_reads, four.logical_reads);
        assert_eq!(two.memory_kbytes, four.memory_kbytes);
        assert!(two.evaluated_per_dim > 0.0);
        assert!(two.logical_reads > 0.0);
    }

    #[test]
    fn table_renders_all_rows() {
        let mut table = ExperimentTable::new("Figure X", "qlen");
        let mut row = MethodMeasurement::new(Algorithm::Cpt, 4.0);
        row.evaluated_per_dim = 3.5;
        table.push(row);
        let rendered = table.render();
        assert!(rendered.contains("Figure X"));
        assert!(rendered.contains("CPT"));
        assert!(rendered.contains("3.50"));
    }
}
