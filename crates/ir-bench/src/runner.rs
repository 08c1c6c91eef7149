//! Running a method over a workload and printing paper-style tables.

use crate::metrics::MethodMeasurement;
use immutable_regions::engine::IrEngine;
use ir_core::iterative::compute_iterative;
use ir_core::{Algorithm, ComputationStats, RegionConfig};
use ir_datagen::QueryWorkload;
use ir_types::IrResult;
use std::time::{Duration, Instant};

/// Simulated latency of one physical page read, in nanoseconds: ~5 ms, a
/// random read on the magnetic disks of the paper's 2012 testbed (its
/// Section 7.1 charges I/O per page read).
const PAGE_READ_NANOS: u64 = 5_000_000;

/// Simulated time of `physical_reads` page reads in milliseconds at 5 ms
/// per read, saturating at `u64::MAX` nanoseconds — the one price behind
/// every `io-time-ms` column.
pub fn simulated_io_ms(physical_reads: u64) -> f64 {
    Duration::from_nanos(PAGE_READ_NANOS.saturating_mul(physical_reads)).as_secs_f64() * 1e3
}

fn accumulate_stats(total: &mut MethodMeasurement, stats: &ComputationStats) {
    total.evaluated_per_dim += stats.evaluated_per_dim_avg();
    total.cpu_time_ms += stats.cpu_time.as_secs_f64() * 1e3;
    total.io_time_ms += simulated_io_ms(stats.io.physical_reads);
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
) -> IrResult<MethodMeasurement> {
    let mut total = MethodMeasurement::new(algorithm, x);
    for query in workload.iter() {
        engine.cold_start();
        let report = engine.query_with(query, config)?;
        accumulate_stats(&mut total, &report.stats);
    }
    Ok(total.averaged_over(workload.len()))
}

/// Measures the iterative re-evaluation baseline for `φ > 0` (Figure 15):
/// each query's chain of re-evaluations after its own cold start, like
/// [`measure_method`].
pub fn measure_iterative(
    engine: &IrEngine,
    workload: &QueryWorkload,
    algorithm: Algorithm,
    phi: usize,
    x: f64,
) -> IrResult<MethodMeasurement> {
    let mut total = MethodMeasurement::new(algorithm, x);
    total.algorithm = format!("{algorithm}-iter");
    for query in workload.iter() {
        engine.cold_start();
        let report = compute_iterative(engine.index(), query, algorithm, phi)?;
        accumulate_stats(&mut total, &report.stats);
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

    /// Renders the table: one row per measurement, the paper's four panels
    /// as columns plus logical reads.
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

/// Prints the runner's total wall-clock time since `started`.
pub fn report_wall_clock(started: Instant) {
    println!("wall-clock: {:.3} s", started.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{BenchDataset, Scale};

    #[test]
    fn latency_model_scales_with_physical_reads() {
        assert_eq!(simulated_io_ms(0), 0.0);
        assert_eq!(simulated_io_ms(10), 50.0);
    }

    #[test]
    fn latency_model_does_not_wrap_past_u32_reads() {
        let reads = u32::MAX as u64 + 2;
        assert_eq!(
            simulated_io_ms(reads),
            Duration::from_nanos(PAGE_READ_NANOS * reads).as_secs_f64() * 1e3
        );
        assert!(simulated_io_ms(reads) > simulated_io_ms(u32::MAX as u64));
        // An absurd count saturates instead of overflowing.
        assert_eq!(
            simulated_io_ms(u64::MAX),
            Duration::from_nanos(u64::MAX).as_secs_f64() * 1e3
        );
    }

    #[test]
    fn io_time_is_priced_per_physical_read() {
        // A pool far smaller than the index: every cold query reads pages
        // from the device, and each read costs the one page latency.
        let dataset = BenchDataset::Wsj.generate(Scale::Smoke);
        let workload = BenchDataset::Wsj.workload_for(&dataset, 2, 5, 3).unwrap();
        let engine = IrEngine::builder()
            .dataset_ref(&dataset)
            .pool_capacity(8)
            .build()
            .unwrap();
        let measured = measure_method(
            &engine,
            &workload,
            Algorithm::Cpt,
            RegionConfig::flat(Algorithm::Cpt),
            2.0,
        )
        .unwrap();
        assert!(measured.physical_reads > 0.0);
        assert!(
            (measured.io_time_ms - 5.0 * measured.physical_reads).abs() < 1e-6,
            "{measured:?}"
        );
    }

    #[test]
    fn measure_method_produces_sane_averages() {
        let (engine, workload) = BenchDataset::Wsj
            .prepare_engine(Scale::Smoke, 2, 5, 2)
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
