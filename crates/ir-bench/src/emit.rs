//! `BENCH_<figure>.json` emission and regression comparison.
//!
//! Each figure runner can serialize its printed table as a JSON series
//! (grouped per method, points in x order). A smoke-scale baseline of these
//! files is committed under `bench_baselines/`; `ci.sh` re-runs the
//! runners, emits fresh series and diffs them against the baseline with
//! [`compare_figures`]. The comparison checks *shape* (methods present, x
//! grids), the deterministic metrics (evaluated candidates, logical reads,
//! memory) exactly, and cross-method dominance — never wall-clock or
//! physical-read timings, which vary run to run.

use crate::metrics::{MethodMeasurement, MethodSeries};
use crate::runner::ExperimentTable;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One figure's emitted series: everything `BENCH_<figure>.json` holds.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Figure identifier (the `<figure>` part of the file name).
    pub figure: String,
    /// Label of the x-axis (`qlen`, `k`, `phi`).
    pub x_label: String,
    /// One series per method, in first-appearance order.
    pub series: Vec<MethodSeries>,
}

/// Groups a printed table into per-method series (points kept in x order of
/// appearance, methods in first-appearance order).
pub fn table_to_series(figure: &str, table: &ExperimentTable) -> FigureSeries {
    let mut series: Vec<MethodSeries> = Vec::new();
    for row in &table.rows {
        match series.iter_mut().find(|s| s.algorithm == row.algorithm) {
            Some(existing) => existing.points.push(row.clone()),
            None => series.push(MethodSeries {
                algorithm: row.algorithm.clone(),
                points: vec![row.clone()],
            }),
        }
    }
    FigureSeries {
        figure: figure.to_string(),
        x_label: table.x_label.clone(),
        series,
    }
}

/// The canonical file name of a figure's series.
fn bench_file_name(figure: &str) -> String {
    format!("BENCH_{figure}.json")
}

/// Writes the series as `BENCH_<figure>.json` under `dir` (created if
/// missing). Returns the written path.
pub fn write_figure(dir: &Path, series: &FigureSeries) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(bench_file_name(&series.figure));
    let json = serde_json::to_string(series)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Reads a previously emitted `BENCH_<figure>.json`.
pub fn read_figure(path: &Path) -> Result<FigureSeries, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))
}

fn point_violations(
    figure: &str,
    algorithm: &str,
    b: &MethodMeasurement,
    c: &MethodMeasurement,
) -> Vec<String> {
    let mut out = Vec::new();
    let at = format!("{figure}/{algorithm} @ x={}", b.x);
    if (b.x - c.x).abs() > 1e-9 {
        out.push(format!("{at}: x grid moved to {}", c.x));
        return out;
    }
    for (metric, baseline, candidate) in [
        (
            "evaluated_per_dim",
            b.evaluated_per_dim,
            c.evaluated_per_dim,
        ),
        ("logical_reads", b.logical_reads, c.logical_reads),
        ("memory_kbytes", b.memory_kbytes, c.memory_kbytes),
    ] {
        if candidate != baseline {
            out.push(format!(
                "{at}: {metric}: baseline {baseline}, candidate {candidate}"
            ));
        }
    }
    out
}

/// Compares a fresh emission against the committed baseline. Returns a
/// list of violations (empty = pass): shape changes (missing methods,
/// different x grids), any difference in a deterministic metric, and broken
/// cross-method dominance (a pruning/thresholding method evaluating more
/// than Scan). Wall-clock and physical-read metrics are never compared.
pub fn compare_figures(baseline: &FigureSeries, candidate: &FigureSeries) -> Vec<String> {
    let mut violations = Vec::new();
    let figure = &baseline.figure;
    if baseline.x_label != candidate.x_label {
        violations.push(format!(
            "{figure}: x-label changed from `{}` to `{}`",
            baseline.x_label, candidate.x_label
        ));
    }
    for base_series in &baseline.series {
        let Some(cand_series) = candidate
            .series
            .iter()
            .find(|s| s.algorithm == base_series.algorithm)
        else {
            violations.push(format!(
                "{figure}: method `{}` missing from candidate",
                base_series.algorithm
            ));
            continue;
        };
        if base_series.points.len() != cand_series.points.len() {
            violations.push(format!(
                "{figure}/{}: {} points in baseline, {} in candidate",
                base_series.algorithm,
                base_series.points.len(),
                cand_series.points.len()
            ));
            continue;
        }
        for (b, c) in base_series.points.iter().zip(&cand_series.points) {
            violations.extend(point_violations(figure, &base_series.algorithm, b, c));
        }
    }
    for extra in candidate
        .series
        .iter()
        .filter(|c| !baseline.series.iter().any(|b| b.algorithm == c.algorithm))
    {
        violations.push(format!(
            "{figure}: method `{}` not in baseline",
            extra.algorithm
        ));
    }
    // Cross-method dominance: at matching x, Scan is never cheaper in
    // evaluated candidates than the pruning/thresholding methods — the
    // shape every figure of the paper exhibits.
    if let Some(scan) = candidate.series.iter().find(|s| s.algorithm == "Scan") {
        for other in candidate
            .series
            .iter()
            .filter(|s| ["Prune", "Thres", "CPT"].contains(&s.algorithm.as_str()))
        {
            for point in &other.points {
                if let Some(scan_point) = scan.points.iter().find(|p| (p.x - point.x).abs() < 1e-9)
                {
                    if point.evaluated_per_dim > scan_point.evaluated_per_dim * (1.0 + 1e-9) + 1e-9
                    {
                        violations.push(format!(
                            "{figure}/{} @ x={}: evaluates more candidates than Scan ({:.4} > {:.4})",
                            other.algorithm,
                            point.x,
                            point.evaluated_per_dim,
                            scan_point.evaluated_per_dim
                        ));
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::Algorithm;

    fn sample_table() -> ExperimentTable {
        let mut table = ExperimentTable::new("Figure T", "qlen");
        for x in [2.0, 4.0] {
            for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
                let mut row = MethodMeasurement::new(algorithm, x);
                row.evaluated_per_dim = if algorithm == Algorithm::Scan {
                    10.0 * x
                } else {
                    3.0 * x
                };
                row.logical_reads = 100.0 * x;
                row.memory_kbytes = 1.5 * x;
                table.push(row);
            }
        }
        table
    }

    #[test]
    fn series_roundtrip_through_json() {
        let series = table_to_series("figureT", &sample_table());
        assert_eq!(series.series.len(), 2);
        assert_eq!(series.series[0].algorithm, "Scan");
        assert_eq!(series.series[0].points.len(), 2);
        let json = serde_json::to_string(&series).unwrap();
        let back: FigureSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(series, back);
    }

    #[test]
    fn write_and_read_figure_file() {
        let dir = tempfile::tempdir().unwrap();
        let series = table_to_series("figureT", &sample_table());
        let path = write_figure(dir.path(), &series).unwrap();
        assert!(path.ends_with("BENCH_figureT.json"));
        let back = read_figure(&path).unwrap();
        assert_eq!(series, back);
    }

    #[test]
    fn identical_series_pass_comparison() {
        let series = table_to_series("figureT", &sample_table());
        assert!(compare_figures(&series, &series).is_empty());
    }

    #[test]
    fn drift_and_shape_changes_are_flagged() {
        let baseline = table_to_series("figureT", &sample_table());

        // Metric drift.
        let mut drifted = baseline.clone();
        drifted.series[1].points[0].evaluated_per_dim *= 2.0;
        let violations = compare_figures(&baseline, &drifted);
        assert!(violations.iter().any(|v| v.contains("evaluated_per_dim")));

        // Missing method.
        let mut missing = baseline.clone();
        missing.series.pop();
        assert!(compare_figures(&baseline, &missing)
            .iter()
            .any(|v| v.contains("missing")));

        // Broken dominance: CPT above Scan.
        let mut broken = baseline.clone();
        broken.series[1].points[0].evaluated_per_dim = 1e6;
        assert!(compare_figures(&baseline, &broken)
            .iter()
            .any(|v| v.contains("more candidates than Scan")));

        // Wall-clock-style metrics are ignored entirely.
        let mut timed = baseline.clone();
        timed.series[0].points[0].cpu_time_ms = 1e9;
        timed.series[0].points[0].io_time_ms = 1e9;
        timed.series[0].points[0].physical_reads = 1e9;
        assert!(compare_figures(&baseline, &timed).is_empty());
    }

    #[test]
    fn zero_tolerance_demands_exact_deterministic_metrics() {
        let baseline = table_to_series("figureT", &sample_table());
        // A drift far below any rounding a formatter could introduce still
        // fails: the series are exact re-runs of seeded workloads.
        let mut hair = baseline.clone();
        hair.series[0].points[0].logical_reads += 0.001;
        let violations = compare_figures(&baseline, &hair);
        assert!(violations.iter().any(|v| v.contains("logical_reads")));
        // Identical series pass exactly; timing metrics stay exempt.
        let mut timed = baseline.clone();
        timed.series[0].points[0].cpu_time_ms = 1e9;
        timed.series[0].points[0].physical_reads = 1e9;
        assert!(compare_figures(&baseline, &timed).is_empty());
    }
}
