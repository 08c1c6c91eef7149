//! The parts of `BENCHMARK.json` the benchmark's own tools read: metric
//! names, units, directions and bounds, workload names and the run length.

use crate::json::{self, Json};
use std::path::Path;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference value the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(document: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let malformed = || format!("malformed `{key}` entry in BENCHMARK.json");
    json::as_seq(json::get(&document.0, key).ok_or_else(malformed)?)
        .iter()
        .map(|entry| {
            let text = |field| {
                json::get(entry, field)
                    .and_then(json::as_str)
                    .map(str::to_string)
                    .ok_or_else(malformed)
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: json::get(entry, "bound").and_then(json::as_f64),
            })
        })
        .collect()
}

impl Contract {
    pub fn read(path: &Path) -> Result<Contract, String> {
        let document = Json::read(path)?;
        let run_seconds = json::get(&document.0, "run_seconds")
            .and_then(json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")? as u64;
        let workloads = json::as_seq(json::get(&document.0, "workloads").ok_or("no workloads")?)
            .iter()
            .filter_map(|w| json::get(w, "name").and_then(json::as_str))
            .map(str::to_string)
            .collect();
        Ok(Contract {
            run_seconds,
            workloads,
            end_to_end: metric_specs(&document, "end_to_end")?,
            per_layer: metric_specs(&document, "per_layer")?,
        })
    }
}
