//! Command-line options shared by every figure/ablation runner binary.
//!
//! All runners understand
//!
//! * `--threads N` — worker count for the parallel execution layer; the
//!   default `1` is the sequential path. The deterministic series
//!   (evaluated candidates, logical reads, memory) are identical for every
//!   value; wall-clock time, physical reads and the simulated I/O time
//!   vary, because threaded runs share one warm buffer pool instead of
//!   cold-starting per query,
//! * `--backend {mem,file}` — which page store backs the index; file gets a
//!   scratch page directory. The deterministic series and the region output
//!   are identical for every backend (the backend-agreement suite proves it
//!   byte for byte); only wall-clock changes. Any other value exits 2,
//! * `--emit-json DIR` — write each printed table as a
//!   `BENCH_<figure>.json` series into `DIR` (for the CI baseline diff; see
//!   the `bench_diff` binary). The parsed backend and worker count are
//!   stamped into the series' policy metadata,
//! * `--fault-plan FILE` — run the figure against a fault-injecting device
//!   executing the JSON-serialized `FaultPlan` in `FILE` (chaos
//!   benchmarking: measure a figure under transient faults or injected
//!   latency). The plan is stamped into the emitted policy metadata;
//!   without the flag the stamp is `null`, which keeps the committed
//!   baselines byte-stable,
//! * `--snapshot-dir DIR` — serve the figure from a persisted index
//!   snapshot instead of a freshly built index: the runner builds the index
//!   once in memory, saves it into a unique staging directory under `DIR`,
//!   and reopens it zero-copy on the requested backend. Deterministic query
//!   output is identical by construction (the snapshot CI stage proves it
//!   with an exact diff); the `cold_start` stamp in the emitted series
//!   envelope flips from `built` to `snapshot` so a snapshot-served run is
//!   self-describing.
//!
//! Unknown arguments are ignored so the runners stay tolerant of harness
//! plumbing.

use crate::emit::{table_to_series, write_figure};
use crate::runner::ExperimentTable;
use immutable_regions::engine::EnginePolicy;
use ir_core::RegionConfig;
use ir_storage::{BackendKind, FaultPlan, StorageBackend};
use ir_types::{IrError, IrResult};
use std::path::PathBuf;
use std::time::Instant;

/// Materializes a backend kind as a concrete [`StorageBackend`], creating a
/// scratch page directory for the file backend.
///
/// The returned [`tempfile::TempDir`] guard must be held until the
/// engine/index is *built* (the store creates its page file inside it).
/// Dropping the guard afterwards is safe on Unix: the store keeps its
/// descriptor to the unlinked file, and the disk space is reclaimed when
/// the engine drops — the idiomatic scratch-file pattern the runners rely
/// on. (On Windows, where an open file cannot be unlinked, the scratch
/// directory may simply outlive the run in `%TEMP%`; the harness targets
/// Unix.)
pub(crate) fn materialize_backend(
    kind: BackendKind,
) -> IrResult<(StorageBackend, Option<tempfile::TempDir>)> {
    match kind {
        BackendKind::Mem => Ok((StorageBackend::Memory, None)),
        BackendKind::File => {
            let dir = tempfile::tempdir()
                .map_err(|e| IrError::Storage(format!("creating scratch page dir: {e}")))?;
            Ok((StorageBackend::Disk(dir.path().to_path_buf()), Some(dir)))
        }
    }
}

/// Parsed runner options.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// Worker count for query-batch parallel execution (1 = sequential,
    /// the default path).
    pub threads: usize,
    /// Which page-store backend the index is built on (default: mem).
    pub backend: BackendKind,
    /// Directory to write `BENCH_<figure>.json` series into, if any.
    pub emit_dir: Option<PathBuf>,
    /// Fault plan the index's device executes, loaded eagerly from the
    /// `--fault-plan` JSON file (default: none — a well-behaved device).
    pub fault_plan: Option<FaultPlan>,
    /// Staging root for snapshot-served runs (`--snapshot-dir`): when set,
    /// the workload helpers save the built index as a snapshot under this
    /// directory and serve the figure from the reopened snapshot.
    pub snapshot_dir: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_arg_list(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn from_arg_list<I: IntoIterator<Item = String>>(args: I) -> Self {
        // A flag matches only exactly (`--threads 4`) or in `=` form
        // (`--threads=4`); a value is never taken from a following `--flag`,
        // so a missing value cannot swallow the next option.
        fn flag_value(
            arg: &str,
            name: &str,
            args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
        ) -> Option<String> {
            if let Some(rest) = arg.strip_prefix(name) {
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.to_string());
                }
                if rest.is_empty() {
                    if args.peek().is_some_and(|next| !next.starts_with("--")) {
                        return args.next();
                    }
                    eprintln!("warning: {name} requires a value; flag ignored");
                }
            }
            None
        }

        // Loads and parses a fault-plan file eagerly: a chaos run with a
        // typo'd or stale plan must die loudly at startup, not silently
        // measure a healthy device.
        fn load_fault_plan(path: &str) -> FaultPlan {
            let json = match std::fs::read_to_string(path) {
                Ok(json) => json,
                Err(e) => {
                    eprintln!("error: --fault-plan: reading {path}: {e}");
                    std::process::exit(2);
                }
            };
            match serde_json::from_str(&json) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("error: --fault-plan: {path} is not a valid fault plan: {e}");
                    std::process::exit(2);
                }
            }
        }

        let mut threads = 1usize;
        let mut backend = BackendKind::default();
        let mut emit_dir: Option<PathBuf> = None;
        let mut fault_plan: Option<FaultPlan> = None;
        let mut snapshot_dir: Option<PathBuf> = None;
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if let Some(value) = flag_value(&arg, "--threads", &mut args) {
                match value.parse::<usize>() {
                    Ok(n) => threads = n.max(1),
                    Err(_) => eprintln!("warning: invalid --threads value `{value}`; ignored"),
                }
            } else if let Some(value) = flag_value(&arg, "--backend", &mut args) {
                match value.parse::<BackendKind>() {
                    Ok(kind) => backend = kind,
                    // An explicit flag deserves a hard error, never a
                    // fallback: deterministic output is backend-invariant
                    // by design, so a run that silently swapped mem in for
                    // a typo'd backend would look indistinguishable from
                    // the intended one and a CI backend matrix would pass
                    // vacuously.
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            } else if let Some(dir) = flag_value(&arg, "--emit-json", &mut args) {
                emit_dir = Some(PathBuf::from(dir));
            } else if let Some(path) = flag_value(&arg, "--fault-plan", &mut args) {
                fault_plan = Some(load_fault_plan(&path));
            } else if let Some(dir) = flag_value(&arg, "--snapshot-dir", &mut args) {
                snapshot_dir = Some(PathBuf::from(dir));
            }
        }
        BenchArgs {
            threads,
            backend,
            emit_dir,
            fault_plan,
            snapshot_dir,
        }
    }

    /// Materializes the parsed backend kind as a concrete
    /// [`StorageBackend`]; the file backend gets a scratch page directory
    /// whose guard must be held until the engine is built.
    pub fn storage_backend(&self) -> IrResult<(StorageBackend, Option<tempfile::TempDir>)> {
        materialize_backend(self.backend)
    }

    /// The engine-policy template stamped into emitted `BENCH_<figure>.json`
    /// files: `config` is the figure's serving template (see
    /// [`BenchArgs::emit`]; the per-series algorithm and the figure's
    /// x-axis parameter override it row by row), `threads` is the parsed
    /// worker count, `backend` the parsed storage backend and `fault_plan`
    /// the loaded chaos plan (`null` for ordinary runs, keeping the
    /// committed baselines stable).
    pub fn policy_with(&self, config: RegionConfig) -> EnginePolicy {
        EnginePolicy {
            config,
            threads: self.threads,
            backend: self.backend,
            fault_plan: self.fault_plan.clone(),
        }
    }

    /// Writes `table` as `BENCH_<figure>.json` into the emission directory
    /// (a no-op when `--emit-json` was not given), stamping the policy
    /// metadata with `config` — the figure's serving template. Pass the
    /// settings every row shares (e.g. composition-only mode for Figure
    /// 16); the per-series algorithm and the swept x-axis parameter are
    /// recorded in the series themselves. The cold-start stamp of the
    /// envelope comes from the table itself.
    pub fn emit(
        &self,
        figure: &str,
        table: &ExperimentTable,
        config: RegionConfig,
    ) -> IrResult<()> {
        let Some(dir) = &self.emit_dir else {
            return Ok(());
        };
        let series = table_to_series(figure, table, self.policy_with(config));
        let path = write_figure(dir, &series)
            .map_err(|e| IrError::Storage(format!("emitting {figure}: {e}")))?;
        eprintln!("emitted {}", path.display());
        Ok(())
    }

    /// Prints the total wall-clock time of the runner, labelled with the
    /// worker count and backend — the line the `--threads` speedup and
    /// backend comparisons read.
    pub fn report_wall_clock(&self, started: Instant) {
        println!(
            "wall-clock: {:.3} s (threads = {}, backend = {})",
            started.elapsed().as_secs_f64(),
            self.threads,
            self.backend
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_threads_and_emit_dir() {
        let args = BenchArgs::from_arg_list(strings(&["--threads", "4", "--emit-json", "/tmp/x"]));
        assert_eq!(args.threads, 4);
        assert_eq!(args.emit_dir, Some(PathBuf::from("/tmp/x")));
        let args = BenchArgs::from_arg_list(strings(&["--threads=2", "--emit-json=out"]));
        assert_eq!(args.threads, 2);
        assert_eq!(args.emit_dir, Some(PathBuf::from("out")));
    }

    #[test]
    fn parses_backend_and_defaults_to_mem() {
        assert_eq!(
            BenchArgs::from_arg_list(strings(&[])).backend,
            BackendKind::Mem
        );
        for (flag, kind) in [("mem", BackendKind::Mem), ("file", BackendKind::File)] {
            let args = BenchArgs::from_arg_list(strings(&["--backend", flag]));
            assert_eq!(args.backend, kind);
            let args = BenchArgs::from_arg_list(strings(&[&format!("--backend={flag}")]));
            assert_eq!(args.backend, kind);
        }
        // An unknown backend value on the flag is a hard process exit
        // (tests/backend_flag.rs runs a binary to check it); only a
        // *missing* flag falls back to the default.
    }

    #[test]
    fn storage_backend_materializes_scratch_dirs() {
        let mem = BenchArgs::default();
        let (backend, guard) = mem.storage_backend().unwrap();
        assert!(matches!(backend, StorageBackend::Memory));
        assert!(guard.is_none());

        let file = BenchArgs {
            backend: BackendKind::File,
            ..BenchArgs::default()
        };
        let (backend, guard) = file.storage_backend().unwrap();
        let StorageBackend::Disk(dir) = backend else {
            panic!("expected a disk backend, got {backend:?}");
        };
        assert!(dir.is_dir(), "scratch dir must exist while the guard lives");
        drop(guard);
        assert!(!dir.exists(), "dropping the guard removes the scratch dir");
    }

    #[test]
    fn policy_stamp_carries_backend_and_threads() {
        let args = BenchArgs::from_arg_list(strings(&["--threads", "3", "--backend", "file"]));
        let policy = args.policy_with(RegionConfig::default());
        assert_eq!(policy.threads, 3);
        assert_eq!(policy.backend, BackendKind::File);
    }

    #[test]
    fn parses_a_fault_plan_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("plan.json");
        let plan = FaultPlan::transient_reads(7, 3, 100);
        std::fs::write(&path, serde_json::to_string(&plan).unwrap()).unwrap();
        let args = BenchArgs::from_arg_list(strings(&[
            "--fault-plan",
            path.to_str().unwrap(),
            "--threads",
            "2",
        ]));
        assert_eq!(args.fault_plan, Some(plan.clone()));
        // The plan is stamped into the emitted policy metadata.
        let policy = args.policy_with(RegionConfig::default());
        assert_eq!(policy.fault_plan, Some(plan));
        // Without the flag there is no plan and the stamp is null.
        let args = BenchArgs::from_arg_list(strings(&[]));
        assert_eq!(args.fault_plan, None);
        assert!(args
            .policy_with(RegionConfig::default())
            .to_json()
            .contains("\"fault_plan\":null"));
    }

    #[test]
    fn parses_snapshot_dir_flag() {
        let args = BenchArgs::from_arg_list(strings(&["--snapshot-dir", "/tmp/snaps"]));
        assert_eq!(args.snapshot_dir, Some(PathBuf::from("/tmp/snaps")));
        let args = BenchArgs::from_arg_list(strings(&["--snapshot-dir=staged"]));
        assert_eq!(args.snapshot_dir, Some(PathBuf::from("staged")));
        assert_eq!(BenchArgs::from_arg_list(strings(&[])).snapshot_dir, None);
    }

    #[test]
    fn policy_stamps_the_noted_cold_start() {
        use ir_storage::{ColdStartInfo, ColdStartSource};

        // The stamps travel in the table, beside the policy — never in it.
        let args = BenchArgs::from_arg_list(strings(&[]));
        let mut table = ExperimentTable::new("Figure T", "qlen");
        let policy = args.policy_with(RegionConfig::default());
        let series = table_to_series("figureT", &table, policy.clone());
        assert_eq!(series.cold_start, ColdStartInfo::default());

        let info = ColdStartInfo {
            source: ColdStartSource::Snapshot,
            pages: 3,
            bytes: 100,
        };
        table.cold_start = info;
        let series = table_to_series("figureT", &table, policy.clone());
        assert_eq!(series.cold_start, info);
        assert_eq!(series.policy, policy);
        let json = serde_json::to_string(&series).unwrap();
        assert!(
            json.contains("},\"cold_start\":{\"source\":\"Snapshot\""),
            "{json}"
        );
    }

    #[test]
    fn unknown_arguments_are_ignored_and_threads_clamped() {
        let args = BenchArgs::from_arg_list(strings(&["--bench", "--threads", "0", "extra"]));
        assert_eq!(args.threads, 1);
        assert_eq!(args.emit_dir, None);
    }

    #[test]
    fn missing_value_does_not_swallow_the_next_flag() {
        let args = BenchArgs::from_arg_list(strings(&["--threads", "--emit-json", "out"]));
        assert_eq!(args.threads, 1, "bad --threads must be ignored");
        assert_eq!(
            args.emit_dir,
            Some(PathBuf::from("out")),
            "--emit-json must survive a value-less --threads before it"
        );
    }

    #[test]
    fn prefix_garbage_does_not_match_flags() {
        let args = BenchArgs::from_arg_list(strings(&["--threadsX", "4", "--emit-jsonish", "d"]));
        assert_eq!(args.threads, 1);
        assert_eq!(args.emit_dir, None);
    }
}
