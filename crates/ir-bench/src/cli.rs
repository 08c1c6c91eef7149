//! The one command-line option of the `figures` runner.
//!
//! `--emit-json DIR` (or `--emit-json=DIR`) writes each printed table as a
//! `BENCH_<figure>.json` series into `DIR`, for the CI baseline diff (see
//! the `bench_diff` binary); it follows the figure id. `figure06_partitions`
//! and `ablation_design_choices` emit no series and take no option
//! ([`reject_arguments`]). Any other argument exits 2 naming it, before any
//! work starts.
//!
//! Every runner measures what the paper's Section 7.1 charges: each query
//! of a workload runs on its own after a cold start, one thread, on a
//! mem-built index. Backend, worker-count and snapshot invariance of the
//! series is proven in the law table (`tests/laws/matrix.rs`), not by
//! re-running the figures.

use crate::emit::{table_to_series, write_figure};
use crate::runner::ExperimentTable;
use ir_types::{IrError, IrResult};
use std::path::PathBuf;

/// How the one accepted option is spelled in error messages.
const USAGE: &str = "the one option is --emit-json DIR";

/// Parsed runner options.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// Directory to write `BENCH_<figure>.json` series into, if any.
    pub emit_dir: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses a runner's arguments (the process arguments after the program
    /// name, and after the figure id for `figures`). Any argument other
    /// than `--emit-json DIR` exits 2 naming it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`BenchArgs::parse`] without the exit: the error names the offending
    /// argument and the one accepted option.
    fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut emit_dir = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let value = if arg == "--emit-json" {
                // A value is never taken from a following `--flag`, so a
                // missing value cannot swallow the next argument.
                args.next().filter(|v| !v.starts_with("--"))
            } else if let Some(value) = arg.strip_prefix("--emit-json=") {
                Some(value.to_string())
            } else {
                return Err(format!("unknown argument `{arg}` ({USAGE})"));
            };
            match value.filter(|v| !v.is_empty()) {
                Some(dir) => emit_dir = Some(PathBuf::from(dir)),
                None => return Err(format!("`--emit-json` needs a directory ({USAGE})")),
            }
        }
        Ok(BenchArgs { emit_dir })
    }

    /// Writes `table` as `BENCH_<figure>.json` into the emission directory
    /// (a no-op when `--emit-json` was not given).
    pub fn emit(&self, figure: &str, table: &ExperimentTable) -> IrResult<()> {
        let Some(dir) = &self.emit_dir else {
            return Ok(());
        };
        let path = write_figure(dir, &table_to_series(figure, table))
            .map_err(|e| IrError::Storage(format!("emitting {figure}: {e}")))?;
        eprintln!("emitted {}", path.display());
        Ok(())
    }
}

/// Checks the arguments of a runner that emits no series and so takes no
/// option: any argument exits 2 naming it.
pub fn reject_arguments(args: impl IntoIterator<Item = String>) {
    if let Some(arg) = args.into_iter().next() {
        eprintln!("error: unknown argument `{arg}` (this runner takes no option)");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_emit_dir_in_both_forms() {
        assert_eq!(parse(&[]).unwrap().emit_dir, None);
        let args = parse(&["--emit-json", "/tmp/x"]).unwrap();
        assert_eq!(args.emit_dir, Some(PathBuf::from("/tmp/x")));
        let args = parse(&["--emit-json=out"]).unwrap();
        assert_eq!(args.emit_dir, Some(PathBuf::from("out")));
    }

    #[test]
    fn unknown_arguments_are_rejected_naming_the_one_option() {
        for bad in ["--fault-plan", "--bench", "-t", "extra"] {
            let err = parse(&["--emit-json", "out", bad, "2"]).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert!(err.contains("--emit-json DIR"), "{err}");
        }
    }

    #[test]
    fn missing_value_does_not_swallow_the_next_flag() {
        for args in [
            &["--emit-json"][..],
            &["--emit-json", "--fault-plan"],
            &["--emit-json="],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("`--emit-json` needs a directory"), "{err}");
        }
    }

    #[test]
    fn prefix_garbage_does_not_match_flags() {
        for bad in ["--emit-jsonish", "--emit-jsn"] {
            let err = parse(&[bad, "d"]).unwrap_err();
            assert!(err.contains(&format!("unknown argument `{bad}`")), "{err}");
        }
    }
}
