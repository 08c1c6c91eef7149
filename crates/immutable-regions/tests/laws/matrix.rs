//! The law table: Scan, Prune, Thres and CPT compute identical regions
//! (§5–§6), and no backend, worker count or snapshot source changes a
//! report.
//!
//! Each test below is one row: a seeded stream of cases, the region
//! configurations it runs, and the cells that serve them. Every cell's
//! `query_batch` reports — and its `query` reports when it runs one worker
//! — must equal, byte for byte, the sequential [`RegionComputation`] on a
//! mem-built index: the same regions and the same counters, except for
//! `cpu_time` and the physical reads, which depend on the clock and the
//! cache. Rows marked `exhaustive` also check every report against the
//! O(n²) [`ExhaustiveOracle`] at 1e-9. The cells of one case share one
//! engine per backend and source, each served through a handle with the
//! cell's configuration and worker count.

use crate::figure_data;
use crate::support::*;
use immutable_regions::prelude::*;
use immutable_regions::storage::buffer::DEFAULT_POOL_CAPACITY;
use ir_core::oracle::OracleRegions;
use ir_core::PerturbationMode::{self, CompositionOnly, WithReorderings};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The cells' buffer pool for the generated cases: large enough for the
/// small ones, small enough that the 2,000-tuple case evicts.
const POOL_PAGES: usize = 64;

/// The queries one draw from a row's stream serves.
struct Case {
    dataset: Dataset,
    queries: Vec<QueryVector>,
    /// A φ drawn with the case, overriding the row's configurations.
    phi: Option<usize>,
}

/// How a row draws its cases from the seeded stream.
enum Cases {
    /// Each configuration draws its own case, in turn.
    Each,
    /// This many cases, each serving every configuration.
    Shared(usize),
}
use Cases::{Each, Shared};

/// One row of the table.
struct Law {
    seed: u64,
    cases: Cases,
    /// Every cell's buffer pool, in pages.
    pool: usize,
    /// Draws the case of the given number from the row's stream.
    draw: fn(&mut ChaCha8Rng, usize) -> Case,
    configs: Vec<RegionConfig>,
    backends: &'static [BackendKind],
    sources: &'static [ColdStartSource],
    workers: &'static [usize],
    exhaustive: bool,
}

/// The exhaustive oracle's regions for one (φ, mode) of a case — per query,
/// per query dimension — and the first configuration's reports there.
type Exhaustive = (RegionConfig, Vec<Vec<OracleRegions>>, Vec<RegionReport>);

/// A case with its oracle index and its engines, by backend and source.
type Serving = (
    Case,
    Arc<TopKIndex>,
    Vec<(BackendKind, ColdStartSource, IrEngine)>,
);

impl Law {
    fn check(self) {
        let mut rng = rng(self.seed);
        let (trials, shared) = match self.cases {
            Each => (1, false),
            Shared(trials) => (trials, true),
        };
        for trial in 0..trials {
            let at = format!("seed {:#x}, case {trial}", self.seed);
            let mut drawn = None;
            let mut exhaustive: Vec<Exhaustive> = Vec::new();
            for (c, config) in self.configs.iter().enumerate() {
                if c == 0 || !shared {
                    let case = (self.draw)(&mut rng, trial);
                    drawn = Some(self.serving(case, *config));
                    exhaustive.clear();
                }
                let (case, index, engines) = drawn.as_ref().unwrap();
                let config = RegionConfig {
                    phi: case.phi.unwrap_or(config.phi),
                    ..*config
                };
                let oracle = sequential(index, case, config, &at);
                if self.exhaustive {
                    check_exhaustive(case, config, &oracle, &mut exhaustive, &at);
                }
                for (backend, source, engine) in engines {
                    for &workers in self.workers {
                        let cell = Cell {
                            source: *source,
                            ..Cell::built(config, *backend, workers)
                        };
                        let engine = engine.with_config(config).with_threads(workers);
                        serve(&cell, &engine, case, &oracle, &at);
                    }
                }
            }
        }
    }

    /// What serves `case` for every configuration and worker count: the
    /// oracle's mem-built index, and one engine per backend and source.
    fn serving(&self, case: Case, config: RegionConfig) -> Serving {
        let index = IndexBuilder::new().build_shared(&case.dataset).unwrap();
        let mut engines = Vec::new();
        for &backend in self.backends {
            for &source in self.sources {
                let cell = Cell {
                    source,
                    ..Cell::built(config, backend, 1)
                };
                let engine = engine_with(&cell, &case.dataset, |b| b.pool_capacity(self.pool));
                engines.push((backend, source, engine));
            }
        }
        (case, index, engines)
    }
}

/// The oracle: one sequential [`RegionComputation`] per query on the case's
/// mem-built `index`, whose current result is TA's top-k.
fn sequential(
    index: &Arc<TopKIndex>,
    case: &Case,
    config: RegionConfig,
    at: &str,
) -> Vec<RegionReport> {
    case.queries
        .iter()
        .enumerate()
        .map(|(q, query)| {
            let report = RegionComputation::new(index, query, config)
                .unwrap()
                .compute()
                .unwrap();
            let topk = TaRun::execute_default(index, query).unwrap().result().ids();
            for dim in &report.dims {
                assert_eq!(dim.current_result(), &topk[..], "{at}, query {q}");
            }
            report
        })
        .collect()
}

/// Serves the case from `engine`, the handle for `cell` — `query_batch`,
/// and `query` on one worker — and holds every report to the oracle's.
fn serve(cell: &Cell, engine: &IrEngine, case: &Case, oracle: &[RegionReport], at: &str) {
    assert_eq!(
        (engine.config(), engine.threads()),
        (cell.config(), cell.workers),
        "{cell:?}"
    );
    engine.cold_start();
    let batch = engine.query_batch(&case.queries).unwrap();
    assert_equivalent(cell, at, "query_batch", &batch, oracle);
    if cell.workers == 1 {
        engine.cold_start();
        let single: Vec<RegionReport> = case
            .queries
            .iter()
            .map(|q| engine.query(q).unwrap())
            .collect();
        assert_equivalent(cell, at, "query", &single, oracle);
    }
}

/// The counters a report must reproduce exactly: all of them but
/// `cpu_time` and the physical reads.
fn deterministic(stats: &ComputationStats) -> ComputationStats {
    let mut stats = stats.clone();
    stats.cpu_time = Default::default();
    stats.io.physical_reads = 0;
    stats.topk_io.physical_reads = 0;
    stats
}

fn assert_equivalent(
    cell: &Cell,
    at: &str,
    call: &str,
    reports: &[RegionReport],
    oracle: &[RegionReport],
) {
    assert_eq!(reports.len(), oracle.len(), "{cell:?}, {at}: {call}");
    for (q, (got, want)) in reports.iter().zip(oracle).enumerate() {
        assert_eq!(got.dims, want.dims, "{cell:?}, {at}, query {q}: {call}");
        assert_eq!(
            deterministic(&got.stats),
            deterministic(&want.stats),
            "{cell:?}, {at}, query {q}: {call} counters"
        );
    }
}

/// Every immutable region matches the exhaustive oracle at 1e-9, every
/// dimension's regions, boundaries and ordered results equal the first
/// configuration's of the same φ and mode bit for bit, and for φ > 0 every
/// non-degenerate region holds the oracle's ordered result at its midpoint.
/// The oracle's regions are computed once per case, φ and mode.
fn check_exhaustive(
    case: &Case,
    config: RegionConfig,
    reports: &[RegionReport],
    seen: &mut Vec<Exhaustive>,
    at: &str,
) {
    let same = |e: &&Exhaustive| (e.0.phi, e.0.mode) == (config.phi, config.mode);
    if !seen.iter().any(|e| same(&e)) {
        let expected = case
            .queries
            .iter()
            .zip(reports)
            .map(|(query, report)| {
                let oracle = ExhaustiveOracle::new(&case.dataset, query.clone());
                let regions = |d: &DimRegions| oracle.regions(d.dim, config.phi, config.mode);
                report.dims.iter().map(regions).collect()
            })
            .collect();
        seen.push((config, expected, reports.to_vec()));
    }
    let (first, expected, first_reports) = seen.iter().find(same).unwrap();
    for (q, (query, report)) in case.queries.iter().zip(reports).enumerate() {
        let oracle = ExhaustiveOracle::new(&case.dataset, query.clone());
        let dims = report
            .dims
            .iter()
            .zip(&expected[q])
            .zip(&first_reports[q].dims);
        for ((dim, expected), first_dim) in dims {
            let at = format!("{at}, query {q}, {config:?}, dim {:?}", dim.dim);
            assert!(
                dim.immutable.approx_eq(&expected.immutable, 1e-9),
                "{at}: {:?} vs oracle {:?}",
                dim.immutable,
                expected.immutable
            );
            assert_eq!(dim, first_dim, "{at}: disagrees with {first:?}");
            if config.phi == 0 {
                continue;
            }
            for region in &dim.regions {
                if region.delta_hi - region.delta_lo < 1e-9 {
                    continue;
                }
                let mid = 0.5 * (region.delta_lo + region.delta_hi);
                assert_eq!(
                    region.result,
                    oracle.topk_at(dim.dim, mid),
                    "{at}: region around {mid}"
                );
            }
        }
    }
}

/// `algorithms` × `phis` in `mode`, φ-major.
fn sweep(algorithms: &[Algorithm], phis: &[usize], mode: PerturbationMode) -> Vec<RegionConfig> {
    phis.iter()
        .flat_map(|&phi| {
            algorithms.iter().map(move |&algorithm| RegionConfig {
                algorithm,
                phi,
                mode,
            })
        })
        .collect()
}

/// A [`random_dataset`] of `n` tuples and a [`random_batch`] of `queries`.
fn mixed(rng: &mut ChaCha8Rng, dims: u32, n: usize, queries: usize) -> Case {
    Case {
        dataset: random_dataset(rng, n, dims),
        queries: random_batch(rng, dims, queries),
        phi: None,
    }
}

/// A case of 80 tuples over 3–5 dimensions.
fn mixed_80(rng: &mut ChaCha8Rng, queries: usize) -> Case {
    let dims = rng.gen_range(3..6);
    mixed(rng, dims, 80, queries)
}

/// A case of 40–120 tuples over 3–6 dimensions.
fn mixed_sized(rng: &mut ChaCha8Rng, queries: usize) -> Case {
    let dims = rng.gen_range(3..7);
    let n = rng.gen_range(40..120);
    mixed(rng, dims, n, queries)
}

/// The runners' smoke data: `wsj` or `st` from [`figure_data`].
fn figure_case(data: fn() -> (Dataset, Vec<QueryVector>)) -> Case {
    let (dataset, queries) = data();
    Case {
        dataset,
        queries,
        phi: None,
    }
}

const ALL: &[Algorithm] = &Algorithm::ALL;
const SCAN_CPT: &[Algorithm] = &[Algorithm::Scan, Algorithm::Cpt];

/// Instantiates each row as a named test.
macro_rules! laws {
    ($($name:ident: $law:expr;)*) => {
        $(#[test]
        fn $name() {
            $law.check();
        })*
    };
}

laws! {
    backends_agree_for_all_algorithms_phi_and_worker_counts: Law {
        seed: 0xBA_CE2D, cases: Each, pool: POOL_PAGES, draw: |rng, _| mixed_sized(rng, 4),
        configs: sweep(ALL, &[0, 1, 3], WithReorderings),
        backends: &[File], sources: &[Built], workers: &[1, 2, 8], exhaustive: false,
    };
    backends_agree_in_composition_only_mode: Law {
        seed: 0x00C0_BACE, cases: Each, pool: POOL_PAGES, draw: |rng, _| mixed_80(rng, 3),
        configs: sweep(SCAN_CPT, &[0], CompositionOnly),
        backends: &[File], sources: &[Built], workers: &[2], exhaustive: false,
    };
    batch_matches_sequential_oracle_for_all_algorithms_and_phi: Law {
        seed: 0x9A11E7, cases: Each, pool: POOL_PAGES, draw: |rng, _| mixed_sized(rng, 5),
        configs: sweep(ALL, &[0, 1, 3], WithReorderings),
        backends: &[Mem], sources: &[Built], workers: &[1, 2, 8], exhaustive: false,
    };
    batch_matches_sequential_oracle_in_composition_only_mode: Law {
        seed: 0xC0517, cases: Each, pool: POOL_PAGES, draw: |rng, _| mixed_80(rng, 4),
        configs: sweep(SCAN_CPT, &[0], CompositionOnly),
        backends: &[Mem], sources: &[Built], workers: &[1, 2, 8], exhaustive: false,
    };
    batch_results_and_current_regions_match_sequential_topk: Law {
        seed: 0x70B_B01, cases: Shared(1), pool: POOL_PAGES, draw: |rng, _| mixed(rng, 5, 100, 6),
        configs: vec![RegionConfig::default()],
        backends: &[Mem], sources: &[Built], workers: &[4], exhaustive: false,
    };
    snapshot_served_engines_agree_with_built_oracle: Law {
        seed: 0x5AFE_5EED, cases: Each, pool: POOL_PAGES, draw: |rng, _| mixed_sized(rng, 4),
        configs: sweep(ALL, &[0], WithReorderings),
        backends: &[Mem, File], sources: &[Snapshot], workers: &[1, 2, 8], exhaustive: false,
    };
    snapshot_agreement_holds_with_phi_perturbations: Law {
        seed: 0x05AF_E0F1, cases: Each, pool: POOL_PAGES, draw: |rng, _| mixed_80(rng, 3),
        configs: sweep(&[Algorithm::Cpt], &[1, 3], WithReorderings),
        backends: &[Mem, File], sources: &[Snapshot], workers: &[2], exhaustive: false,
    };
    all_algorithms_agree_with_each_other_and_the_oracle: Law {
        seed: 2024, cases: Shared(12), pool: POOL_PAGES, draw: |rng, _| {
            let dims = rng.gen_range(3..7);
            let n = rng.gen_range(30..120);
            let dataset = random_dataset(rng, n, dims);
            let k = rng.gen_range(1..6);
            let qlen = rng.gen_range(2..=dims.min(4)) as usize;
            Case { queries: vec![random_query(rng, dims, qlen, k)], dataset, phi: None }
        },
        configs: sweep(ALL, &[0], WithReorderings),
        backends: &[Mem], sources: &[Built], workers: &[1], exhaustive: true,
    };
    composition_only_mode_agrees_with_the_oracle: Law {
        seed: 777, cases: Shared(8), pool: POOL_PAGES, draw: |rng, _| {
            let dims = rng.gen_range(3..6);
            let dataset = random_dataset(rng, 60, dims);
            Case { queries: vec![random_query(rng, dims, 2, 3)], dataset, phi: None }
        },
        configs: sweep(SCAN_CPT, &[0], CompositionOnly),
        backends: &[Mem], sources: &[Built], workers: &[1], exhaustive: true,
    };
    phi_regions_match_the_oracle_for_every_algorithm: Law {
        seed: 31, cases: Shared(8), pool: POOL_PAGES, draw: |rng, _| {
            let dims = rng.gen_range(3..6);
            let n = rng.gen_range(25..70);
            let dataset = subset_dataset(rng, n, dims);
            let k = rng.gen_range(2..5);
            let dims_picked = pick_dims(rng, dims, 2);
            let weights: Vec<(u32, f64)> =
                dims_picked.into_iter().map(|d| (d, rng.gen_range(0.3..=1.0))).collect();
            let queries = vec![QueryVector::new(weights, k).unwrap()];
            Case { dataset, queries, phi: Some(rng.gen_range(1..4)) }
        },
        configs: sweep(ALL, &[0], WithReorderings),
        backends: &[Mem], sources: &[Built], workers: &[1], exhaustive: true,
    };
    batch_output_matches_borrowed_sequential_oracle_for_every_worker_count: Law {
        seed: 0xA11CE, cases: Shared(1), pool: POOL_PAGES, draw: |_, _| Case {
            dataset: dense_dataset(0xA11CE, 150, 5),
            queries: dense_queries(0xA11CE, 5, 8, 4),
            phi: None,
        },
        configs: vec![
            RegionConfig::flat(Algorithm::Cpt),
            RegionConfig::with_phi(Algorithm::Prune, 2),
            RegionConfig::flat(Algorithm::Scan).composition_only(),
        ],
        backends: &[Mem], sources: &[Built], workers: &[1, 2, 4, 8], exhaustive: false,
    };
    single_query_matches_borrowed_path_exactly: Law {
        seed: 0, cases: Shared(1), pool: POOL_PAGES, draw: |_, _| Case {
            dataset: Dataset::running_example(),
            queries: vec![QueryVector::running_example()],
            phi: None,
        },
        configs: vec![RegionConfig::flat(Algorithm::Cpt)],
        backends: &[Mem], sources: &[Built], workers: &[1], exhaustive: false,
    };
    disk_backed_index_produces_the_same_regions_as_memory: Law {
        seed: 0, cases: Shared(1), pool: POOL_PAGES, draw: |_, _| Case {
            dataset: medium_dataset(),
            queries: vec![QueryVector::new([(0, 0.9), (5, 0.6), (11, 0.3)], 10).unwrap()],
            phi: None,
        },
        configs: vec![RegionConfig::flat(Algorithm::Cpt)],
        backends: &[File], sources: &[Built], workers: &[1], exhaustive: false,
    };
    figure_series_are_file_backend_invariant: Law {
        seed: 0, cases: Shared(2), pool: DEFAULT_POOL_CAPACITY,
        draw: |_, case| figure_case([figure_data::wsj, figure_data::st][case]),
        configs: vec![RegionConfig::flat(Algorithm::Cpt), RegionConfig::with_phi(Algorithm::Cpt, 3)],
        backends: &[File], sources: &[Built], workers: &[2], exhaustive: false,
    };
    figure_series_are_snapshot_invariant: Law {
        seed: 0, cases: Shared(1), pool: DEFAULT_POOL_CAPACITY,
        draw: |_, _| figure_case(figure_data::st),
        configs: vec![RegionConfig::flat(Algorithm::Cpt)],
        backends: &[Mem, File], sources: &[Snapshot], workers: &[2], exhaustive: false,
    };
}
