//! Criterion benchmarks over the paper's experiments (one representative
//! configuration per figure, smoke-scale datasets so `cargo bench` stays
//! fast). The full parameter sweeps live in the `figures` runner binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ir_bench::{BenchArgs, BenchDataset, Scale};
use ir_core::{Algorithm, RegionConfig};
use ir_storage::BackendKind;

/// The storage backend under benchmark: `cargo bench -- --backend mmap`
/// swaps it, exactly like the figure runners. The vendored criterion
/// ignores unknown CLI arguments, so the shared parser sees the flag
/// untouched.
fn backend() -> BackendKind {
    BenchArgs::parse().backend
}

fn bench_figure10_wsj_qlen(c: &mut Criterion) {
    let (engine, workload) = BenchDataset::Wsj
        .prepare_engine(Scale::Smoke, 4, 10, 3, 1, backend())
        .unwrap();
    let mut group = c.benchmark_group("figure10_wsj_qlen4_k10");
    group.sample_size(10);
    for algorithm in Algorithm::ALL {
        group.bench_function(BenchmarkId::from_parameter(algorithm), |b| {
            b.iter(|| {
                for query in workload.iter() {
                    let _ = std::hint::black_box(
                        engine
                            .query_with(query, RegionConfig::flat(algorithm))
                            .unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

fn bench_figure11_st_qlen(c: &mut Criterion) {
    let (engine, workload) = BenchDataset::St
        .prepare_engine(Scale::Smoke, 4, 10, 3, 1, backend())
        .unwrap();
    let mut group = c.benchmark_group("figure11_st_qlen4_k10");
    group.sample_size(10);
    for algorithm in Algorithm::ALL {
        group.bench_function(BenchmarkId::from_parameter(algorithm), |b| {
            b.iter(|| {
                for query in workload.iter() {
                    let _ = std::hint::black_box(
                        engine
                            .query_with(query, RegionConfig::flat(algorithm))
                            .unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

fn bench_figure12_kb_qlen(c: &mut Criterion) {
    let (engine, workload) = BenchDataset::Kb
        .prepare_engine(Scale::Smoke, 6, 10, 3, 1, backend())
        .unwrap();
    let mut group = c.benchmark_group("figure12_kb_qlen6_k10");
    group.sample_size(10);
    for algorithm in Algorithm::ALL {
        group.bench_function(BenchmarkId::from_parameter(algorithm), |b| {
            b.iter(|| {
                for query in workload.iter() {
                    let _ = std::hint::black_box(
                        engine
                            .query_with(query, RegionConfig::flat(algorithm))
                            .unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

fn bench_figure13_vary_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure13_wsj_vary_k");
    group.sample_size(10);
    for k in [10usize, 40] {
        let (engine, workload) = BenchDataset::Wsj
            .prepare_engine(Scale::Smoke, 4, k, 3, 1, backend())
            .unwrap();
        for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
            group.bench_function(BenchmarkId::new(algorithm.to_string(), k), |b| {
                b.iter(|| {
                    for query in workload.iter() {
                        let _ = std::hint::black_box(
                            engine
                                .query_with(query, RegionConfig::flat(algorithm))
                                .unwrap(),
                        );
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_figure14_vary_phi(c: &mut Criterion) {
    let (engine, workload) = BenchDataset::Wsj
        .prepare_engine(Scale::Smoke, 4, 10, 2, 1, backend())
        .unwrap();
    let mut group = c.benchmark_group("figure14_wsj_vary_phi");
    group.sample_size(10);
    for phi in [0usize, 5, 10] {
        for algorithm in [Algorithm::Scan, Algorithm::Cpt] {
            group.bench_function(BenchmarkId::new(algorithm.to_string(), phi), |b| {
                b.iter(|| {
                    for query in workload.iter() {
                        let _ = std::hint::black_box(
                            engine
                                .query_with(query, RegionConfig::with_phi(algorithm, phi))
                                .unwrap(),
                        );
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_figure15_oneoff_vs_iterative(c: &mut Criterion) {
    let (engine, workload) = BenchDataset::Wsj
        .prepare_engine(Scale::Smoke, 3, 10, 1, 1, backend())
        .unwrap();
    let mut group = c.benchmark_group("figure15_oneoff_vs_iterative_phi3");
    group.sample_size(10);
    group.bench_function("CPT-one-off", |b| {
        b.iter(|| {
            for query in workload.iter() {
                let _ = std::hint::black_box(
                    engine
                        .query_with(query, RegionConfig::with_phi(Algorithm::Cpt, 3))
                        .unwrap(),
                );
            }
        })
    });
    group.bench_function("CPT-iterative", |b| {
        b.iter(|| {
            for query in workload.iter() {
                let _ = std::hint::black_box(
                    ir_core::iterative::compute_iterative(engine.index(), query, Algorithm::Cpt, 3)
                        .unwrap(),
                );
            }
        })
    });
    group.finish();
}

fn bench_figure16_composition_only(c: &mut Criterion) {
    let (engine, workload) = BenchDataset::Wsj
        .prepare_engine(Scale::Smoke, 4, 10, 3, 1, backend())
        .unwrap();
    let mut group = c.benchmark_group("figure16_wsj_composition_only");
    group.sample_size(10);
    for algorithm in Algorithm::ALL {
        group.bench_function(BenchmarkId::from_parameter(algorithm), |b| {
            b.iter(|| {
                for query in workload.iter() {
                    let _ = std::hint::black_box(
                        engine
                            .query_with(query, RegionConfig::flat(algorithm).composition_only())
                            .unwrap(),
                    );
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_figure10_wsj_qlen,
    bench_figure11_st_qlen,
    bench_figure12_kb_qlen,
    bench_figure13_vary_k,
    bench_figure14_vary_phi,
    bench_figure15_oneoff_vs_iterative,
    bench_figure16_composition_only,
);
criterion_main!(figures);
