//! The correctness checks of the untraced run: what counts as a failure, and
//! the comparison of a pass's outputs with an independent recompute.

use crate::run::{err, region_config, Calls, Output, RunOpts, State};
use crate::workload::{Inputs, Workload};
use immutable_regions::engine::{EngineResult, IrEngine};
use immutable_regions::fleet::FleetAnswer;
use ir_core::{Algorithm, DimRegions, RegionConfig};
use ir_types::Dataset;

/// Sampled outputs checked against the oracle per query workload.
const ORACLE_QUERIES: usize = 50;
/// Sampled drift events checked against a recompute.
const ORACLE_EVENTS: usize = 100;

/// `count` indices spread evenly over `0..n`.
fn sample_indices(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n);
    (0..count).map(|i| i * n / count).collect()
}

/// What every algorithm agrees on for one dimension: the immutable region
/// (to within rounding) and the result inside it.
struct InnerRegion<'a>(&'a DimRegions);

impl PartialEq for InnerRegion<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.dim == other.0.dim
            && self.0.immutable.approx_eq(&other.0.immutable, 1e-9)
            && self.0.current_result() == other.0.current_result()
    }
}

fn inner_regions(reports: &[Vec<DimRegions>]) -> Vec<Vec<InnerRegion<'_>>> {
    reports
        .iter()
        .map(|dims| dims.iter().map(InnerRegion).collect())
        .collect()
}

/// Number of positions at which `got` differs from `expected`.
fn count_mismatches<T: PartialEq>(expected: &[T], got: &[T]) -> u64 {
    debug_assert_eq!(expected.len(), got.len());
    expected.iter().zip(got).filter(|(e, g)| e != g).count() as u64
}

/// Failed calls and checks of a run, with a line saying what each group was.
#[derive(Default)]
pub(crate) struct Failures {
    pub count: u64,
    pub problems: Vec<String>,
}

impl Failures {
    /// Counts the outputs in `got` that differ from `expected`.
    pub fn check<T: PartialEq>(&mut self, what: &str, expected: &[T], got: &[T]) {
        let mismatches = count_mismatches(expected, got);
        if mismatches > 0 {
            self.count += mismatches;
            self.problems
                .push(format!("{mismatches} of {} {what}", got.len()));
        }
    }

    /// Counts `count` failures of another kind.
    pub fn fail(&mut self, count: u64, problem: String) {
        self.count += count;
        self.problems.push(problem);
    }

    /// Counts the calls that returned an error.
    pub fn errors(&mut self, calls: &Calls) {
        self.count += calls.errors.len() as u64;
        self.problems.extend(calls.errors.iter().take(3).cloned());
    }
}

/// Checks the last pass's outputs against an independent recompute on `live`,
/// the dataset the index should now hold, and returns the number of samples
/// checked. Consumes the state: the oracle
/// engine is built only after the measured one is gone, so peak memory stays
/// that of one engine.
pub(crate) fn check_against_oracle(
    opts: &RunOpts,
    inputs: &Inputs,
    live: &Dataset,
    state: State,
    outputs: &[Option<Output>],
    failures: &mut Failures,
) -> Result<u64, String> {
    let workload = opts.workload;
    let shape = workload.shape();
    let first_call = shape.warmup_calls;
    let checked = match workload {
        Workload::WsjCptWarm
        | Workload::WsjCptFileSmallPool
        | Workload::WsjPhi3Warm
        | Workload::WsjBatchT2 => {
            // One entry per timed query; a failed call leaves empty reports.
            let regions: Vec<&[DimRegions]> = outputs
                .iter()
                .flat_map(|o| match o {
                    Some(Output::Regions(r)) => r.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                    _ => vec![&[][..]; shape.queries_per_call],
                })
                .collect();
            let first_query = first_call * shape.queries_per_call;
            let sample = sample_indices(regions.len(), ORACLE_QUERIES);
            let got: Vec<Vec<DimRegions>> = sample.iter().map(|&i| regions[i].to_vec()).collect();
            let answers = |engine: &IrEngine, config: RegionConfig| {
                sample
                    .iter()
                    .map(|&i| {
                        engine
                            .query_with(&inputs.queries[first_query + i], config)
                            .map(|r| r.dims)
                    })
                    .collect::<EngineResult<Vec<_>>>()
                    .map_err(err)
            };
            let config = region_config(workload);
            if workload == Workload::WsjBatchT2 {
                failures.check(
                    "batch answers differ from one-by-one queries",
                    &answers(&state.engine, config)?,
                    &got,
                );
            }
            drop(state);
            // The repo's cross-method oracle: Scan evaluates every candidate.
            let oracle = IrEngine::builder().dataset_ref(live).build().map_err(err)?;
            let scan = RegionConfig {
                algorithm: Algorithm::Scan,
                ..config
            };
            let mut expected = answers(&oracle, scan)?;
            if opts.corrupt_oracle {
                expected[0].clear();
            }
            // Scan certifies what every algorithm agrees on: the immutable
            // region and the result inside it. The rest of a report is only
            // defined up to ties: where several tuples cross the k-th at one
            // deviation (seen where the deviation takes the weight to 0) CPT
            // and Scan name different ones as entering (1 of some 700 sampled
            // WSJ queries at phi = 0), and at phi = 3 they order the tied
            // crossings differently and round region ends differently in the
            // last ulp (19 of 1 102). The full report is certified by the
            // same algorithm on the fresh engine.
            failures.check(
                "sampled immutable regions differ from the Scan oracle",
                &inner_regions(&expected),
                &inner_regions(&got),
            );
            failures.check(
                "sampled reports differ from a fresh engine",
                &answers(&oracle, config)?,
                &got,
            );
            got.len()
        }
        Workload::StFleetDrift => {
            let answers: Vec<&FleetAnswer> = outputs
                .iter()
                .flat_map(|o| match o {
                    Some(Output::Answers(a)) => a.iter().collect::<Vec<_>>(),
                    _ => Vec::new(),
                })
                .collect();
            // Every timed event answered exactly once, in sequence order.
            let first_event = (first_call * shape.events_per_call) as u64;
            let events = outputs.len() * shape.events_per_call;
            let in_order = answers
                .iter()
                .enumerate()
                .all(|(i, a)| a.seq == first_event + i as u64);
            if answers.len() != events || !in_order {
                failures.fail(
                    1,
                    format!(
                        "{} answers for {events} drift events, or out of sequence",
                        answers.len()
                    ),
                );
            }
            // A sampled answer equals a recompute at the subscription's
            // weights as of that event.
            let mut expected = Vec::new();
            let mut got = Vec::new();
            for i in sample_indices(answers.len(), ORACLE_EVENTS) {
                let answer = answers[i];
                let mut weights = inputs.fleet[answer.sub as usize].1.clone();
                for event in &inputs.drift[..=answer.seq as usize] {
                    if event.sub == answer.sub {
                        weights = weights
                            .with_weight_shift(event.dim, event.delta)
                            .map_err(err)?;
                    }
                }
                let recomputed = state.engine.query(&weights).map_err(err)?;
                expected.push(recomputed.current_result().to_vec());
                got.push(answer.result.clone());
            }
            if opts.corrupt_oracle {
                expected[0].clear();
            }
            failures.check(
                "sampled drift answers differ from a recompute",
                &expected,
                &got,
            );
            got.len()
        }
        Workload::WsjUpdateMix => {
            let manager = state
                .manager
                .as_ref()
                .expect("update workload has a manager");
            let stale = manager.members().filter(|m| m.is_stale()).count();
            if stale > 0 {
                failures.fail(
                    stale as u64,
                    format!("{stale} fleet members still stale after the stream"),
                );
            }
            let got = inputs
                .fleet
                .iter()
                .map(|(_, q)| state.engine.query(q).map(|r| r.dims))
                .collect::<EngineResult<Vec<_>>>()
                .map_err(err)?;
            drop(state);
            let fresh = IrEngine::builder().dataset_ref(live).build().map_err(err)?;
            let mut expected = inputs
                .fleet
                .iter()
                .map(|(_, q)| fresh.query(q).map(|r| r.dims))
                .collect::<EngineResult<Vec<_>>>()
                .map_err(err)?;
            if opts.corrupt_oracle {
                expected[0].clear();
            }
            failures.check(
                "fleet queries differ from a fresh engine on the updated dataset",
                &expected,
                &got,
            );
            got.len()
        }
    };
    Ok(checked as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_are_spread_and_bounded() {
        assert_eq!(sample_indices(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(sample_indices(3, 50), vec![0, 1, 2]);
        assert!(sample_indices(0, 50).is_empty());
    }

    #[test]
    fn a_corrupted_expectation_is_counted() {
        let expected = vec![vec![1, 2], vec![3]];
        assert_eq!(count_mismatches(&expected, &expected.clone()), 0);
        let mut corrupted = expected.clone();
        corrupted[0].clear();
        assert_eq!(count_mismatches(&corrupted, &expected), 1);
    }
}
