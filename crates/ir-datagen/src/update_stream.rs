//! Tuple-update streams: the dynamic-data workload.
//!
//! The paper evaluates a frozen dataset; a deployed server sees churn —
//! new tuples arrive, old ones are retired, and individual scores are
//! corrected in place. [`UpdateStream`] reproduces that workload
//! deterministically against a concrete [`Dataset`]:
//!
//! * **Churn mix** — [`UpdateConfig::churn`] splits the stream between
//!   membership churn (inserts and deletes, drawn evenly) and in-place
//!   [`TupleUpdate::UpdateScore`] writes; a configurable fraction of the
//!   rescores sets the coordinate to `0.0`, exercising the
//!   coordinate-removal path.
//! * **Zipf-popular targets** — deletes and rescores pick their victim
//!   with probability proportional to `1 / rank^s` over the live tuples
//!   (low ids are the hot head), the same skew the drift stream applies
//!   to subscriptions: a few hot tuples absorb most of the mutation
//!   traffic.
//! * **Live-id tracking** — the generator mirrors the dataset's dense-id
//!   discipline: inserts take the next dense id, deleted ids leave the
//!   live set and are never targeted again, and the live set never drops
//!   to zero. Every emitted stream therefore replays cleanly through
//!   [`Dataset::with_updates`], an engine's `apply_updates`, or both.
//! * **Shared seeding** — all draws come from one
//!   [`ir_types::SeededLcg`] in its `mixed` convention, so a
//!   `(dataset, config, seed)` triple pins the stream
//!   bit-for-bit on every platform.

use crate::zipf::ZipfSampler;
use ir_types::{Dataset, DimId, IrError, IrResult, SeededLcg, SparseVector, TupleId, TupleUpdate};
use serde::{Deserialize, Serialize};

/// Configuration of an update stream.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateConfig {
    /// Total number of updates in the stream.
    pub num_updates: usize,
    /// Fraction of updates that churn membership — split evenly between
    /// inserts and deletes — the rest rescore one coordinate in place.
    /// Must lie in `[0, 1]`.
    pub churn: f64,
    /// Zipf exponent of target-tuple popularity (0 = uniform): deletes
    /// and rescores concentrate on the hot head of the live tuples.
    pub zipf_exponent: f64,
    /// Fraction of rescores that remove the coordinate (write `0.0`)
    /// instead of assigning a fresh value. Must lie in `[0, 1]`.
    pub remove_fraction: f64,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            num_updates: 500,
            churn: 0.4,
            zipf_exponent: 1.0,
            remove_fraction: 0.1,
        }
    }
}

/// A deterministic, replayable sequence of [`TupleUpdate`]s against one
/// dataset. Every update in the stream is valid at its position when the
/// stream is applied in order from the generating dataset's state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateStream {
    updates: Vec<TupleUpdate>,
}

impl UpdateStream {
    /// Generates an update stream against the current state of `dataset`
    /// from `config` and `seed`.
    ///
    /// Returns [`IrError::InvalidConfig`] for an empty dataset, a bad
    /// Zipf exponent, or a `churn` / `remove_fraction` outside `[0, 1]`.
    pub fn generate(dataset: &Dataset, config: &UpdateConfig, seed: u64) -> IrResult<Self> {
        for (what, value) in [
            ("churn", config.churn),
            ("remove_fraction", config.remove_fraction),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(IrError::InvalidConfig(format!(
                    "{what} must lie in [0, 1], got {value}"
                )));
            }
        }
        if dataset.cardinality() == 0 {
            return Err(IrError::InvalidConfig(
                "update stream needs a non-empty dataset".to_string(),
            ));
        }
        // One popularity table over the largest possible live set; draws
        // beyond the current live size are rejected and redrawn, which
        // keeps the head-heavy shape without rebuilding the table as the
        // live set grows and shrinks.
        let popularity = ZipfSampler::try_new(
            dataset.cardinality() + config.num_updates,
            config.zipf_exponent,
        )?;
        let dimensionality = dataset.dimensionality();

        // Coordinate density of generated inserts mirrors the dataset:
        // average non-zeros per tuple, clamped to at least one.
        let nnz_total: usize = dataset
            .tuple_ids()
            .filter_map(|id| dataset.tuple(id).ok())
            .map(|t| t.nnz())
            .sum();
        let density_millis = ((nnz_total as u64 * 1000)
            / (dataset.cardinality() as u64 * dimensionality as u64))
            .clamp(1, 1000);

        let mut rng = SeededLcg::mixed(seed);
        let mut live: Vec<TupleId> = dataset.tuple_ids().collect();
        let mut next_id = dataset.cardinality() as u32;
        let churn_millis = (config.churn * 1000.0).round() as u64;
        let remove_millis = (config.remove_fraction * 1000.0).round() as u64;

        let mut updates = Vec::with_capacity(config.num_updates);
        for _ in 0..config.num_updates {
            let membership = rng.next_below(1000) < churn_millis;
            // Deletes keep at least one tuple live, so a stream can never
            // empty the dataset out from under a serving engine.
            let delete = membership && rng.next_below(2) == 0 && live.len() > 1;
            if membership && !delete {
                let mut pairs: Vec<(u32, f64)> = Vec::new();
                for dim in 0..dimensionality {
                    if rng.next_below(1000) < density_millis {
                        pairs.push((dim, (rng.next_below(999) + 1) as f64 / 1000.0));
                    }
                }
                if pairs.is_empty() {
                    let dim = rng.next_below(dimensionality as u64) as u32;
                    pairs.push((dim, (rng.next_below(999) + 1) as f64 / 1000.0));
                }
                updates.push(TupleUpdate::Insert {
                    vector: SparseVector::from_pairs(pairs)?,
                });
                live.push(TupleId(next_id));
                next_id += 1;
                continue;
            }

            // Zipf-popular victim among the live tuples (rejection keeps
            // the draw inside the current live set).
            let rank = loop {
                let u = rng.next_mixed() as f64 / (1u64 << 53) as f64;
                let rank = popularity.sample_from_uniform(u);
                if rank < live.len() {
                    break rank;
                }
            };
            if delete {
                let tuple = live.swap_remove(rank);
                updates.push(TupleUpdate::Delete { tuple });
            } else {
                let tuple = live[rank];
                let dim = DimId(rng.next_below(dimensionality as u64) as u32);
                let value = if rng.next_below(1000) < remove_millis {
                    0.0
                } else {
                    (rng.next_below(999) + 1) as f64 / 1000.0
                };
                updates.push(TupleUpdate::UpdateScore { tuple, dim, value });
            }
        }
        Ok(UpdateStream { updates })
    }

    /// The updates, in stream order.
    pub fn updates(&self) -> &[TupleUpdate] {
        &self.updates
    }

    /// Number of updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True if the stream has no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates the updates.
    pub fn iter(&self) -> impl Iterator<Item = &TupleUpdate> {
        self.updates.iter()
    }

    /// The stream cut into maintenance batches of at most `size` updates
    /// (at least 1), in order — the shape `apply_updates` consumes.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = &[TupleUpdate]> {
        self.updates.chunks(size.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::DatasetBuilder;

    fn dataset(n: usize) -> Dataset {
        let mut builder = DatasetBuilder::new(6);
        for i in 0..n as u32 {
            let pairs: Vec<(u32, f64)> = (0..6u32)
                .filter(|d| (i + d) % 3 != 0)
                .map(|d| (d, (((i * 31 + d * 17) % 97) + 1) as f64 / 98.0))
                .collect();
            builder.push_pairs(pairs).unwrap();
        }
        builder.build()
    }

    #[test]
    fn stream_is_deterministic_and_replays_cleanly() {
        let base = dataset(120);
        let config = UpdateConfig {
            num_updates: 400,
            ..UpdateConfig::default()
        };
        let a = UpdateStream::generate(&base, &config, 9).unwrap();
        let b = UpdateStream::generate(&base, &config, 9).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, UpdateStream::generate(&base, &config, 10).unwrap());
        assert_eq!(a.len(), 400);

        // Every update validates at its position: the full stream replays
        // through the canonical Dataset semantics without error.
        let mutated = base.with_updates(a.updates()).unwrap();
        let inserts = a
            .iter()
            .filter(|u| matches!(u, TupleUpdate::Insert { .. }))
            .count();
        assert_eq!(mutated.cardinality(), base.cardinality() + inserts);

        // Batching is a pure partition of the same sequence.
        let rejoined: Vec<TupleUpdate> = a.batches(7).flatten().cloned().collect();
        assert_eq!(rejoined, a.updates());
    }

    #[test]
    fn churn_bounds_select_the_operation_mix() {
        let base = dataset(60);
        let all_churn = UpdateStream::generate(
            &base,
            &UpdateConfig {
                num_updates: 200,
                churn: 1.0,
                ..UpdateConfig::default()
            },
            4,
        )
        .unwrap();
        assert!(all_churn
            .iter()
            .all(|u| !matches!(u, TupleUpdate::UpdateScore { .. })));
        assert!(all_churn
            .iter()
            .any(|u| matches!(u, TupleUpdate::Insert { .. })));
        assert!(all_churn
            .iter()
            .any(|u| matches!(u, TupleUpdate::Delete { .. })));

        let no_churn = UpdateStream::generate(
            &base,
            &UpdateConfig {
                num_updates: 200,
                churn: 0.0,
                remove_fraction: 0.3,
                ..UpdateConfig::default()
            },
            4,
        )
        .unwrap();
        assert!(no_churn
            .iter()
            .all(|u| matches!(u, TupleUpdate::UpdateScore { .. })));
        // The removal path (value 0.0) is exercised.
        assert!(no_churn
            .iter()
            .any(|u| matches!(u, TupleUpdate::UpdateScore { value, .. } if *value == 0.0)));
    }

    #[test]
    fn deletes_never_target_a_dead_tuple_and_ids_stay_dense() {
        let base = dataset(40);
        let stream = UpdateStream::generate(
            &base,
            &UpdateConfig {
                num_updates: 600,
                churn: 0.8,
                ..UpdateConfig::default()
            },
            77,
        )
        .unwrap();
        let mut live: std::collections::BTreeSet<TupleId> = base.tuple_ids().collect();
        let mut next = base.cardinality() as u32;
        for update in stream.iter() {
            match update {
                TupleUpdate::Insert { vector } => {
                    assert!(!vector.is_empty(), "inserts carry at least one coordinate");
                    live.insert(TupleId(next));
                    next += 1;
                }
                TupleUpdate::Delete { tuple } => {
                    assert!(live.remove(tuple), "delete of a dead or unknown tuple");
                }
                TupleUpdate::UpdateScore { tuple, .. } => {
                    assert!(live.contains(tuple), "rescore of a dead tuple");
                }
            }
            assert!(!live.is_empty(), "the live set must never drain");
        }
    }

    #[test]
    fn hot_head_absorbs_most_targeted_mutations() {
        let base = dataset(200);
        let stream = UpdateStream::generate(
            &base,
            &UpdateConfig {
                num_updates: 2_000,
                churn: 0.0,
                zipf_exponent: 1.2,
                ..UpdateConfig::default()
            },
            5,
        )
        .unwrap();
        let head = stream
            .iter()
            .filter_map(|u| u.target())
            .filter(|t| t.0 < 20)
            .count();
        // 10% of the tuples absorb far more than 10% of the rescores.
        assert!(
            head * 3 > stream.len(),
            "head of 20/200 tuples got only {head}/{} rescores",
            stream.len()
        );
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let base = dataset(10);
        let empty = DatasetBuilder::new(3).build();
        let ok = UpdateConfig::default();
        assert!(matches!(
            UpdateStream::generate(&empty, &ok, 0),
            Err(IrError::InvalidConfig(_))
        ));
        for bad in [
            UpdateConfig { churn: -0.1, ..ok },
            UpdateConfig {
                churn: f64::NAN,
                ..ok
            },
            UpdateConfig {
                remove_fraction: 1.5,
                ..ok
            },
            UpdateConfig {
                zipf_exponent: -1.0,
                ..ok
            },
        ] {
            assert!(matches!(
                UpdateStream::generate(&base, &bad, 0),
                Err(IrError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn serde_roundtrip_preserves_the_stream() {
        let base = dataset(30);
        let stream = UpdateStream::generate(&base, &UpdateConfig::default(), 3).unwrap();
        let json = serde_json::to_string(&stream).unwrap();
        let back: UpdateStream = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stream);
    }
}
