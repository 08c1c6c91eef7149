//! Property tests for the kinetic sweep: its reported order changes must
//! agree with brute-force re-ranking of the lines at sampled positions, and
//! the envelope trace must equal the k-th ranked value everywhere. On inputs
//! built to tie, the outcome must not depend on the order of the outside
//! lines, and the incremental sweep must equal the from-scratch one bit for
//! bit after every line it is fed.

use ir_geometry::{sweep_topk, IncrementalSweep, Line, SweepOutcome};
use proptest::prelude::*;

/// Right end of the tie-forcing sweeps: a pivot sits on it, so lines enter
/// exactly at `x_max`.
const TIE_X_MAX: f64 = 0.5;

/// One tie-forcing input: ordered result lines, outside lines, event budget.
type TieCase = (Vec<Line>, Vec<Line>, usize);

/// Lines on a dyadic grid, so that crossings are exact and collide: exact
/// duplicates under a new label, equal slopes, bundles through one pivot
/// (at x = 0, inside the range, and at `TIE_X_MAX`), and a few lines off
/// the grid. The top `k` at x = 0 form the result; `max_events` is small
/// enough that many sweeps truncate.
fn tie_case_strategy() -> impl Strategy<Value = TieCase> {
    let spec = (0usize..5, 0usize..64, 0usize..64, 0usize..64, 0.0f64..1.0);
    (
        proptest::collection::vec(spec, 3..=10),
        1usize..4,
        1usize..7,
    )
        .prop_map(|(specs, k, max_events)| {
            let mut lines: Vec<Line> = Vec::with_capacity(specs.len());
            for (i, (kind, a, b, c, f)) in specs.into_iter().enumerate() {
                let grid_slope = (c % 5) as f64 / 4.0;
                let (intercept, slope) = match kind {
                    1 if i > 0 => {
                        let twin = lines[a % i];
                        (twin.intercept, twin.slope)
                    }
                    2 => {
                        let px = [0.0, 0.25, TIE_X_MAX][a % 3];
                        let py = 0.25 + (b % 5) as f64 / 8.0;
                        (py - grid_slope * px, grid_slope)
                    }
                    3 if i > 0 => ((b % 9) as f64 / 8.0, lines[a % i].slope),
                    4 => (f, (c % 64) as f64 / 64.0),
                    _ => ((b % 9) as f64 / 8.0, grid_slope),
                };
                lines.push(Line::new(i as u64, intercept, slope));
            }
            let ranked = rank_at(&lines, 0.0);
            let k = k.min(lines.len() - 1);
            let pick = |labels: &[u64]| -> Vec<Line> {
                labels.iter().map(|&l| lines[l as usize]).collect()
            };
            (pick(&ranked[..k]), pick(&ranked[k..]), max_events)
        })
}

/// A result line `r` and the lines `[a, b, d, n]` of a wake, plus noise
/// lines that stay far below every k-th line.
type WakeCase = (Line, [Line; 4], Vec<Line>);

/// A dormant line that must wake, with drawn slopes and crossing points
/// (all dyadic). `k = 1`, two events at most. Under the flat result line
/// `r`, `a` enters at `xa` and `b` overtakes it at `xb`, where the sweep
/// truncates. `d` is steep but crosses `a` just after `xb`, so it is inert.
/// `n` enters at `xa / 2` with a slope `a` and `b` cannot match: one event
/// is left, the sweep runs on to `x_max`, and it uncovers `d` crossing `n`.
fn wake_case_strategy() -> impl Strategy<Value = WakeCase> {
    let crossings = (0usize..4, 0usize..4, 0usize..4);
    let slopes = (1usize..3, 1usize..3, 1usize..3, 0usize..8);
    let noise = proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..6);
    (crossings, slopes, noise).prop_map(|((i, j, q), (sa, db, dn, dd), noise)| {
        let xa = (1 + i) as f64 / 64.0;
        let xb = xa + (1 + j) as f64 / 64.0;
        let xd = xb + (1 + q) as f64 / 128.0;
        let sa = sa as f64;
        let sb = sa + db as f64;
        let sn = sb + dn as f64;
        let sd = sn + 8.0 + dd as f64;
        let a = Line::new(1, 1.0 - sa * xa, sa);
        let b = Line::new(2, a.intercept + (sa - sb) * xb, sb);
        let d = Line::new(3, a.intercept + (sa - sd) * xd, sd);
        let n = Line::new(4, 1.0 - sn * xa / 2.0, sn);
        let noise = noise
            .into_iter()
            .enumerate()
            .map(|(i, (below, slope))| Line::new(5 + i as u64, -below, slope))
            .collect();
        (Line::new(0, 1.0, 0.0), [a, b, d, n], noise)
    })
}

/// The outcome down to the last bit: `Debug` prints every f64 so that it
/// round-trips, and tells `-0.0` from `0.0`.
fn bits(outcome: &SweepOutcome) -> String {
    format!("{outcome:?}")
}

fn sweep(ordered: &[Line], outside: &[Line], max_events: usize) -> SweepOutcome {
    sweep_topk(
        ordered.to_vec(),
        outside.to_vec(),
        0.0,
        TIE_X_MAX,
        max_events,
    )
}

/// Seeded Fisher–Yates (splitmix64), so a shuffle is reproducible.
fn shuffle(lines: &mut [Line], seed: &mut u64) {
    for i in (1..lines.len()).rev() {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        lines.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Every permutation of `lines` (Heap's algorithm), passed to `visit`.
fn for_each_permutation(lines: &mut [Line], visit: &mut impl FnMut(&[Line])) {
    fn heap(n: usize, lines: &mut [Line], visit: &mut impl FnMut(&[Line])) {
        if n <= 1 {
            visit(lines);
            return;
        }
        for i in 0..n - 1 {
            heap(n - 1, lines, visit);
            let j = if n % 2 == 0 { i } else { 0 };
            lines.swap(j, n - 1);
        }
        heap(n - 1, lines, visit);
    }
    heap(lines.len(), lines, visit);
}

fn rank_at(lines: &[Line], x: f64) -> Vec<u64> {
    let mut sorted: Vec<&Line> = lines.iter().collect();
    sorted.sort_by(|a, b| {
        b.eval(x)
            .total_cmp(&a.eval(x))
            .then_with(|| a.label.cmp(&b.label))
    });
    sorted.iter().map(|l| l.label).collect()
}

fn lines_strategy(count: usize) -> impl Strategy<Value = Vec<Line>> {
    proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), count..=count).prop_map(|params| {
        params
            .into_iter()
            .enumerate()
            .map(|(i, (intercept, slope))| Line::new(i as u64, intercept, slope))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_seed(0xB00C_0003))]

    /// Between consecutive events the k-th member reported by the sweep's
    /// envelope equals the brute-force k-th ranked line, and after the last
    /// event the final order equals the brute-force ranking.
    #[test]
    fn sweep_matches_brute_force_ranking(all_lines in lines_strategy(8), k in 2usize..5) {
        let x_max = 0.7f64;
        // Rank at x = 0 to split into result (top k) and outside lines.
        let initial = rank_at(&all_lines, 0.0);
        let topk: Vec<Line> = initial[..k]
            .iter()
            .map(|&label| all_lines[label as usize])
            .collect();
        let outside: Vec<Line> = initial[k..]
            .iter()
            .map(|&label| all_lines[label as usize])
            .collect();

        let outcome = sweep_topk(topk.clone(), outside, 0.0, x_max, 1_000);
        prop_assert!(!outcome.truncated);

        // The envelope value must equal the k-th best value among *all* lines
        // at the midpoint of each piece (modulo ties, compare values not
        // labels).
        for piece in &outcome.envelope {
            let mid = 0.5 * (piece.x_start + piece.x_end);
            if piece.x_end - piece.x_start < 1e-9 {
                continue;
            }
            let mut values: Vec<f64> = all_lines.iter().map(|l| l.eval(mid)).collect();
            values.sort_by(|a, b| b.total_cmp(a));
            let expected_kth = values[k - 1];
            prop_assert!(
                (piece.line.eval(mid) - expected_kth).abs() < 1e-9,
                "envelope value {} != k-th value {} at x = {mid}",
                piece.line.eval(mid),
                expected_kth
            );
        }

        // The order after the final event must equal the brute-force top-k
        // order just past it (ties can legitimately differ exactly at the
        // event, so sample slightly to the right).
        if let Some(last) = outcome.events.last() {
            let probe = (last.x + 1e-9).min(x_max);
            let expected: Vec<u64> = rank_at(&all_lines, probe)[..k].to_vec();
            let expected_values: Vec<f64> = expected
                .iter()
                .map(|&l| all_lines[l as usize].eval(probe))
                .collect();
            let got_values: Vec<f64> = last
                .order_after
                .iter()
                .map(|&l| all_lines[l as usize].eval(probe))
                .collect();
            for (g, e) in got_values.iter().zip(&expected_values) {
                prop_assert!((g - e).abs() < 1e-9, "ranked values diverge at x = {probe}");
            }
        }

        // Events must be in non-decreasing x order and inside the range.
        for w in outcome.events.windows(2) {
            prop_assert!(w[0].x <= w[1].x + 1e-12);
        }
        for ev in &outcome.events {
            prop_assert!(ev.x >= -1e-12 && ev.x <= x_max + 1e-12);
        }
    }

    /// A sweep with no outside lines reports exactly the pairwise crossings
    /// of the result lines that occur inside the range (counted with the
    /// adjacency rule), never more than `k(k-1)/2`.
    #[test]
    fn reorder_count_is_bounded(all_lines in lines_strategy(6)) {
        let k = all_lines.len();
        let initial = rank_at(&all_lines, 0.0);
        let ordered: Vec<Line> = initial.iter().map(|&l| all_lines[l as usize]).collect();
        let outcome = sweep_topk(ordered, vec![], 0.0, 1.0, 10_000);
        prop_assert!(outcome.events.len() <= k * (k - 1) / 2);
        // And the final order matches brute force at x = 1.
        let final_order = outcome
            .events
            .last()
            .map(|e| e.order_after.clone())
            .unwrap_or_else(|| initial.clone());
        let expected = rank_at(&all_lines, 1.0);
        let val = |label: u64| all_lines[label as usize].eval(1.0);
        for (a, b) in final_order.iter().zip(&expected) {
            prop_assert!((val(*a) - val(*b)).abs() < 1e-9);
        }
    }

    /// The outcome is a function of the set of outside lines: every
    /// permutation of them (a seeded sample of 200 above six lines) gives a
    /// bit-identical outcome.
    #[test]
    fn sweep_ignores_outside_order(case in tie_case_strategy(), seed in 0u64..u64::MAX) {
        let (ordered, outside, max_events) = case;
        let reference = bits(&sweep(&ordered, &outside, max_events));
        let mut check = |perm: &[Line]| {
            assert_eq!(bits(&sweep(&ordered, perm, max_events)), reference, "outside order {perm:?}");
        };
        let mut lines = outside.clone();
        if lines.len() <= 6 {
            for_each_permutation(&mut lines, &mut check);
        } else {
            let mut seed = seed;
            for _ in 0..200 {
                shuffle(&mut lines, &mut seed);
                check(&lines);
            }
        }
    }

    /// Fed in a random order, the incremental sweep equals the from-scratch
    /// sweep over every line fed so far, after every push.
    #[test]
    fn incremental_sweep_equals_from_scratch(case in tie_case_strategy(), seed in 0u64..u64::MAX) {
        let (ordered, outside, max_events) = case;
        let mut order = outside.clone();
        let mut seed = seed;
        shuffle(&mut order, &mut seed);
        let mut incremental = IncrementalSweep::new(ordered.clone(), 0.0, TIE_X_MAX, max_events);
        for (fed, line) in order.iter().enumerate() {
            incremental.push(*line);
            prop_assert_eq!(
                bits(incremental.outcome()),
                bits(&sweep(&ordered, &order[..=fed], max_events)),
                "after feeding {:?}", &order[..=fed]
            );
        }
    }

    /// Fed `a, b, d, n` in that order with the noise shuffled in between, the
    /// incremental sweep keeps `d` dormant until `n` arrives, then runs one
    /// sweep for `n` and one more for `d` waking, and equals the
    /// from-scratch sweep after every push.
    #[test]
    fn a_dormant_line_wakes_when_events_vanish(case in wake_case_strategy(), seed in 0u64..u64::MAX) {
        let (r, planted, noise) = case;
        let [_, _, d, n] = planted;
        let mut order: Vec<Line> = noise.iter().chain(&planted).copied().collect();
        let mut seed = seed;
        shuffle(&mut order, &mut seed);
        // Keep the shuffled slots but put the planted lines back in order.
        let mut next = planted.iter();
        for line in order.iter_mut().filter(|line| line.label < 5) {
            *line = *next.next().expect("four planted slots");
        }
        let mut incremental = IncrementalSweep::new(vec![r], 0.0, TIE_X_MAX, 2);
        for (fed, line) in order.iter().enumerate() {
            let sweeps = incremental.sweeps();
            if line.label == n.label {
                prop_assert!(incremental.dormant().contains(&d), "d must be dormant before n");
            }
            incremental.push(*line);
            prop_assert_eq!(
                bits(incremental.outcome()),
                bits(&sweep(&[r], &order[..=fed], 2)),
                "after feeding {:?}", &order[..=fed]
            );
            if line.label == n.label {
                prop_assert_eq!(incremental.sweeps(), sweeps + 2, "one sweep for n, one for d");
                prop_assert!(!incremental.dormant().contains(&d), "d must wake");
            }
        }
    }

    /// A line the outcome judges inert, appended to the outside lines,
    /// leaves the from-scratch sweep bit-identical.
    #[test]
    fn appending_an_inert_line_changes_nothing(case in tie_case_strategy()) {
        let (ordered, outside, max_events) = case;
        for held_out in 0..outside.len() {
            let mut rest = outside.clone();
            let line = rest.remove(held_out);
            let before = sweep(&ordered, &rest, max_events);
            if before.is_inert(&line) {
                rest.push(line);
                prop_assert_eq!(bits(&sweep(&ordered, &rest, max_events)), bits(&before), "appended {:?}", line);
            }
        }
    }
}
