//! Sensitivity analysis for multi-criteria decision making (the paper's
//! second motivating application, Section 1).
//!
//! A small hotel-booking scenario: each hotel is rated on price value,
//! cleanliness, location and service. The user weights the criteria, gets a
//! top-5 shortlist, and the immutable regions tell her which criterion the
//! recommendation is most sensitive to — a narrow region means a small
//! change of mind would alter the shortlist.
//!
//! Run with: `cargo run --example hotel_sensitivity`

use immutable_regions::prelude::*;

const CRITERIA: [&str; 4] = ["price value", "cleanliness", "location", "service"];
const HOTELS: [(&str, [f64; 4]); 12] = [
    ("Harbour View", [0.82, 0.91, 0.95, 0.88]),
    ("Grand Central", [0.55, 0.91, 0.98, 0.93]),
    ("Budget Inn", [0.97, 0.62, 0.55, 0.58]),
    ("Old Town Lodge", [0.78, 0.75, 0.88, 0.71]),
    ("Airport Express", [0.85, 0.70, 0.35, 0.66]),
    ("Boutique 21", [0.45, 0.95, 0.82, 0.97]),
    ("Riverside Suites", [0.67, 0.86, 0.79, 0.84]),
    ("City Backpackers", [0.99, 0.48, 0.75, 0.42]),
    ("Garden Retreat", [0.72, 0.89, 0.52, 0.86]),
    ("Metro Business", [0.60, 0.80, 0.92, 0.78]),
    ("Seaside Resort", [0.50, 0.84, 0.61, 0.90]),
    ("Station Hotel", [0.88, 0.66, 0.85, 0.60]),
];

fn main() -> IrResult<()> {
    let mut builder = DatasetBuilder::new(CRITERIA.len() as u32);
    for (_, ratings) in HOTELS {
        builder.push(SparseVector::from_dense(&ratings)?)?;
    }
    let engine = IrEngine::builder()
        .dataset(builder.build())
        .config(RegionConfig::flat(Algorithm::Cpt))
        .build()?;

    // The user cares most about cleanliness, then price, then service.
    let query = QueryBuilder::new(5)
        .weight(0, 0.6) // price value
        .weight(1, 0.9) // cleanliness
        .weight(3, 0.4) // service
        .build()?;

    let mut computation = engine.computation(&query)?;
    let report = computation.compute()?;

    println!("top-5 hotels for weights (price 0.6, cleanliness 0.9, service 0.4):");
    for (rank, entry) in computation.result().entries().iter().enumerate() {
        println!(
            "  {}. {:<18} score {:.3}",
            rank + 1,
            HOTELS[entry.id.index()].0,
            entry.score
        );
    }

    println!("\nsensitivity of the shortlist to each criterion:");
    let mut widths: Vec<(&str, f64, &DimRegions)> = report
        .dims
        .iter()
        .map(|d| (CRITERIA[d.dim.index()], d.immutable.width(), d))
        .collect();
    widths.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (name, width, dim) in &widths {
        println!(
            "  {:<12} weight {:.2}  tolerates ({:+.3}, {:+.3})  [width {:.3}]",
            name, dim.weight, dim.immutable.lo, dim.immutable.hi, width
        );
        if let Some(boundary) = &dim.upper_boundary {
            describe(boundary, "raised");
        }
        if let Some(boundary) = &dim.lower_boundary {
            describe(boundary, "lowered");
        }
    }
    let (most_sensitive, _, _) = widths[0];
    println!(
        "\nthe recommendation is most sensitive to '{most_sensitive}' — a small change of that \
         weight is the most likely to alter the shortlist"
    );
    Ok(())
}

fn describe(boundary: &RegionBoundary, direction: &str) {
    match boundary.perturbation {
        Perturbation::Reorder {
            moved_up,
            moved_down,
        } => println!(
            "      if {direction} past {:+.3}: {} overtakes {}",
            boundary.delta,
            HOTELS[moved_up.index()].0,
            HOTELS[moved_down.index()].0
        ),
        Perturbation::Replace { entering, leaving } => println!(
            "      if {direction} past {:+.3}: {} replaces {}",
            boundary.delta,
            HOTELS[entering.index()].0,
            HOTELS[leaving.index()].0
        ),
    }
}
