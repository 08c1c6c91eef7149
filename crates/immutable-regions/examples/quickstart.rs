//! Quickstart: the paper's running example (Figure 1) served by [`IrEngine`].
//!
//! Builds the four-tuple dataset, runs the top-2 query `q = <0.8, 0.5>`, and
//! prints the immutable region of each query weight together with the result
//! that takes over just past each boundary — the information a slide-bar
//! interface for interactive weight tuning would display. The engine then
//! serves a small batch, and a subscription (a fleet of one) follows a
//! drifting weight.
//!
//! Run with: `cargo run --example quickstart`

use immutable_regions::prelude::*;

fn main() -> EngineResult<()> {
    // One owned engine holds the index and warm buffer pool; handles are
    // Send + Sync + Clone with no lifetimes. CPT with φ = 1: besides the
    // immutable region, also report the next region (and its result) on
    // each side of every weight.
    let engine = IrEngine::builder()
        .dataset(Dataset::running_example()) // Figure 1: d1..d4, 2 dims
        .config(RegionConfig::with_phi(Algorithm::Cpt, 1))
        .threads(2)
        .build()?;
    let query = QueryVector::running_example(); // weights <0.8, 0.5>, k = 2

    let mut computation = engine.computation(&query)?;
    let result = computation.result();
    let report = computation.compute()?;

    println!("top-{} result: {:?}", query.k(), result.ids());
    println!();

    for dim in report.dims.iter() {
        println!(
            "weight q{} = {:.2}  ->  immutable region ({:+.4}, {:+.4})  i.e. q{} in [{:.4}, {:.4}]",
            dim.dim.0 + 1,
            dim.weight,
            dim.immutable.lo,
            dim.immutable.hi,
            dim.dim.0 + 1,
            dim.absolute_immutable().lo,
            dim.absolute_immutable().hi,
        );
        for region in &dim.regions {
            let marker = if region.contains(0.0) { "*" } else { " " };
            println!(
                "   {marker} delta in ({:+.4}, {:+.4})  result = {:?}",
                region.delta_lo, region.delta_hi, region.result
            );
        }
        if let Some(boundary) = &dim.upper_boundary {
            println!(
                "     raising q{} past {:+.4} causes {:?}",
                dim.dim.0 + 1,
                boundary.delta,
                boundary.perturbation
            );
        }
        if let Some(boundary) = &dim.lower_boundary {
            println!(
                "     lowering q{} past {:+.4} causes {:?}",
                dim.dim.0 + 1,
                boundary.delta,
                boundary.perturbation
            );
        }
        println!();
    }

    println!(
        "cost: {} candidates evaluated, {} logical page reads",
        report.stats.evaluated_candidates, report.stats.io.logical_reads
    );

    // Serving many queries: the engine fans a whole batch out over its
    // worker pool sharing the same warm buffer pool. The reports come back
    // in query order with identical regions for every worker count — here
    // the two-worker engine must agree with a sequential clone.
    let batch: Vec<QueryVector> = (0..4).map(|_| query.clone()).collect();
    let sequential = engine.with_threads(1).query_batch(&batch)?;
    let parallel = engine.query_batch(&batch)?;
    assert!(sequential
        .iter()
        .zip(&parallel)
        .all(|(a, b)| a.dims == b.dims));
    println!(
        "batch of {} queries over {} workers: identical regions, {} logical reads total",
        batch.len(),
        engine.threads(),
        parallel
            .iter()
            .map(|r| r.stats.io.logical_reads + r.stats.topk_io.logical_reads)
            .sum::<u64>()
    );

    // The subscribed-query loop: weight drift inside the reported region is
    // answered from the cached report (no I/O); drift outside triggers
    // exactly one recompute and re-anchors the subscription.
    let mut subscription = Subscription::new(&engine, query.clone())?;
    for delta in [0.02, 0.05, 0.08, 0.15] {
        let drifted = query.with_weight_shift(DimId(0), delta)?;
        let recomputed = subscription.update(&drifted)?;
        println!(
            "drift q1 by {delta:+.2}: {}  result {:?}",
            if recomputed {
                "region exit -> recomputed"
            } else {
                "inside region -> cached"
            },
            subscription.member().result()
        );
    }
    let stats = subscription.stats();
    println!(
        "subscription served {} drifts from cache, recomputed {}",
        stats.local_answers, stats.recomputes
    );
    Ok(())
}
