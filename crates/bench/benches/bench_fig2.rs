//! FIG2: regenerates Figure 2 — the fraction of US cells served over
//! the (beamspread, oversubscription) plane — and measures the sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use leo_bench::shared_model;
use starlink_divide::coverage_sweep;
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    let model = shared_model();

    c.bench_function("fig2/full_sweep_15x30", |b| {
        b.iter(|| black_box(coverage_sweep::sweep(model)))
    });

    // Micro-assert: the memoized view must agree with a freshly sorted
    // copy of the per-cell counts (and with itself across calls).
    let counts = model.dataset.sorted_counts();
    let mut fresh = model.dataset.cols.locations.clone();
    fresh.sort_unstable();
    assert_eq!(
        *counts, fresh,
        "cached sorted_counts diverged from fresh sort"
    );
    assert_eq!(*counts, *model.dataset.sorted_counts());

    c.bench_function("fig2/single_point", |b| {
        b.iter(|| {
            black_box(coverage_sweep::fraction_served(
                model,
                &counts,
                leo_capacity::Oversubscription::FCC_CAP,
                leo_capacity::beamspread::Beamspread::new(5).unwrap(),
            ))
        })
    });

    // Regression gate: the paper's corner annotations.
    let s = coverage_sweep::sweep(model);
    let bl = s.at(14, 5).unwrap();
    assert!((bl - 0.36).abs() < 0.05, "bottom-left {bl}");
    println!(
        "FIG2: fraction served (b=14,rho=5)={bl:.3}; (b=2,rho=30)={:.3}",
        s.at(2, 30).unwrap()
    );
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
