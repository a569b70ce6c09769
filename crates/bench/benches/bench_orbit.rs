//! EXT-COV: regenerates the orbital-substrate validation — analytic
//! versus Monte-Carlo latitude density and constellation coverage — and
//! measures propagation throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use leo_geomath::LatLng;
use leo_orbit::coverage::{coverage, CoverageConfig};
use leo_orbit::density::{empirical_density_factor, empirical_density_factors};
use leo_orbit::{density_factor, CircularOrbit, WalkerShell};
use std::hint::black_box;

fn bench_orbit(c: &mut Criterion) {
    c.bench_function("orbit/propagate_subsatellite", |b| {
        let o = CircularOrbit::new(550.0, 53.0, 30.0, 0.0);
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            black_box(o.subsatellite(t))
        })
    });

    c.bench_function("orbit/analytic_density_factor", |b| {
        b.iter(|| black_box(density_factor(black_box(37.0), 53.0)))
    });

    let mut group = c.benchmark_group("orbit/montecarlo");
    group.sample_size(10);
    group.bench_function("empirical_density_288_sats", |b| {
        let shell = WalkerShell::new(550.0, 53.0, 18, 16, 5);
        b.iter(|| black_box(empirical_density_factor(&shell, 37.0, 2.0, 101)))
    });
    group.bench_function("empirical_density_7_lats_batch_720_sats", |b| {
        // The orbit-validate table: one propagation pass bins all seven
        // latitudes.
        let shell = WalkerShell::new(550.0, 53.0, 36, 20, 11);
        let lats = [0.0, 10.0, 20.0, 30.0, 37.0, 45.0, 50.0];
        b.iter(|| black_box(empirical_density_factors(&shell, &lats, 2.0, 257)))
    });
    group.bench_function("coverage_gen1_shell", |b| {
        let shells = [WalkerShell::starlink_gen1_shell1()];
        let points = [LatLng::new(39.5, -98.35)];
        let cfg = CoverageConfig {
            time_samples: 16,
            ..CoverageConfig::default()
        };
        b.iter(|| black_box(coverage(&shells, &points, &cfg)))
    });
    group.finish();

    // Regression gate: the density model the sizing rests on.
    let shell = WalkerShell::new(550.0, 53.0, 24, 16, 5);
    for lat in [0.0, 20.0, 37.0] {
        let analytic = density_factor(lat, 53.0).unwrap();
        let empirical = empirical_density_factor(&shell, lat, 2.0, 211);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "lat {lat}: {empirical} vs {analytic}"
        );
    }
    println!(
        "EXT-COV: d(37) analytic {:.4}, Monte-Carlo {:.4}",
        density_factor(37.0, 53.0).unwrap(),
        empirical_density_factor(&shell, 37.0, 2.0, 211)
    );
}

criterion_group!(benches, bench_orbit);
criterion_main!(benches);
