//! Fig. 6 — the 24-month development curves, analytic and Monte-Carlo.

use criterion::{criterion_group, criterion_main, Criterion};
use pufbench::{run_assessment_streaming, Scale};
use sramaging::{analytic_series, BtiModel};
use sramcell::TechnologyProfile;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);

    group.bench_function("analytic_series_24_months", |b| {
        let profile = TechnologyProfile::atmega32u4();
        let bti = BtiModel::from_profile(&profile);
        b.iter(|| {
            black_box(analytic_series(
                &profile.population,
                bti,
                3.8 / 5.4,
                24,
                1000,
            ))
        });
    });

    group.bench_function("campaign_assessment_smoke", |b| {
        b.iter(|| black_box(run_assessment_streaming(Scale::Smoke, 6, 1)));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
