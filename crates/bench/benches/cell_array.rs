//! Substrate throughput: cell power-up, one-count accumulation, Hamming
//! kernels, and the aging step — the inner loops of the whole campaign.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pufbits::{BitVec, OnesCounter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sramaging::{AgingSimulator, StressConditions};
use sramcell::{Environment, PowerUpKernel, SramArray, TechnologyProfile};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let profile = TechnologyProfile::atmega32u4();
    let env = Environment::nominal(&profile);
    let mut rng = StdRng::seed_from_u64(10);
    let sram = SramArray::generate(&profile, 8192, &mut rng);

    let mut group = c.benchmark_group("substrate");
    group.throughput(Throughput::Elements(8192));

    group.bench_function("power_up_8192_cells", |b| {
        b.iter(|| black_box(sram.power_up(&env, &mut rng)));
    });

    // The campaign engine's fast path: a cached always-one mask plus one
    // u64 draw per noisy cell. Compare against `power_up_8192_cells` (the
    // scalar path).
    group.bench_function("power_up_batched_8192_cells", |b| {
        let mut kernel = PowerUpKernel::new();
        kernel.power_up(&sram, &env, &mut rng);
        b.iter(|| black_box(kernel.power_up(&sram, &env, &mut rng)));
    });

    // Cold cache: mask and thresholds rebuilt every call, as after an
    // aging step.
    group.bench_function("power_up_batched_cold_8192_cells", |b| {
        b.iter(|| {
            let mut kernel = PowerUpKernel::new();
            black_box(kernel.power_up(&sram, &env, &mut rng))
        });
    });

    group.bench_function("ones_counter_add_8192", |b| {
        let readout = sram.power_up(&env, &mut rng);
        let mut counter = OnesCounter::new(8192);
        b.iter(|| counter.add(black_box(&readout)).unwrap());
    });

    group.bench_function("hamming_distance_8192", |b| {
        let x = sram.power_up(&env, &mut rng);
        let y = sram.power_up(&env, &mut rng);
        b.iter(|| black_box(x.hamming_distance(&y)));
    });

    group.bench_function("bitvec_xor_8192", |b| {
        let x = sram.power_up(&env, &mut rng);
        let y = sram.power_up(&env, &mut rng);
        b.iter(|| black_box(&x ^ &y));
    });

    group.bench_function("aging_step_one_month_8192_cells", |b| {
        b.iter_batched(
            || {
                (
                    sram.clone(),
                    AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile)),
                )
            },
            |(mut array, mut sim)| {
                sim.advance(&mut array, 1.0 / 12.0, 1);
                black_box(array)
            },
            criterion::BatchSize::SmallInput,
        );
    });

    group.bench_function("bitvec_roundtrip_bytes_8192", |b| {
        let x = sram.power_up(&env, &mut rng);
        b.iter(|| black_box(BitVec::from_bytes(&x.to_bytes())));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
