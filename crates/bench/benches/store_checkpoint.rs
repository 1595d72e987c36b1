//! Checkpoint throughput: capturing a campaign's state (the per-board
//! device digests dominate), encoding and decoding it as `pufchk/2`, and
//! the atomic file round trip — the cost of a checkpoint is what bounds
//! how often `--checkpoint-every` can reasonably fire. State size is
//! printed once: 57 bytes per board plus a fixed header, independent of
//! `sram_bits` and of how many records the campaign has already emitted.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pufbench::Scale;
use puftestbed::store::checkpoint;
use puftestbed::Campaign;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let scale = Scale::Smoke;
    let config = scale.campaign_config();
    let mut campaign = Campaign::new(config, 31);
    // Age the state past the first windows so drift fields are non-trivial.
    campaign.run_in_memory();
    let state = campaign.export_state();
    let encoded = checkpoint::encode(&state);
    println!(
        "state: {} boards × {} cells → {} bytes encoded",
        state.boards.len(),
        campaign.config().sram_bits,
        encoded.len()
    );

    let mut group = c.benchmark_group("store_checkpoint");
    group.sample_size(20);

    group.bench_function("export_state", |b| {
        b.iter(|| black_box(campaign.export_state()));
    });

    group.throughput(Throughput::Bytes(encoded.len() as u64));

    group.bench_function("encode", |b| {
        b.iter(|| black_box(checkpoint::encode(black_box(&state))));
    });

    group.bench_function("decode", |b| {
        b.iter(|| black_box(checkpoint::decode(black_box(&encoded)).unwrap()));
    });

    let path = std::env::temp_dir().join(format!("pufchk_bench_{}", std::process::id()));
    group.bench_function("write_file_atomic", |b| {
        b.iter(|| black_box(checkpoint::write_file(&path, &state).unwrap()));
    });

    group.bench_function("read_file", |b| {
        b.iter(|| black_box(checkpoint::read_file(&path).unwrap()));
    });
    std::fs::remove_file(&path).ok();

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
