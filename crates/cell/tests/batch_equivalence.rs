//! The batched kernel samples the scalar model's distribution: at paper
//! geometry (8 192 `atmega32u4` cells), every cell's empirical one-frequency
//! over `READS` kernel read-outs lies within five binomial standard errors
//! of the scalar model's `p_i = Phi(m_i / sigma)`
//! (`SramArray::one_probabilities`, the probability `SramArray::power_up`
//! samples) plus a three-count slack for the skewed small-`p` binomial. At
//! `p = 1/2` that bound is 0.0079, inside the flat 0.01 the scalar
//! `power_up_frequency_matches_probability` unit test uses. Cells whose
//! minority state has probability below 2^-64 must never flip.

use pufbits::{BitVec, OnesCounter};
use pufstats::normal::phi_complement;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sramcell::{Environment, PowerUpKernel, SramArray, TechnologyProfile};

const CELLS: usize = 8192;
const READS: u32 = 100_000;

fn paper_array(seed: u64) -> (SramArray, Environment) {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = TechnologyProfile::atmega32u4();
    let sram = SramArray::generate(&profile, CELLS, &mut rng);
    let env = Environment::nominal(&profile);
    (sram, env)
}

/// One-counts of `reads` read-outs of `bits` cells.
fn count_ones(bits: usize, reads: u32, mut read: impl FnMut() -> BitVec) -> Vec<u32> {
    let mut counter = OnesCounter::new(bits);
    for _ in 0..reads {
        counter.add(&read()).unwrap();
    }
    counter.counts().to_vec()
}

/// Asserts the per-cell bound against the model probabilities `p` and that
/// deterministic cells never flip; returns how many cells were
/// deterministic, so callers can check the check was not vacuous.
fn assert_matches_model(sram: &SramArray, env: &Environment, counts: &[u32]) -> usize {
    let n = f64::from(READS);
    let sigma = env.noise_sigma(sram.profile());
    let p = sram.one_probabilities(env);
    let mut deterministic = 0;
    for (i, (&count, cell)) in counts.iter().zip(sram.cells()).enumerate() {
        let p = p[i];
        let p_hat = f64::from(count) / n;
        let bound = 5.0 * (p * (1.0 - p) / n).sqrt() + 3.0 / n;
        assert!(
            (p_hat - p).abs() <= bound,
            "cell {i}: p_hat={p_hat} vs p={p} (bound {bound})"
        );
        let x = cell.mismatch() / sigma;
        if phi_complement(x.abs()) < 2f64.powi(-64) {
            deterministic += 1;
            let want = if x > 0.0 { READS } else { 0 };
            assert_eq!(
                count, want,
                "deterministic cell {i} (m/sigma = {x}) flipped"
            );
        }
    }
    deterministic
}

#[test]
fn batched_kernel_one_frequencies_match_one_probabilities() {
    let (sram, env) = paper_array(20);
    let mut rng = StdRng::seed_from_u64(21);
    let mut kernel = PowerUpKernel::new();
    let counts = count_ones(CELLS, READS, || kernel.power_up(&sram, &env, &mut rng));
    let deterministic = assert_matches_model(&sram, &env, &counts);
    assert!(
        deterministic > CELLS / 2,
        "only {deterministic} deterministic cells"
    );

    // Two-sample check against the scalar sampler itself: fewer reads,
    // since it draws one Gaussian per cell.
    let scalar_reads = 2_000u32;
    let scalar = count_ones(CELLS, scalar_reads, || sram.power_up(&env, &mut rng));
    let (nk, ns) = (f64::from(READS), f64::from(scalar_reads));
    for (i, p) in sram.one_probabilities(&env).into_iter().enumerate() {
        let gap = f64::from(counts[i]) / nk - f64::from(scalar[i]) / ns;
        let bound = 5.0 * (p * (1.0 - p) * (1.0 / nk + 1.0 / ns)).sqrt() + 3.0 / ns;
        assert!(gap.abs() <= bound, "cell {i}: kernel vs scalar gap {gap}");
    }
}

#[test]
fn batched_kernel_tracks_scalar_path_after_aging() {
    // The cache must follow mismatch changes: compare frequencies against
    // the *aged* probabilities, not the fresh ones. Pulling every cell
    // toward balance moves many of them across the deterministic cut-off.
    let (mut sram, env) = paper_array(22);
    let mut rng = StdRng::seed_from_u64(23);
    let mut kernel = PowerUpKernel::new();
    kernel.power_up(&sram, &env, &mut rng);

    for cell in sram.cells_mut() {
        cell.shift(-3.0 * cell.mismatch().signum());
    }

    let counts = count_ones(CELLS, READS, || kernel.power_up(&sram, &env, &mut rng));
    let deterministic = assert_matches_model(&sram, &env, &counts);
    assert!(
        deterministic > CELLS / 3,
        "only {deterministic} deterministic cells"
    );
}

#[test]
fn batched_kernel_prefix_window_matches_one_probabilities() {
    let (sram, env) = paper_array(24);
    let window = 5_000;
    let prefix = SramArray::from_cells(sram.profile(), sram.cells()[..window].to_vec());
    let mut rng = StdRng::seed_from_u64(25);
    let mut kernel = PowerUpKernel::new();
    let counts = count_ones(window, READS, || {
        kernel.power_up_prefix(&sram, &env, window, &mut rng)
    });
    let deterministic = assert_matches_model(&prefix, &env, &counts);
    assert!(
        deterministic > window / 2,
        "only {deterministic} deterministic cells"
    );
}
