//! Batched power-up kernel: an exact per-cell Bernoulli sampler over
//! word-packed read-outs.
//!
//! [`SramArray::power_up`] is the reference implementation: per cell it draws
//! one Gaussian via rejection sampling, recomputes
//! `mismatch + noise_sigma · z > 0`, and pushes the bit through a `BitVec`
//! collect. Between aging epochs, though, the hidden-variable model makes
//! every cell an independent Bernoulli(`p_i = Phi(m_i / sigma)`), so
//! [`PowerUpKernel`] samples that Bernoulli directly:
//!
//! * once per `(aging epoch, noise sigma, read window)` it classifies each
//!   cell of the window by its **threshold** `⌊p_i · 2^64⌋`. Cells whose
//!   one-probability is within 2^-64 of 1 become a constant word **mask**;
//!   every other cell with a non-zero threshold goes on a `(cell, threshold)`
//!   **noisy list**; cells within 2^-64 of 0 are dropped. The aging
//!   simulator bumps the array's [`epoch`](SramArray::epoch) whenever it
//!   touches cells, which invalidates the cache;
//! * a read copies the mask and draws one `next_u64()` per noisy cell,
//!   setting the bit when the draw falls below the threshold. At paper
//!   geometry about 39 % of the cells are noisy, so a read costs ~3 200 RNG
//!   words instead of 8 192 Gaussians.
//!
//! Each cell stays an independent Bernoulli(`p̂_i`) with
//! `|p̂_i − p_i| ≤ 2^-64`, finer than a 53-bit uniform can resolve. The small
//! tail probability is always evaluated directly (`phi_complement(t)` for
//! `t = −m/sigma > 0`, `phi(t)` for `t ≤ 0`), never as `1 − p`, and cells
//! with `|t| ≥ 9.1` skip the `erfc` altogether.
//!
//! The kernel samples the same per-cell one-probabilities as the scalar
//! path, but not the same bitstream: it consumes the RNG differently. The
//! workspace's reproducibility contract is on metrics, not bitstreams (see
//! DESIGN.md). The draws are a pure function of the cache and the RNG
//! state, so a given RNG stream always yields the same read-outs.
//!
//! A kernel caches thresholds for **one** logical device; give each board
//! its own kernel rather than sharing one across devices.

use crate::{Environment, SramArray};
use pufbits::BitVec;
use pufstats::normal::{phi, phi_complement};
use rand::Rng;

/// `|t|` beyond which the small tail `Q(|t|)` is below 2^-64, so the cell's
/// threshold is 0 or 2^64 without evaluating `erfc` (`Q(9.1) · 2^64 ≈ 0.83`).
const TAIL_CUTOFF: f64 = 9.1;

/// 2^64 as an `f64`: scales a probability to a `u64` threshold.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// How a cell with decision point `t = −m/sigma` powers up, to within 2^-64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellClass {
    /// One with probability within 2^-64 of 1: a constant mask bit.
    AlwaysOne,
    /// Zero with probability within 2^-64 of 1: never sampled.
    AlwaysZero,
    /// One iff a uniform `u64` draw is below the threshold `⌊p · 2^64⌋`.
    Noisy(u64),
}

/// Classifies one cell by `t = −m/sigma`, the standard-normal point its
/// noise must exceed to power up to one (`p = Q(t)`).
fn classify(t: f64) -> CellClass {
    if t >= TAIL_CUTOFF {
        CellClass::AlwaysZero
    } else if t <= -TAIL_CUTOFF {
        CellClass::AlwaysOne
    } else if t > 0.0 {
        // p = Q(t) < 1/2: the product is exact, `as` truncates to the floor.
        match (phi_complement(t) * TWO_POW_64) as u64 {
            0 => CellClass::AlwaysZero,
            threshold => CellClass::Noisy(threshold),
        }
    } else {
        // 1 − p = Phi(t) ≤ 1/2 is the small tail; the threshold is
        // 2^64 − ⌊Phi(t) · 2^64⌋, which fits a u64 unless the tail is 0.
        match (phi(t) * TWO_POW_64) as u64 {
            0 => CellClass::AlwaysOne,
            zeros => CellClass::Noisy(zeros.wrapping_neg()),
        }
    }
}

/// Reusable batched power-up state: the cached always-one mask and noisy
/// list of one device's read window.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sramcell::{Environment, PowerUpKernel, SramArray, TechnologyProfile};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let profile = TechnologyProfile::atmega32u4();
/// let sram = SramArray::generate(&profile, 1024, &mut rng);
/// let env = Environment::nominal(&profile);
/// let mut kernel = PowerUpKernel::new();
/// let a = kernel.power_up(&sram, &env, &mut rng);
/// let b = kernel.power_up(&sram, &env, &mut rng);
/// assert_eq!(a.len(), 1024);
/// assert!(a.fractional_hamming_distance(&b) < 0.10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerUpKernel {
    /// Packed bits of the window's always-one cells; tail bits are zero.
    ones: Vec<u64>,
    /// `(cell index, threshold)` of every cell that can power up either way.
    noisy: Vec<(usize, u64)>,
    /// `(aging epoch, noise sigma bits, window length)` the cache is for.
    cache_key: Option<(u64, u64, usize)>,
}

impl PowerUpKernel {
    /// Creates a kernel with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates one full read-out of `sram` under `env`.
    pub fn power_up<R: Rng + ?Sized>(
        &mut self,
        sram: &SramArray,
        env: &Environment,
        rng: &mut R,
    ) -> BitVec {
        self.power_up_prefix(sram, env, sram.len(), rng)
    }

    /// Simulates a read-out of the first `bits` cells of `sram` under `env`
    /// — the testbed's read window — without touching cells past the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds the array length.
    pub fn power_up_prefix<R: Rng + ?Sized>(
        &mut self,
        sram: &SramArray,
        env: &Environment,
        bits: usize,
        rng: &mut R,
    ) -> BitVec {
        assert!(
            bits <= sram.len(),
            "read window of {bits} bits exceeds the {}-cell array",
            sram.len()
        );
        self.refresh(sram, env.noise_sigma(sram.profile()), bits);

        let mut words = self.ones.clone();
        for &(cell, threshold) in &self.noisy {
            words[cell / 64] |= u64::from(rng.next_u64() < threshold) << (cell % 64);
        }
        BitVec::from_words(words, bits)
    }

    /// Reclassifies the window's cells if the cache does not match this
    /// `(epoch, noise sigma, window)` — e.g. after aging or an environment
    /// change.
    fn refresh(&mut self, sram: &SramArray, noise_sigma: f64, bits: usize) {
        let key = (sram.epoch(), noise_sigma.to_bits(), bits);
        if self.cache_key == Some(key) {
            return;
        }
        self.ones.clear();
        self.ones.resize(bits.div_ceil(64), 0);
        self.noisy.clear();
        for (i, cell) in sram.cells()[..bits].iter().enumerate() {
            match classify(-cell.mismatch() / noise_sigma) {
                CellClass::AlwaysOne => self.ones[i / 64] |= 1 << (i % 64),
                CellClass::AlwaysZero => {}
                CellClass::Noisy(threshold) => self.noisy.push((i, threshold)),
            }
        }
        self.cache_key = Some(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TechnologyProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(bits: usize, seed: u64) -> (SramArray, Environment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = TechnologyProfile::atmega32u4();
        let sram = SramArray::generate(&profile, bits, &mut rng);
        let env = Environment::nominal(&profile);
        (sram, env)
    }

    #[test]
    fn balanced_cell_threshold_is_half_the_range() {
        assert_eq!(classify(0.0), CellClass::Noisy(1 << 63));
        assert_eq!(classify(-0.0), CellClass::Noisy(1 << 63));
    }

    #[test]
    fn tail_below_the_cutoff_rounds_to_a_constant() {
        assert!(phi_complement(TAIL_CUTOFF) * TWO_POW_64 < 1.0);
        assert_eq!(classify(TAIL_CUTOFF), CellClass::AlwaysZero);
        assert_eq!(classify(-TAIL_CUTOFF), CellClass::AlwaysOne);
        assert_eq!(classify(f64::MAX), CellClass::AlwaysZero);
        assert_eq!(classify(f64::MIN), CellClass::AlwaysOne);
        // Just inside the cut-off the erfc is evaluated and agrees.
        let inside = TAIL_CUTOFF - 1e-9;
        assert_eq!(classify(inside), CellClass::AlwaysZero);
        assert_eq!(classify(-inside), CellClass::AlwaysOne);
    }

    #[test]
    fn near_certain_one_keeps_its_small_zero_probability() {
        // p ≈ 1 − Phi(−8): evaluating 1 − p in f64 would lose the tail to
        // rounding; the threshold must leave exactly ⌊Phi(−8) · 2^64⌋ zeros.
        let zeros = (phi(-8.0) * TWO_POW_64) as u64;
        assert!(zeros > 0);
        assert_eq!(classify(-8.0), CellClass::Noisy(u64::MAX - zeros + 1));
        let ones = (phi_complement(8.0) * TWO_POW_64) as u64;
        assert_eq!(classify(8.0), CellClass::Noisy(ones));
        // Mirror cells are exact complements of each other.
        for t in [0.1, 1.0, 3.5, 8.9] {
            match (classify(t), classify(-t)) {
                (CellClass::Noisy(a), CellClass::Noisy(b)) => {
                    assert_eq!(a.wrapping_add(b), 0, "t = {t}")
                }
                other => panic!("t = {t}: {other:?}"),
            }
        }
    }

    #[test]
    fn thresholds_track_the_one_probability() {
        for t in [-5.0, -2.0, -0.3, 0.3, 2.0, 5.0] {
            let CellClass::Noisy(threshold) = classify(t) else {
                panic!("t = {t} must be noisy");
            };
            let p = phi_complement(t);
            let p_hat = threshold as f64 / TWO_POW_64;
            assert!(((p_hat - p) / p).abs() < 1e-12, "t = {t}: {p_hat} vs {p}");
        }
    }

    #[test]
    fn prefix_matches_full_read_statistics() {
        let (sram, env) = fixture(5000, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut kernel = PowerUpKernel::new();
        let full = kernel.power_up(&sram, &env, &mut rng);
        let prefix = kernel.power_up_prefix(&sram, &env, 1234, &mut rng);
        assert_eq!(full.len(), 5000);
        assert_eq!(prefix.len(), 1234);
        // Same device, same statistics: the two windows disagree only at
        // noisy cells.
        let fhd = prefix.fractional_hamming_distance(&full.prefix(1234));
        assert!(fhd < 0.10, "fhd {fhd}");
        // The cache covers the read window only.
        assert!(kernel.noisy.iter().all(|&(cell, _)| cell < 1234));
        assert_eq!(kernel.ones.len(), 1234usize.div_ceil(64));
    }

    #[test]
    fn cache_survives_reads_and_is_invalidated_by_aging() {
        let (mut sram, env) = fixture(1024, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut kernel = PowerUpKernel::new();
        kernel.power_up(&sram, &env, &mut rng);
        let key = kernel.cache_key;
        kernel.power_up(&sram, &env, &mut rng);
        assert_eq!(kernel.cache_key, key, "reads must not rebuild the cache");

        // Flip every cell's mismatch through the mutable path: the epoch
        // bump must force a rebuild that reflects the new values — every
        // threshold becomes its complement, and the always-one cells become
        // always-zero ones.
        for cell in sram.cells_mut() {
            *cell = crate::Cell::new(-cell.mismatch());
        }
        let (ones, noisy) = (kernel.ones.clone(), kernel.noisy.clone());
        kernel.power_up(&sram, &env, &mut rng);
        assert_ne!(kernel.cache_key, key);
        assert_eq!(kernel.noisy.len(), noisy.len());
        for (&(now_cell, now), &(old_cell, old)) in kernel.noisy.iter().zip(&noisy) {
            assert_eq!(now_cell, old_cell);
            assert_eq!(now.wrapping_add(old), 0);
        }
        let noisy_mask =
            BitVec::from_bits((0..1024).map(|i| noisy.iter().any(|&(cell, _)| cell == i)));
        for ((&now, &old), &flaky) in kernel.ones.iter().zip(&ones).zip(noisy_mask.as_words()) {
            assert_eq!(now & old, 0, "a cell cannot be always-one both ways");
            assert_eq!(now | old | flaky, u64::MAX, "every cell is classified");
        }
    }

    #[test]
    fn environment_change_rebuilds_thresholds() {
        let (sram, env) = fixture(512, 5);
        let hot = Environment {
            temp_c: 105.0,
            ..env
        };
        let mut rng = StdRng::seed_from_u64(6);
        let mut kernel = PowerUpKernel::new();
        kernel.power_up(&sram, &env, &mut rng);
        let nominal_key = kernel.cache_key;
        let nominal_noisy = kernel.noisy.len();
        kernel.power_up(&sram, &hot, &mut rng);
        assert_ne!(kernel.cache_key, nominal_key);
        assert!(kernel.noisy.len() > nominal_noisy, "heat adds noisy cells");
    }

    #[test]
    fn odd_lengths_pack_cleanly() {
        for bits in [1, 63, 64, 65, 4095, 4096, 4097] {
            let (sram, env) = fixture(bits, 7);
            let mut rng = StdRng::seed_from_u64(8);
            let mut kernel = PowerUpKernel::new();
            let read = kernel.power_up(&sram, &env, &mut rng);
            assert_eq!(read.len(), bits);
            // Tail invariant: bits past `len` stay zero.
            let rebuilt = BitVec::from_words(read.as_words().to_vec(), bits);
            assert_eq!(rebuilt, read);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_window_is_rejected() {
        let (sram, env) = fixture(64, 9);
        let mut kernel = PowerUpKernel::new();
        let mut rng = StdRng::seed_from_u64(10);
        kernel.power_up_prefix(&sram, &env, 65, &mut rng);
    }
}
