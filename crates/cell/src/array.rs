//! An SRAM array: the PUF-relevant state of one device.

use crate::{Cell, Environment, TechnologyProfile};
use pufbits::BitVec;
use pufstats::normal::sample;
use rand::Rng;

/// The SRAM array of one device: a technology profile plus one [`Cell`] per
/// bit.
///
/// On the paper's boards this is the 2.5 KB SRAM of an ATmega32u4, of which
/// the first 1 KB (8 192 cells) is read out per power cycle.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sramcell::{Environment, SramArray, TechnologyProfile};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let profile = TechnologyProfile::atmega32u4();
/// let sram = SramArray::generate(&profile, 1024, &mut rng);
/// let env = Environment::nominal(&profile);
/// let a = sram.power_up(&env, &mut rng);
/// let b = sram.power_up(&env, &mut rng);
/// // Two read-outs of the same array differ only at noisy cells.
/// assert!(a.fractional_hamming_distance(&b) < 0.10);
/// ```
#[derive(Debug, Clone)]
pub struct SramArray {
    profile: TechnologyProfile,
    cells: Vec<Cell>,
    /// Bumped on every grant of mutable cell access; lets derived caches
    /// (e.g. [`PowerUpKernel`](crate::PowerUpKernel) thresholds) detect
    /// aging-induced mismatch changes without hashing the cells.
    epoch: u64,
}

// The aging epoch is cache-invalidation metadata, not device state: two
// arrays with identical cells are the same device regardless of how many
// times mutable access was handed out.
impl PartialEq for SramArray {
    fn eq(&self, other: &Self) -> bool {
        self.profile == other.profile && self.cells == other.cells
    }
}

impl SramArray {
    /// Manufactures a fresh array of `bits` cells by sampling the profile's
    /// mismatch population.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn generate<R: Rng + ?Sized>(
        profile: &TechnologyProfile,
        bits: usize,
        rng: &mut R,
    ) -> Self {
        assert!(bits > 0, "an SRAM array needs at least one cell");
        let pop = profile.population;
        // Device-level systematic bias: one draw shared by every cell of
        // this array (board-to-board HW spread).
        let device_offset = sample(rng, 0.0, profile.device_bias_sigma);
        let cells = (0..bits)
            .map(|_| {
                let mismatch = device_offset + sample(rng, pop.mu, pop.sigma);
                let drift_bias = sample(rng, 0.0, 1.0);
                Cell::with_drift_bias(mismatch, drift_bias)
            })
            .collect();
        Self {
            profile: profile.clone(),
            cells,
            epoch: 0,
        }
    }

    /// Builds an array from explicit cells (for tests and fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    pub fn from_cells(profile: &TechnologyProfile, cells: Vec<Cell>) -> Self {
        assert!(!cells.is_empty(), "an SRAM array needs at least one cell");
        Self {
            profile: profile.clone(),
            cells,
            epoch: 0,
        }
    }

    /// Number of cells (bits).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the array holds no cells (never true for arrays
    /// built through the public constructors).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The technology profile the array was manufactured in.
    pub fn profile(&self) -> &TechnologyProfile {
        &self.profile
    }

    /// Read access to the cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Mutable access to the cells (used by the aging simulator). Every
    /// grant bumps the aging [`epoch`](Self::epoch), conservatively assuming
    /// the caller changes mismatches.
    pub fn cells_mut(&mut self) -> &mut [Cell] {
        self.epoch += 1;
        &mut self.cells
    }

    /// The aging epoch: a counter of mutable-access grants, used by derived
    /// caches to detect that per-cell thresholds are stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Simulates one power-up read-out under `env`.
    pub fn power_up<R: Rng + ?Sized>(&self, env: &Environment, rng: &mut R) -> BitVec {
        let noise = env.noise_sigma(&self.profile);
        self.cells.iter().map(|c| c.power_up(noise, rng)).collect()
    }

    /// Per-cell one-probabilities under `env`.
    pub fn one_probabilities(&self, env: &Environment) -> Vec<f64> {
        let noise = env.noise_sigma(&self.profile);
        self.cells
            .iter()
            .map(|c| c.one_probability(noise))
            .collect()
    }

    /// The noise-free preferred pattern (each cell's majority state),
    /// packed a word at a time.
    pub fn preferred_pattern(&self) -> BitVec {
        let mut words = vec![0u64; self.cells.len().div_ceil(64)];
        for (word, chunk) in words.iter_mut().zip(self.cells.chunks(64)) {
            for (bit, cell) in chunk.iter().enumerate() {
                *word |= u64::from(cell.preferred_state()) << bit;
            }
        }
        BitVec::from_words(words, self.cells.len())
    }

    /// Expected fractional Hamming weight under `env` (mean one-probability
    /// over cells) — the array-level analytic counterpart of a measured FHW.
    pub fn expected_fhw(&self, env: &Environment) -> f64 {
        let noise = env.noise_sigma(&self.profile);
        let sum: f64 = self.cells.iter().map(|c| c.one_probability(noise)).sum();
        sum / self.cells.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_array(bits: usize, seed: u64) -> SramArray {
        let mut rng = StdRng::seed_from_u64(seed);
        SramArray::generate(&TechnologyProfile::atmega32u4(), bits, &mut rng)
    }

    #[test]
    fn generated_array_matches_population_statistics() {
        // A single device carries a shared `device_offset` draw (sigma 0.6,
        // ≈ 0.013 in FHW units), so population statistics only emerge after
        // averaging several devices: 16 shrink the spread to ≈ 0.003.
        let devices = 16u64;
        let fhw = (0..devices)
            .map(|seed| {
                let sram = test_array(60_000 / devices as usize, seed);
                let env = Environment::nominal(sram.profile());
                sram.expected_fhw(&env)
            })
            .sum::<f64>()
            / devices as f64;
        let want = TechnologyProfile::atmega32u4().population.expected_fhw();
        assert!((fhw - want).abs() < 0.01, "fhw {fhw} vs {want}");
    }

    #[test]
    fn power_up_reproducibility_is_paper_scale() {
        let mut rng = StdRng::seed_from_u64(6);
        let sram = test_array(8192, 6);
        let env = Environment::nominal(sram.profile());
        let reference = sram.power_up(&env, &mut rng);
        let mut acc = 0.0;
        let reads = 50;
        for _ in 0..reads {
            acc += sram
                .power_up(&env, &mut rng)
                .fractional_hamming_distance(&reference);
        }
        let wchd = acc / f64::from(reads);
        // Paper start value is 2.49 %; allow generous Monte-Carlo slack.
        assert!((0.015..=0.035).contains(&wchd), "wchd {wchd}");
    }

    #[test]
    fn different_devices_are_unique() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = test_array(8192, 8);
        let b = test_array(8192, 9);
        let env = Environment::nominal(a.profile());
        let fhd = a
            .power_up(&env, &mut rng)
            .fractional_hamming_distance(&b.power_up(&env, &mut rng));
        // Paper: BCHD between 40 % and 50 %.
        assert!((0.40..=0.52).contains(&fhd), "bchd {fhd}");
    }

    #[test]
    fn preferred_pattern_is_majority_of_reads() {
        let mut rng = StdRng::seed_from_u64(10);
        let sram = test_array(2048, 11);
        let env = Environment::nominal(sram.profile());
        let preferred = sram.preferred_pattern();
        let mut counter = pufbits::OnesCounter::new(sram.len());
        for _ in 0..201 {
            counter.add(&sram.power_up(&env, &mut rng)).unwrap();
        }
        let majority = counter.majority();
        // The empirical majority agrees with the preferred state on almost
        // all cells (only near-balanced cells can disagree).
        let agreement = 1.0 - majority.fractional_hamming_distance(&preferred);
        assert!(agreement > 0.98, "agreement {agreement}");
    }

    #[test]
    fn hot_environment_increases_flakiness() {
        let mut rng = StdRng::seed_from_u64(12);
        let sram = test_array(8192, 13);
        let nominal = Environment::nominal(sram.profile());
        let hot = Environment {
            temp_c: 105.0,
            ..nominal
        };
        let preferred = sram.preferred_pattern();
        let avg = |env: &Environment, rng: &mut StdRng| {
            (0..30)
                .map(|_| {
                    sram.power_up(env, rng)
                        .fractional_hamming_distance(&preferred)
                })
                .sum::<f64>()
                / 30.0
        };
        assert!(avg(&hot, &mut rng) > avg(&nominal, &mut rng));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_array_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        SramArray::generate(&TechnologyProfile::atmega32u4(), 0, &mut rng);
    }
}
