//! NBTI/PBTI aging models for SRAM PUF cells: nominal and accelerated
//! schedules.
//!
//! # Physics, as modelled
//!
//! The paper (§II-B) attributes SRAM PUF aging to **Negative Bias Temperature
//! Instability**: the switched-on PMOS transistor of whichever inverter holds
//! the stored state suffers a slow threshold-voltage increase. For a cell
//! storing its *preferred* state, that stress always acts to *reduce* the
//! threshold imbalance — the cell's mismatch `m` drifts toward zero. When
//! (occasionally, through noise, or eventually, through accumulated drift)
//! the cell powers up to the opposite state, the stress direction reverses.
//! Averaged over many power cycles the net drift is therefore proportional to
//! the *state duty imbalance* `2p − 1`, where `p = Phi(m)` is the cell's
//! one-probability:
//!
//! ```text
//! dm/dg = −(2·Phi(m) − 1),        g(τ) = A · τ^n
//! ```
//!
//! with `τ` the cumulative *effective stress time* (wall time × power-on duty
//! × acceleration factor) and `A, n` the technology's BTI prefactor and
//! power-law exponent. This single equation reproduces every qualitative
//! observation in the paper:
//!
//! * **Reliability loss decelerates** (Fig. 6a: faster change in year one) —
//!   the power law's `τ^n` slope decays.
//! * **Fully-skewed cells destabilize** (stable-cell ratio falls, Table I) —
//!   their `|2p − 1| = 1` maximizes drift toward balance.
//! * **Already-balanced cells stay put** (`2p − 1 ≈ 0`), so the mismatch
//!   distribution *piles up* near zero rather than crossing over — noise
//!   entropy rises.
//! * **The non-monotonic `|Vth,P2 − Vth,P1|` trajectory** the paper
//!   describes in §IV-D: once a cell crosses to a new preferred state the
//!   sign of `2p − 1` flips and the drift reverses.
//! * **Bias is preserved** (HW, BCHD, PUF entropy flat): drift magnitude per
//!   cell (≲1 noise-sigma over two years) is tiny against the population
//!   sigma (~17), so essentially no cell far from the boundary flips its
//!   preferred state.
//!
//! # Accelerated aging
//!
//! High temperature and overdrive voltage multiply the effective stress clock
//! by the Arrhenius/exponential factor of
//! [`TechnologyProfile::acceleration_factor`](sramcell::TechnologyProfile::acceleration_factor).
//! The [`accelerated`] module reproduces the comparator study the paper
//! argues against (WCHD 5.3 % → 7.2 % over the equivalent of two years,
//! i.e. 1.28 %/month compound versus the paper's nominal 0.74 %/month).
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use sramaging::{AgingSimulator, StressConditions};
//! use sramcell::{Environment, SramArray, TechnologyProfile};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2);
//! let profile = TechnologyProfile::atmega32u4();
//! let mut sram = SramArray::generate(&profile, 4096, &mut rng);
//! let fresh_stable = stable_fraction(&sram);
//!
//! let mut sim = AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile));
//! sim.advance(&mut sram, 2.0, 24); // two years in monthly steps
//! assert!(stable_fraction(&sram) < fresh_stable); // reliability degrades
//!
//! fn stable_fraction(sram: &SramArray) -> f64 {
//!     let n = sram.cells().iter().filter(|c| c.mismatch().abs() > 3.0).count();
//!     n as f64 / sram.len() as f64
//! }
//! ```

pub mod accelerated;
mod bti;
pub mod calibrate;
mod longterm;
mod simulate;

pub use bti::BtiModel;
pub use longterm::{analytic_series, compound_monthly_rate, ExpectedMetrics};
pub use simulate::{AgingSimulator, StressConditions};
