//! Aging drift must not amplify ulp-level changes in `Φ`: two years of
//! paper-campaign aging through the production [`AgingSimulator`] and
//! through the same update loop written against the iterative erfc that
//! `pufstats` used before its fixed-cost rewrite end at the same
//! mismatches to 1e-12.

#[path = "../../stats/tests/oracle/erfc.rs"]
mod oracle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sramaging::{AgingSimulator, BtiModel, StressConditions};
use sramcell::{SramArray, TechnologyProfile};

const CELLS: usize = 20_480;
const MONTHS: u32 = 24;
const SUBSTEPS: u32 = 4;

fn oracle_phi(x: f64) -> f64 {
    0.5 * oracle::erfc(-x / std::f64::consts::SQRT_2)
}

/// `AgingSimulator::advance` over `months` months, with the oracle `Φ`.
fn age_with_oracle(profile: &TechnologyProfile, cond: StressConditions, sram: &mut SramArray) {
    let bti = BtiModel::from_profile(profile);
    let noise = cond.env.noise_sigma(profile);
    let rate = cond.stress_rate(profile);
    let dt = (1.0 / 12.0) / f64::from(SUBSTEPS);
    let mut tau0 = 0.0;
    for _ in 0..MONTHS * SUBSTEPS {
        let tau1 = tau0 + dt * rate;
        let dg = bti.drift_increment(tau0, tau1);
        if dg > 0.0 {
            for cell in sram.cells_mut() {
                let imbalance = 2.0 * oracle_phi(cell.mismatch() / noise) - 1.0;
                cell.shift((-imbalance + bti.bias_ratio * cell.drift_bias()) * dg);
            }
        }
        tau0 = tau1;
    }
}

#[test]
fn two_years_of_aging_match_the_oracle_phi_per_cell() {
    let profile = TechnologyProfile::atmega32u4();
    let cond = StressConditions::paper_campaign(&profile);
    let mut production = SramArray::generate(&profile, CELLS, &mut StdRng::seed_from_u64(2017));
    let mut reference = production.clone();

    let mut sim = AgingSimulator::new(&profile, cond);
    for _ in 0..MONTHS {
        sim.advance(&mut production, 1.0 / 12.0, SUBSTEPS);
    }
    age_with_oracle(&profile, cond, &mut reference);

    let mut worst = 0.0f64;
    for (i, (p, r)) in production.cells().iter().zip(reference.cells()).enumerate() {
        let diff = (p.mismatch() - r.mismatch()).abs();
        assert!(
            diff <= 1e-12,
            "cell {i}: {} vs oracle {}",
            p.mismatch(),
            r.mismatch()
        );
        worst = worst.max(diff);
    }
    // The arrays really aged: the check above is not comparing fresh cells.
    let fresh = SramArray::generate(&profile, CELLS, &mut StdRng::seed_from_u64(2017));
    assert!(fresh
        .cells()
        .iter()
        .zip(production.cells())
        .any(|(f, p)| (f.mismatch() - p.mismatch()).abs() > 1e-3));
    println!("worst per-cell mismatch difference: {worst:e}");
}
