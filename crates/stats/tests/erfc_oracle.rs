//! Locks the accuracy of the fixed-cost `erf`/`erfc` against two
//! independent references over a sweep of `[-7, 27]`:
//!
//! * the iterative incomplete-gamma code they replaced (`oracle/erfc.rs`,
//!   kept verbatim), to 2e-13 relative wherever the value is ≥ 1e-300;
//! * the C library's `erf`/`erfc` on Linux, to 4 ulp.
//!
//! It also checks the reflection identity `erfc(−x) + erfc(x) = 2` and
//! that `erfc` never increases along the sweep.

#[path = "oracle/erfc.rs"]
mod oracle;

use pufstats::normal::phi;
use pufstats::special::{erf, erfc};

const LO: f64 = -7.0;
const HI: f64 = 27.0;
const POINTS: usize = 1 << 20;

/// The sweep: `POINTS + 1` evenly spaced arguments from `LO` to `HI`.
fn sweep() -> impl Iterator<Item = f64> {
    (0..=POINTS).map(|i| LO + (HI - LO) * i as f64 / POINTS as f64)
}

/// Distance in units in the last place: the number of doubles between
/// `a` and `b` (0 when they are equal, ±0 included).
fn ulps(a: f64, b: f64) -> u64 {
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    ordered(a).abs_diff(ordered(b))
}

fn relative_error(got: f64, want: f64) -> f64 {
    ((got - want) / want).abs()
}

#[test]
fn erfc_and_erf_match_the_incomplete_gamma_oracle() {
    let (mut worst_erfc, mut worst_erf) = (0.0f64, 0.0f64);
    for x in sweep() {
        let want = oracle::erfc(x);
        if want >= 1e-300 {
            let err = relative_error(erfc(x), want);
            assert!(err <= 2e-13, "erfc({x:e}) = {:e}, oracle {want:e}", erfc(x));
            worst_erfc = worst_erfc.max(err);
        }
        let want = oracle::erf(x);
        if want.abs() >= 1e-300 {
            let err = relative_error(erf(x), want);
            assert!(err <= 2e-13, "erf({x:e}) = {:e}, oracle {want:e}", erf(x));
            worst_erf = worst_erf.max(err);
        }
    }
    println!("worst relative error vs oracle: erfc {worst_erfc:e}, erf {worst_erf:e}");
}

#[test]
fn phi_matches_the_oracle_erf_form() {
    for x in [-3.0, -0.2, 0.0, 0.7, 2.5] {
        let want = 0.5 * (1.0 + oracle::erf(x / std::f64::consts::SQRT_2));
        assert!((phi(x) - want).abs() < 1e-13, "phi({x})");
    }
}

#[test]
fn erfc_reflection_sums_to_two_within_one_ulp() {
    for x in sweep() {
        let sum = erfc(-x) + erfc(x);
        assert!(ulps(sum, 2.0) <= 1, "erfc({x:e}) + erfc(-{x:e}) = {sum:e}");
    }
}

#[test]
fn erfc_never_increases_along_the_sweep() {
    let mut previous = f64::INFINITY;
    for x in sweep() {
        let e = erfc(x);
        assert!(e <= previous, "erfc rises at {x:e}: {previous:e} -> {e:e}");
        previous = e;
    }
}

#[cfg(target_os = "linux")]
#[test]
fn erfc_and_erf_are_within_four_ulp_of_the_c_library() {
    extern "C" {
        #[link_name = "erf"]
        fn libm_erf(x: f64) -> f64;
        #[link_name = "erfc"]
        fn libm_erfc(x: f64) -> f64;
    }
    let (mut worst_erfc, mut worst_erf) = (0u64, 0u64);
    for x in sweep() {
        // SAFETY: `erf`/`erfc` are pure C math functions of one double.
        let (want_erfc, want_erf) = unsafe { (libm_erfc(x), libm_erf(x)) };
        let d = ulps(erfc(x), want_erfc);
        assert!(d <= 4, "erfc({x:e}) = {:e}, libm {want_erfc:e}", erfc(x));
        worst_erfc = worst_erfc.max(d);
        let d = ulps(erf(x), want_erf);
        assert!(d <= 4, "erf({x:e}) = {:e}, libm {want_erf:e}", erf(x));
        worst_erf = worst_erf.max(d);
    }
    println!("worst ulp distance vs libm: erfc {worst_erfc}, erf {worst_erf}");
}
