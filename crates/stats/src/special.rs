//! Special functions: `erf`, `erfc`, `ln Γ`, and the regularized incomplete
//! gamma functions.
//!
//! `erf`/`erfc` back the standard-normal CDF in [`crate::normal`], which
//! the cell, aging and calibration code evaluate once per cell per step.
//! They are a loop-free port of fdlibm's `s_erf.c`: one rational
//! approximation per range and at most two `exp` calls, about 40 ns per
//! call on a 2 vCPU x86-64 host against ~330 ns for the incomplete-gamma
//! evaluation they replaced. Measured over `[-7, 27]`, `erfc` is within
//! 4 ulp of glibc 2.36's `erfc` and within 1.1e-13 relative of that old
//! code wherever the value is at least 1e-300 (the old code is itself off
//! by up to 1.6e-13 around `x ≈ 23.4`); `erf` is within 1 ulp of glibc.
//! Against 120-bit reference values both stay under 2.5 ulp (`erfc`) and
//! 0.8 ulp (`erf`) outside the subnormal range.
//! `crates/stats/tests/erfc_oracle.rs` locks the glibc bound at 4 ulp and
//! the bound against the old code at 2e-13. `ln Γ` and the incomplete
//! gamma functions back the p-values of [`crate::randtests`].

// The approximations and coefficients of `erf`/`erfc` come from fdlibm:
//
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.

/// `erf(1)` rounded to 24 bits: the anchor of the `[0.84375, 1.25)` fit.
const ERX: f64 = f64::from_bits(0x3FEB_0AC1_6000_0000);
/// `2/√π − 1`: `erf(x) = x + EFX·x` to full precision for `|x| < 2⁻²⁸`.
const EFX: f64 = f64::from_bits(0x3FC0_6EBA_8214_DB69);
/// `2⁻²⁸`: below it `erf(x) = x + EFX·x`.
const TWO_POW_M28: f64 = f64::from_bits(0x3E30_0000_0000_0000);
/// `2⁻⁵⁶`: below it `erfc(x)` rounds to 1.
const TWO_POW_M56: f64 = f64::from_bits(0x3C70_0000_0000_0000);

/// `|x| < 0.84375`: `erf(x) = x + x·PP(x²)/QQ(x²)`.
const PP: [f64; 5] = [
    f64::from_bits(0x3FC0_6EBA_8214_DB68),
    f64::from_bits(0xBFD4_CD7D_691C_B913),
    f64::from_bits(0xBF9D_2A51_DBD7_194F),
    f64::from_bits(0xBF77_A291_2366_68E4),
    f64::from_bits(0xBEF8_EAD6_1200_16AC),
];
const QQ: [f64; 6] = [
    1.0,
    f64::from_bits(0x3FD9_7779_CDDA_DC09),
    f64::from_bits(0x3FB0_A54C_5536_CEBA),
    f64::from_bits(0x3F74_D022_C4D3_6B0F),
    f64::from_bits(0x3F21_5DC9_221C_1A10),
    f64::from_bits(0xBED0_9C43_42A2_6120),
];

/// `0.84375 ≤ |x| < 1.25`: `erf(|x|) = ERX + PA(s)/QA(s)`, `s = |x| − 1`.
const PA: [f64; 7] = [
    f64::from_bits(0xBF63_59B8_BEF7_7538),
    f64::from_bits(0x3FDA_8D00_AD92_B34D),
    f64::from_bits(0xBFD7_D240_FBB8_C3F1),
    f64::from_bits(0x3FD4_5FCA_8051_20E4),
    f64::from_bits(0xBFBC_6398_3D3E_28EC),
    f64::from_bits(0x3FA2_2A36_5997_95EB),
    f64::from_bits(0xBF61_BF38_0A96_073F),
];
const QA: [f64; 7] = [
    1.0,
    f64::from_bits(0x3FBB_3E66_18EE_E323),
    f64::from_bits(0x3FE1_4AF0_92EB_6F33),
    f64::from_bits(0x3FB2_635C_D99F_E9A7),
    f64::from_bits(0x3FC0_2660_E763_351F),
    f64::from_bits(0x3F8B_EDC2_6B51_DD1C),
    f64::from_bits(0x3F88_8B54_5735_151D),
];

/// `1.25 ≤ |x| < 1/0.35`:
/// `erfc(|x|) = exp(−x² − 0.5625 + RA(s)/SA(s)) / |x|`, `s = 1/x²`.
const RA: [f64; 8] = [
    f64::from_bits(0xBF84_3412_600D_6435),
    f64::from_bits(0xBFE6_3416_E4BA_7360),
    f64::from_bits(0xC025_1E04_41B0_E726),
    f64::from_bits(0xC04F_300A_E4CB_A38D),
    f64::from_bits(0xC064_4CB1_8428_2266),
    f64::from_bits(0xC067_135C_EBCC_ABB2),
    f64::from_bits(0xC054_5265_57E4_D2F2),
    f64::from_bits(0xC023_A0EF_C69A_C25C),
];
const SA: [f64; 9] = [
    1.0,
    f64::from_bits(0x4033_A6B9_BD70_7687),
    f64::from_bits(0x4061_350C_526A_E721),
    f64::from_bits(0x407B_290D_D58A_1A71),
    f64::from_bits(0x4084_2B19_21EC_2868),
    f64::from_bits(0x407A_D021_5770_0314),
    f64::from_bits(0x405B_28A3_EE48_AE2C),
    f64::from_bits(0x401A_47EF_8E48_4A93),
    f64::from_bits(0xBFAE_EFF2_EE74_9A62),
];

/// `1/0.35 ≤ |x| < 28`: as above with `RB/SB`.
const RB: [f64; 7] = [
    f64::from_bits(0xBF84_3412_39E8_6F4A),
    f64::from_bits(0xBFE9_93BA_70C2_85DE),
    f64::from_bits(0xC031_C209_555F_995A),
    f64::from_bits(0xC064_145D_43C5_ED98),
    f64::from_bits(0xC083_EC88_1375_F228),
    f64::from_bits(0xC090_0461_6A2E_5992),
    f64::from_bits(0xC07E_384E_9BDC_383F),
];
const SB: [f64; 8] = [
    1.0,
    f64::from_bits(0x403E_568B_261D_5190),
    f64::from_bits(0x4074_5CAE_221B_9F0A),
    f64::from_bits(0x4098_02EB_189D_5118),
    f64::from_bits(0x40A8_FFB7_688C_246A),
    f64::from_bits(0x40A3_F219_CEDF_3BE6),
    f64::from_bits(0x407D_A874_E79F_E763),
    f64::from_bits(0xC036_70E2_4271_2D62),
];

/// Horner evaluation of `c[0] + c[1]·x + … + c[N−1]·x^(N−1)`.
fn poly<const N: usize>(c: &[f64; N], x: f64) -> f64 {
    c[..N - 1]
        .iter()
        .rev()
        .fold(c[N - 1], |acc, &k| k + x * acc)
}

/// `x·PP(x²)/QQ(x²)` for `|x| < 0.84375`, so `erf(x) = x + small_part(x)`.
fn small_part(x: f64) -> f64 {
    let z = x * x;
    x * (poly(&PP, z) / poly(&QQ, z))
}

/// `erf(ax) − ERX` for `0.84375 ≤ ax < 1.25`.
fn mid_part(ax: f64) -> f64 {
    let s = ax - 1.0;
    poly(&PA, s) / poly(&QA, s)
}

/// `erfc(ax)` for `1.25 ≤ ax < 28`.
fn erfc_tail(ax: f64) -> f64 {
    let s = 1.0 / (ax * ax);
    let correction = if ax < 1.0 / 0.35 {
        poly(&RA, s) / poly(&SA, s)
    } else {
        poly(&RB, s) / poly(&SB, s)
    };
    // `z` keeps the top 20 fraction bits of `ax`, so `z·z` is exact and
    // `−x² = −z² + (z − x)(z + x)` keeps the exponent's rounding error
    // far below the final result's.
    let z = f64::from_bits(ax.to_bits() & 0xFFFF_FFFF_0000_0000);
    (-z * z - 0.5625).exp() * ((z - ax) * (z + ax) + correction).exp() / ax
}

/// Error function `erf(x)`.
///
/// Total: `erf(±∞) = ±1`, `erf(NaN)` is NaN, and `|x| ≥ 6` saturates to
/// `±1`. Accuracy is stated in the module docs.
///
/// # Examples
///
/// ```
/// let e = pufstats::special::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs();
    if ax < 0.84375 {
        if ax < TWO_POW_M28 {
            return x + EFX * x;
        }
        return x + small_part(x);
    }
    let e = if ax < 1.25 {
        ERX + mid_part(ax)
    } else if ax < 6.0 {
        1.0 - erfc_tail(ax)
    } else {
        1.0
    };
    e.copysign(x)
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Accurate in the far tail (down to `erfc(27) ≈ 5e-319`), which matters
/// for min-entropy of strongly skewed cells. Total: `erfc(+∞) = 0`,
/// `erfc(−∞) = 2`, `erfc(NaN)` is NaN; `x ≥ 28` saturates to 0 and
/// `x ≤ −6` to 2. Over `[-7, 27]` it is within 4 ulp of glibc's `erfc`
/// and within 2e-13 relative of the incomplete-gamma form `Q(1/2, x²)`
/// wherever the value is at least 1e-300, bounds that
/// `crates/stats/tests/erfc_oracle.rs` locks.
///
/// # Examples
///
/// ```
/// let e = pufstats::special::erfc(2.0);
/// assert!((e - 0.0046777349810472645).abs() < 1e-14);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let ax = x.abs();
    if ax < 0.84375 {
        if ax < TWO_POW_M56 {
            return 1.0 - x;
        }
        let y = small_part(x);
        return if x < 0.25 {
            1.0 - (x + y)
        } else {
            0.5 - (y + (x - 0.5))
        };
    }
    if ax < 1.25 {
        let d = mid_part(ax);
        return if x > 0.0 {
            (1.0 - ERX) - d
        } else {
            1.0 + (ERX + d)
        };
    }
    if x >= 28.0 {
        0.0
    } else if x <= -6.0 {
        2.0
    } else if x > 0.0 {
        erfc_tail(x)
    } else {
        2.0 - erfc_tail(ax)
    }
}

/// Natural log of the gamma function, `ln Γ(x)` for `x > 0` (Lanczos).
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Examples
///
/// ```
/// // Γ(5) = 24
/// assert!((pufstats::special::ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos g=7, n=9 coefficients.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// // P(1, x) = 1 - exp(-x)
/// let p = pufstats::special::gamma_p(1.0, 2.0);
/// assert!((p - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
/// ```
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// let q = pufstats::special::gamma_q(1.0, 0.0);
/// assert!((q - 1.0).abs() < 1e-15);
/// ```
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz continued fraction for Q(a,x).
    let mut b = x + 1.0 - a;
    let mut c = 1e308;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -f64::from(i) * (f64::from(i) - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + an / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        let cases = [
            (0.0, 0.0),
            (0.1, 0.112_462_916_018_284_9),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-12, "erf({x}) = {}", erf(x));
            assert!((erf(-x) + want).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_is_complement_and_tail_accurate() {
        for x in [0.0, 0.3, 0.7, 1.5, 3.0, 5.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
        // Tail value from high-precision tables: erfc(5) ≈ 1.5374597944280e-12
        assert!((erfc(5.0) / 1.537_459_794_428_035e-12 - 1.0).abs() < 1e-9);
        // Deep tail stays finite and positive.
        assert!(erfc(20.0) > 0.0 && erfc(20.0) < 1e-170);
    }

    #[test]
    fn erf_and_erfc_are_total() {
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erfc(1e200), 0.0);
        assert_eq!(erfc(-1e200), 2.0);
        assert!(erfc(f64::NAN).is_nan());
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert_eq!(erf(1e200), 1.0);
        assert_eq!(erf(-1e200), -1.0);
        assert!(erf(f64::NAN).is_nan());
    }

    #[test]
    fn erf_and_erfc_at_signed_zero_and_tiny_arguments() {
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erfc(-0.0), 1.0);
        assert_eq!(erf(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(erf(-0.0).to_bits(), (-0.0f64).to_bits());
        // Below 2^-56 erfc rounds to one; erf stays linear with slope 2/sqrt(pi).
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
        for x in [1e-17, 2f64.powi(-57), 1e-300, f64::MIN_POSITIVE] {
            assert_eq!(erfc(x), 1.0, "erfc({x:e})");
            assert_eq!(erfc(-x), 1.0, "erfc(-{x:e})");
            assert!(
                (erf(x) / (two_over_sqrt_pi * x) - 1.0).abs() < 1e-15,
                "erf({x:e})"
            );
            assert_eq!(erf(-x), -erf(x));
        }
    }

    #[test]
    fn erf_and_erfc_saturate_outside_the_fitted_ranges() {
        for x in [28.0, 30.0, 1e3, f64::MAX] {
            assert_eq!(erfc(x), 0.0, "erfc({x})");
        }
        for x in [-6.0, -6.5, -27.0, -1e3, -f64::MAX] {
            assert_eq!(erfc(x), 2.0, "erfc({x})");
            assert_eq!(erf(x), -1.0, "erf({x})");
        }
        // Inside the saturation points the tails are still resolved:
        // erfc(27) ≈ 5.237e-319 (subnormal), erfc(-5) = 2 - 1.5e-12.
        assert!((erfc(27.0) / 5.237e-319 - 1.0).abs() < 1e-3);
        assert!(erfc(-5.0) < 2.0);
    }

    #[test]
    fn erfc_negative_arguments() {
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-14);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15 {
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
            fact *= n as f64;
        }
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_q_are_complements() {
        for a in [0.5, 1.0, 2.5, 10.0] {
            for x in [0.1, 1.0, 5.0, 20.0] {
                assert!(
                    (gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-12,
                    "a={a}, x={x}"
                );
            }
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        for x in [0.0, 0.5, 1.0, 3.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_p_chi_square_median() {
        // Chi-square with k dof has CDF P(k/2, x/2); median of k=2 is 2 ln 2.
        let median = 2.0 * 2.0f64.ln();
        assert!((gamma_p(1.0, median / 2.0) - 0.5).abs() < 1e-12);
    }
}
