//! Reference oracle: the iterative `erf`/`erfc` that backed `pufstats`'s
//! standard-normal CDF before the fixed-cost rational approximations
//! replaced it. `erfc` is `Q(1/2, x²)`, evaluated by an incomplete-gamma
//! series or Lentz continued fraction, with Lanczos `ln Γ`.
//!
//! The function bodies are kept verbatim so the equivalence tests compare
//! the library against the exact code it replaced. Include it with
//! `#[path = ".../stats/tests/oracle/erfc.rs"] mod oracle;`.

#![allow(dead_code)]

/// Oracle `erf(x)`.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        -erf(-x)
    } else if x < 0.5 {
        // Taylor/continued series is most accurate near zero.
        erf_series(x)
    } else {
        1.0 - erfc(x)
    }
}

/// Oracle `erfc(x) = 1 - erf(x)`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 0.5 {
        return 1.0 - erf_series(x);
    }
    // erfc(x) = Q(1/2, x^2), the regularized upper incomplete gamma function.
    gamma_q(0.5, x * x)
}

fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * sum_{k>=0} (-1)^k x^(2k+1) / (k! (2k+1))
    let mut term = x;
    let mut sum = x;
    let x2 = x * x;
    for k in 1..60 {
        term *= -x2 / k as f64;
        let add = term / (2 * k + 1) as f64;
        sum += add;
        if add.abs() < 1e-17 * sum.abs() {
            break;
        }
    }
    2.0 / std::f64::consts::PI.sqrt() * sum
}

/// Oracle `ln Γ(x)` (Lanczos).
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

/// Oracle regularized upper incomplete gamma `Q(a, x)`.
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
