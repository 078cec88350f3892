//! Special functions backing the statistical tests.
//!
//! Implemented from scratch so the workspace carries no numerical
//! dependencies: log-gamma (Lanczos), the regularized incomplete beta
//! function (Lentz continued fraction), the standard normal CDF
//! (via `erf`), and the normal quantile (Acklam's rational approximation).

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 for positive arguments.
///
/// # Panics
///
/// Panics if `x <= 0`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument");
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
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
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the Lentz continued
/// fraction, with the symmetry transform for fast convergence.
///
/// # Panics
///
/// Panics unless `a > 0`, `b > 0`, and `x ∈ [0, 1]`.
#[must_use]
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires positive shape parameters");
    assert!((0.0..=1.0).contains(&x), "beta_inc requires x in [0, 1]");
    // The domain endpoints, as inequalities: equivalent to exact
    // equality under the assert above.
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp()) * beta_cf(a, b, x) / a
    } else {
        1.0 - (ln_front.exp()) * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes style
/// modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Error function, Abramowitz & Stegun 7.1.26-style rational approximation
/// refined with one extra term (max error ~1.5e-7, adequate for p-values).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736)
            * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function `Φ(z)`.
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's algorithm, |ε| < 1.15e-9).
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1)`.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires p in (0, 1)");
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_8,
        -275.928_510_446_969_1,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
    ];
    const C: [f64; 6] = [
        -0.007_784_894_002_430_293,
        -0.322_396_458_041_136_4,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        0.007_784_695_709_041_462,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let q;
    let r;
    if p < P_LOW {
        q = (-2.0 * p.ln()).sqrt();
        return (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0);
    } else if p <= 1.0 - P_LOW {
        q = p - 0.5;
        r = q * q;
        return (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0);
    }
    q = (-2.0 * (1.0 - p).ln()).sqrt();
    -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
        / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
}

/// CDF of Student's t distribution with `df` degrees of freedom.
///
/// # Panics
///
/// Panics unless `df > 0`.
#[must_use]
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "student_t_cdf requires positive degrees of freedom");
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided critical value of Student's t: `t*` with
/// `P(|T| ≤ t*) = confidence`. Solved by bisection on the CDF.
///
/// # Panics
///
/// Panics unless `df > 0` and `confidence ∈ (0, 1)`.
#[must_use]
pub fn student_t_critical(df: f64, confidence: f64) -> f64 {
    assert!(df > 0.0, "student_t_critical requires positive df");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    let target = 1.0 - (1.0 - confidence) / 2.0;
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    while student_t_cdf(hi, df) < target {
        hi *= 2.0;
        if hi > 1e8 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df) < target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0_f64;
        for n in 1..=10u32 {
            if n > 1 {
                fact *= f64::from(n - 1);
            }
            assert!((ln_gamma(f64::from(n)) - fact.ln()).abs() < 1e-10);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_endpoints() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1, 1) = x.
        for i in 1..10 {
            let x = f64::from(i) / 10.0;
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a).
        let (a, b, x) = (2.5, 4.0, 0.3);
        assert!((beta_inc(a, b, x) - (1.0 - beta_inc(b, a, 1.0 - x))).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-4);
        assert!((normal_cdf(3.0) - 0.99865).abs() < 1e-4);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn student_t_cdf_symmetric() {
        for &df in &[1.0, 5.0, 19.0, 100.0] {
            assert!((student_t_cdf(0.0, df) - 0.5).abs() < 1e-12);
            let p = student_t_cdf(1.3, df) + student_t_cdf(-1.3, df);
            assert!((p - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn student_t_critical_reference_values() {
        // Classic t-table entries (two-sided 95%).
        assert!((student_t_critical(9.0, 0.95) - 2.262).abs() < 1e-3);
        assert!((student_t_critical(19.0, 0.95) - 2.093).abs() < 1e-3);
        // Large df converges to the normal 1.96.
        assert!((student_t_critical(10_000.0, 0.95) - 1.96).abs() < 2e-3);
    }

    #[test]
    fn student_t_heavy_tails_vs_normal() {
        // t with few df has heavier tails: CDF at 2.0 is smaller than Φ(2).
        assert!(student_t_cdf(2.0, 3.0) < normal_cdf(2.0));
    }

    #[test]
    #[should_panic(expected = "p in (0, 1)")]
    fn normal_quantile_rejects_boundary() {
        let _ = normal_quantile(1.0);
    }
}
