//! Least-squares curve fitting with `R²` (Fig. 15).
//!
//! Fig. 15 fits tail latency vs. throughput as a piecewise function: linear
//! below the knee (37 Gbps in the paper) and quadratic above it, reporting
//! one `R²` per piece. [`piecewise_knee_fit`] reproduces exactly that.

/// A fitted line `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept `a`.
    pub a: f64,
    /// Slope `b`.
    pub b: f64,
    /// Coefficient of determination against the fitted points.
    pub r2: f64,
}

impl LinearFit {
    /// Evaluates the fitted line at `x`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        self.a + self.b * x
    }
}

/// A fitted parabola `y = a + b·x + c·x²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticFit {
    /// Constant term `a`.
    pub a: f64,
    /// Linear coefficient `b`.
    pub b: f64,
    /// Quadratic coefficient `c`.
    pub c: f64,
    /// Coefficient of determination against the fitted points.
    pub r2: f64,
}

impl QuadraticFit {
    /// Evaluates the fitted parabola at `x`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        self.a + self.b * x + self.c * x * x
    }
}

/// The Fig. 15 piecewise model: linear below the knee, quadratic at or
/// above.
#[derive(Debug, Clone, Copy)]
pub struct PiecewiseFit {
    /// Fit used for `x < knee`.
    pub low: LinearFit,
    /// Fit used for `x >= knee`.
    pub high: QuadraticFit,
}

fn r_squared(points: &[(f64, f64)], predict: impl Fn(f64) -> f64) -> f64 {
    let n = points.len() as f64;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - predict(p.0)).powi(2)).sum();
    if ss_tot == 0.0 {
        // A constant series perfectly predicted is a perfect fit.
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Ordinary least-squares line fit.
///
/// Returns `None` with fewer than two points or when all x-values coincide.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    let fit = LinearFit { a, b, r2: 0.0 };
    let r2 = r_squared(points, |x| fit.eval(x));
    Some(LinearFit { r2, ..fit })
}

/// Ordinary least-squares parabola fit via the 3×3 normal equations.
///
/// Returns `None` with fewer than three points or a singular system.
pub fn quadratic_fit(points: &[(f64, f64)]) -> Option<QuadraticFit> {
    if points.len() < 3 {
        return None;
    }
    let n = points.len() as f64;
    let (mut sx, mut sx2, mut sx3, mut sx4) = (0.0, 0.0, 0.0, 0.0);
    let (mut sy, mut sxy, mut sx2y) = (0.0, 0.0, 0.0);
    for &(x, y) in points {
        let x2 = x * x;
        sx += x;
        sx2 += x2;
        sx3 += x2 * x;
        sx4 += x2 * x2;
        sy += y;
        sxy += x * y;
        sx2y += x2 * y;
    }
    // Solve [n sx sx2; sx sx2 sx3; sx2 sx3 sx4] [a b c]' = [sy sxy sx2y]'.
    let m = [[n, sx, sx2], [sx, sx2, sx3], [sx2, sx3, sx4]];
    let v = [sy, sxy, sx2y];
    let sol = solve3(m, v)?;
    let fit = QuadraticFit {
        a: sol[0],
        b: sol[1],
        c: sol[2],
        r2: 0.0,
    };
    let r2 = r_squared(points, |x| fit.eval(x));
    Some(QuadraticFit { r2, ..fit })
}

/// Solves a 3×3 linear system with partial pivoting; `None` when singular.
#[allow(clippy::needless_range_loop)] // Matrix index notation reads best.
fn solve3(mut m: [[f64; 3]; 3], mut v: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot on the largest remaining magnitude for stability.
        let pivot = (col..3)
            .max_by(|&a, &b| {
                m[a][col]
                    .abs()
                    .partial_cmp(&m[b][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        v.swap(col, pivot);
        for row in (col + 1)..3 {
            let f = m[row][col] / m[col][col];
            for k in col..3 {
                m[row][k] -= f * m[col][k];
            }
            v[row] -= f * v[col];
        }
    }
    let mut out = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = v[row];
        for k in (row + 1)..3 {
            acc -= m[row][k] * out[k];
        }
        out[row] = acc / m[row][row];
    }
    Some(out)
}

/// Fits the Fig. 15 piecewise model: line on points with `x < knee`,
/// parabola on points with `x >= knee`.
///
/// Returns `None` when either side has too few points for its model.
pub fn piecewise_knee_fit(points: &[(f64, f64)], knee: f64) -> Option<PiecewiseFit> {
    let low: Vec<(f64, f64)> = points.iter().copied().filter(|p| p.0 < knee).collect();
    let high: Vec<(f64, f64)> = points.iter().copied().filter(|p| p.0 >= knee).collect();
    Some(PiecewiseFit {
        low: linear_fit(&low)?,
        high: quadratic_fit(&high)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.a - 3.0).abs() < 1e-9);
        assert!((f.b - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_rejects_degenerate() {
        assert!(linear_fit(&[(1.0, 1.0)]).is_none());
        assert!(linear_fit(&[(2.0, 1.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn linear_r2_below_one_with_noise() {
        let pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 4.0)];
        let f = linear_fit(&pts).unwrap();
        assert!(f.r2 > 0.0 && f.r2 < 1.0);
    }

    #[test]
    fn quadratic_recovers_exact_parabola() {
        let pts: Vec<(f64, f64)> = (-5..=5)
            .map(|i| {
                let x = i as f64;
                (x, 1.0 - 2.0 * x + 0.5 * x * x)
            })
            .collect();
        let f = quadratic_fit(&pts).unwrap();
        assert!((f.a - 1.0).abs() < 1e-9);
        assert!((f.b + 2.0).abs() < 1e-9);
        assert!((f.c - 0.5).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quadratic_rejects_degenerate() {
        assert!(quadratic_fit(&[(0.0, 0.0), (1.0, 1.0)]).is_none());
        // All the same x: singular normal equations.
        assert!(quadratic_fit(&[(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn constant_series_r2_is_one() {
        let pts = [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)];
        let f = linear_fit(&pts).unwrap();
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn piecewise_fits_paper_shape() {
        // Synthesize the Fig. 15 DPDK curve: 15.61 + 0.2379x below 37, then
        // 1977 - 95.18x + 1.158x^2 at or above.
        let mut pts = Vec::new();
        for i in 1..=36 {
            let x = i as f64 * 1.0;
            pts.push((x, 15.61 + 0.2379 * x));
        }
        for i in 37..=76 {
            let x = i as f64;
            pts.push((x, 1977.0 - 95.18 * x + 1.158 * x * x));
        }
        let f = piecewise_knee_fit(&pts, 37.0).unwrap();
        assert!((f.low.b - 0.2379).abs() < 1e-6);
        assert!((f.high.c - 1.158).abs() < 1e-6);
        assert!(f.low.r2 > 0.999 && f.high.r2 > 0.999);
    }

    #[test]
    fn piecewise_requires_points_on_both_sides() {
        let pts = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)];
        assert!(piecewise_knee_fit(&pts, 10.0).is_none());
    }

    #[test]
    fn solve3_identity() {
        let sol = solve3(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [7.0, 8.0, 9.0],
        )
        .unwrap();
        assert_eq!(sol, [7.0, 8.0, 9.0]);
    }

    #[test]
    fn solve3_singular_is_none() {
        assert!(solve3(
            [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
            [1.0, 2.0, 3.0]
        )
        .is_none());
    }
}
