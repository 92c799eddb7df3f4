use crate::{GeometryError, Quadrant};
use std::f64::consts::{PI, TAU};

/// One full turn (2π radians).
pub const FULL_TURN: f64 = TAU;
/// Half a turn (π radians).
pub const HALF_TURN: f64 = PI;

/// Normalizes an angle to the interval `(-π, π]`.
///
/// ```
/// use sa_geometry::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
/// assert_eq!(normalize_angle(0.5), 0.5);
/// ```
pub fn normalize_angle(a: f64) -> f64 {
    let mut r = a % TAU;
    if r <= -PI {
        r += TAU;
    } else if r > PI {
        r -= TAU;
    }
    r
}

/// The steady-motion probability density `p(φ; y, z)` of paper §3, Figure 1.
///
/// `φ` is the deviation of the client's next movement direction from its
/// current heading. The density is:
///
/// - symmetric in `φ` and 2π-periodic,
/// - **piecewise constant** on angular bands of width `π/z` ("z determines
///   the granularity of change in φ for which the probability value
///   decreases" — in particular, `p` is flat for `0 ≤ |φ| ≤ π/z`),
/// - linearly decreasing across bands away from the current heading, with
///   the total front-vs-back skew controlled by `y/z` ("the weight to be
///   assigned to the probability of the client moving in the direction of
///   its current motion"),
/// - exactly normalized: the band weights are symmetric around the mean, so
///   `∫ p dφ = 1` holds analytically for every `(y, z)`.
///
/// Concretely, band `k ∈ {0, …, z−1}` (containing deviations
/// `|φ| ∈ [kπ/z, (k+1)π/z)`) has density `w_k / 2π` with
/// `w_k = 1 + (y/z) · ((z−1)/2 − k)`.
///
/// Setting `y = 0` (or `z = 1`) recovers the uniform density `1/2π` used by
/// the *non-weighted* perimeter approach of Figure 4(a).
///
/// ```
/// use sa_geometry::MotionPdf;
/// # fn main() -> Result<(), sa_geometry::GeometryError> {
/// let pdf = MotionPdf::new(1.0, 32)?;
/// // Moving straight ahead is the most likely direction…
/// assert!(pdf.density(0.0) > pdf.density(std::f64::consts::PI));
/// // …and the density integrates to one.
/// let total = pdf.mass(-std::f64::consts::PI, std::f64::consts::PI);
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MotionPdf {
    y: f64,
    z: u32,
    /// Per-band densities `w_k / 2π`, `k = 0..z`.
    band_density: Vec<f64>,
    /// `cumulative[k]` = ∫ p over `|φ| ∈ [0, kπ/z]` (half-line mass), so
    /// `cumulative[z] = 0.5`.
    cumulative: Vec<f64>,
}

/// Probability mass of the steady-motion pdf falling in each absolute
/// quadrant around the subscriber, given its current heading.
///
/// Produced by [`MotionPdf::quadrant_weights`]; consumed by the MWPSR greedy
/// quadrant-ordering step (paper §3, step 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrantWeights {
    weights: [f64; 4],
}

impl QuadrantWeights {
    /// The mass for one quadrant.
    pub fn weight(&self, q: Quadrant) -> f64 {
        self.weights[q as usize]
    }

    /// Quadrants ordered by decreasing mass (ties keep paper order I..IV).
    pub fn descending(&self) -> [Quadrant; 4] {
        let mut qs = Quadrant::ALL;
        qs.sort_by(|a, b| {
            self.weight(*b)
                .partial_cmp(&self.weight(*a))
                .expect("weights are finite")
        });
        qs
    }

    /// Sum of all four masses (≈ 1 up to floating-point error).
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }
}

impl MotionPdf {
    /// Creates the steady-motion density with steadiness parameters `y, z`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidParameter`] when:
    /// - `y` is negative or non-finite,
    /// - `z` is zero,
    /// - `y/z ≥ 1` (the paper requires `y/z < 1`),
    /// - the resulting rear-most band density would be non-positive.
    pub fn new(y: f64, z: u32) -> Result<MotionPdf, GeometryError> {
        if !y.is_finite() || y < 0.0 {
            return Err(GeometryError::InvalidParameter {
                name: "y",
                value: y,
                expected: "a non-negative finite steadiness weight",
            });
        }
        if z == 0 {
            return Err(GeometryError::InvalidParameter {
                name: "z",
                value: 0.0,
                expected: "a positive number of angular bands",
            });
        }
        let zf = z as f64;
        if y / zf >= 1.0 {
            return Err(GeometryError::InvalidParameter {
                name: "y",
                value: y,
                expected: "y/z < 1 (paper constraint on steadiness parameters)",
            });
        }
        let skew = y / zf;
        let mid = (zf - 1.0) / 2.0;
        let rear = 1.0 + skew * (mid - (zf - 1.0));
        if rear <= 0.0 {
            return Err(GeometryError::InvalidParameter {
                name: "y",
                value: y,
                expected: "parameters keeping the rear-band density positive",
            });
        }
        let band_width = PI / zf;
        let mut band_density = Vec::with_capacity(z as usize);
        let mut cumulative = Vec::with_capacity(z as usize + 1);
        cumulative.push(0.0);
        let mut acc = 0.0;
        for k in 0..z {
            let w = 1.0 + skew * (mid - k as f64);
            let d = w / TAU;
            band_density.push(d);
            acc += d * band_width;
            cumulative.push(acc);
        }
        // The band weights are symmetric around 1, so the half-line mass is
        // exactly 0.5 analytically; pin it to kill accumulated rounding.
        let len = cumulative.len();
        cumulative[len - 1] = 0.5;
        Ok(MotionPdf {
            y,
            z,
            band_density,
            cumulative,
        })
    }

    /// The uniform density `1/2π` — no steady-motion assumption. This is the
    /// weighting used by the non-weighted perimeter approach.
    pub fn uniform() -> MotionPdf {
        MotionPdf::new(0.0, 1).expect("uniform parameters are valid")
    }

    /// Steadiness weight `y`.
    pub fn y(&self) -> f64 {
        self.y
    }

    /// Band-granularity parameter `z`.
    pub fn z(&self) -> u32 {
        self.z
    }

    /// True when this is the uniform (non-weighted) density.
    pub fn is_uniform(&self) -> bool {
        self.y == 0.0 || self.z == 1
    }

    /// Density at deviation `phi` radians from the current heading.
    pub fn density(&self, phi: f64) -> f64 {
        let a = normalize_angle(phi).abs();
        let band = ((a / PI) * self.z as f64) as usize;
        self.band_density[band.min(self.z as usize - 1)]
    }

    /// Probability that the deviation falls in `[from, to]` (radians
    /// relative to the current heading). Handles wrapped and multi-turn
    /// intervals: an interval of length ≥ 2π has mass exactly 1, and
    /// `mass(a, b) = -mass(b, a)`.
    pub fn mass(&self, from: f64, to: f64) -> f64 {
        self.antiderivative(to) - self.antiderivative(from)
    }

    /// Probability that the client's next *absolute* movement direction
    /// falls in `[abs_from, abs_to]`, given its current absolute `heading`.
    pub fn sector_mass(&self, heading: f64, abs_from: f64, abs_to: f64) -> f64 {
        self.mass(abs_from - heading, abs_to - heading)
    }

    /// Probability mass falling in each absolute quadrant around the
    /// subscriber (paper Figure 2), given its current heading.
    pub fn quadrant_weights(&self, heading: f64) -> QuadrantWeights {
        let mut weights = [0.0; 4];
        for q in Quadrant::ALL {
            let (a, b) = q.angular_interval();
            weights[q as usize] = self.sector_mass(heading, a, b);
        }
        QuadrantWeights { weights }
    }

    /// ∫₀ᵗ p(φ) dφ extended over all of ℝ (adds 1 per full turn).
    fn antiderivative(&self, t: f64) -> f64 {
        let k = ((t + PI) / TAU).floor();
        let r = t - TAU * k; // r ∈ [-π, π)
        k + self.half_line(r)
    }

    /// ∫₀ʳ p for r ∈ [-π, π]: odd in r because p is even.
    fn half_line(&self, r: f64) -> f64 {
        let a = r.abs().min(PI);
        let zf = self.z as f64;
        let band_width = PI / zf;
        let band = ((a / band_width).floor() as usize).min(self.z as usize - 1);
        let base = self.cumulative[band];
        let rem = a - band as f64 * band_width;
        let m = base + self.band_density[band] * rem;
        if r < 0.0 {
            -m
        } else {
            m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(MotionPdf::new(-1.0, 4).is_err());
        assert!(MotionPdf::new(f64::NAN, 4).is_err());
        assert!(MotionPdf::new(1.0, 0).is_err());
        assert!(MotionPdf::new(4.0, 4).is_err()); // y/z = 1
        assert!(MotionPdf::new(3.9, 4).is_err()); // rear band would go negative
        assert!(MotionPdf::new(1.0, 2).is_ok());
    }

    #[test]
    fn uniform_density_is_flat() {
        let u = MotionPdf::uniform();
        assert!(u.is_uniform());
        for k in 0..32 {
            let phi = -PI + k as f64 / 32.0 * TAU;
            assert!((u.density(phi) - 1.0 / TAU).abs() < 1e-15);
        }
    }

    #[test]
    fn integrates_to_one_for_paper_parameters() {
        for z in [2, 4, 8, 16, 32] {
            let pdf = MotionPdf::new(1.0, z).unwrap();
            assert!(
                (pdf.mass(-PI, PI) - 1.0).abs() < 1e-12,
                "z={z} does not normalize"
            );
        }
    }

    #[test]
    fn density_is_symmetric_and_decreasing_in_deviation() {
        let pdf = MotionPdf::new(1.0, 8).unwrap();
        let mut prev = f64::INFINITY;
        for k in 0..8 {
            let phi = (k as f64 + 0.5) * PI / 8.0;
            assert!((pdf.density(phi) - pdf.density(-phi)).abs() < 1e-15);
            assert!(pdf.density(phi) < prev);
            prev = pdf.density(phi);
        }
    }

    #[test]
    fn density_is_flat_within_first_band() {
        // Paper: "the probability of the client moving in a direction such
        // that 0 ≤ φ ≤ π/z is the same".
        let pdf = MotionPdf::new(1.0, 4).unwrap();
        let d0 = pdf.density(0.0);
        assert_eq!(pdf.density(0.1), d0);
        assert_eq!(pdf.density(PI / 4.0 - 1e-9), d0);
        assert!(pdf.density(PI / 4.0 + 1e-9) < d0);
    }

    #[test]
    fn peak_magnitudes_match_figure_1b() {
        // Figure 1(b) shows peaks around 0.2-0.25 and tails around 0.05-0.12
        // for y=1, z in {2,4,8}.
        for z in [2, 4, 8] {
            let pdf = MotionPdf::new(1.0, z).unwrap();
            let peak = pdf.density(0.0);
            let tail = pdf.density(PI);
            assert!((0.15..0.26).contains(&peak), "z={z} peak {peak}");
            assert!((0.04..0.13).contains(&tail), "z={z} tail {tail}");
        }
    }

    #[test]
    fn mass_is_additive_and_antisymmetric() {
        let pdf = MotionPdf::new(1.0, 16).unwrap();
        let ab = pdf.mass(-0.3, 0.9);
        let bc = pdf.mass(0.9, 2.4);
        let ac = pdf.mass(-0.3, 2.4);
        assert!((ab + bc - ac).abs() < 1e-12);
        assert!((pdf.mass(0.9, -0.3) + ab).abs() < 1e-15);
    }

    #[test]
    fn mass_handles_wrapped_intervals() {
        let pdf = MotionPdf::new(1.0, 8).unwrap();
        // Interval crossing the ±π seam.
        let wrapped = pdf.mass(PI - 0.5, PI + 0.5);
        let split = pdf.mass(PI - 0.5, PI) + pdf.mass(-PI, -PI + 0.5);
        assert!((wrapped - split).abs() < 1e-12);
        // A full turn from any starting point has mass 1.
        for start in [-2.0, 0.0, 1.3, 4.0] {
            assert!((pdf.mass(start, start + TAU) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quadrant_weights_sum_to_one_and_favor_heading() {
        let pdf = MotionPdf::new(1.0, 32).unwrap();
        // Heading along the diagonal of quadrant I.
        let w = pdf.quadrant_weights(FRAC_PI_2 / 2.0);
        assert!((w.total() - 1.0).abs() < 1e-12);
        assert_eq!(w.descending()[0], Quadrant::I);
        assert_eq!(w.descending()[3], Quadrant::III);
        assert!(w.weight(Quadrant::I) > w.weight(Quadrant::II));
        assert!(w.weight(Quadrant::II) > w.weight(Quadrant::III));
    }

    #[test]
    fn uniform_quadrant_weights_are_equal() {
        let w = MotionPdf::uniform().quadrant_weights(1.234);
        for q in Quadrant::ALL {
            assert!((w.weight(q) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn heading_rotation_shifts_weights() {
        let pdf = MotionPdf::new(1.0, 16).unwrap();
        let w_east = pdf.quadrant_weights(0.0);
        let w_north = pdf.quadrant_weights(FRAC_PI_2);
        // Rotating the heading by 90° rotates the weights one quadrant.
        assert!((w_east.weight(Quadrant::I) - w_north.weight(Quadrant::II)).abs() < 1e-12);
        assert!((w_east.weight(Quadrant::IV) - w_north.weight(Quadrant::I)).abs() < 1e-12);
    }

    #[test]
    fn normalize_angle_stays_in_range() {
        for k in -20..=20 {
            let a = k as f64 * 0.7;
            let n = normalize_angle(a);
            assert!(n > -PI - 1e-12 && n <= PI + 1e-12);
            // Same direction modulo 2π.
            assert!(((a - n) / TAU - ((a - n) / TAU).round()).abs() < 1e-9);
        }
    }
}
