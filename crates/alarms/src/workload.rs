use crate::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_geometry::{Point, Rect};

/// Configuration of the alarm workload generator, defaulting to the paper's
/// §5.1 setup.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of alarms to install (paper default: 10,000).
    pub alarms: usize,
    /// Number of mobile subscribers alarms are assigned to (paper default:
    /// 10,000 vehicles).
    pub subscribers: u32,
    /// The Universe of Discourse targets are drawn from (uniformly).
    pub universe: Rect,
    /// Fraction of public alarms (paper default: 10%; Figures 5–6 sweep 1%,
    /// 10% and 20%).
    pub public_fraction: f64,
    /// Ratio of private to shared among non-public alarms (paper default:
    /// 2:1, i.e. `2.0`).
    pub private_to_shared_ratio: f64,
    /// Half-extent of alarm regions in meters, drawn uniformly from this
    /// range. Regions are clipped to the universe.
    pub region_half_extent_m: (f64, f64),
    /// Extra subscribers (beyond the owner) of a shared alarm, drawn
    /// uniformly from this range.
    pub shared_subscribers: (usize, usize),
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            alarms: 10_000,
            subscribers: 10_000,
            universe: Rect::new(0.0, 0.0, 31_623.0, 31_623.0).expect("static universe is valid"),
            public_fraction: 0.10,
            private_to_shared_ratio: 2.0,
            // Alarm regions a few hundred meters across. The paper never
            // states its region sizes, but its Figure 6(b) result (PBSR h=5
            // has the *lowest* downstream bandwidth) pins them: bitmap
            // sizes stay small only when alarm regions cover a small
            // fraction of a 2.5 km² grid cell.
            region_half_extent_m: (50.0, 250.0),
            shared_subscribers: (1, 4),
            seed: 0xA1A2_0002,
        }
    }
}

/// A generated set of installed alarms.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmWorkload {
    alarms: Vec<SpatialAlarm>,
    config: WorkloadConfig,
}

impl AlarmWorkload {
    /// Generates a deterministic workload per `config`: alarm targets
    /// uniform over the universe, square regions of random half-extent, and
    /// scopes split into public / private / shared according to
    /// `public_fraction` and `private_to_shared_ratio`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (no subscribers,
    /// fraction outside `[0, 1]`, inverted extent range).
    pub fn generate(config: &WorkloadConfig) -> AlarmWorkload {
        assert!(config.subscribers > 0, "workload needs at least one subscriber");
        assert!(
            (0.0..=1.0).contains(&config.public_fraction),
            "public_fraction must be within [0, 1]"
        );
        assert!(
            config.region_half_extent_m.0 > 0.0
                && config.region_half_extent_m.1 >= config.region_half_extent_m.0,
            "region extent range must be positive and ordered"
        );
        assert!(
            config.private_to_shared_ratio >= 0.0,
            "private_to_shared_ratio must be non-negative"
        );

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let u = config.universe;
        // Among non-public alarms, the probability of being private.
        let private_given_nonpublic = if config.private_to_shared_ratio.is_finite() {
            config.private_to_shared_ratio / (config.private_to_shared_ratio + 1.0)
        } else {
            1.0
        };

        let mut alarms = Vec::with_capacity(config.alarms);
        for i in 0..config.alarms {
            let target = Point::new(
                rng.gen_range(u.min_x()..=u.max_x()),
                rng.gen_range(u.min_y()..=u.max_y()),
            );
            let half = if config.region_half_extent_m.1 > config.region_half_extent_m.0 {
                rng.gen_range(config.region_half_extent_m.0..config.region_half_extent_m.1)
            } else {
                config.region_half_extent_m.0
            };
            let region = Rect::centered_square(target, half)
                .expect("positive half extent")
                .intersection(u)
                .expect("target lies inside the universe");

            let owner = SubscriberId(rng.gen_range(0..config.subscribers));
            let scope = if rng.gen_bool(config.public_fraction) {
                AlarmScope::Public { owner }
            } else if rng.gen_bool(private_given_nonpublic) {
                AlarmScope::Private { owner }
            } else {
                let extra = rng.gen_range(config.shared_subscribers.0..=config.shared_subscribers.1);
                let list = (0..extra)
                    .map(|_| SubscriberId(rng.gen_range(0..config.subscribers)))
                    .collect();
                AlarmScope::shared(owner, list)
            };
            alarms.push(SpatialAlarm::new(
                AlarmId(i as u64),
                region,
                AlarmTarget::Static(target),
                scope,
            ));
        }
        AlarmWorkload { alarms, config: config.clone() }
    }

    /// The generated alarms.
    pub fn alarms(&self) -> &[SpatialAlarm] {
        &self.alarms
    }

    /// The configuration the workload was generated from.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Fraction of alarms that are public (for sanity checks).
    pub fn observed_public_fraction(&self) -> f64 {
        if self.alarms.is_empty() {
            return 0.0;
        }
        self.alarms.iter().filter(|a| a.is_public()).count() as f64 / self.alarms.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            alarms: 2_000,
            subscribers: 500,
            universe: Rect::new(0.0, 0.0, 10_000.0, 10_000.0).unwrap(),
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn generates_requested_count_with_unique_ids() {
        let w = AlarmWorkload::generate(&small_config());
        assert_eq!(w.alarms().len(), 2_000);
        let mut ids: Vec<_> = w.alarms().iter().map(|a| a.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2_000);
    }

    #[test]
    fn regions_lie_within_the_universe() {
        let cfg = small_config();
        let w = AlarmWorkload::generate(&cfg);
        for a in w.alarms() {
            assert!(cfg.universe.contains_rect(&a.region()), "region escapes universe");
            assert!(a.region().area() > 0.0);
        }
    }

    #[test]
    fn scope_mix_matches_configuration() {
        let w = AlarmWorkload::generate(&small_config());
        let public = w.alarms().iter().filter(|a| a.is_public()).count();
        let private = w
            .alarms()
            .iter()
            .filter(|a| matches!(a.scope(), AlarmScope::Private { .. }))
            .count();
        let shared = w
            .alarms()
            .iter()
            .filter(|a| matches!(a.scope(), AlarmScope::Shared { .. }))
            .count();
        assert_eq!(public + private + shared, 2_000);
        // 10% public within statistical tolerance.
        let pf = public as f64 / 2_000.0;
        assert!((0.06..0.14).contains(&pf), "public fraction {pf}");
        // private:shared ≈ 2:1.
        let ratio = private as f64 / shared as f64;
        assert!((1.5..2.6).contains(&ratio), "private:shared ratio {ratio}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AlarmWorkload::generate(&small_config());
        let b = AlarmWorkload::generate(&small_config());
        assert_eq!(a, b);
        let c = AlarmWorkload::generate(&WorkloadConfig { seed: 99, ..small_config() });
        assert_ne!(a, c);
    }

    #[test]
    fn public_fraction_sweep_matches_figures_5_and_6() {
        for pct in [0.01, 0.10, 0.20] {
            let w = AlarmWorkload::generate(&WorkloadConfig {
                public_fraction: pct,
                ..small_config()
            });
            let observed = w.observed_public_fraction();
            assert!(
                (observed - pct).abs() < 0.03,
                "requested {pct}, observed {observed}"
            );
        }
    }

    #[test]
    fn targets_cover_the_universe_uniformly() {
        // Coarse uniformity check: each quadrant of the universe receives
        // 25% ± 5% of the targets.
        let cfg = small_config();
        let w = AlarmWorkload::generate(&cfg);
        let center = cfg.universe.center();
        let mut counts = [0usize; 4];
        for a in w.alarms() {
            let AlarmTarget::Static(t) = a.target() else { panic!("static targets only") };
            counts[sa_geometry::Quadrant::of(t, center) as usize] += 1;
        }
        for c in counts {
            let f = c as f64 / 2_000.0;
            assert!((0.20..0.30).contains(&f), "quadrant fraction {f}");
        }
    }

    #[test]
    #[should_panic(expected = "public_fraction")]
    fn rejects_bad_fraction() {
        AlarmWorkload::generate(&WorkloadConfig { public_fraction: 1.5, ..small_config() });
    }
}
