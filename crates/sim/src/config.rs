use sa_alarms::WorkloadConfig;
use sa_geometry::Rect;
use sa_roadnet::{FleetConfig, NetworkConfig};

/// Full configuration of one simulated evaluation run.
///
/// [`SimulationConfig::paper_default`] reproduces the paper's §5.1 setup:
/// ~1000 km² universe, 10,000 vehicles moving for one hour, 10,000 alarms
/// (10% public, private:shared 2:1) and a 2.5 km² grid cell. Use
/// [`SimulationConfig::scaled`] for laptop-sized runs — all workload
/// dimensions shrink together, leaving the comparative shapes intact.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Road-network generation parameters.
    pub network: NetworkConfig,
    /// Vehicle fleet parameters (fleet size, seed, speed spread).
    pub fleet: FleetConfig,
    /// Alarm workload parameters.
    pub workload: WorkloadConfig,
    /// Grid cell area in km² (the Figure 4 sweep variable; default 2.5).
    pub cell_area_km2: f64,
    /// Simulated duration in seconds (paper: one hour).
    pub duration_s: f64,
    /// Location sampling period in seconds (the "very high frequency
    /// trace" granularity; also the clients' GPS fix period).
    pub sample_period_s: f64,
    /// Number of *moving-target* alarms to install on top of the static
    /// workload (taxonomy classes (2)/(3); the paper's evaluation uses 0).
    pub moving_alarms: usize,
    /// Half-extent (meters) of moving-target alarm regions.
    pub moving_alarm_half_extent_m: f64,
}

impl SimulationConfig {
    /// The paper's full-scale default setup.
    pub fn paper_default() -> SimulationConfig {
        let network = NetworkConfig::default();
        let universe = Rect::new(0.0, 0.0, network.universe_side_m, network.universe_side_m)
            .expect("universe rect is valid");
        SimulationConfig {
            fleet: FleetConfig { vehicles: 10_000, seed: 0xF1EE_7001, ..FleetConfig::default() },
            workload: WorkloadConfig {
                alarms: 10_000,
                subscribers: 10_000,
                universe,
                ..WorkloadConfig::default()
            },
            network,
            cell_area_km2: 2.5,
            duration_s: 3_600.0,
            sample_period_s: 1.0,
            moving_alarms: 0,
            moving_alarm_half_extent_m: 200.0,
        }
    }

    /// The paper setup with the *fleet* shrunk by `factor`. The alarm
    /// workload stays at full paper scale (10,000 alarms over 10,000
    /// subscriber ids): per-cell alarm density drives every per-operation
    /// cost (safe-region computation, bitmap size, client energy per
    /// check), so shrinking it would distort the figures' shapes. Only the
    /// first `10,000 × factor` subscribers actually move; the rest own
    /// alarms but never trigger them.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not in `(0, 1]`.
    pub fn scaled(factor: f64) -> SimulationConfig {
        assert!(factor > 0.0 && factor <= 1.0, "scale factor must be in (0, 1]");
        let mut config = SimulationConfig::paper_default();
        config.fleet.vehicles = ((config.fleet.vehicles as f64 * factor) as usize).max(10);
        config
    }

    /// The paper setup with *both* the fleet and the alarm workload
    /// scaled by `factor` (subscribers scale with the fleet so every
    /// alarm still has a live owner). Unlike [`SimulationConfig::scaled`],
    /// this changes per-cell alarm density, so figures lose their shapes —
    /// it exists for end-to-end throughput runs (`scale_replay`,
    /// `scaling_curve`) where the point is "a proportional slice (or
    /// multiple) of the paper's hour", not a faithful cost model.
    ///
    /// Factors above 1 grow the workload *past* paper scale: `10.0` is
    /// the 100k-subscriber sweep, `100.0` the 1M-subscriber sweep. The
    /// universe stays fixed, so overscale runs raise density — the
    /// regime the scaling-exponent fit probes.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not a positive finite number.
    pub fn paper_fraction(factor: f64) -> SimulationConfig {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite"
        );
        let mut config = SimulationConfig::paper_default();
        config.fleet.vehicles = ((config.fleet.vehicles as f64 * factor) as usize).max(10);
        config.workload.alarms = ((config.workload.alarms as f64 * factor) as usize).max(10);
        config.workload.subscribers = config.fleet.vehicles as u32;
        config
    }

    /// A tiny deterministic setup for unit tests: a 4 km² town, a handful
    /// of vehicles, a few minutes of driving.
    pub fn smoke_test() -> SimulationConfig {
        let network = NetworkConfig::small_test();
        let universe = Rect::new(0.0, 0.0, network.universe_side_m, network.universe_side_m)
            .expect("universe rect is valid");
        SimulationConfig {
            fleet: FleetConfig { vehicles: 12, seed: 42, ..FleetConfig::default() },
            workload: WorkloadConfig {
                alarms: 60,
                subscribers: 12,
                universe,
                region_half_extent_m: (60.0, 250.0),
                ..WorkloadConfig::default()
            },
            network,
            cell_area_km2: 1.0,
            duration_s: 240.0,
            sample_period_s: 1.0,
            moving_alarms: 0,
            moving_alarm_half_extent_m: 200.0,
        }
    }

    /// A fuzz-sized slice for the `sa-verify` schedule fuzzer: the
    /// smoke-test town with `vehicles` vehicles, `alarms` alarms and
    /// `steps` one-second samples, every generator (fleet trips, alarm
    /// workload) re-seeded from `seed` so a case is fully determined by
    /// its four numbers.
    pub fn fuzz_slice(vehicles: usize, alarms: usize, steps: u32, seed: u64) -> SimulationConfig {
        let mut config = SimulationConfig::smoke_test();
        config.fleet.vehicles = vehicles.max(1);
        config.fleet.seed = seed;
        config.workload.alarms = alarms.max(1);
        config.workload.subscribers = config.fleet.vehicles as u32;
        config.workload.seed = seed ^ 0xA1A2_A3A4_A5A6_A7A8;
        config.duration_s = f64::from(steps.max(1));
        config
    }

    /// Number of simulation steps.
    pub fn steps(&self) -> usize {
        (self.duration_s / self.sample_period_s).round() as usize
    }

    /// The universe rectangle shared by grid, workload and network.
    pub fn universe(&self) -> Rect {
        self.workload.universe
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics when durations or periods are non-positive, or the workload
    /// universe does not cover the road network extent.
    pub fn validate(&self) {
        assert!(self.duration_s > 0.0, "duration must be positive");
        assert!(self.sample_period_s > 0.0, "sample period must be positive");
        assert!(self.cell_area_km2 > 0.0, "cell area must be positive");
        assert!(
            self.workload.universe.width() + 1.0 >= self.network.universe_side_m,
            "workload universe must cover the road network"
        );
        assert!(
            self.workload.subscribers as usize >= self.fleet.vehicles,
            "every vehicle must have a subscriber id (subscribers >= vehicles)"
        );
        assert!(
            self.moving_alarm_half_extent_m > 0.0,
            "moving alarm extent must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5_1() {
        let c = SimulationConfig::paper_default();
        c.validate();
        assert_eq!(c.fleet.vehicles, 10_000);
        assert_eq!(c.workload.alarms, 10_000);
        assert!((c.workload.public_fraction - 0.10).abs() < 1e-12);
        assert!((c.cell_area_km2 - 2.5).abs() < 1e-12);
        assert_eq!(c.steps(), 3_600);
        // ~1000 km² universe.
        let km2 = c.universe().area() / 1.0e6;
        assert!((999.0..1001.0).contains(&km2), "universe {km2} km²");
    }

    #[test]
    fn scaled_shrinks_fleet_but_keeps_alarm_density() {
        let c = SimulationConfig::scaled(0.1);
        c.validate();
        assert_eq!(c.fleet.vehicles, 1_000);
        // Alarm workload stays at paper scale so per-cell alarm density —
        // the driver of every per-operation cost — is unchanged.
        assert_eq!(c.workload.alarms, 10_000);
        assert_eq!(c.workload.subscribers, 10_000);
        assert_eq!(c.duration_s, 3_600.0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn rejects_zero_scale() {
        SimulationConfig::scaled(0.0);
    }

    #[test]
    fn paper_fraction_shrinks_fleet_and_workload_together() {
        let c = SimulationConfig::paper_fraction(0.1);
        c.validate();
        assert_eq!(c.fleet.vehicles, 1_000);
        assert_eq!(c.workload.alarms, 1_000);
        assert_eq!(c.workload.subscribers, 1_000);
        // Still the full paper hour over the full universe.
        assert_eq!(c.steps(), 3_600);
        let km2 = c.universe().area() / 1.0e6;
        assert!((999.0..1001.0).contains(&km2), "universe {km2} km²");
    }

    #[test]
    fn paper_fraction_scales_past_paper_size() {
        // Multipliers > 1 grow the synthetic workload: 10× is the
        // 100k-subscriber sweep point, 100× the 1M one.
        let c = SimulationConfig::paper_fraction(10.0);
        c.validate();
        assert_eq!(c.fleet.vehicles, 100_000);
        assert_eq!(c.workload.alarms, 100_000);
        assert_eq!(c.workload.subscribers, 100_000);
        let c = SimulationConfig::paper_fraction(100.0);
        c.validate();
        assert_eq!(c.workload.subscribers, 1_000_000);
        // The universe does not grow with the workload.
        let km2 = c.universe().area() / 1.0e6;
        assert!((999.0..1001.0).contains(&km2), "universe {km2} km²");
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn paper_fraction_rejects_nonpositive_scale() {
        SimulationConfig::paper_fraction(0.0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn paper_fraction_rejects_non_finite_scale() {
        SimulationConfig::paper_fraction(f64::INFINITY);
    }

    #[test]
    fn fuzz_slice_is_valid_and_seeded() {
        let c = SimulationConfig::fuzz_slice(3, 7, 40, 0xBEEF);
        c.validate();
        assert_eq!(c.fleet.vehicles, 3);
        assert_eq!(c.workload.alarms, 7);
        assert_eq!(c.workload.subscribers, 3);
        assert_eq!(c.steps(), 40);
        assert_eq!(c.fleet.seed, 0xBEEF);
        // Zero-sized requests are clamped to runnable minimums.
        let tiny = SimulationConfig::fuzz_slice(0, 0, 0, 1);
        tiny.validate();
        assert!(tiny.fleet.vehicles >= 1 && tiny.workload.alarms >= 1 && tiny.steps() >= 1);
    }

    #[test]
    fn smoke_test_is_valid_and_small() {
        let c = SimulationConfig::smoke_test();
        c.validate();
        assert!(c.fleet.vehicles <= 20);
        assert!(c.steps() <= 300);
    }
}
