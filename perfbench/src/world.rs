//! Seeded inputs shared by the workloads: the simulated world, the
//! vehicle split across driver threads, the ground-truth check, and a
//! small deterministic random source for schedules and writes.

use sa_server::wire::StrategySpec;
use sa_server::{Server, ServerConfig, TraceMode};
use sa_sim::{FiredEvent, GroundTruth, SimulationConfig, SimulationHarness};
use std::ops::Range;
use std::sync::Arc;

/// The strategy mix of the closed-loop fleets, assigned round-robin by
/// vehicle id (the order `sa_server::ReplayConfig` uses by default).
pub const STRATEGY_MIX: [StrategySpec; 4] = [
    StrategySpec::Mwpsr,
    StrategySpec::Pbsr { height: 5 },
    StrategySpec::Opt,
    StrategySpec::SafePeriod,
];

/// Driver threads of a closed loop: two, or fewer on a smaller machine.
pub fn driver_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// SplitMix64: derives independent sub-seeds from the one `--seed`, and
/// serves as the schedule and write generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`.
    pub(crate) fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub(crate) fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// `config` trimmed to `steps` samples, with its fleet and alarm
/// workload re-seeded from `seed`. The road network keeps its default
/// seed, so every seed drives the same city.
pub(crate) fn seeded(mut config: SimulationConfig, seed: u64, steps: u32) -> SimulationConfig {
    config.fleet.seed = Rng::new(seed, 1).next_u64();
    config.workload.seed = Rng::new(seed, 2).next_u64();
    config.duration_s = f64::from(steps) * config.sample_period_s;
    config
}

/// Builds the world and its ground truth for `steps` steps.
pub fn build(config: SimulationConfig, seed: u64, steps: u32) -> SimulationHarness {
    SimulationHarness::build(&seeded(config, seed, steps))
}

/// Starts a server with the default sizing over the harness's world,
/// with its span recording off: a server starts in `TraceMode::Full`,
/// and only the traced episode turns it back on.
pub(crate) fn start_server(harness: &SimulationHarness) -> Arc<Server> {
    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        ServerConfig::default(),
    );
    server.set_trace_mode(TraceMode::Off);
    server
}

/// Contiguous vehicle-id ranges, one per driver thread.
pub(crate) fn vehicle_ranges(vehicles: u32, workers: usize) -> Vec<Range<u32>> {
    let workers = (workers.max(1) as u32).min(vehicles.max(1));
    let (base, extra) = (vehicles / workers, vehicles % workers);
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + u32::from(w < extra);
            start += len;
            start - len..start
        })
        .collect()
}

/// Checks `fired` against the harness's ground truth over the first
/// `steps` steps; `Err` describes the first discrepancy.
pub(crate) fn verify(
    harness: &SimulationHarness,
    steps: u32,
    fired: &[FiredEvent],
) -> Result<(), String> {
    let expected: Vec<FiredEvent> = harness
        .ground_truth()
        .events()
        .iter()
        .filter(|e| e.step < steps)
        .cloned()
        .collect();
    GroundTruth::new(expected).verify(fired)
}
