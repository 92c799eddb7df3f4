use crate::{EdgeId, NodeId, RoadNetwork, Router};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_geometry::Point;

/// Identifies a vehicle (mobile subscriber) in a [`Fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VehicleId(pub u32);

/// One position sample of one vehicle — the unit of the "very high
/// frequency trace of the motion pattern of the vehicles" the paper uses to
/// determine the ground-truth alarm sequence (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulation time in seconds since the start of the trace.
    pub time: f64,
    /// The sampled vehicle.
    pub vehicle: VehicleId,
    /// Position in universe coordinates.
    pub pos: Point,
    /// Travel direction in radians (counterclockwise from +x).
    pub heading: f64,
    /// Instantaneous speed in meters per second.
    pub speed: f64,
}

/// Configuration of a vehicle fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of vehicles (the paper's default traffic volume is 10,000).
    pub vehicles: usize,
    /// Seed controlling start positions, trip choices and speed factors.
    pub seed: u64,
    /// Lower bound of the per-vehicle speed multiplier.
    pub min_speed_factor: f64,
    /// Upper bound of the per-vehicle speed multiplier.
    pub max_speed_factor: f64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            vehicles: 100,
            seed: 1,
            min_speed_factor: 0.8,
            max_speed_factor: 1.2,
        }
    }
}

/// A vehicle following shortest-travel-time trips across the road network,
/// re-rolling a fresh random destination whenever it arrives.
#[derive(Debug, Clone)]
pub struct Vehicle {
    id: VehicleId,
    /// Remaining edges of the current trip (reversed: next edge is `last`).
    route_rev: Vec<EdgeId>,
    /// Node at which the current edge was entered.
    entered_from: NodeId,
    /// Current edge being traversed.
    current_edge: EdgeId,
    /// Meters progressed along the current edge.
    progress_m: f64,
    /// Per-vehicle speed multiplier applied to the road-class design speed.
    speed_factor: f64,
    rng: SmallRng,
}

impl Vehicle {
    /// The vehicle's identifier.
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// Current position on the network.
    pub fn position(&self, network: &RoadNetwork) -> Point {
        let edge = network.edge(self.current_edge);
        network.position_on_edge(self.current_edge, self.entered_from, self.progress_m / edge.length)
    }

    /// Current travel direction in radians.
    pub fn heading(&self, network: &RoadNetwork) -> f64 {
        let edge = network.edge(self.current_edge);
        let from = network.node(self.entered_from).pos;
        let to = network.node(edge.other(self.entered_from)).pos;
        from.heading_to(to)
    }

    /// Current speed in meters per second.
    pub fn speed(&self, network: &RoadNetwork) -> f64 {
        network.edge(self.current_edge).class.speed_mps() * self.speed_factor
    }

    /// Advances the vehicle by `dt` seconds, rolling new trips as needed.
    fn advance(&mut self, network: &RoadNetwork, router: &mut Router<'_>, dt: f64) {
        let mut budget = dt;
        // Guard against pathological zero-length hops.
        let mut hops = 0usize;
        while budget > 1.0e-12 && hops < 10_000 {
            hops += 1;
            let edge = network.edge(self.current_edge);
            let speed = edge.class.speed_mps() * self.speed_factor;
            let remaining_m = edge.length - self.progress_m;
            let reachable_m = speed * budget;
            if reachable_m < remaining_m {
                self.progress_m += reachable_m;
                return;
            }
            // Consume the rest of this edge and hop to the next.
            budget -= remaining_m / speed;
            let arrived_at = edge.other(self.entered_from);
            match self.route_rev.pop() {
                Some(next_edge) => {
                    self.entered_from = arrived_at;
                    self.current_edge = next_edge;
                    self.progress_m = 0.0;
                }
                None => {
                    // Trip finished: start a new one from `arrived_at`.
                    self.start_trip(network, router, arrived_at);
                }
            }
        }
    }

    /// Routes a fresh trip from `origin` to a random destination and enters
    /// its first edge.
    fn start_trip(&mut self, network: &RoadNetwork, router: &mut Router<'_>, origin: NodeId) {
        let n = network.node_count() as u32;
        for _ in 0..16 {
            let dest = NodeId(self.rng.gen_range(0..n));
            if dest == origin {
                continue;
            }
            if let Some(mut path) = router.route(origin, dest) {
                if let Some(first) = path.first().copied() {
                    path.reverse();
                    path.pop(); // the first edge becomes current
                    self.route_rev = path;
                    self.entered_from = origin;
                    self.current_edge = first;
                    self.progress_m = 0.0;
                    return;
                }
            }
        }
        // Extremely defensive fallback (connected networks never get here):
        // shuttle along any incident edge.
        let eid = network.incident_edges(origin)[0];
        self.route_rev = Vec::new();
        self.entered_from = origin;
        self.current_edge = eid;
        self.progress_m = 0.0;
    }
}

/// A set of vehicles advancing in lock-step over a shared road network.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Fleet<'a> {
    network: &'a RoadNetwork,
    router: Router<'a>,
    vehicles: Vec<Vehicle>,
    time: f64,
}

impl<'a> Fleet<'a> {
    /// Spawns `config.vehicles` vehicles at random junctions, each with a
    /// routed initial trip. Deterministic for a fixed config.
    pub fn new(network: &'a RoadNetwork, config: &FleetConfig) -> Fleet<'a> {
        Fleet::with_id_range(network, config, 0..config.vehicles as u32)
    }

    /// Spawns only the vehicles whose ids fall in `range`, each identical
    /// (same start, trips and speed) to the corresponding vehicle of the
    /// full fleet — per-vehicle state is seeded from the vehicle id, so a
    /// fleet can be sharded across threads without changing the trace.
    ///
    /// # Panics
    ///
    /// Panics when `range` exceeds `config.vehicles` or the speed-factor
    /// bounds are invalid.
    pub fn with_id_range(
        network: &'a RoadNetwork,
        config: &FleetConfig,
        range: std::ops::Range<u32>,
    ) -> Fleet<'a> {
        assert!(
            config.min_speed_factor > 0.0 && config.max_speed_factor >= config.min_speed_factor,
            "speed factors must be positive and ordered"
        );
        assert!(
            range.end as usize <= config.vehicles,
            "vehicle range {range:?} exceeds fleet size {}",
            config.vehicles
        );
        let mut router = Router::new(network);
        let mut vehicles = Vec::with_capacity(range.len());
        for i in range.map(|i| i as usize) {
            let mut rng = SmallRng::seed_from_u64(config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
            let origin = NodeId(rng.gen_range(0..network.node_count() as u32));
            let speed_factor = if config.max_speed_factor > config.min_speed_factor {
                rng.gen_range(config.min_speed_factor..config.max_speed_factor)
            } else {
                config.min_speed_factor
            };
            let mut v = Vehicle {
                id: VehicleId(i as u32),
                route_rev: Vec::new(),
                entered_from: origin,
                current_edge: network.incident_edges(origin)[0],
                progress_m: 0.0,
                speed_factor,
                rng,
            };
            v.start_trip(network, &mut router, origin);
            vehicles.push(v);
        }
        Fleet { network, router, vehicles, time: 0.0 }
    }

    /// The road network vehicles move on.
    pub fn network(&self) -> &RoadNetwork {
        self.network
    }

    /// Number of vehicles.
    pub fn len(&self) -> usize {
        self.vehicles.len()
    }

    /// True when the fleet has no vehicles.
    pub fn is_empty(&self) -> bool {
        self.vehicles.is_empty()
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Read access to the vehicles.
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// Advances every vehicle by `dt` seconds and returns one sample per
    /// vehicle, taken *after* the move.
    ///
    /// # Panics
    ///
    /// Panics when `dt` is not a positive finite number.
    pub fn step(&mut self, dt: f64) -> Vec<TraceSample> {
        let mut out = Vec::with_capacity(self.vehicles.len());
        self.step_into(dt, &mut out);
        out
    }

    /// Allocation-reusing variant of [`Fleet::step`].
    pub fn step_into(&mut self, dt: f64, out: &mut Vec<TraceSample>) {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive and finite");
        self.time += dt;
        out.clear();
        for v in &mut self.vehicles {
            v.advance(self.network, &mut self.router, dt);
            out.push(TraceSample {
                time: self.time,
                vehicle: v.id,
                pos: v.position(self.network),
                heading: v.heading(self.network),
                speed: v.speed(self.network),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_network, NetworkConfig};

    fn small_fleet(vehicles: usize, seed: u64) -> (crate::RoadNetwork, FleetConfig) {
        let net = generate_network(&NetworkConfig::small_test());
        (net, FleetConfig { vehicles, seed, ..FleetConfig::default() })
    }

    #[test]
    fn fleet_spawns_requested_vehicles() {
        let (net, cfg) = small_fleet(25, 3);
        let fleet = Fleet::new(&net, &cfg);
        assert_eq!(fleet.len(), 25);
        assert!(!fleet.is_empty());
    }

    #[test]
    fn samples_stay_on_the_network_bounding_box() {
        let (net, cfg) = small_fleet(20, 5);
        let bb = net.bounding_box();
        let mut fleet = Fleet::new(&net, &cfg);
        for _ in 0..300 {
            for s in fleet.step(1.0) {
                assert!(bb.contains_point(s.pos), "vehicle left the universe: {}", s.pos);
                assert!(s.speed > 0.0);
            }
        }
    }

    #[test]
    fn vehicles_actually_move() {
        let (net, cfg) = small_fleet(10, 9);
        let mut fleet = Fleet::new(&net, &cfg);
        let before: Vec<_> = fleet.step(1.0).iter().map(|s| s.pos).collect();
        // After a minute everyone has moved by at least 100 m of track.
        let mut samples = Vec::new();
        for _ in 0..60 {
            fleet.step_into(1.0, &mut samples);
        }
        let mut moved = 0;
        for (b, a) in before.iter().zip(samples.iter()) {
            if b.distance(a.pos) > 50.0 {
                moved += 1;
            }
        }
        assert!(moved >= 8, "only {moved}/10 vehicles moved");
    }

    #[test]
    fn trace_is_deterministic_for_fixed_seed() {
        let (net, cfg) = small_fleet(15, 11);
        let run = |cfg: &FleetConfig| {
            let mut fleet = Fleet::new(&net, cfg);
            let mut all = Vec::new();
            for _ in 0..120 {
                all.extend(fleet.step(1.0));
            }
            all
        };
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let (net, cfg) = small_fleet(15, 11);
        let cfg2 = FleetConfig { seed: 12, ..cfg.clone() };
        let mut f1 = Fleet::new(&net, &cfg);
        let mut f2 = Fleet::new(&net, &cfg2);
        let s1 = f1.step(1.0);
        let s2 = f2.step(1.0);
        assert_ne!(s1, s2);
    }

    #[test]
    fn movement_distance_respects_speed_limits() {
        let (net, cfg) = small_fleet(30, 13);
        let mut fleet = Fleet::new(&net, &cfg);
        let mut prev: Vec<_> = fleet.step(1.0).iter().map(|s| s.pos).collect();
        let max_speed = crate::RoadClass::Highway.speed_mps() * cfg.max_speed_factor;
        for _ in 0..120 {
            let now = fleet.step(1.0);
            for (p, s) in prev.iter().zip(now.iter()) {
                // Straight-line displacement can never exceed track distance.
                assert!(
                    p.distance(s.pos) <= max_speed * 1.0 + 1e-6,
                    "vehicle teleported: {} -> {}",
                    p,
                    s.pos
                );
            }
            prev = now.iter().map(|s| s.pos).collect();
        }
    }

    #[test]
    fn time_advances_with_steps() {
        let (net, cfg) = small_fleet(1, 2);
        let mut fleet = Fleet::new(&net, &cfg);
        assert_eq!(fleet.time(), 0.0);
        fleet.step(2.5);
        fleet.step(2.5);
        assert!((fleet.time() - 5.0).abs() < 1e-12);
        let s = fleet.step(1.0);
        assert!((s[0].time - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_non_positive_dt() {
        let (net, cfg) = small_fleet(1, 2);
        let mut fleet = Fleet::new(&net, &cfg);
        fleet.step(0.0);
    }

    #[test]
    fn heading_matches_displacement_direction() {
        let (net, cfg) = small_fleet(5, 21);
        let mut fleet = Fleet::new(&net, &cfg);
        let a = fleet.step(0.5);
        let b = fleet.step(0.5);
        for (s0, s1) in a.iter().zip(b.iter()) {
            let d = s0.pos.distance(s1.pos);
            // Only check when the vehicle stayed on one edge (heading constant
            // and displacement meaningful).
            if d > 1.0 && (s0.heading - s1.heading).abs() < 1e-9 {
                let observed = s0.pos.heading_to(s1.pos);
                let diff = sa_geometry::normalize_angle(observed - s1.heading).abs();
                assert!(diff < 1e-6, "heading {} vs displacement {}", s1.heading, observed);
            }
        }
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::{generate_network, NetworkConfig};

    #[test]
    fn sharded_fleets_reproduce_the_full_trace() {
        let net = generate_network(&NetworkConfig::small_test());
        let cfg = FleetConfig { vehicles: 12, seed: 77, ..FleetConfig::default() };
        let mut full = Fleet::new(&net, &cfg);
        let mut shard_a = Fleet::with_id_range(&net, &cfg, 0..5);
        let mut shard_b = Fleet::with_id_range(&net, &cfg, 5..12);
        for _ in 0..60 {
            let f = full.step(1.0);
            let a = shard_a.step(1.0);
            let b = shard_b.step(1.0);
            let merged: Vec<TraceSample> = a.into_iter().chain(b).collect();
            assert_eq!(f, merged);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds fleet size")]
    fn range_beyond_fleet_size_panics() {
        let net = generate_network(&NetworkConfig::small_test());
        let cfg = FleetConfig { vehicles: 3, seed: 1, ..FleetConfig::default() };
        let _ = Fleet::with_id_range(&net, &cfg, 0..4);
    }
}
