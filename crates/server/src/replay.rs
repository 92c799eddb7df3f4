//! Trace replay through the live server.
//!
//! Rebuilds the simulator's world (road network, fleet, alarms), starts
//! a [`Server`] over it, connects one [`Client`] per vehicle through a
//! caller-chosen transport, and streams the deterministic `sa-roadnet`
//! trace through the live stack. Every firing observed by any client is
//! collected and diffed against the simulator's
//! [`GroundTruth`](sa_sim::GroundTruth) — the live runtime must
//! reproduce the paper's 100%-accuracy requirement, end to end through
//! real message encoding and real threads.
//!
//! Every replay entry point — per-request, batched multi-worker, TCP,
//! chaos ([`crate::chaos::chaos_replay_in_proc`]) and `sa-verify`'s
//! schedule harness — runs on one step driver, [`FleetDrive`]. The
//! caller owns the server, its clock and the transport stack; the
//! driver owns client set-up, fault arming, disconnect windows, visit
//! order, the per-request and batched steps, the final drain and the
//! ground-truth gate ([`ground_truth_gate`]).
//!
//! Only static alarms are replayed (the wire protocol carries no
//! moving-target coordination); build the harness with
//! `config.moving_alarms == 0`.

use crate::chaos::{ChaosControls, FaultPlan, InjectedCounts};
use crate::client::{Client, ClientStats, ResiliencePolicy};
use crate::clock::{SharedClock, VirtualClock};
use crate::reactor::{Reactor, ReactorConfig};
use crate::server::{Server, ServerConfig, ServerStats};
use crate::transport::{InProcTransport, TcpTransport, Transport, TransportError};
use crate::wire::{BatchReply, BatchedUpdate, Request, Response, StrategySpec, SEQ_MASK};
use crate::CacheStats;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use sa_alarms::SubscriberId;
use sa_obs::{FlightBundle, Snapshot, TraceMode};
use sa_roadnet::{Fleet, TraceSample};
use sa_sim::{FiredEvent, SimulationHarness};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// What to replay and through what server shape.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Steps to replay; `None` replays the harness's full trace.
    pub steps: Option<u32>,
    /// Server sizing.
    pub server: ServerConfig,
    /// Strategies assigned to vehicles round-robin.
    pub strategies: Vec<StrategySpec>,
    /// Span-recording mode installed on the server at start — the
    /// `trace_overhead` bench drives the same replay with tracing off
    /// and fully on to price the instrumentation.
    pub trace_mode: TraceMode,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig {
            steps: None,
            server: ServerConfig::default(),
            trace_mode: TraceMode::Full,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 5 },
                StrategySpec::Opt,
                StrategySpec::SafePeriod,
            ],
        }
    }
}

/// The result of one replay.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Every firing observed by any client, unsorted.
    pub fired: Vec<FiredEvent>,
    /// Diff against the ground truth restricted to the replayed steps;
    /// `Err` describes the first discrepancy.
    pub verification: Result<(), String>,
    /// Per-client `(subscriber, strategy, counters)`.
    pub clients: Vec<(SubscriberId, StrategySpec, ClientStats)>,
    /// Server counters.
    pub server: ServerStats,
    /// Safe-region cache counters.
    pub cache: CacheStats,
    /// Full registry snapshot (every counter, gauge, and histogram),
    /// captured just before the server shut down. Render with
    /// [`sa_obs::render_snapshot`] for the Prometheus text form.
    pub metrics: Snapshot,
    /// Steps actually replayed.
    pub steps: u32,
}

impl ReplayOutcome {
    /// Panics with the discrepancy when the replay missed, mistimed or
    /// spuriously fired an alarm.
    ///
    /// # Panics
    ///
    /// Panics when `verification` is an error.
    pub fn assert_accurate(&self) {
        if let Err(e) = &self.verification {
            panic!("live replay violated the 100% accuracy requirement: {e}");
        }
    }
}

/// One vehicle's link, built by the caller's `connect` closure for
/// [`FleetDrive::seat`]: the transport stack plus the handles the
/// driver steers.
pub struct Link<T> {
    /// The client-facing end of the caller's transport stack.
    pub transport: T,
    /// The server session the link speaks on; batched steps address
    /// their [`Request::Batch`] entries with it. `0` (never a real
    /// session) when the transport cannot name it — such links must not
    /// be batched.
    pub session: u32,
    /// Breaker switches and fault tally of a [`crate::FaultyTransport`]
    /// in the stack, when there is one. The driver arms it after the
    /// handshake and disarms it, breaker restored, for the final drain.
    pub chaos: Option<(ChaosControls, Arc<InjectedCounts>)>,
}

impl<T> Link<T> {
    /// A plain link: no nameable session, no fault injector.
    pub fn new(transport: T) -> Link<T> {
        Link { transport, session: 0, chaos: None }
    }
}

/// What one [`Seated::run`] produced.
#[derive(Debug)]
pub struct Driven {
    /// Every firing observed by the range's clients, unsorted.
    pub fired: Vec<FiredEvent>,
    /// Per-client `(subscriber, strategy, counters)`, in vehicle order.
    pub clients: Vec<(SubscriberId, StrategySpec, ClientStats)>,
    /// Injected faults by kind, summed over every link.
    pub injected: Vec<(&'static str, u64)>,
}

/// The fleet-replay step driver. Built once per replay; its mode —
/// fault plan, visit order, virtual clock — is set through the
/// builder methods, and every worker [`FleetDrive::seat`]s its own
/// vehicle range.
pub struct FleetDrive<'h> {
    harness: &'h SimulationHarness,
    strategies: &'h [StrategySpec],
    steps: u32,
    /// The plan whose disconnect windows the driver throws, with the
    /// base seed of the per-client resilience policies it implies.
    faults: Option<(&'h FaultPlan, u64)>,
    /// Seed of the per-step visit-order shuffle; `None` visits clients
    /// in vehicle order.
    order_seed: Option<u64>,
    /// Advanced one sample period per step, and handed to every client.
    clock: Option<Arc<VirtualClock>>,
}

impl<'h> FleetDrive<'h> {
    /// A driver over `harness`'s trace for `steps` steps (`None`: the
    /// whole trace; longer requests are clamped to it), assigning
    /// `strategies` round-robin by vehicle id.
    ///
    /// # Panics
    ///
    /// Panics when the harness was built with moving-target alarms or
    /// `strategies` is empty.
    pub fn new(
        harness: &'h SimulationHarness,
        strategies: &'h [StrategySpec],
        steps: Option<u32>,
    ) -> FleetDrive<'h> {
        assert!(
            harness.moving_alarms().is_none(),
            "the live wire protocol carries static alarms only"
        );
        assert!(!strategies.is_empty(), "need at least one strategy to assign");
        let total = harness.config().steps() as u32;
        FleetDrive {
            harness,
            strategies,
            steps: steps.unwrap_or(total).min(total),
            faults: None,
            order_seed: None,
            clock: None,
        }
    }

    /// Drives the links under `plan`: every client rides out faults
    /// with [`ResiliencePolicy::standard`] seeded `resilience_seed ^
    /// vehicle` (and reports its failure metrics), and the plan's
    /// disconnect windows throw every link's breaker.
    pub fn faults(mut self, plan: &'h FaultPlan, resilience_seed: u64) -> FleetDrive<'h> {
        self.faults = Some((plan, resilience_seed));
        self
    }

    /// Visits the clients in a fresh seeded pseudo-random order each
    /// step (batched entries are submitted in that order), exercising
    /// shared server state under many arrival orders.
    pub fn shuffled(mut self, seed: u64) -> FleetDrive<'h> {
        self.order_seed = Some(seed);
        self
    }

    /// Advances `clock` one sample period at the start of every step
    /// and puts every client's backoff and outage timing on it.
    pub fn virtual_clock(mut self, clock: Arc<VirtualClock>) -> FleetDrive<'h> {
        self.clock = Some(clock);
        self
    }

    /// Steps the drive replays.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Connects one client per vehicle of `vehicles` over the link
    /// `connect` builds for that vehicle id, performing every
    /// handshake fault-free.
    ///
    /// # Errors
    ///
    /// Fails when a link cannot be built or a handshake is refused.
    pub fn seat<T: Transport>(
        &self,
        server: &Server,
        vehicles: Range<u32>,
        mut connect: impl FnMut(u32) -> Result<Link<T>, TransportError>,
    ) -> Result<Seated<'_, 'h, T>, TransportError> {
        let grid = self.harness.grid();
        let dt = self.harness.config().sample_period_s;
        let mut seats = Vec::with_capacity(vehicles.len());
        for v in vehicles.clone() {
            let link = connect(v)?;
            let strategy = self.strategies[v as usize % self.strategies.len()];
            let mut client =
                Client::connect(link.transport, SubscriberId(v), strategy, grid.clone(), dt)?;
            if let Some(clock) = &self.clock {
                client.set_clock(Arc::clone(clock) as SharedClock);
            }
            if let Some((_, seed)) = self.faults {
                client.enable_resilience(ResiliencePolicy::standard(seed ^ u64::from(v)));
                client.instrument(server.registry());
            }
            seats.push(Seat { client, session: link.session, chaos: link.chaos });
        }
        Ok(Seated { drive: self, vehicles, seats })
    }
}

/// One connected client and the driver's handles on its link.
struct Seat<T: Transport> {
    client: Client<T>,
    session: u32,
    chaos: Option<(ChaosControls, Arc<InjectedCounts>)>,
}

/// A vehicle range with every client connected, ready to
/// [`Seated::run`]. Seating and running are separate so a caller can
/// open further sessions — the batch driver's — after the clients',
/// keeping session ids (and so transcripts) stable.
pub struct Seated<'d, 'h, T: Transport> {
    drive: &'d FleetDrive<'h>,
    vehicles: Range<u32>,
    seats: Vec<Seat<T>>,
}

impl<T: Transport> Seated<'_, '_, T> {
    /// Replays the trace slice of the seated range. With `batch =
    /// Some((every, batcher))`, every `every`-th step is submitted as
    /// [`Request::Batch`] frames over `batcher` (the links must name
    /// their sessions); all other steps exchange per client.
    ///
    /// # Errors
    ///
    /// Fails when a client hits a non-transient transport error, the
    /// server answers outside the batch protocol, or a step stays
    /// overloaded past the retry budget.
    pub fn run(
        mut self,
        mut batch: Option<(u32, &mut dyn Transport)>,
    ) -> Result<Driven, TransportError> {
        let drive = self.drive;
        let harness = drive.harness;
        let dt = harness.config().sample_period_s;
        let plan = drive.faults.map(|(plan, _)| plan);
        // Handshakes are done — let the faults fly.
        for c in self.controls() {
            c.set_armed(true);
        }

        let mut fleet =
            Fleet::with_id_range(harness.network(), &harness.config().fleet, self.vehicles.clone());
        let mut order_rng = drive.order_seed.map(SmallRng::seed_from_u64);
        let mut samples = Vec::new();
        let mut order = Vec::new();
        let mut batch_seq = 0u32;
        let mut was_down = false;
        for step in 0..drive.steps {
            if let Some(clock) = &drive.clock {
                clock.advance(Duration::from_secs_f64(dt));
            }
            if let Some(plan) = plan {
                let down = plan.disconnected_at(step);
                if down != was_down {
                    for c in self.controls() {
                        c.set_link_down(down);
                    }
                    was_down = down;
                }
            }
            fleet.step_into(dt, &mut samples);
            order.clear();
            order.extend(0..samples.len());
            if let Some(rng) = &mut order_rng {
                shuffle(&mut order, rng);
            }
            match &mut batch {
                Some((every, batcher)) if step % *every == 0 => {
                    self.batch_step(step, &samples, &order, *batcher, &mut batch_seq)?;
                }
                _ => {
                    for &i in &order {
                        let s = &samples[i];
                        let local = (s.vehicle.0 - self.vehicles.start) as usize;
                        self.seats[local].client.observe(step, s.pos, s.heading, s.speed)?;
                    }
                }
            }
        }

        // The outage is over: restore the link, keep probabilistic
        // faults off for the drain, and reconcile every backlog.
        for c in self.controls() {
            c.set_link_down(false);
            c.set_armed(false);
        }
        for seat in &mut self.seats {
            seat.client.finish()?;
        }

        let mut injected = InjectedCounts::default().by_kind();
        let mut fired = Vec::new();
        let mut clients = Vec::with_capacity(self.seats.len());
        for seat in &mut self.seats {
            clients.push((seat.client.user(), seat.client.strategy(), seat.client.stats()));
            fired.extend(seat.client.take_fired());
            if let Some((_, counts)) = &seat.chaos {
                for (slot, (_, n)) in injected.iter_mut().zip(counts.by_kind()) {
                    slot.1 += n;
                }
            }
        }
        Ok(Driven { fired, clients, injected })
    }

    /// The breaker switches of every link that carries a fault injector.
    fn controls(&self) -> impl Iterator<Item = &ChaosControls> {
        self.seats.iter().filter_map(|s| s.chaos.as_ref().map(|(c, _)| c))
    }

    /// One batched step: polls every client in `order`, then exchanges
    /// (and re-exchanges overloaded entries) until the step is fully
    /// absorbed — every client must complete step `step` before any
    /// polls `step + 1`.
    fn batch_step(
        &mut self,
        step: u32,
        samples: &[TraceSample],
        order: &[usize],
        batcher: &mut dyn Transport,
        batch_seq: &mut u32,
    ) -> Result<(), TransportError> {
        let mut entries: Vec<BatchedUpdate> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        for &i in order {
            let s = &samples[i];
            let local = (s.vehicle.0 - self.vehicles.start) as usize;
            let seat = &mut self.seats[local];
            if let Some(entry) =
                seat.client.poll_update(seat.session, step, s.pos, s.heading, s.speed)?
            {
                entries.push(entry);
                owners.push(local);
            }
        }
        let mut rounds = 0u32;
        while !entries.is_empty() {
            if rounds >= MAX_BATCH_ROUNDS {
                return Err(TransportError::Protocol("server stayed overloaded"));
            }
            rounds += 1;
            let mut retry_entries = Vec::new();
            let mut retry_owners = Vec::new();
            for (chunk, chunk_owners) in
                entries.chunks(MAX_BATCH_ENTRIES).zip(owners.chunks(MAX_BATCH_ENTRIES))
            {
                *batch_seq = (*batch_seq + 1) & SEQ_MASK;
                let replies = exchange_batch(batcher, *batch_seq, chunk)?;
                if replies.len() != chunk.len() {
                    return Err(TransportError::Protocol("batch reply count mismatch"));
                }
                for ((reply, &owner), &entry) in replies.into_iter().zip(chunk_owners).zip(chunk) {
                    if reply.session != entry.session {
                        return Err(TransportError::Protocol("batch reply session mismatch"));
                    }
                    if !self.seats[owner].client.complete_update(reply.responses)? {
                        retry_entries.push(entry);
                        retry_owners.push(owner);
                    }
                }
            }
            if !retry_entries.is_empty() {
                std::thread::yield_now();
            }
            entries = retry_entries;
            owners = retry_owners;
        }
        Ok(())
    }
}

/// Hard cap on entries per [`Request::Batch`] frame, keeping the worst
/// case reply frame (a height-5 bitmap install for *every* entry) well
/// under [`crate::wire::MAX_FRAME_LEN`].
const MAX_BATCH_ENTRIES: usize = 1024;

/// Overload retry rounds per step before a batched drive gives up.
const MAX_BATCH_ROUNDS: u32 = 10_000;

/// One batch frame round trip, unwrapped to its reply groups.
fn exchange_batch(
    batcher: &mut dyn Transport,
    seq: u32,
    updates: &[BatchedUpdate],
) -> Result<Vec<BatchReply>, TransportError> {
    let resps = batcher.request(Request::Batch { seq, updates: updates.to_vec() })?;
    match resps.into_iter().next() {
        Some(Response::Batch { seq: echoed, replies }) if echoed == seq => Ok(replies),
        _ => Err(TransportError::Protocol("batch request answered without a batch reply")),
    }
}

/// Fisher–Yates under the given RNG (the vendored `rand` has no
/// `shuffle`; this mirrors `SliceRandom::shuffle`).
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// The accuracy gate: `fired` must equal `harness`'s ground truth over
/// the first `steps` steps exactly. A divergence is rendered as a
/// [`FlightBundle`] — span trees, trace ring and registry snapshot of
/// `server` in one document.
///
/// # Errors
///
/// The rendered bundle, when the firings diverge.
pub fn ground_truth_gate(
    harness: &SimulationHarness,
    steps: u32,
    fired: &[FiredEvent],
    server: &Server,
) -> Result<(), String> {
    harness.ground_truth().verify_prefix(steps, fired).map_err(|reason| {
        let mut bundle = FlightBundle::new(reason);
        bundle.spans = server.spans();
        bundle.rings.push(("server".to_string(), server.trace_dump()));
        bundle.snapshots.push(("server".to_string(), server.registry().snapshot()));
        bundle.render()
    })
}

/// Starts the server a [`ReplayConfig`] describes over `harness`'s
/// world.
pub(crate) fn start_server(harness: &SimulationHarness, cfg: &ReplayConfig) -> Arc<Server> {
    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        cfg.server,
    );
    server.set_trace_mode(cfg.trace_mode);
    server
}

/// Gates a finished replay, captures the server's counters and
/// registry, and shuts the server down.
pub(crate) fn conclude(
    harness: &SimulationHarness,
    server: &Server,
    steps: u32,
    fired: Vec<FiredEvent>,
    clients: Vec<(SubscriberId, StrategySpec, ClientStats)>,
) -> ReplayOutcome {
    let verification = ground_truth_gate(harness, steps, &fired, server);
    let outcome = ReplayOutcome {
        fired,
        verification,
        clients,
        server: server.stats(),
        cache: server.cache_stats(),
        metrics: server.registry().snapshot(),
        steps,
    };
    server.shutdown();
    outcome
}

/// Replays `harness`'s trace through a fresh server, connecting each
/// client with `connect`, one request per uplink.
///
/// # Errors
///
/// Fails when any client's transport breaks mid-replay.
///
/// # Panics
///
/// Panics when the harness was built with moving-target alarms.
pub fn replay<T, F>(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    mut connect: F,
) -> Result<ReplayOutcome, TransportError>
where
    T: Transport,
    F: FnMut(&Arc<Server>) -> Result<T, TransportError>,
{
    let drive = FleetDrive::new(harness, &cfg.strategies, cfg.steps);
    let server = start_server(harness, cfg);
    let vehicles = harness.config().fleet.vehicles as u32;
    let driven = drive.seat(&server, 0..vehicles, |_| Ok(Link::new(connect(&server)?)))?.run(None)?;
    Ok(conclude(harness, &server, drive.steps(), driven.fired, driven.clients))
}

/// [`replay`] over the in-process transport.
///
/// # Errors
///
/// Fails when a client exchange breaks (see [`replay`]).
pub fn replay_in_proc(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, TransportError> {
    replay(harness, cfg, |server| Ok(InProcTransport::connect(Arc::clone(server))))
}

/// The multi-worker batched replay: splits the fleet into `workers`
/// contiguous vehicle-id ranges (the [`Fleet::with_id_range`] sharding —
/// each shard reproduces exactly its slice of the full trace), drives
/// each range on its own thread, and submits each worker's step as
/// [`Request::Batch`] frames over in-proc transport instead of one
/// request/RTT per vehicle. Firings are still cross-checked against the
/// simulator's [`GroundTruth`](sa_sim::GroundTruth) exactly.
///
/// Free-running workers are sound because alarms fire per (subscriber,
/// alarm): one vehicle's firings never depend on another vehicle's
/// position, so worker skew cannot change what fires or when. Within a
/// worker, each client completes its step-`n` responses before polling
/// step `n + 1`, preserving per-client strategy semantics.
///
/// # Errors
///
/// Fails when a transport breaks, the server answers outside the batch
/// protocol, or a shard queue stays overloaded past the retry budget.
///
/// # Panics
///
/// Panics when the harness was built with moving-target alarms.
pub fn replay_batched_in_proc(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
    workers: usize,
) -> Result<ReplayOutcome, TransportError> {
    let drive = FleetDrive::new(harness, &cfg.strategies, cfg.steps);
    let server = start_server(harness, cfg);

    // One contiguous vehicle range per worker, like the simulator's own
    // parallel replay.
    let vehicles = harness.config().fleet.vehicles as u32;
    let workers = (workers.max(1) as u32).min(vehicles.max(1));
    let base = vehicles / workers;
    let extra = vehicles % workers;
    let mut ranges = Vec::with_capacity(workers as usize);
    let mut start = 0u32;
    for w in 0..workers {
        let len = base + u32::from(w < extra);
        if len > 0 {
            ranges.push(start..start + len);
            start += len;
        }
    }

    let in_proc = |_: u32| {
        let transport = InProcTransport::connect(Arc::clone(&server));
        Ok(Link { session: transport.session(), transport, chaos: None })
    };
    let results: Result<Vec<Driven>, TransportError> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let (drive, server) = (&drive, &server);
                scope.spawn(move || {
                    let seated = drive.seat(server, range, in_proc)?;
                    let mut batcher = InProcTransport::connect(Arc::clone(server));
                    seated.run(Some((1, &mut batcher)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch worker panicked")).collect()
    });

    let mut fired = Vec::new();
    let mut clients = Vec::new();
    for driven in results? {
        fired.extend(driven.fired);
        clients.extend(driven.clients);
    }
    Ok(conclude(harness, &server, drive.steps(), fired, clients))
}

/// [`replay`] over loopback TCP: serves the server through a
/// [`Reactor`], gives every client its own connection, and tears the
/// reactor down afterwards.
///
/// # Errors
///
/// Fails when the listener cannot bind or a client exchange breaks.
pub fn replay_tcp(
    harness: &SimulationHarness,
    cfg: &ReplayConfig,
) -> Result<ReplayOutcome, TransportError> {
    let mut reactor: Option<Reactor> = None;
    replay(harness, cfg, |server| {
        if reactor.is_none() {
            reactor = Some(Reactor::bind(Arc::clone(server), replay_reactor_config())?);
        }
        let addr = reactor.as_ref().expect("reactor just bound").addr();
        Ok(TcpTransport::connect(addr)?)
    })
}

/// The reactor shape for replays: a safe region exists to keep its
/// client silent, so a replayed connection may idle for as long as the
/// replay runs and must not be reaped for it.
fn replay_reactor_config() -> ReactorConfig {
    ReactorConfig { idle_timeout: Duration::from_secs(3600), ..ReactorConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::SimulationConfig;

    #[test]
    fn in_proc_replay_fires_exactly_the_ground_truth_prefix() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig { steps: Some(120), ..ReplayConfig::default() };
        let outcome = replay_in_proc(&harness, &cfg).expect("transport must hold");
        outcome.assert_accurate();
        assert_eq!(outcome.steps, 120);
        assert_eq!(outcome.clients.len(), harness.config().fleet.vehicles);
        let uplinks: u64 = outcome.clients.iter().map(|(_, _, s)| s.uplinks).sum();
        assert!(uplinks > 0, "someone must have talked to the server");
        assert!(
            uplinks < harness.config().fleet.vehicles as u64 * 120,
            "safe regions must suppress most samples"
        );
    }

    #[test]
    fn batched_replay_matches_ground_truth_and_per_request_traffic() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig { steps: Some(120), ..ReplayConfig::default() };
        let batched = replay_batched_in_proc(&harness, &cfg, 3).expect("transport must hold");
        batched.assert_accurate();
        assert_eq!(batched.steps, 120);
        assert_eq!(batched.clients.len(), harness.config().fleet.vehicles);
        // Batching changes the framing, not the strategies: the same
        // uplinks, installs and deliveries as the per-request driver.
        let per_request = replay_in_proc(&harness, &cfg).expect("transport must hold");
        let totals = |o: &ReplayOutcome| {
            o.clients.iter().fold((0u64, 0u64, 0u64), |(u, i, d), (_, _, s)| {
                (u + s.uplinks, i + s.region_installs, d + s.deliveries)
            })
        };
        assert_eq!(totals(&batched), totals(&per_request));
        assert!(totals(&batched).0 > 0, "someone must have talked to the server");
    }

    #[test]
    fn replay_caches_public_bitmaps_across_pbsr_clients() {
        let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
        let cfg = ReplayConfig {
            steps: Some(120),
            strategies: vec![StrategySpec::Pbsr { height: 3 }],
            ..ReplayConfig::default()
        };
        let outcome = replay_in_proc(&harness, &cfg).expect("transport must hold");
        outcome.assert_accurate();
        let stats = outcome.cache;
        assert!(
            stats.hits + stats.misses > 0,
            "PBSR installs must consult the public-bitmap cache"
        );
        assert!(stats.hits > 0, "12 clients over a small grid must share some bitmaps");
    }
}
