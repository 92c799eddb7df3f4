//! The deterministic federation replay driver.
//!
//! [`fed_replay`] runs a seeded fleet against a live N-member
//! federation the way `sa-verify`'s `run_case` runs one against a
//! single server: one [`VirtualClock`] behind every timestamp, every
//! RNG seeded from the config, one synchronous driver thread, chaos
//! decorators on the client links (and, fault-plan permitting, the
//! handoff mesh and coordinator links), and an exact
//! [`GroundTruth`](sa_sim::GroundTruth) gate over the observed firings.
//!
//! Byte-level determinism is witnessed by an FNV-1a digest folded over
//! **every** exchange on every link — client, mesh, coordinator and
//! batch-driver — tagged by link, in driver order. Two runs of the
//! same config must produce the same digest.
//!
//! Mid-run, at `repartition_at`, the driver reads the federation-wide
//! per-cell load counters and lets the [`Coordinator`] re-cut the map.
//! Clients are deliberately **not** told: they discover the new epoch
//! through `WrongOwner` bounces, exercising the stale-route redirect
//! path end to end.

use crate::coordinator::Coordinator;
use crate::federation::Federation;
use crate::handoff::HandoffChannel;
use crate::router::FedTransport;
use crate::stats::federated_scrape;
use rand::{rngs::SmallRng, SeedableRng};
use sa_alarms::SubscriberId;
use sa_geometry::Point;
use sa_obs::{chrome_trace_json, FlightBundle, Span, SpanRecorder, TimeSource};
use sa_roadnet::Fleet;
use sa_server::wire::{BatchedUpdate, SEQ_MASK};
use sa_server::{
    shuffle, ChaosControls, Client, FaultPlan, FaultyTransport, InProcTransport, InjectedCounts,
    Request, ResiliencePolicy, Response, ServerConfig, SharedClock, StrategySpec, Transport,
    TransportError, VirtualClock,
};
use sa_sim::{FiredEvent, SimulationConfig, SimulationHarness};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Batch retry rounds per step before the driver gives up (guards
/// against livelock, far above anything a healthy run reaches).
const MAX_BATCH_ROUNDS: u32 = 10_000;

/// Span-buffer capacity of each client router's recorder.
const ROUTER_SPAN_CAPACITY: usize = 1024;

/// Span-buffer capacity of the coordinator's recorder.
const COORD_SPAN_CAPACITY: usize = 256;

/// Pseudo-member id base for client routers — offset by the vehicle id,
/// above any real federation size so merged spans stay attributable.
const ROUTER_MEMBER_BASE: u32 = 100;

/// Pseudo-member id of the coordinator in merged span records.
const COORDINATOR_MEMBER: u32 = 200;

/// One fully-specified federation replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FedReplayConfig {
    /// Federation members (2–4 per the acceptance gate; ≥ 1 enforced).
    pub partitions: u32,
    /// Fleet size.
    pub vehicles: usize,
    /// Alarm workload size.
    pub alarms: usize,
    /// Steps to drive at 1 Hz sampling.
    pub steps: u32,
    /// Master seed: world generation, chaos streams, interleaving.
    pub seed: u64,
    /// Fault schedule of the client links. The mesh and coordinator
    /// links reuse its probabilistic legs but ignore the disconnect
    /// windows (a vehicle losing radio does not sever inter-server
    /// trunks).
    pub plan: FaultPlan,
    /// Every `batch_every`-th step rides `Request::Batch` frames; `0`
    /// never batches. Only sound on a clean plan (chaos semantics are
    /// defined on the per-request path).
    pub batch_every: u32,
    /// Step at which the coordinator reads the load counters and
    /// re-cuts the map; `None` never repartitions.
    pub repartition_at: Option<u32>,
    /// Per-member shard count.
    pub num_shards: usize,
    /// Per-member shard queue capacity (raised to the fleet size).
    pub queue_capacity: usize,
    /// Strategies assigned round-robin.
    pub strategies: Vec<StrategySpec>,
}

impl FedReplayConfig {
    /// The acceptance-gate shape: 3 partitions, a lossy plan, one
    /// mid-run repartition, mixed strategies.
    pub fn gate(seed: u64) -> FedReplayConfig {
        FedReplayConfig {
            partitions: 3,
            vehicles: 4,
            alarms: 24,
            steps: 48,
            seed,
            plan: FaultPlan::lossy(seed),
            batch_every: 0,
            repartition_at: Some(24),
            num_shards: 2,
            queue_capacity: 16,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 3 },
                StrategySpec::Opt,
                StrategySpec::SafePeriod,
            ],
        }
    }
}

/// Everything one [`fed_replay`] execution produced.
#[derive(Debug)]
pub struct FedOutcome {
    /// Every firing observed by any client.
    pub fired: Vec<FiredEvent>,
    /// Exact diff against the simulator's ground truth.
    pub verification: Result<(), String>,
    /// FNV-1a digest over every exchange on every link.
    pub digest: u64,
    /// Completed session migrations across all clients.
    pub handoffs: u64,
    /// `WrongOwner` bounces absorbed by the routers.
    pub redirects: u64,
    /// Position-bearing requests the members bounced.
    pub wrong_owner_bounces: u64,
    /// Location updates processed per member (partition throughput).
    pub per_partition_updates: Vec<u64>,
    /// The topology epoch every member ended on.
    pub final_epoch: u64,
    /// Whether the mid-run repartition actually moved the cut.
    pub repartitioned: bool,
    /// Total chaos injections across every decorated link.
    pub injected_total: u64,
    /// Steps driven.
    pub steps: u32,
    /// Every span the run recorded — members, client routers and the
    /// coordinator merged and sorted on one time axis. Feed to
    /// [`sa_obs::assemble`] for causal trees.
    pub spans: Vec<Span>,
    /// Chrome trace-event JSON over [`FedOutcome::spans`] (loadable in
    /// Perfetto / `chrome://tracing`).
    pub trace_json: String,
    /// The federated Prometheus scrape taken at the end of the run.
    pub scrape: String,
}

/// FNV-1a folded over tagged exchange bytes, shared by every
/// [`DigestTransport`] of a run. The driver is single-threaded, so the
/// fold order — and hence the digest — is deterministic.
type DigestState = Arc<Mutex<u64>>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(FNV_PRIME);
    }
}

/// A [`Transport`] decorator hashing every exchange into the shared
/// run digest.
struct DigestTransport<T: Transport> {
    inner: T,
    tag: u64,
    state: DigestState,
}

impl<T: Transport> DigestTransport<T> {
    fn new(inner: T, tag: u64, state: DigestState) -> DigestTransport<T> {
        DigestTransport { inner, tag, state }
    }
}

impl<T: Transport> Transport for DigestTransport<T> {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let req_bytes = req.encode();
        let result = self.inner.request(req);
        let mut h = self.state.lock().expect("digest lock poisoned");
        fnv(&mut h, &self.tag.to_be_bytes());
        fnv(&mut h, &req_bytes);
        match &result {
            Ok(resps) => {
                for r in resps {
                    fnv(&mut h, &r.encode());
                }
            }
            Err(e) => fnv(&mut h, error_tag(e)),
        }
        result
    }
}

/// Stable one-byte tags for error kinds (payloads can carry
/// nondeterministic OS detail; the kind is what the digest asserts).
fn error_tag(e: &TransportError) -> &'static [u8] {
    match e {
        TransportError::Io(_) => b"\x01",
        TransportError::Wire(_) => b"\x02",
        TransportError::Closed => b"\x03",
        TransportError::TimedOut => b"\x04",
        TransportError::Protocol(_) => b"\x05",
        TransportError::WrongOwner { .. } => b"\x06",
    }
}

/// The per-client bundle the driver keeps alongside each [`Client`].
struct Seat {
    client: Client<FedTransport>,
    controls: Vec<ChaosControls>,
    counts: Vec<Arc<InjectedCounts>>,
    mesh_counts: Vec<Arc<InjectedCounts>>,
}

/// Executes one federation replay end to end.
///
/// # Errors
///
/// Fails when a client hits a non-transient transport error, a batch
/// reply violates the protocol, or a repartition push stays broken past
/// its retry budget.
///
/// # Panics
///
/// Panics when the config carries no strategies or zero partitions.
pub fn fed_replay(cfg: &FedReplayConfig) -> Result<FedOutcome, TransportError> {
    assert!(!cfg.strategies.is_empty(), "need at least one strategy to assign");
    assert!(cfg.partitions >= 1, "need at least one partition");
    let config = SimulationConfig::fuzz_slice(cfg.vehicles, cfg.alarms, cfg.steps, cfg.seed);
    config.validate();
    let harness = SimulationHarness::build(&config);
    let dt = config.sample_period_s;
    let steps = cfg.steps.max(1).min(config.steps() as u32);
    let vehicles = config.fleet.vehicles as u32;
    let n = cfg.partitions as usize;

    let vclock = Arc::new(VirtualClock::new());
    let clock: SharedClock = vclock.clone();
    let fed = Federation::launch(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        ServerConfig {
            num_shards: cfg.num_shards.max(1),
            queue_capacity: cfg.queue_capacity.max(vehicles as usize),
        },
        cfg.partitions,
        Arc::clone(&clock),
    );
    let digest: DigestState = Arc::new(Mutex::new(FNV_OFFSET));

    // One time source for every recorder in the run, reading the shared
    // virtual clock — merged spans land on a single time axis.
    let time = {
        let clock = Arc::clone(&clock);
        TimeSource::new(move || clock.now_ns() / 1_000)
    };

    // Inter-server legs reuse the plan's probabilistic faults but not
    // the breaker windows: radio outages hit vehicles, not trunks.
    let trunk_plan = FaultPlan { disconnect_steps: Vec::new(), ..cfg.plan.clone() };

    let mut seats: Vec<Seat> = Vec::with_capacity(vehicles as usize);
    let mut seat_spans: Vec<Arc<SpanRecorder>> = Vec::with_capacity(vehicles as usize);
    for v in 0..vehicles {
        let mut controls = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut mesh_counts = Vec::with_capacity(n);
        let links: Vec<(Box<dyn Transport + Send>, u32)> = (0..n)
            .map(|s| {
                let inner = InProcTransport::connect(Arc::clone(fed.server(s)));
                let session = inner.session();
                let faulty =
                    FaultyTransport::new(inner, cfg.plan.clone(), link_salt(0, v, s as u32))
                        .with_clock(Arc::clone(&clock));
                controls.push(faulty.controls());
                counts.push(faulty.counts());
                let tagged =
                    DigestTransport::new(faulty, link_salt(0, v, s as u32), Arc::clone(&digest));
                (Box::new(tagged) as Box<dyn Transport + Send>, session)
            })
            .collect();
        let mesh_links: Vec<Box<dyn Transport + Send>> = (0..n)
            .map(|s| {
                let inner = InProcTransport::connect(Arc::clone(fed.server(s)));
                let faulty =
                    FaultyTransport::new(inner, trunk_plan.clone(), link_salt(1, v, s as u32))
                        .with_clock(Arc::clone(&clock));
                faulty.controls().set_armed(true);
                mesh_counts.push(faulty.counts());
                let tagged =
                    DigestTransport::new(faulty, link_salt(1, v, s as u32), Arc::clone(&digest));
                Box::new(tagged) as Box<dyn Transport + Send>
            })
            .collect();
        let mesh = HandoffChannel::new(mesh_links, Arc::clone(&clock));
        let mut router = FedTransport::new(
            links,
            mesh,
            harness.grid().clone(),
            fed.initial_map().clone(),
        );
        router.instrument(fed.server(0).registry());
        let spans = Arc::new(SpanRecorder::new(1, ROUTER_SPAN_CAPACITY, time.clone()));
        spans.set_member(ROUTER_MEMBER_BASE + v);
        router.set_spans(Arc::clone(&spans));
        seat_spans.push(spans);
        let strategy = cfg.strategies[v as usize % cfg.strategies.len()];
        let mut client =
            Client::connect(router, SubscriberId(v), strategy, harness.grid().clone(), dt)?;
        client.set_clock(Arc::clone(&clock));
        client.enable_resilience(ResiliencePolicy::standard(cfg.seed ^ 0xBACC_0FF5 ^ u64::from(v)));
        seats.push(Seat { client, controls, counts, mesh_counts });
    }

    // The batch driver speaks to each member directly (clean links, as
    // in the single-server harness — batching never rides chaos).
    let mut driver_links: Vec<Box<dyn Transport + Send>> = (0..n)
        .map(|s| {
            let inner = InProcTransport::connect(Arc::clone(fed.server(s)));
            let tagged =
                DigestTransport::new(inner, link_salt(3, u32::MAX, s as u32), Arc::clone(&digest));
            Box::new(tagged) as Box<dyn Transport + Send>
        })
        .collect();

    // The coordinator's links ride the trunk chaos plan.
    let mut coordinator_counts = Vec::with_capacity(n);
    let coordinator_links: Vec<Box<dyn Transport + Send>> = (0..n)
        .map(|s| {
            let inner = InProcTransport::connect(Arc::clone(fed.server(s)));
            let faulty =
                FaultyTransport::new(inner, trunk_plan.clone(), link_salt(2, u32::MAX, s as u32))
                    .with_clock(Arc::clone(&clock));
            faulty.controls().set_armed(true);
            coordinator_counts.push(faulty.counts());
            let tagged =
                DigestTransport::new(faulty, link_salt(2, u32::MAX, s as u32), Arc::clone(&digest));
            Box::new(tagged) as Box<dyn Transport + Send>
        })
        .collect();
    let mut coordinator =
        Coordinator::new(coordinator_links, fed.initial_map().clone(), Arc::clone(&clock));
    let coordinator_spans = Arc::new(SpanRecorder::new(1, COORD_SPAN_CAPACITY, time.clone()));
    coordinator_spans.set_member(COORDINATOR_MEMBER);
    coordinator.set_spans(Arc::clone(&coordinator_spans));

    // Handshakes are done — arm the client-link fault plans.
    for seat in &seats {
        for c in &seat.controls {
            c.set_armed(true);
        }
    }

    let mut fleet = Fleet::new(harness.network(), &config.fleet);
    let mut samples = Vec::new();
    let mut order_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0D0E_0A0D_0F00_D5ED);
    let mut was_down = false;
    let mut batch_seq = 0u32;
    let mut repartitioned = false;

    for step in 0..steps {
        vclock.advance(Duration::from_secs_f64(dt));
        if Some(step) == cfg.repartition_at {
            let loads = fed.cell_loads();
            repartitioned = coordinator.maybe_repartition(fed.grid(), &loads)?;
        }
        let down = cfg.plan.disconnected_at(step);
        if down != was_down {
            for seat in &seats {
                for c in &seat.controls {
                    c.set_link_down(down);
                }
            }
            was_down = down;
        }
        fleet.step_into(dt, &mut samples);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        shuffle(&mut order, &mut order_rng);

        if cfg.batch_every > 0 && step % cfg.batch_every == 0 {
            batch_seq = drive_batched_step(
                &mut seats,
                &mut driver_links,
                &order,
                &samples,
                step,
                batch_seq,
            )?;
        } else {
            for &i in &order {
                let s = &samples[i];
                seats[s.vehicle.0 as usize].client.observe(step, s.pos, s.heading, s.speed)?;
            }
        }
    }

    // The outage is over: restore every link and drain the backlogs.
    for seat in &seats {
        for c in &seat.controls {
            c.set_link_down(false);
            c.set_armed(false);
        }
    }
    for seat in &mut seats {
        seat.client.finish()?;
    }

    let mut fired = Vec::new();
    let mut handoffs = 0u64;
    let mut redirects = 0u64;
    let mut injected_total = 0u64;
    for seat in &mut seats {
        handoffs += seat.client.transport_mut().handoffs();
        redirects += seat.client.transport_mut().redirects() + seat.client.stats().redirects;
        injected_total += seat.counts.iter().map(|c| c.total()).sum::<u64>();
        injected_total += seat.mesh_counts.iter().map(|c| c.total()).sum::<u64>();
        fired.extend(seat.client.take_fired());
    }
    injected_total += coordinator_counts.iter().map(|c| c.total()).sum::<u64>();

    // Merge every recorder — members, client routers, coordinator —
    // into one causally-ordered record while the servers are still up.
    let mut all_spans: Vec<Span> = Vec::new();
    for s in fed.servers() {
        all_spans.extend(s.spans());
    }
    for spans in &seat_spans {
        all_spans.extend(spans.spans());
    }
    all_spans.extend(coordinator_spans.spans());
    all_spans.sort_by_key(|s| (s.start_us, s.ctx.span_id));
    let trace_json = chrome_trace_json(&all_spans);
    let scrape =
        federated_scrape(fed.servers(), fed.grid(), coordinator.map(), &fed.cell_loads());

    let verification = harness.ground_truth().verify_prefix(steps, &fired).map_err(|e| {
        // The flight recorder: one forensic bundle per divergence —
        // merged span trees, every member's trace ring, every member's
        // registry snapshot.
        let mut bundle = FlightBundle::new(e);
        bundle.spans = all_spans.clone();
        for (i, s) in fed.servers().iter().enumerate() {
            bundle.rings.push((format!("member {i}"), s.trace_dump()));
            bundle.snapshots.push((format!("member {i}"), s.registry().snapshot()));
        }
        bundle.render()
    });

    let per_partition_updates: Vec<u64> =
        fed.servers().iter().map(|s| s.stats().location_updates).collect();
    let wrong_owner_bounces: u64 = fed.servers().iter().map(|s| s.wrong_owner_total()).sum();
    let final_epoch = fed.server(0).topology().0;
    fed.shutdown();

    let digest = *digest.lock().expect("digest lock poisoned");
    Ok(FedOutcome {
        fired,
        verification,
        digest,
        handoffs,
        redirects,
        wrong_owner_bounces,
        per_partition_updates,
        final_epoch,
        repartitioned,
        injected_total,
        steps,
        spans: all_spans,
        trace_json,
        scrape,
    })
}

/// One batched step: poll every client, route each staged entry to its
/// owner, send one `Request::Batch` per member, absorb replies. A
/// `WrongOwner` terminal re-routes that entry (refresh + migrate) and
/// retries it next round; `Overloaded` retries in place.
fn drive_batched_step(
    seats: &mut [Seat],
    driver_links: &mut [Box<dyn Transport + Send>],
    order: &[usize],
    samples: &[sa_roadnet::TraceSample],
    step: u32,
    mut batch_seq: u32,
) -> Result<u32, TransportError> {
    // (vehicle, entry, pos) staged this step, routing re-resolved each
    // round.
    let mut staged: Vec<(usize, BatchedUpdate, Point)> = Vec::new();
    for &i in order {
        let s = samples[i];
        let v = s.vehicle.0 as usize;
        let owner = seats[v].client.transport_mut().route_for(s.pos)?;
        let session = seats[v].client.transport_mut().session_on(owner);
        if let Some(entry) =
            seats[v].client.poll_update(session, step, s.pos, s.heading, s.speed)?
        {
            staged.push((v, entry, s.pos));
        }
    }
    let mut rounds = 0u32;
    while !staged.is_empty() {
        rounds += 1;
        if rounds > MAX_BATCH_ROUNDS {
            return Err(TransportError::Protocol("batched step failed to converge"));
        }
        // Group the staged entries by owning member, preserving order.
        let mut per_member: Vec<Vec<usize>> = vec![Vec::new(); driver_links.len()];
        for (slot, (v, entry, pos)) in staged.iter_mut().enumerate() {
            let owner = seats[*v].client.transport_mut().route_for(*pos)?;
            entry.session = seats[*v].client.transport_mut().session_on(owner);
            per_member[owner].push(slot);
        }
        let mut retry_slots = Vec::new();
        for (member, slots) in per_member.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let updates: Vec<BatchedUpdate> = slots.iter().map(|&i| staged[i].1).collect();
            batch_seq = (batch_seq + 1) & SEQ_MASK;
            let resps =
                driver_links[member].request(Request::Batch { seq: batch_seq, updates })?;
            let replies = match resps.into_iter().next() {
                Some(Response::Batch { seq, replies }) if seq == batch_seq => replies,
                _ => {
                    return Err(TransportError::Protocol(
                        "batch request answered without a batch reply",
                    ))
                }
            };
            if replies.len() != slots.len() {
                return Err(TransportError::Protocol("batch reply count mismatch"));
            }
            for (reply, &slot) in replies.into_iter().zip(slots) {
                let (v, entry, _) = staged[slot];
                if reply.session != entry.session {
                    return Err(TransportError::Protocol("batch reply session mismatch"));
                }
                match reply.responses.last() {
                    Some(Response::WrongOwner { .. }) => {
                        // The member's map is newer: refresh from it and
                        // re-route this entry next round (the client's
                        // staged state stays pending).
                        seats[v].client.transport_mut().note_bounce(member, entry.seq)?;
                        retry_slots.push(slot);
                    }
                    _ => {
                        if !seats[v].client.complete_update(reply.responses)? {
                            retry_slots.push(slot);
                        }
                    }
                }
            }
        }
        retry_slots.sort_unstable();
        staged = retry_slots.into_iter().map(|i| staged[i]).collect();
    }
    Ok(batch_seq)
}

/// Decorrelated chaos/digest salts per (kind, client, member) — kind 0:
/// client link, 1: mesh link, 2: coordinator link, 3: batch driver.
fn link_salt(kind: u32, client: u32, member: u32) -> u64 {
    (u64::from(kind) << 48) | (u64::from(client) << 16) | u64::from(member)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, partitions: u32, plan: FaultPlan, batch_every: u32) -> FedReplayConfig {
        FedReplayConfig {
            partitions,
            vehicles: 3,
            alarms: 12,
            steps: 32,
            seed,
            plan,
            batch_every,
            repartition_at: None,
            num_shards: 2,
            queue_capacity: 8,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 2 },
                StrategySpec::Opt,
            ],
        }
    }

    #[test]
    fn clean_two_partition_replay_matches_ground_truth() {
        let cfg = small(5, 2, FaultPlan::clean(), 0);
        let out = fed_replay(&cfg).expect("transport must hold");
        out.verification.as_ref().expect("fired set must match ground truth");
        assert_eq!(out.per_partition_updates.len(), 2);
        assert_eq!(out.final_epoch, 0);
        assert!(out.trace_json.contains("\"traceEvents\""), "trace export must be produced");
        assert!(out.scrape.contains("member=\"federation\""), "scrape must carry roll-ups");
        assert!(out.scrape.contains("sa_fed_epoch"), "scrape must carry coordinator gauges");
    }

    #[test]
    fn replay_is_digest_deterministic_per_seed() {
        let cfg = small(11, 3, FaultPlan::lossy(11), 0);
        let a = fed_replay(&cfg).expect("run a");
        let b = fed_replay(&cfg).expect("run b");
        a.verification.as_ref().expect("lossy replay must still be exact");
        assert_eq!(a.digest, b.digest, "same config must replay byte-identically");
        let other = fed_replay(&small(12, 3, FaultPlan::lossy(12), 0)).expect("run c");
        assert_ne!(a.digest, other.digest, "different seeds must diverge");
    }

    #[test]
    fn mid_run_repartition_keeps_the_replay_exact() {
        let mut cfg = small(21, 3, FaultPlan::clean(), 0);
        cfg.steps = 40;
        cfg.repartition_at = Some(16);
        let out = fed_replay(&cfg).expect("transport must hold");
        out.verification.as_ref().expect("repartitioned replay must stay exact");
        if out.repartitioned {
            assert_eq!(out.final_epoch, 1, "accepted epoch must be visible on members");
        }
    }

    #[test]
    fn batched_replay_stays_exact_across_partitions() {
        let cfg = small(31, 2, FaultPlan::clean(), 2);
        let out = fed_replay(&cfg).expect("transport must hold");
        out.verification.as_ref().expect("batched fed replay must match ground truth");
    }
}
