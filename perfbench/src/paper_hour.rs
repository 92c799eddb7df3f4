//! `paper_hour`: the paper's §5.1 setup (10k subscribers × 10k alarms)
//! as a closed loop through the batched in-process path.
//!
//! Each driver thread owns a contiguous range of vehicles, steps their
//! fleet, polls every client (`Client::poll_update`), sends the step's
//! uplinks as `Request::Batch` frames and feeds each reply group back
//! (`Client::complete_update`) before the next step. The episode is a
//! fixed prefix of the hour, long enough for the fired set to reach
//! tens of thousands of entries, so per-update cost that grows with the
//! fired set shows as `late_slowdown`.

use crate::measure::{cpu_per_update, late_slowdown, StepCost, StepWindows, WINDOWS};
use crate::spans::{self, span, Kind};
use crate::transport::{BenchTransport, ExchangeLog};
use crate::world::{start_server, vehicle_ranges, verify, STRATEGY_MIX};
use crate::{Driven, Episode};
use sa_alarms::SubscriberId;
use sa_obs::trace_id_for;
use sa_roadnet::Fleet;
use sa_server::wire::{BatchedUpdate, Request, Response, SEQ_MASK};
use sa_server::{Client, Server, Transport, TransportError};
use sa_sim::SimulationHarness;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Fleet and alarm scale (`SimulationConfig::paper_fraction`).
pub const SCALE: f64 = 1.0;

/// Steps of one episode: the first six minutes of the hour.
pub const STEPS: u32 = 360;

/// Most entries per batch frame. A step's uplinks are split into
/// frames of equal size, so one step yields a few timed exchanges
/// rather than one, and every exchange carries a similar load.
pub const CHUNK: usize = 256;

/// Overload retry rounds per step before a driver thread gives up.
const MAX_ROUNDS: u32 = 10_000;

/// The set-up state: a started server and every client connected.
pub struct Setup {
    /// The server under test.
    pub server: Arc<Server>,
    workers: Vec<Worker>,
}

struct Worker {
    range: Range<u32>,
    clients: Vec<Client<BenchTransport>>,
    sessions: Vec<u32>,
    driver: BenchTransport,
    log: Arc<ExchangeLog>,
}

/// Starts a server over the harness's world and connects one client per
/// vehicle (each `Hello` exchanged through the in-process transport),
/// split over `workers` driver threads.
///
/// # Errors
///
/// Fails when a `Hello` is refused.
pub fn setup(harness: &SimulationHarness, workers: usize) -> Result<Setup, TransportError> {
    let server = start_server(harness);
    let dt = harness.config().sample_period_s;
    let vehicles = harness.config().fleet.vehicles as u32;
    let workers = vehicle_ranges(vehicles, workers)
        .into_iter()
        .map(|range| {
            let log = ExchangeLog::shared();
            let mut sessions = Vec::with_capacity(range.len());
            let clients = range
                .clone()
                .map(|v| {
                    let transport = BenchTransport::connect(Arc::clone(&server), Arc::clone(&log));
                    sessions.push(transport.session());
                    let strategy = STRATEGY_MIX[v as usize % STRATEGY_MIX.len()];
                    Client::connect(
                        transport,
                        SubscriberId(v),
                        strategy,
                        harness.grid().clone(),
                        dt,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            let driver = BenchTransport::connect(Arc::clone(&server), Arc::clone(&log));
            Ok(Worker {
                range,
                clients,
                sessions,
                driver,
                log,
            })
        })
        .collect::<Result<_, TransportError>>()?;
    Ok(Setup { server, workers })
}

/// Runs one episode of `steps` steps on a fresh [`Setup`] and checks
/// every firing against the ground truth.
///
/// # Errors
///
/// Fails on a transport or protocol error or a ground-truth divergence.
pub fn run(
    harness: &SimulationHarness,
    setup: Setup,
    steps: u32,
    stride: u64,
) -> Result<Episode, String> {
    let Setup { server, workers } = setup;
    let windows = StepWindows::new(workers.len(), steps);
    windows.marks.mark(0);
    let origin = Instant::now();
    let mut ep = Episode {
        trace_offset_ns: server.clock().now_ns(),
        ..Episode::default()
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(tid, worker)| {
                let windows = &windows;
                scope.spawn(move || {
                    spans::begin_thread(tid as u32, origin, stride);
                    let outcome = drive(harness, worker, steps, windows);
                    (outcome, spans::end_thread())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    ep.wall_s = origin.elapsed().as_secs_f64();
    windows.marks.mark(WINDOWS);
    let mut costs = Vec::new();
    for (outcome, thread_spans) in results {
        let driven = outcome.map_err(|e| format!("paper_hour driver failed: {e}"))?;
        ep.absorb_driver(driven, steps, &mut costs);
        ep.spans.merge(thread_spans);
    }
    ep.cpu = cpu_per_update(&windows.marks.window_ns(), &windows.updates(&costs));
    ep.wall_late_slowdown = late_slowdown(&costs, steps);
    ep.close_loop();
    ep.samples = u64::from(steps) * harness.config().fleet.vehicles as u64;
    ep.registry = server.registry().snapshot();
    ep.server_spans = server.spans();
    server.shutdown();
    verify(harness, steps, &ep.fired).map_err(|e| format!("ground truth divergence: {e}"))?;
    Ok(ep)
}

fn drive(
    harness: &SimulationHarness,
    mut w: Worker,
    steps: u32,
    windows: &StepWindows,
) -> Result<Driven, TransportError> {
    let dt = harness.config().sample_period_s;
    let mut fleet =
        Fleet::with_id_range(harness.network(), &harness.config().fleet, w.range.clone());
    let mut samples = Vec::new();
    let mut entries: Vec<BatchedUpdate> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    let mut batch_seq = 0u32;
    let mut costs = Vec::with_capacity(steps as usize);

    for step in 0..steps {
        windows.before_step(step);
        let started = Instant::now();
        let updates = span(Kind::Step, 0, || -> Result<u64, TransportError> {
            span(Kind::FleetStep, 0, || fleet.step_into(dt, &mut samples));
            entries.clear();
            owners.clear();
            for s in &samples {
                let local = (s.vehicle.0 - w.range.start) as usize;
                let session = w.sessions[local];
                let client = &mut w.clients[local];
                if let Some(entry) = span(Kind::PollUpdate, 0, || {
                    client.poll_update(session, step, s.pos, s.heading, s.speed)
                })? {
                    entries.push(entry);
                    owners.push(local);
                }
            }
            let carried = entries.len() as u64;
            // Exchange, and re-exchange overloaded entries, until every
            // client has completed this step.
            let mut rounds = 0u32;
            while !entries.is_empty() {
                rounds += 1;
                if rounds > MAX_ROUNDS {
                    return Err(TransportError::Protocol("server stayed overloaded"));
                }
                let frames = entries.len().div_ceil(CHUNK);
                let size = entries.len().div_ceil(frames);
                let mut retry = (Vec::new(), Vec::new());
                for (chunk, chunk_owners) in entries.chunks(size).zip(owners.chunks(size)) {
                    batch_seq = (batch_seq + 1) & SEQ_MASK;
                    let resps = w.driver.request(Request::Batch {
                        seq: batch_seq,
                        updates: chunk.to_vec(),
                    })?;
                    let replies = match resps.into_iter().next() {
                        Some(Response::Batch { seq, replies }) if seq == batch_seq => replies,
                        _ => {
                            return Err(TransportError::Protocol("batch answered without a batch"))
                        }
                    };
                    if replies.len() != chunk.len() {
                        return Err(TransportError::Protocol("batch reply count mismatch"));
                    }
                    for ((reply, &owner), entry) in replies.into_iter().zip(chunk_owners).zip(chunk)
                    {
                        if reply.session != entry.session {
                            return Err(TransportError::Protocol("batch reply session mismatch"));
                        }
                        let client = &mut w.clients[owner];
                        let trace = trace_id_for(entry.session, entry.seq);
                        if !span(Kind::CompleteUpdate, trace, || {
                            client.complete_update(reply.responses)
                        })? {
                            retry.0.push(*entry);
                            retry.1.push(owner);
                        }
                    }
                }
                if !retry.0.is_empty() {
                    std::thread::yield_now();
                }
                (entries, owners) = retry;
            }
            Ok(carried)
        })?;
        costs.push(StepCost {
            step,
            wall_ns: started.elapsed().as_nanos() as u64,
            updates,
        });
    }

    Ok(Driven::collect(&mut w.clients, costs, &w.log))
}
