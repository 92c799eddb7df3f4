//! `alarm_churn`: a 0.1× fleet on the per-request in-process path
//! (`Client::observe`, one `Server::handle_into` per location update)
//! while one writer thread installs and removes alarms at a fixed rate
//! per simulated step. The writer is paced by the fleet's progress, not
//! by the wall clock, so a run makes the same writes between the same
//! steps however fast the machine is.
//! Reads and writes share the alarm index and the region cache, so a
//! read-side gain that costs writers, or the reverse, shows.

use crate::measure::{cpu_per_update, late_slowdown, StepCost, StepWindows, WINDOWS};
use crate::spans::{self, span, Kind};
use crate::transport::{BenchTransport, ExchangeLog};
use crate::world::{start_server, vehicle_ranges, verify, STRATEGY_MIX};
use crate::{writer, Driven, Episode};
use sa_alarms::SubscriberId;
use sa_roadnet::Fleet;
use sa_server::{Client, Server, TransportError};
use sa_sim::SimulationHarness;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Instant;

/// Fleet and alarm scale (`SimulationConfig::paper_fraction`).
pub const SCALE: f64 = 0.1;

/// Steps of one episode.
pub const STEPS: u32 = 3_600;

/// Alarm writes per fleet step (per simulated second).
pub const WRITES_PER_STEP: u64 = 2;

/// The set-up state: a started server and every client connected.
pub struct Setup {
    /// The server under test.
    pub server: Arc<Server>,
    workers: Vec<Worker>,
}

struct Worker {
    range: Range<u32>,
    clients: Vec<Client<BenchTransport>>,
    log: Arc<ExchangeLog>,
}

/// Starts a server over the harness's world and connects one client per
/// vehicle, split over `workers` driver threads.
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
            let clients = range
                .clone()
                .map(|v| {
                    let transport = BenchTransport::connect(Arc::clone(&server), Arc::clone(&log));
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
            Ok(Worker {
                range,
                clients,
                log,
            })
        })
        .collect::<Result<_, TransportError>>()?;
    Ok(Setup { server, workers })
}

/// Runs one episode of `steps` steps beside the writer, and checks every
/// firing against the ground truth and every write for an `Ack`.
///
/// # Errors
///
/// Fails on a transport or protocol error, a ground-truth divergence,
/// or an unacknowledged write.
pub fn run(
    harness: &SimulationHarness,
    setup: Setup,
    steps: u32,
    seed: u64,
    stride: u64,
) -> Result<Episode, String> {
    let Setup { server, workers } = setup;
    let threads = workers.len() as u32;
    let first_id = harness.index().len() as u32;
    let windows = StepWindows::new(workers.len(), steps);
    windows.marks.mark(0);
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    // Steps completed, summed over the driver threads.
    let progress = AtomicU64::new(0);
    let drivers = workers.len() as u64;
    let mut ep = Episode {
        trace_offset_ns: server.clock().now_ns(),
        ..Episode::default()
    };
    let (results, written) = std::thread::scope(|scope| {
        let (server, stop, progress) = (&server, &stop, &progress);
        let writer = scope.spawn(move || {
            spans::begin_thread(threads, origin, 1);
            let due = || progress.load(Ordering::Acquire) * WRITES_PER_STEP / drivers;
            let log = writer::churn(server, first_id, seed, due, stop);
            (log, spans::end_thread())
        });
        let writer_thread = writer.thread().clone();
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(tid, worker)| {
                let windows = &windows;
                let pace = Pace {
                    steps: progress,
                    writer: writer_thread.clone(),
                };
                scope.spawn(move || {
                    spans::begin_thread(tid as u32, origin, stride);
                    let outcome = drive(harness, worker, steps, windows, &pace);
                    (outcome, spans::end_thread())
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect();
        stop.store(true, Ordering::Release);
        writer_thread.unpark();
        (results, writer.join().expect("writer thread panicked"))
    });
    ep.wall_s = origin.elapsed().as_secs_f64();
    windows.marks.mark(WINDOWS);
    let mut costs = Vec::new();
    for (outcome, thread_spans) in results {
        let driven = outcome.map_err(|e| format!("alarm_churn driver failed: {e}"))?;
        ep.absorb_driver(driven, steps, &mut costs);
        ep.spans.merge(thread_spans);
    }
    let (writes, writer_spans) = written;
    ep.writes = writes?;
    ep.spans.merge(writer_spans);
    ep.cpu = cpu_per_update(&windows.marks.window_ns(), &windows.updates(&costs));
    ep.wall_late_slowdown = late_slowdown(&costs, steps);
    ep.close_loop();
    ep.samples = u64::from(steps) * harness.config().fleet.vehicles as u64;
    ep.registry = server.registry().snapshot();
    ep.server_spans = server.spans();
    server.shutdown();
    verify(harness, steps, &ep.fired).map_err(|e| format!("ground truth divergence: {e}"))?;
    if ep.writes.refused > 0 {
        return Err(format!(
            "{} alarm writes were not acknowledged",
            ep.writes.refused
        ));
    }
    Ok(ep)
}

/// The fleet's progress, which paces the writer: each driver counts its
/// completed steps and wakes the writer.
struct Pace<'a> {
    steps: &'a AtomicU64,
    writer: Thread,
}

fn drive(
    harness: &SimulationHarness,
    mut w: Worker,
    steps: u32,
    windows: &StepWindows,
    pace: &Pace<'_>,
) -> Result<Driven, TransportError> {
    let dt = harness.config().sample_period_s;
    let mut fleet =
        Fleet::with_id_range(harness.network(), &harness.config().fleet, w.range.clone());
    let mut samples = Vec::new();
    let mut costs = Vec::with_capacity(steps as usize);
    for step in 0..steps {
        windows.before_step(step);
        let started = Instant::now();
        let before = w.log.exchanges();
        span(Kind::Step, 0, || -> Result<(), TransportError> {
            span(Kind::FleetStep, 0, || fleet.step_into(dt, &mut samples));
            for s in &samples {
                let client = &mut w.clients[(s.vehicle.0 - w.range.start) as usize];
                span(Kind::Observe, 0, || {
                    client.observe(step, s.pos, s.heading, s.speed)
                })?;
            }
            Ok(())
        })?;
        let updates = (w.log.exchanges() - before) as u64;
        costs.push(StepCost {
            step,
            wall_ns: started.elapsed().as_nanos() as u64,
            updates,
        });
        pace.steps.fetch_add(1, Ordering::Release);
        pace.writer.unpark();
    }
    Ok(Driven::collect(&mut w.clients, costs, &w.log))
}
