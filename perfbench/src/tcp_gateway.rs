//! `tcp_gateway`: an open-loop Poisson schedule over loopback TCP into
//! the `Reactor`.
//!
//! One connection acts as an aggregator for 0.1× PBSR-h3 subscribers,
//! whose sessions are opened during set-up through `Server::open_session`
//! and `Hello`. Every trace sample is one update due at a Poisson
//! instant. The aggregator flushes the updates scheduled within each
//! 1 ms tick as one `Request::Batch` frame when the tick ends. A sender
//! thread sleeps to the next flush and sends it whether or not earlier
//! frames were answered; a receiver thread blocks in `read` and stamps a
//! response's arrival when its bytes are read. (A read timeout cannot
//! stand in for the sleep: Linux rounds socket timeouts up to scheduler
//! ticks of several milliseconds.) Each update's round trip is charged
//! from its scheduled instant, so a stall is charged to every update it
//! delays.
//!
//! After an unmeasured warm-up, the load runs at each rate of a ladder:
//! a reference rate, where the wall-clock round trips are read, and
//! higher rates. The sustained rate is the highest rung below the first
//! one that misses the latency limit or falls behind. The run spans
//! little simulated time, so few alarms fire. The trace and every
//! rung's schedule are made once, before any set-up, as [`Inputs`].

use crate::measure::{
    cpu_per_update, late_slowdown, percentile_sorted, CpuMarks, StepCost, WINDOWS,
};
use crate::spans::{self, span, Kind};
use crate::world::{start_server, verify, Rng};
use crate::Episode;
use sa_alarms::{AlarmId, SubscriberId};
use sa_roadnet::Fleet;
use sa_server::netfront::FrameReader;
use sa_server::wire::{
    frame, pack_motion, quantize_m, BatchedUpdate, Request, Response, StrategySpec,
};
use sa_server::{Reactor, ReactorConfig, Server};
use sa_sim::{FiredEvent, SimulationHarness};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet and alarm scale (`SimulationConfig::paper_fraction`).
pub const SCALE: f64 = 0.1;

/// The subscribers' strategy.
pub const STRATEGY: StrategySpec = StrategySpec::Pbsr { height: 3 };

/// The reference rate, in updates per second: the wall-clock round
/// trips and rate are read there.
pub const REFERENCE_RATE: f64 = 2_000.0;

/// The rate whose process CPU per update is reported: the reactor's
/// worker is rarely idle there, so the figure is work per update rather
/// than idle polling spread over few updates.
pub const CPU_RATE: f64 = 256_000.0;

/// The measured rungs, in the order they run: offered updates per
/// second and share of `--seconds`. The CPU rung runs first, straight
/// after the warm-up. Every rung runs, so each run does the same work.
pub const RUNGS: [(f64, f64); 4] = [
    (CPU_RATE, 0.4),
    (REFERENCE_RATE, 0.3),
    (16_000.0, 0.1),
    (64_000.0, 0.2),
];

/// The round-trip p99 a rung must meet to count as sustained, in µs —
/// the limit the repository's `live_tcp` gate uses.
pub const P99_LIMIT_US: u64 = 250_000;

/// A rung keeps up when it completes at this share of its offered rate.
pub const KEEP_UP: f64 = 0.95;

/// The unmeasured warm-up before the reference rate: its rate and
/// length in seconds. A fresh process runs its first second of load
/// several times slower (page faults, cold caches); the warm-up keeps
/// that out of every measured rung.
const WARM_UP: (f64, f64) = (64_000.0, 1.0);

/// An aggregator flushes the updates scheduled within each tick of this
/// length as one frame when the tick ends.
const TICK_NS: u64 = 1_000_000;

/// Most updates per frame.
const MAX_FRAME_ENTRIES: usize = 256;

/// Frames a connection may have unanswered. Bounds the replies the
/// reactor can queue for one connection well under its write
/// watermark, so the reactor never stops reading a generator that is
/// itself blocked writing.
const MAX_IN_FLIGHT: usize = 8;

/// One rate of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered updates per second.
    pub rate: f64,
    /// The trace steps whose samples it sends.
    pub steps: Range<u32>,
    /// An unmeasured warm-up rung.
    pub warm_up: bool,
}

/// Process CPU marks taken as a rung's replies come in: window `k` ends
/// when the `k`-th sixteenth of the rung's updates has been answered, so
/// CPU is charged to the updates it completed even when the server
/// falls behind the schedule.
struct CompletionWindows {
    total: u64,
    answered: AtomicU64,
    /// Updates answered at each boundary.
    counts: [AtomicU64; WINDOWS + 1],
    marks: CpuMarks,
}

impl CompletionWindows {
    fn new(total: u64) -> CompletionWindows {
        CompletionWindows {
            total,
            answered: AtomicU64::new(0),
            counts: Default::default(),
            marks: CpuMarks::default(),
        }
    }

    /// Records `n` more answered updates, marking each boundary crossed.
    fn answered(&self, n: u64) {
        let before = self.answered.fetch_add(n, Ordering::Relaxed);
        for k in 1..WINDOWS {
            let boundary = self.total * k as u64 / WINDOWS as u64;
            if before < boundary && boundary <= before + n {
                self.marks.mark(k);
                self.counts[k].store(before + n, Ordering::Relaxed);
            }
        }
    }

    /// Updates answered in each window.
    fn updates(&self) -> Vec<u64> {
        self.counts[WINDOWS].store(self.total, Ordering::Relaxed);
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        counts
            .windows(2)
            .map(|w| w[1].saturating_sub(w[0]))
            .collect()
    }
}

/// The rungs of a run measuring about `seconds` seconds over `vehicles`
/// subscribers: the warm-up, the reference rate, then the ladder.
pub fn plan(vehicles: usize, seconds: f64) -> Vec<Rung> {
    let durations =
        std::iter::once(WARM_UP).chain(RUNGS.iter().map(|&(rate, share)| (rate, share * seconds)));
    let mut next = 0u32;
    durations
        .enumerate()
        .map(|(i, (rate, secs))| {
            let steps = ((rate * secs / vehicles as f64).ceil() as u32).max(1);
            next += steps;
            Rung {
                rate,
                steps: next - steps..next,
                warm_up: i == 0,
            }
        })
        .collect()
}

/// What one rung measured.
#[derive(Debug, Clone, Default)]
pub struct RungOutcome {
    /// Offered updates per second.
    pub rate: f64,
    /// Updates sent.
    pub updates: u64,
    /// Updates per second completed: updates over the time from the
    /// rung's start to its last reply.
    pub achieved: f64,
    /// Updates per second offered by the drawn schedule.
    pub offered: f64,
    /// Exact p50 and p99 round trip, in ns (0 when too few samples).
    pub p50_ns: u64,
    /// See `p50_ns`.
    pub p99_ns: u64,
    /// Whether the rung met the latency limit and kept up.
    pub sustained: bool,
}

/// One scheduled update.
#[derive(Debug, Clone, Copy)]
struct Event {
    at_ns: u64,
    vehicle: u32,
    step: u32,
}

/// One frame the aggregator sends: the updates scheduled within one
/// tick, flushed when the tick ends.
#[derive(Debug, Clone)]
struct Frame {
    flush_ns: u64,
    events: Vec<Event>,
}

/// The inputs of a run, made once before any set-up and used by every
/// episode: the trace as wire fields, each rung's frames, and the
/// receiver's record.
pub struct Inputs {
    vehicles: usize,
    /// `[x, y, motion]` of vehicle `v` at step `s`, at `s * vehicles + v`.
    positions: Vec<[u32; 3]>,
    rungs: Vec<(Rung, Vec<Frame>)>,
    record: Mutex<Record>,
}

/// The receiver's per-update record. It is sized for the largest rung
/// and written through once when the inputs are made, so its memory is
/// counted with the inputs rather than in the run's peak.
#[derive(Debug, Default)]
struct Record {
    /// Round trip of each update from its scheduled send, in ns.
    rtt_ns: Vec<u64>,
    /// The trace step of each update, in the order of `rtt_ns`.
    steps: Vec<u32>,
}

impl Record {
    fn with_capacity(updates: usize) -> Record {
        let mut record = Record {
            rtt_ns: vec![1; updates],
            steps: vec![1; updates],
        };
        record.clear();
        record
    }

    fn clear(&mut self) {
        self.rtt_ns.clear();
        self.steps.clear();
    }
}

/// Pre-rolls the harness's fleet over every step of `rungs` and draws
/// each rung's Poisson schedule from `seed`.
pub fn inputs(harness: &SimulationHarness, rungs: &[Rung], seed: u64) -> Inputs {
    let vehicles = harness.config().fleet.vehicles;
    let total_steps = rungs.last().map_or(0, |r| r.steps.end);
    let mut fleet = Fleet::new(harness.network(), &harness.config().fleet);
    let mut samples = Vec::new();
    let dt = harness.config().sample_period_s;
    let mut positions = vec![[0u32; 3]; total_steps as usize * vehicles];
    for row in positions.chunks_mut(vehicles.max(1)) {
        fleet.step_into(dt, &mut samples);
        for s in &samples {
            row[s.vehicle.0 as usize] = [
                quantize_m(s.pos.x),
                quantize_m(s.pos.y),
                pack_motion(s.heading, s.speed),
            ];
        }
    }
    let mut rng = Rng::new(seed, 4);
    let rungs: Vec<(Rung, Vec<Frame>)> = rungs
        .iter()
        .map(|rung| (rung.clone(), frames_of(&schedule(rung, vehicles, &mut rng))))
        .collect();
    let largest = rungs.iter().map(|(r, _)| r.steps.len() * vehicles).max();
    Inputs {
        vehicles,
        positions,
        rungs,
        record: Mutex::new(Record::with_capacity(largest.unwrap_or(0))),
    }
}

/// Draws a rung's Poisson schedule: one event per vehicle per step,
/// vehicles in a fresh random order each step.
fn schedule(rung: &Rung, vehicles: usize, rng: &mut Rng) -> Vec<Event> {
    let mut events = Vec::with_capacity(rung.steps.len() * vehicles);
    let mut order: Vec<u32> = (0..vehicles as u32).collect();
    // A short lead so both generator threads are running before the
    // first send.
    let mut t_ns = 1_000_000.0;
    for step in rung.steps.clone() {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &vehicle in &order {
            t_ns += -rng.unit().ln() / rung.rate * 1e9;
            events.push(Event {
                at_ns: t_ns as u64,
                vehicle,
                step,
            });
        }
    }
    events
}

/// Groups the events by tick. A frame holds at most
/// [`MAX_FRAME_ENTRIES`] updates and at most one per session, so a
/// session's updates reach the server in order. Framing follows the
/// schedule alone, never the sender's timing, so every run of a seed
/// sends the same frames.
fn frames_of(events: &[Event]) -> Vec<Frame> {
    let mut frames: Vec<Frame> = Vec::new();
    for &ev in events {
        let flush_ns = (ev.at_ns / TICK_NS + 1) * TICK_NS;
        match frames.last_mut() {
            Some(f)
                if f.flush_ns == flush_ns
                    && f.events.len() < MAX_FRAME_ENTRIES
                    && f.events.iter().all(|e| e.vehicle != ev.vehicle) =>
            {
                f.events.push(ev);
            }
            _ => frames.push(Frame {
                flush_ns,
                events: vec![ev],
            }),
        }
    }
    frames
}

/// The set-up state: a server with every session open, the reactor
/// bound on loopback, and the generator's connection dialled.
pub struct Setup {
    /// The server under test.
    pub server: Arc<Server>,
    reactor: Reactor,
    conn: TcpStream,
    sessions: Vec<u32>,
}

/// Starts the server and a one-worker reactor, opens one session per
/// subscriber (`Server::open_session` and `Hello`), and dials the
/// generator's connection.
///
/// # Errors
///
/// Fails when a `Hello` is refused or a socket operation fails.
pub fn setup(harness: &SimulationHarness) -> Result<Setup, String> {
    let server = start_server(harness);
    let mut out = Vec::new();
    let sessions = (0..harness.config().fleet.vehicles as u32)
        .map(|user| {
            let session = server.open_session();
            out.clear();
            server.handle_into(
                session,
                Request::Hello {
                    seq: 0,
                    user,
                    strategy: STRATEGY,
                },
                &mut out,
            );
            match out.as_slice() {
                [Response::Ack { .. }] => Ok(session),
                other => Err(format!("hello of subscriber {user} was refused: {other:?}")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    };
    let reactor = Reactor::bind(Arc::clone(&server), cfg).map_err(|e| format!("bind: {e}"))?;
    let conn = TcpStream::connect(reactor.addr())
        .and_then(|c| c.set_nodelay(true).map(|()| c))
        .map_err(|e| format!("dial the reactor: {e}"))?;
    Ok(Setup {
        server,
        reactor,
        conn,
        sessions,
    })
}

/// Runs every rung of `inputs` on a fresh [`Setup`] and checks every
/// firing against the ground truth.
///
/// # Errors
///
/// Fails on a socket or protocol error, a refused update or a
/// ground-truth divergence.
pub fn run(
    harness: &SimulationHarness,
    setup: Setup,
    inputs: &Inputs,
    stride: u64,
) -> Result<(Episode, Vec<RungOutcome>), String> {
    let Setup {
        server,
        mut reactor,
        mut conn,
        sessions,
    } = setup;
    if sessions.len() != inputs.vehicles {
        return Err("the inputs were made for another fleet".into());
    }
    let total_steps = inputs.rungs.last().map_or(0, |(r, _)| r.steps.end);
    let origin = Instant::now();
    let mut ep = Episode {
        trace_offset_ns: server.clock().now_ns(),
        ..Episode::default()
    };
    let mut record = inputs.record.lock().map_err(|_| "the record is poisoned")?;
    let mut reader = conn
        .try_clone()
        .and_then(|r| r.set_read_timeout(Some(REPLY_TIMEOUT)).map(|()| r))
        .map_err(|e| format!("clone the connection: {e}"))?;
    let mut outcomes = Vec::new();
    for (rung, frames) in &inputs.rungs {
        let link = Link::default();
        let reference = !rung.warm_up && rung.rate == REFERENCE_RATE;
        let cpu_rung = !rung.warm_up && rung.rate == CPU_RATE;
        let windows = CompletionWindows::new(frames.iter().map(|f| f.events.len() as u64).sum());
        windows.marks.mark(0);
        let rung_origin = Instant::now();
        let ((sent, send_spans), (received, receive_spans)) = std::thread::scope(|scope| {
            let (conn, reader, record, link, windows, sessions) = (
                &mut conn,
                &mut reader,
                &mut *record,
                &link,
                &windows,
                &sessions,
            );
            let sender = scope.spawn(move || {
                spans::begin_thread(0, origin, stride);
                let out = send(conn, frames, inputs, sessions, rung_origin, link);
                (out, spans::end_thread())
            });
            let receiver = scope.spawn(move || {
                spans::begin_thread(1, origin, stride);
                let out = receive(reader, frames, sessions, rung_origin, record, link, windows);
                (out, spans::end_thread())
            });
            (
                sender.join().expect("sender thread panicked"),
                receiver.join().expect("receiver thread panicked"),
            )
        });
        windows.marks.mark(WINDOWS);
        let failed = |e| format!("generator failed at {} /s: {e}", rung.rate);
        let (sent, mut received) = (sent.map_err(failed)?, received.map_err(failed)?);
        ep.spans.merge(send_spans);
        ep.spans.merge(receive_spans);
        ep.fired.append(&mut received.fired);
        ep.attempted += sent.attempted;
        ep.failed += received.failed;
        ep.frames += sent.frames;
        ep.batch_entries += sent.attempted;
        ep.update_rtt_sum_ns += record.rtt_ns.iter().map(|&r| u128::from(r)).sum::<u128>();
        ep.clients.uplinks += sent.attempted - received.failed;
        ep.clients.region_installs += received.installs;
        ep.clients.bytes_up += sent.bytes_up;
        ep.clients.bytes_down += received.bytes_down;

        let updates = sent.attempted;
        let offered = updates as f64 * 1e9 / sent.last_at_ns.max(1) as f64;
        let achieved = updates as f64 * 1e9 / received.last_arrival_ns.max(1) as f64;
        if rung.warm_up {
            continue;
        }
        if reference {
            // Per-update cost in the open loop is the round trip itself.
            let costs: Vec<StepCost> = record
                .steps
                .iter()
                .zip(&record.rtt_ns)
                .map(|(&step, &rtt)| StepCost {
                    step: step - rung.steps.start,
                    wall_ns: rtt,
                    updates: 1,
                })
                .collect();
            ep.wall_late_slowdown = late_slowdown(&costs, rung.steps.len() as u32);
        }
        record.rtt_ns.sort_unstable();
        let p50 = percentile_sorted(&record.rtt_ns, 0.5).map_or(0, |p| p.value);
        let p99 = percentile_sorted(&record.rtt_ns, 0.99);
        let sustained =
            p99.is_some_and(|p| p.value <= P99_LIMIT_US * 1_000) && achieved >= KEEP_UP * offered;
        outcomes.push(RungOutcome {
            rate: rung.rate,
            updates,
            achieved,
            offered,
            p50_ns: p50,
            p99_ns: p99.map_or(0, |p| p.value),
            sustained,
        });
        if cpu_rung {
            ep.cpu = cpu_per_update(&windows.marks.window_ns(), &windows.updates());
        }
        if reference {
            ep.updates_per_s = achieved;
            ep.send_lag_ns = sent.lag_ns;
            ep.rtt_ns = record.rtt_ns.clone();
        }
    }
    ep.wall_s = origin.elapsed().as_secs_f64();
    outcomes.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    ep.sustained_rate_per_s = outcomes
        .iter()
        .take_while(|o| o.sustained)
        .last()
        .map_or(0.0, |o| o.achieved);
    ep.samples = u64::from(total_steps) * inputs.vehicles as u64;

    // Close the generator side and let the reactor reap it, so the
    // registry read below counts the close.
    drop((conn, reader, record));
    let deadline = Instant::now() + Duration::from_secs(2);
    while reactor.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    ep.registry = server.registry().snapshot();
    ep.server_spans = server.spans();
    reactor.shutdown();
    server.shutdown();
    if ep.failed > 0 {
        return Err(format!(
            "{} of {} updates were refused",
            ep.failed, ep.attempted
        ));
    }
    verify(harness, total_steps, &ep.fired).map_err(|e| format!("ground truth divergence: {e}"))?;
    Ok((ep, outcomes))
}

/// What the sender measured during one rung.
#[derive(Debug, Default)]
struct Sent {
    /// How late each frame left, in ns.
    lag_ns: Vec<u64>,
    attempted: u64,
    frames: u64,
    bytes_up: u64,
    /// Scheduled instant of the rung's last update.
    last_at_ns: u64,
}

/// What the receiver measured during one rung, beside its record.
#[derive(Debug, Default)]
struct Received {
    fired: Vec<FiredEvent>,
    failed: u64,
    installs: u64,
    bytes_down: u64,
    /// Arrival of the rung's last reply.
    last_arrival_ns: u64,
}

/// The state the sender and the receiver share.
#[derive(Debug, Default)]
struct Link {
    /// Frames answered so far.
    answered: AtomicUsize,
    /// Set by whichever side fails, so the other stops waiting.
    broken: AtomicBool,
}

/// Longest wait for a reply before the receiver gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The sender side of the connection (see the module docs).
fn send(
    stream: &mut TcpStream,
    frames: &[Frame],
    inputs: &Inputs,
    sessions: &[u32],
    origin: Instant,
    link: &Link,
) -> Result<Sent, String> {
    let out = send_frames(stream, frames, inputs, sessions, origin, link);
    if out.is_err() {
        link.broken.store(true, Ordering::Relaxed);
        let _ = stream.shutdown(Shutdown::Both);
    }
    out
}

fn send_frames(
    stream: &mut TcpStream,
    frames: &[Frame],
    inputs: &Inputs,
    sessions: &[u32],
    origin: Instant,
    link: &Link,
) -> Result<Sent, String> {
    let last_at_ns = frames
        .last()
        .and_then(|f| f.events.last())
        .map_or(0, |e| e.at_ns);
    let mut out = Sent {
        lag_ns: Vec::with_capacity(frames.len()),
        last_at_ns,
        ..Sent::default()
    };
    let now_ns = || origin.elapsed().as_nanos() as u64;
    for (seq, f) in (1..).zip(frames) {
        let now = loop {
            let now = now_ns();
            if f.flush_ns > now {
                std::thread::sleep(Duration::from_nanos(f.flush_ns - now));
            } else if out.frames as usize - link.answered.load(Ordering::Acquire) >= MAX_IN_FLIGHT {
                if link.broken.load(Ordering::Relaxed) {
                    return Err("the receiver failed".into());
                }
                std::thread::sleep(Duration::from_micros(20));
            } else {
                break now;
            }
        };
        out.lag_ns.push(now - f.flush_ns);
        let updates: Vec<BatchedUpdate> = f
            .events
            .iter()
            .map(|ev| {
                let at = ev.step as usize * inputs.vehicles + ev.vehicle as usize;
                let [x_fx, y_fx, motion] = inputs.positions[at];
                BatchedUpdate {
                    session: sessions[ev.vehicle as usize],
                    seq: ev.step + 1,
                    x_fx,
                    y_fx,
                    motion,
                }
            })
            .collect();
        out.attempted += updates.len() as u64;
        out.frames += 1;
        let written = span(Kind::Event, 0, || {
            let body = span(Kind::RequestEncode, 0, || {
                Request::Batch { seq, updates }.encode()
            });
            let framed = frame(&body);
            span(Kind::SocketWrite, 0, || stream.write_all(&framed)).map(|()| framed.len())
        })
        .map_err(|e| format!("write: {e}"))?;
        out.bytes_up += written as u64;
    }
    Ok(out)
}

/// The receiver side of the connection: reads each frame's reply, in
/// order, until every frame of the rung is answered, and records each
/// update's round trip in `record`.
fn receive(
    stream: &mut TcpStream,
    frames: &[Frame],
    sessions: &[u32],
    origin: Instant,
    record: &mut Record,
    link: &Link,
    windows: &CompletionWindows,
) -> Result<Received, String> {
    let out = receive_replies(stream, frames, sessions, origin, record, link, windows);
    if out.is_err() {
        link.broken.store(true, Ordering::Relaxed);
    }
    out
}

fn receive_replies(
    stream: &mut TcpStream,
    frames: &[Frame],
    sessions: &[u32],
    origin: Instant,
    record: &mut Record,
    link: &Link,
    windows: &CompletionWindows,
) -> Result<Received, String> {
    let mut out = Received::default();
    record.clear();
    let mut reader = FrameReader::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut arrived = 0u64;
    for (sent_seq, sent) in (1..).zip(frames) {
        let body = loop {
            if let Some(body) = reader
                .next_frame(arrived)
                .map_err(|e| format!("frame: {e:?}"))?
            {
                break body;
            }
            if link.broken.load(Ordering::Relaxed) {
                return Err("the sender failed".into());
            }
            let n = match span(Kind::SocketRead, 0, || stream.read(&mut buf)) {
                Ok(0) => return Err("the reactor closed the connection".into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            };
            arrived = origin.elapsed().as_nanos() as u64;
            reader.push(&buf[..n], arrived);
        };
        out.bytes_down += body.len() as u64 + 4;
        let resp = span(Kind::ResponseDecode, 0, || Response::decode(&body))
            .map_err(|e| format!("decode: {e}"))?;
        let Response::Batch {
            seq: echoed,
            replies,
        } = resp
        else {
            return Err(format!("expected a batch reply, got {resp:?}"));
        };
        if echoed != sent_seq || replies.len() != sent.events.len() {
            return Err("batch reply does not match its frame".into());
        }
        for (group, ev) in replies.into_iter().zip(&sent.events) {
            if group.session != sessions[ev.vehicle as usize] {
                return Err("batch reply session mismatch".into());
            }
            record.rtt_ns.push(arrived.saturating_sub(ev.at_ns));
            record.steps.push(ev.step);
            out.failed += u64::from(crate::transport::is_refusal(group.responses.last()));
            for resp in group.responses {
                match resp {
                    Response::TriggerDelivery { alarm, .. } => out.fired.push(FiredEvent {
                        subscriber: SubscriberId(ev.vehicle),
                        alarm: AlarmId(u64::from(alarm)),
                        step: ev.step,
                    }),
                    Response::BitmapInstall { .. } => out.installs += 1,
                    _ => {}
                }
            }
        }
        out.last_arrival_ns = arrived;
        windows.answered(sent.events.len() as u64);
        link.answered.fetch_add(1, Ordering::Release);
    }
    Ok(out)
}
