//! Open-loop load generator over real TCP sockets against the
//! readiness-driven reactor — the coordinated-omission-free tail-latency
//! bench (`BENCH_live_tcp.json`).
//!
//! Unlike the closed-loop replay drivers (which wait for each response
//! before sending the next request, so server stalls silently slow the
//! *offered* load), this generator precomputes a Poisson arrival
//! schedule at a fixed rate and sends each location update at its
//! scheduled instant whether or not earlier responses have arrived
//! (writes are pipelined per connection). RTT is measured from the
//! *scheduled* send time, so queueing delay the server causes is charged
//! to the server — the standard fix for coordinated omission (see
//! PERFORMANCE.md §5).
//!
//! Every trace sample is sent, every trigger delivery is recorded, and
//! the observed firings must match `sa_sim::GroundTruth` exactly — load
//! testing never excuses a wrong answer.
//!
//! Usage: `live_tcp [--scale F] [--steps N] [--rate R] [--workers W]
//! [--seed S] [--shards N] [--queue N] [--out PATH] [--check]
//! [--max-p99-ms MS]`

use sa_roadnet::Fleet;
use sa_server::netfront::{FrameReader, WriteQueue};
use sa_server::wire::{
    frame, pack_motion, quantize_m, read_frame, write_frame, Request, Response, StrategySpec,
};
use sa_server::{Reactor, ReactorConfig, Server, ServerConfig};
use sa_sim::{FiredEvent, SimulationConfig, SimulationHarness};
use std::fmt::Write as _;
use std::io::Read as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Opts {
    scale: f64,
    steps: u32,
    rate: f64,
    workers: usize,
    seed: u64,
    shards: usize,
    queue: usize,
    out: PathBuf,
    check: bool,
    max_p99_ms: f64,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        scale: 0.02,
        steps: 20,
        rate: 4_000.0,
        workers: 4,
        seed: 0x011F_E7C9,
        shards: 4,
        queue: 256,
        out: PathBuf::from("BENCH_live_tcp.json"),
        check: false,
        max_p99_ms: 250.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => opts.scale = value().parse().expect("--scale expects a float"),
            "--steps" => opts.steps = value().parse().expect("--steps expects an integer"),
            "--rate" => opts.rate = value().parse().expect("--rate expects a float"),
            "--workers" => opts.workers = value().parse().expect("--workers expects an integer"),
            "--seed" => opts.seed = value().parse().expect("--seed expects an integer"),
            "--shards" => opts.shards = value().parse().expect("--shards expects an integer"),
            "--queue" => opts.queue = value().parse().expect("--queue expects an integer"),
            "--out" => opts.out = PathBuf::from(value()),
            "--check" => opts.check = true,
            "--max-p99-ms" => {
                opts.max_p99_ms = value().parse().expect("--max-p99-ms expects a float");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: live_tcp [--scale F] [--steps N] [--rate R] [--workers W] \
                     [--seed S] [--shards N] [--queue N] [--out PATH] [--check] [--max-p99-ms MS]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(opts.steps > 0, "--steps must be positive");
    assert!(opts.rate > 0.0, "--rate must be positive");
    assert!(opts.workers > 0, "--workers must be positive");
    opts
}

/// One scheduled open-loop send: vehicle `conn` transmits its step-`step`
/// sample at `at_ns` (relative to the run's start anchor).
#[derive(Debug, Clone, Copy)]
struct Event {
    at_ns: u64,
    conn: u32,
    step: u32,
}

/// One request in flight on a connection, keyed by its wire sequence
/// number; responses per connection arrive in request order.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u32,
    scheduled_ns: u64,
}

/// Per-connection generator state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: WriteQueue,
    in_flight: std::collections::VecDeque<InFlight>,
    /// (alarm, step) deliveries observed on this connection.
    fired: Vec<(u64, u32)>,
}

/// What one worker thread brings back.
#[derive(Default)]
struct WorkerOutcome {
    /// (vehicle, alarm, step) firings.
    fired: Vec<(u32, u64, u32)>,
    /// RTTs measured from the scheduled arrival instant, in ns.
    rtt_ns: Vec<u64>,
    /// How late each send left relative to its schedule, in ns.
    send_lag_ns: Vec<u64>,
    overloads: u64,
    protocol_errors: u64,
}

/// Deterministic xorshift for the schedule (inter-arrival draws and the
/// per-step send-order shuffle) so two runs offer identical load.
struct Xor64(u64);

impl Xor64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 + f64::MIN_POSITIVE
    }
}

fn main() {
    let opts = parse_args();

    // Simulation world, trimmed to the requested number of steps.
    let mut config = SimulationConfig::scaled(opts.scale);
    config.duration_s = f64::from(opts.steps) * config.sample_period_s;
    let harness = SimulationHarness::build(&config);
    let vehicles = config.fleet.vehicles;
    let dt = config.sample_period_s;

    // Pre-roll the trace: positions[step][vehicle].
    let mut fleet = Fleet::new(harness.network(), &config.fleet);
    let mut trace: Vec<Vec<(f64, f64, f64, f64)>> = Vec::with_capacity(opts.steps as usize);
    let mut samples = Vec::new();
    for _ in 0..opts.steps {
        fleet.step_into(dt, &mut samples);
        let mut row = vec![(0.0, 0.0, 0.0, 0.0); vehicles];
        for s in &samples {
            row[s.vehicle.0 as usize] = (s.pos.x, s.pos.y, s.heading, s.speed);
        }
        trace.push(row);
    }

    // Server + reactor.
    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        ServerConfig { num_shards: opts.shards, queue_capacity: opts.queue },
    );
    let reactor_cfg = ReactorConfig {
        workers: 2,
        max_conns: vehicles + 16,
        ..ReactorConfig::default()
    };
    let mut reactor =
        Reactor::bind(Arc::clone(&server), reactor_cfg).expect("bind the reactor on loopback");
    let addr = reactor.addr();

    // Dial every connection and run the Hello handshake closed-loop (it
    // is session setup, not measured load), then flip to nonblocking for
    // the open-loop phase.
    let mut conns: Vec<Conn> = (0..vehicles as u32)
        .map(|v| {
            let mut stream = TcpStream::connect(addr).expect("dial the reactor");
            stream.set_nodelay(true).expect("set nodelay");
            let hello =
                Request::Hello { seq: 0, user: v, strategy: StrategySpec::Pbsr { height: 3 } };
            write_frame(&mut stream, &hello.encode()).expect("send Hello");
            let body = read_frame(&mut stream)
                .expect("read Hello ack")
                .expect("server must answer Hello");
            let resp = Response::decode(&body).expect("decode Hello ack");
            assert!(matches!(resp, Response::Ack { seq: 0 }), "unexpected Hello answer: {resp:?}");
            stream.set_nonblocking(true).expect("set nonblocking");
            Conn {
                stream,
                reader: FrameReader::new(),
                writer: WriteQueue::new(1 << 20),
                in_flight: std::collections::VecDeque::new(),
                fired: Vec::new(),
            }
        })
        .collect();

    // Poisson arrival schedule: exponential inter-arrivals at `rate`,
    // assigned to vehicles in a per-step-shuffled round-robin order.
    let mut rng = Xor64(opts.seed | 1);
    let mut schedule: Vec<Event> = Vec::with_capacity(opts.steps as usize * vehicles);
    let mut t_ns = 0u64;
    let mut order: Vec<u32> = (0..vehicles as u32).collect();
    for step in 0..opts.steps {
        // Fisher–Yates with the schedule RNG.
        for i in (1..order.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for &conn in &order {
            let gap_s = -rng.unit().ln() / opts.rate;
            t_ns += (gap_s * 1e9) as u64;
            schedule.push(Event { at_ns: t_ns, conn, step });
        }
    }
    let offered_duration_s = t_ns as f64 / 1e9;

    // Partition connections (and their events) across worker threads.
    let workers = opts.workers.min(vehicles);
    let mut worker_conns: Vec<Vec<(u32, Conn)>> = (0..workers).map(|_| Vec::new()).collect();
    for (v, conn) in conns.drain(..).enumerate() {
        worker_conns[v % workers].push((v as u32, conn));
    }
    let mut worker_events: Vec<Vec<Event>> = (0..workers).map(|_| Vec::new()).collect();
    for ev in &schedule {
        worker_events[ev.conn as usize % workers].push(*ev);
    }

    let started = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = worker_conns
            .drain(..)
            .zip(worker_events.drain(..))
            .map(|(conns, events)| {
                let trace = &trace;
                scope.spawn(move || drive_worker(conns, events, trace, started))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator worker")).collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    // Aggregate.
    let mut fired: Vec<FiredEvent> = Vec::new();
    let mut rtt_ns: Vec<u64> = Vec::new();
    let mut send_lag_ns: Vec<u64> = Vec::new();
    let mut overloads = 0u64;
    let mut protocol_errors = 0u64;
    for o in outcomes {
        fired.extend(o.fired.iter().map(|&(v, a, s)| FiredEvent {
            subscriber: sa_alarms::SubscriberId(v),
            alarm: sa_alarms::AlarmId(a),
            step: s,
        }));
        rtt_ns.extend(o.rtt_ns);
        send_lag_ns.extend(o.send_lag_ns);
        overloads += o.overloads;
        protocol_errors += o.protocol_errors;
    }

    // Percentiles through sa-obs, the same histogram machinery the
    // server-side RTT numbers use.
    let registry = sa_obs::Registry::new();
    let rtt_hist = registry.histogram("sa_live_rtt_ns");
    let lag_hist = registry.histogram("sa_live_send_lag_ns");
    for &v in &rtt_ns {
        rtt_hist.record(v);
    }
    for &v in &send_lag_ns {
        lag_hist.record(v);
    }
    let rtt = rtt_hist.snapshot();
    let lag = lag_hist.snapshot();

    // Ground truth: every update was sent, so the observed firings must
    // match the reference exactly (restricted to the driven prefix).
    let truth = harness.ground_truth();
    let expected = truth.events().iter().filter(|e| e.step < opts.steps).count();
    let verification = truth.verify_prefix(opts.steps, &fired);
    let divergence = verification.as_ref().err().cloned().unwrap_or_default();

    let degraded = reactor.degraded_admissions();
    reactor.shutdown();
    server.shutdown();

    let events = schedule.len();
    let p99_ms = rtt.p99 as f64 / 1e6;
    let achieved_rate = events as f64 / wall_seconds.max(1e-9);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"connections\": {vehicles},");
    let _ = writeln!(json, "  \"steps\": {},", opts.steps);
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(json, "  \"offered_rate_per_sec\": {:.3},", opts.rate);
    let _ = writeln!(json, "  \"offered_duration_seconds\": {offered_duration_s:.6},");
    let _ = writeln!(json, "  \"achieved_rate_per_sec\": {achieved_rate:.3},");
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.6},");
    let _ = writeln!(json, "  \"rtt_ns\": {{");
    let _ = writeln!(json, "    \"p50\": {},", rtt.p50);
    let _ = writeln!(json, "    \"p90\": {},", rtt.p90);
    let _ = writeln!(json, "    \"p99\": {},", rtt.p99);
    let _ = writeln!(json, "    \"max\": {},", rtt.max);
    let _ = writeln!(json, "    \"count\": {}", rtt.count);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"send_lag_ns\": {{");
    let _ = writeln!(json, "    \"p50\": {},", lag.p50);
    let _ = writeln!(json, "    \"p99\": {},", lag.p99);
    let _ = writeln!(json, "    \"max\": {}", lag.max);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"expected_firings\": {expected},");
    let _ = writeln!(json, "  \"observed_firings\": {},", fired.len());
    let _ = writeln!(json, "  \"ground_truth_divergent\": {},", verification.is_err());
    let _ = writeln!(json, "  \"overloads\": {overloads},");
    let _ = writeln!(json, "  \"protocol_errors\": {protocol_errors},");
    let _ = writeln!(json, "  \"degraded_admissions\": {degraded}");
    json.push_str("}\n");
    std::fs::write(&opts.out, &json).expect("writing the benchmark report");

    println!(
        "live_tcp: {vehicles} conns × {} steps = {events} events at {:.0}/s offered \
         ({achieved_rate:.0}/s achieved) in {wall_seconds:.2}s: \
         rtt p50={}ns p99={}ns ({p99_ms:.2}ms), {}/{} firings, \
         {overloads} overloads, {degraded} degraded admissions → {}",
        opts.steps,
        opts.rate,
        rtt.p50,
        rtt.p99,
        fired.len(),
        expected,
        opts.out.display()
    );

    if verification.is_err() {
        eprintln!("GROUND TRUTH DIVERGENCE:\n{divergence}");
    }
    if opts.check {
        let mut failed = false;
        if p99_ms > opts.max_p99_ms {
            eprintln!("CHECK FAILED: rtt p99 {p99_ms:.2}ms > {:.2}ms", opts.max_p99_ms);
            failed = true;
        }
        if verification.is_err() {
            eprintln!("CHECK FAILED: observed firings diverge from ground truth");
            failed = true;
        }
        if protocol_errors > 0 {
            eprintln!("CHECK FAILED: {protocol_errors} protocol errors");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: p99 {p99_ms:.2}ms <= {:.2}ms, zero divergence", opts.max_p99_ms);
    }
}

/// Runs one worker's connections through its slice of the schedule.
fn drive_worker(
    mut conns: Vec<(u32, Conn)>,
    events: Vec<Event>,
    trace: &[Vec<(f64, f64, f64, f64)>],
    started: Instant,
) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    // conn id -> slot index.
    let slot: std::collections::HashMap<u32, usize> =
        conns.iter().enumerate().map(|(i, (v, _))| (*v, i)).collect();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0usize;

    loop {
        let now_ns = started.elapsed().as_nanos() as u64;

        // Dispatch every due event: open loop — never wait for responses.
        while next < events.len() && events[next].at_ns <= now_ns {
            let ev = events[next];
            next += 1;
            let (x, y, heading, speed) = trace[ev.step as usize][ev.conn as usize];
            let seq = ev.step + 1;
            let req = Request::LocationUpdate {
                seq,
                x_fx: quantize_m(x),
                y_fx: quantize_m(y),
                motion: pack_motion(heading, speed),
            };
            let conn = &mut conns[slot[&ev.conn]].1;
            conn.writer.push_frame(frame(&req.encode()).to_vec());
            conn.in_flight.push_back(InFlight { seq, scheduled_ns: ev.at_ns });
            out.send_lag_ns.push(now_ns.saturating_sub(ev.at_ns));
        }

        // Pump every connection: flush pending writes, drain responses.
        let mut in_flight_total = 0usize;
        for (vehicle, conn) in &mut conns {
            if !conn.writer.is_empty() {
                conn.writer.write_some(&mut conn.stream).expect("write to the reactor");
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => panic!("reactor closed connection {vehicle} mid-run"),
                    Ok(n) => {
                        let arrived_ns = started.elapsed().as_nanos() as u64;
                        conn.reader.push(&buf[..n], arrived_ns);
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("read from the reactor: {e}"),
                }
            }
            let done_ns = started.elapsed().as_nanos() as u64;
            while let Some(body) = conn.reader.next_frame(done_ns).expect("reactor frames are bounded") {
                let resp = Response::decode(&body).expect("decode server response");
                match resp {
                    Response::TriggerDelivery { seq, alarm } => {
                        conn.fired.push((u64::from(alarm), seq - 1));
                    }
                    resp if resp.is_terminal() => {
                        if matches!(resp, Response::Overloaded { .. }) {
                            out.overloads += 1;
                        }
                        if matches!(resp, Response::Error { .. }) {
                            out.protocol_errors += 1;
                        }
                        let echoed = match &resp {
                            Response::Ack { seq }
                            | Response::RectInstall { seq, .. }
                            | Response::BitmapInstall { seq, .. }
                            | Response::AlarmPush { seq, .. }
                            | Response::Overloaded { seq }
                            | Response::Error { seq, .. } => Some(*seq),
                            _ => None,
                        };
                        match conn.in_flight.pop_front() {
                            Some(inflight) => {
                                if echoed.is_some_and(|s| s != inflight.seq) {
                                    out.protocol_errors += 1;
                                }
                                // Coordinated-omission-free: measured from
                                // the scheduled arrival, not the send.
                                out.rtt_ns.push(done_ns.saturating_sub(inflight.scheduled_ns));
                            }
                            None => out.protocol_errors += 1,
                        }
                    }
                    _ => out.protocol_errors += 1,
                }
            }
            in_flight_total += conn.in_flight.len();
        }

        if next >= events.len() && in_flight_total == 0 {
            break;
        }
        // Sleep to the earlier of: next scheduled event, a short poll
        // tick (responses may still be in flight).
        let now_ns = started.elapsed().as_nanos() as u64;
        let wait_ns = if next < events.len() {
            events[next].at_ns.saturating_sub(now_ns).min(200_000)
        } else {
            200_000
        };
        if wait_ns > 10_000 {
            std::thread::sleep(Duration::from_nanos(wait_ns));
        }
    }

    for (vehicle, conn) in conns {
        for (alarm, step) in conn.fired {
            out.fired.push((vehicle, alarm, step));
        }
    }
    out
}
