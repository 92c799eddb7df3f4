//! Soak test for the readiness-driven TCP front end: hundreds of
//! connections churning through connect/misbehave/disconnect cycles
//! while a fault-injected truth cohort replays the smoke trace over the
//! same reactor — asserting that the server leaks nothing (file
//! descriptors, sessions, reactor connections all return to baseline)
//! and that every firing still matches the simulator's ground truth
//! exactly.
//!
//! The duration is CI-scaled: `SA_SOAK_SECS` (default 3) controls how
//! long the churn runs; the nightly workflow sets it to 30.
//!
//! The whole file is ONE `#[test]` on purpose: the fd-leak check counts
//! `/proc/self/fd`, which is process-global, so a second concurrent
//! test would race the baseline.

use sa_server::{
    Client, FaultLeg, FaultPlan, FaultyTransport, Reactor, ReactorConfig, ResiliencePolicy,
    Server, ServerConfig, StrategySpec, TcpTransport,
};
use sa_sim::{SimulationConfig, SimulationHarness};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open file descriptors of this process (Linux only; elsewhere the fd
/// leg of the soak degrades to a no-op).
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

fn soak_secs() -> u64 {
    std::env::var("SA_SOAK_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Number of sockets each churn wave holds open concurrently.
const WAVE_CONNS: usize = 512;
/// Steps of the smoke trace each truth round replays.
const ROUND_STEPS: u32 = 30;

/// One truth round: fresh fault-wrapped TCP clients replay the first
/// [`ROUND_STEPS`] steps of the smoke trace and must observe exactly
/// the ground-truth firings despite drops, duplicates, and a
/// disconnect window.
///
/// Alarms fire **once per (subscriber, alarm) for the server's whole
/// lifetime** — the fired set deliberately survives session churn so a
/// reconnect can never double-fire (DESIGN.md S11). The first round
/// therefore expects the exact ground-truth sequence; every later
/// round re-runs the same subscribers against the same server and must
/// observe *zero* firings — any delivery would be an exactly-once
/// violation across the reconnect boundary.
fn truth_round(
    harness: &SimulationHarness,
    addr: std::net::SocketAddr,
    round: u64,
) -> Result<(), String> {
    let config = harness.config();
    let dt = config.sample_period_s;
    let plan = FaultPlan {
        seed: 0x50A4 ^ round,
        up: FaultLeg { drop: 0.05, duplicate: 0.02, delay: 0.0, max_delay: Duration::ZERO },
        down: FaultLeg { drop: 0.05, duplicate: 0.02, delay: 0.0, max_delay: Duration::ZERO },
        disconnect_steps: std::iter::once(8..11).collect(),
    };
    let strategies =
        [StrategySpec::Pbsr { height: 3 }, StrategySpec::Mwpsr, StrategySpec::Opt];

    let mut controls = Vec::new();
    let mut clients: Vec<Client<FaultyTransport<TcpTransport>>> = (0..config.fleet.vehicles
        as u32)
        .map(|v| {
            let inner = TcpTransport::connect(addr).expect("dial the reactor");
            let transport =
                FaultyTransport::new(inner, plan.clone(), u64::from(v) ^ (round << 8));
            controls.push(transport.controls());
            let mut client = Client::connect(
                transport,
                sa_alarms::SubscriberId(v),
                strategies[v as usize % strategies.len()],
                harness.grid().clone(),
                dt,
            )
            .expect("hello over the reactor");
            client.enable_resilience(ResiliencePolicy::standard(plan.seed ^ u64::from(v)));
            client
        })
        .collect();
    for c in &controls {
        c.set_armed(true);
    }

    let dbg = std::env::var("SA_SOAK_DEBUG").is_ok();
    let mut fleet = sa_roadnet::Fleet::new(harness.network(), &config.fleet);
    let mut samples = Vec::new();
    let mut was_down = false;
    for step in 0..ROUND_STEPS {
        if dbg {
            eprintln!("dbg truth round {round} step {step}");
        }
        let down = plan.disconnected_at(step);
        if down != was_down {
            for c in &controls {
                c.set_link_down(down);
            }
            was_down = down;
        }
        fleet.step_into(dt, &mut samples);
        for s in &samples {
            clients[s.vehicle.0 as usize]
                .observe(step, s.pos, s.heading, s.speed)
                .map_err(|e| format!("round {round} step {step}: {e:?}"))?;
        }
    }
    for c in &controls {
        c.set_link_down(false);
        c.set_armed(false);
    }
    let mut fired = Vec::new();
    for client in &mut clients {
        client.finish().map_err(|e| format!("round {round} drain: {e:?}"))?;
        fired.extend(client.take_fired());
    }

    // Everything fires in round 0; afterwards the server-lifetime fired
    // set must suppress every re-delivery, so the expected prefix is
    // empty.
    let prefix = if round == 0 { ROUND_STEPS } else { 0 };
    harness
        .ground_truth()
        .verify_prefix(prefix, &fired)
        .map_err(|e| format!("round {round}: {e}"))
}

/// One churn wave: open [`WAVE_CONNS`] raw sockets, report the peak
/// concurrency the reactor saw, then misbehave in three flavours —
/// clean Hello handshake, oversized-frame garbage, half-frame stall —
/// hold long enough for the slow-loris reaper to fire, and drop
/// everything.
fn churn_wave(reactor: &Reactor, addr: std::net::SocketAddr, max_open: &AtomicUsize) {
    let dbg = std::env::var("SA_SOAK_DEBUG").is_ok();
    if dbg {
        eprintln!("dbg churn wave start");
    }
    let mut socks: Vec<TcpStream> = (0..WAVE_CONNS)
        .map(|_| TcpStream::connect(addr).expect("churn dial"))
        .collect();
    if dbg {
        eprintln!("dbg churn wave connected");
    }

    // All held open, nothing sent yet: wait for the reactor's accept
    // loop to catch up so the peak-concurrency floor is provable.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = reactor.open_connections();
        max_open.fetch_max(open, Ordering::Relaxed);
        if open >= WAVE_CONNS || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    if dbg {
        eprintln!("dbg churn wave peak-polled open={}", reactor.open_connections());
    }
    for (i, sock) in socks.iter_mut().enumerate() {
        match i % 3 {
            0 => {
                // Legitimate session that will vanish without a Bye.
                let hello = sa_server::Request::Hello {
                    seq: 0,
                    user: 40_000 + i as u32,
                    strategy: StrategySpec::Pbsr { height: 2 },
                };
                sa_server::wire::write_frame(sock, &hello.encode()).expect("churn hello");
                let body = sa_server::wire::read_frame(sock)
                    .expect("churn hello ack")
                    .expect("reactor answers hello");
                let resp = sa_server::Response::decode(&body).expect("decode churn ack");
                assert!(
                    matches!(resp, sa_server::Response::Ack { seq: 0 }),
                    "churn hello answered with {resp:?}"
                );
            }
            1 => {
                // Oversized length prefix: closed as a protocol error.
                let _ = sock.write_all(&[0xFF; 8]);
            }
            _ => {
                // Half a frame, then silence: the slow-loris reaper's
                // problem now.
                let _ = sock.write_all(&64u32.to_be_bytes());
            }
        }
    }

    // Outlive the frame deadline so stalled half-frames get reaped
    // while we still hold the sockets.
    std::thread::sleep(Duration::from_millis(700));
    drop(socks);
}

#[test]
fn soak_churn_under_faults_leaks_nothing() {
    let config = SimulationConfig::smoke_test();
    let harness = SimulationHarness::build(&config);
    let server = Server::start(
        harness.grid().clone(),
        harness.index().alarms().to_vec(),
        harness.v_max(),
        ServerConfig { num_shards: 2, queue_capacity: 128 },
    );
    let reactor_cfg = ReactorConfig {
        workers: 2,
        max_conns: 2048,
        idle_timeout: Duration::from_secs(5),
        frame_deadline: Duration::from_millis(500),
        ..ReactorConfig::default()
    };
    let mut reactor =
        Reactor::bind(Arc::clone(&server), reactor_cfg).expect("bind the soak reactor");
    let addr = reactor.addr();

    // Baseline AFTER the runtime is up, BEFORE any client connects:
    // this is exactly the state the soak must return to.
    let fd_baseline = fd_count();
    assert_eq!(server.session_count(), 0);
    assert_eq!(reactor.open_connections(), 0);

    let soak_deadline = Instant::now() + Duration::from_secs(soak_secs());
    let stop = AtomicBool::new(false);
    let max_open = AtomicUsize::new(0);
    let waves = AtomicUsize::new(0);

    let rounds = std::thread::scope(|scope| {
        let churner = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                churn_wave(&reactor, addr, &max_open);
                waves.fetch_add(1, Ordering::Relaxed);
            }
        });

        // Truth rounds on this thread until the deadline (always at
        // least one, so a slow machine still verifies accuracy). A
        // failed round must stop the churner *before* panicking —
        // `scope` joins every thread on unwind, and the churner only
        // exits on the stop flag.
        let mut rounds = 0u64;
        let verdict = loop {
            if let Err(e) = truth_round(&harness, addr, rounds) {
                break Err(e);
            }
            rounds += 1;
            if Instant::now() >= soak_deadline {
                break Ok(());
            }
        };
        stop.store(true, Ordering::Relaxed);
        churner.join().expect("churn thread");
        verdict.expect("truth round");
        rounds
    });

    let waves = waves.load(Ordering::Relaxed);
    let max_open = max_open.load(Ordering::Relaxed);
    assert!(rounds >= 1, "no truth round completed");
    assert!(waves >= 1, "no churn wave completed");
    assert!(
        max_open >= 500,
        "peak reactor concurrency {max_open} never reached 500 connections"
    );

    // Quiesce: every churn socket is dropped and every truth client is
    // gone; the reactor must reap its way back to exactly zero.
    let deadline = Instant::now() + Duration::from_secs(20);
    while (reactor.open_connections() > 0 || server.session_count() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        reactor.open_connections(),
        0,
        "reactor still holds connections after the soak"
    );
    assert_eq!(server.session_count(), 0, "session table leaked sessions after the soak");

    // fd leak check: poll (close() of reaped sockets races the reaper
    // thread slightly) and then demand exact baseline equality.
    if fd_baseline > 0 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while fd_count() != fd_baseline && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let fd_end = fd_count();
        assert_eq!(
            fd_end, fd_baseline,
            "fd leak: {fd_baseline} fds at baseline, {fd_end} after the soak"
        );
    }

    // Every misbehaviour flavour actually happened.
    let snap = server.registry().snapshot();
    let closed = |reason: &str| {
        snap.counter("sa_net_closed_total", &[("reason", reason)]).unwrap_or(0)
    };
    assert!(closed("protocol") >= 1, "no protocol-error closes recorded");
    assert!(closed("slow_loris") >= 1, "no slow-loris reaps recorded");
    assert!(closed("eof") >= 1, "no clean EOF closes recorded");

    reactor.shutdown();
    server.shutdown();
    println!(
        "soak: {rounds} truth rounds, {waves} churn waves, peak {max_open} connections, \
         fd baseline {fd_baseline} restored"
    );
}
