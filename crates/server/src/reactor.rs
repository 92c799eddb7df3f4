//! A readiness-driven, non-blocking TCP front end.
//!
//! The server's one TCP front end. A thread-per-connection loop caps
//! out at a few hundred clients — every idle connection pins a parked
//! thread and its stack — so this module
//! multiplexes thousands of connections onto a small fixed pool of
//! worker threads with a hand-rolled readiness loop over nonblocking
//! [`std::net`] sockets (the repo vendors its dependencies; no tokio,
//! no epoll binding — a scan loop with a short idle sleep, which is
//! simple, portable, and fast enough that the shard queues, not the
//! front end, stay the bottleneck).
//!
//! Per connection the reactor keeps the two small state machines from
//! [`crate::netfront`]: a [`FrameReader`] reassembling length-prefixed
//! frames from arbitrarily split reads, and a [`WriteQueue`] with
//! partial-write resumption whose high watermark throttles *reading*
//! from that connection (responses are never dropped — TCP pushes the
//! backpressure to the client). Overload never refuses a session:
//! admission control ([`AdmissionController`]) degrades sessions
//! admitted under pressure to coarser safe regions instead, counted by
//! `sa_net_degraded_admissions_total` (see `DESIGN.md` S18 for the
//! soundness argument). Idle connections and slow-loris half-frames
//! are reaped on deadlines.
//!
//! All front-end metrics land in the server's own registry, so a
//! `Stats` scrape over any connection sees them:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `sa_net_open_connections` | gauge | currently open connections |
//! | `sa_net_accepted_total` | counter | connections accepted |
//! | `sa_net_closed_total{reason}` | counter | closes by cause |
//! | `sa_net_rx_frames_total` | counter | request frames decoded |
//! | `sa_net_tx_frames_total` | counter | response frames queued |
//! | `sa_net_degraded_admissions_total` | counter | sessions admitted coarse |

use crate::netfront::{AdmissionConfig, AdmissionController, FrameError, FrameReader, WriteQueue};
use crate::server::Server;
use crate::wire::{frame, Request, Response};
use sa_obs::{Counter, Gauge};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and policy knobs of a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads sharing the listener and the connections.
    pub workers: usize,
    /// Hard cap on simultaneously open connections; beyond it the
    /// listener backlog absorbs new dials until something closes.
    pub max_conns: usize,
    /// When new sessions are degraded instead of refused.
    pub admission: AdmissionConfig,
    /// Connections with no activity (no complete frame and no write
    /// progress) for this long are reaped.
    pub idle_timeout: Duration,
    /// A partial frame pending longer than this (measured from its
    /// *first* byte) is a slow loris; the connection is reaped.
    pub frame_deadline: Duration,
    /// Per-connection outbound backlog above which the reactor stops
    /// reading from that connection until the queue drains.
    pub write_high_watermark: usize,
    /// Bytes per `read()` call.
    pub read_chunk: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: 2,
            max_conns: 4096,
            admission: AdmissionConfig::default(),
            idle_timeout: Duration::from_secs(30),
            frame_deadline: Duration::from_secs(5),
            write_high_watermark: 256 * 1024,
            read_chunk: 16 * 1024,
        }
    }
}

/// Why a connection was closed — the `reason` label on
/// `sa_net_closed_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// The peer shut down the stream and every queued response was
    /// flushed.
    Eof,
    /// A socket error (reset, broken pipe).
    Io,
    /// The byte stream violated the protocol (oversized frame, a body
    /// that does not decode).
    Protocol,
    /// No activity (complete frame or write progress) for longer than
    /// the idle timeout.
    Idle,
    /// A half-frame outlived the frame deadline.
    SlowLoris,
    /// The reactor is shutting down.
    Shutdown,
}

impl CloseReason {
    fn index(self) -> usize {
        match self {
            CloseReason::Eof => 0,
            CloseReason::Io => 1,
            CloseReason::Protocol => 2,
            CloseReason::Idle => 3,
            CloseReason::SlowLoris => 4,
            CloseReason::Shutdown => 5,
        }
    }

    const LABELS: [&'static str; 6] =
        ["eof", "io", "protocol", "idle", "slow_loris", "shutdown"];
}

/// Pre-resolved front-end metric handles on the server's registry.
struct NetMeter {
    open: Gauge,
    accepted: Counter,
    closed: Vec<Counter>,
    rx_frames: Counter,
    tx_frames: Counter,
    degraded_admissions: Counter,
}

impl NetMeter {
    fn new(server: &Server) -> NetMeter {
        let registry = server.registry();
        NetMeter {
            open: registry.gauge("sa_net_open_connections"),
            accepted: registry.counter("sa_net_accepted_total"),
            closed: CloseReason::LABELS
                .iter()
                .map(|label| registry.counter_with("sa_net_closed_total", &[("reason", label)]))
                .collect(),
            rx_frames: registry.counter("sa_net_rx_frames_total"),
            tx_frames: registry.counter("sa_net_tx_frames_total"),
            degraded_admissions: registry.counter("sa_net_degraded_admissions_total"),
        }
    }
}

/// State shared by every worker thread.
struct Shared {
    server: Arc<Server>,
    listener: TcpListener,
    cfg: ReactorConfig,
    stop: AtomicBool,
    open: AtomicUsize,
    admission: AdmissionController,
    meter: NetMeter,
}

impl Shared {
    fn close_conn(&self, conn: Conn, reason: CloseReason) {
        // A session the client already tore down with `Bye` (or that
        // never said Hello) is simply absent — close is idempotent.
        self.server.close_session(conn.session);
        self.open.fetch_sub(1, Ordering::Relaxed);
        self.meter.open.dec();
        self.meter.closed[reason.index()].inc();
    }
}

/// One multiplexed connection: socket, half-frame reassembly, bounded
/// write backlog, and its server session.
struct Conn {
    stream: TcpStream,
    session: u32,
    reader: FrameReader,
    writer: WriteQueue,
    /// Last time the connection made protocol progress: a complete
    /// frame arrived, a write drained bytes, or the connection opened.
    /// Write progress counts because a read-throttled connection (over
    /// its write watermark) cannot produce frames while it slowly
    /// drains its backlog — reaping it as idle would drop the queued
    /// responses the protocol promises never to drop.
    last_activity_ns: u64,
    /// The peer half-closed; the connection dies once the writer drains.
    eof: bool,
    /// Reused response buffer for `handle_into`.
    responses: Vec<Response>,
}

impl Conn {
    fn new(stream: TcpStream, session: u32, now_ns: u64, watermark: usize) -> Conn {
        Conn {
            stream,
            session,
            reader: FrameReader::new(),
            writer: WriteQueue::new(watermark),
            last_activity_ns: now_ns,
            eof: false,
            responses: Vec::new(),
        }
    }

    /// One readiness pass: flush what the socket accepts, read what it
    /// has, process every complete frame. Returns whether any bytes
    /// moved, or the reason the connection must close.
    fn pump(&mut self, shared: &Shared, now_ns: u64, buf: &mut [u8]) -> Result<bool, CloseReason> {
        let mut worked = false;

        if !self.writer.is_empty() {
            match self.writer.write_some(&mut self.stream) {
                Ok(n) if n > 0 => {
                    worked = true;
                    self.last_activity_ns = now_ns;
                }
                Ok(_) => {}
                Err(_) => return Err(CloseReason::Io),
            }
        }

        // Backpressure: a connection over its write watermark is not
        // read from — its requests sit in the kernel buffer and, once
        // that fills, in the client's send path.
        if !self.eof && !self.writer.over_watermark() {
            loop {
                match self.stream.read(buf) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.reader.push(&buf[..n], now_ns);
                        worked = true;
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return Err(CloseReason::Io),
                }
            }
        }

        loop {
            match self.reader.next_frame(now_ns) {
                Ok(Some(body)) => {
                    self.last_activity_ns = now_ns;
                    self.process_frame(shared, &body, now_ns)?;
                    worked = true;
                }
                Ok(None) => break,
                Err(FrameError::Oversized { .. }) => return Err(CloseReason::Protocol),
            }
        }

        if !self.writer.is_empty() {
            match self.writer.write_some(&mut self.stream) {
                Ok(n) if n > 0 => {
                    worked = true;
                    self.last_activity_ns = now_ns;
                }
                Ok(_) => {}
                Err(_) => return Err(CloseReason::Io),
            }
        }

        if self.eof && self.writer.is_empty() {
            return Err(CloseReason::Eof);
        }
        Ok(worked)
    }

    /// Decodes one request frame, routes it through the server, and
    /// queues its response frames.
    fn process_frame(
        &mut self,
        shared: &Shared,
        body: &[u8],
        now_ns: u64,
    ) -> Result<(), CloseReason> {
        let clock = shared.server.clock();
        let decode_started_ns = clock.now_ns();
        let decoded = Request::decode(body);
        shared
            .server
            .metrics()
            .wire_decode
            .record_duration(clock.elapsed_since(decode_started_ns));
        let Ok(req) = decoded else { return Err(CloseReason::Protocol) };
        shared.meter.rx_frames.inc();

        // Admission control happens at Hello: decide *before* routing
        // (the open-connection count and overload recency are the
        // signal), apply the cap right after the session exists. Same
        // thread, so no request on this session can interleave.
        let degrade = matches!(req, Request::Hello { .. })
            && shared.admission.should_degrade(now_ns, shared.open.load(Ordering::Relaxed));

        self.responses.clear();
        shared.server.handle_into(self.session, req, &mut self.responses);

        if degrade
            && shared
                .server
                .degrade_session(self.session, shared.admission.config().degraded_pbsr_height)
        {
            shared.meter.degraded_admissions.inc();
        }

        for resp in self.responses.drain(..) {
            if matches!(resp, Response::Overloaded { .. }) {
                shared.admission.note_overload(now_ns);
            }
            let encode_started_ns = clock.now_ns();
            let bytes = frame(&resp.encode()).to_vec();
            shared
                .server
                .metrics()
                .wire_encode
                .record_duration(clock.elapsed_since(encode_started_ns));
            shared.meter.tx_frames.inc();
            self.writer.push_frame(bytes);
        }
        Ok(())
    }
}

/// A running front end: worker threads owning nonblocking connections,
/// all multiplexed onto one [`Server`].
///
/// Dropping the reactor shuts it down (stops accepting, closes every
/// connection, joins the workers). The [`Server`] itself is left
/// running — it may serve other transports.
pub struct Reactor {
    shared: Arc<Shared>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Binds `127.0.0.1:0` and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn bind(server: Arc<Server>, cfg: ReactorConfig) -> io::Result<Reactor> {
        Reactor::bind_addr(server, cfg, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Binds an explicit address — the restart path: a replacement
    /// reactor can take over the exact port a dead one served (std
    /// listeners set `SO_REUSEADDR` on unix, so lingering `TIME_WAIT`
    /// pairs from the previous incarnation do not block the bind).
    ///
    /// # Errors
    ///
    /// Propagates listener bind/configuration failures.
    pub fn bind_addr(
        server: Arc<Server>,
        cfg: ReactorConfig,
        addr: SocketAddr,
    ) -> io::Result<Reactor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let meter = NetMeter::new(&server);
        let admission = AdmissionController::new(cfg.admission);
        let shared = Arc::new(Shared {
            server,
            listener,
            cfg,
            stop: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            admission,
            meter,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sa-reactor-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn reactor worker")
            })
            .collect();
        Ok(Reactor { shared, addr, workers })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open across all workers.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// Sessions admitted at degraded (coarser-region) quality so far.
    pub fn degraded_admissions(&self) -> u64 {
        self.shared.meter.degraded_admissions.get()
    }

    /// Stops accepting, closes every connection (their sessions are
    /// removed from the server), and joins the workers. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The per-thread event loop: accept a burst, pump every owned
/// connection, reap the dead, sleep briefly when nothing moved.
fn worker_loop(shared: &Shared) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; shared.cfg.read_chunk.max(64)];
    let idle_ns = shared.cfg.idle_timeout.as_nanos() as u64;

    while !shared.stop.load(Ordering::SeqCst) {
        let mut worked = false;
        let now_ns = shared.server.clock().now_ns();

        // Accept burst. All workers share the nonblocking listener;
        // whoever polls first takes the connection.
        while shared.open.load(Ordering::Relaxed) < shared.cfg.max_conns {
            match shared.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let session = shared.server.open_session();
                    shared.open.fetch_add(1, Ordering::Relaxed);
                    shared.meter.open.inc();
                    shared.meter.accepted.inc();
                    conns.push(Conn::new(
                        stream,
                        session,
                        now_ns,
                        shared.cfg.write_high_watermark,
                    ));
                    worked = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        let mut i = 0;
        while i < conns.len() {
            let verdict = match conns[i].pump(shared, now_ns, &mut buf) {
                Err(reason) => Some(reason),
                Ok(moved) => {
                    worked |= moved;
                    let c = &conns[i];
                    if c.reader.stalled(now_ns, shared.cfg.frame_deadline) {
                        Some(CloseReason::SlowLoris)
                    } else if now_ns.saturating_sub(c.last_activity_ns) > idle_ns {
                        Some(CloseReason::Idle)
                    } else {
                        None
                    }
                }
            };
            match verdict {
                Some(reason) => {
                    let conn = conns.swap_remove(i);
                    shared.close_conn(conn, reason);
                    worked = true;
                }
                None => i += 1,
            }
        }

        if !worked {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    for conn in conns.drain(..) {
        shared.close_conn(conn, CloseReason::Shutdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::ServerConfig;
    use crate::transport::{TcpTransport, Transport};
    use crate::wire::StrategySpec;
    use sa_alarms::{AlarmId, AlarmScope, AlarmTarget, SpatialAlarm, SubscriberId};
    use sa_geometry::{Grid, Point, Rect};
    use std::io::Write as _;
    use std::net::TcpStream;

    fn tiny_server() -> Arc<Server> {
        let universe = Rect::new(0.0, 0.0, 3_000.0, 3_000.0).unwrap();
        let grid = Grid::new(universe, 1_000.0).unwrap();
        let alarm = SpatialAlarm::new(
            AlarmId(0),
            Rect::new(100.0, 100.0, 200.0, 200.0).unwrap(),
            AlarmTarget::Static(Point::new(150.0, 150.0)),
            AlarmScope::Private { owner: SubscriberId(7) },
        );
        Server::start(grid, vec![alarm], 30.0, ServerConfig::default())
    }

    fn reactor_cfg() -> ReactorConfig {
        ReactorConfig { workers: 2, ..ReactorConfig::default() }
    }

    /// Polls until `sa_net_closed_total{reason}` becomes nonzero (or the
    /// deadline passes) and returns its final value.
    fn wait_for_close(server: &Server, reason: &str, deadline: Duration) -> Option<u64> {
        let until = std::time::Instant::now() + deadline;
        loop {
            let count =
                server.registry().snapshot().counter("sa_net_closed_total", &[("reason", reason)]);
            if count.is_some_and(|c| c > 0) || std::time::Instant::now() >= until {
                return count;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn serves_the_blocking_transport_end_to_end() {
        let server = tiny_server();
        let mut reactor = Reactor::bind(Arc::clone(&server), reactor_cfg()).unwrap();
        let grid = server.grid().clone();

        let transport = TcpTransport::connect(reactor.addr()).unwrap();
        let mut client =
            Client::connect(transport, SubscriberId(7), StrategySpec::Pbsr { height: 3 }, grid, 1.0)
                .unwrap();
        // Walk into the alarm: the delivery must arrive over the reactor.
        let mut fired = 0;
        for (step, x) in (0..30u32).map(|s| (s, 10.0 + s as f64 * 10.0)) {
            client.observe(step, Point::new(x, 150.0), 0.0, 10.0).unwrap();
            fired = client.take_fired().len().max(fired);
        }
        client.finish().unwrap();
        assert!(fired > 0 || !client.take_fired().is_empty(), "alarm must fire over TCP");

        // Session cleanup: the client's Bye removed the session.
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.session_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.session_count(), 0, "session must be gone after Bye+close");
        reactor.shutdown();
        assert_eq!(reactor.open_connections(), 0);
        server.shutdown();
    }

    #[test]
    fn tcp_serves_frames_on_loopback() {
        let server = tiny_server();
        let mut reactor = Reactor::bind(Arc::clone(&server), reactor_cfg()).unwrap();
        let hello = |seq| Request::Hello { seq, user: 7, strategy: StrategySpec::Mwpsr };
        let mut a = TcpTransport::connect(reactor.addr()).unwrap();
        let mut b = TcpTransport::connect(reactor.addr()).unwrap();
        assert_eq!(a.request(hello(1)).unwrap(), vec![Response::Ack { seq: 1 }]);
        assert_eq!(b.request(hello(9)).unwrap(), vec![Response::Ack { seq: 9 }]);
        // Sessions are per-connection: both clients said Hello for user 7
        // but on distinct sessions, so each Bye only tears down its own.
        assert_eq!(a.request(Request::Bye { seq: 2 }).unwrap(), vec![Response::Ack { seq: 2 }]);
        assert_eq!(b.request(Request::Bye { seq: 10 }).unwrap(), vec![Response::Ack { seq: 10 }]);
        reactor.shutdown();
        server.shutdown();
    }

    #[test]
    fn overload_admissions_degrade_but_stay_protocol_transparent() {
        let server = tiny_server();
        let cfg = ReactorConfig {
            admission: AdmissionConfig {
                soft_session_cap: 0, // every admission is over cap
                ..AdmissionConfig::default()
            },
            ..reactor_cfg()
        };
        let mut reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();
        let grid = server.grid().clone();

        // A PBSR client asking for height 5 still works verbatim: the
        // server computes at the degraded cap and pads the encoding back
        // to height 5, so the client decodes with its own config.
        let transport = TcpTransport::connect(reactor.addr()).unwrap();
        let mut client =
            Client::connect(transport, SubscriberId(7), StrategySpec::Pbsr { height: 5 }, grid, 1.0)
                .unwrap();
        for (step, x) in (0..30u32).map(|s| (s, 10.0 + s as f64 * 10.0)) {
            client.observe(step, Point::new(x, 150.0), 0.0, 10.0).unwrap();
        }
        let fired = client.take_fired();
        client.finish().unwrap();
        assert_eq!(fired.len(), 1, "degraded session must still fire exactly once");
        assert!(reactor.degraded_admissions() >= 1, "admission must be counted as degraded");
        reactor.shutdown();
        server.shutdown();
    }

    #[test]
    fn slow_loris_half_frame_is_reaped() {
        let server = tiny_server();
        let cfg = ReactorConfig {
            frame_deadline: Duration::from_millis(50),
            ..reactor_cfg()
        };
        let reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();

        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        // A length prefix claiming 100 bytes, then silence.
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.flush().unwrap();
        assert_eq!(
            wait_for_close(&server, "slow_loris", Duration::from_secs(10)),
            Some(1),
            "close must be attributed to the slow-loris reaper"
        );
        assert_eq!(reactor.open_connections(), 0, "half-frame must be reaped");
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_reaped() {
        let server = tiny_server();
        let cfg = ReactorConfig {
            idle_timeout: Duration::from_millis(50),
            ..reactor_cfg()
        };
        let reactor = Reactor::bind(Arc::clone(&server), cfg).unwrap();
        let _stream = TcpStream::connect(reactor.addr()).unwrap();
        assert_eq!(
            wait_for_close(&server, "idle", Duration::from_secs(10)),
            Some(1),
            "idle connection must be reaped"
        );
        assert_eq!(reactor.open_connections(), 0);
        server.shutdown();
    }

    #[test]
    fn oversized_frame_closes_the_connection_as_protocol() {
        let server = tiny_server();
        let reactor = Reactor::bind(Arc::clone(&server), reactor_cfg()).unwrap();
        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        stream.write_all(&(crate::wire::MAX_FRAME_LEN as u32 + 1).to_be_bytes()).unwrap();
        stream.flush().unwrap();
        assert_eq!(wait_for_close(&server, "protocol", Duration::from_secs(10)), Some(1));
        server.shutdown();
    }
}
