//! Alarm writes: `InstallAlarm` / `RemoveAlarm` through
//! `Server::handle_into`.
//!
//! The writer's alarms are private and owned by a subscriber id outside
//! every fleet, so they never fire and never enter a fleet client's
//! safe region: the fleet's ground truth stays exact. Each write still
//! publishes a snapshot generation, bumps the epochs of the cells it
//! touches and, every few writes, forces an index merge. Ids are dense,
//! as the protocol requires: installs continue after the world's
//! alarms, and a remove retires the oldest live writer alarm.

use crate::cpu;
use crate::spans::{span, Kind};
use crate::world::Rng;
use sa_geometry::{Point, Rect};
use sa_server::wire::{Request, Response, StrategySpec};
use sa_server::{quantize_rect, Server};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The subscriber that owns every writer alarm; no fleet reaches it.
pub(crate) const WRITER_OWNER: u32 = 0x3FFF_FFF0;

/// Writer alarms kept alive at once; beyond it, writes alternate
/// between removing the oldest and installing a new one.
const LIVE_ALARMS: usize = 16;

/// Latencies of the writes one writer made.
#[derive(Debug, Clone, Default)]
pub struct WriteLog {
    /// Per write, from its start to its reply, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// CPU time of the writing thread per write, in nanoseconds.
    pub cpu_ns: Vec<u64>,
    /// Writes that were not acknowledged.
    pub refused: u64,
}

impl WriteLog {
    fn record(&mut self, latency_ns: u64, cpu_ns: u64, acked: bool) {
        self.latency_ns.push(latency_ns);
        self.cpu_ns.push(cpu_ns);
        self.refused += u64::from(!acked);
    }
}

/// One writer session.
pub(crate) struct Writer {
    session: u32,
    seq: u32,
    next_id: u32,
    live: VecDeque<u32>,
    rng: Rng,
    universe: Rect,
    out: Vec<Response>,
}

impl Writer {
    /// Opens the writer's session. `first_id` is the number of alarms
    /// the server already holds.
    pub(crate) fn open(server: &Server, first_id: u32, seed: u64) -> Result<Writer, String> {
        let session = server.open_session();
        let mut out = Vec::new();
        let hello = Request::Hello {
            seq: 0,
            user: WRITER_OWNER,
            strategy: StrategySpec::Mwpsr,
        };
        server.handle_into(session, hello, &mut out);
        if !matches!(out.as_slice(), [Response::Ack { .. }]) {
            return Err(format!("writer hello was not acknowledged: {out:?}"));
        }
        Ok(Writer {
            session,
            seq: 0,
            next_id: first_id,
            live: VecDeque::new(),
            rng: Rng::new(seed, 3),
            universe: server.grid().universe(),
            out,
        })
    }

    fn random_rect(&mut self) -> Rect {
        let half = 50.0 + 200.0 * self.rng.unit();
        let u = self.universe;
        let x = u.min_x() + half + (u.width() - 2.0 * half) * self.rng.unit();
        let y = u.min_y() + half + (u.height() - 2.0 * half) * self.rng.unit();
        Rect::centered_square(Point::new(x, y), half).expect("positive extent")
    }

    /// Makes one write and returns whether it was acknowledged.
    pub(crate) fn write(&mut self, server: &Server) -> bool {
        self.seq += 1;
        let seq = self.seq;
        let (kind, req) = if self.live.len() >= LIVE_ALARMS {
            let alarm = self.live.pop_front().expect("live set is full");
            (Kind::RemoveAlarm, Request::RemoveAlarm { seq, alarm })
        } else {
            let alarm = self.next_id;
            self.next_id += 1;
            self.live.push_back(alarm);
            let rect = quantize_rect(self.random_rect());
            (
                Kind::InstallAlarm,
                Request::InstallAlarm {
                    seq,
                    alarm,
                    flags: WRITER_OWNER << 1,
                    rect,
                },
            )
        };
        self.out.clear();
        span(kind, 0, || {
            server.handle_into(self.session, req, &mut self.out)
        });
        matches!(self.out.as_slice(), [Response::Ack { seq: s }] if *s == seq)
    }
}

/// Writes as the fleet progresses: `due()` is the number of writes due
/// so far, and the writer parks until it grows. Once `stop` is set it
/// makes the writes still due and returns, so the number of writes
/// depends on the fleet's progress alone, not on how fast it ran.
pub(crate) fn churn(
    server: &Server,
    first_id: u32,
    seed: u64,
    due: impl Fn() -> u64,
    stop: &AtomicBool,
) -> Result<WriteLog, String> {
    let mut writer = Writer::open(server, first_id, seed)?;
    let mut log = WriteLog::default();
    let mut done = 0u64;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        while done < due() {
            let (started, cpu) = (Instant::now(), cpu::thread_ns());
            let acked = span(Kind::Event, 0, || writer.write(server));
            log.record(
                started.elapsed().as_nanos() as u64,
                cpu::thread_ns() - cpu,
                acked,
            );
            done += 1;
        }
        if stopping {
            return Ok(log);
        }
        std::thread::park_timeout(Duration::from_millis(1));
    }
}
