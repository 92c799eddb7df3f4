//! The benchmark's own spans: one per timed public call into the
//! runtime, recorded from outside the program.
//!
//! Each driver thread owns a sink. A span's parent is the span open on
//! the same thread when it started (the step or the scheduled event at
//! the root), so self time — a span's duration minus the part its
//! children cover — falls out of a stack walk with no post-processing.
//! Every span feeds the per-kind totals; only the spans under every
//! `stride`-th root are kept as records for the trace file, which keeps
//! memory bounded on paper-scale runs. With spans off, [`span`] is one
//! relaxed load and a direct call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Records kept per thread for the trace file.
const MAX_RECORDS_PER_THREAD: usize = 25_000;

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One driver step of a closed loop (root).
    Step,
    /// One scheduled open-loop send or write (root).
    Event,
    /// `Fleet::step_into`.
    FleetStep,
    /// `Client::poll_update`.
    PollUpdate,
    /// `Client::complete_update`.
    CompleteUpdate,
    /// `Client::observe`.
    Observe,
    /// `Transport::request`.
    TransportRequest,
    /// `Server::handle_into` for a location update or a batch.
    HandleInto,
    /// `Request::encode`.
    RequestEncode,
    /// `Request::decode`.
    RequestDecode,
    /// `Response::encode`.
    ResponseEncode,
    /// `Response::decode`.
    ResponseDecode,
    /// A socket write in the TCP generator.
    SocketWrite,
    /// A socket read in the TCP generator.
    SocketRead,
    /// `Server::handle_into` for `InstallAlarm`.
    InstallAlarm,
    /// `Server::handle_into` for `RemoveAlarm`.
    RemoveAlarm,
}

impl Kind {
    /// The public call the span timed, as it appears in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::Event => "event",
            Kind::FleetStep => "Fleet::step_into",
            Kind::PollUpdate => "Client::poll_update",
            Kind::CompleteUpdate => "Client::complete_update",
            Kind::Observe => "Client::observe",
            Kind::TransportRequest => "Transport::request",
            Kind::HandleInto => "Server::handle_into",
            Kind::RequestEncode => "Request::encode",
            Kind::RequestDecode => "Request::decode",
            Kind::ResponseEncode => "Response::encode",
            Kind::ResponseDecode => "Response::decode",
            Kind::SocketWrite => "socket.write",
            Kind::SocketRead => "socket.read",
            Kind::InstallAlarm => "Server::handle_into(InstallAlarm)",
            Kind::RemoveAlarm => "Server::handle_into(RemoveAlarm)",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Kinds whose raw durations are kept for exact percentiles.
    fn keeps_durations(self) -> bool {
        matches!(
            self,
            Kind::HandleInto | Kind::InstallAlarm | Kind::RemoveAlarm
        )
    }
}

/// Number of [`Kind`]s.
const KINDS: usize = Kind::RemoveAlarm as usize + 1;

/// Totals of one span kind.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Raw durations (only for kinds with percentiles).
    pub durations_ns: Vec<u64>,
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    kind: Kind,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
    trace: u64,
    id: u64,
    parent: u64,
}

/// Everything one or more threads recorded.
#[derive(Debug, Clone)]
pub struct Spans {
    stats: Vec<KindStats>,
    records: Vec<Record>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            stats: vec![KindStats::default(); KINDS],
            records: Vec::new(),
        }
    }
}

impl Spans {
    /// Totals of one kind.
    pub fn kind(&self, kind: Kind) -> &KindStats {
        &self.stats[kind.index()]
    }

    /// Summed durations of `kind`, in seconds.
    pub fn busy_s(&self, kind: Kind) -> f64 {
        self.kind(kind).total_ns as f64 / 1e9
    }

    /// Summed self times of `kind`, in seconds.
    pub fn self_s(&self, kind: Kind) -> f64 {
        self.kind(kind).self_ns as f64 / 1e9
    }

    /// Folds another thread's spans into these.
    pub fn merge(&mut self, other: Spans) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.durations_ns.extend(theirs.durations_ns);
        }
        self.records.extend(other.records);
    }

    /// The kept spans as Chrome trace events (`pid` 1, `tid` = driver
    /// thread), shifted by `offset_ns` onto another timeline — the
    /// server clock, so they line up with the server's own spans.
    pub fn chrome_events(&self, offset_ns: u64) -> Vec<String> {
        self.records
            .iter()
            .map(|r| {
                let mut e = String::new();
                let _ = write!(
                    e,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"trace\":\"{:#018x}\",\"span\":\"{:#018x}\",\
                     \"parent\":\"{:#018x}\"}}}}",
                    r.kind.name(),
                    (offset_ns + r.start_ns) as f64 / 1e3,
                    r.dur_ns as f64 / 1e3,
                    r.tid,
                    r.trace,
                    r.id,
                    r.parent
                );
                e
            })
            .collect()
    }
}

struct Open {
    kind: Kind,
    start: Instant,
    child_ns: u64,
    id: u64,
    trace: u64,
    keep: bool,
}

struct Sink {
    tid: u32,
    origin: Instant,
    stride: u64,
    roots: u64,
    next_id: u64,
    stack: Vec<Open>,
    spans: Spans,
}

impl Sink {
    fn open(&mut self, kind: Kind, trace: u64) {
        self.next_id += 1;
        let id = (u64::from(self.tid) + 1) << 40 | self.next_id;
        let (trace, keep) = match self.stack.last() {
            Some(parent) => (if trace == 0 { parent.trace } else { trace }, parent.keep),
            None => {
                self.roots += 1;
                (
                    if trace == 0 { id } else { trace },
                    (self.roots - 1).is_multiple_of(self.stride),
                )
            }
        };
        self.stack.push(Open {
            kind,
            start: Instant::now(),
            child_ns: 0,
            id,
            trace,
            keep,
        });
    }

    fn close(&mut self) {
        let open = self.stack.pop().expect("every closed span was opened");
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur_ns;
                p.id
            }
            None => 0,
        };
        let stats = &mut self.spans.stats[open.kind.index()];
        stats.count += 1;
        stats.total_ns += dur_ns;
        stats.self_ns += dur_ns.saturating_sub(open.child_ns);
        if open.kind.keeps_durations() {
            stats.durations_ns.push(dur_ns);
        }
        if open.keep && self.spans.records.len() < MAX_RECORDS_PER_THREAD {
            self.spans.records.push(Record {
                kind: open.kind,
                tid: self.tid,
                start_ns: open.start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns,
                trace: open.trace,
                id: open.id,
                parent,
            });
        }
    }
}

thread_local! {
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread (a no-op with spans off).
/// Timestamps are taken relative to `origin`; the spans under every
/// `stride`-th root span are kept for the trace file.
pub(crate) fn begin_thread(tid: u32, origin: Instant, stride: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    SINK.with(|s| {
        *s.borrow_mut() = Some(Sink {
            tid,
            origin,
            stride: stride.max(1),
            roots: 0,
            next_id: 0,
            stack: Vec::new(),
            spans: Spans::default(),
        });
    });
}

/// Stops recording on the calling thread and returns what it recorded.
pub(crate) fn end_thread() -> Spans {
    SINK.with(|s| {
        s.borrow_mut()
            .take()
            .map(|sink| sink.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span of `kind`. `trace` names the update the span
/// belongs to; 0 inherits the parent's trace (a root without one starts
/// its own).
pub(crate) fn span<R>(kind: Kind, trace: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let opened = SINK.with(|s| match s.borrow_mut().as_mut() {
        Some(sink) => {
            sink.open(kind, trace);
            true
        }
        None => false,
    });
    let out = f();
    if opened {
        SINK.with(|s| {
            if let Some(sink) = s.borrow_mut().as_mut() {
                sink.close();
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_children_inherit_the_trace() {
        set_enabled(true);
        begin_thread(0, Instant::now(), 1);
        span(Kind::Step, 7, || {
            span(Kind::FleetStep, 0, || {
                std::thread::sleep(Duration::from_millis(4))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let spans = end_thread();
        let step = spans.kind(Kind::Step);
        let fleet = spans.kind(Kind::FleetStep);
        assert_eq!((step.count, fleet.count), (1, 1));
        assert_eq!(step.total_ns, step.self_ns + fleet.total_ns);
        assert!(fleet.total_ns >= 4_000_000 && step.self_ns >= 2_000_000);
        assert_eq!(spans.records.len(), 2);
        assert!(spans.records.iter().all(|r| r.trace == 7));
        let root = spans
            .records
            .iter()
            .find(|r| r.kind == Kind::Step)
            .expect("root kept");
        let child = spans
            .records
            .iter()
            .find(|r| r.kind == Kind::FleetStep)
            .expect("kept");
        assert_eq!((root.parent, child.parent), (0, root.id));
    }
}
