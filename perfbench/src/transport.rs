//! The in-process transport the closed-loop workloads drive: the same
//! path as `sa_server::InProcTransport` (every request and response
//! round-trips the wire codec, then `Server::handle_into`), with each
//! public call wrapped in a span and every position-bearing exchange
//! timed and counted into a per-driver [`ExchangeLog`].

use crate::spans::{span, Kind};
use sa_server::wire::{Request, Response};
use sa_server::{Server, Transport, TransportError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Exchanges of one driver thread: raw round-trip samples and how many
/// updates were attempted and refused.
#[derive(Debug, Default)]
pub(crate) struct ExchangeLog {
    inner: Mutex<LogInner>,
}

/// The contents of an [`ExchangeLog`].
#[derive(Debug, Default, Clone)]
pub(crate) struct LogInner {
    /// Wall time of each position-bearing exchange, in nanoseconds.
    pub rtt_ns: Vec<u64>,
    /// Location updates sent (each batch entry counts once).
    pub attempted: u64,
    /// Updates answered `Overloaded` or `Error`, or left unanswered.
    pub failed: u64,
    /// Batch frames sent.
    pub frames: u64,
    /// Sum over updates of their exchange's round trip, in ns.
    pub update_rtt_sum_ns: u128,
}

impl ExchangeLog {
    /// A fresh shared log.
    pub(crate) fn shared() -> Arc<ExchangeLog> {
        Arc::new(ExchangeLog::default())
    }

    fn record(&self, rtt_ns: u64, attempted: u64, failed: u64, frame: bool) {
        let mut log = self.inner.lock().expect("exchange log poisoned");
        log.rtt_ns.push(rtt_ns);
        log.attempted += attempted;
        log.failed += failed;
        log.frames += u64::from(frame);
        log.update_rtt_sum_ns += u128::from(rtt_ns) * u128::from(attempted);
    }

    /// Exchanges timed so far.
    pub(crate) fn exchanges(&self) -> usize {
        self.inner
            .lock()
            .expect("exchange log poisoned")
            .rtt_ns
            .len()
    }

    /// Takes everything logged so far.
    pub(crate) fn take(&self) -> LogInner {
        std::mem::take(&mut *self.inner.lock().expect("exchange log poisoned"))
    }
}

/// An in-process session on a server (see the module docs).
pub(crate) struct BenchTransport {
    server: Arc<Server>,
    session: u32,
    log: Arc<ExchangeLog>,
    out: Vec<Response>,
}

impl BenchTransport {
    /// Opens a fresh session on `server`, logging into `log`.
    pub(crate) fn connect(server: Arc<Server>, log: Arc<ExchangeLog>) -> BenchTransport {
        let session = server.open_session();
        BenchTransport {
            server,
            session,
            log,
            out: Vec::new(),
        }
    }

    /// The session this transport speaks on.
    pub(crate) fn session(&self) -> u32 {
        self.session
    }

    fn exchange(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let bytes = span(Kind::RequestEncode, 0, || req.encode());
        let req = span(Kind::RequestDecode, 0, || Request::decode(&bytes))?;
        self.out.clear();
        span(Kind::HandleInto, 0, || {
            self.server.handle_into(self.session, req, &mut self.out)
        });
        let mut resps = Vec::with_capacity(self.out.len());
        for resp in self.out.drain(..) {
            let bytes = span(Kind::ResponseEncode, 0, || resp.encode());
            let resp = span(Kind::ResponseDecode, 0, || Response::decode(&bytes))?;
            let terminal = resp.is_terminal();
            resps.push(resp);
            if terminal {
                return Ok(resps);
            }
        }
        Err(TransportError::Closed)
    }
}

/// Whether a terminal response refuses the update it answers.
pub(crate) fn is_refusal(resp: Option<&Response>) -> bool {
    !matches!(resp, Some(r) if r.is_terminal()
        && !matches!(r, Response::Overloaded { .. } | Response::Error { .. }))
}

impl Transport for BenchTransport {
    fn request(&mut self, req: Request) -> Result<Vec<Response>, TransportError> {
        let (entries, batch) = match &req {
            Request::LocationUpdate { .. } | Request::Resync { .. } => (1, false),
            Request::Batch { updates, .. } => (updates.len(), true),
            _ => return span(Kind::TransportRequest, 0, || self.exchange(req)),
        };
        let started = Instant::now();
        let result = span(Kind::TransportRequest, 0, || self.exchange(req));
        let rtt_ns = started.elapsed().as_nanos() as u64;
        let failed = match &result {
            Ok(resps) => match resps.last() {
                Some(Response::Batch { replies, .. }) => {
                    let refused = replies
                        .iter()
                        .filter(|g| is_refusal(g.responses.last()))
                        .count();
                    refused + entries.saturating_sub(replies.len())
                }
                last => usize::from(is_refusal(last)),
            },
            Err(_) => entries,
        };
        self.log
            .record(rtt_ns, entries as u64, failed as u64, batch);
        result
    }
}
