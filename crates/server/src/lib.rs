//! sa-server: a concurrent, grid-sharded safe-region service runtime.
//!
//! Where `sa-sim` *models* the client–server message exchange of
//! Bamba et al.'s safe-region strategies with abstract bit accounting,
//! this crate *runs* it: a real binary wire protocol ([`wire`]), a
//! server whose alarm state is sharded across worker threads by grid
//! cell ([`server`], [`shard`]), an epoch-versioned cache of public
//! safe-region bitmaps ([`cache`]), two interchangeable transports —
//! in-process and loopback TCP ([`transport`]) — and client-side
//! strategy mirrors plus a trace replay driver that cross-checks every
//! firing against the simulator's ground truth ([`client`], [`mod@replay`]).
//!
//! Every layer is instrumented through `sa-obs`: one registry per server
//! holds the cache/shard/router counters, queue-depth gauges, and
//! latency histograms (shard dispatch wait, per-algorithm safe-region
//! computation, cache lookup, wire encode/decode, end-to-end update
//! round trip), scrapeable live over the wire with [`Request::Stats`]
//! and rendered as Prometheus text.
//!
//! The runtime is failure-aware end to end ([`chaos`]): transports can
//! be wrapped in a deterministic fault injector (drops, duplicates,
//! delays, disconnect windows), clients ride out transient failures
//! with capped jittered backoff and a documented degraded mode backed
//! by the safe-region invariant, and a [`wire::Request::Resync`]
//! exchange recovers lost trigger deliveries from the server's
//! per-session delivery log.
//!
//! All timing — router entry stamps, shard queue waits, injected chaos
//! delays, client backoff sleeps — goes through the [`clock::Clock`]
//! trait, so the `sa-verify` harness can substitute a
//! [`clock::VirtualClock`] and make an entire server+fleet+fault run
//! deterministic.
//!
//! The layering, bottom-up:
//!
//! ```text
//! chaos   ── FaultyTransport decorator + chaos replay harness
//! replay  ── FleetDrive, the one step driver over a sa-roadnet trace
//!            (per-request, batched, faulty), gated vs GroundTruth
//! client  ── per-strategy mirrors (MWPSR / PBSR / OPT / safe-period)
//!            + retry → degraded → resync → steady resilience machine
//! transport ─ InProc | Tcp client ends, both framing through the codec
//! reactor ── the TCP front end: nonblocking sockets, many per worker
//! server  ── router + sessions; LocationUpdate → bounded shard queues
//! shard   ── VersionedShardIndex (global↔local alarm ids, epoch-
//!            versioned snapshots) + ShardPool workers
//! cache   ── (cell, height) → public bitmap, epoch-invalidated
//! wire    ── Request/Response codec, sizes == sa-sim payload constants
//! ```

#![warn(missing_docs)]

mod arena;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod clock;
pub mod netfront;
pub mod reactor;
pub mod replay;
pub mod server;
pub mod shard;
pub mod transport;
pub mod wire;

pub use cache::{CacheStats, RegionCache};
pub use chaos::{
    chaos_replay_in_proc, ChaosConfig, ChaosControls, ChaosOutcome, FaultLeg, FaultPlan,
    FaultyTransport, InjectedCounts,
};
pub use client::{Backoff, Client, ClientStats, ResiliencePolicy};
pub use clock::{Clock, SharedClock, SystemClock, VirtualClock};
pub use netfront::{
    AdmissionConfig, AdmissionController, FrameError, FrameReader, WriteQueue,
};
pub use reactor::{Reactor, ReactorConfig};
pub use replay::{
    ground_truth_gate, replay, replay_batched_in_proc, replay_in_proc, replay_tcp, shuffle,
    Driven, FleetDrive, Link, ReplayConfig, ReplayOutcome, Seated,
};
pub use sa_obs::TraceMode;
pub use server::{quantize_rect, Server, ServerConfig, ServerStats};
pub use shard::{shard_of_index, ShardIndex, ShardPool, ShardSnapshot, VersionedShardIndex};
pub use transport::{
    InProcTransport, ReconnectingTcpTransport, TcpTransport, Transport, TransportError,
};
pub use wire::{CellRange, Request, Response, SessionState, StrategySpec, WireError};
