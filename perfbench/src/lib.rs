//! The runtime's benchmark: three workloads driven through public calls
//! only, every firing checked against `sa_sim::GroundTruth`, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//! `README.md` beside this crate says why each workload exists and what
//! each metric means.

pub mod alarm_churn;
pub mod cpu;
pub mod measure;
pub mod paper_hour;
pub mod report;
pub mod spans;
pub mod tcp_gateway;
pub mod transport;
pub mod world;
pub mod writer;

use measure::StepCost;
use sa_server::{Client, ClientStats};
use sa_sim::FiredEvent;
use spans::Spans;
use transport::{BenchTransport, ExchangeLog};
use writer::WriteLog;

/// Everything one measured episode of a workload produced.
#[derive(Debug, Default)]
pub struct Episode {
    /// Wall time of the measured phase, in seconds.
    pub wall_s: f64,
    /// Every firing the fleet observed.
    pub fired: Vec<FiredEvent>,
    /// Client counters summed over the fleet (for the open loop, the
    /// generator's own counts).
    pub clients: ClientStats,
    /// Client counters per subscriber (closed loops).
    pub per_client: Vec<(u32, ClientStats)>,
    /// Updates per second: accepted updates over the measured wall time
    /// (closed loop), or the rate completed at the reference rung (open
    /// loop).
    pub updates_per_s: f64,
    /// Trace samples fed to the fleet.
    pub samples: u64,
    /// Round-trip samples: one per exchange the bench timed, in ns.
    pub rtt_ns: Vec<u64>,
    /// Sum of every update's round trip (a batch exchange counts once
    /// per entry), in ns — the generator side of the front-end share.
    pub update_rtt_sum_ns: u128,
    /// Process CPU per update over the measured phase (for the open
    /// loop, over its CPU rung).
    pub cpu: Option<measure::CpuCost>,
    /// Median wall time per update of the last quarter of steps over
    /// the first quarter (see `measure::late_slowdown`).
    pub wall_late_slowdown: Option<f64>,
    /// Updates per second over the last quarter of steps (closed loop)
    /// or at the highest rung that met the latency limit (open loop).
    pub sustained_rate_per_s: f64,
    /// Updates sent, counting each retry.
    pub attempted: u64,
    /// Updates refused (`Overloaded`, `Error`) or never answered.
    pub failed: u64,
    /// Batch frames sent.
    pub frames: u64,
    /// Entries carried by those frames.
    pub batch_entries: u64,
    /// How late each open-loop send left, in ns.
    pub send_lag_ns: Vec<u64>,
    /// Alarm writes of the churn writer (`alarm_churn` only).
    pub writes: WriteLog,
    /// The server's registry, read after the measured phase.
    pub registry: sa_obs::Snapshot,
    /// The server's own spans (traced runs only).
    pub server_spans: Vec<sa_obs::Span>,
    /// The bench's spans (traced runs only).
    pub spans: Spans,
    /// Server-clock time at the bench's span origin, in ns.
    pub trace_offset_ns: u64,
}

impl Episode {
    /// Sums the per-client counters into `clients` and derives the
    /// closed-loop `updates_per_s`.
    pub(crate) fn close_loop(&mut self) {
        for (_, s) in &self.per_client {
            let t = &mut self.clients;
            t.uplinks += s.uplinks;
            t.region_installs += s.region_installs;
            t.deliveries += s.deliveries;
            t.overload_retries += s.overload_retries;
            t.bytes_up += s.bytes_up;
            t.bytes_down += s.bytes_down;
        }
        self.updates_per_s = (self.attempted - self.failed) as f64 / self.wall_s;
    }

    /// Folds one closed-loop driver thread's results in; its step costs
    /// are appended to `costs`.
    fn absorb_driver(&mut self, d: Driven, steps: u32, costs: &mut Vec<StepCost>) {
        self.fired.extend(d.fired);
        self.per_client.extend(d.per_client);
        self.sustained_rate_per_s += measure::tail_rate(&d.costs, steps);
        costs.extend(d.costs);
        self.rtt_ns.extend(d.log.rtt_ns);
        self.update_rtt_sum_ns += d.log.update_rtt_sum_ns;
        self.attempted += d.log.attempted;
        self.failed += d.log.failed;
        self.frames += d.log.frames;
        if d.log.frames > 0 {
            self.batch_entries += d.log.attempted;
        }
    }
}

/// What one closed-loop driver thread brings back.
struct Driven {
    fired: Vec<FiredEvent>,
    per_client: Vec<(u32, ClientStats)>,
    costs: Vec<StepCost>,
    log: transport::LogInner,
}

impl Driven {
    /// Collects the firings and counters of a driver's clients.
    fn collect(
        clients: &mut [Client<BenchTransport>],
        costs: Vec<StepCost>,
        log: &ExchangeLog,
    ) -> Driven {
        let mut fired = Vec::new();
        let mut per_client = Vec::with_capacity(clients.len());
        for client in clients {
            per_client.push((client.user().0, client.stats()));
            fired.extend(client.take_fired());
        }
        Driven {
            fired,
            per_client,
            costs,
            log: log.take(),
        }
    }
}
