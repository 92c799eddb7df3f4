//! Turns episodes into named metrics: the end-to-end set from untraced
//! episodes, the per-layer set from a traced one.

use crate::measure::{median, percentile, CpuCost, Percentile, WINDOWS};
use crate::spans::Kind;
use crate::Episode;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How it was taken (sample counts), for the human-readable lines.
    pub note: String,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// One line per metric: name, value, unit and how it was taken.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn describe(p: &Percentile, what: &str) -> String {
    format!("{what} of {} samples, {} beyond", p.count, p.beyond)
}

/// The median over episodes of a per-episode exact percentile of
/// `samples`, in µs, and how it was taken; `None` when an episode has
/// too few samples beyond the percentile.
fn percentile_us(
    eps: &[Episode],
    q: f64,
    samples: impl Fn(&Episode) -> &[u64],
) -> Option<(f64, String)> {
    let mut values = Vec::new();
    let mut notes = Vec::new();
    for ep in eps {
        let p = percentile(samples(ep), q)?;
        values.push(p.value as f64 / 1e3);
        notes.push(describe(&p, &format!("p{}", (q * 100.0).round())));
    }
    Some((median(&values)?, median_note(eps.len(), &notes.join("; "))))
}

fn median_note(episodes: usize, what: &str) -> String {
    if episodes == 1 {
        what.to_string()
    } else {
        format!("median of {episodes} episodes ({what})")
    }
}

/// The median over [`WINDOWS`] consecutive blocks of `samples` of each
/// block's mean (the mean of all samples when there are fewer).
fn block_median(samples: &[u64]) -> f64 {
    let block = (samples.len() / WINDOWS).max(1);
    let means: Vec<f64> = samples
        .chunks(block)
        .take(WINDOWS)
        .map(|b| b.iter().sum::<u64>() as f64 / b.len() as f64)
        .collect();
    median(&means).unwrap_or(0.0)
}

fn median_of(eps: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&eps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The end-to-end metrics of untraced episodes. `setup_s` holds one
/// sample per set-up made in the run, and `peak_rss_mb` one per
/// episode: the peak resident set its set-up and run added.
///
/// # Errors
///
/// Fails when an episode has a CPU window that carried no update.
pub fn end_to_end(eps: &[Episode], setup_s: &[f64], peak_rss_mb: &[f64]) -> Result<Report, String> {
    let mut r = Report::default();
    let n = eps.len();
    r.push(
        "setup_s",
        median(setup_s).unwrap_or(0.0),
        "s",
        format!("median of {} set-ups", setup_s.len()),
    );
    let costs: Option<Vec<CpuCost>> = eps.iter().map(|e| e.cpu).collect();
    let costs = costs.ok_or("an episode has a CPU window without updates")?;
    r.push(
        "cpu_us_per_update",
        median(
            &costs
                .iter()
                .map(|c| c.ns_per_update / 1e3)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        "us",
        median_note(
            n,
            &format!("median over {WINDOWS} windows of process CPU per update"),
        ),
    );
    r.push(
        "late_slowdown",
        median(&costs.iter().map(|c| c.late_slowdown).collect::<Vec<_>>()).unwrap_or(0.0),
        "ratio",
        median_note(
            n,
            "CPU per update, last quarter ÷ first quarter, medians of 4 windows",
        ),
    );
    r.push(
        "uplinks_per_1k_samples",
        median_of(eps, |e| {
            e.clients.uplinks as f64 * 1e3 / e.samples.max(1) as f64
        }),
        "count",
        format!(
            "{} uplinks over {} samples",
            eps[0].clients.uplinks, eps[0].samples
        ),
    );
    r.push(
        "downlink_bytes_per_uplink",
        median_of(eps, |e| {
            e.clients.bytes_down as f64 / e.clients.uplinks.max(1) as f64
        }),
        "B",
        "",
    );
    r.push(
        "peak_rss_mb",
        median(peak_rss_mb).unwrap_or(0.0),
        "MB",
        median_note(n, "VmHWM above the resident set before the set-up"),
    );
    Ok(r)
}

/// Figures of untraced episodes reported without a bound: the
/// wall-clock ones, which are what a user waits for but on a shared
/// machine move with the host's load, and the writer's CPU per write,
/// which only `alarm_churn` measures.
pub fn wall(eps: &[Episode]) -> Report {
    let mut r = Report::default();
    let n = eps.len();
    r.push(
        "wall.updates_per_s",
        median_of(eps, |e| e.updates_per_s),
        "1/s",
        median_note(n, "rate"),
    );
    fn rtt(e: &Episode) -> &[u64] {
        &e.rtt_ns
    }
    fn write(e: &Episode) -> &[u64] {
        &e.writes.latency_ns
    }
    for (name, found) in [
        ("wall.rtt_p50_us", percentile_us(eps, 0.5, rtt)),
        ("wall.rtt_p99_us", percentile_us(eps, 0.99, rtt)),
        ("wall.write_p99_us", percentile_us(eps, 0.99, write)),
    ] {
        match found {
            Some((value, note)) => r.push(name, value, "us", note),
            None => r.push(name, 0.0, "us", "not reported: too few samples beyond it"),
        }
    }
    let slowdowns: Vec<f64> = eps.iter().filter_map(|e| e.wall_late_slowdown).collect();
    r.push(
        "wall.late_slowdown",
        median(&slowdowns).unwrap_or(0.0),
        "ratio",
        median_note(
            n,
            "median wall time per update, last quarter ÷ first quarter",
        ),
    );
    r.push(
        "wall.sustained_rate_per_s",
        median_of(eps, |e| e.sustained_rate_per_s),
        "1/s",
        median_note(n, "rate"),
    );
    let writes = eps.first().map_or(0, |e| e.writes.cpu_ns.len());
    r.push(
        "alarms.write_cpu_us",
        median_of(eps, |e| block_median(&e.writes.cpu_ns) / 1e3),
        "us",
        median_note(
            n,
            &format!(
                "median over {WINDOWS} blocks of {writes} writes of the writer's CPU per write"
            ),
        ),
    );
    r
}

/// The per-layer metrics of one traced episode; `overhead_ratio` is the
/// traced run's cost over the untraced run's.
pub fn per_layer(ep: &Episode, overhead_ratio: f64) -> Report {
    let snap = &ep.registry;
    let spans = &ep.spans;
    let hist =
        |name: &str, labels: &[(&str, &str)]| snap.histogram(name, labels).unwrap_or_default();
    let counter = |name: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p99_us = |samples: &[u64]| percentile(samples, 0.99).map_or(0.0, |p| p.value as f64 / 1e3);
    let mut r = Report::default();

    let rtt = hist("sa_update_rtt_ns", &[]);
    let wait = hist("sa_shard_dispatch_wait_ns", &[]);
    let algos = ["mwpsr", "pbsr", "opt", "safe_period"];
    let compute_sum: u64 = algos
        .iter()
        .map(|a| hist("sa_region_compute_ns", &[("algo", a)]).sum)
        .sum();
    let handle = spans.kind(Kind::HandleInto);
    r.push(
        "server.handle_busy_s",
        spans.busy_s(Kind::HandleInto),
        "s",
        format!("{} spans", handle.count),
    );
    r.push(
        "server.handle_p99_us",
        p99_us(&handle.durations_ns),
        "us",
        "exact, from spans",
    );
    r.push(
        "server.triggers",
        counter("sa_server_triggers_total"),
        "count",
        "fired-set entries",
    );
    r.push(
        "server.overloads",
        counter("sa_server_overloads_total"),
        "count",
        "",
    );
    r.push(
        "server.unattributed_share",
        1.0 - ratio((wait.sum + compute_sum) as f64, rtt.sum as f64),
        "ratio",
        "1 - (dispatch wait + region compute) / sa_update_rtt_ns",
    );

    r.push("shard.dispatch_wait_busy_s", wait.sum as f64 / 1e9, "s", "");
    r.push(
        "shard.dispatch_wait_p99_us",
        wait.p99 as f64 / 1e3,
        "us",
        "registry bucket estimate",
    );
    r.push(
        "shard.queue_full_total",
        counter("sa_shard_queue_full_total"),
        "count",
        "",
    );

    for algo in algos {
        let h = hist("sa_region_compute_ns", &[("algo", algo)]);
        r.push(
            &format!("core.region_compute_s.{algo}"),
            h.sum as f64 / 1e9,
            "s",
            format!("{} computations", h.count),
        );
    }
    for algo in algos {
        let h = hist("sa_region_compute_ns", &[("algo", algo)]);
        r.push(
            &format!("core.region_compute_p99_us.{algo}"),
            h.p99 as f64 / 1e3,
            "us",
            "registry bucket estimate",
        );
    }
    r.push(
        "core.computations_per_uplink",
        ratio(
            counter("sa_server_region_computations_total"),
            counter("sa_server_location_updates_total"),
        ),
        "ratio",
        "",
    );

    let (hits, misses) = (
        counter("sa_cache_hits_total"),
        counter("sa_cache_misses_total"),
    );
    r.push(
        "cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        format!("{} lookups", hits + misses),
    );
    r.push(
        "cache.lookup_busy_s",
        hist("sa_cache_lookup_ns", &[]).sum as f64 / 1e9,
        "s",
        "",
    );
    r.push("cache.misses", misses, "count", "");
    r.push(
        "cache.invalidations",
        counter("sa_cache_invalidations_total"),
        "count",
        "",
    );
    r.push(
        "cache.evictions",
        counter("sa_cache_evictions_total"),
        "count",
        "",
    );

    let installs = spans.kind(Kind::InstallAlarm);
    let removes = spans.kind(Kind::RemoveAlarm);
    r.push(
        "alarms.install_p99_us",
        p99_us(&installs.durations_ns),
        "us",
        format!("{} installs", installs.count),
    );
    r.push(
        "alarms.remove_p99_us",
        p99_us(&removes.durations_ns),
        "us",
        format!("{} removes", removes.count),
    );
    r.push(
        "alarms.write_busy_s",
        spans.busy_s(Kind::InstallAlarm) + spans.busy_s(Kind::RemoveAlarm),
        "s",
        "",
    );

    r.push(
        "reactor.front_end_share",
        1.0 - ratio(rtt.sum as f64, ep.update_rtt_sum_ns as f64),
        "ratio",
        "1 - server update RTT sum / generator update RTT sum",
    );
    r.push(
        "reactor.closed_total",
        counter("sa_net_closed_total"),
        "count",
        "",
    );

    r.push(
        "wire.encode_busy_s",
        hist("sa_wire_encode_ns", &[]).sum as f64 / 1e9,
        "s",
        "server side",
    );
    r.push(
        "wire.decode_busy_s",
        hist("sa_wire_decode_ns", &[]).sum as f64 / 1e9,
        "s",
        "server side",
    );
    let codec = [
        Kind::RequestEncode,
        Kind::RequestDecode,
        Kind::ResponseEncode,
        Kind::ResponseDecode,
    ];
    r.push(
        "gen.codec_busy_s",
        codec.iter().map(|&k| spans.busy_s(k)).sum(),
        "s",
        "bench side",
    );
    r.push(
        "gen.socket_write_busy_s",
        spans.busy_s(Kind::SocketWrite),
        "s",
        "",
    );
    r.push(
        "gen.socket_read_wait_s",
        spans.busy_s(Kind::SocketRead),
        "s",
        "includes waiting for replies",
    );

    let c = &ep.clients;
    r.push(
        "client.poll_busy_s",
        spans.self_s(Kind::PollUpdate),
        "s",
        "self time",
    );
    r.push(
        "client.complete_busy_s",
        spans.self_s(Kind::CompleteUpdate),
        "s",
        "self time",
    );
    r.push(
        "client.observe_busy_s",
        spans.self_s(Kind::Observe),
        "s",
        "self time",
    );
    r.push("client.uplinks", c.uplinks as f64, "count", "");
    r.push(
        "client.region_installs",
        c.region_installs as f64,
        "count",
        "",
    );
    r.push(
        "client.overload_retries",
        c.overload_retries as f64,
        "count",
        "",
    );
    r.push("client.bytes_up", c.bytes_up as f64, "B", "");
    r.push("client.bytes_down", c.bytes_down as f64, "B", "");

    r.push(
        "roadnet.step_busy_s",
        spans.busy_s(Kind::FleetStep),
        "s",
        "",
    );
    r.push(
        "gen.send_lag_p99_us",
        p99_us(&ep.send_lag_ns),
        "us",
        format!("{} sends", ep.send_lag_ns.len()),
    );
    r.push("gen.frames_sent", ep.frames as f64, "count", "");
    r.push(
        "gen.batch_entries_mean",
        ratio(ep.batch_entries as f64, ep.frames as f64),
        "entries",
        "",
    );
    r.push(
        "trace.overhead_ratio",
        overhead_ratio,
        "ratio",
        "traced ÷ untraced",
    );
    r
}
