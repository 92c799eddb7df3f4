//! Replays the smoke-test trace through the in-process live server and
//! writes `BENCH_server_replay.json`: throughput, end-to-end
//! location-update latency percentiles (from the server's
//! `sa_update_rtt_ns` histogram), and the public-bitmap cache hit ratio.
//!
//! This is the live-runtime counterpart of the simulator-driven `fig*`
//! binaries: the same trace, but real threads, real queues, and the real
//! wire codec on the path. Every run still cross-checks the fired-alarm
//! sequence against the simulator's ground truth before reporting.
//!
//! Usage: `server_replay [--steps N] [--out PATH]`

use sa_server::wire::StrategySpec;
use sa_server::{replay_in_proc, ReplayConfig, ServerConfig, TraceMode};
use sa_sim::{SimulationConfig, SimulationHarness};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    steps: u32,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts { steps: 300, out: PathBuf::from("BENCH_server_replay.json") };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--steps" => opts.steps = value().parse().expect("--steps expects an integer"),
            "--out" => opts.out = PathBuf::from(value()),
            "--help" | "-h" => {
                eprintln!("usage: server_replay [--steps N] [--out PATH]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(opts.steps > 0, "--steps must be positive");
    opts
}

fn main() {
    let opts = parse_args();
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    let cfg = ReplayConfig {
        steps: Some(opts.steps),
        server: ServerConfig::default(),
        trace_mode: TraceMode::Full,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
    };

    let started = Instant::now();
    let outcome = replay_in_proc(&harness, &cfg).expect("in-proc transport must hold");
    let wall_seconds = started.elapsed().as_secs_f64();
    outcome.assert_accurate();

    let rtt = outcome
        .metrics
        .histogram("sa_update_rtt_ns", &[])
        .expect("the replay must have recorded round-trip latencies");
    let uplinks: u64 = outcome.clients.iter().map(|(_, _, s)| s.uplinks).sum();
    let cache_lookups = outcome.cache.hits + outcome.cache.misses;
    let cache_hit_ratio = if cache_lookups == 0 {
        0.0
    } else {
        outcome.cache.hits as f64 / cache_lookups as f64
    };
    let throughput = outcome.server.location_updates as f64 / wall_seconds.max(1e-9);

    // Hand-rolled JSON: the workspace carries no serialization dependency, and
    // the shape here is flat enough not to need one.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"steps\": {},", outcome.steps);
    let _ = writeln!(json, "  \"vehicles\": {},", outcome.clients.len());
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.6},");
    let _ = writeln!(json, "  \"location_updates\": {},", outcome.server.location_updates);
    let _ = writeln!(json, "  \"uplinks\": {uplinks},");
    let _ = writeln!(json, "  \"triggers\": {},", outcome.server.triggers);
    let _ = writeln!(json, "  \"throughput_updates_per_sec\": {throughput:.3},");
    let _ = writeln!(json, "  \"update_rtt_ns\": {{");
    let _ = writeln!(json, "    \"p50\": {},", rtt.p50);
    let _ = writeln!(json, "    \"p90\": {},", rtt.p90);
    let _ = writeln!(json, "    \"p99\": {},", rtt.p99);
    let _ = writeln!(json, "    \"max\": {},", rtt.max);
    let _ = writeln!(json, "    \"count\": {}", rtt.count);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cache_hit_ratio\": {cache_hit_ratio:.6},");
    let _ = writeln!(json, "  \"cache_hits\": {},", outcome.cache.hits);
    let _ = writeln!(json, "  \"cache_misses\": {}", outcome.cache.misses);
    json.push_str("}\n");

    std::fs::write(&opts.out, &json).expect("writing the benchmark report");
    println!(
        "replayed {} steps × {} vehicles in {:.2}s: {:.0} updates/s, \
         rtt p50={}ns p99={}ns, cache hit ratio {:.1}% → {}",
        outcome.steps,
        outcome.clients.len(),
        wall_seconds,
        throughput,
        rtt.p50,
        rtt.p99,
        100.0 * cache_hit_ratio,
        opts.out.display()
    );
}
