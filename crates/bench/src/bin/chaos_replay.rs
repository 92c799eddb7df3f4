//! Replays the smoke-test trace through fault-injected transports and
//! resilient clients, and writes `BENCH_chaos_replay.json`: throughput
//! under faults, reconnect-RTT percentiles (from the client-side
//! `sa_client_reconnect_rtt_ns` histogram), the degraded-time fraction,
//! and the injected-fault counts by kind.
//!
//! This is the chaos counterpart of `server_replay`: same trace, same
//! ground-truth cross-check (the run aborts if any alarm is lost,
//! duplicated, or mistimed), but every exchange passes through a
//! seeded `FaultyTransport` and the plan's disconnect windows.
//!
//! Usage: `chaos_replay [--steps N] [--preset lossy|partitioned|duplicating|clean] [--seed S] [--out PATH]`

use sa_server::chaos::{chaos_replay_in_proc, ChaosConfig, FaultPlan};
use sa_server::wire::StrategySpec;
use sa_server::{ReplayConfig, ServerConfig, TraceMode};
use sa_sim::{SimulationConfig, SimulationHarness};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    steps: u32,
    preset: String,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        steps: 240,
        preset: "lossy".to_string(),
        seed: 0xC0FFEE,
        out: PathBuf::from("BENCH_chaos_replay.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--steps" => opts.steps = value().parse().expect("--steps expects an integer"),
            "--preset" => opts.preset = value(),
            "--seed" => opts.seed = value().parse().expect("--seed expects an integer"),
            "--out" => opts.out = PathBuf::from(value()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: chaos_replay [--steps N] \
                     [--preset lossy|partitioned|duplicating|clean] [--seed S] [--out PATH]"
                );
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
    let plan = FaultPlan::preset(&opts.preset, opts.seed)
        .unwrap_or_else(|| panic!("unknown preset {:?}", opts.preset));
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    let cfg = ChaosConfig {
        replay: ReplayConfig {
            steps: Some(opts.steps),
            server: ServerConfig::default(),
            trace_mode: TraceMode::Full,
            strategies: vec![
                StrategySpec::Mwpsr,
                StrategySpec::Pbsr { height: 5 },
                StrategySpec::Opt,
                StrategySpec::SafePeriod,
            ],
        },
        plan,
    };

    let started = Instant::now();
    let outcome = chaos_replay_in_proc(&harness, &cfg).expect("no fatal transport errors");
    let wall_seconds = started.elapsed().as_secs_f64();
    outcome.replay.assert_accurate();

    let replay = &outcome.replay;
    let reconnect = replay
        .metrics
        .histogram("sa_client_reconnect_rtt_ns", &[])
        .unwrap_or_default();
    let degraded_seconds = replay.metrics.counter("sa_client_degraded_seconds", &[]).unwrap_or(0);
    let throughput = replay.server.location_updates as f64 / wall_seconds.max(1e-9);

    // Hand-rolled JSON: the workspace carries no serialization dependency, and
    // the shape here is flat enough not to need one.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"preset\": \"{}\",", opts.preset);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"steps\": {},", replay.steps);
    let _ = writeln!(json, "  \"vehicles\": {},", replay.clients.len());
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.6},");
    let _ = writeln!(json, "  \"location_updates\": {},", replay.server.location_updates);
    let _ = writeln!(json, "  \"triggers\": {},", replay.server.triggers);
    let _ = writeln!(json, "  \"throughput_updates_per_sec\": {throughput:.3},");
    let _ = writeln!(json, "  \"injected_faults_total\": {},", outcome.injected_total);
    let _ = writeln!(json, "  \"injected_faults\": {{");
    for (i, (kind, n)) in outcome.injected.iter().enumerate() {
        let comma = if i + 1 == outcome.injected.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{kind}\": {n}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"client_retries\": {},", outcome.retries);
    let _ = writeln!(json, "  \"client_resyncs\": {},", outcome.resyncs);
    let _ = writeln!(json, "  \"degraded_fraction\": {:.6},", outcome.degraded_fraction);
    let _ = writeln!(json, "  \"degraded_seconds\": {degraded_seconds},");
    let _ = writeln!(json, "  \"reconnect_rtt_ns\": {{");
    let _ = writeln!(json, "    \"p50\": {},", reconnect.p50);
    let _ = writeln!(json, "    \"p90\": {},", reconnect.p90);
    let _ = writeln!(json, "    \"p99\": {},", reconnect.p99);
    let _ = writeln!(json, "    \"max\": {},", reconnect.max);
    let _ = writeln!(json, "    \"count\": {}", reconnect.count);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&opts.out, &json).expect("writing the benchmark report");
    println!(
        "chaos-replayed {} steps × {} vehicles under '{}' in {:.2}s: \
         {:.0} updates/s, {} faults injected, {} retries, {:.1}% degraded, \
         reconnect p99={}ns → {}",
        replay.steps,
        replay.clients.len(),
        opts.preset,
        wall_seconds,
        throughput,
        outcome.injected_total,
        outcome.retries,
        100.0 * outcome.degraded_fraction,
        reconnect.p99,
        opts.out.display()
    );
}
