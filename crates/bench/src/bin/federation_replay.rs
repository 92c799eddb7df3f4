//! Replays a seeded fleet against a live multi-member federation —
//! partitioned ownership, session handoffs on boundary crossings, one
//! mid-run repartition under a lossy fault plan — and writes
//! `BENCH_federation_replay.json`: per-partition update throughput,
//! handoff/redirect counts, the final topology epoch, and the
//! transcript digest.
//!
//! This is the federation counterpart of `chaos_replay`: the run aborts
//! (exit 1) unless the fired sequence matches `sa_sim::GroundTruth`
//! exactly and a second run reproduces the same byte-transcript digest.
//!
//! Usage: `federation_replay [--partitions N] [--vehicles N] [--alarms N]
//!   [--steps N] [--seed S] [--preset lossy|partitioned|duplicating|clean]
//!   [--repartition-at STEP|never] [--out PATH]`

use sa_fed::{fed_replay, FedReplayConfig};
use sa_server::wire::StrategySpec;
use sa_server::FaultPlan;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Opts {
    partitions: u32,
    vehicles: usize,
    alarms: usize,
    steps: u32,
    seed: u64,
    preset: String,
    repartition_at: Option<u32>,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        partitions: 3,
        vehicles: 4,
        alarms: 24,
        steps: 96,
        seed: 0xFEDBEEF,
        preset: "lossy".to_string(),
        repartition_at: Some(48),
        out: PathBuf::from("BENCH_federation_replay.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--partitions" => {
                opts.partitions = value().parse().expect("--partitions expects an integer")
            }
            "--vehicles" => opts.vehicles = value().parse().expect("--vehicles expects an integer"),
            "--alarms" => opts.alarms = value().parse().expect("--alarms expects an integer"),
            "--steps" => opts.steps = value().parse().expect("--steps expects an integer"),
            "--seed" => opts.seed = value().parse().expect("--seed expects an integer"),
            "--preset" => opts.preset = value(),
            "--repartition-at" => {
                let v = value();
                opts.repartition_at = if v == "never" {
                    None
                } else {
                    Some(v.parse().expect("--repartition-at expects a step or 'never'"))
                };
            }
            "--out" => opts.out = PathBuf::from(value()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: federation_replay [--partitions N] [--vehicles N] [--alarms N] \
                     [--steps N] [--seed S] [--preset lossy|partitioned|duplicating|clean] \
                     [--repartition-at STEP|never] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(opts.partitions >= 2, "--partitions must be at least 2 for a federation");
    assert!(opts.steps > 0, "--steps must be positive");
    opts
}

fn main() {
    let opts = parse_args();
    let plan = FaultPlan::preset(&opts.preset, opts.seed)
        .unwrap_or_else(|| panic!("unknown preset {:?}", opts.preset));
    let cfg = FedReplayConfig {
        partitions: opts.partitions,
        vehicles: opts.vehicles,
        alarms: opts.alarms,
        steps: opts.steps,
        seed: opts.seed,
        plan,
        batch_every: 0,
        repartition_at: opts.repartition_at,
        num_shards: 2,
        queue_capacity: 64,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 5 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
    };

    let started = Instant::now();
    let outcome = fed_replay(&cfg).expect("no fatal transport errors");
    let wall_seconds = started.elapsed().as_secs_f64();
    if let Err(e) = &outcome.verification {
        // The rendered divergence flight bundle (span trees, trace
        // rings, registry snapshots) is the forensic artifact — keep it.
        let flight = PathBuf::from("FLIGHT_federation_replay.txt");
        std::fs::write(&flight, e).expect("writing the flight bundle");
        eprintln!("federation replay diverged from ground truth:\n{e}");
        eprintln!("flight bundle written to {}", flight.display());
        std::process::exit(1);
    }
    // The merged causal trace of the run, loadable in Perfetto /
    // chrome://tracing.
    std::fs::write("TRACE_federation_replay.json", &outcome.trace_json)
        .expect("writing the trace export");
    println!(
        "trace export → TRACE_federation_replay.json ({} spans, {} bytes)",
        outcome.spans.len(),
        outcome.trace_json.len()
    );
    let rerun = fed_replay(&cfg).expect("no fatal transport errors on the rerun");
    if rerun.digest != outcome.digest {
        eprintln!(
            "federation replay is nondeterministic: {:#018x} vs {:#018x}",
            outcome.digest, rerun.digest
        );
        std::process::exit(1);
    }

    let total_updates: u64 = outcome.per_partition_updates.iter().sum();
    let throughput = total_updates as f64 / wall_seconds.max(1e-9);

    // Hand-rolled JSON: the workspace carries no serialization dependency.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"partitions\": {},", opts.partitions);
    let _ = writeln!(json, "  \"vehicles\": {},", opts.vehicles);
    let _ = writeln!(json, "  \"alarms\": {},", opts.alarms);
    let _ = writeln!(json, "  \"steps\": {},", outcome.steps);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"preset\": \"{}\",", opts.preset);
    let _ = writeln!(json, "  \"wall_seconds\": {wall_seconds:.6},");
    let _ = writeln!(json, "  \"fired\": {},", outcome.fired.len());
    let _ = writeln!(json, "  \"digest\": \"{:#018x}\",", outcome.digest);
    let _ = writeln!(json, "  \"deterministic\": true,");
    let _ = writeln!(json, "  \"total_updates\": {total_updates},");
    let _ = writeln!(json, "  \"throughput_updates_per_sec\": {throughput:.3},");
    let _ = writeln!(json, "  \"per_partition_updates\": {{");
    for (i, n) in outcome.per_partition_updates.iter().enumerate() {
        let comma = if i + 1 == outcome.per_partition_updates.len() { "" } else { "," };
        let per_sec = *n as f64 / wall_seconds.max(1e-9);
        let _ = writeln!(
            json,
            "    \"{i}\": {{ \"updates\": {n}, \"updates_per_sec\": {per_sec:.3} }}{comma}"
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"handoffs\": {},", outcome.handoffs);
    let _ = writeln!(json, "  \"redirects\": {},", outcome.redirects);
    let _ = writeln!(json, "  \"wrong_owner_bounces\": {},", outcome.wrong_owner_bounces);
    let _ = writeln!(json, "  \"repartitioned\": {},", outcome.repartitioned);
    let _ = writeln!(json, "  \"final_epoch\": {},", outcome.final_epoch);
    let _ = writeln!(json, "  \"injected_faults_total\": {}", outcome.injected_total);
    json.push_str("}\n");

    std::fs::write(&opts.out, &json).expect("writing the benchmark report");
    println!(
        "federation-replayed {} steps × {} vehicles over {} partitions under '{}' in {:.2}s: \
         {:.0} updates/s, {} handoffs, {} redirects, epoch {}, digest {:#018x} → {}",
        outcome.steps,
        opts.vehicles,
        opts.partitions,
        opts.preset,
        wall_seconds,
        throughput,
        outcome.handoffs,
        outcome.redirects,
        outcome.final_epoch,
        outcome.digest,
        opts.out.display()
    );
}
