//! `sa-perfbench --workload <paper_hour|tcp_gateway|alarm_churn> --seed N
//! --seconds S --trace <0|1> [--out-dir DIR]`
//!
//! Untraced (`--trace 0`): set up several times, run a fixed number of
//! measured episodes (one per nominal episode length in `--seconds`, at
//! least one), and print the end-to-end metrics, then the wall-clock
//! figures as information. Traced (`--trace 1`): one untraced and one traced
//! episode; print the per-layer metrics of the traced one and write its
//! spans to `DIR/<workload>-seed<N>.trace.json`. The last line of
//! standard output is the JSON result. A ground-truth divergence, a
//! refused write or any transport failure exits non-zero without one.

use sa_perfbench::report::{self, Report};
use sa_perfbench::world::{self, driver_threads};
use sa_perfbench::{alarm_churn, cpu, measure, paper_hour, spans, tcp_gateway, Episode};
use sa_server::{Server, TraceMode};
use sa_sim::SimulationConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// What a run prints.
struct Outcome {
    report: Report,
    /// Lines printed before the report.
    info: Report,
    attempted: u64,
    failed: u64,
}

/// How one workload is set up and run.
struct Plan<S> {
    setup: Box<dyn Fn() -> Result<S, String>>,
    server: fn(&S) -> &Arc<Server>,
    run: Box<dyn Fn(S, u64) -> Result<Episode, String>>,
    /// Root spans between two kept in the trace file.
    stride: u64,
    /// Nominal length of one episode on a two-core machine, in seconds:
    /// a run makes `--seconds` ÷ this many episodes, so the work of a
    /// run does not depend on how fast the program is.
    episode_s: f64,
    /// Open loop: wall time is fixed by the schedule, so tracing
    /// overhead shows in the reference-rate p50 instead.
    open_loop: bool,
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "sa-perfbench: {e}\nusage: sa-perfbench --workload <paper_hour|tcp_gateway|alarm_churn> \
                 --seed N --seconds S --trace <0|1> [--out-dir DIR]"
            );
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            print!("{}", out.info.human());
            print!("{}", out.report.human());
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.attempted,
                out.failed,
                out.report.json()
            );
        }
        Err(e) => {
            eprintln!("sa-perfbench {}: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    let workers = driver_threads();
    let seed = opts.seed;
    let started = Instant::now();
    match opts.workload.as_str() {
        "paper_hour" => {
            let config = SimulationConfig::paper_fraction(paper_hour::SCALE);
            let harness = Arc::new(world::build(config, seed, paper_hour::STEPS));
            inputs_built(&harness, started);
            let h = Arc::clone(&harness);
            measure(
                opts,
                Plan {
                    setup: Box::new(move || {
                        paper_hour::setup(&h, workers).map_err(|e| format!("set-up: {e}"))
                    }),
                    server: |s| &s.server,
                    run: Box::new(move |s, stride| {
                        paper_hour::run(&harness, s, paper_hour::STEPS, stride)
                    }),
                    stride: 36,
                    episode_s: 10.0,
                    open_loop: false,
                },
            )
        }
        "alarm_churn" => {
            let config = SimulationConfig::paper_fraction(alarm_churn::SCALE);
            let harness = Arc::new(world::build(config, seed, alarm_churn::STEPS));
            inputs_built(&harness, started);
            let h = Arc::clone(&harness);
            measure(
                opts,
                Plan {
                    setup: Box::new(move || {
                        alarm_churn::setup(&h, workers).map_err(|e| format!("set-up: {e}"))
                    }),
                    server: |s| &s.server,
                    run: Box::new(move |s, stride| {
                        alarm_churn::run(&harness, s, alarm_churn::STEPS, seed, stride)
                    }),
                    stride: 20,
                    episode_s: 3.0,
                    open_loop: false,
                },
            )
        }
        "tcp_gateway" => {
            // Before any thread starts, so that every thread inherits it.
            let cpu = cpu::pin_to_one_cpu().ok_or("cannot pin the process to one CPU")?;
            println!("pinned to CPU {cpu}");
            let config = SimulationConfig::paper_fraction(tcp_gateway::SCALE);
            let rungs = tcp_gateway::plan(config.fleet.vehicles, opts.seconds);
            let steps = rungs.last().map_or(1, |r| r.steps.end);
            let harness = Arc::new(world::build(config, seed, steps));
            let inputs = tcp_gateway::inputs(&harness, &rungs, seed);
            inputs_built(&harness, started);
            let h = Arc::clone(&harness);
            measure(
                opts,
                Plan {
                    setup: Box::new(move || tcp_gateway::setup(&h)),
                    server: |s| &s.server,
                    run: Box::new(move |s, stride| {
                        let (ep, rungs) = tcp_gateway::run(&harness, s, &inputs, stride)?;
                        for o in &rungs {
                            println!(
                                "rung {:>8.0}/s: {} updates, offered {:.0}/s, completed {:.0}/s, \
                                 p50 {:.1} us, p99 {:.1} us, {}",
                                o.rate,
                                o.updates,
                                o.offered,
                                o.achieved,
                                o.p50_ns as f64 / 1e3,
                                o.p99_ns as f64 / 1e3,
                                if o.sustained {
                                    "sustained"
                                } else {
                                    "not sustained"
                                }
                            );
                        }
                        Ok(ep)
                    }),
                    stride: 10,
                    episode_s: f64::INFINITY,
                    open_loop: true,
                },
            )
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn inputs_built(harness: &sa_sim::SimulationHarness, started: Instant) {
    println!(
        "inputs: {} vehicles, {} alarms, {} ground-truth firings, built in {:.2} s; {} driver threads",
        harness.config().fleet.vehicles,
        harness.index().len(),
        harness.ground_truth().len(),
        started.elapsed().as_secs_f64(),
        driver_threads()
    );
}

fn measure<S>(opts: &Opts, plan: Plan<S>) -> Result<Outcome, String> {
    let timed_setup = || -> Result<(S, f64), String> {
        let started = Instant::now();
        let s = (plan.setup)()?;
        Ok((s, started.elapsed().as_secs_f64()))
    };
    if !opts.trace {
        let mut setups = Vec::new();
        for _ in 1..SETUP_REPS {
            setups.push(timed_setup()?.1);
        }
        let episodes = (opts.seconds / plan.episode_s).round().max(1.0) as usize;
        let mut eps = Vec::new();
        let mut peaks_mb = Vec::new();
        for _ in 0..episodes {
            let before_mb = measure::reset_peak_rss()?;
            let (s, secs) = timed_setup()?;
            setups.push(secs);
            eps.push((plan.run)(s, 1)?);
            let peak_mb = measure::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
            peaks_mb.push(peak_mb - before_mb);
        }
        let report = report::end_to_end(&eps, &setups, &peaks_mb)?;
        flag_generator_lag(&eps);
        let writes: u64 = eps.iter().map(|e| e.writes.latency_ns.len() as u64).sum();
        return Ok(Outcome {
            attempted: eps.iter().map(|e| e.attempted).sum::<u64>() + writes,
            failed: eps.iter().map(|e| e.failed + e.writes.refused).sum(),
            info: report::wall(&eps),
            report,
        });
    }

    let (s, _) = timed_setup()?;
    let base = (plan.run)(s, 1)?;
    spans::set_enabled(true);
    let (s, _) = timed_setup()?;
    (plan.server)(&s).set_trace_mode(TraceMode::Full);
    let traced = (plan.run)(s, plan.stride);
    spans::set_enabled(false);
    let traced = traced?;
    let overhead = if plan.open_loop {
        let p50 = |e: &Episode| measure::percentile(&e.rtt_ns, 0.5).map_or(0.0, |p| p.value as f64);
        p50(&traced) / p50(&base)
    } else {
        traced.wall_s / base.wall_s
    };
    let path = write_trace(opts, &traced)?;
    println!("trace: {}", path.display());
    let mut report = report::per_layer(&traced, overhead);
    report.metrics.extend(report::wall(&[base]).metrics);
    Ok(Outcome {
        attempted: traced.attempted + traced.writes.latency_ns.len() as u64,
        failed: traced.failed + traced.writes.refused,
        info: Report::default(),
        report,
    })
}

/// Flags a run whose generator ran late by as much as half the median
/// round trip: its latencies then measure the generator, not the server.
fn flag_generator_lag(eps: &[Episode]) {
    let lags: Vec<u64> = eps
        .iter()
        .flat_map(|e| e.send_lag_ns.iter().copied())
        .collect();
    let Some(lag) = measure::percentile(&lags, 0.99) else {
        return;
    };
    let p50 = |e: &Episode| measure::percentile(&e.rtt_ns, 0.5).map_or(0.0, |p| p.value as f64);
    let p50_us = measure::median(&eps.iter().map(p50).collect::<Vec<_>>()).unwrap_or(0.0) / 1e3;
    let lag_us = lag.value as f64 / 1e3;
    println!(
        "generator send lag p99: {lag_us:.1} us over {} sends",
        lag.count
    );
    if lag_us >= 0.5 * p50_us {
        println!("FLAG: generator lag p99 {lag_us:.1} us is comparable to rtt_p50 {p50_us:.1} us");
    }
}

/// Writes the traced episode's spans — the server's and the bench's, on
/// the server clock — as one Chrome trace file.
fn write_trace(opts: &Opts, ep: &Episode) -> Result<PathBuf, String> {
    let server = sa_obs::chrome_trace_json(&ep.server_spans);
    let server_events = server
        .trim_start_matches("{\"traceEvents\":[")
        .trim_end()
        .trim_end_matches("]}")
        .trim();
    let mut events: Vec<String> = Vec::new();
    if !server_events.is_empty() {
        events.push(server_events.to_string());
    }
    events.extend(ep.spans.chrome_events(ep.trace_offset_ns));
    let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {:?}: {e}", opts.out_dir))?;
    let path = opts
        .out_dir
        .join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
    std::fs::write(&path, body).map_err(|e| format!("write {path:?}: {e}"))?;
    Ok(path)
}
