//! The benchmark's drivers against the runtime's own reference paths.

use sa_perfbench::{alarm_churn, paper_hour, tcp_gateway, world};
use sa_server::{replay_batched_in_proc, ReplayConfig, TraceMode};
use sa_sim::{FiredEvent, SimulationConfig, SimulationHarness};

fn sorted(mut fired: Vec<FiredEvent>) -> Vec<(u32, u64, u32)> {
    let mut keys: Vec<_> = fired
        .drain(..)
        .map(|e| (e.subscriber.0, e.alarm.0, e.step))
        .collect();
    keys.sort_unstable();
    keys
}

#[test]
fn paper_hour_driver_matches_the_batched_replay() {
    let harness = SimulationHarness::build(&SimulationConfig::smoke_test());
    let steps = 120;
    let setup = paper_hour::setup(&harness, 3).expect("every hello is acknowledged");
    let ep = paper_hour::run(&harness, setup, steps, 1)
        .expect("the episode reproduces the ground truth");

    let cfg = ReplayConfig {
        steps: Some(steps),
        trace_mode: TraceMode::Off,
        ..ReplayConfig::default()
    };
    let reference = replay_batched_in_proc(&harness, &cfg, 3).expect("transport must hold");
    reference.assert_accurate();

    assert!(
        !ep.fired.is_empty(),
        "the smoke trace fires alarms within 120 steps"
    );
    assert_eq!(sorted(ep.fired), sorted(reference.fired));
    let mut ours: Vec<_> = ep
        .per_client
        .iter()
        .map(|(user, s)| (*user, s.uplinks, s.region_installs, s.deliveries))
        .collect();
    let mut theirs: Vec<_> = reference
        .clients
        .iter()
        .map(|(user, _, s)| (user.0, s.uplinks, s.region_installs, s.deliveries))
        .collect();
    ours.sort_unstable();
    theirs.sort_unstable();
    assert_eq!(ours, theirs);
    assert_eq!(ep.failed, 0);
    assert!(
        ep.writes.latency_ns.is_empty(),
        "paper_hour makes no alarm writes"
    );
}

#[test]
fn churn_writes_are_acknowledged_and_leave_the_ground_truth_exact() {
    let steps = 240;
    let harness = world::build(SimulationConfig::smoke_test(), 11, steps);
    let setup = alarm_churn::setup(&harness, 2).expect("every hello is acknowledged");
    let ep = alarm_churn::run(&harness, setup, steps, 11, 1)
        .expect("firings match the ground truth and every write is acknowledged");
    assert!(!ep.fired.is_empty(), "the smoke trace fires alarms");
    assert_eq!(
        ep.writes.latency_ns.len() as u64,
        u64::from(steps) * alarm_churn::WRITES_PER_STEP,
        "the writer makes every write due, installs and removes alike"
    );
    assert_eq!(ep.writes.refused, 0);
    let invalidations = ep
        .registry
        .counter("sa_cache_invalidations_total", &[])
        .unwrap_or(0);
    let updates = ep
        .registry
        .counter("sa_server_location_updates_total", &[])
        .unwrap_or(0);
    assert!(
        updates > 0 && invalidations > 0,
        "writes reach the index and the region cache"
    );
}

#[test]
fn tcp_gateway_reproduces_the_ground_truth_over_the_reactor() {
    let rungs = [
        tcp_gateway::Rung {
            rate: 4_000.0,
            steps: 0..20,
            warm_up: true,
        },
        tcp_gateway::Rung {
            rate: 2_000.0,
            steps: 20..120,
            warm_up: false,
        },
    ];
    let harness = world::build(SimulationConfig::smoke_test(), 5, 120);
    let inputs = tcp_gateway::inputs(&harness, &rungs, 5);
    let setup = tcp_gateway::setup(&harness).expect("sessions open and the reactor binds");
    let (ep, outcomes) =
        tcp_gateway::run(&harness, setup, &inputs, 1).expect("firings match the ground truth");
    assert_eq!(outcomes.len(), 1, "the warm-up rung is not reported");
    assert_eq!(outcomes[0].updates, 100 * 12);
    assert_eq!(ep.rtt_ns.len(), 100 * 12);
    assert!(!ep.fired.is_empty() && ep.failed == 0);
    let closed = ep
        .registry
        .counters
        .iter()
        .filter(|(k, _)| k.name == "sa_net_closed_total");
    assert_eq!(
        closed.map(|(_, v)| v).sum::<u64>(),
        1,
        "the generator's connection was reaped"
    );
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    use sa_perfbench::{report, Episode};
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').map_or(json.len(), |e| start + e);
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let ep = Episode {
        cpu: Some(sa_perfbench::measure::CpuCost {
            ns_per_update: 1.0,
            late_slowdown: 1.0,
        }),
        ..Episode::default()
    };
    let names =
        |r: report::Report| -> Vec<String> { r.metrics.into_iter().map(|m| m.name).collect() };
    let e2e =
        report::end_to_end(std::slice::from_ref(&ep), &[0.1], &[1.0]).expect("complete episode");
    assert_eq!(names(e2e), section("end_to_end"));
    let mut layers = names(report::per_layer(&ep, 1.0));
    layers.extend(names(report::wall(std::slice::from_ref(&ep))));
    assert_eq!(layers, section("per_layer"));
}
