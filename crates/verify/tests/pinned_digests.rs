//! Cross-commit transcript pins: three fixed [`FuzzCase`]s must keep
//! producing the exact [`sa_verify::CaseOutcome::digest`] recorded
//! here. The determinism tests only compare two runs of the same
//! build; these pins catch byte-level drift between builds — a
//! refactor of the replay driver must not change a single frame.
//!
//! A deliberate protocol change (new frame layout, new exchange) moves
//! the digests; re-record them then, and say why in the commit.

use sa_server::{FaultPlan, StrategySpec};
use sa_verify::{run_case, FuzzCase};

fn case(seed: u64, plan: FaultPlan, batch_every: u32) -> FuzzCase {
    FuzzCase {
        seed,
        vehicles: 4,
        alarms: 24,
        steps: 72,
        strategies: vec![
            StrategySpec::Mwpsr,
            StrategySpec::Pbsr { height: 3 },
            StrategySpec::Opt,
            StrategySpec::SafePeriod,
        ],
        plan,
        batch_every,
        num_shards: 2,
        queue_capacity: 16,
    }
}

fn assert_pinned(case: &FuzzCase, pinned: u64) {
    let outcome = run_case(case).expect("transport must hold");
    outcome.assert_clean();
    assert_eq!(
        outcome.injected_total > 0,
        case.plan != FaultPlan::clean(),
        "faults must fly exactly when the plan has them"
    );
    assert_eq!(
        outcome.digest, pinned,
        "transcript digest drifted for seed {:#x}: got {:#018x}",
        case.seed, outcome.digest
    );
}

#[test]
fn clean_per_request_case_keeps_its_digest() {
    assert_pinned(&case(0x5EED_0001, FaultPlan::clean(), 0), 0x414f_8dcf_4ad5_4f9f);
}

#[test]
fn lossy_case_with_a_disconnect_window_keeps_its_digest() {
    let plan = FaultPlan::lossy(0x5EED_0002);
    assert!(!plan.disconnect_steps.is_empty(), "the lossy preset must carry an outage");
    assert_pinned(&case(0x5EED_0002, plan, 0), 0xa59e_b2b7_e459_5682);
}

#[test]
fn clean_batched_case_keeps_its_digest() {
    assert_pinned(&case(0x5EED_0003, FaultPlan::clean(), 2), 0xad45_4739_ccd1_0694);
}
