//! Cross-commit pins on the federation replay: each gating case must
//! keep producing the exact [`sa_fed::FedOutcome`] digest recorded
//! here (the digest folds every exchange on every link). The gate in
//! `fuzz.rs` only compares two runs of one build; these pins catch
//! drift between builds.

use sa_fed::{fed_replay, handoff_during_disconnect_case, repartition_during_batch_case, FedCase};

fn assert_pinned(case: &FedCase, pinned: u64) {
    let outcome = fed_replay(&case.config).expect("transport must hold");
    outcome.verification.as_ref().expect("federation replay must match the ground truth");
    assert_eq!(
        outcome.digest, pinned,
        "federation digest drifted for {}: got {:#018x}",
        case.name, outcome.digest
    );
}

#[test]
fn handoff_during_disconnect_keeps_its_digest() {
    assert_pinned(&handoff_during_disconnect_case(), 0xfe45_5587_4ed3_3199);
}

#[test]
fn repartition_during_batch_keeps_its_digest() {
    assert_pinned(&repartition_during_batch_case(), 0x89e7_6609_9b1a_987e);
}
