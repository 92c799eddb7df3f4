use sa_alarms::{AlarmId, SubscriberId};
use std::collections::HashMap;

/// One ground-truth (or strategy-observed) alarm firing: subscriber
/// `subscriber` first satisfied alarm `alarm`'s spatial condition at
/// simulation step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiredEvent {
    /// The subscriber the alarm fired for.
    pub subscriber: SubscriberId,
    /// The alarm that fired.
    pub alarm: AlarmId,
    /// The simulation step (sample index) of the firing.
    pub step: u32,
}

/// The reference alarm sequence, derived from the high-frequency trace
/// exactly as the paper does: "the sequence of alarms to be triggered is
/// determined by a very high frequency trace of the motion pattern of the
/// vehicles" (§5). Every strategy run is compared against it — set *and*
/// timing must match for the run to count as 100% accurate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroundTruth {
    events: Vec<FiredEvent>,
}

impl GroundTruth {
    /// Wraps a set of reference events (sorted internally).
    pub fn new(mut events: Vec<FiredEvent>) -> GroundTruth {
        events.sort_unstable();
        GroundTruth { events }
    }

    /// The reference events, sorted by (subscriber, alarm, step).
    pub fn events(&self) -> &[FiredEvent] {
        &self.events
    }

    /// Number of reference firings.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no alarm ever fires in the reference trace.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// [`GroundTruth::verify`] against the reference restricted to the
    /// first `steps` steps. A firing at step `s` depends only on samples
    /// up to `s`, so the restricted reference is exact for a run that
    /// stopped after `steps` steps.
    ///
    /// # Errors
    ///
    /// The discrepancy description, as for [`GroundTruth::verify`].
    pub fn verify_prefix(&self, steps: u32, observed: &[FiredEvent]) -> Result<(), String> {
        let events = self.events.iter().filter(|e| e.step < steps).copied().collect();
        GroundTruth { events }.verify(observed)
    }

    /// Compares a strategy's observed firings against the reference.
    /// Returns `Ok(())` on an exact match (same (subscriber, alarm) pairs,
    /// same firing steps) and a human-readable discrepancy description
    /// otherwise.
    pub fn verify(&self, observed: &[FiredEvent]) -> Result<(), String> {
        let mut got = observed.to_vec();
        got.sort_unstable();
        if got == self.events {
            return Ok(());
        }
        let key = |e: &FiredEvent| (e.subscriber, e.alarm);
        let expected_map: HashMap<_, u32> = self.events.iter().map(|e| (key(e), e.step)).collect();
        let got_map: HashMap<_, u32> = got.iter().map(|e| (key(e), e.step)).collect();
        let mut problems = Vec::new();
        for e in &self.events {
            match got_map.get(&key(e)) {
                None => problems.push(format!(
                    "MISSED: {} for {} (expected at step {})",
                    e.alarm, e.subscriber, e.step
                )),
                Some(&s) if s != e.step => problems.push(format!(
                    "LATE/EARLY: {} for {} at step {s}, expected {}",
                    e.alarm, e.subscriber, e.step
                )),
                _ => {}
            }
        }
        for e in &got {
            if !expected_map.contains_key(&key(e)) {
                problems.push(format!(
                    "SPURIOUS: {} for {} at step {}",
                    e.alarm, e.subscriber, e.step
                ));
            }
        }
        problems.truncate(20);
        Err(format!(
            "{} discrepancies (expected {} firings, observed {}): {}",
            problems.len(),
            self.events.len(),
            got.len(),
            problems.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sub: u32, alarm: u64, step: u32) -> FiredEvent {
        FiredEvent { subscriber: SubscriberId(sub), alarm: AlarmId(alarm), step }
    }

    #[test]
    fn exact_match_verifies() {
        let gt = GroundTruth::new(vec![ev(1, 10, 5), ev(2, 11, 7)]);
        // Order of observation must not matter.
        assert!(gt.verify(&[ev(2, 11, 7), ev(1, 10, 5)]).is_ok());
    }

    #[test]
    fn prefix_verification_ignores_later_firings() {
        let gt = GroundTruth::new(vec![ev(1, 10, 5), ev(2, 11, 7)]);
        assert!(gt.verify_prefix(6, &[ev(1, 10, 5)]).is_ok());
        assert!(gt.verify_prefix(8, &[ev(1, 10, 5)]).unwrap_err().contains("MISSED"));
        assert!(gt.verify_prefix(6, &[ev(1, 10, 5), ev(2, 11, 7)]).is_err());
    }

    #[test]
    fn missing_firing_is_reported() {
        let gt = GroundTruth::new(vec![ev(1, 10, 5), ev(2, 11, 7)]);
        let err = gt.verify(&[ev(1, 10, 5)]).unwrap_err();
        assert!(err.contains("MISSED"), "{err}");
    }

    #[test]
    fn late_firing_is_reported() {
        let gt = GroundTruth::new(vec![ev(1, 10, 5)]);
        let err = gt.verify(&[ev(1, 10, 6)]).unwrap_err();
        assert!(err.contains("LATE"), "{err}");
    }

    #[test]
    fn spurious_firing_is_reported() {
        let gt = GroundTruth::new(vec![]);
        let err = gt.verify(&[ev(1, 10, 5)]).unwrap_err();
        assert!(err.contains("SPURIOUS"), "{err}");
        assert!(gt.is_empty());
    }
}
