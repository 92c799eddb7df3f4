use crate::{EnergyModel, ServerCostModel};

/// Operation counters for the two server cost centres the paper separates
/// in Figures 4(b) and 6(d): *alarm processing* (trigger checks against the
/// R*-tree) and *safe region computation*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerOps {
    /// R*-tree nodes visited by trigger-check (point) queries.
    pub alarm_query_nodes: u64,
    /// Entry rectangles tested by trigger-check queries.
    pub alarm_query_entries: u64,
    /// Location updates the server processed.
    pub location_updates: u64,
    /// R*-tree nodes visited while gathering alarms for safe-region /
    /// safe-period / alarm-set computation.
    pub region_query_nodes: u64,
    /// Entry rectangles tested by those gathering queries.
    pub region_query_entries: u64,
    /// Primitive operations spent computing safe regions (candidate
    /// processing, skyline assembly) or safe periods.
    pub region_compute_ops: u64,
    /// Cheap rectangle-vs-rectangle tests performed during bitmap
    /// safe-region construction (charged like index entry tests).
    pub region_cell_tests: u64,
    /// Number of safe-region (or safe-period / alarm-set) computations.
    pub region_computations: u64,
}

impl ServerOps {
    /// Merges counters from another shard.
    pub fn merge(&mut self, other: &ServerOps) {
        self.alarm_query_nodes += other.alarm_query_nodes;
        self.alarm_query_entries += other.alarm_query_entries;
        self.location_updates += other.location_updates;
        self.region_query_nodes += other.region_query_nodes;
        self.region_query_entries += other.region_query_entries;
        self.region_compute_ops += other.region_compute_ops;
        self.region_cell_tests += other.region_cell_tests;
        self.region_computations += other.region_computations;
    }
}

/// Aggregate counters for one strategy run — the raw material for every
/// figure of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// Client → server messages (Figures 4(a), 5(a), 6(a)).
    pub uplink_messages: u64,
    /// Server → client messages.
    pub downlink_messages: u64,
    /// Server → client payload bits (Figure 6(b)).
    pub downlink_bits: u64,
    /// Client-side primitive operations spent on containment checks /
    /// client-side alarm evaluation (Figures 5(b), 6(c)).
    pub client_check_ops: u64,
    /// Client-side containment checks / alarm evaluations performed.
    pub client_checks: u64,
    /// Position samples processed.
    pub samples: u64,
    /// Alarms triggered ((alarm, subscriber) pairs).
    pub triggers: u64,
    /// Server-side operation counters.
    pub server: ServerOps,
}

impl Metrics {
    /// Merges counters from another shard.
    pub fn merge(&mut self, other: &Metrics) {
        self.uplink_messages += other.uplink_messages;
        self.downlink_messages += other.downlink_messages;
        self.downlink_bits += other.downlink_bits;
        self.client_check_ops += other.client_check_ops;
        self.client_checks += other.client_checks;
        self.samples += other.samples;
        self.triggers += other.triggers;
        self.server.merge(&other.server);
    }

    /// Average downstream bandwidth in Mbps over a run of `duration_s`
    /// seconds (Figure 6(b)).
    ///
    /// # Panics
    ///
    /// Panics when `duration_s` is not positive.
    pub fn downlink_mbps(&self, duration_s: f64) -> f64 {
        assert!(duration_s > 0.0, "duration must be positive");
        self.downlink_bits as f64 / duration_s / 1.0e6
    }

    /// Total client energy in mWh under `model`, including radio costs.
    pub fn client_energy_mwh(&self, model: &EnergyModel) -> f64 {
        self.client_check_energy_mwh(model)
            + model.tx_message_mwh * self.uplink_messages as f64
            + model.rx_bit_mwh * self.downlink_bits as f64
    }

    /// Client energy spent purely on containment detection / client-side
    /// alarm evaluation, in mWh — the quantity Figures 5(b) and 6(c)
    /// report ("energy used to determine client position within the safe
    /// region").
    pub fn client_check_energy_mwh(&self, model: &EnergyModel) -> f64 {
        model.check_base_mwh * self.client_checks as f64
            + model.check_op_mwh * self.client_check_ops as f64
    }

    /// Server time spent on alarm processing, in minutes, under `model`
    /// (the dark bars of Figures 4(b), 6(d)).
    pub fn alarm_processing_minutes(&self, model: &ServerCostModel) -> f64 {
        (self.server.alarm_query_nodes as f64 * model.node_visit_us
            + self.server.alarm_query_entries as f64 * model.entry_test_us
            + self.server.location_updates as f64 * model.update_handling_us)
            / 60.0e6
    }

    /// Server time spent computing safe regions (or safe periods / OPT
    /// alarm sets), in minutes (the light bars of Figures 4(b), 6(d)).
    pub fn safe_region_minutes(&self, model: &ServerCostModel) -> f64 {
        (self.server.region_query_nodes as f64 * model.node_visit_us
            + self.server.region_query_entries as f64 * model.entry_test_us
            + self.server.region_cell_tests as f64 * model.entry_test_us
            + self.server.region_compute_ops as f64 * model.region_op_us)
            / 60.0e6
    }

    /// Total server processing time in minutes.
    pub fn total_server_minutes(&self, model: &ServerCostModel) -> f64 {
        self.alarm_processing_minutes(model) + self.safe_region_minutes(model)
    }

    /// Publishes the counters onto an [`sa_obs::Registry`] as
    /// `{strategy="…"}`-labelled counters, so a simulator run is
    /// scrapeable/renderable through the same exposition path as the live
    /// server. Counters are monotonic: publish a finished run's metrics
    /// once per registry (publishing twice adds, it does not overwrite).
    pub fn publish(&self, registry: &sa_obs::Registry, strategy: &str) {
        let labels = [("strategy", strategy)];
        let series: [(&str, u64); 10] = [
            ("sa_sim_uplink_messages_total", self.uplink_messages),
            ("sa_sim_downlink_messages_total", self.downlink_messages),
            ("sa_sim_downlink_bits_total", self.downlink_bits),
            ("sa_sim_client_check_ops_total", self.client_check_ops),
            ("sa_sim_client_checks_total", self.client_checks),
            ("sa_sim_samples_total", self.samples),
            ("sa_sim_triggers_total", self.triggers),
            ("sa_sim_server_location_updates_total", self.server.location_updates),
            ("sa_sim_server_region_computations_total", self.server.region_computations),
            (
                "sa_sim_server_region_compute_ops_total",
                self.server.region_compute_ops,
            ),
        ];
        for (name, value) in series {
            registry.counter_with(name, &labels).add(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        Metrics {
            uplink_messages: 100,
            downlink_messages: 40,
            downlink_bits: 8_000_000,
            client_check_ops: 5_000,
            client_checks: 1_000,
            samples: 10_000,
            triggers: 7,
            server: ServerOps {
                alarm_query_nodes: 600,
                alarm_query_entries: 2_400,
                location_updates: 100,
                region_query_nodes: 300,
                region_query_entries: 900,
                region_compute_ops: 1_500,
                region_cell_tests: 700,
                region_computations: 40,
            },
        }
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = sample_metrics();
        let b = sample_metrics();
        a.merge(&b);
        assert_eq!(a.uplink_messages, 200);
        assert_eq!(a.downlink_bits, 16_000_000);
        assert_eq!(a.server.region_compute_ops, 3_000);
        assert_eq!(a.server.region_cell_tests, 1_400);
        assert_eq!(a.triggers, 14);
    }

    #[test]
    fn bandwidth_uses_megabits() {
        let m = sample_metrics();
        // 8 Mbit over 8 seconds = 1 Mbps.
        assert!((m.downlink_mbps(8.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_is_monotone_in_work() {
        let model = EnergyModel::default();
        let base = sample_metrics().client_energy_mwh(&model);
        let mut heavier = sample_metrics();
        heavier.client_check_ops *= 10;
        assert!(heavier.client_energy_mwh(&model) > base);
    }

    #[test]
    fn server_minutes_split_is_additive() {
        let model = ServerCostModel::default();
        let m = sample_metrics();
        let total = m.total_server_minutes(&model);
        assert!(
            (total - m.alarm_processing_minutes(&model) - m.safe_region_minutes(&model)).abs()
                < 1e-15
        );
        assert!(total > 0.0);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn bandwidth_rejects_zero_duration() {
        sample_metrics().downlink_mbps(0.0);
    }

    #[test]
    fn publish_labels_series_by_strategy() {
        let registry = sa_obs::Registry::new();
        sample_metrics().publish(&registry, "pbsr");
        sample_metrics().publish(&registry, "opt");
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("sa_sim_uplink_messages_total", &[("strategy", "pbsr")]),
            Some(100)
        );
        assert_eq!(
            snap.counter("sa_sim_server_region_computations_total", &[("strategy", "opt")]),
            Some(40)
        );
        let text = sa_obs::render_snapshot(&snap);
        assert!(text.contains("sa_sim_triggers_total{strategy=\"pbsr\"} 7"));
    }
}
