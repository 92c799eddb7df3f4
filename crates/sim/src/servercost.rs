/// Server processing-time model (paper Figures 4(b), 6(d)).
///
/// The paper reports wall-clock minutes on its testbed; we substitute a
/// deterministic operation-cost model (see `DESIGN.md` §4): every counted
/// server operation is charged a fixed cost in microseconds, and the
/// totals are reported in "server minutes". The *split* between alarm
/// processing and safe-region computation and its response to cell size /
/// strategy — the properties the figures argue about — are preserved
/// exactly; the absolute scale is calibrated to land in the figures'
/// 0–15 minute range at paper scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCostModel {
    /// Cost of visiting one R*-tree node, µs.
    pub node_visit_us: f64,
    /// Cost of testing one entry rectangle, µs.
    pub entry_test_us: f64,
    /// Fixed cost of handling one location update (parse, session lookup),
    /// µs.
    pub update_handling_us: f64,
    /// Cost of one safe-region computation primitive (candidate-point
    /// processing, bitmap cell test, safe-period distance evaluation), µs.
    pub region_op_us: f64,
}

impl Default for ServerCostModel {
    fn default() -> ServerCostModel {
        ServerCostModel {
            node_visit_us: 1.2,
            entry_test_us: 0.15,
            update_handling_us: 6.0,
            region_op_us: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_paper_scale_lands_in_figure_6d_range() {
        // Periodic at paper scale: 36M updates, each a point query visiting
        // a handful of nodes.
        let m = ServerCostModel::default();
        let updates = 36.0e6;
        let minutes = (updates * (m.update_handling_us + 4.0 * m.node_visit_us + 60.0 * m.entry_test_us)) / 60.0e6;
        assert!(
            (5.0..60.0).contains(&minutes),
            "periodic server time {minutes} minutes"
        );
    }

    #[test]
    fn costs_are_positive() {
        let m = ServerCostModel::default();
        assert!(m.node_visit_us > 0.0);
        assert!(m.entry_test_us > 0.0);
        assert!(m.update_handling_us > 0.0);
        assert!(m.region_op_us > 0.0);
    }
}
