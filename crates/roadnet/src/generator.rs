use crate::{RoadClass, RoadNetwork};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sa_geometry::Point;

/// Configuration of the synthetic road-network generator.
///
/// The defaults reproduce the paper's setting: a universe of roughly
/// 1000 km² (31.6 km × 31.6 km) covered by a hierarchical road grid.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Side of the square universe in meters.
    pub universe_side_m: f64,
    /// Spacing of the junction lattice in meters.
    pub junction_spacing_m: f64,
    /// Fraction of each lattice spacing used as random positional jitter
    /// (`0.0` = perfectly regular grid). Must be `< 0.5` to keep lattice
    /// neighbours geometrically sensible.
    pub jitter_fraction: f64,
    /// Probability of deleting a candidate local road segment, creating
    /// irregular blocks. Deletions that would disconnect the network are
    /// rolled back.
    pub dropout: f64,
    /// Every `highway_period`-th row/column of the lattice is a highway.
    pub highway_period: u32,
    /// Every `arterial_period`-th row/column is (at least) an arterial.
    pub arterial_period: u32,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> NetworkConfig {
        NetworkConfig {
            universe_side_m: 31_623.0, // ≈ 1000 km², the paper's Atlanta extent
            junction_spacing_m: 1_000.0,
            jitter_fraction: 0.25,
            dropout: 0.08,
            highway_period: 8,
            arterial_period: 2,
            seed: 0x5A1A_0001,
        }
    }
}

impl NetworkConfig {
    /// A tiny 4 km × 4 km network for fast unit tests.
    pub fn small_test() -> NetworkConfig {
        NetworkConfig {
            universe_side_m: 4_000.0,
            junction_spacing_m: 500.0,
            seed: 7,
            ..NetworkConfig::default()
        }
    }
}

/// Generates a connected hierarchical road network.
///
/// Junctions form a jittered lattice; lattice-neighbour pairs become road
/// segments. Rows/columns at the configured periods are upgraded to
/// arterials and highways, mirroring the hierarchy of a real urban network
/// (the substitution for the USGS Atlanta map — see `DESIGN.md` §4).
///
/// # Panics
///
/// Panics when the configuration is degenerate (non-positive sizes, jitter
/// ≥ 0.5, or a lattice with fewer than 2×2 junctions).
pub fn generate_network(config: &NetworkConfig) -> RoadNetwork {
    assert!(
        config.universe_side_m > 0.0 && config.junction_spacing_m > 0.0,
        "universe and spacing must be positive"
    );
    assert!(
        (0.0..0.5).contains(&config.jitter_fraction),
        "jitter_fraction must be in [0, 0.5)"
    );
    let n = (config.universe_side_m / config.junction_spacing_m).round() as u32 + 1;
    assert!(n >= 2, "lattice must have at least 2x2 junctions");
    assert!(config.highway_period >= 1 && config.arterial_period >= 1);

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let spacing = config.universe_side_m / (n - 1) as f64;
    let jitter = spacing * config.jitter_fraction;

    // Jittered lattice positions; boundary nodes stay on the boundary so the
    // network spans the whole universe.
    let mut positions = Vec::with_capacity((n * n) as usize);
    for row in 0..n {
        for col in 0..n {
            let base_x = col as f64 * spacing;
            let base_y = row as f64 * spacing;
            let dx = if col == 0 || col == n - 1 { 0.0 } else { rng.gen_range(-jitter..=jitter) };
            let dy = if row == 0 || row == n - 1 { 0.0 } else { rng.gen_range(-jitter..=jitter) };
            positions.push(Point::new(
                (base_x + dx).clamp(0.0, config.universe_side_m),
                (base_y + dy).clamp(0.0, config.universe_side_m),
            ));
        }
    }

    let id = |col: u32, row: u32| row * n + col;
    let line_class = |index: u32| {
        if index.is_multiple_of(config.highway_period) {
            RoadClass::Highway
        } else if index.is_multiple_of(config.arterial_period) {
            RoadClass::Arterial
        } else {
            RoadClass::Local
        }
    };

    // Candidate segments: 4-neighbour lattice edges. Horizontal segments
    // inherit the class of their row; vertical segments the class of their
    // column.
    let mut specs: Vec<(u32, u32, RoadClass)> = Vec::new();
    for row in 0..n {
        for col in 0..n {
            if col + 1 < n {
                specs.push((id(col, row), id(col + 1, row), line_class(row)));
            }
            if row + 1 < n {
                specs.push((id(col, row), id(col, row + 1), line_class(col)));
            }
        }
    }

    // Randomly drop local segments to create irregular blocks, keeping the
    // network connected: build once with all edges, then re-check after each
    // tentative batch would be costly, so instead drop only edges whose
    // removal provably keeps both endpoints well-connected (degree > 2) and
    // verify global connectivity once at the end, restoring dropped edges if
    // needed.
    let mut degree = vec![0u32; (n * n) as usize];
    for &(a, b, _) in &specs {
        degree[a as usize] += 1;
        degree[b as usize] += 1;
    }
    let mut kept: Vec<(u32, u32, RoadClass)> = Vec::with_capacity(specs.len());
    let mut dropped: Vec<(u32, u32, RoadClass)> = Vec::new();
    for spec in specs {
        let (a, b, class) = spec;
        let droppable = class == RoadClass::Local
            && degree[a as usize] > 2
            && degree[b as usize] > 2
            && rng.gen_bool(config.dropout);
        if droppable {
            degree[a as usize] -= 1;
            degree[b as usize] -= 1;
            dropped.push(spec);
        } else {
            kept.push(spec);
        }
    }

    let mut network = RoadNetwork::new(positions.clone(), kept.clone());
    if !network.is_connected() {
        // Rare: restore all dropped segments. Correctness over sparsity.
        kept.extend(dropped);
        network = RoadNetwork::new(positions, kept);
    }
    debug_assert!(network.is_connected());
    network
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_network_spans_the_paper_universe() {
        let net = generate_network(&NetworkConfig::default());
        let bb = net.bounding_box();
        assert!((bb.width() - 31_623.0).abs() < 1.0);
        assert!((bb.height() - 31_623.0).abs() < 1.0);
        // ~32x32 lattice
        assert!(net.node_count() >= 32 * 32);
        assert!(net.is_connected());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_network(&NetworkConfig::small_test());
        let b = generate_network(&NetworkConfig::small_test());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_network(&NetworkConfig::small_test());
        let b = generate_network(&NetworkConfig { seed: 8, ..NetworkConfig::small_test() });
        assert_ne!(a, b);
    }

    #[test]
    fn contains_all_three_road_classes() {
        let net = generate_network(&NetworkConfig::default());
        let mut has = std::collections::HashSet::new();
        for e in net.edges() {
            has.insert(e.class);
        }
        assert!(has.contains(&RoadClass::Highway));
        assert!(has.contains(&RoadClass::Arterial));
        assert!(has.contains(&RoadClass::Local));
    }

    #[test]
    fn dropout_reduces_edges_but_preserves_connectivity() {
        let dense = generate_network(&NetworkConfig { dropout: 0.0, ..NetworkConfig::small_test() });
        let sparse = generate_network(&NetworkConfig { dropout: 0.3, ..NetworkConfig::small_test() });
        assert!(sparse.edge_count() < dense.edge_count());
        assert!(sparse.is_connected());
    }

    #[test]
    fn zero_jitter_gives_regular_grid() {
        let net = generate_network(&NetworkConfig {
            jitter_fraction: 0.0,
            dropout: 0.0,
            ..NetworkConfig::small_test()
        });
        // 9x9 lattice at 500 m spacing over 4 km.
        assert_eq!(net.node_count(), 81);
        // Every interior junction has degree 4.
        let interior_degree = net.incident_edges(crate::NodeId(4 * 9 + 4)).len();
        assert_eq!(interior_degree, 4);
    }

    #[test]
    #[should_panic(expected = "jitter_fraction")]
    fn rejects_excessive_jitter() {
        generate_network(&NetworkConfig { jitter_fraction: 0.6, ..NetworkConfig::small_test() });
    }
}
