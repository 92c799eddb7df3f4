use sa_geometry::{Point, Rect};

/// Index of a junction in a [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a road segment in a [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Functional class of a road segment, determining its travel speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Limited-access highway.
    Highway,
    /// Major surface street.
    Arterial,
    /// Residential / local street.
    Local,
}

impl RoadClass {
    /// Design speed in meters per second (≈ 105 / 60 / 40 km/h).
    pub fn speed_mps(self) -> f64 {
        match self {
            RoadClass::Highway => 29.0,
            RoadClass::Arterial => 16.5,
            RoadClass::Local => 11.0,
        }
    }
}

/// A junction of the road network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadNode {
    /// Stable identifier (equal to the node's index).
    pub id: NodeId,
    /// Position in universe coordinates (meters).
    pub pos: Point,
}

/// An undirected road segment between two junctions. Vehicles may traverse
/// it in either direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadEdge {
    /// Stable identifier (equal to the edge's index).
    pub id: EdgeId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Segment length in meters (straight-line between endpoints).
    pub length: f64,
    /// Functional class, determining travel speed.
    pub class: RoadClass,
}

impl RoadEdge {
    /// Travel time to traverse the whole segment at design speed, seconds.
    pub fn travel_time(&self) -> f64 {
        self.length / self.class.speed_mps()
    }

    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n:?} is not an endpoint of edge {:?}", self.id)
        }
    }
}

/// An undirected road network with adjacency lists.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadNetwork {
    nodes: Vec<RoadNode>,
    edges: Vec<RoadEdge>,
    /// `adjacency[node] = edges incident to node`.
    adjacency: Vec<Vec<EdgeId>>,
}

impl RoadNetwork {
    /// Builds a network from nodes and endpoint pairs.
    ///
    /// # Panics
    ///
    /// Panics when an edge references a missing node or is a self-loop.
    pub fn new(node_positions: Vec<Point>, edge_specs: Vec<(u32, u32, RoadClass)>) -> RoadNetwork {
        let nodes: Vec<RoadNode> = node_positions
            .into_iter()
            .enumerate()
            .map(|(i, pos)| RoadNode { id: NodeId(i as u32), pos })
            .collect();
        let mut adjacency: Vec<Vec<EdgeId>> = vec![Vec::new(); nodes.len()];
        let mut edges = Vec::with_capacity(edge_specs.len());
        for (i, (a, b, class)) in edge_specs.into_iter().enumerate() {
            assert!(a != b, "self-loop edges are not allowed");
            let pa = nodes[a as usize].pos;
            let pb = nodes[b as usize].pos;
            let edge = RoadEdge {
                id: EdgeId(i as u32),
                a: NodeId(a),
                b: NodeId(b),
                length: pa.distance(pb).max(1.0e-6),
                class,
            };
            adjacency[a as usize].push(edge.id);
            adjacency[b as usize].push(edge.id);
            edges.push(edge);
        }
        RoadNetwork { nodes, edges, adjacency }
    }

    /// Number of junctions.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of road segments.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Junction lookup.
    pub fn node(&self, id: NodeId) -> &RoadNode {
        &self.nodes[id.0 as usize]
    }

    /// Segment lookup.
    pub fn edge(&self, id: EdgeId) -> &RoadEdge {
        &self.edges[id.0 as usize]
    }

    /// All junctions.
    pub fn nodes(&self) -> &[RoadNode] {
        &self.nodes
    }

    /// All segments.
    pub fn edges(&self) -> &[RoadEdge] {
        &self.edges
    }

    /// Edges incident to `n`.
    pub fn incident_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.adjacency[n.0 as usize]
    }

    /// Smallest rectangle containing all junctions.
    ///
    /// # Panics
    ///
    /// Panics on an empty network.
    pub fn bounding_box(&self) -> Rect {
        let mut it = self.nodes.iter();
        let first = it.next().expect("network has at least one node");
        it.fold(Rect::point(first.pos), |acc, n| acc.extended_to(n.pos))
    }

    /// Total road length in meters.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.length).sum()
    }

    /// True when every junction can reach every other junction.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for &eid in self.incident_edges(n) {
                let m = self.edge(eid).other(n);
                if !seen[m.0 as usize] {
                    seen[m.0 as usize] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Position along edge `eid` at `progress ∈ [0, 1]` measured from
    /// endpoint `from`.
    pub fn position_on_edge(&self, eid: EdgeId, from: NodeId, progress: f64) -> Point {
        let e = self.edge(eid);
        let (pa, pb) = if from == e.a {
            (self.node(e.a).pos, self.node(e.b).pos)
        } else {
            (self.node(e.b).pos, self.node(e.a).pos)
        };
        pa.lerp(pb, progress.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        RoadNetwork::new(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(0.0, 100.0)],
            vec![
                (0, 1, RoadClass::Local),
                (1, 2, RoadClass::Arterial),
                (2, 0, RoadClass::Highway),
            ],
        )
    }

    #[test]
    fn edge_lengths_are_euclidean() {
        let net = triangle();
        assert!((net.edge(EdgeId(0)).length - 100.0).abs() < 1e-9);
        assert!((net.edge(EdgeId(1)).length - (2.0f64).sqrt() * 100.0).abs() < 1e-9);
    }

    #[test]
    fn adjacency_lists_are_symmetric() {
        let net = triangle();
        for e in net.edges() {
            assert!(net.incident_edges(e.a).contains(&e.id));
            assert!(net.incident_edges(e.b).contains(&e.id));
        }
        assert_eq!(net.incident_edges(NodeId(0)).len(), 2);
    }

    #[test]
    fn other_endpoint_round_trips() {
        let net = triangle();
        let e = net.edge(EdgeId(1));
        assert_eq!(e.other(e.a), e.b);
        assert_eq!(e.other(e.b), e.a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_foreign_node() {
        let net = triangle();
        net.edge(EdgeId(0)).other(NodeId(2));
    }

    #[test]
    fn connectivity_detection() {
        let net = triangle();
        assert!(net.is_connected());
        let disconnected = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(11.0, 10.0),
            ],
            vec![(0, 1, RoadClass::Local), (2, 3, RoadClass::Local)],
        );
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn position_on_edge_interpolates_both_directions() {
        let net = triangle();
        let mid_fwd = net.position_on_edge(EdgeId(0), NodeId(0), 0.5);
        let mid_rev = net.position_on_edge(EdgeId(0), NodeId(1), 0.5);
        assert_eq!(mid_fwd, mid_rev);
        assert_eq!(net.position_on_edge(EdgeId(0), NodeId(0), 0.0), Point::new(0.0, 0.0));
        assert_eq!(net.position_on_edge(EdgeId(0), NodeId(1), 0.0), Point::new(100.0, 0.0));
        // Progress clamps.
        assert_eq!(net.position_on_edge(EdgeId(0), NodeId(0), 2.0), Point::new(100.0, 0.0));
    }

    #[test]
    fn class_speeds_are_ordered() {
        assert!(RoadClass::Highway.speed_mps() > RoadClass::Arterial.speed_mps());
        assert!(RoadClass::Arterial.speed_mps() > RoadClass::Local.speed_mps());
    }

    #[test]
    fn travel_time_uses_class_speed() {
        let net = triangle();
        let e = net.edge(EdgeId(0));
        assert!((e.travel_time() - 100.0 / RoadClass::Local.speed_mps()).abs() < 1e-9);
    }

    #[test]
    fn bounding_box_and_total_length() {
        let net = triangle();
        assert_eq!(net.bounding_box(), Rect::new(0.0, 0.0, 100.0, 100.0).unwrap());
        assert!(net.total_length() > 300.0);
    }
}
