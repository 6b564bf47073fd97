//! Physical cluster topology: nodes, devices and the `bw(i, j)` function.

use crate::ids::id_range;
use crate::{
    DeviceId, NodeId, DEFAULT_INTER_BW, DEFAULT_INTER_LATENCY, DEFAULT_INTRA_BW,
    DEFAULT_INTRA_LATENCY,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification of the link between a pair of devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// The two endpoints are the same device; transfers are free.
    Local,
    /// Both devices share a node (NVLink class).
    IntraNode,
    /// The devices live on different nodes (InfiniBand class).
    InterNode,
    /// The devices live on different racks (constrained spine uplink;
    /// the cross-rack scenario of the paper's Sec. 7 discussion).
    InterRack,
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkKind::Local => "local",
            LinkKind::IntraNode => "intra-node",
            LinkKind::InterNode => "inter-node",
            LinkKind::InterRack => "inter-rack",
        };
        f.write_str(s)
    }
}

/// Error produced when constructing an invalid [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// The topology would contain zero devices.
    NoDevices,
    /// A bandwidth or latency parameter was non-positive or non-finite.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoDevices => write!(f, "topology must contain at least one device"),
            TopologyError::InvalidParameter { name, value } => {
                write!(f, "invalid topology parameter {name}: {value}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A homogeneous two-level cluster: `nodes × devices_per_node` accelerators.
///
/// Devices are numbered row-major: device `i` lives on node
/// `i / devices_per_node`, mirroring how `torch.distributed` ranks map onto
/// physical hosts in the paper's testbed.
///
/// The type exposes the two quantities the paper's cost model needs
/// (Tab. 1): `bw(i, j)` ([`Topology::bandwidth`]) and `node(i)`
/// ([`Topology::node_of`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: usize,
    devices_per_node: usize,
    intra_bw: f64,
    inter_bw: f64,
    intra_latency: f64,
    inter_latency: f64,
    /// `Some(nodes_per_rack)` enables the three-level hierarchy.
    #[serde(default)]
    nodes_per_rack: Option<usize>,
    /// Per-rack uplink bandwidth, bytes/second (ignored when two-level).
    #[serde(default)]
    rack_bw: f64,
    /// Inter-rack link latency, seconds.
    #[serde(default)]
    rack_latency: f64,
}

impl Topology {
    /// Creates a topology with the paper's default NVLink/IB parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoDevices`] if `nodes * devices_per_node`
    /// is zero.
    pub fn new(nodes: usize, devices_per_node: usize) -> Result<Self, TopologyError> {
        Self::with_bandwidths(nodes, devices_per_node, DEFAULT_INTRA_BW, DEFAULT_INTER_BW)
    }

    /// Creates a topology with explicit intra/inter-node bandwidths
    /// (bytes/second); latencies take the paper defaults.
    ///
    /// # Errors
    ///
    /// Returns an error if the device count is zero or a bandwidth is not a
    /// positive finite number.
    pub fn with_bandwidths(
        nodes: usize,
        devices_per_node: usize,
        intra_bw: f64,
        inter_bw: f64,
    ) -> Result<Self, TopologyError> {
        if nodes * devices_per_node == 0 {
            return Err(TopologyError::NoDevices);
        }
        check_positive("intra_bw", intra_bw)?;
        check_positive("inter_bw", inter_bw)?;
        Ok(Self {
            nodes,
            devices_per_node,
            intra_bw,
            inter_bw,
            intra_latency: DEFAULT_INTRA_LATENCY,
            inter_latency: DEFAULT_INTER_LATENCY,
            nodes_per_rack: None,
            rack_bw: 0.0,
            rack_latency: 0.0,
        })
    }

    /// Creates a three-level cluster: `racks × nodes_per_rack ×
    /// devices_per_node`, with a constrained per-rack spine uplink of
    /// `rack_bw` bytes/second (the cross-rack scenario of Sec. 7).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] for empty shapes or an invalid uplink
    /// bandwidth.
    pub fn with_racks(
        racks: usize,
        nodes_per_rack: usize,
        devices_per_node: usize,
        rack_bw: f64,
    ) -> Result<Self, TopologyError> {
        let mut topo = Self::new(racks * nodes_per_rack, devices_per_node)?;
        if nodes_per_rack == 0 {
            return Err(TopologyError::NoDevices);
        }
        check_positive("rack_bw", rack_bw)?;
        topo.nodes_per_rack = Some(nodes_per_rack);
        topo.rack_bw = rack_bw;
        topo.rack_latency = 2.0 * DEFAULT_INTER_LATENCY;
        Ok(topo)
    }

    /// Rack index of a device, when the topology is three-level.
    pub fn rack_of(&self, device: DeviceId) -> Option<usize> {
        let npr = self.nodes_per_rack?;
        Some(self.node_of(device).index() / npr)
    }

    /// Devices per rack (`None` for two-level topologies).
    pub fn devices_per_rack(&self) -> Option<usize> {
        self.nodes_per_rack.map(|npr| npr * self.devices_per_node)
    }

    /// Per-rack spine uplink bandwidth, bytes/second (0 when two-level).
    pub fn rack_bandwidth(&self) -> f64 {
        self.rack_bw
    }

    /// The exact hardware environment of the paper: 4 nodes × 8 A100s.
    pub fn paper_cluster() -> Self {
        Self::new(4, 8).unwrap_or_else(|e| unreachable!("paper cluster parameters are valid: {e}"))
    }

    /// A single node of 8 devices (the paper's 8-GPU scalability point).
    pub fn single_node(devices: usize) -> Result<Self, TopologyError> {
        Self::new(1, devices)
    }

    /// Total number of devices `N`.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.nodes * self.devices_per_node
    }

    /// Number of physical nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Devices hosted per node.
    #[inline]
    pub fn devices_per_node(&self) -> usize {
        self.devices_per_node
    }

    /// `node(i)` from Tab. 1: the node hosting device `i`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    #[inline]
    pub fn node_of(&self, device: DeviceId) -> NodeId {
        assert!(
            device.index() < self.num_devices(),
            "device {device} out of range (N = {})",
            self.num_devices()
        );
        NodeId::new(device.index() / self.devices_per_node)
    }

    /// Whether two devices share a node.
    #[inline]
    pub fn same_node(&self, a: DeviceId, b: DeviceId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Classifies the link between two devices.
    #[inline]
    pub fn link_kind(&self, a: DeviceId, b: DeviceId) -> LinkKind {
        if a == b {
            LinkKind::Local
        } else if self.same_node(a, b) {
            LinkKind::IntraNode
        } else if let (Some(ra), Some(rb)) = (self.rack_of(a), self.rack_of(b)) {
            if ra == rb {
                LinkKind::InterNode
            } else {
                LinkKind::InterRack
            }
        } else {
            LinkKind::InterNode
        }
    }

    /// `bw(i, j)` from Tab. 1, in bytes/second.
    ///
    /// Transfers between a device and itself are modelled as infinitely
    /// fast (`f64::INFINITY`), making `volume / bw` zero for local moves.
    #[inline]
    pub fn bandwidth(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.link(a, b).1
    }

    /// Link latency (alpha term) between two devices, in seconds.
    #[inline]
    pub fn latency(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.link(a, b).2
    }

    /// Kind, bandwidth and latency of the `a`–`b` link, classifying the
    /// link once. The one table from link kind to bandwidth and latency;
    /// [`Self::bandwidth`] and [`Self::latency`] read it.
    #[inline]
    pub fn link(&self, a: DeviceId, b: DeviceId) -> (LinkKind, f64, f64) {
        let kind = self.link_kind(a, b);
        let (bw, lat) = match kind {
            LinkKind::Local => (f64::INFINITY, 0.0),
            LinkKind::IntraNode => (self.intra_bw, self.intra_latency),
            LinkKind::InterNode => (self.inter_bw, self.inter_latency),
            LinkKind::InterRack => (self.rack_bw, self.rack_latency),
        };
        (kind, bw, lat)
    }

    /// Intra-node bandwidth `B_intra` in bytes/second.
    #[inline]
    pub fn intra_bandwidth(&self) -> f64 {
        self.intra_bw
    }

    /// Inter-node bandwidth `B_inter` in bytes/second.
    #[inline]
    pub fn inter_bandwidth(&self) -> f64 {
        self.inter_bw
    }

    /// Overrides the link latencies (seconds). Values must be finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] for negative or
    /// non-finite latencies.
    pub fn set_latencies(&mut self, intra: f64, inter: f64) -> Result<(), TopologyError> {
        check_non_negative("intra_latency", intra)?;
        check_non_negative("inter_latency", inter)?;
        self.intra_latency = intra;
        self.inter_latency = inter;
        Ok(())
    }

    /// Iterates over all device identifiers `0..N`.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> {
        id_range(self.num_devices())
    }

    /// Iterates over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        id_range(self.nodes)
    }

    /// Devices hosted on `node`, in ascending order.
    pub fn devices_on(&self, node: NodeId) -> impl Iterator<Item = DeviceId> {
        let start = node.index() * self.devices_per_node;
        (start..start + self.devices_per_node).map(DeviceId::new)
    }
}

fn check_positive(name: &'static str, value: f64) -> Result<(), TopologyError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(TopologyError::InvalidParameter { name, value })
    }
}

fn check_non_negative(name: &'static str, value: f64) -> Result<(), TopologyError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(TopologyError::InvalidParameter { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let t = Topology::paper_cluster();
        assert_eq!(t.num_devices(), 32);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.devices_per_node(), 8);
    }

    #[test]
    fn node_mapping_is_row_major() {
        let t = Topology::paper_cluster();
        assert_eq!(t.node_of(DeviceId::new(0)), NodeId::new(0));
        assert_eq!(t.node_of(DeviceId::new(7)), NodeId::new(0));
        assert_eq!(t.node_of(DeviceId::new(8)), NodeId::new(1));
        assert_eq!(t.node_of(DeviceId::new(31)), NodeId::new(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_out_of_range_panics() {
        let t = Topology::paper_cluster();
        let _ = t.node_of(DeviceId::new(32));
    }

    #[test]
    fn bandwidth_hierarchy() {
        let t = Topology::paper_cluster();
        let local = t.bandwidth(DeviceId::new(3), DeviceId::new(3));
        let intra = t.bandwidth(DeviceId::new(3), DeviceId::new(4));
        let inter = t.bandwidth(DeviceId::new(3), DeviceId::new(24));
        assert!(local.is_infinite());
        assert_eq!(intra, DEFAULT_INTRA_BW);
        assert_eq!(inter, DEFAULT_INTER_BW);
        assert!(intra > inter);
    }

    #[test]
    fn link_kinds() {
        let t = Topology::paper_cluster();
        assert_eq!(
            t.link_kind(DeviceId::new(1), DeviceId::new(1)),
            LinkKind::Local
        );
        assert_eq!(
            t.link_kind(DeviceId::new(1), DeviceId::new(2)),
            LinkKind::IntraNode
        );
        assert_eq!(
            t.link_kind(DeviceId::new(1), DeviceId::new(30)),
            LinkKind::InterNode
        );
    }

    #[test]
    fn latency_hierarchy() {
        let t = Topology::paper_cluster();
        assert_eq!(t.latency(DeviceId::new(0), DeviceId::new(0)), 0.0);
        assert!(t.latency(DeviceId::new(0), DeviceId::new(1)) > 0.0);
        assert!(
            t.latency(DeviceId::new(0), DeviceId::new(16))
                > t.latency(DeviceId::new(0), DeviceId::new(1))
        );
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(Topology::new(0, 8).unwrap_err(), TopologyError::NoDevices);
        assert_eq!(Topology::new(4, 0).unwrap_err(), TopologyError::NoDevices);
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        let err = Topology::with_bandwidths(1, 2, -1.0, 1.0).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::InvalidParameter {
                name: "intra_bw",
                ..
            }
        ));
        let err = Topology::with_bandwidths(1, 2, 1.0, f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::InvalidParameter {
                name: "inter_bw",
                ..
            }
        ));
    }

    #[test]
    fn devices_on_node() {
        let t = Topology::paper_cluster();
        let devs: Vec<_> = t.devices_on(NodeId::new(1)).collect();
        assert_eq!(devs.len(), 8);
        assert_eq!(devs[0], DeviceId::new(8));
        assert_eq!(devs[7], DeviceId::new(15));
    }

    #[test]
    fn devices_iterator_covers_all() {
        let t = Topology::new(2, 3).unwrap();
        let devs: Vec<_> = t.devices().collect();
        assert_eq!(devs.len(), 6);
        assert_eq!(devs[5], DeviceId::new(5));
    }

    #[test]
    fn set_latencies_validates() {
        let mut t = Topology::paper_cluster();
        assert!(t.set_latencies(0.0, 0.0).is_ok());
        assert_eq!(t.latency(DeviceId::new(0), DeviceId::new(1)), 0.0);
        assert!(t.set_latencies(-1.0, 0.0).is_err());
    }

    #[test]
    fn rack_topology_levels() {
        // 2 racks x 2 nodes x 4 devices, 25 GB/s rack uplink.
        let t = Topology::with_racks(2, 2, 4, 25.0e9).unwrap();
        assert_eq!(t.num_devices(), 16);
        assert_eq!(t.devices_per_rack(), Some(8));
        assert_eq!(t.rack_of(DeviceId::new(0)), Some(0));
        assert_eq!(t.rack_of(DeviceId::new(8)), Some(1));
        // Same node.
        assert_eq!(
            t.link_kind(DeviceId::new(0), DeviceId::new(3)),
            LinkKind::IntraNode
        );
        // Same rack, different node.
        assert_eq!(
            t.link_kind(DeviceId::new(0), DeviceId::new(4)),
            LinkKind::InterNode
        );
        // Different rack.
        assert_eq!(
            t.link_kind(DeviceId::new(0), DeviceId::new(12)),
            LinkKind::InterRack
        );
        // Bandwidth hierarchy: NVLink > IB > rack spine.
        let intra = t.bandwidth(DeviceId::new(0), DeviceId::new(1));
        let inter = t.bandwidth(DeviceId::new(0), DeviceId::new(4));
        let rack = t.bandwidth(DeviceId::new(0), DeviceId::new(12));
        assert!(intra > inter && inter > rack);
        // Latency hierarchy is the inverse.
        assert!(
            t.latency(DeviceId::new(0), DeviceId::new(12))
                > t.latency(DeviceId::new(0), DeviceId::new(4))
        );
    }

    #[test]
    fn two_level_topology_has_no_racks() {
        let t = Topology::paper_cluster();
        assert_eq!(t.rack_of(DeviceId::new(0)), None);
        assert_eq!(t.devices_per_rack(), None);
        assert_eq!(t.rack_bandwidth(), 0.0);
    }

    #[test]
    fn invalid_rack_params_rejected() {
        assert!(Topology::with_racks(2, 0, 4, 25.0e9).is_err());
        assert!(Topology::with_racks(2, 2, 4, -1.0).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = TopologyError::NoDevices.to_string();
        assert!(e.contains("at least one device"));
    }
}
