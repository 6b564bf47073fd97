//! The [`Interconnect`] abstraction: a read-only network view.
//!
//! Cost models (α–β collective estimates, the planner's Eq. 2–4
//! objective) only need link *queries* — kind, bandwidth, latency —
//! never the full [`Topology`] construction surface. Abstracting those
//! queries behind a trait lets a [`crate::DegradedView`] substitute
//! degraded link bandwidths (straggling NICs, flapping inter-node
//! links, failed devices) without every collective-time function
//! growing a second code path.

use crate::ids::{DeviceId, NodeId};
use crate::topology::{LinkKind, Topology};

/// Read-only queries over a cluster network.
///
/// Implemented by [`Topology`] (nominal bandwidths) and
/// [`crate::DegradedView`] (fault-adjusted bandwidths). All collective
/// cost models in the workspace are generic over this trait.
pub trait Interconnect {
    /// Number of devices in the cluster.
    fn num_devices(&self) -> usize;

    /// Devices per node.
    fn devices_per_node(&self) -> usize;

    /// Devices per rack, when the topology models racks.
    fn devices_per_rack(&self) -> Option<usize>;

    /// The node hosting `device`.
    fn node_of(&self, device: DeviceId) -> NodeId;

    /// Kind of link between two devices.
    fn link_kind(&self, a: DeviceId, b: DeviceId) -> LinkKind;

    /// Kind, bandwidth and latency of the `a`–`b` link in one query —
    /// the per-row lookup of the planner's Eq. 2 pricing. Its kind must
    /// equal [`Self::link_kind`]; bandwidth and latency are defined by it.
    fn link(&self, a: DeviceId, b: DeviceId) -> (LinkKind, f64, f64);

    /// Point-to-point bandwidth between two devices in bytes/s
    /// (`f64::INFINITY` for a device talking to itself).
    fn bandwidth(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.link(a, b).1
    }

    /// Point-to-point latency between two devices in seconds.
    fn latency(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.link(a, b).2
    }

    /// Whether two devices share a node.
    fn same_node(&self, a: DeviceId, b: DeviceId) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

impl Interconnect for Topology {
    fn num_devices(&self) -> usize {
        Topology::num_devices(self)
    }

    fn devices_per_node(&self) -> usize {
        Topology::devices_per_node(self)
    }

    fn devices_per_rack(&self) -> Option<usize> {
        Topology::devices_per_rack(self)
    }

    fn node_of(&self, device: DeviceId) -> NodeId {
        Topology::node_of(self, device)
    }

    fn link_kind(&self, a: DeviceId, b: DeviceId) -> LinkKind {
        Topology::link_kind(self, a, b)
    }

    fn link(&self, a: DeviceId, b: DeviceId) -> (LinkKind, f64, f64) {
        Topology::link(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The link table written out independently of [`Topology::link`]:
    /// the expected kind of the `a`–`b` link from node and rack
    /// arithmetic, and its bandwidth and latency from the constructor
    /// inputs.
    fn expected_link(topo: &Topology, a: DeviceId, b: DeviceId) -> (LinkKind, f64, f64) {
        let node = |d: DeviceId| d.index() / topo.devices_per_node();
        let rack = |d: DeviceId| topo.devices_per_rack().map(|dpr| d.index() / dpr);
        if a == b {
            (LinkKind::Local, f64::INFINITY, 0.0)
        } else if node(a) == node(b) {
            (
                LinkKind::IntraNode,
                crate::DEFAULT_INTRA_BW,
                crate::DEFAULT_INTRA_LATENCY,
            )
        } else if rack(a) == rack(b) {
            (
                LinkKind::InterNode,
                crate::DEFAULT_INTER_BW,
                crate::DEFAULT_INTER_LATENCY,
            )
        } else {
            (
                LinkKind::InterRack,
                topo.rack_bandwidth(),
                2.0 * crate::DEFAULT_INTER_LATENCY,
            )
        }
    }

    /// `net`'s single [`Interconnect::link`] query equals
    /// `(link_kind, bandwidth, latency)` bit for bit (`to_bits` also
    /// separates `0.0` from `-0.0`).
    fn link_matches_queries<I: Interconnect>(net: &I, a: DeviceId, b: DeviceId) {
        let (kind, bw, lat) = net.link(a, b);
        assert_eq!(kind, net.link_kind(a, b));
        assert_eq!(bw.to_bits(), net.bandwidth(a, b).to_bits());
        assert_eq!(lat.to_bits(), net.latency(a, b).to_bits());
    }

    /// `net` answers every pair like `topo`, its link table is the
    /// expected one, and its single link query equals the separate ones.
    fn queries_match<I: Interconnect>(net: &I, topo: &Topology) {
        assert_eq!(net.num_devices(), topo.num_devices());
        for a in topo.devices() {
            for b in topo.devices() {
                let (kind, bw, lat) = expected_link(topo, a, b);
                assert_eq!(net.link_kind(a, b), kind);
                assert_eq!(net.bandwidth(a, b).to_bits(), bw.to_bits());
                assert_eq!(net.latency(a, b).to_bits(), lat.to_bits());
                assert_eq!(net.same_node(a, b), topo.same_node(a, b));
                link_matches_queries(net, a, b);
            }
        }
    }

    #[test]
    fn topology_implements_itself() {
        let topo = Topology::paper_cluster();
        queries_match(&topo, &topo.clone());
        // Three levels: 2 racks x 2 nodes x 4 devices exercises every
        // link kind, `InterRack` included.
        let racked = Topology::with_racks(2, 2, 4, 5e9).unwrap();
        queries_match(&racked, &racked.clone());
    }

    /// A degraded view's single link query applies its link factors to
    /// the bandwidth only, on nominal and racked bases; its kind and
    /// latency are the base's.
    #[test]
    fn degraded_link_query_matches() {
        use crate::DegradedView;
        for base in [
            Topology::paper_cluster(),
            Topology::with_racks(2, 2, 4, 5e9).unwrap(),
        ] {
            let mut view = DegradedView::new(base.clone());
            view.degrade_link(DeviceId::new(0), DeviceId::new(9), 0.5);
            view.degrade_link(DeviceId::new(3), DeviceId::new(4), 0.25);
            view.degrade_link(DeviceId::new(1), DeviceId::new(1), 0.1);
            view.fail_device(DeviceId::new(6));
            for a in base.devices() {
                for b in base.devices() {
                    link_matches_queries(&view, a, b);
                    let (kind, bw, lat) = expected_link(&base, a, b);
                    let (vkind, vbw, vlat) = view.link(a, b);
                    assert_eq!(vkind, kind);
                    assert_eq!(vbw.to_bits(), (bw * view.link_factor(a, b)).to_bits());
                    assert_eq!(vlat.to_bits(), lat.to_bits());
                }
            }
            let (_, bw, _) = view.link(DeviceId::new(9), DeviceId::new(0));
            assert_eq!(bw, base.bandwidth(DeviceId::new(0), DeviceId::new(9)) * 0.5);
        }
    }

    #[test]
    fn trait_object_usable() {
        let topo = Topology::paper_cluster();
        let net: &dyn Interconnect = &topo;
        assert_eq!(net.num_devices(), 32);
        assert_eq!(net.devices_per_node(), 8);
    }
}
