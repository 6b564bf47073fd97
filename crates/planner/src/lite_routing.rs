//! The lite routing algorithm — Alg. 3 of the paper (Appendix B).
//!
//! The token dispatcher must pick a replica for every token *fast* and
//! without global coordination: it uses only the (globally known) expert
//! layout and the device's own routing demand. For each expert, tokens
//! are spread evenly over the replicas inside the sender's node when any
//! exist, and evenly over all replicas otherwise — minimising inter-node
//! transfers, the paper's consideration (1).
//!
//! One traversal (sources ascending, experts ascending, each cell's rows
//! in target order) produces every row, and the entry points differ only
//! in what they do with a row. [`lite_route`], [`lite_route_with`] and
//! [`lite_route_into`] push it into a [`TokenRouting`]; the tuner's
//! route-and-price pass folds it straight into Eq. 2 without
//! materialising the routing. A cell's intra-node targets are read per
//! cell; the global fallback reads per-expert replica lists that the
//! caller's [`RouteScratch`] builds once per call, on the first cell that
//! needs them, so a layout that never falls back never builds them.

use crate::cost::{CostAccumulator, CostBreakdown, CostParams};
use crate::layout::ExpertLayout;
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, Interconnect, Topology};
use laer_routing::RoutingMatrix;

/// Reusable buffers for allocation-free routing: the per-cell target
/// list, the largest-remainder working set, the global fallback lists
/// and the Eq. 2 fold of the route-and-price pass. One scratch serves
/// any shape — buffers grow to the largest call seen and stay allocated.
#[derive(Debug, Default)]
pub struct RouteScratch {
    pub(crate) targets: Vec<(DeviceId, u32)>,
    pub(crate) shares: Vec<(usize, u64, f64)>,
    pub(crate) order: Vec<usize>,
    /// Every expert's replicas in ascending device order, CSR-style:
    /// expert `j`'s list is `global[global_starts[j]..global_starts[j + 1]]`.
    global_starts: Vec<usize>,
    global: Vec<(DeviceId, u32)>,
    cost: CostAccumulator,
}

impl RouteScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs lite routing for every source device, producing the full
/// `S[i][j][k]` strategy.
///
/// Equivalent to executing Alg. 3 independently on each rank (which is
/// how the GPU-side Triton kernel runs it) and concatenating the rows.
///
/// # Panics
///
/// Panics if the shapes of `demand`, `layout` and `topo` disagree, or if
/// some expert in demand has zero replicas (an invalid layout — validate
/// layouts first).
pub fn lite_route(topo: &Topology, demand: &RoutingMatrix, layout: &ExpertLayout) -> TokenRouting {
    lite_route_with(topo, demand, layout, &mut RouteScratch::new())
}

/// [`lite_route`] with caller-provided scratch buffers — the hot-path
/// variant that performs no per-cell allocation (only the returned
/// routing's entry vector is allocated).
///
/// # Panics
///
/// As [`lite_route`].
pub fn lite_route_with(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    scratch: &mut RouteScratch,
) -> TokenRouting {
    let mut s = TokenRouting::new(demand.num_devices(), demand.num_experts());
    lite_route_into(topo, demand, layout, scratch, &mut s);
    s
}

/// [`lite_route_with`] writing into an existing routing (cleared first),
/// so repeated solves reuse the entry vector as well.
///
/// # Panics
///
/// As [`lite_route`].
pub fn lite_route_into(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    scratch: &mut RouteScratch,
    out: &mut TokenRouting,
) {
    out.reset(demand.num_devices(), demand.num_experts());
    route_rows(topo, demand, layout, scratch, |src, expert, dst, tokens| {
        out.push(src, expert, dst, tokens);
    });
}

/// Alg. 3 priced instead of materialised: folds the rows [`lite_route`]
/// would emit, in its entry order, into Eq. 2 on `net` — bit-identical
/// to `time_cost(net, &lite_route(topo, demand, layout), params)`.
/// `topo` decides the routing and `net` (the same topology, or a
/// degraded view of it) prices it.
///
/// # Panics
///
/// As [`lite_route`].
pub(crate) fn route_and_price<I: Interconnect + ?Sized>(
    topo: &Topology,
    net: &I,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    params: &CostParams,
    scratch: &mut RouteScratch,
) -> CostBreakdown {
    let mut acc = std::mem::take(&mut scratch.cost);
    acc.reset(topo.num_devices());
    route_rows(topo, demand, layout, scratch, |src, _, dst, tokens| {
        acc.add(net, params, src, dst, tokens);
    });
    let cost = acc.finish(params);
    scratch.cost = acc;
    cost
}

/// The Alg. 3 traversal behind every entry point: calls `emit(src,
/// expert, dst, tokens)` for each row, sources ascending, experts
/// ascending, each cell's rows in target order.
fn route_rows(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    scratch: &mut RouteScratch,
    mut emit: impl FnMut(DeviceId, ExpertId, DeviceId, u64),
) {
    assert_eq!(demand.num_devices(), topo.num_devices(), "device count");
    assert_eq!(layout.num_devices(), topo.num_devices(), "layout devices");
    assert_eq!(layout.num_experts(), demand.num_experts(), "expert count");
    let RouteScratch {
        targets,
        shares,
        order,
        global_starts,
        global,
        ..
    } = scratch;
    let mut global_built = false;
    for src in topo.devices() {
        let node = topo.node_of(src);
        for j in 0..demand.num_experts() {
            let expert = ExpertId::new(j);
            let tokens = demand.get(src, expert);
            if tokens == 0 {
                continue;
            }
            // Lines 5-6: the replicas inside the sender's node.
            targets.clear();
            for dev in topo.devices_on(node) {
                let c = layout.replica_count(dev, expert);
                if c > 0 {
                    targets.push((dev, c));
                }
            }
            // Lines 8-9: otherwise every replica, globally.
            let cell: &[(DeviceId, u32)] = if targets.is_empty() {
                if !global_built {
                    build_global_lists(layout, global_starts, global);
                    global_built = true;
                }
                &global[global_starts[j]..global_starts[j + 1]]
            } else {
                targets
            };
            assert!(
                !cell.is_empty(),
                "layout hosts no replica of {expert}; validate layouts before routing"
            );
            distribute_evenly_into(src, tokens, cell, shares, order, |_, dst, count| {
                emit(src, expert, dst, count);
            });
        }
    }
}

/// Fills the per-expert global replica lists: `(device, count)` with
/// count > 0 in ascending device order — the order of
/// [`ExpertLayout::replica_devices`].
fn build_global_lists(
    layout: &ExpertLayout,
    starts: &mut Vec<usize>,
    lists: &mut Vec<(DeviceId, u32)>,
) {
    let (n, e) = (layout.num_devices(), layout.num_experts());
    let counts = layout.replica_counts();
    starts.clear();
    lists.clear();
    starts.push(0);
    for j in 0..e {
        for d in 0..n {
            let c = counts[d * e + j];
            if c > 0 {
                lists.push((DeviceId::new(d), c));
            }
        }
        starts.push(lists.len());
    }
}

/// Target-list length above which [`distribute_evenly_into`] selects
/// the targets that get a leftover token instead of sorting them.
const SELECT_MIN_TARGETS: usize = 32;

/// Splits `tokens` across `targets` proportionally to their replica
/// counts ("evenly distributed among all replicas"), with deterministic
/// largest-remainder rounding. Ties prefer the sender itself, then lower
/// device ids, keeping traffic local when possible.
///
/// Emits `(target index, destination, tokens)` in `targets` order, skipping
/// zero-token shares — the exact entry order and values of the original
/// allocating implementation, which the delta evaluator's bit-exactness
/// contract depends on.
pub(crate) fn distribute_evenly_into(
    src: DeviceId,
    tokens: u64,
    targets: &[(DeviceId, u32)],
    shares: &mut Vec<(usize, u64, f64)>,
    order: &mut Vec<usize>,
    mut emit: impl FnMut(usize, DeviceId, u64),
) {
    let total_replicas: u64 = targets.iter().map(|&(_, c)| c as u64).sum();
    let mut assigned = 0u64;
    shares.clear();
    for (idx, &(_, count)) in targets.iter().enumerate() {
        let exact = tokens as f64 * count as f64 / total_replicas as f64;
        let floor = exact.floor() as u64;
        assigned += floor;
        shares.push((idx, floor, exact - floor as f64));
    }
    // Each floor drops less than one token (rounding `exact` can only
    // raise a floor), so fewer tokens than targets are left over: the
    // first `left` targets in remainder order get one each. Targets are
    // distinct devices, so the order has no ties and any method that
    // puts those `left` first gives the same set: long lists (global
    // fallbacks at fleet scale) select them, short ones sort, which is
    // faster there.
    let left = (tokens - assigned) as usize;
    if left > 0 {
        let by_remainder = |&a: &usize, &b: &usize| {
            let (ia, _, ra) = shares[a];
            let (ib, _, rb) = shares[b];
            rb.total_cmp(&ra).then_with(|| {
                // Prefer the sender itself, then lower device ids.
                let la = targets[ia].0 == src;
                let lb = targets[ib].0 == src;
                lb.cmp(&la).then(targets[ia].0.cmp(&targets[ib].0))
            })
        };
        order.clear();
        order.extend(0..shares.len());
        if order.len() > SELECT_MIN_TARGETS {
            order.select_nth_unstable_by(left - 1, by_remainder);
        } else {
            order.sort_by(by_remainder);
        }
        for &slot in &order[..left] {
            shares[slot].1 += 1;
        }
    }
    for &(idx, count, _) in shares.iter() {
        if count > 0 {
            emit(idx, targets[idx].0, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_routing::RoutingMatrix;

    /// Two nodes of two devices; expert 0 replicated on devices 0 and 2
    /// (one per node), expert 1 on devices 1 and 3.
    fn cross_node_setup() -> (Topology, ExpertLayout) {
        let topo = Topology::new(2, 2).unwrap();
        let l = ExpertLayout::classic_ep(4, 2, 1).unwrap();
        (topo, l)
    }

    #[test]
    fn prefers_intra_node_replica() {
        let (topo, l) = cross_node_setup();
        // Device 1 (node 0) demands expert 0: replicas on dev 0 (node 0)
        // and dev 2 (node 1) -> all tokens must stay on node 0.
        let mut r = RoutingMatrix::zeros(4, 2).unwrap();
        r.set(DeviceId::new(1), ExpertId::new(0), 100);
        let s = lite_route(&topo, &r, &l);
        assert!(s.validate(&r, &l).is_ok());
        assert_eq!(s.entries().len(), 1);
        assert_eq!(
            s.entries()[0],
            (DeviceId::new(1), ExpertId::new(0), DeviceId::new(0), 100)
        );
    }

    #[test]
    fn splits_across_intra_node_replicas() {
        let topo = Topology::single_node(4).unwrap();
        let mut l = ExpertLayout::empty(4, 4, 1).unwrap();
        // Expert 0 on devices 0 and 1; experts 1-3 parked elsewhere.
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        l.add_replica(DeviceId::new(2), ExpertId::new(1));
        l.add_replica(DeviceId::new(3), ExpertId::new(2));
        let mut r = RoutingMatrix::zeros(4, 4).unwrap();
        r.set(DeviceId::new(2), ExpertId::new(0), 101);
        let s = lite_route(&topo, &r, &l);
        let loads = s.device_compute_loads();
        // 101 split evenly over two replicas: 51/50 or 50/51.
        assert_eq!(loads[0] + loads[1], 101);
        assert!(loads[0].abs_diff(loads[1]) <= 1);
    }

    #[test]
    fn falls_back_to_global_replicas() {
        let topo = Topology::new(2, 2).unwrap();
        // Expert 1 lives only on node 0 (devices 0 and 1), so a sender on
        // node 1 must spread its tokens over the global replica list.
        let mut l = ExpertLayout::empty(4, 2, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(1));
        l.add_replica(DeviceId::new(1), ExpertId::new(1));
        l.add_replica(DeviceId::new(2), ExpertId::new(0));
        l.add_replica(DeviceId::new(3), ExpertId::new(0));
        let mut r = RoutingMatrix::zeros(4, 2).unwrap();
        r.set(DeviceId::new(3), ExpertId::new(1), 10); // node 1 -> node 0 only
        let s = lite_route(&topo, &r, &l);
        assert!(s.validate(&r, &l).is_ok());
        let loads = s.device_compute_loads();
        assert_eq!(loads[0] + loads[1], 10);
        assert_eq!(loads[0], 5);
        assert_eq!(loads[1], 5);
    }

    #[test]
    fn conservation_holds_for_random_demands() {
        let topo = Topology::new(2, 4).unwrap();
        let l = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let mut gen = laer_routing::RoutingGenerator::new(
            laer_routing::RoutingGeneratorConfig::new(8, 8, 2048).with_seed(3),
        );
        for _ in 0..5 {
            let r = gen.next_iteration();
            let s = lite_route(&topo, &r, &l);
            assert!(s.validate(&r, &l).is_ok());
        }
    }

    #[test]
    fn replica_weight_respected() {
        let topo = Topology::single_node(2).unwrap();
        let mut l = ExpertLayout::empty(2, 2, 2).unwrap();
        // Device 0 hosts TWO replicas of expert 0, device 1 hosts one
        // replica plus expert 1.
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(1));
        let mut r = RoutingMatrix::zeros(2, 2).unwrap();
        r.set(DeviceId::new(0), ExpertId::new(0), 90);
        let s = lite_route(&topo, &r, &l);
        let loads = s.device_compute_loads();
        assert_eq!(loads[0], 60); // 2/3 of 90
        assert_eq!(loads[1], 30); // 1/3 of 90
    }

    #[test]
    fn remainder_prefers_sender() {
        let topo = Topology::single_node(2).unwrap();
        let mut l = ExpertLayout::empty(2, 2, 2).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(0), ExpertId::new(1));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(1));
        let mut r = RoutingMatrix::zeros(2, 2).unwrap();
        r.set(DeviceId::new(1), ExpertId::new(0), 3);
        let s = lite_route(&topo, &r, &l);
        let loads = s.device_compute_loads();
        // 3 tokens over 2 replicas: the odd token stays on the sender.
        assert_eq!(loads[1], 2);
        assert_eq!(loads[0], 1);
    }

    /// The scratch-reusing entry points reproduce the allocating path
    /// entry for entry across shapes and repeated solves.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let topo = Topology::new(2, 4).unwrap();
        let l = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let mut gen = laer_routing::RoutingGenerator::new(
            laer_routing::RoutingGeneratorConfig::new(8, 8, 4096).with_seed(9),
        );
        let mut scratch = RouteScratch::new();
        let mut reused = TokenRouting::new(8, 8);
        for _ in 0..4 {
            let r = gen.next_iteration();
            let fresh = lite_route(&topo, &r, &l);
            let with = lite_route_with(&topo, &r, &l, &mut scratch);
            lite_route_into(&topo, &r, &l, &mut scratch, &mut reused);
            assert_eq!(fresh.entries(), with.entries());
            assert_eq!(fresh.entries(), reused.entries());
        }
    }

    /// The route-and-price pass folds exactly the rows `lite_route`
    /// emits: its Eq. 2 cost equals `time_cost` of the materialised
    /// routing bit for bit — on a racked topology with a degraded view,
    /// with latency on and off, and with a scratch reused across layouts
    /// that do and do not need the global fallback.
    #[test]
    fn route_and_price_matches_time_cost() {
        use crate::cost::time_cost;
        use laer_cluster::DegradedView;
        let topo = Topology::with_racks(2, 2, 4, 5e9).unwrap();
        let mut view = DegradedView::new(topo.clone());
        view.degrade_link(DeviceId::new(0), DeviceId::new(9), 0.5);
        view.degrade_link(DeviceId::new(4), DeviceId::new(12), 0.3);
        let mut gen = laer_routing::RoutingGenerator::new(
            laer_routing::RoutingGeneratorConfig::new(16, 8, 4096).with_seed(5),
        );
        // Classic EP covers every node; the skewed layout leaves experts
        // 6 and 7 on node 0 only, forcing the fallback elsewhere.
        let classic = ExpertLayout::classic_ep(16, 8, 2).unwrap();
        let mut counts = classic.replica_counts().to_vec();
        for d in 4..16 {
            for j in 6..8 {
                if counts[d * 8 + j] > 0 {
                    counts[d * 8 + j] -= 1;
                    counts[d * 8 + (j - 6)] += 1;
                }
            }
        }
        let skewed = ExpertLayout::from_counts(16, 8, 2, counts).unwrap();
        assert!(skewed.validate().is_ok());
        let mut scratch = RouteScratch::new();
        for latency_aware in [false, true] {
            let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
            for layout in [&classic, &skewed, &classic] {
                let r = gen.next_iteration();
                let routing = lite_route(&topo, &r, layout);
                for (want, got) in [
                    (
                        time_cost(&topo, &routing, &params),
                        route_and_price(&topo, &topo, &r, layout, &params, &mut scratch),
                    ),
                    (
                        time_cost(&view, &routing, &params),
                        route_and_price(&topo, &view, &r, layout, &params, &mut scratch),
                    ),
                ] {
                    assert_eq!(got.comm.to_bits(), want.comm.to_bits());
                    assert_eq!(got.comp.to_bits(), want.comp.to_bits());
                }
            }
        }
    }
}
