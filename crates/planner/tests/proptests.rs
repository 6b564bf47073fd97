//! Property-based tests for the planner's core invariants: the
//! optimisation problem's constraints (Eqs. 3–4 of the paper) must hold
//! for *every* routing distribution, replica scheme and topology, not
//! just the unit-test examples.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};
use laer_planner::{
    even_replicas, expert_relocation, expert_relocation_on, lite_route, refine_layout,
    refine_layout_scratch, replica_allocation, time_cost, CostBreakdown, CostParams, ExpertLayout,
    IncrementalCost, LoadPredictor, Plan, PlanError, Planner, PlannerConfig, Predictor,
    ReplayPredictor, TokenRouting,
};
use laer_routing::{RoutingGeneratorConfig, RoutingMatrix, RoutingTrace};
use proptest::prelude::*;

/// Strategy: a routing matrix for `devices × experts` with entries in
/// `0..max_tokens`.
fn demand_strategy(
    devices: usize,
    experts: usize,
    max_tokens: u64,
) -> impl Strategy<Value = RoutingMatrix> {
    proptest::collection::vec(0..max_tokens, devices * experts)
        .prop_map(move |data| RoutingMatrix::from_rows(devices, experts, data).expect("shape"))
}

/// Strategy: a small two-level topology.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    (1usize..=4, 1usize..=4).prop_map(|(nodes, dpn)| Topology::new(nodes, dpn).expect("non-empty"))
}

/// Strategy: a small two- or three-level topology; the racked ones have
/// `InterRack` links between racks.
fn any_topo_strategy() -> impl Strategy<Value = Topology> {
    (any::<bool>(), 1usize..=3, 1usize..=3, 1usize..=4).prop_map(|(racked, a, b, dpn)| {
        if racked {
            Topology::with_racks(a, b, dpn, 5e9).expect("non-empty")
        } else {
            Topology::new(a * b, dpn).expect("non-empty")
        }
    })
}

/// Tiny deterministic xorshift stream for test-side choices.
fn xorshift(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    move |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    }
}

/// Demand derived from seed loads (scaled, varied per source).
fn derived_demand(n: usize, seed_loads: &[u64], scale: u64) -> RoutingMatrix {
    let mut demand = RoutingMatrix::zeros(n, seed_loads.len()).expect("shape");
    for i in 0..n {
        for (j, &l) in seed_loads.iter().enumerate() {
            demand.set(
                DeviceId::new(i),
                ExpertId::new(j),
                (l * scale + i as u64 * 7) % 5000,
            );
        }
    }
    demand
}

/// A random valid layout: every expert once, the remaining slots filled
/// with random experts, slots shuffled over devices. Most experts miss
/// most nodes, so lite routing takes the global fallback often.
fn scattered_layout(n: usize, e: usize, c: usize, seed: u64) -> ExpertLayout {
    let mut next = xorshift(seed);
    let mut slots: Vec<usize> = (0..e).collect();
    while slots.len() < n * c {
        slots.push(next(e as u64) as usize);
    }
    for i in (1..slots.len()).rev() {
        slots.swap(i, next(i as u64 + 1) as usize);
    }
    let mut layout = ExpertLayout::empty(n, e, c).expect("shape");
    for (slot, &j) in slots.iter().enumerate() {
        layout.add_replica(DeviceId::new(slot / c), ExpertId::new(j));
    }
    layout
}

/// A view with some links degraded and the devices not in `survive`
/// failed (failure is membership only; it does not change pricing).
fn degraded_view(topo: &Topology, survive: &[bool], seed: u64) -> DegradedView {
    let n = topo.num_devices();
    let mut view = DegradedView::new(topo.clone());
    let mut next = xorshift(seed);
    for _ in 0..n {
        let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
        let factor = 0.1 + 0.9 * next(1000) as f64 / 1000.0;
        view.degrade_link(DeviceId::new(a), DeviceId::new(b), factor);
    }
    for (i, &alive) in survive.iter().enumerate().take(n) {
        if !alive {
            view.fail_device(DeviceId::new(i));
        }
    }
    view
}

/// One oracle candidate: layout, materialised routing and unpipelined
/// Eq. 2 cost, all from the reference implementations.
struct OracleCandidate {
    layout: ExpertLayout,
    routing: TokenRouting,
    cost: CostBreakdown,
}

fn oracle_candidates<I: laer_cluster::Interconnect>(
    schemes: &[Vec<usize>],
    demand: &RoutingMatrix,
    topo: &Topology,
    net: &I,
    active: &[DeviceId],
    capacity: usize,
    params: &CostParams,
) -> Vec<OracleCandidate> {
    let loads = demand.expert_loads();
    schemes
        .iter()
        .map(|scheme| {
            let layout = oracle::expert_relocation_on(scheme, &loads, topo, capacity, active);
            let routing = oracle::lite_route(topo, demand, &layout);
            let cost = oracle::time_cost(net, &routing, params);
            OracleCandidate {
                layout,
                routing,
                cost,
            }
        })
        .collect()
}

/// Strict-`<` argmin of the pipelined total over `(chunk count,
/// candidate)`, chunk counts outer: `(chunk count, index, cost)`.
fn strict_argmin(costs: &[CostBreakdown], chunk_counts: &[usize]) -> (usize, usize, CostBreakdown) {
    let mut best: Option<(usize, usize, CostBreakdown)> = None;
    for &raw in chunk_counts {
        let chunks = raw.max(1);
        for (i, base) in costs.iter().enumerate() {
            let cost = base.pipelined(chunks);
            if best.is_none_or(|(_, _, b)| cost.total() < b.total()) {
                best = Some((chunks, i, cost));
            }
        }
    }
    best.expect("non-empty candidates and chunk counts")
}

/// `plan` is bit-identical to the oracle candidate `winner` priced at
/// `predicted`.
fn assert_plan_is(plan: &Plan, winner: &OracleCandidate, predicted: CostBreakdown) {
    assert_eq!(plan.layout, winner.layout);
    assert_eq!(plan.routing.entries(), winner.routing.entries());
    assert_eq!(plan.predicted.comm.to_bits(), predicted.comm.to_bits());
    assert_eq!(plan.predicted.comp.to_bits(), predicted.comp.to_bits());
}

/// Checks `plan`, `sweep_num_chunks` and `plan_degraded` against the
/// oracles, and `plan` and `sweep_num_chunks` also against the strict-`<`
/// argmin over `evaluate_scheme`.
fn check_tuner_against_oracles(planner: &Planner, demand: &RoutingMatrix, view: &DegradedView) {
    let topo = planner.topology();
    let cfg = planner.config();
    let params = planner.cost_params();
    let chunks = cfg.num_chunks;
    let sweep_counts = [1usize, 2, 4, 8];
    let all: Vec<DeviceId> = topo.devices().collect();

    let schemes = planner.unique_schemes(planner.candidate_schemes(demand));
    let oracle = oracle_candidates(&schemes, demand, topo, topo, &all, cfg.capacity, params);
    let costs: Vec<CostBreakdown> = oracle.iter().map(|c| c.cost).collect();

    let plan = planner.plan(demand);
    let (_, i, predicted) = strict_argmin(&costs, &[chunks]);
    assert_plan_is(&plan, &oracle[i], predicted);

    // The same argmin over the public one-scheme evaluator.
    let loads = demand.expert_loads();
    let evaluated: Vec<Plan> = schemes
        .iter()
        .map(|s| planner.evaluate_scheme(s, &loads, demand))
        .collect();
    let mut best = &evaluated[0];
    for p in &evaluated[1..] {
        if p.predicted.total() < best.predicted.total() {
            best = p;
        }
    }
    assert_eq!(&plan, best);
    assert_eq!(plan.predicted.comm.to_bits(), best.predicted.comm.to_bits());

    let (sweep_chunks, sweep_plan) = planner.sweep_num_chunks(demand, &sweep_counts);
    let (want_chunks, i, predicted) = strict_argmin(&costs, &sweep_counts);
    assert_eq!(sweep_chunks, want_chunks);
    assert_plan_is(&sweep_plan, &oracle[i], predicted);
    let unchunked = planner.clone().with_num_chunks(1);
    let base: Vec<CostBreakdown> = schemes
        .iter()
        .map(|s| unchunked.evaluate_scheme(s, &loads, demand).predicted)
        .collect();
    assert_eq!(strict_argmin(&base, &sweep_counts).1, i);

    let survivors = view.survivors();
    let degraded = planner.plan_degraded(demand, view);
    if survivors.len() * cfg.capacity < demand.num_experts() {
        assert!(matches!(
            degraded,
            Err(PlanError::InsufficientCapacity { .. } | PlanError::NoSurvivors)
        ));
        return;
    }
    let degraded = degraded.expect("survivors can host every expert");
    // The degraded tuner sizes its schemes for the survivors: the same
    // schemes a planner of `survivors.len()` devices generates.
    let sized = Planner::new(
        cfg.clone(),
        *params,
        Topology::new(1, survivors.len()).expect("non-empty"),
    );
    let schemes = sized.unique_schemes(sized.candidate_schemes(demand));
    let oracle = oracle_candidates(
        &schemes,
        demand,
        topo,
        view,
        &survivors,
        cfg.capacity,
        params,
    );
    let costs: Vec<CostBreakdown> = oracle.iter().map(|c| c.cost).collect();
    let (_, i, predicted) = strict_argmin(&costs, &[chunks]);
    assert_plan_is(&degraded, &oracle[i], predicted);
}

/// Random retarget / swap / revert walk of an [`IncrementalCost`],
/// checked against the from-scratch oracle bit for bit: after every
/// step, or with `deferred` only on about a third of the steps (and at
/// the end), so moves also stack up unevaluated.
fn incremental_walk(
    topo: &Topology,
    seed_loads: &[u64],
    c: usize,
    demand_scale: u64,
    op_seed: u64,
    latency_aware: bool,
    deferred: bool,
) -> Result<(), TestCaseError> {
    let n = topo.num_devices();
    let e = seed_loads.len();
    let rep = replica_allocation(seed_loads, n, c);
    let layout = expert_relocation(&rep, seed_loads, topo, c);
    let mut demand = RoutingMatrix::zeros(n, e).expect("shape");
    for i in 0..n {
        for (j, &l) in seed_loads.iter().enumerate() {
            demand.set(
                DeviceId::new(i),
                ExpertId::new(j),
                (l * demand_scale + i as u64) % 5000,
            );
        }
    }
    let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
    let mut inc = IncrementalCost::new(topo, &demand, &layout, &params);
    // Reference state evolved in lockstep, plus a history stack for
    // revert.
    let mut reference = layout.clone();
    let mut history: Vec<laer_planner::ExpertLayout> = Vec::new();
    // Tiny deterministic xorshift for op choices.
    let mut state = op_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m
    };
    let idx = |d: usize, j: usize| d * e + j;
    let steps = if deferred { 24 } else { 12 };
    for _ in 0..steps {
        match next(3) {
            0 => {
                // Retarget under the refiner's guards.
                let mut moves = Vec::new();
                for d in 0..n {
                    for a in 0..e {
                        if reference.replica_count(DeviceId::new(d), ExpertId::new(a)) == 0
                            || reference.expert_replicas(ExpertId::new(a)) < 2
                        {
                            continue;
                        }
                        for b in 0..e {
                            if a != b
                                && reference.replica_count(DeviceId::new(d), ExpertId::new(b)) == 0
                            {
                                moves.push((d, a, b));
                            }
                        }
                    }
                }
                if moves.is_empty() {
                    continue;
                }
                let (d, a, b) = moves[next(moves.len() as u64) as usize];
                inc.apply_retarget(DeviceId::new(d), ExpertId::new(a), ExpertId::new(b));
                history.push(reference.clone());
                let mut counts = reference.replica_counts().to_vec();
                counts[idx(d, a)] -= 1;
                counts[idx(d, b)] += 1;
                reference =
                    laer_planner::ExpertLayout::from_counts(n, e, c, counts).expect("shape");
            }
            1 => {
                // Swap under the refiner's guards.
                let mut moves = Vec::new();
                for d1 in 0..n {
                    for d2 in (d1 + 1)..n {
                        for a in 0..e {
                            if reference.replica_count(DeviceId::new(d1), ExpertId::new(a)) == 0 {
                                continue;
                            }
                            for b in 0..e {
                                if a == b
                                    || reference.replica_count(DeviceId::new(d2), ExpertId::new(b))
                                        == 0
                                    || reference.replica_count(DeviceId::new(d1), ExpertId::new(b))
                                        > 0
                                    || reference.replica_count(DeviceId::new(d2), ExpertId::new(a))
                                        > 0
                                {
                                    continue;
                                }
                                moves.push((d1, a, d2, b));
                            }
                        }
                    }
                }
                if moves.is_empty() {
                    continue;
                }
                let (d1, a, d2, b) = moves[next(moves.len() as u64) as usize];
                inc.apply_swap(
                    DeviceId::new(d1),
                    ExpertId::new(a),
                    DeviceId::new(d2),
                    ExpertId::new(b),
                );
                history.push(reference.clone());
                let mut counts = reference.replica_counts().to_vec();
                counts[idx(d1, a)] -= 1;
                counts[idx(d2, b)] -= 1;
                counts[idx(d1, b)] += 1;
                counts[idx(d2, a)] += 1;
                reference =
                    laer_planner::ExpertLayout::from_counts(n, e, c, counts).expect("shape");
            }
            _ => {
                let popped = history.pop();
                prop_assert_eq!(inc.revert(), popped.is_some());
                if let Some(prev) = popped {
                    reference = prev;
                }
            }
        }
        prop_assert_eq!(&inc.layout(), &reference);
        if deferred && next(3) != 0 {
            continue;
        }
        let got = inc.cost();
        let oracle_routing = lite_route(topo, &demand, &reference);
        let want = laer_planner::cost::time_cost(topo, &oracle_routing, &params);
        prop_assert!((got.total() - want.total()).abs() <= 1e-9);
        prop_assert_eq!(got.comm.to_bits(), want.comm.to_bits());
        prop_assert_eq!(got.comp.to_bits(), want.comp.to_bits());
    }
    // The final state's cost and materialised routing are identical.
    let got = inc.cost();
    let want = laer_planner::cost::time_cost(topo, &lite_route(topo, &demand, &reference), &params);
    prop_assert_eq!(got.comm.to_bits(), want.comm.to_bits());
    prop_assert_eq!(got.comp.to_bits(), want.comp.to_bits());
    let materialized = inc.routing();
    let oracle = lite_route(topo, &demand, &reference);
    prop_assert_eq!(materialized.entries(), oracle.entries());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Alg. 4 output: every expert keeps ≥1 replica and the total is
    /// exactly N·C — for any load vector.
    #[test]
    fn replica_allocation_invariants(
        loads in proptest::collection::vec(0u64..100_000, 1..16),
        n in 1usize..64,
        c in 1usize..4,
    ) {
        prop_assume!(n * c >= loads.len());
        let rep = replica_allocation(&loads, n, c);
        prop_assert_eq!(rep.len(), loads.len());
        prop_assert_eq!(rep.iter().sum::<usize>(), n * c);
        prop_assert!(rep.iter().all(|&r| r >= 1));
        let even = even_replicas(&loads, n, c);
        prop_assert_eq!(even.iter().sum::<usize>(), n * c);
        prop_assert!(even.iter().all(|&r| r >= 1));
    }

    /// Alg. 4 grants replicas monotonically with load: a strictly
    /// heavier expert never gets fewer replicas than a lighter one.
    #[test]
    fn replica_allocation_is_monotone(
        loads in proptest::collection::vec(0u64..100_000, 2..10),
        c in 1usize..4,
    ) {
        let n = 16usize;
        prop_assume!(n * c >= loads.len());
        let rep = replica_allocation(&loads, n, c);
        for i in 0..loads.len() {
            for j in 0..loads.len() {
                if loads[i] > loads[j] {
                    prop_assert!(
                        rep[i] + 1 >= rep[j],
                        "load {} got {} replicas, load {} got {}",
                        loads[i], rep[i], loads[j], rep[j]
                    );
                }
            }
        }
    }

    /// Alg. 1 output is always a structurally valid layout (corrected
    /// constraint 3: every device filled to C, no orphan experts).
    #[test]
    fn relocation_produces_valid_layouts(
        topo in topo_strategy(),
        loads in proptest::collection::vec(0u64..50_000, 2..12),
        c in 1usize..4,
    ) {
        let n = topo.num_devices();
        prop_assume!(n * c >= loads.len());
        let rep = replica_allocation(&loads, n, c);
        let layout = expert_relocation(&rep, &loads, &topo, c);
        prop_assert!(layout.validate().is_ok());
        prop_assert_eq!(layout.replica_vector(), rep);
    }

    /// Alg. 3 satisfies constraint 4 for any demand and any valid
    /// layout: every token reaches a device hosting its expert, and
    /// token counts are conserved.
    #[test]
    fn lite_routing_satisfies_constraints(
        topo in topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
    ) {
        let n = topo.num_devices();
        let e = seed_loads.len();
        prop_assume!(n * c >= e);
        let rep = replica_allocation(&seed_loads, n, c);
        let layout = expert_relocation(&rep, &seed_loads, &topo, c);
        // Demand derived from the seed loads, scaled.
        let mut demand = RoutingMatrix::zeros(n, e).expect("shape");
        for i in 0..n {
            for (j, &l) in seed_loads.iter().enumerate() {
                demand.set(
                    DeviceId::new(i),
                    ExpertId::new(j),
                    (l * demand_scale + i as u64) % 5000,
                );
            }
        }
        let routing = lite_route(&topo, &demand, &layout);
        prop_assert!(routing.validate(&demand, &layout).is_ok());
        // Compute loads conserve the total demand.
        let total: u64 = routing.device_compute_loads().iter().sum();
        prop_assert_eq!(total, demand.total());
    }

    /// The full planner produces valid plans with non-negative predicted
    /// costs for arbitrary demands, and the plan never has *higher*
    /// straggler load than the classic static layout.
    #[test]
    fn planner_plans_are_valid_and_no_worse(
        demand in demand_strategy(8, 8, 5000),
        // ε ≥ 2 keeps both base schemes in the candidate set (ε = 1
        // truncates to the proportional scheme alone).
        epsilon in 2usize..6,
    ) {
        let topo = Topology::new(2, 4).expect("2x4");
        let planner = Planner::new(
            PlannerConfig::new(2).with_epsilon(epsilon),
            CostParams::mixtral_8x7b(),
            topo.clone(),
        );
        let plan = planner.plan(&demand);
        prop_assert!(plan.layout.validate().is_ok());
        prop_assert!(plan.routing.validate(&demand, &plan.layout).is_ok());
        prop_assert!(plan.predicted.comm >= 0.0);
        prop_assert!(plan.predicted.comp >= 0.0);
        // Guaranteed by construction: the tuner's pick is never worse
        // (under the Eq. 2 objective) than the relocated even-allocation
        // candidate, which is always in the Both candidate set.
        let loads = demand.expert_loads();
        let even = even_replicas(&loads, 8, 2);
        let even_layout = expert_relocation(&even, &loads, &topo, 2);
        let even_routing = lite_route(&topo, &demand, &even_layout);
        let even_cost =
            laer_planner::cost::time_cost(&topo, &even_routing, planner.cost_params());
        prop_assert!(
            plan.predicted.total() <= even_cost.total() + 1e-12,
            "plan {} vs even candidate {}",
            plan.predicted.total(),
            even_cost.total()
        );
    }

    /// Alg. 1 places every replica exactly where the reference grouped
    /// loop does — on all devices and on survivor subsets, two- and
    /// three-level topologies, proportional and even schemes.
    #[test]
    fn relocation_matches_oracle(
        topo in any_topo_strategy(),
        loads in proptest::collection::vec(0u64..50_000, 1..12),
        c in 1usize..4,
        survive in proptest::collection::vec(any::<bool>(), 36),
    ) {
        let all: Vec<DeviceId> = topo.devices().collect();
        let mut active: Vec<DeviceId> = all.iter().copied().filter(|d| survive[d.index()]).collect();
        if active.is_empty() {
            active.push(DeviceId::new(0));
        }
        for devices in [&all, &active] {
            prop_assume!(devices.len() * c >= loads.len());
            for rep in [
                replica_allocation(&loads, devices.len(), c),
                even_replicas(&loads, devices.len(), c),
            ] {
                let got = expert_relocation_on(&rep, &loads, &topo, c, devices);
                let want = oracle::expert_relocation_on(&rep, &loads, &topo, c, devices);
                prop_assert_eq!(&got, &want);
            }
        }
    }

    /// Alg. 3 rows and their Eq. 2 price match the reference passes bit
    /// for bit on scattered layouts that force the global fallback, on
    /// racked topologies and degraded views, latency on and off.
    #[test]
    fn routing_and_cost_match_oracle(
        topo in any_topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..10),
        c in 1usize..4,
        scale in 1u64..2000,
        seed in 0u64..10_000,
        latency_aware in any::<bool>(),
        survive in proptest::collection::vec(any::<bool>(), 36),
    ) {
        let n = topo.num_devices();
        let e = seed_loads.len();
        prop_assume!(n * c >= e);
        let layout = scattered_layout(n, e, c, seed);
        let demand = derived_demand(n, &seed_loads, scale);
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        let routing = lite_route(&topo, &demand, &layout);
        let want = oracle::lite_route(&topo, &demand, &layout);
        prop_assert_eq!(routing.entries(), want.entries());
        let view = degraded_view(&topo, &survive, seed);
        for (got, want) in [
            (time_cost(&topo, &routing, &params), oracle::time_cost(&topo, &want, &params)),
            (time_cost(&view, &routing, &params), oracle::time_cost(&view, &want, &params)),
        ] {
            prop_assert_eq!(got.comm.to_bits(), want.comm.to_bits());
            prop_assert_eq!(got.comp.to_bits(), want.comp.to_bits());
        }
    }

    /// `plan`, `sweep_num_chunks` and `plan_degraded` pick, price and
    /// route exactly like the strict-`<` argmin over the reference
    /// candidate pipeline (and over `evaluate_scheme`).
    #[test]
    fn tuner_matches_oracle_argmin(
        topo in any_topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..10),
        c in 1usize..4,
        scale in 1u64..2000,
        epsilon in 1usize..7,
        chunks in 1usize..5,
        seed in 0u64..10_000,
        latency_aware in any::<bool>(),
        survive in proptest::collection::vec(any::<bool>(), 36),
    ) {
        let n = topo.num_devices();
        prop_assume!(n * c >= seed_loads.len());
        let demand = derived_demand(n, &seed_loads, scale);
        let planner = Planner::new(
            PlannerConfig::new(c)
                .with_epsilon(epsilon)
                .with_seed(seed)
                .with_num_chunks(chunks),
            CostParams::mixtral_8x7b().with_latency_aware(latency_aware),
            topo.clone(),
        );
        check_tuner_against_oracles(&planner, &demand, &degraded_view(&topo, &survive, seed));
    }

    /// The load predictor's output is always a valid matrix with totals
    /// between the observed extremes.
    #[test]
    fn predictor_stays_in_observed_range(
        a in demand_strategy(4, 4, 1000),
        b in demand_strategy(4, 4, 1000),
        alpha in 0.1f64..1.0,
    ) {
        let mut p = LoadPredictor::new(alpha);
        p.observe(&a).expect("first observation");
        p.observe(&b).expect("same shape");
        let pred = p.predict().expect("warm");
        prop_assert_eq!(pred.num_devices(), 4);
        let lo = a.total().min(b.total());
        let hi = a.total().max(b.total());
        // Rounding may stray by at most one per cell.
        let cells = 16u64;
        prop_assert!(pred.total() + cells >= lo && pred.total() <= hi + cells);
    }

    /// The incremental evaluator tracks the from-scratch
    /// `lite_route` + `time_cost` oracle through any random sequence of
    /// retarget / swap / revert operations — to 1e-9 on totals and in
    /// fact bit-for-bit, the contract the refine/exact rewires rely on.
    #[test]
    fn incremental_cost_tracks_oracle_through_random_moves(
        topo in topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
        op_seed in 0u64..10_000,
        latency_aware in any::<bool>(),
    ) {
        let n = topo.num_devices();
        prop_assume!(n * c >= seed_loads.len());
        incremental_walk(&topo, &seed_loads, c, demand_scale, op_seed, latency_aware, false)?;
    }

    /// The same walk with costs evaluated only now and then, on two- and
    /// three-level topologies: moves stack up and are reverted before
    /// their columns are re-routed or folded, so reverts also run from
    /// states whose fold is incomplete.
    #[test]
    fn incremental_cost_tracks_oracle_with_deferred_costs(
        topo in any_topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
        op_seed in 0u64..10_000,
        latency_aware in any::<bool>(),
    ) {
        let n = topo.num_devices();
        prop_assume!(n * c >= seed_loads.len());
        incremental_walk(&topo, &seed_loads, c, demand_scale, op_seed, latency_aware, true)?;
    }

    /// The delta-probing refiner selects bit-identically to the
    /// from-scratch reference implementation for arbitrary instances
    /// and budgets.
    #[test]
    fn refine_delta_matches_scratch_oracle(
        topo in topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
        budget in 0usize..250,
        latency_aware in any::<bool>(),
    ) {
        let n = topo.num_devices();
        let e = seed_loads.len();
        prop_assume!(n * c >= e);
        let rep = replica_allocation(&seed_loads, n, c);
        let layout = expert_relocation(&rep, &seed_loads, &topo, c);
        let mut demand = RoutingMatrix::zeros(n, e).expect("shape");
        for i in 0..n {
            for (j, &l) in seed_loads.iter().enumerate() {
                demand.set(
                    DeviceId::new(i),
                    ExpertId::new(j),
                    (l * demand_scale + i as u64) % 5000,
                );
            }
        }
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        let delta = refine_layout(&topo, &demand, &layout, &params, budget);
        let scratch = refine_layout_scratch(&topo, &demand, &layout, &params, budget);
        prop_assert_eq!(&delta.layout, &scratch.layout);
        prop_assert_eq!(delta.routing.entries(), scratch.routing.entries());
        prop_assert_eq!(delta.cost.comm.to_bits(), scratch.cost.comm.to_bits());
        prop_assert_eq!(delta.cost.comp.to_bits(), scratch.cost.comp.to_bits());
        prop_assert_eq!(delta.moves_accepted, scratch.moves_accepted);
        prop_assert_eq!(delta.probes_evaluated, scratch.probes_evaluated);
    }

    /// A `ReplayPredictor` over a recorded trace reproduces the
    /// recorded matrices verbatim at noise 0 — after observing
    /// iteration `i` it predicts exactly the recorded demand of
    /// `i + 1`, which is what makes its audit error vanish.
    #[test]
    fn replay_reproduces_recorded_trace(
        devices in 1usize..5,
        experts in 1usize..6,
        budget in 1u64..2_000,
        seed in 0u64..10_000,
        iters in 1usize..6,
    ) {
        let cfg = RoutingGeneratorConfig::new(devices, experts, budget).with_seed(seed);
        let trace = RoutingTrace::record(cfg, iters);
        let mut p = ReplayPredictor::new(trace.clone(), 0.0, seed);
        let first = p.predict();
        prop_assert_eq!(first.as_ref(), trace.get(0));
        for i in 0..trace.len() {
            p.observe(trace.get(i).expect("recorded")).expect("same shape");
            if i + 1 < trace.len() {
                let served = p.predict();
                prop_assert_eq!(served.as_ref(), trace.get(i + 1));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Global fallback lists longer than the ones the small-topology
    /// properties reach: one device per node and two experts in 2–3
    /// slots over 66+ devices, so a device without one of them falls
    /// back to a list of 33+ replicas of it, with counts 1 to 3 (so the
    /// leftover tokens go by remainder, not just by device id). Routing,
    /// pricing, the tuner and an incremental walk all match the
    /// reference oracles bit for bit.
    #[test]
    fn long_fallback_lists_match_oracle(
        nodes in 66usize..90,
        c in 2usize..4,
        seed_loads in proptest::collection::vec(1u64..1000, 2),
        scale in 1u64..2000,
        seed in 0u64..10_000,
        latency_aware in any::<bool>(),
    ) {
        let topo = Topology::new(nodes, 1).expect("non-empty");
        let (n, e) = (nodes, seed_loads.len());
        let layout = scattered_layout(n, e, c, seed);
        let demand = derived_demand(n, &seed_loads, scale);
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        let routing = lite_route(&topo, &demand, &layout);
        let want = oracle::lite_route(&topo, &demand, &layout);
        prop_assert_eq!(routing.entries(), want.entries());
        let want_cost = oracle::time_cost(&topo, &want, &params);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        for got in [time_cost(&topo, &routing, &params), inc.cost()] {
            prop_assert_eq!(got.comm.to_bits(), want_cost.comm.to_bits());
            prop_assert_eq!(got.comp.to_bits(), want_cost.comp.to_bits());
        }
        let planner = Planner::new(
            PlannerConfig::new(c).with_epsilon(4).with_seed(seed),
            params,
            topo.clone(),
        );
        check_tuner_against_oracles(&planner, &demand, &degraded_view(&topo, &[], seed));
        incremental_walk(&topo, &seed_loads, c, scale, seed, latency_aware, true)?;
    }
}

/// The tuner at fleet scale — the `plan-fleet` benchmark configuration
/// (N1024, E16, C 2, ε 8, latency-aware E16k4) on a two-level cluster
/// and on a racked one with failed devices and degraded links — matches
/// the reference oracles bit for bit.
#[test]
fn fleet_scale_tuner_matches_oracle() {
    let params = CostParams::from_model(
        &laer_model::ModelPreset::Mixtral8x7bE16k4.config(),
        laer_model::GpuSpec::a100(),
        false,
    )
    .with_latency_aware(true);
    let topos = [
        Topology::new(128, 8).expect("1024 devices"),
        Topology::with_racks(4, 32, 8, 25e9).expect("1024 devices"),
    ];
    for (k, topo) in topos.into_iter().enumerate() {
        let n = topo.num_devices();
        let demand = laer_routing::RoutingGenerator::new(
            RoutingGeneratorConfig::new(n, 16, 16 * 1024).with_seed(1 + k as u64),
        )
        .next_iteration();
        let planner = Planner::new(PlannerConfig::new(2).with_epsilon(8), params, topo.clone());
        let mut survive = vec![true; n];
        if k == 1 {
            for d in [3usize, 200, 511, 777, 1000] {
                survive[d] = false;
            }
        }
        check_tuner_against_oracles(&planner, &demand, &degraded_view(&topo, &survive, 9));
    }
}

/// Reference oracles: verbatim copies of Alg. 1's grouped per-replica
/// loop (`expert_relocation_on`) and of Alg. 3 + Eq. 2 as separate
/// passes with a per-cell `O(N)` global fallback scan (`lite_route` then
/// `time_cost`), as they stood before the candidate loop was optimised.
/// The library must match them bit for bit.
mod oracle {
    use laer_cluster::{DeviceId, ExpertId, Interconnect, LinkKind, NodeId, Topology};
    use laer_planner::{CostBreakdown, CostParams, ExpertLayout, TokenRouting};
    use laer_routing::RoutingMatrix;

    #[derive(Default)]
    pub struct RouteScratch {
        targets: Vec<(DeviceId, u32)>,
        shares: Vec<(usize, u64, f64)>,
        order: Vec<usize>,
    }

    pub fn lite_route(
        topo: &Topology,
        demand: &RoutingMatrix,
        layout: &ExpertLayout,
    ) -> TokenRouting {
        let mut s = TokenRouting::new(demand.num_devices(), demand.num_experts());
        lite_route_into(topo, demand, layout, &mut RouteScratch::default(), &mut s);
        s
    }

    /// Alg. 1 restricted to a device subset — the degraded-mode variant run
    /// after device failures: replicas are placed only on `active` devices
    /// (the survivors), the layout keeps the full `N × E` shape so device
    /// ids stay stable, and the replica total must equal
    /// `active.len() · C`.
    ///
    /// # Panics
    ///
    /// Panics if `expert_rep` and `expert_loads` have different lengths, if
    /// the total replica count differs from `active.len() · C`, if any
    /// expert has zero replicas, or if `active` is empty or repeats a
    /// device.
    pub fn expert_relocation_on(
        expert_rep: &[usize],
        expert_loads: &[u64],
        topo: &Topology,
        capacity: usize,
        active: &[DeviceId],
    ) -> ExpertLayout {
        let e = expert_rep.len();
        let n = topo.num_devices();
        assert_eq!(e, expert_loads.len(), "replica/load length mismatch");
        assert!(
            expert_rep.iter().all(|&r| r >= 1),
            "every expert needs a replica"
        );
        assert!(!active.is_empty(), "need at least one active device");
        let mut is_active = vec![false; n];
        for d in active {
            assert!(!is_active[d.index()], "active device listed twice");
            is_active[d.index()] = true;
        }
        assert_eq!(
            expert_rep.iter().sum::<usize>(),
            active.len() * capacity,
            "replica total must equal active device count * C"
        );

        // Lines 3-5: one list entry per replica, carrying the average load,
        // sorted descending (ties toward lower expert index for determinism).
        let mut list: Vec<(usize, f64)> = Vec::with_capacity(n * capacity);
        for j in 0..e {
            let avg = expert_loads[j] as f64 / expert_rep[j] as f64;
            for _ in 0..expert_rep[j] {
                list.push((j, avg));
            }
        }
        list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut layout = ExpertLayout::empty(n, e, capacity)
            .unwrap_or_else(|_| unreachable!("caller-provided shape is consistent"));
        let mut expert_count = vec![0usize; n]; // slots used per device
        let mut device_loads = vec![0.0f64; n];

        for (expert_idx, load) in list {
            let expert = ExpertId::new(expert_idx);
            // Lines 7-9: nodes with the fewest replicas of this expert that
            // still have a device with free capacity.
            let node_cnt = layout.node_replica_counts(topo, expert);
            let mut candidate_nodes: Vec<usize> = (0..topo.num_nodes()).collect();
            candidate_nodes.sort_by_key(|&nid| node_cnt[nid]);
            let mut placed = false;
            let mut group_start = 0;
            while group_start < candidate_nodes.len() {
                let level = node_cnt[candidate_nodes[group_start]];
                let group: Vec<usize> = candidate_nodes[group_start..]
                    .iter()
                    .copied()
                    .take_while(|&nid| node_cnt[nid] == level)
                    .collect();
                // Lines 10-13: least-loaded device with spare capacity inside
                // the chosen node group.
                let best = group
                    .iter()
                    .flat_map(|&nid| topo.devices_on(laer_cluster::NodeId::new(nid)))
                    .filter(|d| is_active[d.index()] && expert_count[d.index()] < capacity)
                    .min_by(|a, b| {
                        device_loads[a.index()]
                            .total_cmp(&device_loads[b.index()])
                            .then(a.index().cmp(&b.index()))
                    });
                if let Some(device) = best {
                    layout.add_replica(device, expert);
                    device_loads[device.index()] += load;
                    expert_count[device.index()] += 1;
                    placed = true;
                    break;
                }
                group_start += group.len();
            }
            assert!(
                placed,
                "replica total equals slot total, placement must succeed"
            );
        }
        debug_assert!(layout.validate_on(active).is_ok());
        layout
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
        assert_eq!(demand.num_devices(), topo.num_devices(), "device count");
        assert_eq!(layout.num_devices(), topo.num_devices(), "layout devices");
        assert_eq!(layout.num_experts(), demand.num_experts(), "expert count");
        out.reset(demand.num_devices(), demand.num_experts());
        for rank in topo.devices() {
            route_one_rank(topo, demand, layout, rank, scratch, out);
        }
    }

    /// Alg. 3 for a single rank.
    fn route_one_rank(
        topo: &Topology,
        demand: &RoutingMatrix,
        layout: &ExpertLayout,
        rank: DeviceId,
        scratch: &mut RouteScratch,
        out: &mut TokenRouting,
    ) {
        let node = topo.node_of(rank);
        for j in 0..demand.num_experts() {
            let expert = ExpertId::new(j);
            let tokens = demand.get(rank, expert);
            if tokens == 0 {
                continue;
            }
            fill_targets(topo, layout, expert, node, &mut scratch.targets);
            assert!(
                !scratch.targets.is_empty(),
                "layout hosts no replica of {expert}; validate layouts before routing"
            );
            let (targets, shares, order) =
                (&scratch.targets, &mut scratch.shares, &mut scratch.order);
            distribute_evenly_into(rank, tokens, targets, shares, order, |dst, count| {
                out.push(rank, expert, dst, count);
            });
        }
    }

    /// Fills `out` with the Alg. 3 target list for one `(sender-node,
    /// expert)` cell: intra-node replicas first (lines 5-6), all replicas
    /// globally otherwise (lines 8-9). Targets are in ascending device-id
    /// order, matching [`ExpertLayout::replicas_in_node`] /
    /// [`ExpertLayout::replica_devices`].
    pub fn fill_targets(
        topo: &Topology,
        layout: &ExpertLayout,
        expert: ExpertId,
        node: NodeId,
        out: &mut Vec<(DeviceId, u32)>,
    ) {
        out.clear();
        for dev in topo.devices_on(node) {
            let c = layout.replica_count(dev, expert);
            if c > 0 {
                out.push((dev, c));
            }
        }
        if out.is_empty() {
            for i in 0..layout.num_devices() {
                let c = layout.replica_count(DeviceId::new(i), expert);
                if c > 0 {
                    out.push((DeviceId::new(i), c));
                }
            }
        }
    }

    /// Splits `tokens` across `targets` proportionally to their replica
    /// counts ("evenly distributed among all replicas"), with deterministic
    /// largest-remainder rounding. Ties prefer the sender itself, then lower
    /// device ids, keeping traffic local when possible.
    ///
    /// Emits `(destination, tokens)` pairs in `targets` order, skipping
    /// zero-token shares — the exact entry order and values of the original
    /// allocating implementation, which the delta evaluator's bit-exactness
    /// contract depends on.
    pub fn distribute_evenly_into(
        src: DeviceId,
        tokens: u64,
        targets: &[(DeviceId, u32)],
        shares: &mut Vec<(usize, u64, f64)>,
        order: &mut Vec<usize>,
        mut emit: impl FnMut(DeviceId, u64),
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
        order.clear();
        order.extend(0..shares.len());
        order.sort_by(|&a, &b| {
            let (ia, _, ra) = shares[a];
            let (ib, _, rb) = shares[b];
            rb.total_cmp(&ra).then_with(|| {
                // Prefer the sender itself, then lower device ids.
                let la = targets[ia].0 == src;
                let lb = targets[ib].0 == src;
                lb.cmp(&la).then(targets[ia].0.cmp(&targets[ib].0))
            })
        });
        let mut left = tokens - assigned;
        let mut cursor = 0;
        while left > 0 {
            let slot = order[cursor % order.len()];
            shares[slot].1 += 1;
            left -= 1;
            cursor += 1;
        }
        for &(idx, count, _) in shares.iter() {
            if count > 0 {
                emit(targets[idx].0, count);
            }
        }
    }

    /// Effective point-to-point bandwidth used by both the planner and the
    /// simulator: NVLink per device, NIC shared per node. Generic over
    /// [`Interconnect`] so degraded network views price faults directly.
    pub fn effective_bw<I: Interconnect + ?Sized>(
        net: &I,
        a: laer_cluster::DeviceId,
        b: laer_cluster::DeviceId,
    ) -> f64 {
        match net.link_kind(a, b) {
            LinkKind::Local => f64::INFINITY,
            LinkKind::IntraNode => net.bandwidth(a, b),
            LinkKind::InterNode => net.bandwidth(a, b) / net.devices_per_node() as f64,
            // The rack spine is shared by every device in the rack.
            LinkKind::InterRack => net.bandwidth(a, b) / net.devices_per_rack().unwrap_or(1) as f64,
        }
    }

    /// Evaluates the objective `T = T_comm + T_comp` for a routing strategy.
    pub fn time_cost<I: Interconnect + ?Sized>(
        net: &I,
        routing: &TokenRouting,
        params: &CostParams,
    ) -> CostBreakdown {
        let n = net.num_devices();
        // T_comm: per-device send/receive times from the pairwise terms of
        // Eq. 2, straggler max, over the four A2A passes of one layer.
        let mut send = vec![0.0f64; n];
        let mut recv = vec![0.0f64; n];
        for &(src, _, dst, tokens) in routing.entries() {
            if src == dst {
                continue;
            }
            let mut t = tokens as f64 * params.v_comm / effective_bw(net, src, dst);
            if params.latency_aware {
                t += net.latency(src, dst);
            }
            send[src.index()] += t;
            recv[dst.index()] += t;
        }
        let straggler = send
            .iter()
            .zip(&recv)
            .map(|(&s, &r)| s.max(r))
            .fold(0.0, f64::max);
        let comm = 4.0 * straggler;
        // T_comp: the straggler device's forward time, times (3 + F_ckpt).
        let max_load = routing
            .device_compute_loads()
            .into_iter()
            .max()
            .unwrap_or(0) as f64;
        let comp = params.compute_multiplier() * max_load * params.v_comp / params.b_comp;
        CostBreakdown { comm, comp }
    }
}
