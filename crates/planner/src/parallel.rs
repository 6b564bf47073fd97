//! Multi-threaded candidate evaluation.
//!
//! The paper offloads layout solving to CPU processes and notes (Sec. 5.4)
//! that "since solving is layer-independent, we can parallelize solvers
//! for different layers across multiple CPU processes". This module
//! provides both levels: candidate schemes of one layer are evaluated
//! across threads, and independent layers can be planned concurrently —
//! with results identical to the serial [`crate::Planner::plan`].

use crate::cost::CostBreakdown;
use crate::layout::ExpertLayout;
use crate::tuner::{Plan, Planner};
use laer_routing::RoutingMatrix;
use std::sync::Mutex;

/// Locks a mutex, recovering from poisoning (worker panics propagate via
/// `std::thread::scope`, so a poisoned lock only occurs while unwinding).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Plans one layer by evaluating the candidate set across `threads`
/// worker threads. Deterministic: the same plan as the serial tuner
/// (ties broken toward the lower candidate index).
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn plan_parallel(planner: &Planner, demand: &RoutingMatrix, threads: usize) -> Plan {
    plan_parallel_indexed(planner, demand, threads).1
}

/// [`plan_parallel`] also reporting which deduplicated candidate index
/// won — the determinism tests assert the `(index, plan)` pair is
/// identical at any thread count.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn plan_parallel_indexed(
    planner: &Planner,
    demand: &RoutingMatrix,
    threads: usize,
) -> (usize, Plan) {
    assert!(threads > 0, "at least one thread");
    // Same dedup as the serial tuner: duplicates cost the same, and ties
    // already break toward the lower index, so dropping repeats keeps the
    // result identical while saving whole evaluations.
    let schemes = planner.unique_schemes(planner.candidate_schemes(demand));
    let loads = demand.expert_loads();
    let topo = planner.topology();
    let all: Vec<laer_cluster::DeviceId> = topo.devices().collect();
    let chunks = planner.config().num_chunks;
    // (candidate index, layout, predicted cost) — the lowest total wins,
    // ties to the low index. Candidates are priced without routing; only
    // the winner is routed, after the workers join.
    let best: Mutex<Option<(usize, ExpertLayout, CostBreakdown)>> = Mutex::new(None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(schemes.len()).max(1) {
            scope.spawn(|| {
                // One routing scratch per worker, reused across every
                // candidate this worker claims.
                let mut scratch = crate::lite_routing::RouteScratch::new();
                loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= schemes.len() {
                        break;
                    }
                    let (layout, base) = planner.price_scheme(
                        &schemes[idx],
                        &loads,
                        demand,
                        topo,
                        &all,
                        &mut scratch,
                    );
                    let predicted = base.pipelined(chunks);
                    let mut guard = lock_recover(&best);
                    let replace = match &*guard {
                        None => true,
                        Some((best_idx, _, best_cost)) => {
                            let t = predicted.total();
                            let bt = best_cost.total();
                            t < bt || (t == bt && idx < *best_idx)
                        }
                    };
                    if replace {
                        *guard = Some((idx, layout, predicted));
                    }
                }
            });
        }
    });
    match best.into_inner() {
        Ok(Some((idx, layout, predicted))) => {
            (idx, planner.route_winner(demand, layout, predicted))
        }
        // `schemes` is non-empty (the tuner always emits at least the
        // proportional scheme), so a missing result can only mean a
        // worker panicked — which `std::thread::scope` already turned
        // into a propagated panic before reaching this point.
        _ => unreachable!("candidate set is non-empty"),
    }
}

/// Plans several independent layers concurrently, one thread per layer
/// (bounded by `threads`), preserving input order in the output.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn plan_layers_parallel(
    planner: &Planner,
    demands: &[RoutingMatrix],
    threads: usize,
) -> Vec<Plan> {
    assert!(threads > 0, "at least one thread");
    let results: Vec<Mutex<Option<Plan>>> = demands.iter().map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(demands.len()).max(1) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= demands.len() {
                    break;
                }
                let plan = planner.plan(&demands[idx]);
                *lock_recover(&results[idx]) = Some(plan);
            });
        }
    });
    results
        .into_iter()
        .map(|m| match m.into_inner() {
            Ok(Some(plan)) => plan,
            // Every index below `demands.len()` is claimed exactly once;
            // worker panics propagate out of `std::thread::scope` first.
            _ => unreachable!("every layer planned"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostParams, PlannerConfig};
    use laer_cluster::Topology;
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn setup() -> (Planner, Vec<RoutingMatrix>) {
        let planner = Planner::new(
            PlannerConfig::new(2).with_epsilon(6),
            CostParams::mixtral_8x7b(),
            Topology::paper_cluster(),
        );
        let mut gen = RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 8192).with_seed(5));
        let demands: Vec<_> = (0..4).map(|_| gen.next_iteration()).collect();
        (planner, demands)
    }

    #[test]
    fn parallel_matches_serial() {
        let (planner, demands) = setup();
        for d in &demands {
            let serial = planner.plan(d);
            let parallel = plan_parallel(&planner, d, 4);
            assert_eq!(serial.layout, parallel.layout);
            assert_eq!(serial.predicted, parallel.predicted);
        }
    }

    #[test]
    fn layer_parallel_matches_serial() {
        let (planner, demands) = setup();
        let serial: Vec<_> = demands.iter().map(|d| planner.plan(d)).collect();
        let parallel = plan_layers_parallel(&planner, &demands, 3);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.layout, p.layout);
        }
    }

    /// The pooled tuner picks the identical (candidate index, plan) at
    /// every thread count — the cross-thread tie-break (strict lower
    /// total, then lower index) cannot drift with scheduling.
    #[test]
    fn thread_count_does_not_change_winner() {
        let (planner, demands) = setup();
        for d in &demands {
            let (idx1, plan1) = plan_parallel_indexed(&planner, d, 1);
            for threads in [2usize, 4, 8] {
                let (idx, plan) = plan_parallel_indexed(&planner, d, threads);
                assert_eq!(idx, idx1, "winning index at {threads} threads");
                assert_eq!(plan.layout, plan1.layout);
                assert_eq!(
                    plan.predicted.total().to_bits(),
                    plan1.predicted.total().to_bits()
                );
                assert_eq!(plan.routing.entries(), plan1.routing.entries());
            }
        }
    }

    #[test]
    fn single_thread_works() {
        let (planner, demands) = setup();
        let plan = plan_parallel(&planner, &demands[0], 1);
        assert!(plan.layout.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let (planner, demands) = setup();
        let _ = plan_parallel(&planner, &demands[0], 0);
    }
}
