//! `plan-fleet`: one-shot planning at fleet scale, the `ext-scale`
//! configuration at N1024 (8-GPU nodes, 16 experts, capacity 2, ε 8,
//! latency-aware E16k4/A100 cost model, refine budget 400).
//!
//! One op: the demand of instance `base + i` (a fresh generator per
//! instance) → `Planner::plan` → `refine_layout` → one simulated
//! 4-layer FSEP step under the refined routing. Fresh instances keep a
//! run from resting on one demand: the refiner costs ~4× more on the
//! few percent of demands where it accepts moves, and one generator
//! stream keeps that character for a whole run.

use crate::trace::Tracer;
use crate::{Metric, Outcome, Size, Workload};
use laer_baselines::SystemContext;
use laer_cluster::Topology;
use laer_fsep::{schedule_iteration, ScheduleOptions};
use laer_model::{GpuSpec, ModelPreset};
use laer_planner::{
    lite_route, refine_layout, CostParams, ExpertLayout, Plan, Planner, PlannerConfig, RefinedPlan,
    TokenRouting,
};
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig, RoutingMatrix};
use laer_sim::Engine;

const EXPERTS: usize = 16;
const CAPACITY: usize = 2;
const EPSILON: usize = 8;
const ASSIGNMENTS_PER_DEVICE: u64 = 16 * 1024;
const SIM_LAYERS: usize = 4;
/// Ops whose modelled numbers are reported (each run makes at least
/// this many).
const PREFIX: usize = 16;

/// The planner's state between ops.
pub struct PlanFleet {
    topo: Topology,
    params: CostParams,
    planner: Planner,
    ctx: SystemContext,
    demands: RoutingGeneratorConfig,
    instance: u64,
    budget: usize,
    failed: u64,
    attempted: u64,
    /// Prefix demands and the simulated LAER step under each.
    prefix: Vec<(RoutingMatrix, f64)>,
    probes: u64,
    accepted: u64,
    plan_cost: f64,
    sim_spans: u64,
}

/// What one op hands back for checking.
pub struct FleetOp {
    demand: RoutingMatrix,
    plan: Plan,
    refined: RefinedPlan,
    step: f64,
    spans: usize,
}

/// One simulated FSEP training iteration of `SIM_LAYERS` identical
/// layers under `routing`: makespan seconds and spans enqueued.
fn simulate(ctx: &SystemContext, routing: &TokenRouting) -> (f64, usize) {
    let timings = ctx.layer_timings(
        routing,
        0.0,
        ctx.fsep_prefetch_time(),
        ctx.fsep_grad_sync_time(),
    );
    let layers = vec![timings; SIM_LAYERS];
    let topo = ctx.topology();
    let mut engine = Engine::new(topo);
    let t = schedule_iteration(&mut engine, topo, &layers, ScheduleOptions::optimized());
    (t.total, engine.timeline().spans().len())
}

impl Workload for PlanFleet {
    type Out = FleetOp;
    const TAIL: f64 = 0.80;

    fn setup(seed: u64, size: Size) -> Self {
        let (devices, budget) = match size {
            Size::Full => (1024, 400),
            Size::Tiny => (64, 50),
        };
        let topo = Topology::new(devices / 8, 8).expect("whole 8-GPU nodes");
        let model = ModelPreset::Mixtral8x7bE16k4.config();
        let params =
            CostParams::from_model(&model, GpuSpec::a100(), false).with_latency_aware(true);
        let mut w = Self {
            planner: Planner::new(
                PlannerConfig::new(CAPACITY).with_epsilon(EPSILON),
                params,
                topo.clone(),
            ),
            ctx: SystemContext::new(
                topo.clone(),
                model,
                GpuSpec::a100(),
                ASSIGNMENTS_PER_DEVICE,
                8192,
            ),
            demands: RoutingGeneratorConfig::new(devices, EXPERTS, ASSIGNMENTS_PER_DEVICE)
                .with_seed(seed),
            instance: 0,
            topo,
            params,
            budget,
            failed: 0,
            attempted: 0,
            prefix: Vec::new(),
            probes: 0,
            accepted: 0,
            plan_cost: 0.0,
            sim_spans: 0,
        };
        // One warm-up op, so first-touch allocation is not timed.
        w.op(&mut Tracer::new());
        w
    }

    fn op(&mut self, tr: &mut Tracer) -> FleetOp {
        let cfg = self
            .demands
            .clone()
            .with_seed(self.demands.seed.wrapping_add(self.instance));
        self.instance += 1;
        let demand = tr.span("routing.gen", || {
            RoutingGenerator::new(cfg).next_iteration()
        });
        let plan = tr.span("planner.plan", || self.planner.plan(&demand));
        let refined = tr.span("planner.refine", || {
            refine_layout(&self.topo, &demand, &plan.layout, &self.params, self.budget)
        });
        let (step, spans) = tr.span("fsep.schedule", || simulate(&self.ctx, &refined.routing));
        FleetOp {
            demand,
            plan,
            refined,
            step,
            spans,
        }
    }

    fn absorb(&mut self, op: FleetOp) {
        self.attempted += 1;
        let ok = op
            .plan
            .routing
            .validate(&op.demand, &op.plan.layout)
            .is_ok()
            && op.refined.layout.validate().is_ok()
            && op
                .refined
                .routing
                .validate(&op.demand, &op.refined.layout)
                .is_ok();
        self.failed += u64::from(!ok);
        if self.prefix.len() < PREFIX {
            self.probes += op.refined.probes_evaluated as u64;
            self.accepted += op.refined.moves_accepted as u64;
            self.plan_cost += op.refined.cost.total();
            self.sim_spans += op.spans as u64;
            self.prefix.push((op.demand, op.step));
        }
    }

    fn prefix_done(&self) -> bool {
        self.prefix.len() >= PREFIX
    }

    fn finish(self, traced: bool) -> Outcome {
        let n = self.prefix.len() as f64;
        let devices = self.topo.num_devices();
        let static_layout =
            ExpertLayout::classic_ep(devices, EXPERTS, CAPACITY).expect("capacity divides experts");
        let mut laer = 0.0;
        let mut baseline = 0.0;
        let mut schemes = 0usize;
        for (demand, step) in &self.prefix {
            laer += step;
            baseline += simulate(&self.ctx, &lite_route(&self.topo, demand, &static_layout)).0;
            // Candidate generation is extra planner work, so it is
            // counted only when per-layer numbers are reported.
            if traced {
                let candidates = self.planner.candidate_schemes(demand);
                schemes += self.planner.unique_schemes(candidates).len();
            }
        }
        let accept_ratio = if self.probes == 0 {
            0.0
        } else {
            self.accepted as f64 / self.probes as f64
        };
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: true,
            modelled: vec![
                Metric::new("sim_step_ms", laer / n * 1e3, "ms"),
                Metric::new("speedup_vs_baseline", baseline / laer, "ratio"),
            ],
            counts: vec![
                Metric::new("routing.calls", 1.0, "count"),
                Metric::new("planner.schemes", schemes as f64 / n, "count"),
                Metric::new("planner.refine_probes", self.probes as f64 / n, "count"),
                Metric::new("planner.refine_accepted", self.accepted as f64 / n, "count"),
                Metric::new("planner.refine_accept_ratio", accept_ratio, "ratio"),
                Metric::new("planner.plan_cost_ms", self.plan_cost / n * 1e3, "ms"),
                Metric::new("sim.spans", self.sim_spans as f64 / n, "count"),
            ],
        }
    }
}
