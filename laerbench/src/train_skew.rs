//! `train-skew`: the LAER asynchronous training loop on the wikitext
//! skew profile (Mixtral-8x7B e8k2, 4×8 devices, aux-loss 0, 8 layers).
//!
//! One op is one training iteration: `RoutingGenerator::next_iteration`
//! then `MoeSystem::plan_layer` for every layer, then one `Engine` +
//! `fsep::schedule_iteration`. It is the loop of
//! `laer_train::run_experiment` without its bookkeeping; `finish`
//! checks the two stay bit-identical on the modelled prefix.

use crate::trace::Tracer;
use crate::{Metric, Outcome, Size, Workload};
use laer_baselines::{LaerSystem, LayerPlan, MoeSystem, SystemKind};
use laer_cluster::Topology;
use laer_fsep::{schedule_iteration, ScheduleOptions};
use laer_model::ModelPreset;
use laer_obs::{AuditLog, AuditRecord};
use laer_planner::ExpertLayout;
use laer_routing::{RoutingGenerator, RoutingMatrix};
use laer_sim::Engine;
use laer_train::{run_experiment, ExperimentConfig};

/// The training loop's state between ops.
pub struct TrainSkew {
    cfg: ExperimentConfig,
    topo: Topology,
    system: LaerSystem,
    opts: ScheduleOptions,
    gens: Vec<RoutingGenerator>,
    iteration: u64,
    prefix: usize,
    prev_layouts: Vec<Option<ExpertLayout>>,
    attempted: u64,
    failed: u64,
    /// Simulated step seconds of the modelled prefix.
    steps: Vec<f64>,
    relayouts: u64,
    ratio_sum: f64,
    sim_spans: u64,
    audit: AuditLog,
}

/// What one iteration hands back for checking.
pub struct Iteration {
    demands: Vec<RoutingMatrix>,
    plans: Vec<LayerPlan>,
    step: f64,
    spans: usize,
}

impl TrainSkew {
    fn config(seed: u64, size: Size) -> ExperimentConfig {
        let cfg =
            ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer).with_seed(seed);
        match size {
            Size::Full => cfg.with_layers(8),
            Size::Tiny => cfg.with_layers(2).with_cluster(1, 4).with_iterations(3, 2),
        }
    }

    fn iterate(&mut self, tr: &mut Tracer) -> Iteration {
        let layers = self.gens.len();
        let mut demands = Vec::with_capacity(layers);
        let mut plans = Vec::with_capacity(layers);
        for (l, gen) in self.gens.iter_mut().enumerate() {
            let demand = tr.span("routing.gen", || gen.next_iteration());
            let system = &mut self.system;
            let iteration = self.iteration;
            plans.push(tr.span("baselines.plan_layer", || {
                system.plan_layer(l, iteration, &demand)
            }));
            demands.push(demand);
        }
        let (topo, opts) = (&self.topo, self.opts);
        let timings: Vec<_> = plans
            .iter()
            .map(|p: &LayerPlan| p.timings.clone())
            .collect();
        let (step, spans) = tr.span("fsep.schedule", || {
            let mut engine = Engine::new(topo);
            let t = schedule_iteration(&mut engine, topo, &timings, opts);
            (t.total, engine.timeline().spans().len())
        });
        self.iteration += 1;
        Iteration {
            demands,
            plans,
            step,
            spans,
        }
    }
}

impl Workload for TrainSkew {
    type Out = Iteration;
    const TAIL: f64 = 0.95;

    fn setup(seed: u64, size: Size) -> Self {
        let cfg = Self::config(seed, size);
        let system = LaerSystem::new(cfg.context());
        let opts = system.schedule_options();
        let mut w = Self {
            topo: cfg.topology(),
            gens: (0..cfg.layers)
                .map(|l| RoutingGenerator::new(cfg.routing_config(l)))
                .collect(),
            prev_layouts: vec![None; cfg.layers],
            prefix: cfg.iterations,
            system,
            opts,
            cfg,
            iteration: 0,
            attempted: 0,
            failed: 0,
            steps: Vec::new(),
            relayouts: 0,
            ratio_sum: 0.0,
            sim_spans: 0,
            audit: AuditLog::new(),
        };
        // The paper's warm-up iterations, excluded from every metric.
        let mut off = Tracer::new();
        for _ in 0..w.cfg.warmup {
            let it = w.iterate(&mut off);
            for (l, p) in it.plans.into_iter().enumerate() {
                w.prev_layouts[l] = Some(p.layout);
            }
        }
        w
    }

    fn op(&mut self, tr: &mut Tracer) -> Iteration {
        self.iterate(tr)
    }

    fn absorb(&mut self, it: Iteration) {
        let in_prefix = self.steps.len() < self.prefix;
        let factor = self.opts.expert_roundtrip_factor();
        let name = self.system.name();
        for (l, (plan, demand)) in it.plans.into_iter().zip(&it.demands).enumerate() {
            self.attempted += 1;
            if plan.routing.validate(demand, &plan.layout).is_err() {
                self.failed += 1;
            }
            let changed = self.prev_layouts[l].as_ref() != Some(&plan.layout);
            if in_prefix {
                let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
                let ratio = plan.max_token_ratio();
                self.relayouts += u64::from(changed);
                self.ratio_sum += ratio;
                // The same predicted-vs-charged join as the training
                // runner's decision audit.
                self.audit.push(AuditRecord {
                    system: name.to_string(),
                    iteration: self.iteration - 1,
                    layer: l,
                    trigger: plan.audit.trigger.clone(),
                    predicted_comm: plan.audit.predicted_comm,
                    predicted_comp: plan.audit.predicted_comp,
                    actual_comm: 2.0 * max(&plan.timings.dispatch)
                        + 2.0 * max(&plan.timings.combine),
                    actual_comp: factor * max(&plan.timings.expert_forward),
                    actual_imbalance: ratio,
                });
            }
            self.prev_layouts[l] = Some(plan.layout);
        }
        if in_prefix {
            self.steps.push(it.step);
            self.sim_spans += it.spans as u64;
        }
    }

    fn prefix_done(&self) -> bool {
        self.steps.len() >= self.prefix
    }

    fn finish(self, _traced: bool) -> Outcome {
        let n = self.steps.len() as f64;
        let laer = self.steps.iter().sum::<f64>() / n;
        // The loop must reproduce the library's runner bit for bit.
        let reference = run_experiment(&self.cfg);
        let faithful = reference.iteration_times.len() == self.steps.len()
            && reference
                .iteration_times
                .iter()
                .zip(&self.steps)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let mut fsdp_cfg = self.cfg.clone();
        fsdp_cfg.system = SystemKind::FsdpEp;
        let fsdp = run_experiment(&fsdp_cfg).avg_iteration_time;
        let plans = n * self.gens.len() as f64;
        let audit_err = self
            .audit
            .summary(self.system.name())
            .map_or(0.0, |s| s.mean_abs_rel_error);
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: faithful,
            modelled: vec![
                Metric::new("sim_step_ms", laer * 1e3, "ms"),
                Metric::new("speedup_vs_baseline", fsdp / laer, "ratio"),
            ],
            counts: vec![
                Metric::new("routing.calls", self.gens.len() as f64, "count"),
                Metric::new("baselines.relayouts", self.relayouts as f64 / n, "count"),
                Metric::new("baselines.max_token_ratio", self.ratio_sum / plans, "ratio"),
                Metric::new("baselines.audit_err", audit_err, "ratio"),
                Metric::new("sim.spans", self.sim_spans as f64 / n, "count"),
            ],
        }
    }
}
