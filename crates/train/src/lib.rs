//! End-to-end training experiments: the driver that turns systems,
//! routing traces and the simulator into the numbers of Sec. 5.
//!
//! * [`runner`] — multi-iteration experiment driver (Figs. 1b, 8, 10a,
//!   10b): per iteration it draws every layer's routing demand, lets the
//!   system plan, schedules the iteration on the simulator and collects
//!   throughput, breakdowns and balance metrics.
//! * [`convergence`] — the loss-curve model behind Figs. 2 and 9 (higher
//!   auxiliary-loss weight → slower per-step convergence but better
//!   balance → faster iterations).
//! * [`scaling`] — the trace-driven MLP-speedup study of Appendix D /
//!   Tab. 4.
//! * [`faults`] — deterministic fault injection and the detect → re-plan
//!   → resume recovery state machine behind the robustness experiments.
//! * [`rl`] — the RL post-training workload: rollout→train epochs where
//!   the train phase replays routing traces recorded during rollout,
//!   giving the layout tuner perfect foresight instead of a stale EMA.
//!
//! # Example
//!
//! ```no_run
//! use laer_baselines::SystemKind;
//! use laer_model::ModelPreset;
//! use laer_train::{ExperimentConfig, run_experiment};
//!
//! let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
//!     .with_iterations(5, 2)
//!     .with_layers(4);
//! let result = run_experiment(&cfg);
//! println!("{} tokens/s", result.tokens_per_second);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod convergence;
pub mod faults;
pub mod rl;
pub mod runner;
pub mod scaling;

pub use convergence::{ConvergenceModel, LossPoint};
pub use faults::{
    window_throughput, FaultRunner, IterationReport, RunnerCheckpoint, TraceShapeError, TrainError,
    CHECKPOINT_RELOAD, COLLECTIVE_TIMEOUT, DETECTION_DELAY, REPLAN_PENALTY,
};
pub use rl::{run_rl, run_rl_observed, RlConfig, RlEpochReport, RlResult};
pub use runner::{
    run_experiment, run_experiment_diagnosed, run_experiment_observed, run_experiment_on_trace,
    ExperimentConfig, ExperimentResult, TrainDiagnosis,
};
pub use scaling::{mlp_speedup, MlpSpeedupRow};
