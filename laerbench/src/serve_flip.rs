//! `serve-flip`: LAER online serving at the calibrated 1×4 operating
//! point of `ext-serve` (1200 rps offered, hot-expert flip every 30
//! steps, 1000 requests per session).
//!
//! One op is one session with seed `base + i`: `run_serving`, then
//! `record_observability` and a Chrome-trace export of the session's
//! simulated timeline into a byte-counting sink.
//!
//! The modelled metrics cover the first 512 sessions: the mean
//! simulated scheduler step, and the static-EP over LAER ratio of mean
//! TTFT on the same sessions (per-session p99s vary too much for a
//! stable ratio).
//!
//! The modelled traffic is an open loop: Poisson arrivals, each request
//! timed from its scheduled arrival. The benchmark itself is a closed loop
//! of one caller that starts the next session when the last returns.

use crate::trace::Tracer;
use crate::{Metric, Outcome, Size, Workload};
use laer_bench::ext_serve::point;
use laer_obs::Observer;
use laer_serve::{
    record_observability, run_serving, LatencySummary, ServeConfig, ServingOutcome,
    ServingSystemKind,
};
use laer_sim::write_chrome_trace;
use std::io::{self, Write};

const RATE_RPS: f64 = 1200.0;
const FLIP_PERIOD: u64 = 30;

/// A sink that keeps only the number of bytes written.
#[derive(Debug, Default)]
struct CountingSink(u64);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The serving workload's state between sessions.
pub struct ServeFlip {
    seed: u64,
    requests: usize,
    prefix: usize,
    session: u64,
    attempted: u64,
    failed: u64,
    /// Prefix sessions' modelled outcomes.
    ttft: Vec<f64>,
    goodput: f64,
    sim_seconds: f64,
    steps: u64,
    spans: u64,
    relayouts: u64,
    relocation: f64,
    trace_bytes: u64,
    sessions: u64,
}

/// What one session hands back for checking.
pub struct Session {
    outcome: ServingOutcome,
    trace_bytes: u64,
}

impl ServeFlip {
    fn config(&self, kind: ServingSystemKind, session: u64) -> ServeConfig {
        let mut cfg = point(kind, RATE_RPS, Some(FLIP_PERIOD), self.requests);
        cfg.workload.seed = self.seed.wrapping_add(session);
        cfg
    }
}

impl Workload for ServeFlip {
    type Out = Session;
    const TAIL: f64 = 0.95;

    fn setup(seed: u64, size: Size) -> Self {
        let (requests, prefix, warmup) = match size {
            Size::Full => (1000, 512, 16),
            Size::Tiny => (100, 2, 1),
        };
        let mut w = Self {
            seed,
            requests,
            prefix,
            session: 0,
            attempted: 0,
            failed: 0,
            ttft: Vec::new(),
            goodput: 0.0,
            sim_seconds: 0.0,
            steps: 0,
            spans: 0,
            relayouts: 0,
            relocation: 0.0,
            trace_bytes: 0,
            sessions: 0,
        };
        // Warm-up sessions replay the first timed seeds.
        for _ in 0..warmup {
            w.op(&mut Tracer::new());
        }
        w.session = 0;
        w
    }

    fn op(&mut self, tr: &mut Tracer) -> Session {
        let cfg = self.config(ServingSystemKind::Laer, self.session);
        self.session += 1;
        let outcome = tr.span("serve.run", || run_serving(&cfg));
        let trace_bytes = tr.span("obs.export", || {
            let mut obs = Observer::new();
            record_observability(&outcome, &mut obs);
            let mut sink = CountingSink::default();
            write_chrome_trace(&outcome.timeline, &mut sink).map(|()| sink.0)
        });
        Session {
            outcome,
            // The sink cannot fail; an error here is a broken export.
            trace_bytes: trace_bytes.unwrap_or(0),
        }
    }

    fn absorb(&mut self, s: Session) {
        let r = &s.outcome.report;
        self.attempted += r.requests as u64;
        // Every request must be accounted for; a rejected or shed one
        // counts as failed.
        let unaccounted = r.requests.abs_diff(r.completed + r.rejected);
        self.failed += (r.rejected + unaccounted) as u64 + u64::from(s.trace_bytes == 0);
        if self.sessions < self.prefix as u64 {
            self.sessions += 1;
            self.ttft.extend_from_slice(&s.outcome.ttft);
            self.goodput += r.goodput_rps;
            self.sim_seconds += r.duration;
            self.steps += r.steps;
            self.spans += s.outcome.timeline.spans().len() as u64;
            self.relayouts += r.relayouts;
            self.relocation += r.relocation_time;
            self.trace_bytes += s.trace_bytes;
        }
    }

    fn prefix_done(&self) -> bool {
        self.sessions >= self.prefix as u64
    }

    fn finish(self, _traced: bool) -> Outcome {
        let n = self.sessions as f64;
        let laer = LatencySummary::from_samples(&self.ttft);
        let mut static_ttft = Vec::new();
        for i in 0..self.sessions {
            let out = run_serving(&self.config(ServingSystemKind::StaticEp, i));
            static_ttft.extend_from_slice(&out.ttft);
        }
        let static_mean = LatencySummary::from_samples(&static_ttft).mean;
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            correct: true,
            modelled: vec![
                Metric::new(
                    "sim_step_ms",
                    self.sim_seconds / self.steps as f64 * 1e3,
                    "ms",
                ),
                Metric::new("speedup_vs_baseline", static_mean / laer.mean, "ratio"),
            ],
            counts: vec![
                Metric::new("serve.steps", self.steps as f64 / n, "count"),
                Metric::new("serve.spans", self.spans as f64 / n, "count"),
                Metric::new("serve.relayouts", self.relayouts as f64 / n, "count"),
                Metric::new("serve.relocation_ms", self.relocation / n * 1e3, "ms"),
                Metric::new("serve.ttft_p50_ms", laer.p50 * 1e3, "ms"),
                Metric::new("serve.ttft_p99_ms", laer.p99 * 1e3, "ms"),
                Metric::new("serve.goodput_rps", self.goodput / n, "1/s"),
                Metric::new("obs.trace_bytes", self.trace_bytes as f64 / n, "bytes"),
            ],
        }
    }
}
