//! The planner's time model — Eqs. 2–4 of the paper.
//!
//! `T = T_comm + T_comp` with
//!
//! * `T_comm` built from the paper's pairwise terms
//!   `S[i][j][k] · V_comm / bw(i, k)` (Eq. 2's communication sum), but
//!   aggregated per device and taken over the straggler:
//!   `T_comm = 4 · max_i max(send_i, recv_i)` where `send_i` sums the
//!   pairwise terms leaving device `i` and `recv_i` those arriving.
//!   The paper writes the aggregation as a flat sum; a flat sum is total
//!   byte-seconds rather than wall time, and since the All-to-All is a
//!   synchronising collective the executor's iteration time tracks the
//!   slowest device — the max aggregation makes the planner optimise the
//!   quantity the system actually experiences (and what
//!   `laer_sim::all_to_all_time` charges);
//! * `T_comp = (3 + F_ckpt) · max_i V_comp · Σ_{j,k} S[k][j][i] / B_comp`.

use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, Interconnect, LinkKind};
use laer_model::{CostModel, GpuSpec, ModelConfig, ModelPreset};
use serde::{Deserialize, Serialize};

/// Scalar parameters of the planner's time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Bytes moved per token per All-to-All hop (`V_comm`).
    pub v_comm: f64,
    /// Forward FLOPs per (token, expert) assignment (`V_comp`).
    pub v_comp: f64,
    /// Effective per-GPU throughput (`B_comp`), FLOP/s.
    pub b_comp: f64,
    /// Whether activation checkpointing doubles the forward pass
    /// (`F_ckpt` of Eq. 2's computation term).
    pub checkpointing: bool,
    /// Whether the pairwise communication term also charges the link's
    /// per-message latency, matching `laer_sim::all_to_all_time`'s
    /// per-peer `latency + bytes/bw` pricing. The paper's Eq. 2 (and
    /// the default here) is bandwidth-only — accurate at the paper's 32
    /// devices, but at fleet scale a rare expert's replica receives
    /// from hundreds of distinct peers and the accumulated latency
    /// dominates its A2A time, so fleet-size planning must price it.
    /// Charged per routing entry (a slight over-count when one peer
    /// pair carries several experts' traffic — the simulator charges
    /// per aggregated pair), which is conservative for planning.
    #[serde(default)]
    pub latency_aware: bool,
}

impl CostParams {
    /// Builds cost parameters from a model configuration and GPU spec.
    pub fn from_model(cfg: &ModelConfig, gpu: GpuSpec, checkpointing: bool) -> Self {
        let cm = CostModel::new(cfg, gpu);
        Self {
            v_comm: cm.v_comm(),
            v_comp: cm.v_comp(),
            b_comp: gpu.effective_flops(),
            checkpointing,
            latency_aware: false,
        }
    }

    /// Enables or disables per-peer latency in the communication term
    /// (see [`CostParams::latency_aware`]).
    #[must_use]
    pub fn with_latency_aware(mut self, on: bool) -> Self {
        self.latency_aware = on;
        self
    }

    /// The Mixtral-8x7B e8k2 / A100 operating point used in most of the
    /// paper's experiments.
    pub fn mixtral_8x7b() -> Self {
        Self::from_model(
            &ModelPreset::Mixtral8x7bE8k2.config(),
            GpuSpec::a100(),
            false,
        )
    }

    /// The `(3 + F_ckpt)` forward/backward multiplier.
    pub fn compute_multiplier(&self) -> f64 {
        if self.checkpointing {
            4.0
        } else {
            3.0
        }
    }
}

/// The two components of the objective, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// `T_comm` of Eq. 2.
    pub comm: f64,
    /// `T_comp` of Eq. 2.
    pub comp: f64,
}

impl CostBreakdown {
    /// `T = T_comm + T_comp`.
    pub fn total(&self) -> f64 {
        self.comm + self.comp
    }

    /// Re-prices this breakdown for the executor's chunked
    /// dispatch/combine pipeline: the layer's A2A is split into
    /// `num_chunks` equal chunks and every chunk but the first can hide
    /// behind the previous chunk's expert compute, so the exposed
    /// communication becomes
    ///
    /// ```text
    /// T_comm' = T_comm/C + (C - 1) · max(0, T_comm/C - T_comp/C)
    /// ```
    ///
    /// — the first chunk's A2A plus the per-chunk residue that compute
    /// cannot cover (equivalently `max(T_comm - T_comp·(C-1)/C,
    /// T_comm/C)`, the pipeline makespan minus the compute it overlaps).
    /// `T_comp` is unchanged: chunking moves communication off the
    /// critical path but performs the same FLOPs. With `num_chunks <= 1`
    /// the breakdown is returned bit-identically, matching the
    /// executor's invariant that one chunk reproduces the whole-iteration
    /// schedule.
    pub fn pipelined(self, num_chunks: usize) -> CostBreakdown {
        if num_chunks <= 1 {
            return self;
        }
        let c = num_chunks as f64;
        let per_chunk_comm = self.comm / c;
        let per_chunk_comp = self.comp / c;
        CostBreakdown {
            comm: per_chunk_comm + (c - 1.0) * (per_chunk_comm - per_chunk_comp).max(0.0),
            comp: self.comp,
        }
    }
}

/// Effective point-to-point bandwidth and latency of the `a`–`b` link,
/// from one [`Interconnect::link`] query: NVLink per device, NIC shared
/// per node, rack spine shared per rack. Generic over [`Interconnect`]
/// so degraded network views price faults directly.
pub(crate) fn link_terms<I: Interconnect + ?Sized>(
    net: &I,
    a: DeviceId,
    b: DeviceId,
) -> (f64, f64) {
    let (kind, bw, latency) = net.link(a, b);
    let effective = match kind {
        LinkKind::Local => f64::INFINITY,
        LinkKind::IntraNode => bw,
        LinkKind::InterNode => bw / net.devices_per_node() as f64,
        // The rack spine is shared by every device in the rack.
        LinkKind::InterRack => bw / net.devices_per_rack().unwrap_or(1) as f64,
    };
    (effective, latency)
}

impl CostParams {
    /// Eq. 2's pairwise term: `tokens` over a link with the given
    /// [`link_terms`], plus its latency when latency-aware.
    #[inline]
    pub(crate) fn pair_time(&self, tokens: u64, (bw, latency): (f64, f64)) -> f64 {
        let mut t = tokens as f64 * self.v_comm / bw;
        if self.latency_aware {
            t += latency;
        }
        t
    }
}

/// Eq. 2's per-device fold, fed routed rows in entry order. [`time_cost`]
/// and the tuner's route-and-price pass ([`crate::lite_routing`]) both
/// fold through it, so they agree bit for bit.
#[derive(Debug, Default)]
pub(crate) struct CostAccumulator {
    send: Vec<f64>,
    recv: Vec<f64>,
    loads: Vec<u64>,
}

impl CostAccumulator {
    /// Clears the fold for `n` devices.
    pub(crate) fn reset(&mut self, n: usize) {
        for v in [&mut self.send, &mut self.recv] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.loads.clear();
        self.loads.resize(n, 0);
    }

    /// Folds one row: `tokens` of work land on `dst`, and a non-local
    /// row's pairwise term is charged to `src`'s send and `dst`'s
    /// receive time.
    #[inline]
    pub(crate) fn add<I: Interconnect + ?Sized>(
        &mut self,
        net: &I,
        params: &CostParams,
        src: DeviceId,
        dst: DeviceId,
        tokens: u64,
    ) {
        self.loads[dst.index()] += tokens;
        if src == dst {
            return;
        }
        let t = params.pair_time(tokens, link_terms(net, src, dst));
        self.send[src.index()] += t;
        self.recv[dst.index()] += t;
    }

    /// `T_comm` over the four A2A passes of one layer, from the
    /// straggler's `max(send, recv)`, and `T_comp` from the straggler's
    /// forward time times `(3 + F_ckpt)`.
    pub(crate) fn finish(&self, params: &CostParams) -> CostBreakdown {
        let straggler = self
            .send
            .iter()
            .zip(&self.recv)
            .map(|(&s, &r)| s.max(r))
            .fold(0.0, f64::max);
        let comm = 4.0 * straggler;
        let max_load = self.loads.iter().copied().max().unwrap_or(0) as f64;
        let comp = params.compute_multiplier() * max_load * params.v_comp / params.b_comp;
        CostBreakdown { comm, comp }
    }
}

/// Evaluates the objective `T = T_comm + T_comp` for a routing strategy.
pub fn time_cost<I: Interconnect + ?Sized>(
    net: &I,
    routing: &TokenRouting,
    params: &CostParams,
) -> CostBreakdown {
    let mut acc = CostAccumulator::default();
    acc.reset(net.num_devices().max(routing.num_devices()));
    for &(src, _, dst, tokens) in routing.entries() {
        acc.add(net, params, src, dst, tokens);
    }
    acc.finish(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};

    /// A degraded view raises `T_comm` for routings over the weak link.
    #[test]
    fn degraded_link_raises_comm_cost() {
        let topo = Topology::paper_cluster();
        let mut view = DegradedView::new(topo.clone());
        view.degrade_link(DeviceId::new(0), DeviceId::new(9), 0.5);
        let mut s = TokenRouting::new(32, 8);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(9), 1000);
        let nominal = time_cost(&topo, &s, &params());
        let degraded = time_cost(&view, &s, &params());
        assert!((degraded.comm / nominal.comm - 2.0).abs() < 1e-9);
        assert_eq!(degraded.comp, nominal.comp);
    }

    fn params() -> CostParams {
        CostParams::mixtral_8x7b()
    }

    #[test]
    fn local_routing_has_zero_comm() {
        let topo = Topology::single_node(2).unwrap();
        let mut s = TokenRouting::new(2, 2);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 100);
        let c = time_cost(&topo, &s, &params());
        assert_eq!(c.comm, 0.0);
        assert!(c.comp > 0.0);
    }

    #[test]
    fn remote_routing_pays_comm() {
        let topo = Topology::paper_cluster();
        let mut s = TokenRouting::new(32, 8);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(9), 1000);
        let c = time_cost(&topo, &s, &params());
        assert!(c.comm > 0.0);
    }

    #[test]
    fn inter_node_comm_costs_more() {
        let topo = Topology::paper_cluster();
        let mut intra = TokenRouting::new(32, 8);
        intra.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(1), 1000);
        let mut inter = TokenRouting::new(32, 8);
        inter.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(9), 1000);
        let ci = time_cost(&topo, &intra, &params());
        let cx = time_cost(&topo, &inter, &params());
        assert!(cx.comm > ci.comm * 5.0);
    }

    #[test]
    fn comp_uses_straggler() {
        let topo = Topology::single_node(2).unwrap();
        let mut even = TokenRouting::new(2, 2);
        even.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 500);
        even.push(DeviceId::new(1), ExpertId::new(1), DeviceId::new(1), 500);
        let mut skew = TokenRouting::new(2, 2);
        skew.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 900);
        skew.push(DeviceId::new(1), ExpertId::new(1), DeviceId::new(1), 100);
        let p = params();
        let ce = time_cost(&topo, &even, &p);
        let cs = time_cost(&topo, &skew, &p);
        assert!((cs.comp / ce.comp - 900.0 / 500.0).abs() < 1e-9);
    }

    #[test]
    fn checkpointing_multiplier() {
        let mut p = params();
        assert_eq!(p.compute_multiplier(), 3.0);
        p.checkpointing = true;
        assert_eq!(p.compute_multiplier(), 4.0);
    }

    #[test]
    fn breakdown_total() {
        let b = CostBreakdown {
            comm: 1.5,
            comp: 2.5,
        };
        assert_eq!(b.total(), 4.0);
    }

    /// One chunk is the identity — bit-identical, mirroring the
    /// executor's `num_chunks = 1` invariant.
    #[test]
    fn pipelined_single_chunk_is_identity() {
        let b = CostBreakdown {
            comm: 0.37,
            comp: 0.21,
        };
        for c in [0usize, 1] {
            let p = b.pipelined(c);
            assert_eq!(p.comm.to_bits(), b.comm.to_bits());
            assert_eq!(p.comp.to_bits(), b.comp.to_bits());
        }
    }

    /// Exposed communication is monotonically non-increasing in the
    /// chunk count and bounded below by the first chunk's A2A.
    #[test]
    fn pipelined_comm_monotone_and_floored() {
        let b = CostBreakdown {
            comm: 0.4,
            comp: 0.3,
        };
        let mut prev = b.pipelined(1).comm;
        for c in [2usize, 3, 4, 8, 16, 64] {
            let p = b.pipelined(c);
            assert!(p.comm <= prev + 1e-15, "chunks {c}: {} > {prev}", p.comm);
            assert!(p.comm >= b.comm / c as f64 - 1e-15);
            assert_eq!(p.comp, b.comp, "chunking must not change T_comp");
            prev = p.comm;
        }
    }

    /// Compute-bound layers hide everything but the first chunk; comm-
    /// bound layers keep the residue exposed.
    #[test]
    fn pipelined_limits() {
        // Compute-rich: comp >> comm, so exposed comm collapses to
        // comm / C exactly.
        let rich = CostBreakdown {
            comm: 0.1,
            comp: 1.0,
        };
        let p = rich.pipelined(4);
        assert!((p.comm - 0.1 / 4.0).abs() < 1e-15);
        // Comm-bound: comp = 0, chunking cannot hide anything.
        let bound = CostBreakdown {
            comm: 0.8,
            comp: 0.0,
        };
        let q = bound.pipelined(8);
        assert!((q.comm - 0.8).abs() < 1e-15);
    }
}
