//! Incremental (delta) evaluation of the planner objective — the
//! fleet-scale hot path.
//!
//! Every probe of the local-search refiner ([`crate::refine`]) and every
//! state of the exhaustive enumerator ([`crate::exact`]) differs from its
//! predecessor by the placement of one or two experts. Rebuilding the
//! whole `lite_route` + `time_cost` pipeline per probe is `O(n·e)` cells
//! of routing work (each with a sort and several allocations) when only
//! the affected experts' columns can change: lite routing decides each
//! `(source, expert)` cell *only* from that expert's replica placement,
//! so a move touching experts `{a, b}` invalidates at most the `2n`
//! cells of those two columns.
//!
//! [`IncrementalCost`] exploits this, and narrows it further: a cell's
//! Alg. 3 target list depends only on the expert's replica counts on the
//! sender's node, or, when that node hosts none, on the expert's global
//! replica list. A move therefore changes only the cells of the nodes
//! whose counts changed and of the nodes that read the global list.
//!
//! * **Re-route.** Per `(source, expert)` cell the routed rows
//!   `(destination, tokens, t_comm)` are cached — the inner terms of
//!   Eq. 2's per-device max-aggregation. [`IncrementalCost::cost`]
//!   re-routes only the stale nodes' cells of the columns the moves
//!   touched and copies the rest.
//! * **Re-fold.** Eq. 2 aggregates with `max` over per-device *sums*,
//!   which cannot be kept by subtract-and-add (floating-point sums are
//!   not reversible). So the per-device sums are cached, and only the
//!   sums whose addends changed are re-folded from scratch: a source's
//!   send sum when one of its cells changed, a destination's receive sum
//!   when a row to it appeared, left or changed. Each is re-folded in
//!   **exactly** the entry order of [`crate::cost::time_cost`] over
//!   [`crate::lite_routing::lite_route`] (sources ascending, experts
//!   ascending, targets in emission order); when that would visit more
//!   cells than folding everything, everything is folded. Same addends,
//!   same order — the result is bit-identical to the from-scratch
//!   oracle, which the property tests in `tests/proptests.rs` enforce.
//!
//! Rows are stored per expert as one contiguous CSR-style column
//! (`starts` offsets + a flat entry array): re-routing is a linear
//! rebuild into retained buffers with no per-cell allocation.
//!
//! [`IncrementalCost::apply_retarget`] / [`IncrementalCost::apply_swap`]
//! snapshot the two affected columns, and the cached sums when they are
//! complete, so [`IncrementalCost::revert`] restores both by swap-back
//! instead of re-routing and re-folding — a rejected probe costs one
//! partial re-route and re-fold, not two. Routing stays a pure function
//! of the layout either way; the snapshots are purely an optimisation.

use crate::cost::{link_terms, CostBreakdown, CostParams};
use crate::layout::ExpertLayout;
use crate::lite_routing::{distribute_evenly_into, RouteScratch};
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, NodeId, Topology};
use laer_routing::RoutingMatrix;

/// Flat-array replica index: row-major `devices × experts` counts plus a
/// per-expert device list kept sorted by device id, so both the refiner's
/// guards (`replica_count`, `expert_replicas`) and lite routing's global
/// fallback read without scanning or allocating. Per-node counts and the
/// per-expert list of nodes that host no replica (the nodes whose Alg. 3
/// cells read the global list) say which cells a move can change.
#[derive(Debug, Clone)]
struct LayoutIndex {
    devices: usize,
    experts: usize,
    capacity: usize,
    devices_per_node: usize,
    counts: Vec<u32>,
    /// Per expert: `(device, count)` with count > 0, ascending device id
    /// — the exact output order of [`ExpertLayout::replica_devices`].
    per_expert: Vec<Vec<(DeviceId, u32)>>,
    totals: Vec<usize>,
    /// Row-major `nodes × experts` replica counts.
    node_counts: Vec<u32>,
    /// Per expert: ascending ids of the nodes hosting no replica of it.
    fallback: Vec<Vec<u32>>,
}

impl LayoutIndex {
    fn from_layout(layout: &ExpertLayout, devices_per_node: usize) -> Self {
        let devices = layout.num_devices();
        let experts = layout.num_experts();
        let nodes = devices / devices_per_node;
        let mut index = Self {
            devices,
            experts,
            capacity: layout.capacity(),
            devices_per_node,
            counts: vec![0; devices * experts],
            per_expert: vec![Vec::new(); experts],
            totals: vec![0; experts],
            node_counts: vec![0; nodes * experts],
            fallback: vec![(0..nodes as u32).collect(); experts],
        };
        for (cell, &c) in layout.replica_counts().iter().enumerate() {
            let (device, expert) = (DeviceId::new(cell / experts), ExpertId::new(cell % experts));
            for _ in 0..c {
                index.add_replica(device, expert);
            }
        }
        index
    }

    fn replica_count(&self, device: DeviceId, expert: ExpertId) -> u32 {
        self.counts[device.index() * self.experts + expert.index()]
    }

    fn node_of(&self, device: DeviceId) -> usize {
        device.index() / self.devices_per_node
    }

    fn add_replica(&mut self, device: DeviceId, expert: ExpertId) {
        self.counts[device.index() * self.experts + expert.index()] += 1;
        self.totals[expert.index()] += 1;
        let list = &mut self.per_expert[expert.index()];
        match list.binary_search_by(|&(d, _)| d.cmp(&device)) {
            Ok(pos) => list[pos].1 += 1,
            Err(pos) => list.insert(pos, (device, 1)),
        }
        let node = self.node_of(device);
        let on_node = &mut self.node_counts[node * self.experts + expert.index()];
        if *on_node == 0 {
            let fallback = &mut self.fallback[expert.index()];
            if let Ok(pos) = fallback.binary_search(&(node as u32)) {
                fallback.remove(pos);
            }
        }
        *on_node += 1;
    }

    fn remove_replica(&mut self, device: DeviceId, expert: ExpertId) {
        let cell = device.index() * self.experts + expert.index();
        assert!(self.counts[cell] > 0, "removing absent replica");
        self.counts[cell] -= 1;
        self.totals[expert.index()] -= 1;
        let list = &mut self.per_expert[expert.index()];
        let pos = list
            .binary_search_by(|&(d, _)| d.cmp(&device))
            .unwrap_or_else(|_| unreachable!("count was positive"));
        if list[pos].1 == 1 {
            list.remove(pos);
        } else {
            list[pos].1 -= 1;
        }
        let node = self.node_of(device);
        let on_node = &mut self.node_counts[node * self.experts + expert.index()];
        *on_node -= 1;
        if *on_node == 0 {
            let fallback = &mut self.fallback[expert.index()];
            if let Err(pos) = fallback.binary_search(&(node as u32)) {
                fallback.insert(pos, node as u32);
            }
        }
    }

    /// The Alg. 3 target list: intra-node replicas first, all replicas
    /// globally otherwise — identical output (order and counts) to
    /// [`crate::lite_routing`]'s `ExpertLayout`-based variant.
    fn fill_targets(
        &self,
        topo: &Topology,
        expert: ExpertId,
        node: NodeId,
        out: &mut Vec<(DeviceId, u32)>,
    ) {
        out.clear();
        for dev in topo.devices_on(node) {
            let c = self.counts[dev.index() * self.experts + expert.index()];
            if c > 0 {
                out.push((dev, c));
            }
        }
        if out.is_empty() {
            out.extend_from_slice(&self.per_expert[expert.index()]);
        }
    }

    fn to_layout(&self) -> ExpertLayout {
        ExpertLayout::from_counts(
            self.devices,
            self.experts,
            self.capacity,
            self.counts.clone(),
        )
        .unwrap_or_else(|_| unreachable!("index shape came from a constructed layout"))
    }
}

/// One routed row: `(destination, tokens, t_comm)`, where `t_comm` is
/// the pre-priced pairwise term of Eq. 2 (`+0.0` for local traffic,
/// which `time_cost` skips and the fold adds as a no-op).
type Row = (DeviceId, u64, f64);

/// One expert's routed rows for every source device, CSR-style:
/// `entries[starts[src]..starts[src + 1]]` is source `src`'s cell in
/// lite routing's emission order, which is ascending destination id. A
/// re-route is a linear rebuild into retained buffers — no per-cell
/// allocation — and a snapshot is a pair of flat-array copies.
#[derive(Debug, Clone, Default)]
struct Column {
    /// Prefix offsets into `entries`; length `devices + 1` once routed,
    /// empty before the first route.
    starts: Vec<u32>,
    /// Rows, sources ascending.
    entries: Vec<Row>,
}

impl Column {
    /// Source `src`'s cell (empty while the column is unrouted).
    fn cell(&self, src: usize) -> &[Row] {
        match self.starts.get(src..src + 2) {
            Some(&[lo, hi]) => &self.entries[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Which of a column's cells are out of date with the layout index.
#[derive(Debug, Clone, Default)]
struct Stale {
    /// Every cell (the column has not been routed yet).
    all: bool,
    /// Nodes whose replica counts of the expert changed since the column
    /// was routed. Their cells, and every cell of a node reading the
    /// expert's (changed) global replica list, must be re-routed.
    nodes: Vec<u32>,
}

impl Stale {
    fn is_clean(&self) -> bool {
        !self.all && self.nodes.is_empty()
    }
}

/// A set of device indices: O(1) insert, clear in the set's size.
#[derive(Debug, Default)]
struct DeviceSet {
    member: Vec<bool>,
    list: Vec<usize>,
}

impl DeviceSet {
    fn new(devices: usize) -> Self {
        Self {
            member: vec![false; devices],
            list: Vec::new(),
        }
    }

    fn insert(&mut self, device: usize) {
        if !std::mem::replace(&mut self.member[device], true) {
            self.list.push(device);
        }
    }

    fn clear(&mut self) {
        for &d in &self.list {
            self.member[d] = false;
        }
        self.list.clear();
    }
}

/// The devices whose Eq. 2 sums must be re-folded before the next
/// [`IncrementalCost::cost`].
#[derive(Debug, Default)]
struct FoldDirty {
    /// Every sum (nothing has been folded yet).
    all: bool,
    send: DeviceSet,
    recv: DeviceSet,
}

impl FoldDirty {
    fn new(devices: usize) -> Self {
        Self {
            all: true,
            send: DeviceSet::new(devices),
            recv: DeviceSet::new(devices),
        }
    }

    fn is_empty(&self) -> bool {
        !self.all && self.send.list.is_empty() && self.recv.list.is_empty()
    }

    /// Records that `src`'s cell may have changed from `old` to `new`.
    /// If it did, moves the compute loads and marks `src`'s send sum and
    /// the receive sum of every destination whose row appeared, left or
    /// changed tokens. A row that stayed (`t_comm` is a function of
    /// source, destination and tokens) is the same addend at the same
    /// place in its destination's sum. Cells are sorted by destination,
    /// so one merge pass finds the differing rows.
    fn cell_changed(&mut self, loads: &mut [u64], src: usize, old: &[Row], new: &[Row]) {
        let same = |a: &Row, b: &Row| a.0 == b.0 && a.1 == b.1;
        if old.len() == new.len() && old.iter().zip(new).all(|(a, b)| same(a, b)) {
            return;
        }
        for row in old {
            loads[row.0.index()] -= row.1;
        }
        for row in new {
            loads[row.0.index()] += row.1;
        }
        self.send.insert(src);
        let (mut i, mut k) = (0, 0);
        loop {
            let dst = match (old.get(i), new.get(k)) {
                (Some(a), Some(b)) if a.0 == b.0 => {
                    (i, k) = (i + 1, k + 1);
                    if a.1 == b.1 {
                        continue;
                    }
                    a.0
                }
                (Some(a), Some(b)) if a.0 < b.0 => {
                    i += 1;
                    a.0
                }
                (Some(a), None) => {
                    i += 1;
                    a.0
                }
                (_, Some(b)) => {
                    k += 1;
                    b.0
                }
                (None, None) => break,
            };
            self.recv.insert(dst.index());
        }
    }

    fn clear(&mut self) {
        self.all = false;
        self.send.clear();
        self.recv.clear();
    }
}

/// A move recorded for [`IncrementalCost::revert`]. Undo applies the
/// inverse index update and restores the two affected columns (and
/// their staleness) from the snapshots taken at apply time — routing
/// is a pure function of the layout, so the snapshot rows are exactly
/// what a re-route would reproduce.
#[derive(Debug, Clone, Copy)]
enum Move {
    Retarget {
        device: DeviceId,
        from: ExpertId,
        to: ExpertId,
    },
    Swap {
        d1: DeviceId,
        a: ExpertId,
        d2: DeviceId,
        b: ExpertId,
    },
}

#[derive(Debug)]
struct UndoEntry {
    mv: Move,
    /// `(expert, column snapshot, staleness)` for the two experts the
    /// move touches, captured before the index update.
    snaps: [(usize, Column, Stale); 2],
    /// The cached fold, when the move was applied to a fully folded
    /// state (see [`IncrementalCost::revert`]).
    fold: Option<FoldSnapshot>,
}

/// A copy of the cached fold: per-device send and receive sums and
/// compute loads.
#[derive(Debug, Default)]
struct FoldSnapshot {
    send: Vec<f64>,
    recv: Vec<f64>,
    loads: Vec<u64>,
}

/// Incrementally-maintained Eq. 2 evaluation state: the current layout
/// (as a flat index), the routed rows it implies, and the per-device
/// aggregates of the last fold. See the module docs for the design.
#[derive(Debug)]
pub struct IncrementalCost<'a> {
    topo: &'a Topology,
    demand: &'a RoutingMatrix,
    params: CostParams,
    index: LayoutIndex,
    /// One CSR column per expert (see [`Column`]).
    columns: Vec<Column>,
    stale: Vec<Stale>,
    undo: Vec<UndoEntry>,
    /// Column and fold buffers retired by re-routes and reverts, reused
    /// for the next re-route or snapshot.
    pool: Vec<Column>,
    fold_pool: Vec<FoldSnapshot>,
    scratch: RouteScratch,
    /// Per-node re-route flags of the column being rebuilt.
    reroute: Vec<bool>,
    /// Per-target link terms of the node being routed.
    terms: Vec<(f64, f64)>,
    /// Per-device Eq. 2 send/recv sums of the last fold.
    send: Vec<f64>,
    recv: Vec<f64>,
    dirty: FoldDirty,
    /// Per-column read positions of the full fold.
    cursors: Vec<usize>,
    /// Experts hosted by, and source nodes sending to, the device whose
    /// receive sum is being re-folded.
    hosted: Vec<usize>,
    senders: Vec<u32>,
    /// Per-device compute loads, maintained incrementally as cells are
    /// re-routed or restored. Integer sums are exact and order-free, so
    /// unlike the float send/recv aggregates they need no re-fold —
    /// the invariant is `device_loads == Σ tokens per destination over
    /// every column's current entries`.
    device_loads: Vec<u64>,
}

impl<'a> IncrementalCost<'a> {
    /// Builds the state for `layout`. Routing is deferred: columns are
    /// routed lazily on the first [`Self::cost`] / [`Self::routing`]
    /// call, so a not-yet-covering layout (every expert ≥ 1 replica is
    /// required only at evaluation time) can be constructed and patched
    /// first — the exhaustive enumerator depends on this.
    ///
    /// # Panics
    ///
    /// Panics if shapes of `topo`, `demand` and `layout` disagree.
    pub fn new(
        topo: &'a Topology,
        demand: &'a RoutingMatrix,
        layout: &ExpertLayout,
        params: &CostParams,
    ) -> Self {
        assert_eq!(demand.num_devices(), topo.num_devices(), "device count");
        assert_eq!(layout.num_devices(), topo.num_devices(), "layout devices");
        assert_eq!(layout.num_experts(), demand.num_experts(), "expert count");
        let index = LayoutIndex::from_layout(layout, topo.devices_per_node());
        let n = index.devices;
        let e = index.experts;
        let all = Stale {
            all: true,
            nodes: Vec::new(),
        };
        Self {
            topo,
            demand,
            params: *params,
            index,
            columns: vec![Column::default(); e],
            stale: vec![all; e],
            undo: Vec::new(),
            pool: Vec::new(),
            fold_pool: Vec::new(),
            scratch: RouteScratch::new(),
            reroute: Vec::new(),
            terms: Vec::new(),
            send: vec![0.0; n],
            recv: vec![0.0; n],
            dirty: FoldDirty::new(n),
            cursors: Vec::with_capacity(e),
            hosted: Vec::new(),
            senders: Vec::new(),
            device_loads: vec![0; n],
        }
    }

    /// Replica count of `expert` on `device` in the current state.
    pub fn replica_count(&self, device: DeviceId, expert: ExpertId) -> u32 {
        self.index.replica_count(device, expert)
    }

    /// Total replicas of `expert` in the current state.
    pub fn expert_replicas(&self, expert: ExpertId) -> usize {
        self.index.totals[expert.index()]
    }

    /// Whether every expert currently has at least one replica (the
    /// routability constraint — evaluation panics without it for experts
    /// with demand).
    pub fn all_experts_covered(&self) -> bool {
        self.index.totals.iter().all(|&t| t > 0)
    }

    /// Moves one replica on `device` from expert `from` to expert `to`
    /// (the refiner's retarget move), recording it for [`Self::revert`].
    /// Only the two experts' routing columns are invalidated.
    pub fn apply_retarget(&mut self, device: DeviceId, from: ExpertId, to: ExpertId) {
        let snaps = [self.snapshot(from.index()), self.snapshot(to.index())];
        let fold = self.snapshot_fold();
        self.raw_retarget(device, from, to);
        self.undo.push(UndoEntry {
            mv: Move::Retarget { device, from, to },
            snaps,
            fold,
        });
    }

    /// Exchanges `d1`'s replica of `a` with `d2`'s replica of `b` (the
    /// refiner's swap move), recording it for [`Self::revert`]. Only the
    /// two experts' routing columns are invalidated.
    pub fn apply_swap(&mut self, d1: DeviceId, a: ExpertId, d2: DeviceId, b: ExpertId) {
        let snaps = [self.snapshot(a.index()), self.snapshot(b.index())];
        let fold = self.snapshot_fold();
        self.raw_swap(d1, a, d2, b);
        self.undo.push(UndoEntry {
            mv: Move::Swap { d1, a, d2, b },
            snaps,
            fold,
        });
    }

    /// Copies column `j` and its staleness into a pooled buffer.
    fn snapshot(&mut self, j: usize) -> (usize, Column, Stale) {
        let mut col = self.pool.pop().unwrap_or_default();
        col.starts.clone_from(&self.columns[j].starts);
        col.entries.clone_from(&self.columns[j].entries);
        (j, col, self.stale[j].clone())
    }

    /// Copies the cached fold into a pooled buffer when it is complete:
    /// no column is stale and no device awaits a re-fold.
    fn snapshot_fold(&mut self) -> Option<FoldSnapshot> {
        let complete = self.dirty.is_empty() && self.stale.iter().all(Stale::is_clean);
        complete.then(|| {
            let mut fold = self.fold_pool.pop().unwrap_or_default();
            fold.send.clone_from(&self.send);
            fold.recv.clone_from(&self.recv);
            fold.loads.clone_from(&self.device_loads);
            fold
        })
    }

    /// Undoes the most recent un-reverted [`Self::apply_retarget`] /
    /// [`Self::apply_swap`]: applies the inverse index update and
    /// restores the two columns from their apply-time snapshots (no
    /// re-route — the snapshot rows are what re-routing the restored
    /// layout would produce). Returns `false` if there is nothing to
    /// revert.
    ///
    /// If the move was applied to a complete fold, revert restores that
    /// fold too, so the next [`Self::cost`] re-folds nothing: every
    /// later move was reverted before this one, so the columns are back
    /// to exactly the apply-time rows the copied fold was taken from.
    /// Otherwise the cells that differ from the snapshots are marked
    /// for re-folding.
    pub fn revert(&mut self) -> bool {
        let Some(entry) = self.undo.pop() else {
            return false;
        };
        match entry.mv {
            Move::Retarget { device, from, to } => {
                self.index.remove_replica(device, to);
                self.index.add_replica(device, from);
            }
            Move::Swap { d1, a, d2, b } => {
                self.index.remove_replica(d1, b);
                self.index.remove_replica(d2, a);
                self.index.add_replica(d1, a);
                self.index.add_replica(d2, b);
            }
        }
        if let Some(mut fold) = entry.fold {
            for (j, col, stale) in entry.snaps {
                let retired = std::mem::replace(&mut self.columns[j], col);
                self.pool.push(retired);
                self.stale[j] = stale;
            }
            std::mem::swap(&mut self.send, &mut fold.send);
            std::mem::swap(&mut self.recv, &mut fold.recv);
            std::mem::swap(&mut self.device_loads, &mut fold.loads);
            self.fold_pool.push(fold);
            self.dirty.clear();
            return true;
        }
        for (j, col, stale) in entry.snaps {
            // Cells that differ between the current and restored rows
            // move the loads and need a re-fold.
            let current = &self.columns[j];
            for src in 0..self.index.devices {
                let (now, then) = (current.cell(src), col.cell(src));
                self.dirty
                    .cell_changed(&mut self.device_loads, src, now, then);
            }
            let retired = std::mem::replace(&mut self.columns[j], col);
            self.pool.push(retired);
            self.stale[j] = stale;
        }
        true
    }

    /// Applies an arbitrary per-device diff: removes one replica of each
    /// expert index in `remove`, adds one of each in `add`. Not
    /// revertible — the undo stack is cleared. This is the exhaustive
    /// enumerator's odometer step; intermediate states may leave experts
    /// uncovered as long as [`Self::cost`] is only called on covering
    /// states.
    pub fn set_device_experts(&mut self, device: DeviceId, remove: &[usize], add: &[usize]) {
        for &j in remove {
            self.index.remove_replica(device, ExpertId::new(j));
            self.mark_stale(j, device);
        }
        for &j in add {
            self.index.add_replica(device, ExpertId::new(j));
            self.mark_stale(j, device);
        }
        self.undo.clear();
    }

    fn raw_retarget(&mut self, device: DeviceId, from: ExpertId, to: ExpertId) {
        self.index.remove_replica(device, from);
        self.index.add_replica(device, to);
        self.mark_stale(from.index(), device);
        self.mark_stale(to.index(), device);
    }

    fn raw_swap(&mut self, d1: DeviceId, a: ExpertId, d2: DeviceId, b: ExpertId) {
        self.index.remove_replica(d1, a);
        self.index.remove_replica(d2, b);
        self.index.add_replica(d1, b);
        self.index.add_replica(d2, a);
        for (j, device) in [(a, d1), (a, d2), (b, d1), (b, d2)] {
            self.mark_stale(j.index(), device);
        }
    }

    /// Records that `device`'s replica count of `expert` changed.
    fn mark_stale(&mut self, expert: usize, device: DeviceId) {
        let node = self.index.node_of(device) as u32;
        let nodes = &mut self.stale[expert].nodes;
        if !nodes.contains(&node) {
            nodes.push(node);
        }
    }

    /// Re-routes the stale cells of every column.
    fn flush(&mut self) {
        for j in 0..self.index.experts {
            if !self.stale[j].is_clean() {
                self.reroute_expert(j);
            }
        }
    }

    /// Rebuilds expert `j`'s column: the cells of stale nodes — those
    /// whose replica counts changed, and those reading the expert's
    /// global replica list, which changed with them — are re-routed
    /// with the exact arithmetic of `lite_route`; every other node's
    /// cells are copied. Changed cells update the loads and are marked
    /// for the next fold.
    fn reroute_expert(&mut self, j: usize) {
        let stale = std::mem::take(&mut self.stale[j]);
        let dpn = self.index.devices_per_node;
        let nodes = self.index.devices / dpn;
        self.reroute.clear();
        self.reroute.resize(nodes, stale.all);
        if !stale.all {
            for &k in stale.nodes.iter().chain(&self.index.fallback[j]) {
                self.reroute[k as usize] = true;
            }
        }
        let old = std::mem::take(&mut self.columns[j]);
        let mut col = self.pool.pop().unwrap_or_default();
        col.starts.clear();
        col.entries.clear();
        col.starts.push(0);
        for node in 0..nodes {
            let sources = node * dpn..(node + 1) * dpn;
            if !self.reroute[node] {
                let (lo, hi) = (old.starts[sources.start], old.starts[sources.end]);
                let base = col.entries.len() as u32;
                col.starts.extend(
                    old.starts[sources.start + 1..=sources.end]
                        .iter()
                        .map(|&s| s - lo + base),
                );
                col.entries
                    .extend_from_slice(&old.entries[lo as usize..hi as usize]);
                continue;
            }
            self.route_node(j, NodeId::new(node), &mut col);
            for src in sources {
                let (now, then) = (old.cell(src), col.cell(src));
                self.dirty
                    .cell_changed(&mut self.device_loads, src, now, then);
            }
        }
        self.columns[j] = col;
        self.pool.push(old);
    }

    /// Routes the cells of `node`'s sources for expert `j` onto the end
    /// of `col` — one Alg. 3 cell per source, with the exact arithmetic
    /// of `lite_route` — pre-pricing each row with `time_cost`'s
    /// pairwise term.
    fn route_node(&mut self, j: usize, node: NodeId, col: &mut Column) {
        let expert = ExpertId::new(j);
        let params = &self.params;
        let topo = self.topo;
        // Alg. 3's target list depends only on `(expert, node)` — every
        // source in the node shares it — so resolve it once per node
        // instead of once per source.
        self.index
            .fill_targets(topo, expert, node, &mut self.scratch.targets);
        // The link terms are hoisted per node too: every source on the
        // node but the target itself sees the same link kind to a given
        // target (intra-node if the target is on the node, else the
        // node's inter-node or inter-rack link), so the terms from any
        // other device on the node are every such source's terms —
        // bit-identical to pricing each row on its own.
        let terms = &mut self.terms;
        terms.clear();
        for &(dst, _) in &self.scratch.targets {
            let rep = topo.devices_on(node).find(|&d| d != dst);
            terms.push(rep.map_or((f64::INFINITY, 0.0), |rep| link_terms(topo, rep, dst)));
        }
        // Single-target fast path: the whole cell goes to one
        // destination — identical output to `distribute_evenly_into`
        // (the share is exact, the remainder zero). This is the common
        // case at fleet scale, where layouts cover every node.
        let single = match self.scratch.targets[..] {
            [(only, _)] => Some(only),
            _ => None,
        };
        for src in topo.devices_on(node) {
            let tokens = self.demand.get(src, expert);
            if tokens == 0 {
                col.starts.push(col.entries.len() as u32);
                continue;
            }
            assert!(
                !self.scratch.targets.is_empty(),
                "layout hosts no replica of {expert}; evaluate covering layouts only"
            );
            // The same pairwise term as `time_cost`'s fold: bit-identical.
            let price = |i: usize, dst: DeviceId, count: u64| {
                if dst == src {
                    0.0
                } else {
                    params.pair_time(count, terms[i])
                }
            };
            if let Some(only) = single {
                col.entries.push((only, tokens, price(0, only, tokens)));
            } else {
                let entries = &mut col.entries;
                let emit = |i: usize, dst: DeviceId, count: u64| {
                    entries.push((dst, count, price(i, dst, count)));
                };
                let (targets, shares, order) = (
                    &self.scratch.targets,
                    &mut self.scratch.shares,
                    &mut self.scratch.order,
                );
                distribute_evenly_into(src, tokens, targets, shares, order, emit);
            }
            col.starts.push(col.entries.len() as u32);
        }
    }

    /// Evaluates Eq. 2 for the current state, bit-identical to
    /// `time_cost(topo, &lite_route(topo, demand, &self.layout()),
    /// params)`. Stale cells are re-routed first; then only the send
    /// and receive sums of devices whose rows changed are re-folded,
    /// each in the oracle's exact addend order, and max-aggregated.
    ///
    /// # Panics
    ///
    /// Panics if some expert with demand has no replica (see
    /// [`Self::all_experts_covered`]).
    pub fn cost(&mut self) -> CostBreakdown {
        self.flush();
        if self.dirty.all || self.refold_exceeds_full() {
            self.fold_all();
        } else {
            for i in 0..self.dirty.send.list.len() {
                let src = self.dirty.send.list[i];
                self.send[src] = self.fold_send(src);
            }
            for i in 0..self.dirty.recv.list.len() {
                let dst = self.dirty.recv.list[i];
                self.recv[dst] = self.fold_recv(dst);
            }
        }
        self.dirty.clear();
        let straggler = self
            .send
            .iter()
            .zip(&self.recv)
            .map(|(&s, &r)| s.max(r))
            .fold(0.0, f64::max);
        let comm = 4.0 * straggler;
        let max_load = self.device_loads.iter().copied().max().unwrap_or(0) as f64;
        let comp =
            self.params.compute_multiplier() * max_load * self.params.v_comp / self.params.b_comp;
        CostBreakdown { comm, comp }
    }

    /// Folds every cached row into the send/recv sums in the oracle's
    /// entry order (sources ascending, experts ascending, rows in
    /// emission order).
    fn fold_all(&mut self) {
        let (send, recv) = (&mut self.send, &mut self.recv);
        send.fill(0.0);
        recv.fill(0.0);
        // Each column's rows are consumed source by source, so one cursor
        // per column replaces the `starts[src]` lookups. Local rows are
        // folded too: their pre-priced term is `+0.0`, and adding `+0.0`
        // to a non-negative sum leaves it bit-identical, exactly as
        // `time_cost` skipping them does.
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.resize(self.columns.len(), 0);
        for (src, send_src) in send.iter_mut().enumerate() {
            for (col, lo) in self.columns.iter().zip(cursors.iter_mut()) {
                let hi = col.starts[src + 1] as usize;
                for &(dst, _, t) in &col.entries[*lo..hi] {
                    *send_src += t;
                    recv[dst.index()] += t;
                }
                *lo = hi;
            }
        }
    }

    /// Whether re-folding just the marked sums would visit more cells
    /// than the full fold. A receive sum visits the cells of the experts
    /// its device hosts, from its own node and those experts' fallback
    /// nodes, so layouts where many nodes read global lists (and every
    /// replica of a moved expert is marked) are cheaper to fold whole.
    fn refold_exceeds_full(&self) -> bool {
        let e = self.index.experts;
        let full = self.index.devices * e;
        let mut work = self.dirty.send.list.len() * e;
        for &dst in &self.dirty.recv.list {
            let (mut hosted, mut senders) = (0, 1);
            for j in 0..e {
                if self.index.counts[dst * e + j] > 0 {
                    hosted += 1;
                    senders += self.index.fallback[j].len();
                }
            }
            work += self.index.devices_per_node * hosted * senders;
            if work > full {
                return true;
            }
        }
        false
    }

    /// `src`'s send sum: its rows, experts ascending — the order the
    /// full fold adds them in.
    fn fold_send(&self, src: usize) -> f64 {
        let mut sum = 0.0;
        for col in &self.columns {
            for &(_, _, t) in col.cell(src) {
                sum += t;
            }
        }
        sum
    }

    /// `dst`'s receive sum, re-folded from the only cells that can hold
    /// a row to it: those of the experts `dst` hosts, from sources on
    /// its own node or on a node reading that expert's global replica
    /// list. They are visited sources ascending, then experts ascending
    /// — the order the full fold adds their rows in. A cell holds at
    /// most one row per destination, sorted by destination.
    fn fold_recv(&mut self, dst: usize) -> f64 {
        let e = self.index.experts;
        self.hosted.clear();
        self.hosted
            .extend((0..e).filter(|&j| self.index.counts[dst * e + j] > 0));
        self.senders.clear();
        self.senders
            .push(self.index.node_of(DeviceId::new(dst)) as u32);
        for &j in &self.hosted {
            self.senders.extend_from_slice(&self.index.fallback[j]);
        }
        self.senders.sort_unstable();
        self.senders.dedup();
        let dpn = self.index.devices_per_node;
        let dst = DeviceId::new(dst);
        let mut sum = 0.0;
        for &node in &self.senders {
            let node = node as usize;
            for src in node * dpn..(node + 1) * dpn {
                for &j in &self.hosted {
                    let cell = self.columns[j].cell(src);
                    if let Ok(pos) = cell.binary_search_by(|r| r.0.cmp(&dst)) {
                        sum += cell[pos].2;
                    }
                }
            }
        }
        sum
    }

    /// Materialises the current layout.
    pub fn layout(&self) -> ExpertLayout {
        self.index.to_layout()
    }

    /// Materialises the current routing — entry-for-entry identical to
    /// `lite_route(topo, demand, &self.layout())`.
    pub fn routing(&mut self) -> TokenRouting {
        self.flush();
        let n = self.index.devices;
        let e = self.index.experts;
        let mut out = TokenRouting::new(n, e);
        for src in 0..n {
            for (j, col) in self.columns.iter().enumerate() {
                for &(dst, tokens, _) in col.cell(src) {
                    out.push(DeviceId::new(src), ExpertId::new(j), dst, tokens);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::time_cost;
    use crate::lite_routing::lite_route;
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn setup(seed: u64) -> (Topology, RoutingMatrix, ExpertLayout, CostParams) {
        let topo = Topology::new(2, 4).unwrap();
        let demand = RoutingGenerator::new(RoutingGeneratorConfig::new(8, 8, 8192).with_seed(seed))
            .next_iteration();
        let layout = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        (topo, demand, layout, CostParams::mixtral_8x7b())
    }

    fn oracle(
        topo: &Topology,
        demand: &RoutingMatrix,
        layout: &ExpertLayout,
        params: &CostParams,
    ) -> CostBreakdown {
        time_cost(topo, &lite_route(topo, demand, layout), params)
    }

    fn assert_bits(a: CostBreakdown, b: CostBreakdown) {
        assert_eq!(a.comm.to_bits(), b.comm.to_bits(), "comm bits");
        assert_eq!(a.comp.to_bits(), b.comp.to_bits(), "comp bits");
    }

    #[test]
    fn initial_cost_matches_oracle_bitwise() {
        for seed in 1u64..6 {
            let (topo, demand, layout, params) = setup(seed);
            let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
            assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
            // Routing materialisation is entry-identical too.
            assert_eq!(
                inc.routing().entries(),
                lite_route(&topo, &demand, &layout).entries()
            );
        }
    }

    #[test]
    fn retarget_and_revert_match_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(3);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        let before = inc.cost();
        // classic_ep(8,8,2): device 0 hosts experts {0,1}; retarget its
        // replica of expert 0 to expert 2.
        let (d, a, b) = (DeviceId::new(0), ExpertId::new(0), ExpertId::new(2));
        assert!(inc.replica_count(d, a) > 0 && inc.expert_replicas(a) >= 2);
        inc.apply_retarget(d, a, b);
        let moved_layout = inc.layout();
        assert_eq!(moved_layout.replica_count(d, a), 0);
        assert_eq!(moved_layout.replica_count(d, b), 1);
        assert_bits(inc.cost(), oracle(&topo, &demand, &moved_layout, &params));
        assert!(inc.revert());
        assert_eq!(inc.layout(), layout);
        assert_bits(inc.cost(), before);
        assert!(!inc.revert(), "undo stack exhausted");
    }

    #[test]
    fn swap_and_revert_match_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(4);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        let before = inc.cost();
        // Device 0 hosts {0,1}, device 1 hosts {2,3}: swap 0's expert 0
        // with 1's expert 2.
        let (d1, a, d2, b) = (
            DeviceId::new(0),
            ExpertId::new(0),
            DeviceId::new(1),
            ExpertId::new(2),
        );
        inc.apply_swap(d1, a, d2, b);
        let swapped = inc.layout();
        assert_eq!(swapped.replica_count(d1, b), 1);
        assert_eq!(swapped.replica_count(d2, a), 1);
        assert_bits(inc.cost(), oracle(&topo, &demand, &swapped, &params));
        assert!(inc.revert());
        assert_eq!(inc.layout(), layout);
        assert_bits(inc.cost(), before);
    }

    #[test]
    fn deferred_construction_allows_uncovered_intermediate_states() {
        let (topo, demand, _, params) = setup(5);
        // Start from an empty (uncovered) layout, then patch device by
        // device into classic-EP via diffs — cost only at the end.
        let empty = ExpertLayout::empty(8, 8, 2).unwrap();
        let mut inc = IncrementalCost::new(&topo, &demand, &empty, &params);
        assert!(!inc.all_experts_covered());
        for d in 0..8usize {
            let block = d % 4;
            inc.set_device_experts(DeviceId::new(d), &[], &[block * 2, block * 2 + 1]);
        }
        assert!(inc.all_experts_covered());
        let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        assert_eq!(inc.layout(), classic);
        assert_bits(inc.cost(), oracle(&topo, &demand, &classic, &params));
    }

    #[test]
    fn latency_aware_pricing_matches_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(7);
        let params = params.with_latency_aware(true);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
        // And through a move/revert cycle.
        let (d, a, b) = (DeviceId::new(0), ExpertId::new(0), ExpertId::new(2));
        inc.apply_retarget(d, a, b);
        let moved = inc.layout();
        assert_bits(inc.cost(), oracle(&topo, &demand, &moved, &params));
        assert!(inc.revert());
        assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
    }

    #[test]
    fn guards_read_through_index() {
        let (_, _, layout, params) = setup(1);
        let topo = Topology::new(2, 4).unwrap();
        let demand = RoutingMatrix::zeros(8, 8).unwrap();
        let inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        for d in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    inc.replica_count(DeviceId::new(d), ExpertId::new(j)),
                    layout.replica_count(DeviceId::new(d), ExpertId::new(j))
                );
            }
        }
        for j in 0..8 {
            assert_eq!(
                inc.expert_replicas(ExpertId::new(j)),
                layout.expert_replicas(ExpertId::new(j))
            );
        }
        assert!(inc.all_experts_covered());
    }
}
