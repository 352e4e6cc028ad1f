//! Shard-and-merge union-find: parallelism *inside* one connectivity
//! evaluation.
//!
//! PRs 1–3 made the resilience sweeps evaluate every round out of one
//! reverse union-find pass — which left a serial `O(N+E)` floor per sweep
//! (ROADMAP "intra-round parallelism"). This module breaks that floor:
//!
//! 1. **Shard.** The edge scan of a batch of re-added nodes is split into
//!    chunks of roughly equal edge work. Each chunk is processed by a
//!    worker that resolves both endpoints to their *current global roots*
//!    (read-only [`UnionFind::find_root`] walks on the shared forest —
//!    the global structure is never written while workers run) and unions
//!    the root pairs into a thread-local [`EpochUnionFind`].
//! 2. **Merge.** Each chunk emits only its *survivor* edges — the pairs
//!    that actually joined two locally-distinct components (a spanning
//!    forest of the chunk, never larger than the chunk's distinct root
//!    set). The survivor lists are then applied to the global forest in
//!    chunk order, a deterministic reduction bounded by
//!    `O(M·α·shards)` for `M` true merges (each real merge can be
//!    rediscovered by at most every shard).
//!
//! The chunk layout depends only on the batch (a fixed edge-work target,
//! never the thread count), and survivor lists are applied in chunk
//! order, so the merged forest — and every metric derived from it (LCC
//! size, component count, per-root weight mass) — is **bit-identical at
//! any thread count**, including the float weight accumulators: the same
//! union sequence runs no matter how many workers executed the scan.
//! Relative to the *serial* engine the union sequence may differ (shards
//! dedup locally), which is observable only through float association in
//! the weight sums — exact for the integer-valued user/toot counts every
//! analysis sweeps, as pinned by the differential proptests below.

use crate::digraph::DiGraph;
use crate::par;
use crate::unionfind::WeightedUnionFind;

/// An epoch-stamped union-find over `0..n` with `O(1)` reset: a node
/// whose stamp is stale is implicitly a singleton, so clearing the
/// structure between batches costs one counter bump instead of an
/// `O(n)` re-fill. Workers keep one of these per thread and reuse it for
/// every chunk they process.
#[derive(Debug, Clone, Default)]
pub struct EpochUnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochUnionFind {
    /// Structure over `0..n`, initially all singletons.
    pub fn new(n: usize) -> Self {
        Self {
            parent: vec![0; n],
            size: vec![0; n],
            stamp: vec![0; n],
            // Stamps start at 0, so the live epoch must not: a node is a
            // singleton until its stamp catches up to the current epoch.
            epoch: 1,
        }
    }

    /// Forget every union in `O(1)` (amortised: a full stamp flush runs
    /// once every `u32::MAX` resets).
    pub fn reset(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
    }

    #[inline]
    fn ensure(&mut self, x: u32) {
        if self.stamp[x as usize] != self.epoch {
            self.stamp[x as usize] = self.epoch;
            self.parent[x as usize] = x;
            self.size[x as usize] = 1;
        }
    }

    /// Representative of `x`'s set this epoch (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        self.ensure(x);
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }
}

/// Which adjacency slices a batch scan visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeScan {
    /// Out-neighbours only — correct when *every* alive node is in the
    /// batch (a full-graph pass), where the out-CSR alone covers each
    /// edge exactly once.
    OutOnly,
    /// Out- and in-neighbours — the incremental case, where a re-added
    /// node must reach alive nodes on both sides. Edges whose other
    /// endpoint is also in the batch are claimed by the out-scan of their
    /// source (the in-scan skips batch-internal sources), so no edge is
    /// visited twice.
    Incident,
}

/// Default edge-work target per chunk. Small enough to load-balance the
/// heavy-tailed hub batches of a power-law attack, big enough that the
/// per-chunk survivor buffers and scoped-thread handoff stay noise.
const DEFAULT_CHUNK_EDGES: usize = 32 * 1024;

/// Shard-and-merge executor for batched incremental unions. One instance
/// holds every per-worker scratch (epoch union-finds over the node
/// space, batch-membership stamps, chunk tables), so a whole reverse
/// sweep allocates its parallel working memory exactly once.
pub struct ParBatchUnion {
    /// Node-space size (worker arenas are sized to this, lazily).
    n: usize,
    /// Worker count the lazily-built scratch set targets.
    workers: usize,
    /// One local forest per worker thread, reused across batches —
    /// allocated on the **first multi-chunk batch** only, so sweeps
    /// whose batches all fit one chunk never pay the
    /// `workers × 3 × N × 4` bytes.
    scratches: Vec<EpochUnionFind>,
    /// Stamp marking batch membership (epoch-controlled, `O(1)` clear;
    /// lazily sized alongside the scratches).
    batch_stamp: Vec<u32>,
    batch_epoch: u32,
    /// Chunk boundaries over the current batch (index ranges).
    chunks: Vec<(usize, usize)>,
    /// Edge-work target per chunk.
    chunk_edges: usize,
}

impl ParBatchUnion {
    /// Executor over a graph of `n` nodes with `workers` local forests.
    pub fn new(n: usize, workers: usize) -> Self {
        Self::with_chunk_edges(n, workers, DEFAULT_CHUNK_EDGES)
    }

    /// [`Self::new`] with an explicit per-chunk edge-work target
    /// (testing/bench knob: small targets force the multi-chunk merge
    /// path even on tiny graphs).
    pub fn with_chunk_edges(n: usize, workers: usize, chunk_edges: usize) -> Self {
        Self {
            n,
            workers: workers.max(1),
            scratches: Vec::new(),
            batch_stamp: Vec::new(),
            batch_epoch: 0,
            chunks: Vec::new(),
            chunk_edges: chunk_edges.max(1),
        }
    }

    /// Union every edge incident to the `batch` nodes whose other
    /// endpoint is `alive` into `uf`, applying each effective merge
    /// through `apply` (which receives `uf` and the edge endpoints in the
    /// same `(re-added node, neighbour)` orientation as the serial
    /// engine). `alive` must already be `true` for every batch node.
    ///
    /// Single-chunk batches skip the scatter/merge machinery and union
    /// directly — the survivor protocol is exactly equivalent (a locally
    /// redundant edge is a global no-op), so output does not depend on
    /// which path ran.
    pub fn union_batch(
        &mut self,
        g: &DiGraph,
        alive: &[bool],
        batch: &[u32],
        scan: EdgeScan,
        uf: &mut WeightedUnionFind,
        mut apply: impl FnMut(&mut WeightedUnionFind, u32, u32),
    ) {
        // ---- chunk layout: fixed edge-work target, thread-agnostic ----
        self.chunks.clear();
        let mut lo = 0usize;
        let mut work = 0usize;
        for (i, &v) in batch.iter().enumerate() {
            work += match scan {
                EdgeScan::OutOnly => g.out_degree(v) as usize,
                EdgeScan::Incident => g.degree(v) as usize,
            };
            if work >= self.chunk_edges {
                self.chunks.push((lo, i + 1));
                lo = i + 1;
                work = 0;
            }
        }
        if lo < batch.len() {
            self.chunks.push((lo, batch.len()));
        }

        if self.chunks.len() <= 1 {
            // Serial fast path: no local dedup needed, identical effect.
            for &v in batch {
                for &w in g.out_neighbors(v) {
                    if alive[w as usize] {
                        apply(uf, v, w);
                    }
                }
                if scan == EdgeScan::Incident {
                    for &w in g.in_neighbors(v) {
                        if alive[w as usize] {
                            apply(uf, v, w);
                        }
                    }
                }
            }
            return;
        }

        // ---- first multi-chunk batch: build the worker arenas ---------
        if self.scratches.is_empty() {
            self.scratches = (0..self.workers).map(|_| EpochUnionFind::new(self.n)).collect();
            self.batch_stamp = vec![0; self.n];
        }

        // ---- mark batch membership (Incident scans dedup against it) --
        if scan == EdgeScan::Incident {
            self.batch_epoch = match self.batch_epoch.checked_add(1) {
                Some(e) => e,
                None => {
                    self.batch_stamp.fill(0);
                    1
                }
            };
            for &v in batch {
                self.batch_stamp[v as usize] = self.batch_epoch;
            }
        }

        // ---- sharded scan: local dedup against current global roots ---
        let global: &WeightedUnionFind = uf;
        let batch_stamp = &self.batch_stamp;
        let batch_epoch = self.batch_epoch;
        let survivors: Vec<Vec<(u32, u32)>> = par::parallel_map_with(
            &mut self.scratches,
            &self.chunks,
            |local: &mut EpochUnionFind, &(clo, chi)| {
                local.reset();
                let mut out: Vec<(u32, u32)> = Vec::new();
                let mut try_edge = |local: &mut EpochUnionFind, a: u32, b: u32| {
                    let ra = global.find_root(a);
                    let rb = global.find_root(b);
                    if ra != rb && local.union(ra, rb) {
                        out.push((a, b));
                    }
                };
                for &v in &batch[clo..chi] {
                    for &w in g.out_neighbors(v) {
                        if alive[w as usize] {
                            try_edge(local, v, w);
                        }
                    }
                    if scan == EdgeScan::Incident {
                        for &w in g.in_neighbors(v) {
                            // A batch-internal source is claimed by its own
                            // out-scan; skipping it here halves intra-batch
                            // edge work without dropping connectivity.
                            if alive[w as usize]
                                && batch_stamp[w as usize] != batch_epoch
                            {
                                try_edge(local, v, w);
                            }
                        }
                    }
                }
                out
            },
        );

        // ---- deterministic merge: chunk order, then edge order --------
        for chunk in survivors {
            for (a, b) in chunk {
                apply(uf, a, b);
            }
        }
    }
}

/// Headline connectivity metrics of one parallel whole-graph pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParWccSummary {
    /// Size of the largest weakly connected component (0 when empty).
    pub largest: u32,
    /// Number of components among alive nodes.
    pub count: usize,
    /// Weight of the heaviest component (0 when no weights were given).
    pub largest_weight: f64,
}

/// Weakly connected components of the `alive`-induced subgraph in one
/// shard-and-merge pass: `O((N+E)/threads)` scan wall-clock plus the
/// deterministic merge. Metrics are bit-identical to the serial
/// [`crate::components::weakly_connected`] evaluation (weight mass too,
/// whenever weights are integer-valued — every paper figure's case).
pub fn parallel_wcc(
    g: &DiGraph,
    alive: Option<&[bool]>,
    weights: Option<&[f64]>,
) -> ParWccSummary {
    let n = g.node_count();
    if let Some(mask) = alive {
        assert_eq!(mask.len(), n, "mask length mismatch");
    }
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "weight length mismatch");
    }
    let all_alive = vec![true; n];
    let mask = alive.unwrap_or(&all_alive);
    let batch: Vec<u32> = (0..n as u32).filter(|&v| mask[v as usize]).collect();

    let mut uf = match weights {
        Some(w) => WeightedUnionFind::new(w),
        None => WeightedUnionFind::unweighted(n),
    };
    let mut merges = 0usize;
    let mut largest = if batch.is_empty() { 0u32 } else { 1 };
    let mut largest_weight = 0.0f64;
    if weights.is_some() {
        for &v in &batch {
            largest_weight = largest_weight.max(uf.weight_of(v));
        }
    }
    let mut engine = ParBatchUnion::new(n, par::thread_budget());
    engine.union_batch(
        g,
        mask,
        &batch,
        EdgeScan::OutOnly,
        &mut uf,
        |uf, a, b| {
            if let Some(m) = uf.union(a, b) {
                merges += 1;
                if uf.is_weighted() {
                    largest_weight = largest_weight.max(m.weight);
                }
                largest = largest.max(m.size);
            }
        },
    );
    ParWccSummary {
        largest,
        count: batch.len() - merges,
        largest_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::weakly_connected;

    #[test]
    fn epoch_reset_forgets_unions() {
        let mut uf = EpochUnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        uf.reset();
        assert_ne!(uf.find(0), uf.find(1));
        assert!(uf.union(0, 1));
    }

    #[test]
    fn epoch_union_matches_plain_union_find() {
        let mut a = EpochUnionFind::new(10);
        let mut b = crate::unionfind::UnionFind::new(10);
        for (x, y) in [(0u32, 3), (3, 7), (1, 2), (5, 5), (2, 0), (8, 9)] {
            assert_eq!(a.union(x, y), b.union(x, y), "edge {x}-{y}");
        }
        for x in 0..10u32 {
            for y in 0..10u32 {
                assert_eq!(a.find(x) == a.find(y), b.find(x) == b.find(y));
            }
        }
    }

    #[test]
    fn parallel_wcc_matches_serial_on_islands() {
        let g = DiGraph::from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 5)]);
        let weights: Vec<f64> = (0..7).map(|i| (i + 1) as f64).collect();
        let got = parallel_wcc(&g, None, Some(&weights));
        let want = weakly_connected(&g, None);
        assert_eq!(got.largest, want.largest());
        assert_eq!(got.count, want.count());
        assert_eq!(got.largest_weight, want.largest_weight(&weights));
    }

    #[test]
    fn parallel_wcc_respects_mask() {
        // 0-1-2 path; killing 1 splits it.
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let alive = vec![true, false, true];
        let got = parallel_wcc(&g, Some(&alive), None);
        assert_eq!(got.largest, 1);
        assert_eq!(got.count, 2);
        assert_eq!(got.largest_weight, 0.0);
    }

    #[test]
    fn parallel_wcc_empty_mask() {
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let got = parallel_wcc(&g, Some(&[false, false]), None);
        assert_eq!(got.largest, 0);
        assert_eq!(got.count, 0);
    }

    /// Force the multi-chunk merge path on a small graph and check the
    /// merged forest against the serial union of the same edges.
    #[test]
    fn multi_chunk_merge_equals_serial() {
        let n = 40u32;
        let edges: Vec<(u32, u32)> = (0..n - 1)
            .map(|i| (i, (i * 7 + 3) % n))
            .chain((0..n / 2).map(|i| (i, i + n / 2)))
            .collect();
        let g = DiGraph::from_edges(n, edges);
        let alive = vec![true; n as usize];
        let batch: Vec<u32> = (0..n).collect();

        let mut serial = WeightedUnionFind::unweighted(n as usize);
        for (a, b) in g.edges() {
            serial.union(a, b);
        }

        for chunk_edges in [1usize, 3, 8, 1024] {
            for workers in [1usize, 2, 5] {
                let mut uf = WeightedUnionFind::unweighted(n as usize);
                let mut engine = ParBatchUnion::with_chunk_edges(n as usize, workers, chunk_edges);
                engine.union_batch(
                    &g,
                    &alive,
                    &batch,
                    EdgeScan::OutOnly,
                    &mut uf,
                    |uf, a, b| {
                        uf.union(a, b);
                    },
                );
                for x in 0..n {
                    for y in 0..n {
                        assert_eq!(
                            uf.find(x) == uf.find(y),
                            serial.find(x) == serial.find(y),
                            "chunk {chunk_edges} workers {workers} nodes {x},{y}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::components::weakly_connected;
    use proptest::prelude::*;

    /// Canonical per-component representative (min node id), so two
    /// forests can be compared independently of their internal roots.
    fn canonical_roots(find: &mut dyn FnMut(u32) -> u32, n: u32) -> Vec<u32> {
        let mut min_of_root = vec![u32::MAX; n as usize];
        for v in 0..n {
            let r = find(v) as usize;
            min_of_root[r] = min_of_root[r].min(v);
        }
        (0..n).map(|v| min_of_root[find(v) as usize]).collect()
    }

    proptest! {
        /// Shard-and-merge over random graphs × chunk sizes × worker
        /// counts × weighted/unweighted: the merged forest's partition,
        /// LCC size, component count, and per-root weight mass are
        /// bit-identical to the serial pass.
        #[test]
        fn shard_merge_bit_identical_to_serial(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..150),
            raw_weights in proptest::collection::vec(0u32..1000, 30),
            chunk_edges in 1usize..64,
            workers in 1usize..5,
            weighted in any::<bool>(),
        ) {
            let n = 30u32;
            let g = DiGraph::from_edges(n, edges);
            let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64).collect();
            let alive = vec![true; n as usize];
            let batch: Vec<u32> = (0..n).collect();

            let mk = || if weighted {
                WeightedUnionFind::new(&weights)
            } else {
                WeightedUnionFind::unweighted(n as usize)
            };

            let mut serial = mk();
            for (a, b) in g.edges() {
                serial.union(a, b);
            }

            let mut sharded = mk();
            let mut engine = ParBatchUnion::with_chunk_edges(n as usize, workers, chunk_edges);
            engine.union_batch(&g, &alive, &batch, EdgeScan::OutOnly, &mut sharded, |uf, a, b| {
                uf.union(a, b);
            });

            // identical partitions (canonicalised roots)…
            let ser = canonical_roots(&mut |x| serial.find(x), n);
            let par = canonical_roots(&mut |x| sharded.find(x), n);
            prop_assert_eq!(&ser, &par);
            // …identical per-component size and weight mass
            for v in 0..n {
                prop_assert_eq!(serial.size_of(v), sharded.size_of(v), "size at {}", v);
                prop_assert_eq!(serial.weight_of(v), sharded.weight_of(v), "weight at {}", v);
            }
        }

        /// The one-shot parallel WCC agrees with the serial component
        /// labelling on masked random graphs, weights included.
        #[test]
        fn parallel_wcc_matches_components(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..120),
            alive in proptest::collection::vec(any::<bool>(), 25),
            raw_weights in proptest::collection::vec(0u32..500, 25),
        ) {
            let g = DiGraph::from_edges(25, edges);
            let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64).collect();
            let got = parallel_wcc(&g, Some(&alive), Some(&weights));
            let want = weakly_connected(&g, Some(&alive));
            prop_assert_eq!(got.largest, want.largest());
            prop_assert_eq!(got.count, want.count());
            prop_assert_eq!(got.largest_weight, want.largest_weight(&weights));
        }

        /// Incremental protocol: adding node batches one at a time with
        /// `Incident` scans reaches the same partition as one serial
        /// full-graph pass, at every chunk granularity.
        #[test]
        fn incremental_batches_converge(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..100),
            cut in 1usize..19,
            chunk_edges in 1usize..32,
        ) {
            let n = 20u32;
            let g = DiGraph::from_edges(n, edges);

            let mut serial = WeightedUnionFind::unweighted(n as usize);
            for (a, b) in g.edges() {
                serial.union(a, b);
            }

            let mut alive = vec![false; n as usize];
            let mut uf = WeightedUnionFind::unweighted(n as usize);
            let mut engine = ParBatchUnion::with_chunk_edges(n as usize, 3, chunk_edges);
            let first: Vec<u32> = (0..cut as u32).collect();
            let second: Vec<u32> = (cut as u32..n).collect();
            for batch in [first, second] {
                for &v in &batch {
                    alive[v as usize] = true;
                }
                engine.union_batch(&g, &alive, &batch, EdgeScan::Incident, &mut uf, |uf, a, b| {
                    uf.union(a, b);
                });
            }
            for x in 0..n {
                for y in 0..n {
                    prop_assert_eq!(
                        uf.find(x) == uf.find(y),
                        serial.find(x) == serial.find(y),
                        "nodes {} {}", x, y
                    );
                }
            }
        }
    }
}
