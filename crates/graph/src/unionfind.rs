//! Disjoint-set union with path halving and union by size, plus a
//! weight-carrying variant used by the reverse removal sweeps.

/// Union-find over `0..n`.
///
/// Parent links and set sizes share one `i32` per node: a non-negative
/// entry is the parent's index, a negative entry marks a root and holds
/// minus its set's size. The larger set's root wins a merge; on a tie the
/// root of the first argument wins.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<i32>,
    components: usize,
}

/// The result of a merge that joined two distinct sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Root of the merged set.
    pub root: u32,
    /// Node count of the merged set.
    pub size: u32,
    /// Total weight of the merged set (0 when unweighted).
    pub weight: f64,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        let mut uf = Self::default();
        uf.reset(n);
        uf
    }

    /// Reinitialise to `n` singleton sets, reusing the existing buffer
    /// (no allocation once grown to `n`).
    pub fn reset(&mut self, n: usize) {
        assert!(
            i32::try_from(n).is_ok(),
            "union-find holds at most i32::MAX nodes"
        );
        self.parent.clear();
        self.parent.resize(n, -1);
        self.components = n;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p < 0 {
                return x;
            }
            let gp = self.parent[p as usize];
            if gp < 0 {
                return p as u32;
            }
            self.parent[x as usize] = gp;
            x = gp as u32;
        }
    }

    /// Representative of `x`'s set **without** path compression — usable
    /// through a shared reference, so read-only consumers (the sharded
    /// edge-scan workers of `par_unionfind`) can query a forest that
    /// another phase owns mutably. The walk is `O(depth)`; depth stays
    /// near-constant in practice because every mutating operation halves
    /// paths as it goes.
    pub fn find_root(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] >= 0 {
            x = self.parent[x as usize] as u32;
        }
        x
    }

    /// Find both roots once and link them. Returns `(root, absorbed root,
    /// merged size)` when the sets were distinct.
    fn link(&mut self, a: u32, b: u32) -> Option<(u32, u32, u32)> {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        // Roots hold `-size`, so the larger set has the smaller entry.
        if self.parent[ra as usize] > self.parent[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        let merged = self.parent[ra as usize] + self.parent[rb as usize];
        self.parent[ra as usize] = merged;
        self.parent[rb as usize] = ra as i32;
        self.components -= 1;
        Some((ra, rb, merged.unsigned_abs()))
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        self.link(a, b).is_some()
    }

    /// Are `a` and `b` in the same set?
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.parent[r as usize].unsigned_abs()
    }

    /// Total number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Size of the largest set (0 when empty).
    pub fn largest(&self) -> u32 {
        self.parent
            .iter()
            .filter(|&&p| p < 0)
            .map(|p| p.unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

/// Union-find that additionally carries one `f64` accumulator per root —
/// the total caller-provided weight of the set.
///
/// This is what lets the reverse (additive) removal sweeps report the
/// *weighted* LCC (Fig. 13's user- and toot-normalised curves) in the same
/// near-linear pass that produces the sizes: each merge folds the two root
/// accumulators together, so reading any component's weight is `O(α)`.
///
/// The accumulator is a plain running sum, so its value can differ from a
/// node-order summation by floating-point association. With integer-valued
/// weights (user counts, toot counts — everything this repo sweeps) every
/// partial sum below 2^53 is exact and the association order is
/// unobservable.
///
/// Constructed with an empty weight slice, the structure degrades to a
/// plain [`UnionFind`] and skips all weight bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct WeightedUnionFind {
    uf: UnionFind,
    weight: Vec<f64>,
}

impl WeightedUnionFind {
    /// `weights.len()` singleton sets, each starting at its own weight.
    pub fn new(weights: &[f64]) -> Self {
        Self {
            uf: UnionFind::new(weights.len()),
            weight: weights.to_vec(),
        }
    }

    /// `n` singleton sets with no weight tracking ([`Self::weight_of`]
    /// returns 0 everywhere).
    pub fn unweighted(n: usize) -> Self {
        Self {
            uf: UnionFind::new(n),
            weight: Vec::new(),
        }
    }

    /// Whether weight accumulators are being maintained.
    pub fn is_weighted(&self) -> bool {
        !self.weight.is_empty()
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        self.uf.find(x)
    }

    /// Read-only representative lookup (no path compression); see
    /// [`UnionFind::find_root`].
    pub fn find_root(&self, x: u32) -> u32 {
        self.uf.find_root(x)
    }

    /// Merge the sets of `a` and `b`. Returns the merged set's root, size
    /// and weight when they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> Option<Merge> {
        let (root, absorbed, size) = self.uf.link(a, b)?;
        let weight = if self.weight.is_empty() {
            0.0
        } else {
            let w = self.weight[root as usize] + self.weight[absorbed as usize];
            self.weight[root as usize] = w;
            w
        };
        Some(Merge { root, size, weight })
    }

    /// Total weight of the set containing `x` (0 when unweighted).
    pub fn weight_of(&mut self, x: u32) -> f64 {
        if self.weight.is_empty() {
            return 0.0;
        }
        let r = self.uf.find(x);
        self.weight[r as usize]
    }

    /// Size (node count) of the set containing `x`.
    pub fn size_of(&mut self, x: u32) -> u32 {
        self.uf.size_of(x)
    }

    /// Total number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.uf.component_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_union_accumulates() {
        let mut uf = WeightedUnionFind::new(&[1.0, 2.0, 4.0, 8.0]);
        assert!(uf.is_weighted());
        let m = uf.union(0, 1).unwrap();
        assert_eq!((m.size, m.weight), (2, 3.0));
        assert_eq!(uf.weight_of(1), 3.0);
        assert!(uf.union(1, 0).is_none());
        let m = uf.union(2, 3).unwrap();
        assert_eq!(m.weight, 12.0);
        assert_eq!(uf.weight_of(m.root), 12.0);
        let m = uf.union(0, 3).unwrap();
        assert_eq!((m.size, m.weight), (4, 15.0));
        assert_eq!(uf.size_of(2), 4);
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn unweighted_variant_reports_zero_weight() {
        let mut uf = WeightedUnionFind::unweighted(3);
        assert!(!uf.is_weighted());
        let m = uf.union(0, 2).unwrap();
        assert_eq!((m.size, m.weight), (2, 0.0));
        assert_eq!(uf.weight_of(0), 0.0);
        assert_eq!(uf.size_of(0), 2);
        assert_eq!(uf.find(0), uf.find(2));
    }

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert_eq!(uf.size_of(3), 1);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.size_of(0), 2);
    }

    #[test]
    fn find_root_agrees_with_find() {
        let mut uf = UnionFind::new(8);
        for (a, b) in [(0u32, 1), (1, 2), (3, 4), (2, 4), (6, 7)] {
            uf.union(a, b);
        }
        for x in 0..8u32 {
            assert_eq!(uf.find_root(x), uf.find(x), "node {x}");
        }
        let mut wuf = WeightedUnionFind::new(&[1.0; 6]);
        wuf.union(0, 5);
        wuf.union(5, 3);
        assert_eq!(wuf.find_root(0), wuf.find(3));
    }

    #[test]
    fn transitive_connection() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 2);
        assert!(uf.connected(0, 3));
        assert_eq!(uf.size_of(3), 4);
        assert_eq!(uf.largest(), 4);
        assert_eq!(uf.component_count(), 3); // {0,1,2,3} {4} {5}
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
        assert_eq!(uf.largest(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Two-array union-find (separate parent and size vectors, path
    /// halving, larger set wins, first argument's root wins a tie): the
    /// layout [`UnionFind`] packs into one array.
    struct TwoArrayUnionFind {
        parent: Vec<u32>,
        size: Vec<u32>,
    }

    impl TwoArrayUnionFind {
        fn new(n: usize) -> Self {
            Self {
                parent: (0..n as u32).collect(),
                size: vec![1; n],
            }
        }

        fn find(&mut self, mut x: u32) -> u32 {
            while self.parent[x as usize] != x {
                let gp = self.parent[self.parent[x as usize] as usize];
                self.parent[x as usize] = gp;
                x = gp;
            }
            x
        }

        fn union(&mut self, a: u32, b: u32) -> bool {
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

    proptest! {
        /// The packed layout builds the same forest as the two-array
        /// reference, entry for entry, after every union; merges report
        /// the reference's root and size.
        #[test]
        fn packed_equals_two_array_reference(
            n in 1u32..60,
            pairs in proptest::collection::vec((0u32..60, 0u32..60), 0..150),
            probes in proptest::collection::vec(0u32..60, 0..20)
        ) {
            let mut reference = TwoArrayUnionFind::new(n as usize);
            let mut packed = UnionFind::new(n as usize);
            let mut weighted = WeightedUnionFind::unweighted(n as usize);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                let (a, b) = (a % n, b % n);
                let merged = reference.union(a, b);
                prop_assert_eq!(packed.union(a, b), merged);
                let m = weighted.union(a, b);
                prop_assert_eq!(m.is_some(), merged);
                if let Some(m) = m {
                    let r = packed.find_root(a);
                    prop_assert_eq!(m.root, r);
                    prop_assert_eq!(m.size, reference.size[r as usize]);
                }
                // Interleave path-halving finds so deeper paths get
                // compressed mid-sequence in both forests.
                if let Some(&x) = probes.get(i) {
                    prop_assert_eq!(packed.find(x % n), reference.find(x % n));
                    weighted.find(x % n);
                }
                for x in 0..n as usize {
                    let (p, q) = (reference.parent[x], packed.parent[x]);
                    if p == x as u32 {
                        prop_assert_eq!(q, -(reference.size[x] as i32), "root {}", x);
                    } else {
                        prop_assert_eq!(q, p as i32, "node {}", x);
                    }
                    prop_assert_eq!(weighted.uf.parent[x], q, "weighted node {}", x);
                }
            }
            for x in 0..n {
                let r = reference.find(x);
                prop_assert_eq!(packed.size_of(x), reference.size[r as usize]);
            }
        }

        /// component_count + merges == n, and find is idempotent.
        #[test]
        fn count_invariant(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..100)) {
            let mut uf = UnionFind::new(50);
            let mut merges = 0;
            for &(a, b) in &edges {
                if uf.union(a, b) {
                    merges += 1;
                }
            }
            prop_assert_eq!(uf.component_count(), 50 - merges);
            for x in 0..50u32 {
                let r = uf.find(x);
                prop_assert_eq!(uf.find(r), r);
            }
            // sizes of roots sum to n
            let mut total = 0u32;
            for x in 0..50u32 {
                if uf.find(x) == x {
                    total += uf.size_of(x);
                }
            }
            prop_assert_eq!(total, 50);
        }

        /// A root's weight accumulator always equals the sum of its
        /// members' initial weights (integer weights: exact equality).
        #[test]
        fn weights_track_membership(
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
            raw in proptest::collection::vec(0u32..1000, 40)
        ) {
            let weights: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
            let mut uf = WeightedUnionFind::new(&weights);
            for &(a, b) in &edges {
                uf.union(a, b);
            }
            let mut by_root = vec![0.0f64; 40];
            for x in 0..40u32 {
                let r = uf.find(x);
                by_root[r as usize] += weights[x as usize];
            }
            for x in 0..40u32 {
                let r = uf.find(x);
                prop_assert_eq!(uf.weight_of(x), by_root[r as usize]);
            }
        }
    }
}
