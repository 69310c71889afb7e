//! Union-split-find: the partition-refinement structure behind Algorithm 1.
//!
//! The compression algorithm (paper §5.2) maintains the topology abstraction
//! `f` as a partition of the concrete nodes: each *block* of the partition
//! is one abstract node. The algorithm only ever **splits** blocks — it
//! starts from the coarsest partition (destination alone, everything else
//! together) and refines until the partition induces an effective
//! abstraction. The paper calls the structure a *union-split-find*; since no
//! unions happen after initialization, what is required in practice is an
//! efficient *split-find*.
//!
//! Blocks are identified by dense [`BlockId`]s. Splitting assigns fresh ids
//! to the carved-off sub-blocks and never reuses ids, so a `BlockId` held
//! across a split still refers to the (possibly shrunk) original block.
//! All operations are deterministic: members are kept in ascending order
//! and new block ids are assigned in a fixed order, which keeps the whole
//! compression pipeline reproducible.

use std::collections::HashMap;
use std::hash::Hash;

/// Identifier of a partition block (an abstract node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The id as a `usize`, for indexing per-block tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A partition of the elements `0..n` supporting block lookup and splits.
#[derive(Clone, Debug)]
pub struct Partition {
    /// element -> block id
    block_of: Vec<BlockId>,
    /// block id -> sorted members. Never empty once created.
    members: Vec<Vec<u32>>,
}

impl Partition {
    /// Creates the coarsest partition of `0..n`: a single block.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coarsest(n: usize) -> Self {
        assert!(n > 0, "cannot partition zero elements");
        Partition {
            block_of: vec![BlockId(0); n],
            members: vec![(0..n as u32).collect()],
        }
    }

    /// Creates the discrete partition of `0..n`: every element alone.
    pub fn discrete(n: usize) -> Self {
        assert!(n > 0, "cannot partition zero elements");
        Partition {
            block_of: (0..n as u32).map(BlockId).collect(),
            members: (0..n as u32).map(|i| vec![i]).collect(),
        }
    }

    /// Number of elements being partitioned.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Always false; partitions are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// The block containing element `x`.
    #[inline]
    pub fn block_of(&self, x: u32) -> BlockId {
        self.block_of[x as usize]
    }

    /// The sorted members of a block.
    pub fn members(&self, b: BlockId) -> &[u32] {
        &self.members[b.index()]
    }

    /// Iterator over the ids of all (non-empty) blocks.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, _)| BlockId(i as u32))
    }

    /// True if `x` and `y` are in the same block.
    pub fn same_block(&self, x: u32, y: u32) -> bool {
        self.block_of(x) == self.block_of(y)
    }

    /// Splits every block `B` into `B ∩ S` and `B \ S` where `S` is the
    /// given element set. Blocks entirely inside or outside `S` are left
    /// untouched. Returns the ids of the freshly created blocks (the
    /// `B ∩ S` parts that were carved off).
    ///
    /// This is the `Split(f, us)` operation of Algorithm 1.
    pub fn split(&mut self, subset: &[u32]) -> Vec<BlockId> {
        // Group the subset by current block.
        let mut by_block: HashMap<BlockId, Vec<u32>> = HashMap::new();
        for &x in subset {
            assert!((x as usize) < self.block_of.len(), "element out of range");
            by_block.entry(self.block_of(x)).or_default().push(x);
        }
        // Deterministic processing order.
        let mut touched: Vec<_> = by_block.into_iter().collect();
        touched.sort_by_key(|(b, _)| *b);

        let mut created = Vec::new();
        for (b, mut part) in touched {
            part.sort_unstable();
            part.dedup();
            if part.len() == self.members[b.index()].len() {
                continue; // whole block selected: nothing to split
            }
            let new_id = BlockId(self.members.len() as u32);
            for &x in &part {
                self.block_of[x as usize] = new_id;
            }
            self.members[b.index()].retain(|x| self.block_of[*x as usize] == b);
            self.members.push(part);
            created.push(new_id);
        }
        created
    }

    /// Refines a single block by a key function: members with distinct keys
    /// end up in distinct blocks. The members sharing the key of the block's
    /// smallest element stay in the original block; every other key group
    /// gets a fresh block. Returns the ids of the freshly created blocks.
    ///
    /// This implements the `GroupKeysByValue` + `Split` step of `Refine`
    /// (Algorithm 1, lines 21-22).
    pub fn refine_block_by_key<K, F>(&mut self, b: BlockId, mut key: F) -> Vec<BlockId>
    where
        K: Hash + Eq,
        F: FnMut(u32) -> K,
    {
        let members = self.members[b.index()].clone();
        if members.len() <= 1 {
            return Vec::new();
        }
        // Group members by key, preserving first-seen order of groups so the
        // result does not depend on the hash function's iteration order.
        let mut group_of: HashMap<K, usize> = HashMap::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for &x in &members {
            let k = key(x);
            let idx = *group_of.entry(k).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[idx].push(x);
        }
        if groups.len() <= 1 {
            return Vec::new();
        }
        let mut created = Vec::new();
        // Keep group 0 (containing the smallest member) in place; split off
        // the rest one at a time.
        for g in &groups[1..] {
            created.extend(self.split(g));
        }
        created
    }

    /// [`Partition::refine_block_by_key`] for a caller that has already
    /// grouped the members: `group_of[i]` is the group of `members(b)[i]`,
    /// groups numbered `0..groups` in first-seen order (so `group_of[0] ==
    /// 0`). Group 0 stays in `b`; group `g >= 1` becomes the fresh block
    /// `first + g - 1`, where `first` is the returned id — exactly the ids
    /// `refine_block_by_key` hands out for the same grouping.
    ///
    /// # Panics
    ///
    /// Panics if `group_of` does not cover the block's members or names a
    /// group outside `0..groups`.
    pub fn split_block_by_groups(
        &mut self,
        b: BlockId,
        group_of: &[u32],
        groups: usize,
    ) -> BlockId {
        let first = BlockId(self.members.len() as u32);
        if groups <= 1 {
            return first;
        }
        let old = std::mem::take(&mut self.members[b.index()]);
        assert_eq!(old.len(), group_of.len(), "one group per block member");
        assert_eq!(group_of.first(), Some(&0), "groups are numbered first-seen");
        self.members
            .resize_with(first.index() + groups - 1, Vec::new);
        for (&x, &g) in old.iter().zip(group_of) {
            let target = match g {
                0 => b,
                g => BlockId(first.0 + g - 1),
            };
            self.block_of[x as usize] = target;
            self.members[target.index()].push(x);
        }
        assert!(
            self.members[first.index()..].iter().all(|m| !m.is_empty()),
            "every group in 0..groups has a member"
        );
        first
    }

    /// Isolates an element into its own (possibly fresh) block; used to give
    /// the destination its own abstract node at the start of Algorithm 1.
    pub fn isolate(&mut self, x: u32) -> BlockId {
        let b = self.block_of(x);
        if self.members[b.index()].len() == 1 {
            return b;
        }
        // `split(&[x])` without its grouping map.
        let new_id = BlockId(self.members.len() as u32);
        self.members[b.index()].retain(|&m| m != x);
        self.members.push(vec![x]);
        self.block_of[x as usize] = new_id;
        new_id
    }

    /// The blocks as a sorted list of sorted member lists (for tests and
    /// golden comparisons).
    pub fn as_sets(&self) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = self
            .members
            .iter()
            .filter(|m| !m.is_empty())
            .cloned()
            .collect();
        sets.sort();
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarsest_and_discrete() {
        let p = Partition::coarsest(5);
        assert_eq!(p.block_count(), 1);
        assert!(p.same_block(0, 4));
        let d = Partition::discrete(3);
        assert_eq!(d.block_count(), 3);
        assert!(!d.same_block(0, 1));
    }

    #[test]
    fn split_carves_subset() {
        let mut p = Partition::coarsest(6);
        let created = p.split(&[1, 3, 5]);
        assert_eq!(created.len(), 1);
        assert_eq!(p.block_count(), 2);
        assert_eq!(p.as_sets(), vec![vec![0, 2, 4], vec![1, 3, 5]]);
        assert!(p.same_block(1, 3));
        assert!(!p.same_block(0, 1));
    }

    #[test]
    fn split_whole_block_is_noop() {
        let mut p = Partition::coarsest(4);
        let created = p.split(&[0, 1, 2, 3]);
        assert!(created.is_empty());
        assert_eq!(p.block_count(), 1);
    }

    #[test]
    fn split_across_blocks() {
        let mut p = Partition::coarsest(6);
        p.split(&[0, 1, 2]); // {0,1,2} {3,4,5}
        let created = p.split(&[2, 3]); // splits both blocks
        assert_eq!(created.len(), 2);
        assert_eq!(p.as_sets(), vec![vec![0, 1], vec![2], vec![3], vec![4, 5]]);
    }

    #[test]
    fn stale_block_id_still_points_at_remainder() {
        let mut p = Partition::coarsest(4);
        let b = p.block_of(0);
        p.split(&[2, 3]);
        // Original id keeps the untouched part.
        assert_eq!(p.members(b), &[0, 1]);
    }

    #[test]
    fn refine_by_key_groups() {
        let mut p = Partition::coarsest(6);
        let b = p.block_of(0);
        // key = parity
        let created = p.refine_block_by_key(b, |x| x % 2);
        assert_eq!(created.len(), 1);
        assert_eq!(p.as_sets(), vec![vec![0, 2, 4], vec![1, 3, 5]]);
        // Refining again with the same key changes nothing.
        for blk in p.blocks().collect::<Vec<_>>() {
            assert!(p.refine_block_by_key(blk, |x| x % 2).is_empty());
        }
    }

    #[test]
    fn refine_singleton_is_noop() {
        let mut p = Partition::discrete(3);
        for b in p.blocks().collect::<Vec<_>>() {
            assert!(p.refine_block_by_key(b, |x| x).is_empty());
        }
    }

    #[test]
    fn isolate() {
        let mut p = Partition::coarsest(5);
        let b = p.isolate(3);
        assert_eq!(p.members(b), &[3]);
        assert_eq!(p.block_count(), 2);
        // Isolating again is a no-op.
        let b2 = p.isolate(3);
        assert_eq!(b, b2);
        assert_eq!(p.block_count(), 2);
    }

    #[test]
    fn members_stay_sorted() {
        let mut p = Partition::coarsest(8);
        p.split(&[7, 1, 5]);
        for b in p.blocks() {
            let m = p.members(b);
            assert!(m.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn block_count_matches_as_sets() {
        let mut p = Partition::coarsest(10);
        p.split(&[0, 1]);
        p.split(&[5]);
        p.split(&[9, 8]);
        assert_eq!(p.block_count(), p.as_sets().len());
        // Every element is in exactly one block.
        let mut seen = [false; 10];
        for b in p.blocks() {
            for &x in p.members(b) {
                assert!(!seen[x as usize]);
                seen[x as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
