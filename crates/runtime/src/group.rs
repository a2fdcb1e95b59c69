//! Process groups (the `group` argument of PSCW synchronisation).

use std::sync::Arc;

/// An ordered set of ranks. Used for PSCW access/exposure groups and for
/// subset collectives. Clones share the rank list, so an epoch that keeps
/// its group costs a reference count, not an allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    ranks: Arc<[u32]>,
}

impl Group {
    /// Group from an explicit rank list (deduplicated, order preserved).
    pub fn new(ranks: impl IntoIterator<Item = u32>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let ranks = ranks.into_iter().filter(|r| seen.insert(*r)).collect();
        Self { ranks }
    }

    /// The group of all `p` ranks.
    pub fn world(p: usize) -> Self {
        Self { ranks: (0..p as u32).collect() }
    }

    /// Empty group.
    pub fn empty() -> Self {
        Self { ranks: Arc::new([]) }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True if no members.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, rank: u32) -> bool {
        self.ranks.contains(&rank)
    }

    /// Iterate members in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranks.iter().copied()
    }

    /// Members as a slice.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }
}

impl FromIterator<u32> for Group {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Group::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_preserves_order() {
        let g = Group::new([3, 1, 3, 2, 1]);
        assert_eq!(g.ranks(), &[3, 1, 2]);
        assert_eq!(g.len(), 3);
        assert!(g.contains(2));
        assert!(!g.contains(0));
    }

    #[test]
    fn world_and_empty() {
        assert_eq!(Group::world(3).ranks(), &[0, 1, 2]);
        assert!(Group::empty().is_empty());
    }

    #[test]
    fn a_clone_shares_its_storage() {
        let g = Group::new([4, 2]);
        let c = g.clone();
        assert_eq!(c, g);
        assert!(std::ptr::eq(c.ranks(), g.ranks()), "a clone must not copy the ranks");
    }
}
