//! Node identifiers.

use std::fmt;

/// A node address in the simulated network.
///
/// Node addresses are dense integers `0..n`. The paper assumes nodes have
/// unique addresses (Section 2); non-address-oblivious protocol steps (such
/// as forwarding a gossip message to one's tree root) use these addresses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Create a node id from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "node index out of range");
        NodeId(index as u32)
    }

    /// The dense index of this node (usable to index per-node state arrays).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrips_through_usize() {
        for i in [0usize, 1, 17, 65_535, 1_000_000] {
            let id = NodeId::new(i);
            assert_eq!(id.index(), i);
            assert_eq!(usize::from(id), i);
            assert_eq!(NodeId::from(i), id);
        }
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(3) < NodeId::new(5));
        assert!(NodeId::new(5) > NodeId::new(3));
        assert_eq!(NodeId::new(4), NodeId::new(4));
    }

    #[test]
    fn usable_in_hash_sets() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        set.insert(NodeId::new(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", NodeId::new(42)), "42");
        assert_eq!(format!("{:?}", NodeId::new(42)), "n42");
    }
}
