//! Node identity.

use std::fmt;

/// Identifier of a simulated node.
///
/// Node ids are dense indices assigned by the scenario builder; the MAC
/// protocol additionally feeds the numeric value into the deterministic
/// retry-backoff function `f(backoff, nodeId, attempt)` from the paper, so
/// the id is part of protocol state, not just bookkeeping.
///
/// ```
/// use airguard_sim::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw numeric value (used by the protocol's deterministic
    /// retry-backoff function).
    #[must_use]
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let id = NodeId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(id.value(), 7);
        assert_eq!(id.to_string(), "n7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
