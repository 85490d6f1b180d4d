//! Node and flow identifiers.

use std::fmt;

/// The address of a node in the ad hoc network.
///
/// Every node is simultaneously an end host and a router (the defining
/// property of a MANET that TCP Muzha exploits).
///
/// # Example
///
/// ```
/// use wire::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert!(!n.is_broadcast());
/// assert!(NodeId::BROADCAST.is_broadcast());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// The link-layer / network-layer broadcast address.
    pub const BROADCAST: NodeId = NodeId(u16::MAX);

    /// Creates a node id.
    ///
    /// # Panics
    ///
    /// Panics if `index` collides with the broadcast address.
    #[inline]
    pub fn new(index: u16) -> Self {
        assert!(index != u16::MAX, "node id {index} is reserved for broadcast");
        NodeId(index)
    }

    /// The id of the node at `index` in a per-node vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit below the broadcast address
    /// (`topo::TopologySpec::parse` refuses such topologies).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        match u16::try_from(index) {
            Ok(index) => NodeId::new(index),
            Err(_) => panic!("node index {index} is past the u16 address space"),
        }
    }

    /// The raw index, usable to address into per-node vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The address as it travels: [`NodeId::BROADCAST`] is `u16::MAX`.
    pub fn raw(self) -> u16 {
        self.0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "n*")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifies one transport-layer flow (a TCP connection).
///
/// # Example
///
/// ```
/// use wire::FlowId;
/// let f = FlowId::new(0);
/// assert_eq!(f.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u32);

impl FlowId {
    /// Creates a flow id.
    pub const fn new(index: u32) -> Self {
        FlowId(index)
    }

    /// The id of the flow at `index` in a per-flow vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    pub fn from_index(index: usize) -> Self {
        match u32::try_from(index) {
            Ok(index) => FlowId(index),
            Err(_) => panic!("flow index {index} is past the u32 id space"),
        }
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Allocates packet uids that are unique across the whole simulation by
/// partitioning the u64 space per node.
///
/// # Example
///
/// ```
/// use wire::{NodeId, UidGen};
/// let mut a = UidGen::new(NodeId::new(0));
/// let mut b = UidGen::new(NodeId::new(1));
/// assert_ne!(a.next(), b.next());
/// assert_ne!(a.next(), a.next());
/// ```
#[derive(Clone, Debug)]
pub struct UidGen {
    base: u64,
    counter: u64,
}

impl UidGen {
    /// Creates a generator for packets originated by `node` (stream 0).
    pub fn new(node: NodeId) -> Self {
        Self::with_stream(node, 0)
    }

    /// Creates a generator in a distinct `stream`, so that several
    /// generators on the same node (e.g. the routing layer and the
    /// transport layer) never collide.
    pub fn with_stream(node: NodeId, stream: u8) -> Self {
        UidGen { base: ((node.index() as u64) << 48) | ((stream as u64) << 40), counter: 0 }
    }

    /// Returns the next unique uid.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let uid = self.base | self.counter;
        self.counter += 1;
        assert!(self.counter < (1 << 40), "uid space exhausted");
        uid
    }
}

sim_core::snap_record! { FlowId { 0 } }

sim_core::snap_record! {
    UidGen { base, counter }
    check |g| g.counter < (1 << 40) => "uid counter overflow";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_gen_unique_and_partitioned() {
        let mut a = UidGen::new(NodeId::new(2));
        let mut b = UidGen::new(NodeId::new(3));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.next()));
            assert!(seen.insert(b.next()));
        }
    }

    #[test]
    fn node_id_basics() {
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(format!("{a}"), "n0");
        assert_eq!(format!("{:?}", NodeId::BROADCAST), "n*");
    }

    #[test]
    #[should_panic(expected = "reserved for broadcast")]
    fn broadcast_index_rejected() {
        let _ = NodeId::new(u16::MAX);
    }

    #[test]
    fn flow_id_basics() {
        let f = FlowId::new(7);
        assert_eq!(f.index(), 7);
        assert_eq!(format!("{f}"), "f7");
    }
}
