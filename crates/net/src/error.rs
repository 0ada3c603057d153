//! Error type for fallible topology/transport lookups.
//!
//! Historically these lookups panicked on bad input ("unknown node",
//! "nodes not adjacent", …). Panicking on data that arrives from
//! configuration or from other layers makes the simulator fragile and is
//! denied in library code (`clippy::panic` and family), so the lookups now
//! return `Result<_, NetError>` and let the caller decide: deployment
//! builders treat an error as a wiring bug, while the transport send path
//! converts it into a counted drop.

use std::fmt;

use crate::graph::NodeId;

/// Why a topology or transport lookup failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// The node id is outside the graph.
    UnknownNode(NodeId),
    /// The node exists but no actor has been bound to it.
    UnboundNode(NodeId),
    /// The node (or actor) already has a binding.
    AlreadyBound(NodeId),
    /// No path exists between the two nodes.
    Disconnected(NodeId, NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::UnboundNode(n) => write!(f, "node {n} has no bound actor"),
            NetError::AlreadyBound(n) => write!(f, "node {n} is already bound"),
            NetError::Disconnected(a, b) => write!(f, "no path between {a} and {b}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_nodes() {
        assert_eq!(
            NetError::Disconnected(NodeId(1), NodeId(2)).to_string(),
            "no path between n1 and n2"
        );
    }
}
