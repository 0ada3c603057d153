//! The message alphabet of the Gallager–Humblet–Spira algorithm \[GAL83\].

use lems_net::graph::Weight;

/// A fragment is identified by the weight of its core edge (weights are
/// distinct, so this is unambiguous).
pub(crate) type FragmentId = u64;

/// The `S` parameter of `Initiate`: whether the receiving subtree should
/// search for the minimum outgoing edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum NodePhase {
    /// Searching for the minimum outgoing edge.
    Find,
    /// Search finished (or not started).
    Found,
}

/// The seven GHS message types, exchanged only between direct neighbors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum GhsMsg {
    /// Merge/absorb request sent over the sender's minimum-weight basic
    /// edge.
    Connect {
        /// The sender's fragment level.
        level: u32,
    },
    /// New fragment identity flooding down branch edges.
    Initiate {
        /// Fragment level.
        level: u32,
        /// Fragment id (core-edge weight).
        fragment: FragmentId,
        /// Whether the subtree should search.
        phase: NodePhase,
    },
    /// "Is this edge outgoing?" probe.
    Test {
        /// The prober's level.
        level: u32,
        /// The prober's fragment id.
        fragment: FragmentId,
    },
    /// Positive answer to `Test`: the edge leaves the fragment.
    Accept,
    /// Negative answer to `Test`: both ends are in the same fragment.
    Reject,
    /// Convergecast of the minimum outgoing edge weight found in a
    /// subtree (`None` = no outgoing edge).
    Report {
        /// Best weight found, `None` for infinity.
        best: Option<Weight>,
    },
    /// Re-root the fragment toward its minimum outgoing edge.
    ChangeRoot,
}

impl GhsMsg {
    /// Short tag for per-type statistics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            GhsMsg::Connect { .. } => "connect",
            GhsMsg::Initiate { .. } => "initiate",
            GhsMsg::Test { .. } => "test",
            GhsMsg::Accept => "accept",
            GhsMsg::Reject => "reject",
            GhsMsg::Report { .. } => "report",
            GhsMsg::ChangeRoot => "changeroot",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let msgs = [
            GhsMsg::Connect { level: 0 },
            GhsMsg::Initiate {
                level: 1,
                fragment: 2,
                phase: NodePhase::Find,
            },
            GhsMsg::Test {
                level: 1,
                fragment: 2,
            },
            GhsMsg::Accept,
            GhsMsg::Reject,
            GhsMsg::Report { best: None },
            GhsMsg::ChangeRoot,
        ];
        let kinds: std::collections::HashSet<&str> = msgs.iter().map(super::GhsMsg::kind).collect();
        assert_eq!(kinds.len(), msgs.len());
    }
}
