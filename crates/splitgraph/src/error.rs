//! Error types for graph construction and validation.

use std::error::Error;
use std::fmt;

/// Error raised when constructing or mutating a graph with invalid data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint index was out of range for the graph.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the graph (valid indices are `0..count`).
        count: usize,
    },
    /// A self-loop was supplied to a simple-graph constructor.
    SelfLoop {
        /// The node at both endpoints.
        node: usize,
    },
    /// A duplicate edge was supplied to a simple-graph constructor.
    DuplicateEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Degree-sequence parameters do not admit the requested graph.
    InfeasibleDegrees {
        /// Human-readable reason.
        reason: String,
    },
    /// A generator exhausted its retry budget without producing a valid graph.
    GenerationFailed {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, count } => {
                write!(
                    f,
                    "node index {node} out of range for graph with {count} nodes"
                )
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop at node {node} not allowed in a simple graph")
            }
            GraphError::DuplicateEdge { u, v } => {
                write!(
                    f,
                    "duplicate edge {{{u}, {v}}} not allowed in a simple graph"
                )
            }
            GraphError::InfeasibleDegrees { reason } => {
                write!(f, "infeasible degree parameters: {reason}")
            }
            GraphError::GenerationFailed { reason } => {
                write!(f, "graph generation failed: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::NodeOutOfRange { node: 7, count: 3 };
        assert_eq!(
            e.to_string(),
            "node index 7 out of range for graph with 3 nodes"
        );
        let e = GraphError::SelfLoop { node: 2 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::DuplicateEdge { u: 1, v: 2 };
        assert!(e.to_string().contains("duplicate edge"));
        let e = GraphError::InfeasibleDegrees {
            reason: "odd sum".into(),
        };
        assert!(e.to_string().contains("odd sum"));
        let e = GraphError::GenerationFailed {
            reason: "retries".into(),
        };
        assert!(e.to_string().contains("retries"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
