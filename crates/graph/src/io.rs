//! Graph input: a text edge-list parser.
//!
//! Accepts the whitespace-separated `src dst [weight]` format used by
//! SNAP and GTgraph dumps. This is where outside input enters the crate
//! (the `simdx` CLI feeds it a user's file), so every token is parsed
//! straight into its final type: an id that does not fit
//! [`VertexId`](crate::VertexId) is an error, never a truncation.

use crate::edgelist::{vertex_span, EdgeList};
use crate::{VertexId, Weight};

/// A text edge list that could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Text parse failure with a line number.
    Parse { line: usize, what: &'static str },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse { line, what } => write!(f, "parse error at line {line}: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Parses a whitespace-separated `src dst [weight]` edge list. Lines
/// starting with `#` or `%` are comments; blank lines are skipped.
pub fn parse_edge_list(text: &str) -> Result<EdgeList, DecodeError> {
    let mut edges = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    let mut any_weight = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let vertex = |tok: Option<&str>, what| -> Result<VertexId, DecodeError> {
            tok.and_then(|t| t.parse().ok()).ok_or(DecodeError::Parse {
                line: lineno + 1,
                what,
            })
        };
        let s = vertex(it.next(), "source")?;
        let d = vertex(it.next(), "destination")?;
        match it.next() {
            Some(tok) => {
                let w = tok.parse::<Weight>().map_err(|_| DecodeError::Parse {
                    line: lineno + 1,
                    what: "weight",
                })?;
                if !any_weight && !edges.is_empty() {
                    return Err(DecodeError::Parse {
                        line: lineno + 1,
                        what: "mixed weighted/unweighted rows",
                    });
                }
                any_weight = true;
                weights.push(w);
            }
            None if any_weight => {
                return Err(DecodeError::Parse {
                    line: lineno + 1,
                    what: "mixed weighted/unweighted rows",
                })
            }
            None => {}
        }
        edges.push((s, d));
    }
    Ok(if any_weight {
        EdgeList::from_weighted(vertex_span(&edges), edges, weights)
    } else {
        EdgeList::from_pairs(edges)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Csr, GraphError};

    #[test]
    fn parse_text_with_comments() {
        let text = "# comment\n0 1\n1 2\n\n% another\n2 0\n";
        let el = parse_edge_list(text).expect("parse");
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn parse_weighted_text() {
        let el = parse_edge_list("0 1 5\n1 2 9\n").expect("parse");
        assert_eq!(el.weights(), Some(&[5, 9][..]));
    }

    #[test]
    fn parse_mixed_rows_rejected() {
        let err = parse_edge_list("0 1 5\n1 2\n").unwrap_err();
        assert!(matches!(err, DecodeError::Parse { line: 2, .. }));
    }

    #[test]
    fn parse_garbage_rejected() {
        let err = parse_edge_list("zero one\n").unwrap_err();
        assert!(matches!(err, DecodeError::Parse { line: 1, .. }));
    }

    #[test]
    fn ids_beyond_the_vertex_id_space_are_parse_errors_not_truncations() {
        // 2^32 used to parse as vertex 0 (`u64 as u32`).
        let (line, id) = (2, "4294967296");
        assert_eq!(
            parse_edge_list(&format!("0 1\n{id} 1\n")),
            Err(DecodeError::Parse {
                line,
                what: "source"
            })
        );
        assert_eq!(
            parse_edge_list(&format!("0 1 5\n1 {id} 5\n")),
            Err(DecodeError::Parse {
                line,
                what: "destination"
            })
        );
    }

    #[test]
    fn the_largest_id_saturates_the_vertex_count_and_fails_typed_at_build() {
        // `max + 1` used to overflow on the weighted path: a panic in
        // debug builds, a list over 0 vertices in release.
        for text in ["4294967295 1\n", "4294967295 1 7\n"] {
            let el = parse_edge_list(text).expect("the id fits a VertexId");
            assert_eq!(el.num_vertices(), VertexId::MAX);
            assert_eq!(
                Csr::try_build(el.num_vertices(), el.edges(), el.weights()),
                Err(GraphError::EndpointOutOfRange {
                    src: VertexId::MAX,
                    dst: 1,
                    num_vertices: VertexId::MAX
                })
            );
        }
    }
}
