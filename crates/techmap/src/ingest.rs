//! BLIF text to a partition-ready hypergraph: the one ingest path the
//! command line and the job service share.

use crate::{decompose_wide_gates, map, MapError, MapperConfig};
use netpart_hypergraph::Hypergraph;
use netpart_netlist::{parse_blif, Netlist, NetlistError, ParseBlifError};
use std::error::Error;
use std::fmt;

/// Why a BLIF source could not be ingested. Displays exactly as the
/// underlying error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The text is not valid BLIF.
    Parse(ParseBlifError),
    /// The netlist has an undriven signal or a combinational cycle.
    Invalid(NetlistError),
    /// Mapping rejected the netlist (a `.names` wider than a LUT).
    Map(MapError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse(e) => e.fmt(f),
            IngestError::Invalid(e) => e.fmt(f),
            IngestError::Map(e) => e.fmt(f),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Parse(e) => e.source(),
            IngestError::Invalid(e) => e.source(),
            IngestError::Map(e) => e.source(),
        }
    }
}

/// Parses `src`, decomposes gates wider than `cfg.max_inputs`, maps the
/// result and emits its hypergraph. Returns the decomposed netlist with
/// the hypergraph.
///
/// Validation happens once, inside [`map`]: decomposition keeps every
/// signal id and neither adds nor removes an undriven signal or a cycle,
/// so the decomposed netlist fails validation exactly when the parsed
/// one does, with the same error.
///
/// # Errors
///
/// The first failing stage's error, as an [`IngestError`].
///
/// # Examples
///
/// ```
/// use netpart_techmap::{ingest_blif, MapperConfig};
///
/// let src = ".model toy\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";
/// let (nl, hg) = ingest_blif(src, &MapperConfig::xc3000())?;
/// assert_eq!(nl.name(), "toy");
/// assert_eq!(hg.stats().clbs, 1);
/// # Ok::<(), netpart_techmap::IngestError>(())
/// ```
pub fn ingest_blif(src: &str, cfg: &MapperConfig) -> Result<(Netlist, Hypergraph), IngestError> {
    let nl = parse_blif(src).map_err(IngestError::Parse)?;
    let nl = decompose_wide_gates(&nl, cfg.max_inputs);
    let mapped = map(&nl, cfg).map_err(|e| match e {
        MapError::InvalidNetlist(e) => IngestError::Invalid(e),
        e => IngestError::Map(e),
    })?;
    let hg = mapped.to_hypergraph(&nl);
    Ok((nl, hg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest(src: &str) -> Result<(Netlist, Hypergraph), IngestError> {
        ingest_blif(src, &MapperConfig::xc3000())
    }

    #[test]
    fn each_stage_reports_its_own_error() {
        assert!(matches!(
            ingest(".model t\n.gate x\n.end\n"),
            Err(IngestError::Parse(ParseBlifError::Malformed {
                line: 2,
                ..
            }))
        ));
        let undriven = ".model t\n.inputs a\n.outputs y\n.names a w y\n11 1\n.end\n";
        let err = ingest(undriven).unwrap_err();
        assert!(matches!(
            err,
            IngestError::Invalid(NetlistError::UndrivenSignal(_))
        ));
        let wide =
            ".model t\n.inputs a b c d e f\n.outputs y\n.names a b c d e f y\n111111 1\n.end\n";
        assert!(matches!(
            ingest(wide),
            Err(IngestError::Map(MapError::FaninTooLarge { fanin: 6, .. }))
        ));
    }

    /// The message is the underlying error's, so callers that printed
    /// the stage errors before print the same text.
    #[test]
    fn display_is_transparent() {
        let cycle = ".model t\n.outputs a\n.names b a\n1 1\n.names a b\n1 1\n.end\n";
        let err = ingest(cycle).unwrap_err();
        assert_eq!(
            err.to_string(),
            NetlistError::CombinationalCycle.to_string()
        );
    }
}
