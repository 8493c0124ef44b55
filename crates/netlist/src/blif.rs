//! Reader and writer for a subset of the Berkeley Logic Interchange
//! Format (BLIF): `.model`, `.inputs`, `.outputs`, `.names` (with cover
//! rows), `.latch` and `.end`, with `\` line continuation.

use crate::model::{Gate, GateKind, Netlist, NetlistError, SignalId};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// An error raised while parsing BLIF text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseBlifError {
    /// A directive had the wrong number of arguments.
    Malformed {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        what: String,
    },
    /// The netlist violated a structural invariant while being built.
    Netlist {
        /// 1-based source line.
        line: usize,
        /// The underlying netlist error.
        source: NetlistError,
    },
    /// An `.outputs` signal was never defined.
    UnknownOutput {
        /// 1-based source line of the `.outputs` directive naming it.
        line: usize,
        /// The undefined signal name.
        name: String,
    },
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::Malformed { line, what } => {
                write!(f, "line {line}: malformed directive: {what}")
            }
            ParseBlifError::Netlist { line, source } => write!(f, "line {line}: {source}"),
            ParseBlifError::UnknownOutput { line, name } => {
                write!(f, "line {line}: unknown output signal {name:?}")
            }
        }
    }
}

impl Error for ParseBlifError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseBlifError::Netlist { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses a BLIF-subset description into a [`Netlist`].
///
/// Supported directives: `.model`, `.inputs`, `.outputs`, `.names`
/// (cover rows become [`GateKind::Lut`]), `.latch` (becomes
/// [`GateKind::Dff`]; type/control/init fields are accepted and ignored)
/// and `.end`. `#` comments and `\` continuations are handled.
///
/// # Errors
///
/// Returns an error on malformed directives or structural violations
/// (multiple drivers, undefined outputs, combinational cycles).
///
/// # Examples
///
/// ```
/// let src = "\
/// .model toy
/// .inputs a b
/// .outputs y
/// .names a b y
/// 11 1
/// .end
/// ";
/// let nl = netpart_netlist::parse_blif(src)?;
/// assert_eq!(nl.name(), "toy");
/// assert_eq!(nl.n_gates(), 1);
/// # Ok::<(), netpart_netlist::ParseBlifError>(())
/// ```
pub fn parse_blif(src: &str) -> Result<Netlist, ParseBlifError> {
    let mut parser = Parser {
        nl: Netlist::new("top"),
        outputs: Vec::new(),
        names_line: None,
        names: Vec::new(),
        cover: Vec::new(),
        signals: Vec::new(),
    };
    // One logical line is a group of physical lines joined by trailing
    // `\`s; it is numbered by its first physical line. Tokens never span
    // a join (the join inserts a space), so a group is processed as the
    // token stream of its parts, borrowed from `src`.
    let mut parts: Vec<&str> = Vec::new();
    let mut tokens: Vec<&str> = Vec::new();
    let mut group_line = 0usize;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if parts.is_empty() {
            group_line = i + 1;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            parts.push(stripped);
            continue;
        }
        parts.push(line);
        tokens.clear();
        tokens.extend(parts.iter().flat_map(|p| p.split_whitespace()));
        if !tokens.is_empty() && !parser.logical_line(group_line, &parts, &tokens)? {
            break; // `.end`
        }
        parts.clear();
    }
    parser.finish()
}

/// Parser state between logical lines.
struct Parser<'src> {
    nl: Netlist,
    /// `.outputs` names with their line, resolved at the end.
    outputs: Vec<(usize, &'src str)>,
    /// The pending `.names`: its line, its signal names and cover rows.
    names_line: Option<usize>,
    names: Vec<&'src str>,
    cover: Vec<Cow<'src, str>>,
    /// Scratch for a gate's interned input signals.
    signals: Vec<SignalId>,
}

impl<'src> Parser<'src> {
    /// Handles one non-blank logical line; `false` at `.end`.
    fn logical_line(
        &mut self,
        line: usize,
        parts: &[&'src str],
        tokens: &[&'src str],
    ) -> Result<bool, ParseBlifError> {
        let head = tokens[0];
        if head.starts_with('.') {
            self.flush_names()?;
        }
        let netlist_err = |source| ParseBlifError::Netlist { line, source };
        match head {
            ".model" => {
                // Content before `.model` does not occur in well-formed
                // files.
                if self.nl.n_signals() > 0 {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: ".model after content".into(),
                    });
                }
                self.nl.set_name(tokens.get(1).copied().unwrap_or("top"));
            }
            ".inputs" => {
                for name in &tokens[1..] {
                    self.nl.add_primary_input(name).map_err(netlist_err)?;
                }
            }
            ".outputs" => self.outputs.extend(tokens[1..].iter().map(|&n| (line, n))),
            ".names" => {
                if tokens.len() == 1 {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: ".names needs at least an output".into(),
                    });
                }
                self.names_line = Some(line);
                self.names.extend_from_slice(&tokens[1..]);
            }
            ".latch" => {
                let (Some(&d), Some(&q)) = (tokens.get(1), tokens.get(2)) else {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: ".latch needs input and output".into(),
                    });
                };
                let d_sig = self.nl.intern(d);
                let q_sig = self.nl.intern(q);
                self.nl
                    .push_gate::<&str>(&["latch_", q], GateKind::Dff, &[], &[d_sig], q_sig)
                    .map_err(netlist_err)?;
            }
            ".end" => return Ok(false),
            _ if head.starts_with('.') => {
                return Err(ParseBlifError::Malformed {
                    line,
                    what: format!("unsupported directive {head}"),
                });
            }
            _ => {
                // A cover row of the pending `.names`, kept as the trimmed
                // text of the logical line.
                if self.names_line.is_none() {
                    return Err(ParseBlifError::Malformed {
                        line,
                        what: "cover row outside .names".into(),
                    });
                }
                self.cover.push(match parts {
                    [one] => Cow::Borrowed(one.trim()),
                    _ => Cow::Owned(parts.join(" ").trim().to_string()),
                });
            }
        }
        Ok(true)
    }

    /// Adds the pending `.names` gate, if any.
    fn flush_names(&mut self) -> Result<(), ParseBlifError> {
        let Some(line) = self.names_line.take() else {
            return Ok(());
        };
        let (&out, ins) = self.names.split_last().expect(".names has an output");
        self.signals.clear();
        for name in ins {
            let s = self.nl.intern(name);
            self.signals.push(s);
        }
        let out_sig = self.nl.intern(out);
        self.nl
            .push_gate(
                &["names_", out],
                GateKind::Lut,
                &self.cover,
                &self.signals,
                out_sig,
            )
            .map_err(|source| ParseBlifError::Netlist { line, source })?;
        self.names.clear();
        self.cover.clear();
        Ok(())
    }

    /// Flushes the last `.names` and resolves `.outputs`.
    fn finish(mut self) -> Result<Netlist, ParseBlifError> {
        self.flush_names()?;
        for &(line, name) in &self.outputs {
            let sig =
                self.nl
                    .signal_by_name(name)
                    .ok_or_else(|| ParseBlifError::UnknownOutput {
                        line,
                        name: name.to_string(),
                    })?;
            self.nl
                .add_primary_output(sig)
                .map_err(|source| ParseBlifError::Netlist { line, source })?;
        }
        Ok(self.nl)
    }
}

/// Serialises a [`Netlist`] as BLIF text that [`parse_blif`] round-trips.
///
/// Primitive gates are emitted as `.names` with the canonical sum-of-
/// products cover for their function; DFFs become `.latch` lines.
pub fn write_blif(nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", nl.name());
    let mut signal_line = |directive: &str, signals: &[SignalId]| {
        if !signals.is_empty() {
            out.push_str(directive);
            for &s in signals {
                out.push(' ');
                out.push_str(nl.signal_name(s));
            }
            out.push('\n');
        }
    };
    signal_line(".inputs", nl.primary_inputs());
    signal_line(".outputs", nl.primary_outputs());
    for g in nl.gates() {
        if g.kind().is_dff() {
            let _ = writeln!(
                out,
                ".latch {} {} re clk 0",
                nl.signal_name(g.inputs()[0]),
                nl.signal_name(g.output())
            );
            continue;
        }
        out.push_str(".names");
        for &s in g.inputs().iter().chain([&g.output()]) {
            out.push(' ');
            out.push_str(nl.signal_name(s));
        }
        out.push('\n');
        write_cover(&mut out, g);
    }
    out.push_str(".end\n");
    out
}

/// Appends a gate's cover rows: its own for a LUT, the canonical
/// sum-of-products cover for a primitive gate.
fn write_cover(out: &mut String, g: Gate<'_>) {
    let n = g.inputs().len();
    let mut one_hot = |hot: char| {
        for i in 0..n {
            for j in 0..n {
                out.push(if i == j { hot } else { '-' });
            }
            out.push_str(" 1\n");
        }
    };
    match g.kind() {
        GateKind::Buf => out.push_str("1 1\n"),
        GateKind::Not => out.push_str("0 1\n"),
        GateKind::And => {
            let _ = writeln!(out, "{} 1", "1".repeat(n));
        }
        GateKind::Nor => {
            let _ = writeln!(out, "{} 1", "0".repeat(n));
        }
        GateKind::Or => one_hot('1'),
        GateKind::Nand => one_hot('0'),
        GateKind::Xor => out.push_str("01 1\n10 1\n"),
        GateKind::Xnor => out.push_str("00 1\n11 1\n"),
        GateKind::Lut => {
            for row in g.cover() {
                out.push_str(row);
                out.push('\n');
            }
        }
        GateKind::Dff => unreachable!("DFFs are written as .latch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GateId;

    #[test]
    fn parse_simple_model() {
        let src = "\
# a comment
.model demo
.inputs a b \\
c
.outputs y q
.names a b w
11 1
.names w c y
1- 1
-1 1
.latch y q re clk 0
.end
";
        let nl = parse_blif(src).unwrap();
        assert_eq!(nl.name(), "demo");
        assert_eq!(nl.primary_inputs().len(), 3);
        assert_eq!(nl.primary_outputs().len(), 2);
        assert_eq!(nl.n_gates(), 3);
        assert_eq!(nl.n_dffs(), 1);
        nl.validate().unwrap();
    }

    #[test]
    fn roundtrip_primitive_gates() {
        let mut nl = Netlist::new("rt");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let w = nl.add_signal("w").unwrap();
        let x = nl.add_signal("x").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate("g0", GateKind::Nand, vec![a, b], w).unwrap();
        nl.add_gate("g1", GateKind::Xor, vec![w, b], x).unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![x], q).unwrap();
        nl.add_primary_output(q).unwrap();
        let text = write_blif(&nl);
        let back = parse_blif(&text).unwrap();
        assert_eq!(back.n_gates(), 3);
        assert_eq!(back.n_dffs(), 1);
        assert_eq!(back.primary_inputs().len(), 2);
        assert_eq!(back.primary_outputs().len(), 1);
        back.validate().unwrap();
        // Second round trip is a fixpoint.
        assert_eq!(write_blif(&back), write_blif(&parse_blif(&text).unwrap()));
    }

    #[test]
    fn unknown_output_rejected() {
        let src = ".model t\n.inputs a\n.outputs zz\n.end\n";
        assert_eq!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::UnknownOutput {
                line: 3,
                name: "zz".into()
            }
        );
    }

    #[test]
    fn duplicate_input_signal_reported_with_line() {
        let src = ".model t\n.inputs a\n.inputs a\n.end\n";
        match parse_blif(src).unwrap_err() {
            ParseBlifError::Netlist { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(source, NetlistError::DuplicateSignalName(_)));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn empty_names_rejected_with_line() {
        let src = ".model t\n.inputs a\n.names\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { line: 3, .. }
        ));
    }

    #[test]
    fn truncated_latch_rejected_with_line() {
        let src = ".model t\n.inputs d\n.latch d\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { line: 3, .. }
        ));
    }

    #[test]
    fn dangling_names_output_feeding_nothing_still_parses() {
        // A `.names` whose output drives nothing is legal BLIF; only
        // undriven `.outputs` are an error.
        let src = ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a w\n0 1\n.end\n";
        let nl = parse_blif(src).unwrap();
        assert_eq!(nl.n_gates(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn unsupported_directive_rejected() {
        let src = ".model t\n.gate and2 A=a B=b O=y\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { line: 2, .. }
        ));
    }

    #[test]
    fn stray_cover_row_rejected() {
        let src = ".model t\n11 1\n.end\n";
        assert!(matches!(
            parse_blif(src).unwrap_err(),
            ParseBlifError::Malformed { .. }
        ));
    }

    #[test]
    fn double_driver_reported_with_line() {
        let src = ".model t\n.inputs a\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
        match parse_blif(src).unwrap_err() {
            ParseBlifError::Netlist { line, source } => {
                assert_eq!(line, 5);
                assert!(matches!(source, NetlistError::SignalAlreadyDriven(_)));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    /// Errors report the first physical line of the offending directive,
    /// counting continued, comment and blank lines before it.
    #[test]
    fn error_lines_count_continued_and_comment_lines() {
        let head = "# header\n.model t\n.inputs a \\\n  b\n# comment\n\n.names a b \\\n w\n11 1\n";
        let src = format!("{head}.gate and2 A=a\n.end\n");
        assert!(matches!(
            parse_blif(&src).unwrap_err(),
            ParseBlifError::Malformed { line: 10, .. }
        ));

        let src =
            format!("{head}   # indented comment \\\n.names b \\\n   w  # again\n0 1\n.end\n");
        match parse_blif(&src).unwrap_err() {
            ParseBlifError::Netlist { line, source } => {
                assert_eq!(line, 11);
                assert!(matches!(source, NetlistError::SignalAlreadyDriven(_)));
            }
            e => panic!("unexpected error {e}"),
        }

        let src = format!("{head}.inputs c \\\n\\\n  a\n.end\n");
        match parse_blif(&src).unwrap_err() {
            ParseBlifError::Netlist { line, source } => {
                assert_eq!(line, 10);
                assert!(matches!(source, NetlistError::DuplicateSignalName(_)));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    /// Cover rows keep their text exactly, including the spacing a `\`
    /// continuation leaves inside a row.
    #[test]
    fn continued_cover_row_text_is_kept() {
        let src = ".model t\n.inputs a b\n.outputs y\n.names a b y\n  1- \\\n 1  \n-1 1\n.end\n";
        let nl = parse_blif(src).unwrap();
        let g = nl.gate(GateId(0));
        assert_eq!(g.kind(), GateKind::Lut);
        assert_eq!(g.cover().collect::<Vec<_>>(), ["1-   1", "-1 1"]);
    }

    #[test]
    fn constant_names_allowed() {
        let src = ".model t\n.outputs k\n.names k\n1\n.end\n";
        let nl = parse_blif(src).unwrap();
        assert_eq!(nl.n_gates(), 1);
        assert_eq!(nl.gate(GateId(0)).kind(), GateKind::Lut);
        assert_eq!(nl.gate(GateId(0)).cover().collect::<Vec<_>>(), ["1"]);
    }
}
