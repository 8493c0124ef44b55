//! Pre-mapping decomposition of wide gates into trees.

use netpart_netlist::{Gate, GateKind, Netlist, SignalId};

/// Rewrites every AND/OR/NAND/NOR gate with more than `k` inputs into a
/// balanced tree of at-most-`k`-input gates, returning the new netlist.
///
/// AND/OR decompose into trees of themselves; NAND/NOR decompose into an
/// AND/OR reduction tree with an inverting final stage. Every other gate
/// is copied unchanged: DFFs, gates already within the limit, and wide
/// [`GateKind::Lut`] gates, whose generic covers cannot be decomposed
/// structurally — [`map`](crate::map) rejects those with
/// [`MapError::FaninTooLarge`](crate::MapError::FaninTooLarge). (XOR and
/// XNOR are 2-input by construction.)
///
/// The result is an arena copy of `nl` up to the first wide gate, then
/// the remaining gates with each tree's stages inserted before its final
/// stage; the trees' internal signals (`_dec0`, `_dec1`, …) are appended
/// after the existing ones, so every original signal keeps its id.
///
/// # Panics
///
/// Panics if `k < 2`, or if `nl` already has a signal named like one of
/// the internal tree signals.
///
/// # Examples
///
/// ```
/// use netpart_netlist::{GateKind, Netlist};
/// use netpart_techmap::decompose_wide_gates;
///
/// # fn main() -> Result<(), netpart_netlist::NetlistError> {
/// let mut nl = Netlist::new("wide");
/// let ins: Vec<_> = (0..9)
///     .map(|i| nl.add_primary_input(format!("i{i}")))
///     .collect::<Result<_, _>>()?;
/// let y = nl.add_signal("y")?;
/// nl.add_gate("big", GateKind::And, ins, y)?;
/// nl.add_primary_output(y)?;
/// let narrow = decompose_wide_gates(&nl, 4);
/// assert!(narrow.gates().all(|g| g.inputs().len() <= 4));
/// # Ok(())
/// # }
/// ```
pub fn decompose_wide_gates(nl: &Netlist, k: usize) -> Netlist {
    assert!(k >= 2, "gates cannot be narrower than 2 inputs");
    let tree_of = |g: Gate<'_>| -> Option<(GateKind, GateKind)> {
        if g.inputs().len() <= k {
            return None;
        }
        match g.kind() {
            GateKind::And => Some((GateKind::And, GateKind::And)),
            GateKind::Or => Some((GateKind::Or, GateKind::Or)),
            GateKind::Nand => Some((GateKind::And, GateKind::Nand)),
            GateKind::Nor => Some((GateKind::Or, GateKind::Nor)),
            _ => None,
        }
    };
    let first = nl
        .gates()
        .position(|g| tree_of(g).is_some())
        .unwrap_or(nl.n_gates());
    let mut out = nl.clone();
    out.truncate_gates(first);

    let mut fresh = 0usize;
    let mut level: Vec<SignalId> = Vec::new();
    for g in nl.gates().skip(first) {
        let Some((reduce, finish)) = tree_of(g) else {
            let copied = match g.kind() {
                GateKind::Lut => {
                    let cover: Vec<&str> = g.cover().collect();
                    out.add_lut(g.name(), &cover, g.inputs(), g.output())
                }
                kind => out.add_gate(g.name(), kind, g.inputs(), g.output()),
            };
            copied.expect("copy of valid gate");
            continue;
        };
        // Balanced reduction: fold groups of k signals until ≤ k remain,
        // then apply the (possibly inverting) final stage.
        level.clear();
        level.extend_from_slice(g.inputs());
        while level.len() > k {
            let mut next = Vec::with_capacity(level.len().div_ceil(k));
            for chunk in level.chunks(k) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let t = out
                    .add_signal(format!("_dec{fresh}"))
                    .expect("fresh internal name");
                fresh += 1;
                out.add_gate(format!("_dec_g{fresh}"), reduce, chunk, t)
                    .expect("tree stage is valid");
                next.push(t);
            }
            level = next;
        }
        out.add_gate(g.name(), finish, &level, g.output())
            .expect("final stage is valid");
    }
    debug_assert_eq!(out.validate(), nl.validate());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::GateKind;

    fn wide(kind: GateKind, n: usize) -> Netlist {
        let mut nl = Netlist::new("w");
        let ins: Vec<_> = (0..n)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate("big", kind, ins, y).unwrap();
        nl.add_primary_output(y).unwrap();
        nl
    }

    #[test]
    fn and_tree_has_narrow_gates() {
        let nl = decompose_wide_gates(&wide(GateKind::And, 17), 4);
        nl.validate().unwrap();
        assert!(nl.gates().all(|g| g.inputs().len() <= 4));
        assert!(nl.gates().all(|g| g.kind() == GateKind::And));
    }

    #[test]
    fn nand_tree_inverts_once() {
        let nl = decompose_wide_gates(&wide(GateKind::Nand, 10), 3);
        nl.validate().unwrap();
        let nands = nl.gates().filter(|g| g.kind() == GateKind::Nand).count();
        assert_eq!(nands, 1, "exactly the final stage inverts");
        let y = nl.signal_by_name("y").unwrap();
        let final_gate = nl.gates().find(|g| g.output() == y).expect("output driven");
        assert_eq!(final_gate.kind(), GateKind::Nand);
    }

    #[test]
    fn narrow_netlists_unchanged() {
        let src = wide(GateKind::Or, 3);
        let out = decompose_wide_gates(&src, 4);
        assert_eq!(out.n_gates(), 1);
        assert_eq!(out.gates().next().map(|g| g.inputs().len()), Some(3));
    }

    #[test]
    fn dffs_copied_verbatim() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let q = nl.add_signal("q").unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![a], q).unwrap();
        nl.add_primary_output(q).unwrap();
        let out = decompose_wide_gates(&nl, 2);
        assert_eq!(out.n_dffs(), 1);
    }

    /// A wide `.names` cover cannot be split structurally: it is copied
    /// unchanged, and mapping then reports it as a typed error.
    #[test]
    fn wide_lut_copied_for_map_to_reject() {
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..6)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        nl.add_lut("l", &["111111 1"], ins, y).unwrap();
        nl.add_primary_output(y).unwrap();
        let out = decompose_wide_gates(&nl, 4);
        assert_eq!(out.n_gates(), 1);
        let g = out.gates().next().unwrap();
        assert_eq!(g.inputs().len(), 6);
        assert_eq!(g.cover().collect::<Vec<_>>(), ["111111 1"]);
        assert!(matches!(
            crate::map(&out, &crate::MapperConfig::xc3000()),
            Err(crate::MapError::FaninTooLarge { fanin: 6, .. })
        ));
    }

    /// Gates after a decomposed one are copied with their names, kinds,
    /// covers and signals; only the tree stages are new.
    #[test]
    fn gates_after_a_tree_are_copied() {
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..7)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let (y, z, q) = (
            nl.add_signal("y").unwrap(),
            nl.add_signal("z").unwrap(),
            nl.add_signal("q").unwrap(),
        );
        nl.add_gate("big", GateKind::Nor, &ins, y).unwrap();
        nl.add_lut("l", &["1- 1", "-1 1"], [y, ins[0]], z).unwrap();
        nl.add_gate("ff", GateKind::Dff, [z], q).unwrap();
        nl.add_primary_output(q).unwrap();
        let out = decompose_wide_gates(&nl, 3);
        out.validate().unwrap();
        assert_eq!(out.n_signals(), nl.n_signals() + 2);
        let tail: Vec<_> = out.gates().skip(out.n_gates() - 3).collect();
        assert_eq!(tail[0].name(), "big");
        assert_eq!(tail[0].kind(), GateKind::Nor);
        assert_eq!(tail[1].name(), "l");
        assert_eq!(tail[1].cover().collect::<Vec<_>>(), ["1- 1", "-1 1"]);
        assert_eq!(tail[1].inputs(), [y, ins[0]]);
        assert_eq!(tail[2].kind(), GateKind::Dff);
        assert_eq!(out.primary_outputs(), [q]);
    }
}
