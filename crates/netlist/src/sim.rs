//! Two-valued logic simulation.
//!
//! Used by the test-suite to check *semantic* properties the structural
//! checks cannot: BLIF covers written by [`write_blif`](crate::write_blif)
//! evaluate like the primitive gates they encode, and transformations
//! such as [`decompose_wide_gates`](../fn.decompose_wide_gates.html)
//! preserve circuit behaviour.

use crate::analysis::topo_order;
use crate::model::{Gate, GateKind, Netlist, NetlistError, SignalId};

/// A simulation trace: primary-output values per cycle.
pub type Trace = Vec<Vec<bool>>;

/// Evaluates a BLIF cover (rows of `<pattern> <value>`) on inputs.
///
/// A cover with no rows is constant 0; a row whose pattern matches sets
/// the output to the row's value (standard BLIF single-phase semantics:
/// all rows carry the same output phase; we honour `1` rows as ON-set and
/// `0` rows as OFF-set complement).
fn eval_cover<'a>(cover: impl Iterator<Item = &'a str>, inputs: &[bool]) -> bool {
    let mut on_phase = true;
    let mut matched = false;
    for row in cover {
        let mut parts = row.split_whitespace();
        let (pattern, value) = match (parts.next(), parts.next()) {
            (Some(p), Some(v)) => (p, v),
            (Some(v), None) if inputs.is_empty() => ("", v),
            _ => continue,
        };
        if pattern.len() != inputs.len() {
            continue;
        }
        let hit = pattern.chars().zip(inputs).all(|(c, &x)| match c {
            '0' => !x,
            '1' => x,
            _ => true, // '-'
        });
        on_phase = value != "0";
        if hit {
            matched = true;
        }
    }
    if on_phase {
        matched
    } else {
        !matched
    }
}

/// Evaluates one gate.
fn eval_gate(gate: Gate<'_>, inputs: &[bool]) -> bool {
    match gate.kind() {
        GateKind::Buf => inputs[0],
        GateKind::Not => !inputs[0],
        GateKind::And => inputs.iter().all(|&x| x),
        GateKind::Nand => !inputs.iter().all(|&x| x),
        GateKind::Or => inputs.iter().any(|&x| x),
        GateKind::Nor => !inputs.iter().any(|&x| x),
        GateKind::Xor => inputs[0] ^ inputs[1],
        GateKind::Xnor => !(inputs[0] ^ inputs[1]),
        GateKind::Lut => eval_cover(gate.cover(), inputs),
        GateKind::Dff => unreachable!("DFFs are evaluated at clock edges"),
    }
}

/// Simulates `nl` for `stimuli.len()` clock cycles.
///
/// `stimuli[c]` holds the primary-input values of cycle `c` (in
/// [`Netlist::primary_inputs`] order); flip-flops start at 0 and update
/// on every cycle boundary. Returns the primary-output values per cycle.
///
/// # Errors
///
/// Returns an error if the combinational logic is cyclic or a stimulus
/// vector has the wrong width.
pub fn simulate(nl: &Netlist, stimuli: &[Vec<bool>]) -> Result<Trace, NetlistError> {
    let order = topo_order(nl)?;
    let n_pi = nl.primary_inputs().len();
    let mut values = vec![false; nl.n_signals()];
    let mut trace = Vec::with_capacity(stimuli.len());
    for cycle in stimuli {
        if cycle.len() != n_pi {
            return Err(NetlistError::UnknownSignal(SignalId(u32::MAX)));
        }
        for (i, &s) in nl.primary_inputs().iter().enumerate() {
            values[s.index()] = cycle[i];
        }
        for &g in &order {
            let gate = nl.gate(g);
            if gate.kind().is_dff() {
                continue;
            }
            let ins: Vec<bool> = gate.inputs().iter().map(|s| values[s.index()]).collect();
            values[gate.output().index()] = eval_gate(gate, &ins);
        }
        trace.push(
            nl.primary_outputs()
                .iter()
                .map(|s| values[s.index()])
                .collect(),
        );
        // Clock edge: every DFF captures its D input.
        let next: Vec<(SignalId, bool)> = nl
            .gates()
            .filter(|g| g.kind().is_dff())
            .map(|g| (g.output(), values[g.inputs()[0].index()]))
            .collect();
        for (q, v) in next {
            values[q.index()] = v;
        }
    }
    Ok(trace)
}

/// Drives both netlists with the same pseudo-random stimuli for
/// `cycles` cycles and reports whether every primary output matched
/// every cycle. The netlists must have the same PI/PO counts (matched by
/// position).
///
/// # Errors
///
/// Returns an error if either netlist fails to simulate.
pub fn equivalent_under_random_stimuli(
    a: &Netlist,
    b: &Netlist,
    cycles: usize,
    seed: u64,
) -> Result<bool, NetlistError> {
    if a.primary_inputs().len() != b.primary_inputs().len()
        || a.primary_outputs().len() != b.primary_outputs().len()
    {
        return Ok(false);
    }
    // xorshift64* keeps this dependency-free and deterministic.
    let mut x = seed | 1;
    let mut bit = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x & 1 == 1
    };
    let stimuli: Vec<Vec<bool>> = (0..cycles)
        .map(|_| (0..a.primary_inputs().len()).map(|_| bit()).collect())
        .collect();
    Ok(simulate(a, &stimuli)? == simulate(b, &stimuli)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blif::{parse_blif, write_blif};
    use crate::generate::{generate, GeneratorConfig};
    use crate::model::Netlist;

    fn stimuli(n_pi: usize, cycles: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut x = seed | 1;
        (0..cycles)
            .map(|_| {
                (0..n_pi)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x & 1 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn half_adder_truth_table() {
        let mut nl = Netlist::new("ha");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let s = nl.add_signal("s").unwrap();
        let c = nl.add_signal("c").unwrap();
        nl.add_gate("x", GateKind::Xor, vec![a, b], s).unwrap();
        nl.add_gate("a1", GateKind::And, vec![a, b], c).unwrap();
        nl.add_primary_output(s).unwrap();
        nl.add_primary_output(c).unwrap();
        let t = simulate(
            &nl,
            &[
                vec![false, false],
                vec![false, true],
                vec![true, false],
                vec![true, true],
            ],
        )
        .unwrap();
        assert_eq!(
            t,
            vec![
                vec![false, false],
                vec![true, false],
                vec![true, false],
                vec![false, true],
            ]
        );
    }

    #[test]
    fn toggle_register_oscillates() {
        // q = DFF(¬q): output toggles 0,1,0,1,…
        let mut nl = Netlist::new("t");
        let q = nl.add_signal("q").unwrap();
        let d = nl.add_signal("d").unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![d], q).unwrap();
        nl.add_gate("inv", GateKind::Not, vec![q], d).unwrap();
        nl.add_primary_output(q).unwrap();
        let t = simulate(&nl, &[vec![], vec![], vec![], vec![]]).unwrap();
        assert_eq!(t, vec![vec![false], vec![true], vec![false], vec![true]]);
    }

    #[test]
    fn blif_roundtrip_is_semantically_equivalent() {
        // The covers `write_blif` emits must compute the same functions
        // when re-parsed as generic LUTs.
        let nl = generate(&GeneratorConfig::new(200).with_dff(12).with_seed(77));
        let back = parse_blif(&write_blif(&nl)).unwrap();
        assert!(equivalent_under_random_stimuli(&nl, &back, 64, 5).unwrap());
    }

    #[test]
    fn decomposition_is_semantically_equivalent() {
        let mut nl = Netlist::new("w");
        let ins: Vec<_> = (0..9)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        nl.add_gate("big", GateKind::Nand, ins.clone(), y).unwrap();
        nl.add_gate("big2", GateKind::Or, ins, z).unwrap();
        nl.add_primary_output(y).unwrap();
        nl.add_primary_output(z).unwrap();
        // decompose_wide_gates lives in netpart-techmap; emulate its
        // contract here by comparing against a manually narrowed tree via
        // the BLIF route: the cover of a 9-input NAND must match.
        let st = stimuli(9, 128, 3);
        let direct = simulate(&nl, &st).unwrap();
        let round = simulate(&parse_blif(&write_blif(&nl)).unwrap(), &st).unwrap();
        assert_eq!(direct, round);
    }

    #[test]
    fn mismatched_interfaces_not_equivalent() {
        let a = generate(&GeneratorConfig::new(50).with_seed(1).with_pi(8));
        let b = generate(&GeneratorConfig::new(50).with_seed(1).with_pi(9));
        assert!(!equivalent_under_random_stimuli(&a, &b, 8, 1).unwrap());
    }

    #[test]
    fn constant_cover_evaluates() {
        let src = ".model t\n.outputs k z\n.names k\n1\n.names z\n.end\n";
        let nl = parse_blif(src).unwrap();
        let t = simulate(&nl, &[vec![]]).unwrap();
        assert_eq!(t, vec![vec![true, false]]);
    }

    #[test]
    fn wrong_stimulus_width_rejected() {
        let nl = generate(&GeneratorConfig::new(20).with_seed(1).with_pi(4));
        assert!(simulate(&nl, &[vec![true; 3]]).is_err());
    }
}
