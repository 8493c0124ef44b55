//! Pinned ingest bytes: BLIF text → parsed `Netlist` → decomposed
//! `Netlist` → mapped hypergraph.
//!
//! Three digests per input, recorded before the netlist moved to flat
//! arenas and must not move:
//! - the engine's FNV `ContentHash` of the parsed netlist (the `serve`
//!   result cache keys on content hashes, so a reordered signal or a
//!   re-spaced cover row would silently invalidate every cached entry);
//! - the same hash of the netlist after `decompose_wide_gates(_, 5)`;
//! - `circuit_digest` of the hypergraph `map` + `to_hypergraph` emit.
//!
//! A fourth case pins the decomposition trees themselves: BLIF input is
//! all `.names` covers, so only a generated netlist with wide AND/OR
//! gates exercises the tree builder.

use netpart::netlist::bench_suite;
use netpart::prelude::*;
use netpart::verify::circuit_digest;

/// A hand-written BLIF with every lexical feature the parser handles:
/// `\` continuations (inside a directive and inside a cover row), `#`
/// comments (whole-line and trailing), blank lines, `.latch` with and
/// without the optional fields, a constant `.names`, a `.names` whose
/// output reads nothing and a primary output that is only a latch.
const HAND_BLIF: &str = "\
# hand-written ingest fixture
.model hand   # trailing comment

.inputs a b \\
  c d
.outputs y q \\
z
.names a b \\
  w
11 1
.names w c d y
1-1 1
-11 \\
 1
.names k
1
.names k d z
11 1
.names a dangling   # reads a, feeds nothing
0 1
.latch y q re clk 0
.latch z r
.end
";

/// `(parsed ContentHash, decomposed ContentHash, circuit_digest)`.
fn digests(blif: &str) -> (u64, u64, u64) {
    let nl = parse_blif(blif).expect("fixture parses");
    nl.validate().expect("fixture is valid");
    let parsed = nl.content_hash();
    let nl = decompose_wide_gates(&nl, 5);
    let decomposed = nl.content_hash();
    let hg = map(&nl, &MapperConfig::xc3000())
        .expect("fixture maps")
        .to_hypergraph(&nl);
    (parsed, decomposed, circuit_digest(&hg))
}

fn check(what: &str, blif: &str, want: (u64, u64, u64)) {
    let got = digests(blif);
    assert_eq!(
        got, want,
        "{what}: got ({:#018x}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
}

#[test]
fn hub_heavy_rent_ingest_is_pinned() {
    let nl = generate(
        &GeneratorConfig::new(10_000)
            .with_dff(500)
            .with_rent(0.65)
            .with_seed(42),
    );
    check(
        "rent10k",
        &write_blif(&nl),
        (
            0xdfc2_63f3_9aab_5631,
            0xdfc2_63f3_9aab_5631,
            0xf1a0_a813_d79c_189e,
        ),
    );
}

#[test]
fn suite_circuit_ingest_is_pinned() {
    let nl = bench_suite::build_scaled("s5378", 2).expect("suite circuit");
    check(
        "s5378/2",
        &write_blif(&nl),
        (
            0x1962_7691_7e82_bff5,
            0x1962_7691_7e82_bff5,
            0x6004_4862_f142_8e88,
        ),
    );
}

#[test]
fn hand_written_blif_ingest_is_pinned() {
    check(
        "hand",
        HAND_BLIF,
        (
            0x2778_6b97_e6f5_f78f,
            0x2778_6b97_e6f5_f78f,
            0x1045_aec6_564c_2326,
        ),
    );
}

/// A netlist with wide AND/OR/NAND/NOR gates between narrow ones, so
/// the decomposed copy interleaves tree stages with copied gates.
fn wide_netlist() -> Netlist {
    let mut nl = Netlist::new("wide");
    let mut pool: Vec<_> = (0..40)
        .map(|i| nl.add_primary_input(format!("i{i}")).expect("fresh name"))
        .collect();
    let states: Vec<_> = (0..8)
        .map(|i| nl.add_signal(format!("st{i}")).expect("fresh name"))
        .collect();
    pool.extend(&states);
    let mut x: u64 = 17;
    for g in 0..400usize {
        let width = if g % 7 == 3 { 6 + g % 11 } else { 2 + g % 3 };
        let mut inputs = Vec::with_capacity(width);
        while inputs.len() < width {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let back = 1 + (x >> 33) as usize % 60;
            let s = pool[pool.len().saturating_sub(back)];
            if !inputs.contains(&s) {
                inputs.push(s);
            }
        }
        let out = nl.add_signal(format!("w{g}")).expect("fresh name");
        let kind = match g % 4 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            _ => GateKind::Nor,
        };
        nl.add_gate(format!("g{g}"), kind, inputs, out)
            .expect("gate is valid");
        pool.push(out);
    }
    for (i, &q) in states.iter().enumerate() {
        let d = pool[pool.len() - 1 - 3 * i];
        nl.add_gate(format!("ff{i}"), GateKind::Dff, vec![d], q)
            .expect("state is undriven");
    }
    for &s in &pool[pool.len() - 20..] {
        nl.add_primary_output(s).expect("signal exists");
    }
    nl.validate().expect("fixture is valid");
    nl
}

#[test]
fn wide_gate_decomposition_is_pinned() {
    let nl = wide_netlist();
    let before = nl.content_hash();
    let out = decompose_wide_gates(&nl, 5);
    assert!(out.n_gates() > nl.n_gates(), "no gate was decomposed");
    let hg = map(&out, &MapperConfig::xc3000())
        .expect("decomposed netlist maps")
        .to_hypergraph(&out);
    let got = (before, out.content_hash(), circuit_digest(&hg));
    let want = (
        0xb710_e89a_a386_1e57,
        0xaa36_248d_0bb1_4751,
        0x7785_669c_4cab_e1a6,
    );
    assert_eq!(
        got, want,
        "wide: got ({:#018x}, {:#018x}, {:#018x})",
        got.0, got.1, got.2
    );
}
