//! Pinned CLB packing on a hub-heavy Rent circuit.
//!
//! The golden suite tables contain no circuit with a high-fanout hub
//! signal; this one has a signal read by over a thousand mapped units,
//! which is where the packer's shared-input scan does most of its work.
//! The CLB counts and structural digests below were recorded before the
//! packer's reader index was rewritten and must not move.

use netpart::prelude::*;
use netpart::verify::circuit_digest;

#[test]
fn hub_heavy_rent_packing_is_pinned() {
    let nl = generate(
        &GeneratorConfig::new(10_000)
            .with_dff(500)
            .with_rent(0.65)
            .with_seed(42),
    );
    for (affinity, clbs, digest) in [
        (0.0, 5650, 0xc1f0_afd9_63a4_718e_u64),
        (0.85, 5399, 0x4f49_1f17_a670_4296),
        (1.0, 5380, 0x5356_6afa_400c_e6f2),
    ] {
        let m = map(&nl, &MapperConfig::xc3000().with_pack_affinity(affinity))
            .expect("generated circuits map");

        let mut readers = vec![0usize; nl.n_signals()];
        for u in m.clbs.iter().flat_map(|c| &c.units) {
            for s in m.unit_support(&nl, u) {
                readers[s.index()] += 1;
            }
        }
        let hub = readers.iter().copied().max().unwrap_or(0);
        assert!(hub > 1000, "circuit lost its hub signal ({hub} readers)");

        assert_eq!(m.n_clbs(), clbs, "CLB count at affinity {affinity}");
        let got = circuit_digest(&m.to_hypergraph(&nl));
        assert_eq!(got, digest, "digest at affinity {affinity}: {got:#018x}");
    }
}
