//! Property tests for the hypergraph primitives: bit vectors, adjacency
//! matrices and the replication potential.
//!
//! Hand-rolled generators over `netpart-rng`: each property draws
//! [`CASES`] cases from its own fixed stream, one case seed per case,
//! and every assertion message names that seed, so a failure is a
//! one-integer reproducer (`Rng::seed_from_u64(seed)` redraws the case).

use netpart_hypergraph::{AdjacencyMatrix, BitVec};
use netpart_rng::Rng;

/// Cases per property.
const CASES: usize = 256;

/// The per-case generators of property `stream`, each paired with the
/// seed that redraws it.
fn cases(stream: u64) -> impl Iterator<Item = (u64, Rng)> {
    let mut seeds = Rng::seed_from_u64(stream);
    (0..CASES).map(move |_| {
        let seed = seeds.next_u64();
        (seed, Rng::seed_from_u64(seed))
    })
}

/// A random bit vector of length `1..max_len`.
fn bits(rng: &mut Rng, max_len: usize) -> Vec<bool> {
    let len = 1 + rng.gen_range(0..max_len - 1);
    (0..len).map(|_| rng.gen_bool(0.5)).collect()
}

/// `1..max_rows` random rows of `bits(max_len)`, cut to a common width.
fn rows(rng: &mut Rng, max_rows: usize, max_len: usize) -> Vec<Vec<bool>> {
    let m = 1 + rng.gen_range(0..max_rows - 1);
    let rows: Vec<Vec<bool>> = (0..m).map(|_| bits(rng, max_len)).collect();
    let n = rows.iter().map(Vec::len).min().unwrap_or(0);
    rows.into_iter().map(|r| r[..n].to_vec()).collect()
}

/// BitVec operations agree with a naive `Vec<bool>` model.
#[test]
fn bitvec_matches_bool_model() {
    for (seed, mut rng) in cases(1) {
        let (a, b) = (bits(&mut rng, 200), bits(&mut rng, 200));
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let va = BitVec::from_bools(a);
        let vb = BitVec::from_bools(b);
        assert_eq!(va.norm(), a.iter().filter(|&&x| x).count(), "case {seed}");
        let and = va.and(&vb);
        let or = va.or(&vb);
        let not = va.complement();
        for i in 0..n {
            assert_eq!(and.get(i), a[i] && b[i], "case {seed} bit {i}");
            assert_eq!(or.get(i), a[i] || b[i], "case {seed} bit {i}");
            assert_eq!(not.get(i), !a[i], "case {seed} bit {i}");
        }
        assert_eq!(
            va.intersects(&vb),
            a.iter().zip(b).any(|(&x, &y)| x && y),
            "case {seed}"
        );
        assert_eq!(
            va.iter_ones().collect::<Vec<_>>(),
            (0..n).filter(|&i| a[i]).collect::<Vec<_>>(),
            "case {seed}"
        );
        // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b.
        assert_eq!(
            va.and(&vb).complement(),
            va.complement().or(&vb.complement()),
            "case {seed}"
        );
    }
}

/// `or_assign` equals `or`.
#[test]
fn or_assign_equals_or() {
    for (seed, mut rng) in cases(2) {
        let (a, b) = (bits(&mut rng, 100), bits(&mut rng, 100));
        let n = a.len().min(b.len());
        let va = BitVec::from_bools(&a[..n]);
        let vb = BitVec::from_bools(&b[..n]);
        let mut acc = va.clone();
        acc.or_assign(&vb);
        assert_eq!(acc, va.or(&vb), "case {seed}");
    }
}

/// The replication potential ψ (eq. 4) equals the naive count of inputs
/// controlling exactly one output, and is bounded by the input count.
#[test]
fn psi_matches_naive_count() {
    for (seed, mut rng) in cases(3) {
        let rows = rows(&mut rng, 5, 24);
        let n = rows[0].len();
        let adj = AdjacencyMatrix::from_bitvec_rows(
            n,
            rows.iter().map(|r| BitVec::from_bools(r)).collect(),
        );
        let naive = if rows.len() <= 1 {
            0
        } else {
            (0..n)
                .filter(|&j| rows.iter().filter(|r| r[j]).count() == 1)
                .count()
        };
        assert_eq!(adj.replication_potential(), naive, "case {seed}");
        assert!(adj.replication_potential() <= n, "case {seed}");
    }
}

/// `support_of_mask` is the union of the selected rows; global inputs
/// are exactly the zero columns.
#[test]
fn support_union_and_globals() {
    for (seed, mut rng) in cases(4) {
        let rows = rows(&mut rng, 4, 16);
        let mask = rng.next_u64() as u32;
        let (m, n) = (rows.len(), rows[0].len());
        let adj = AdjacencyMatrix::from_bitvec_rows(
            n,
            rows.iter().map(|r| BitVec::from_bools(r)).collect(),
        );
        let mask = mask & ((1u32 << m) - 1);
        let sup = adj.support_of_mask(mask);
        for j in 0..n {
            let want = (0..m).any(|o| mask & (1 << o) != 0 && rows[o][j]);
            assert_eq!(sup.get(j), want, "case {seed} input {j}");
            assert_eq!(
                adj.is_global_input(j),
                rows.iter().all(|r| !r[j]),
                "case {seed} input {j}"
            );
        }
    }
}

/// `input_mask` is column `j` as an output mask: zero exactly on global
/// inputs, and it meets an output mask exactly when `support_of_mask`
/// holds the input — for every input and every mask.
#[test]
fn input_mask_matches_support_of_mask() {
    for (seed, mut rng) in cases(5) {
        let rows = rows(&mut rng, 7, 16);
        let (m, n) = (rows.len(), rows[0].len());
        let adj = AdjacencyMatrix::from_bitvec_rows(
            n,
            rows.iter().map(|r| BitVec::from_bools(r)).collect(),
        );
        for mask in 0..1u32 << m {
            let sup = adj.support_of_mask(mask);
            for j in 0..n {
                let dep = adj.input_mask(j);
                assert_eq!(dep == 0, adj.is_global_input(j), "case {seed} input {j}");
                assert_eq!(
                    dep & mask != 0,
                    sup.get(j),
                    "case {seed} input {j} mask {mask:#b}"
                );
            }
        }
    }
}
