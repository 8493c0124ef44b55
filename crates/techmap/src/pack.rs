//! Greedy packing of LUT/register units into multi-output CLBs.

use crate::mapped::{Clb, Mapped, MapperConfig, Unit};
use netpart_netlist::{Netlist, SignalId};
use std::cmp::{Ordering, Reverse};

/// SplitMix64: cheap deterministic per-unit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// What pairing needs to know about one unit.
struct PackUnit<'a> {
    /// External input signals, sorted and distinct.
    support: &'a [SignalId],
    /// Flip-flops the unit uses.
    dffs: usize,
    /// A register fed from outside the CLB through the DIN pin.
    ext: bool,
}

/// Pairs units into CLBs, preferring partners that share input signals
/// (maximising shared inputs minimises the CLB's distinct-input count and
/// produces the spread of replication potentials seen in the paper's
/// Fig. 3).
///
/// Constraints per CLB: at most `max_outputs` units, `max_inputs` distinct
/// input signals, `max_dffs` flip-flops and one externally-fed (DIN)
/// register.
pub(crate) fn pack_units(mapped: &Mapped, nl: &Netlist, units: Vec<Unit>) -> Vec<Clb> {
    let specs: Vec<PackUnit> = units
        .iter()
        .map(|u| PackUnit {
            support: mapped.unit_support(nl, u),
            dffs: mapped.unit_dffs(u),
            ext: matches!(u, Unit::ExtReg { .. }),
        })
        .collect();
    let partner = pair_units(mapped.config(), nl.n_signals(), &specs);

    let n = units.len();
    let mut clbs = Vec::with_capacity(n.div_ceil(2));
    let mut placed = vec![false; n];
    let mut units: Vec<Option<Unit>> = units.into_iter().map(Some).collect();
    for i in 0..n {
        if placed[i] {
            continue;
        }
        placed[i] = true;
        let mut members = vec![units[i].take().expect("unit unplaced")];
        if let Some(j) = partner[i] {
            if !placed[j] {
                placed[j] = true;
                members.push(units[j].take().expect("partner unplaced"));
            }
        }
        clbs.push(Clb { units: members });
    }
    clbs
}

/// Chooses every unit's CLB partner, visiting units in order; `None`
/// leaves a unit alone in its CLB.
///
/// An affinity-driven unit `i` takes the feasible unpaired partner with
/// the most shared inputs, then the fewest merged inputs, then the lowest
/// unit id. That key is a strict total order, so the order in which
/// candidates are visited cannot change the winner.
fn pair_units(cfg: &MapperConfig, n_signals: usize, units: &[PackUnit]) -> Vec<Option<usize>> {
    let n = units.len();
    let fits = |a: usize, b: usize, merged: usize| {
        units[a].dffs + units[b].dffs <= cfg.max_dffs
            && !(units[a].ext && units[b].ext) // only one DIN pin per CLB
            && merged <= cfg.max_inputs
    };

    // Signal index -> units reading it. Paired units are dropped lazily,
    // the next time a list is scanned.
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n_signals];
    for (i, u) in units.iter().enumerate() {
        debug_assert!(u.support.windows(2).all(|w| w[0] < w[1]));
        for &s in u.support {
            readers[s.index()].push(i);
        }
    }

    // shared[j]: inputs unit j shares with the unit being paired, reset
    // through `touched`. A count never exceeds the paired unit's support
    // length, so the longest support bounds the counter.
    let longest = units.iter().map(|u| u.support.len()).max().unwrap_or(0);
    assert!(
        u32::try_from(longest).is_ok(),
        "a {longest}-signal unit support overflows the shared-input counter"
    );
    let mut shared = vec![0u32; n];
    let mut touched: Vec<usize> = Vec::new();

    let mut partner: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if partner[i].is_some() {
            continue;
        }
        // Density-driven vs affinity-driven pairing. Real era mappers
        // (XACT) packed for density, oblivious to any future partition;
        // `pack_affinity` is the probability a unit instead seeks a
        // partner sharing its inputs. The density-packed remainder is
        // precisely what functional replication un-packs across the cut.
        let h = splitmix64(cfg.pack_seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let density_driven = (h % 1_000_000) as f64 / 1_000_000.0 >= cfg.pack_affinity;
        let fits_union = |j: usize| fits(i, j, union_len(units[i].support, units[j].support));
        let mut best = if density_driven {
            // Scan a bounded neighbourhood starting at a pseudo-random
            // offset, ignoring input sharing.
            let w = cfg.pack_window.min(n.saturating_sub(1)).max(1);
            let lo = i.saturating_sub(w);
            let hi = (i + w).min(n - 1);
            let span = hi - lo + 1;
            let start = lo + (h >> 20) as usize % span;
            (0..span)
                .map(|off| lo + (start - lo + off) % span)
                .find(|&j| j != i && partner[j].is_none() && fits_union(j))
        } else {
            // Unit j appears once in the reader list of every input it
            // shares with unit i.
            for &s in units[i].support {
                let list = &mut readers[s.index()];
                list.retain(|&j| partner[j].is_none());
                for &j in list.iter().filter(|&&j| j != i) {
                    if shared[j] == 0 {
                        touched.push(j);
                    }
                    shared[j] += 1;
                }
            }
            let mut top: Option<(u32, usize, Reverse<usize>)> = None;
            for &j in &touched {
                let sh = std::mem::take(&mut shared[j]);
                let merged = units[i].support.len() + units[j].support.len() - sh as usize;
                if fits(i, j, merged) {
                    top = top.max(Some((sh, cfg.max_inputs - merged, Reverse(j))));
                }
            }
            touched.clear();
            top.map(|(_, _, Reverse(j))| j)
        };
        if best.is_none() {
            // Fall back to a bounded forward scan so units without shared
            // signals still pair when their supports fit together.
            best = ((i + 1)..n.min(i + 64)).find(|&j| partner[j].is_none() && fits_union(j));
        }
        if let Some(j) = best {
            partner[i] = Some(j);
            partner[j] = Some(i);
        }
    }
    partner
}

/// The size of `a ∪ b` for sorted, distinct `a` and `b`.
fn union_len(a: &[SignalId], b: &[SignalId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
        n += 1;
    }
    n + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::{pair_units, PackUnit};
    use crate::mapped::{map, MapperConfig, Unit};
    use netpart_netlist::{generate, GeneratorConfig, SignalId};

    fn lut(support: &[SignalId]) -> PackUnit<'_> {
        PackUnit {
            support,
            dffs: 0,
            ext: false,
        }
    }

    fn signals(ids: impl IntoIterator<Item = u32>) -> Vec<SignalId> {
        ids.into_iter().map(SignalId).collect()
    }

    /// A hub signal read by every unit: the partner is the unit with the
    /// most shared inputs, then the fewest merged inputs, then the lowest
    /// id — whichever reader list a candidate was first seen in.
    #[test]
    fn hub_readers_pair_by_shared_then_merged_then_id() {
        let (a, b, c, d, e, f, g, hub) = (0, 1, 2, 3, 4, 5, 6, 9);
        let mut supports = vec![
            signals([a, b, hub]),       // 0
            signals([a, hub]),          // 1: 2 shared with 0, 3 merged
            signals([a, b, c, d, hub]), // 2: 3 shared with 0, 5 merged
            signals([c, hub]),          // 3: 1 shared with 1, 3 merged
            signals([c, d, e, hub]),    // 4: 1 shared with 1, 5 merged
            signals([f, hub]),          // 5: ties with 3, higher id
            signals([a, g]),            // 6: ties with 3, seen before it
        ];
        supports.extend((0..200).map(|k| signals([hub, 10 + k])));
        let units: Vec<PackUnit> = supports.iter().map(|s| lut(s)).collect();
        let cfg = MapperConfig::xc3000().with_pack_affinity(1.0);
        let partner = pair_units(&cfg, 210, &units);
        assert_eq!(
            partner[0],
            Some(2),
            "more shared inputs win over fewer merged"
        );
        assert_eq!(partner[1], Some(3), "fewer merged, then the lowest id, win");
        for (i, p) in partner.iter().enumerate() {
            if let Some(j) = *p {
                assert_eq!(partner[j], Some(i), "pairing is symmetric");
            }
        }
    }

    /// Shared-input counts above `u16::MAX` must not wrap: with a 16-bit
    /// counter unit 2's 70 000 shared inputs would read as 4 464 and lose
    /// to unit 1's 5 000.
    #[test]
    fn shared_counter_holds_wide_supports() {
        let wide = signals(0..70_000);
        let decoy = signals(0..5_000);
        let units = [lut(&wide), lut(&decoy), lut(&wide)];
        let cfg = MapperConfig {
            max_inputs: 70_000,
            ..MapperConfig::xc3000().with_pack_affinity(1.0)
        };
        let partner = pair_units(&cfg, 70_000, &units);
        assert_eq!(partner[0], Some(2));
    }

    #[test]
    fn most_units_get_paired() {
        let nl = generate(&GeneratorConfig::new(600).with_seed(21).with_dff(30));
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        let paired = m.clbs.iter().filter(|c| c.units.len() == 2).count();
        assert!(
            paired * 2 > m.clbs.len(),
            "expected most CLBs to hold two units ({paired}/{})",
            m.clbs.len()
        );
    }

    #[test]
    fn din_constraint_enforced() {
        // A circuit dominated by external registers (DFFs chained off
        // multi-use signals) must still respect the single-DIN rule.
        let nl = generate(&GeneratorConfig::new(150).with_seed(8).with_dff(80));
        let m = map(&nl, &MapperConfig::xc3000()).unwrap();
        for clb in &m.clbs {
            let ext = clb
                .units
                .iter()
                .filter(|u| matches!(u, Unit::ExtReg { .. }))
                .count();
            assert!(ext <= 1);
        }
    }

    #[test]
    fn packing_is_deterministic() {
        let nl = generate(&GeneratorConfig::new(400).with_seed(5).with_dff(20));
        let a = map(&nl, &MapperConfig::xc3000()).unwrap();
        let b = map(&nl, &MapperConfig::xc3000()).unwrap();
        assert_eq!(a.clbs, b.clbs);
    }
}

#[cfg(test)]
mod affinity_tests {
    use crate::mapped::{map, MapperConfig};
    use netpart_netlist::{generate, GeneratorConfig};

    /// Density-driven packing pairs unrelated LUTs, which raises the mean
    /// replication potential ψ (more exclusive inputs per output) — the
    /// effect DESIGN.md §5.5 relies on.
    #[test]
    fn density_packing_raises_replication_potential() {
        let nl = generate(&GeneratorConfig::new(600).with_seed(31).with_dff(30));
        let mean_psi = |affinity: f64| -> f64 {
            let cfg = MapperConfig::xc3000().with_pack_affinity(affinity);
            let hg = map(&nl, &cfg).unwrap().to_hypergraph(&nl);
            let dist = hg.replication_potential_distribution();
            let total: usize = dist.iter().sum();
            dist.iter()
                .enumerate()
                .map(|(psi, &n)| psi as f64 * n as f64)
                .sum::<f64>()
                / total as f64
        };
        let affine = mean_psi(1.0);
        let dense = mean_psi(0.0);
        assert!(
            dense > affine,
            "density packing should raise mean ψ: {dense:.2} vs {affine:.2}"
        );
    }

    /// The affinity knob does not change what is computed — only how
    /// units pair — so CLB count changes little and DFF coverage is
    /// identical.
    #[test]
    fn affinity_preserves_coverage() {
        let nl = generate(&GeneratorConfig::new(400).with_seed(8).with_dff(25));
        for affinity in [0.0, 0.5, 1.0] {
            let cfg = MapperConfig::xc3000().with_pack_affinity(affinity);
            let m = map(&nl, &cfg).unwrap();
            let hg = m.to_hypergraph(&nl);
            assert_eq!(hg.stats().dffs as usize, nl.n_dffs());
            assert_eq!(
                hg.stats().iobs as usize,
                nl.primary_inputs().len() + nl.primary_outputs().len()
            );
        }
    }
}
