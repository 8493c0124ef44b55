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
/// candidates are visited cannot change the winner; [`HubScan`] finds it
/// without walking the longest reader list.
fn pair_units(cfg: &MapperConfig, n_signals: usize, units: &[PackUnit]) -> Vec<Option<usize>> {
    let mut scan = HubScan::new(n_signals, units);
    pair_with(cfg, units, |i, partner| scan.best(cfg, units, i, partner))
}

/// Whether units `a` and `b`, with `merged` distinct inputs together,
/// fit one CLB.
fn fits(cfg: &MapperConfig, a: &PackUnit, b: &PackUnit, merged: usize) -> bool {
    a.dffs + b.dffs <= cfg.max_dffs
        && !(a.ext && b.ext) // only one DIN pin per CLB
        && merged <= cfg.max_inputs
}

/// The pairing loop: `affine(i, partner)` picks the partner of an
/// affinity-driven unit `i` given the pairing so far.
fn pair_with(
    cfg: &MapperConfig,
    units: &[PackUnit],
    mut affine: impl FnMut(usize, &[Option<usize>]) -> Option<usize>,
) -> Vec<Option<usize>> {
    let n = units.len();
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
        let fits_union = |j: usize| {
            let merged = union_len(units[i].support, units[j].support);
            fits(cfg, &units[i], &units[j], merged)
        };
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
            affine(i, &partner)
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

/// Pairing classes: units with the same flip-flop count (0 or 1) and
/// DIN use pass or fail [`fits`] together, except through their merged
/// input count.
const CLASSES: usize = 4;

fn class(u: &PackUnit) -> usize {
    usize::from(u.ext) * 2 + u.dffs
}

/// The affinity partner search.
///
/// A hub signal read by thousands of units would make every one of its
/// readers walk the hub's whole reader list. So for unit `i` the list of
/// its *hub* — the input with the longest reader list — is not walked:
/// - every other input's list is walked, counting in `shared[j]` the
///   inputs each unpaired `j` shares with `i` there (the *touched*
///   units); a touched `j` that also reads the hub, found by binary
///   search in its sorted support, shares one more;
/// - an untouched unpaired reader of the hub shares exactly one input,
///   so among those the key prefers the fewest merged inputs — the
///   shortest support — then the lowest id. Each list is kept per
///   pairing class in (support length, id) order, and within a class
///   feasibility depends only on the merged input count, so the first
///   unpaired entry of each class segment decides that class.
///
/// The first entry may be touched; its key here (one shared input) is
/// then too low, but its exact key, already ranked, shares at least two
/// inputs and beats every one-input candidate. The best of the touched
/// best and the class winners is therefore the exact winner of the full
/// scan.
struct HubScan {
    /// Segment `s * CLASSES + c` lists signal `s`'s readers of class
    /// `c`: `readers[start[g]..start[g] + live[g]]`, in (support length,
    /// id) order. Paired units are removed lazily, the next time a
    /// segment is walked; `head[g]` skips the paired prefix of a
    /// segment scanned on a hub and is reset by every walk.
    start: Vec<u32>,
    live: Vec<u32>,
    head: Vec<u32>,
    readers: Vec<u32>,
    /// `shared[j]`: inputs unit `j` shares with the unit being paired,
    /// outside its hub; reset through `touched`.
    shared: Vec<u32>,
    touched: Vec<usize>,
}

impl HubScan {
    fn new(n_signals: usize, units: &[PackUnit]) -> Self {
        // A count never exceeds the paired unit's support length, so the
        // longest support bounds the counter (and the unit ids fit too).
        let longest = units.iter().map(|u| u.support.len()).max().unwrap_or(0);
        assert!(
            u32::try_from(longest.max(units.len())).is_ok(),
            "a {longest}-signal unit support overflows the shared-input counter"
        );
        assert!(
            units.iter().all(|u| u.dffs <= 1),
            "a packing unit holds at most one flip-flop"
        );
        let mut start = vec![0u32; n_signals * CLASSES + 1];
        for u in units {
            debug_assert!(u.support.windows(2).all(|w| w[0] < w[1]));
            for s in u.support {
                start[s.index() * CLASSES + class(u) + 1] += 1;
            }
        }
        for g in 1..start.len() {
            start[g] += start[g - 1];
        }
        let live: Vec<u32> = start.windows(2).map(|w| w[1] - w[0]).collect();
        let mut by_len: Vec<u32> = (0..units.len() as u32).collect();
        by_len.sort_by_key(|&u| units[u as usize].support.len()); // stable: ids ascend
        let mut fill = start.clone();
        let mut readers = vec![0u32; *start.last().unwrap_or(&0) as usize];
        for u in by_len {
            let unit = &units[u as usize];
            for s in unit.support {
                let g = s.index() * CLASSES + class(unit);
                readers[fill[g] as usize] = u;
                fill[g] += 1;
            }
        }
        HubScan {
            start,
            head: vec![0; live.len()],
            live,
            readers,
            shared: vec![0; units.len()],
            touched: Vec::new(),
        }
    }

    /// How many units read `s` (the static count, paired ones included).
    fn list_len(&self, s: SignalId) -> u32 {
        self.start[(s.index() + 1) * CLASSES] - self.start[s.index() * CLASSES]
    }

    /// Drops paired units from segment `g`, keeping the order, and
    /// returns the range of the unpaired ones in `readers`.
    fn unpaired(&mut self, g: usize, partner: &[Option<usize>]) -> std::ops::Range<usize> {
        let lo = self.start[g] as usize;
        let mut kept = lo;
        for r in lo..lo + self.live[g] as usize {
            let j = self.readers[r];
            if partner[j as usize].is_none() {
                self.readers[kept] = j;
                kept += 1;
            }
        }
        self.live[g] = (kept - lo) as u32;
        self.head[g] = 0;
        lo..kept
    }

    /// The best feasible unpaired partner of affinity-driven unit `i`
    /// under the (shared, fewest merged, lowest id) key, if any shares
    /// an input with it.
    fn best(
        &mut self,
        cfg: &MapperConfig,
        units: &[PackUnit],
        i: usize,
        partner: &[Option<usize>],
    ) -> Option<usize> {
        let support = units[i].support;
        let mut hub = *support.first()?;
        for &s in support {
            if self.list_len(s) > self.list_len(hub) {
                hub = s;
            }
        }
        for &s in support.iter().filter(|&&s| s != hub) {
            for g in s.index() * CLASSES..(s.index() + 1) * CLASSES {
                for r in self.unpaired(g, partner) {
                    let j = self.readers[r] as usize;
                    if j == i {
                        continue;
                    }
                    if self.shared[j] == 0 {
                        self.touched.push(j);
                    }
                    self.shared[j] += 1;
                }
            }
        }
        let key = |j: usize, shared: usize| {
            let merged = support.len() + units[j].support.len() - shared;
            fits(cfg, &units[i], &units[j], merged)
                .then(|| (shared, cfg.max_inputs - merged, Reverse(j)))
        };
        let mut top = None;
        for &j in &self.touched {
            let on_hub = units[j].support.binary_search(&hub).is_ok();
            top = top.max(key(j, self.shared[j] as usize + usize::from(on_hub)));
        }
        for g in hub.index() * CLASSES..(hub.index() + 1) * CLASSES {
            if let Some(j) = self.first_unpaired(g, i, partner) {
                top = top.max(key(j, 1));
            }
        }
        for j in self.touched.drain(..) {
            self.shared[j] = 0;
        }
        top.map(|(_, _, Reverse(j))| j)
    }

    /// The first unpaired unit other than `i` in segment `g`, advancing
    /// the segment's cursor past its paired prefix.
    fn first_unpaired(&mut self, g: usize, i: usize, partner: &[Option<usize>]) -> Option<usize> {
        let seg = &self.readers[self.start[g] as usize..][..self.live[g] as usize];
        let mut head = self.head[g] as usize;
        while head < seg.len() && partner[seg[head] as usize].is_some() {
            head += 1;
        }
        self.head[g] = head as u32;
        seg[head..]
            .iter()
            .map(|&j| j as usize)
            .find(|&j| j != i && partner[j].is_none())
    }
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
    use super::{fits, pair_units, pair_with, union_len, PackUnit};
    use crate::mapped::{map, MapperConfig, Unit};
    use netpart_netlist::{generate, GeneratorConfig, SignalId};
    use netpart_rng::Rng;
    use std::cmp::Reverse;

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

    /// The brute-force affinity choice: every unpaired unit sharing an
    /// input with `i`, under the same strict key.
    fn oracle(cfg: &MapperConfig, units: &[PackUnit]) -> Vec<Option<usize>> {
        pair_with(cfg, units, |i, partner| {
            (0..units.len())
                .filter(|&j| j != i && partner[j].is_none())
                .filter_map(|j| {
                    let (a, b) = (units[i].support, units[j].support);
                    let merged = union_len(a, b);
                    let shared = a.len() + b.len() - merged;
                    (shared > 0 && fits(cfg, &units[i], &units[j], merged))
                        .then(|| (shared, cfg.max_inputs - merged, Reverse(j)))
                })
                .max()
                .map(|(_, _, Reverse(j))| j)
        })
    }

    /// The hub scan picks exactly the brute-force partner on random unit
    /// sets with planted hub signals, DIN-fed registers and registered
    /// LUTs, across the affinity/density mix and CLB limits.
    #[test]
    fn hub_scan_matches_brute_force_oracle() {
        let mut rng = Rng::seed_from_u64(0x9ac4);
        for case in 0..384 {
            let n_signals = 8 + rng.gen_range(0..80);
            let hubs: Vec<u32> = (0..1 + rng.gen_range(0..3))
                .map(|_| rng.gen_range(0..n_signals) as u32)
                .collect();
            let hub_p = 0.3 + 0.6 * rng.gen_f64();
            let n = 1 + rng.gen_range(0..400);
            let mut supports: Vec<Vec<SignalId>> = Vec::with_capacity(n);
            let mut kinds = Vec::with_capacity(n); // (dffs, ext)
            for _ in 0..n {
                let ext = rng.gen_bool(0.15);
                let len = if ext { 1 } else { rng.gen_range(0..6) };
                let mut sup: Vec<u32> = Vec::with_capacity(len);
                if len > 0 && rng.gen_bool(hub_p) {
                    sup.push(hubs[rng.gen_range(0..hubs.len())]);
                }
                while sup.len() < len {
                    let s = rng.gen_range(0..n_signals) as u32;
                    if !sup.contains(&s) {
                        sup.push(s);
                    }
                }
                sup.sort_unstable();
                supports.push(sup.into_iter().map(SignalId).collect());
                kinds.push((usize::from(ext || rng.gen_bool(0.3)), ext));
            }
            let units: Vec<PackUnit> = supports
                .iter()
                .zip(&kinds)
                .map(|(s, &(dffs, ext))| PackUnit {
                    support: s,
                    dffs,
                    ext,
                })
                .collect();
            let affinity = match case % 4 {
                0 => 1.0,
                1 => 0.0,
                _ => rng.gen_f64(),
            };
            let cfg = MapperConfig {
                max_inputs: 3 + rng.gen_range(0..4),
                max_dffs: 1 + rng.gen_range(0..2),
                pack_seed: rng.next_u64(),
                ..MapperConfig::xc3000()
                    .with_pack_affinity(affinity)
                    .with_pack_window(2 + rng.gen_range(0..40))
            };
            let (got, want) = (pair_units(&cfg, n_signals, &units), oracle(&cfg, &units));
            if let Some(i) = (0..n).find(|&i| got[i] != want[i]) {
                panic!(
                    "case {case}: unit {i} paired with {:?}, oracle {:?} \
                     ({n} units over {n_signals} signals, hubs {hubs:?}, {cfg:?})",
                    got[i], want[i]
                );
            }
        }
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
