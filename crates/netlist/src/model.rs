//! The gate-level logic network model.

use std::collections::hash_map::RandomState;
use std::error::Error;
use std::fmt;
use std::hash::BuildHasher;

/// Identifier of a signal (a wire of the netlist).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub u32);

/// Identifier of a gate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl SignalId {
    /// The signal's index into the netlist's signal table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The gate's index into [`Netlist::gates`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Debug for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The function a gate computes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateKind {
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// A generic single-output lookup table described by BLIF cover rows
    /// (each row is `<input pattern> <output bit>`); the rows are stored
    /// in the netlist and read through [`Gate::cover`].
    Lut,
    /// D flip-flop (1 input: D; clock is implicit).
    Dff,
}

impl GateKind {
    /// Returns `true` for the sequential element.
    pub fn is_dff(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// The valid fan-in range for the kind.
    pub fn arity_range(self) -> (usize, usize) {
        match self {
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, 1),
            GateKind::Xor | GateKind::Xnor => (2, 2),
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => (2, usize::MAX),
            GateKind::Lut => (0, usize::MAX),
        }
    }

    /// A short lowercase mnemonic (`and`, `dff`, `lut`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Lut => "lut",
            GateKind::Dff => "dff",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single-output gate instance: a borrowed view into the arenas of
/// the [`Netlist`] that owns it.
#[derive(Clone, Copy)]
pub struct Gate<'a> {
    nl: &'a Netlist,
    id: GateId,
}

impl<'a> Gate<'a> {
    /// The gate's id.
    pub fn id(self) -> GateId {
        self.id
    }

    /// Instance name.
    pub fn name(self) -> &'a str {
        self.nl.gate_names[self.id.index()].of(&self.nl.gate_text)
    }

    /// Function computed.
    pub fn kind(self) -> GateKind {
        self.nl.kinds[self.id.index()]
    }

    /// Input signals in pin order.
    pub fn inputs(self) -> &'a [SignalId] {
        let g = self.id.index();
        let s = &self.nl.input_start;
        &self.nl.inputs[s[g] as usize..s[g + 1] as usize]
    }

    /// Output signal.
    pub fn output(self) -> SignalId {
        self.nl.outputs[self.id.index()]
    }

    /// The BLIF cover rows of a [`GateKind::Lut`] gate, in source order
    /// (empty for every other kind).
    pub fn cover(self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let g = self.id.index();
        let s = &self.nl.row_start;
        let text = &self.nl.gate_text;
        self.nl.rows[s[g] as usize..s[g + 1] as usize]
            .iter()
            .map(move |r| r.of(text))
    }
}

impl fmt::Debug for Gate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("inputs", &self.inputs())
            .field("output", &self.output())
            .finish()
    }
}

/// What drives a signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Nothing yet (invalid in a validated netlist).
    None,
    /// A primary input.
    PrimaryInput,
    /// The output of a gate.
    Gate(GateId),
}

/// An error raised while mutating or validating a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal id was out of range.
    UnknownSignal(SignalId),
    /// A signal already has a driver.
    SignalAlreadyDriven(SignalId),
    /// A signal has no driver.
    UndrivenSignal(SignalId),
    /// A gate's fan-in count is invalid for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// The fan-in count supplied.
        got: usize,
    },
    /// A gate lists the same signal twice among its inputs.
    DuplicateInput(GateId),
    /// The combinational part of the network contains a cycle.
    CombinationalCycle,
    /// Two signals share a name.
    DuplicateSignalName(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownSignal(s) => write!(f, "unknown signal {s:?}"),
            NetlistError::SignalAlreadyDriven(s) => write!(f, "signal {s:?} already driven"),
            NetlistError::UndrivenSignal(s) => write!(f, "signal {s:?} has no driver"),
            NetlistError::BadArity { gate, got } => {
                write!(f, "gate {gate:?} has invalid fan-in {got}")
            }
            NetlistError::DuplicateInput(g) => write!(f, "gate {g:?} lists an input twice"),
            NetlistError::CombinationalCycle => write!(f, "combinational cycle detected"),
            NetlistError::DuplicateSignalName(n) => write!(f, "duplicate signal name {n:?}"),
        }
    }
}

impl Error for NetlistError {}

/// A byte range of one of the netlist's text arenas.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of(self, text: &str) -> &str {
        &text[self.start as usize..self.end as usize]
    }
}

/// An arena offset as `u32`, the width every offset table uses.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("netlist arena exceeds 4 GiB")
}

/// Appends `parts` to `text` and returns the span they occupy.
fn push_text(text: &mut String, parts: &[&str]) -> Span {
    let start = offset(text.len());
    for p in parts {
        text.push_str(p);
    }
    Span {
        start,
        end: offset(text.len()),
    }
}

/// The slot marker of an empty [`NameIndex`] entry.
const FREE: u32 = u32::MAX;

/// Name → signal lookup: an open-addressing table (linear probing,
/// load ≤ 1/2) of `(signal id, name hash)` slots. It stores no name;
/// a probe compares against the netlist's name arena. Names come from
/// outside the program, so the hash is std's randomly keyed one: no
/// input can be crafted to collide. Ids do not depend on the key.
#[derive(Clone, Debug, Default)]
struct NameIndex {
    /// Empty or a power of two long; `FREE` ids mark empty slots.
    slots: Vec<(u32, u32)>,
    keys: RandomState,
}

impl NameIndex {
    /// The high half of `name`'s keyed 64-bit hash.
    fn hash(&self, name: &str) -> u32 {
        (self.keys.hash_one(name) >> 32) as u32
    }

    /// Finds `name`: `Ok(id)` if present, else `Err(slot)` with the free
    /// slot where it belongs. The table must not be empty.
    fn probe(&self, name: &str, hash: u32, names: &str, start: &[u32]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (id, h) = self.slots[i];
            if id == FREE {
                return Err(i);
            }
            let (lo, hi) = (start[id as usize] as usize, start[id as usize + 1] as usize);
            if h == hash && &names[lo..hi] == name {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Makes room for one more entry beyond `len`, rehashing from the
    /// stored hashes when the table would pass half full.
    fn reserve_one(&mut self, len: usize) {
        if (len + 1) * 2 <= self.slots.len() {
            return;
        }
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(FREE, 0); cap]);
        let mask = cap - 1;
        for (id, h) in old.into_iter().filter(|&(id, _)| id != FREE) {
            let mut i = h as usize & mask;
            while self.slots[i].0 != FREE {
                i = (i + 1) & mask;
            }
            self.slots[i] = (id, h);
        }
    }
}

/// For every signal, the gates reading it in ascending gate order, as
/// one compressed sparse row array.
#[derive(Clone, Debug)]
pub struct FanoutIndex {
    start: Vec<u32>,
    readers: Vec<GateId>,
}

impl FanoutIndex {
    /// The gates reading `signal`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn readers(&self, signal: SignalId) -> &[GateId] {
        let s = signal.index();
        &self.readers[self.start[s] as usize..self.start[s + 1] as usize]
    }
}

/// A gate-level logic network.
///
/// Signals are single-driver wires; gates are single-output. D flip-flops
/// are gates of kind [`GateKind::Dff`]; their clock is implicit (one global
/// clock domain, as in the ISCAS'89 benchmarks).
///
/// Storage is struct-of-arrays: signal names back to back in one
/// string arena (the name index stores ids, not copies), gate names and
/// cover rows in a second one, gate inputs in one flat array with
/// offsets. A netlist of any size is a fixed handful of allocations,
/// and [`Gate`] is a borrowed view into them.
///
/// # Examples
///
/// ```
/// use netpart_netlist::{GateKind, Netlist};
///
/// # fn main() -> Result<(), netpart_netlist::NetlistError> {
/// let mut nl = Netlist::new("half_adder");
/// let a = nl.add_primary_input("a")?;
/// let b = nl.add_primary_input("b")?;
/// let sum = nl.add_signal("sum")?;
/// let carry = nl.add_signal("carry")?;
/// nl.add_gate("x1", GateKind::Xor, [a, b], sum)?;
/// nl.add_gate("a1", GateKind::And, [a, b], carry)?;
/// nl.add_primary_output(sum)?;
/// nl.add_primary_output(carry)?;
/// nl.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    /// Signal names back to back: signal `s` is
    /// `names[name_start[s]..name_start[s + 1]]`.
    names: String,
    name_start: Vec<u32>,
    index: NameIndex,
    drivers: Vec<Driver>,
    /// Gate names and cover rows, appended gate by gate.
    gate_text: String,
    gate_names: Vec<Span>,
    kinds: Vec<GateKind>,
    outputs: Vec<SignalId>,
    /// Gate `g` reads `inputs[input_start[g]..input_start[g + 1]]`.
    input_start: Vec<u32>,
    inputs: Vec<SignalId>,
    /// Gate `g`'s cover rows are `rows[row_start[g]..row_start[g + 1]]`.
    row_start: Vec<u32>,
    rows: Vec<Span>,
    primary_inputs: Vec<SignalId>,
    primary_outputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates an empty netlist with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            names: String::new(),
            name_start: vec![0],
            index: NameIndex::default(),
            drivers: Vec::new(),
            gate_text: String::new(),
            gate_names: Vec::new(),
            kinds: Vec::new(),
            outputs: Vec::new(),
            input_start: vec![0],
            inputs: Vec::new(),
            row_start: vec![0],
            rows: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// `Ok` with the signal named `name`, else `Err` with the index slot
    /// and hash to insert it under — one probe either way.
    fn find_or_slot(&mut self, name: &str) -> Result<SignalId, (usize, u32)> {
        self.index.reserve_one(self.drivers.len());
        let hash = self.index.hash(name);
        self.index
            .probe(name, hash, &self.names, &self.name_start)
            .map(SignalId)
            .map_err(|slot| (slot, hash))
    }

    fn push_signal(&mut self, name: &str, (slot, hash): (usize, u32)) -> SignalId {
        let id = SignalId(offset(self.drivers.len()));
        self.names.push_str(name);
        self.name_start.push(offset(self.names.len()));
        self.drivers.push(Driver::None);
        self.index.slots[slot] = (id.0, hash);
        id
    }

    /// The signal named `name`, added (undriven) if it does not exist.
    pub(crate) fn intern(&mut self, name: &str) -> SignalId {
        match self.find_or_slot(name) {
            Ok(s) => s,
            Err(slot) => self.push_signal(name, slot),
        }
    }

    /// Adds a fresh signal.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken.
    pub fn add_signal(&mut self, name: impl AsRef<str>) -> Result<SignalId, NetlistError> {
        let name = name.as_ref();
        match self.find_or_slot(name) {
            Ok(_) => Err(NetlistError::DuplicateSignalName(name.to_string())),
            Err(slot) => Ok(self.push_signal(name, slot)),
        }
    }

    /// Adds a signal driven by a primary input.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is already taken.
    pub fn add_primary_input(&mut self, name: impl AsRef<str>) -> Result<SignalId, NetlistError> {
        let id = self.add_signal(name)?;
        self.drivers[id.index()] = Driver::PrimaryInput;
        self.primary_inputs.push(id);
        Ok(id)
    }

    /// Marks an existing signal as a primary output.
    ///
    /// # Errors
    ///
    /// Returns an error if the signal does not exist.
    pub fn add_primary_output(&mut self, signal: SignalId) -> Result<(), NetlistError> {
        self.check_signal(signal)?;
        self.primary_outputs.push(signal);
        Ok(())
    }

    /// Adds a gate driving `output` from `inputs`. A [`GateKind::Lut`]
    /// added this way has no cover rows (constant 0); use
    /// [`add_lut`](Self::add_lut) to give it some.
    ///
    /// # Errors
    ///
    /// Returns an error if a signal is unknown, the fan-in count is
    /// invalid for `kind`, an input repeats or the output is already
    /// driven (checked in that order).
    pub fn add_gate(
        &mut self,
        name: impl AsRef<str>,
        kind: GateKind,
        inputs: impl AsRef<[SignalId]>,
        output: SignalId,
    ) -> Result<GateId, NetlistError> {
        self.push_gate::<&str>(&[name.as_ref()], kind, &[], inputs.as_ref(), output)
    }

    /// Adds a [`GateKind::Lut`] gate with the given BLIF cover rows.
    ///
    /// # Errors
    ///
    /// As [`add_gate`](Self::add_gate).
    pub fn add_lut<R: AsRef<str>>(
        &mut self,
        name: impl AsRef<str>,
        cover: &[R],
        inputs: impl AsRef<[SignalId]>,
        output: SignalId,
    ) -> Result<GateId, NetlistError> {
        self.push_gate(
            &[name.as_ref()],
            GateKind::Lut,
            cover,
            inputs.as_ref(),
            output,
        )
    }

    /// Adds a gate named by the concatenation of `name`'s parts.
    pub(crate) fn push_gate<R: AsRef<str>>(
        &mut self,
        name: &[&str],
        kind: GateKind,
        cover: &[R],
        inputs: &[SignalId],
        output: SignalId,
    ) -> Result<GateId, NetlistError> {
        self.check_signal(output)?;
        for &i in inputs {
            self.check_signal(i)?;
        }
        let id = GateId(offset(self.kinds.len()));
        let (lo, hi) = kind.arity_range();
        if inputs.len() < lo || inputs.len() > hi {
            return Err(NetlistError::BadArity {
                gate: id,
                got: inputs.len(),
            });
        }
        if has_duplicate(inputs) {
            return Err(NetlistError::DuplicateInput(id));
        }
        if self.drivers[output.index()] != Driver::None {
            return Err(NetlistError::SignalAlreadyDriven(output));
        }
        self.drivers[output.index()] = Driver::Gate(id);
        self.gate_names.push(push_text(&mut self.gate_text, name));
        self.kinds.push(kind);
        self.outputs.push(output);
        self.inputs.extend_from_slice(inputs);
        self.input_start.push(offset(self.inputs.len()));
        for row in cover {
            let span = push_text(&mut self.gate_text, &[row.as_ref()]);
            self.rows.push(span);
        }
        self.row_start.push(offset(self.rows.len()));
        Ok(id)
    }

    /// Removes every gate with id `n` or higher; their output signals
    /// become undriven again. Signals are kept.
    pub fn truncate_gates(&mut self, n: usize) {
        if n >= self.kinds.len() {
            return;
        }
        for &o in &self.outputs[n..] {
            self.drivers[o.index()] = Driver::None;
        }
        self.gate_text.truncate(self.gate_names[n].start as usize);
        self.gate_names.truncate(n);
        self.kinds.truncate(n);
        self.outputs.truncate(n);
        self.inputs.truncate(self.input_start[n] as usize);
        self.input_start.truncate(n + 1);
        self.rows.truncate(self.row_start[n] as usize);
        self.row_start.truncate(n + 1);
    }

    /// The gates in id order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = Gate<'_>> + '_ {
        self.gate_ids().map(move |id| Gate { nl: self, id })
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        assert!(id.index() < self.kinds.len(), "gate {id:?} out of range");
        Gate { nl: self, id }
    }

    /// Number of signals.
    pub fn n_signals(&self) -> usize {
        self.drivers.len()
    }

    /// Number of gates (including DFFs).
    pub fn n_gates(&self) -> usize {
        self.kinds.len()
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn signal_name(&self, s: SignalId) -> &str {
        let i = s.index();
        &self.names[self.name_start[i] as usize..self.name_start[i + 1] as usize]
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        if self.index.slots.is_empty() {
            return None;
        }
        self.index
            .probe(name, self.index.hash(name), &self.names, &self.name_start)
            .ok()
            .map(SignalId)
    }

    /// What drives `signal`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn driver(&self, signal: SignalId) -> Driver {
        self.drivers[signal.index()]
    }

    /// The primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[SignalId] {
        &self.primary_inputs
    }

    /// The primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[SignalId] {
        &self.primary_outputs
    }

    /// Iterates over gate ids in ascending order.
    pub fn gate_ids(&self) -> impl ExactSizeIterator<Item = GateId> {
        (0..self.kinds.len() as u32).map(GateId)
    }

    /// Iterates over signal ids in ascending order.
    pub fn signal_ids(&self) -> impl ExactSizeIterator<Item = SignalId> {
        (0..self.drivers.len() as u32).map(SignalId)
    }

    /// Number of D flip-flops.
    pub fn n_dffs(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_dff()).count()
    }

    /// Builds, for every signal, the list of gates reading it.
    pub fn fanout_index(&self) -> FanoutIndex {
        let mut start = vec![0u32; self.drivers.len() + 1];
        for s in &self.inputs {
            start[s.index() + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut readers = vec![GateId(0); self.inputs.len()];
        for g in 0..self.kinds.len() {
            for s in &self.inputs[self.input_start[g] as usize..self.input_start[g + 1] as usize] {
                let at = &mut fill[s.index()];
                readers[*at as usize] = GateId(g as u32);
                *at += 1;
            }
        }
        FanoutIndex { start, readers }
    }

    /// Checks that every signal is driven and the combinational part is
    /// acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.checked_topo_order().map(drop)
    }

    /// [`validate`](Self::validate), returning the combinational
    /// topological order ([`topo_order`](crate::topo_order)) the check
    /// computed, so a caller that needs both sorts once.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate).
    pub fn checked_topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        if let Some(i) = self.drivers.iter().position(|d| *d == Driver::None) {
            return Err(NetlistError::UndrivenSignal(SignalId(i as u32)));
        }
        crate::analysis::topo_order(self)
    }

    fn check_signal(&self, s: SignalId) -> Result<(), NetlistError> {
        if s.index() >= self.drivers.len() {
            return Err(NetlistError::UnknownSignal(s));
        }
        Ok(())
    }
}

/// Whether `inputs` lists a signal twice: pairwise for the short lists
/// of real gates, by sorting a copy for wide ones.
fn has_duplicate(inputs: &[SignalId]) -> bool {
    if inputs.len() <= 16 {
        return (1..inputs.len()).any(|i| inputs[..i].contains(&inputs[i]));
    }
    let mut sorted = inputs.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_half_adder() {
        let mut nl = Netlist::new("ha");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let s = nl.add_signal("s").unwrap();
        let c = nl.add_signal("c").unwrap();
        nl.add_gate("x", GateKind::Xor, vec![a, b], s).unwrap();
        nl.add_gate("a1", GateKind::And, vec![a, b], c).unwrap();
        nl.add_primary_output(s).unwrap();
        nl.add_primary_output(c).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_gates(), 2);
        assert_eq!(nl.n_signals(), 4);
        assert_eq!(nl.n_dffs(), 0);
        assert_eq!(nl.driver(s), Driver::Gate(GateId(0)));
        assert_eq!(nl.signal_by_name("c"), Some(c));
        assert_eq!(nl.signal_name(a), "a");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_primary_input("a").unwrap();
        assert_eq!(
            nl.add_signal("a"),
            Err(NetlistError::DuplicateSignalName("a".into()))
        );
    }

    #[test]
    fn double_drive_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        nl.add_gate("g1", GateKind::Buf, vec![a], y).unwrap();
        assert_eq!(
            nl.add_gate("g2", GateKind::Not, vec![a], y),
            Err(NetlistError::SignalAlreadyDriven(y))
        );
    }

    #[test]
    fn arity_checked() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        assert!(matches!(
            nl.add_gate("g", GateKind::And, vec![a], y),
            Err(NetlistError::BadArity { got: 1, .. })
        ));
        assert!(matches!(
            nl.add_gate("g", GateKind::Not, vec![a, a], y),
            Err(NetlistError::DuplicateInput(_)) | Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn duplicate_inputs_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        assert_eq!(
            nl.add_gate("g", GateKind::And, vec![a, a], y),
            Err(NetlistError::DuplicateInput(GateId(0)))
        );
    }

    #[test]
    fn undriven_signal_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        nl.add_gate("g", GateKind::Buf, vec![a], y).unwrap();
        let _ = z;
        assert_eq!(nl.validate(), Err(NetlistError::UndrivenSignal(z)));
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = DFF(d); d = NOT(q) — legal (a toggle register).
        let mut nl = Netlist::new("t");
        let q = nl.add_signal("q").unwrap();
        let d = nl.add_signal("d").unwrap();
        nl.add_gate("ff", GateKind::Dff, vec![d], q).unwrap();
        nl.add_gate("inv", GateKind::Not, vec![q], d).unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.n_dffs(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_signal("a").unwrap();
        let b = nl.add_signal("b").unwrap();
        nl.add_gate("g1", GateKind::Not, vec![b], a).unwrap();
        nl.add_gate("g2", GateKind::Not, vec![a], b).unwrap();
        assert_eq!(nl.validate(), Err(NetlistError::CombinationalCycle));
    }

    /// The name index survives many rehashes: every name finds its own
    /// id, near-miss names find nothing, duplicates are refused.
    #[test]
    fn name_index_finds_every_signal_across_growth() {
        let mut nl = Netlist::new("t");
        let ids: Vec<SignalId> = (0..5000)
            .map(|i| {
                nl.add_signal(format!("sig_{i}_long_enough_for_two_words"))
                    .unwrap()
            })
            .collect();
        for (i, &s) in ids.iter().enumerate() {
            let name = format!("sig_{i}_long_enough_for_two_words");
            assert_eq!(nl.signal_by_name(&name), Some(s));
            assert_eq!(nl.signal_name(s), name);
            assert_eq!(nl.intern(&name), s);
        }
        assert_eq!(nl.signal_by_name("sig_1_long_enough_for_two_word"), None);
        assert_eq!(nl.signal_by_name(""), None);
        assert_eq!(
            nl.add_signal("sig_7_long_enough_for_two_words"),
            Err(NetlistError::DuplicateSignalName(
                "sig_7_long_enough_for_two_words".into()
            ))
        );
        assert_eq!(nl.n_signals(), 5000);
        let fresh = nl.intern("brand_new");
        assert_eq!(fresh, SignalId(5000));
        assert_eq!(nl.driver(fresh), Driver::None);
    }

    #[test]
    fn lut_views_read_back_their_arenas() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let b = nl.add_primary_input("b").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        let g0 = nl.add_lut("l0", &["1- 1", "-1 1"], [a, b], y).unwrap();
        let g1 = nl.add_gate("n1", GateKind::Not, [y], z).unwrap();
        let (v0, v1) = (nl.gate(g0), nl.gate(g1));
        assert_eq!(
            (v0.name(), v0.kind(), v0.output()),
            ("l0", GateKind::Lut, y)
        );
        assert_eq!(v0.inputs(), [a, b]);
        assert_eq!(v0.cover().collect::<Vec<_>>(), ["1- 1", "-1 1"]);
        assert_eq!(
            (v1.name(), v1.inputs(), v1.cover().len()),
            ("n1", &[y][..], 0)
        );
    }

    #[test]
    fn truncate_gates_undrives_their_outputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        nl.add_gate("g0", GateKind::Buf, [a], y).unwrap();
        nl.add_lut("g1", &["0 1"], [y], z).unwrap();
        nl.truncate_gates(1);
        assert_eq!(nl.n_gates(), 1);
        assert_eq!(nl.driver(z), Driver::None);
        assert_eq!(nl.driver(y), Driver::Gate(GateId(0)));
        let g = nl.add_lut("again", &["1 1"], [y], z).unwrap();
        assert_eq!(g, GateId(1));
        assert_eq!(nl.gate(g).name(), "again");
        assert_eq!(nl.gate(g).cover().collect::<Vec<_>>(), ["1 1"]);
        assert_eq!(nl.gate(GateId(0)).name(), "g0");
    }

    #[test]
    fn wide_duplicate_inputs_rejected() {
        let mut nl = Netlist::new("t");
        let mut ins: Vec<_> = (0..40)
            .map(|i| nl.add_primary_input(format!("i{i}")).unwrap())
            .collect();
        let y = nl.add_signal("y").unwrap();
        ins.push(ins[3]);
        assert_eq!(
            nl.add_gate("g", GateKind::And, &ins, y),
            Err(NetlistError::DuplicateInput(GateId(0)))
        );
        ins.pop();
        assert!(nl.add_gate("g", GateKind::And, &ins, y).is_ok());
    }

    #[test]
    fn fanout_index_lists_readers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_primary_input("a").unwrap();
        let y = nl.add_signal("y").unwrap();
        let z = nl.add_signal("z").unwrap();
        let g1 = nl.add_gate("g1", GateKind::Buf, vec![a], y).unwrap();
        let g2 = nl.add_gate("g2", GateKind::Not, vec![a], z).unwrap();
        let idx = nl.fanout_index();
        assert_eq!(idx.readers(a), [g1, g2]);
        assert!(idx.readers(y).is_empty());
    }
}
