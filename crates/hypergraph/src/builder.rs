//! Incremental construction of a [`Hypergraph`].

use crate::adjacency::AdjacencyMatrix;
use crate::error::BuildError;
use crate::graph::{Cell, CellId, CellKind, Endpoint, Hypergraph, Net, NetId, Pin};

/// Sentinel for a not-yet-connected pin during construction.
const UNCONNECTED: NetId = NetId(u32::MAX);

/// Builds a [`Hypergraph`] cell by cell and net by net.
///
/// Every pin must be connected to exactly one net and every net must have
/// exactly one driver before [`finish`](Self::finish) succeeds.
///
/// # Examples
///
/// ```
/// use netpart_hypergraph::{AdjacencyMatrix, CellKind, HypergraphBuilder};
///
/// # fn main() -> Result<(), netpart_hypergraph::BuildError> {
/// let mut b = HypergraphBuilder::new();
/// let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
/// let po = b.add_cell("po", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
/// let n = b.add_net("wire");
/// b.connect_output(n, pi, 0)?;
/// b.connect_input(n, po, 0)?;
/// let hg = b.finish()?;
/// assert_eq!(hg.n_nets(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct HypergraphBuilder {
    cells: Vec<Cell>,
    net_names: Vec<String>,
    drivers: Vec<Option<Endpoint>>,
    sinks: Vec<Vec<Endpoint>>,
}

impl HypergraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity hints.
    pub fn with_capacity(cells: usize, nets: usize) -> Self {
        HypergraphBuilder {
            cells: Vec::with_capacity(cells),
            net_names: Vec::with_capacity(nets),
            drivers: Vec::with_capacity(nets),
            sinks: Vec::with_capacity(nets),
        }
    }

    /// Adds a cell with `n_inputs` input pins and `m_outputs` output pins
    /// and returns its id. Pins start out unconnected.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        n_inputs: usize,
        m_outputs: usize,
        adjacency: AdjacencyMatrix,
    ) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name: name.into(),
            kind,
            inputs: vec![UNCONNECTED; n_inputs],
            outputs: vec![UNCONNECTED; m_outputs],
            adjacency,
        });
        id
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.drivers.push(None);
        self.sinks.push(Vec::new());
        id
    }

    /// Number of cells added so far.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets added so far.
    pub fn n_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Connects input pin `j` of `cell` as a sink of `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if the cell, net or pin does not exist, or if the
    /// pin is already connected.
    pub fn connect_input(&mut self, net: NetId, cell: CellId, j: usize) -> Result<(), BuildError> {
        self.check_net(net)?;
        let c = self
            .cells
            .get_mut(cell.index())
            .ok_or(BuildError::UnknownCell(cell))?;
        let pin = Pin::Input(j as u16);
        let slot = c
            .inputs
            .get_mut(j)
            .ok_or(BuildError::PinOutOfRange { cell, pin })?;
        if *slot != UNCONNECTED {
            return Err(BuildError::PinAlreadyConnected { cell, pin });
        }
        *slot = net;
        self.sinks[net.index()].push(Endpoint { cell, pin });
        Ok(())
    }

    /// Connects output pin `o` of `cell` as the driver of `net`.
    ///
    /// # Errors
    ///
    /// Returns an error if the cell, net or pin does not exist, if the pin
    /// is already connected, or if the net already has a driver.
    pub fn connect_output(&mut self, net: NetId, cell: CellId, o: usize) -> Result<(), BuildError> {
        self.check_net(net)?;
        let c = self
            .cells
            .get_mut(cell.index())
            .ok_or(BuildError::UnknownCell(cell))?;
        let pin = Pin::Output(o as u16);
        let slot = c
            .outputs
            .get_mut(o)
            .ok_or(BuildError::PinOutOfRange { cell, pin })?;
        if *slot != UNCONNECTED {
            return Err(BuildError::PinAlreadyConnected { cell, pin });
        }
        if self.drivers[net.index()].is_some() {
            return Err(BuildError::MultipleDrivers(net));
        }
        *slot = net;
        self.drivers[net.index()] = Some(Endpoint { cell, pin });
        Ok(())
    }

    /// Validates connectivity and produces the immutable [`Hypergraph`].
    ///
    /// # Errors
    ///
    /// Returns an error if any pin is dangling, any net lacks a driver, or
    /// any adjacency matrix does not match its cell's pin counts.
    pub fn finish(self) -> Result<Hypergraph, BuildError> {
        for (i, c) in self.cells.iter().enumerate() {
            let id = CellId(i as u32);
            // Terminal pads carry no dependency information; their
            // placeholder matrix (`AdjacencyMatrix::pad()`) is exempt.
            if !c.kind.is_terminal()
                && (c.adjacency.n_inputs() != c.inputs.len()
                    || c.adjacency.m_outputs() != c.outputs.len())
            {
                return Err(BuildError::AdjacencyShapeMismatch(id));
            }
            for (j, &n) in c.inputs.iter().enumerate() {
                if n == UNCONNECTED {
                    return Err(BuildError::DanglingPin {
                        cell: id,
                        pin: Pin::Input(j as u16),
                    });
                }
            }
            for (o, &n) in c.outputs.iter().enumerate() {
                if n == UNCONNECTED {
                    return Err(BuildError::DanglingPin {
                        cell: id,
                        pin: Pin::Output(o as u16),
                    });
                }
            }
        }
        let mut nets = Vec::with_capacity(self.net_names.len());
        let named = self.net_names.into_iter().zip(self.sinks);
        for (i, (name, sinks)) in named.enumerate() {
            let driver = self.drivers[i].ok_or(BuildError::MissingDriver(NetId(i as u32)))?;
            nets.push(Net {
                name,
                driver,
                sinks,
            });
        }
        Ok(Hypergraph {
            cells: self.cells,
            nets,
        })
    }

    fn check_net(&self, net: NetId) -> Result<(), BuildError> {
        if net.index() >= self.net_names.len() {
            return Err(BuildError::UnknownNet(net));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellKind;

    #[test]
    fn duplicate_driver_rejected() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_cell("a", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let c = b.add_cell("c", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let n = b.add_net("n");
        b.connect_output(n, a, 0).unwrap();
        assert_eq!(
            b.connect_output(n, c, 0),
            Err(BuildError::MultipleDrivers(n))
        );
    }

    #[test]
    fn double_connection_rejected() {
        let mut b = HypergraphBuilder::new();
        let g = b.add_cell("g", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        let n = b.add_net("n");
        let m = b.add_net("m");
        b.connect_input(n, g, 0).unwrap();
        assert!(matches!(
            b.connect_input(m, g, 0),
            Err(BuildError::PinAlreadyConnected { .. })
        ));
    }

    #[test]
    fn dangling_pin_rejected() {
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let n = b.add_net("n");
        b.connect_output(n, pi, 0).unwrap();
        let g = b.add_cell("g", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(1, 1));
        b.connect_input(n, g, 0).unwrap();
        // g's output pin is dangling.
        assert!(matches!(
            b.finish(),
            Err(BuildError::DanglingPin {
                pin: Pin::Output(0),
                ..
            })
        ));
        let _ = g;
    }

    #[test]
    fn missing_driver_rejected() {
        let mut b = HypergraphBuilder::new();
        let po = b.add_cell("po", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let n = b.add_net("n");
        b.connect_input(n, po, 0).unwrap();
        assert_eq!(b.finish().unwrap_err(), BuildError::MissingDriver(n));
    }

    #[test]
    fn adjacency_shape_checked() {
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        // 2x2 matrix on a 1-in/1-out cell.
        let g = b.add_cell("g", CellKind::logic(1), 1, 1, AdjacencyMatrix::full(2, 2));
        let n = b.add_net("n");
        let m = b.add_net("m");
        b.connect_output(n, pi, 0).unwrap();
        b.connect_input(n, g, 0).unwrap();
        b.connect_output(m, g, 0).unwrap();
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::AdjacencyShapeMismatch(g)
        );
    }

    #[test]
    fn pin_out_of_range_rejected() {
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let n = b.add_net("n");
        assert!(matches!(
            b.connect_output(n, pi, 3),
            Err(BuildError::PinOutOfRange { .. })
        ));
        assert!(matches!(
            b.connect_input(n, pi, 0),
            Err(BuildError::PinOutOfRange { .. })
        ));
        assert_eq!(
            b.connect_output(NetId(9), pi, 0),
            Err(BuildError::UnknownNet(NetId(9)))
        );
        assert_eq!(
            b.connect_output(n, CellId(9), 0),
            Err(BuildError::UnknownCell(CellId(9)))
        );
    }

    #[test]
    fn capacity_constructor_counts() {
        let mut b = HypergraphBuilder::with_capacity(4, 4);
        assert_eq!(b.n_cells(), 0);
        b.add_net("n");
        assert_eq!(b.n_nets(), 1);
    }
}
