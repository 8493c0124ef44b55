//! XC3000-style technology mapping.
//!
//! Maps a gate-level [`Netlist`](netpart_netlist::Netlist) into XC3000-like
//! configurable logic blocks (CLBs) and emits the partitioning hypergraph
//! the paper's algorithms consume:
//!
//! 1. [`cover`] — greedy K-feasible cone covering into 5-input,
//!    single-output lookup tables (Chortle-style);
//! 2. DFF absorption — a flip-flop fed exclusively by one LUT registers
//!    that LUT's output inside the CLB;
//! 3. packing — pairs of LUT/register units sharing inputs merge into
//!    2-output CLBs (≤ 5 distinct inputs, ≤ 2 FFs, ≤ 1 externally-fed
//!    register via the DIN pin);
//! 4. [`Mapped::to_hypergraph`] — emits cells (CLBs + I/O pads), nets and
//!    per-cell output→input adjacency matrices, from which the paper's
//!    replication potential `ψ` distribution (Fig. 3) falls out.
//!
//! [`ingest_blif`] runs the whole chain from BLIF text.
//!
//! # Examples
//!
//! ```
//! use netpart_netlist::{generate, GeneratorConfig};
//! use netpart_techmap::{map, MapperConfig};
//!
//! # fn main() -> Result<(), netpart_techmap::MapError> {
//! let nl = generate(&GeneratorConfig::new(300).with_seed(1).with_dff(16));
//! let mapped = map(&nl, &MapperConfig::xc3000())?;
//! let hg = mapped.to_hypergraph(&nl);
//! assert!(hg.stats().clbs > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod decompose;
mod error;
mod ingest;
mod mapped;
mod pack;

pub use cover::{cover, LutCone};
pub use decompose::decompose_wide_gates;
pub use error::MapError;
pub use ingest::{ingest_blif, IngestError};
pub use mapped::{map, Clb, Mapped, MapperConfig, Unit};
