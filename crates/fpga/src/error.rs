//! Errors produced by the device model and evaluator.

use std::error::Error;
use std::fmt;

/// A device-model failure.
///
/// Construction errors ([`EmptyLibrary`](FpgaError::EmptyLibrary),
/// [`InvalidDevice`](FpgaError::InvalidDevice)) mean the caller's library
/// description is malformed; evaluation errors
/// ([`MissingDeviceAssignment`](FpgaError::MissingDeviceAssignment),
/// [`DeviceIndexOutOfRange`](FpgaError::DeviceIndexOutOfRange)) mean a
/// placement/device pairing broke the evaluator's contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FpgaError {
    /// A device library must contain at least one device type.
    EmptyLibrary,
    /// A device's parameters violate the model (`c_i, t_i > 0`,
    /// `0 ≤ l_i ≤ u_i ≤ 1`).
    InvalidDevice {
        /// The device name.
        name: String,
        /// The violated requirement.
        what: String,
    },
    /// An evaluation was asked for a placement with more parts than
    /// device assignments.
    MissingDeviceAssignment {
        /// Parts in the placement.
        parts: usize,
        /// Device assignments supplied.
        devices: usize,
    },
    /// A device assignment referenced a library index past the end.
    DeviceIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The library size.
        len: usize,
    },
}

impl fmt::Display for FpgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FpgaError::EmptyLibrary => write!(f, "device library is empty"),
            FpgaError::InvalidDevice { name, what } => {
                write!(f, "invalid device {name:?}: {what}")
            }
            FpgaError::MissingDeviceAssignment { parts, devices } => write!(
                f,
                "placement has {parts} parts but only {devices} device assignments"
            ),
            FpgaError::DeviceIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "device index {index} out of range for a library of {len}"
                )
            }
        }
    }
}

impl Error for FpgaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            FpgaError::EmptyLibrary,
            FpgaError::InvalidDevice {
                name: "X".into(),
                what: "zero CLBs".into(),
            },
            FpgaError::MissingDeviceAssignment {
                parts: 4,
                devices: 2,
            },
            FpgaError::DeviceIndexOutOfRange { index: 9, len: 5 },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
