//! APIM device configuration.

use apim_device::Device;
use apim_logic::PrecisionMode;
use std::error::Error;
use std::fmt;

/// Errors from the architecture layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchError {
    /// Configuration rejected.
    InvalidConfig(String),
    /// A dataset exceeded the device capacity — APIM computes *in place*,
    /// so the working set must be memory-resident.
    DatasetTooLarge {
        /// Requested dataset size.
        dataset_bytes: u64,
        /// Configured capacity.
        capacity_bytes: u64,
    },
    /// A scheduling request named zero execution units. Raised by the
    /// `scheduler` entry points instead of panicking, so a hostile
    /// configuration arriving through a serving frontend degrades into a
    /// structured error.
    ZeroUnits,
    /// The static microprogram verifier found hazards in the device's
    /// kernels (only raised when
    /// [`ApimConfig::verify_microprograms`] is enabled).
    VerificationFailed {
        /// Number of error-severity findings.
        errors: usize,
        /// Rendered findings, one per line.
        detail: String,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InvalidConfig(msg) => write!(f, "invalid APIM configuration: {msg}"),
            ArchError::DatasetTooLarge {
                dataset_bytes,
                capacity_bytes,
            } => write!(
                f,
                "dataset of {dataset_bytes} bytes exceeds APIM capacity of {capacity_bytes} bytes"
            ),
            ArchError::ZeroUnits => {
                write!(f, "cannot schedule onto zero parallel units")
            }
            ArchError::VerificationFailed { errors, detail } => write!(
                f,
                "microprogram verification failed with {errors} error(s):\n{detail}"
            ),
        }
    }
}

impl Error for ArchError {}

/// Configuration of an APIM memory device.
///
/// The default models the paper's setup: a multi-GB RRAM main memory
/// (datasets up to 1 GB stay resident, like the 64 GB DIMMs of §4.1) whose
/// blocked crossbars provide thousands of *concurrently active*
/// data/processing block pairs. The `parallel_units` figure is the one
/// calibrated constant on the APIM side (see `EXPERIMENTS.md`).
///
/// ```
/// use apim_arch::ApimConfig;
/// use apim_arch::PrecisionMode;
/// let config = ApimConfig::builder()
///     .parallel_units(1024)
///     .mode(PrecisionMode::LastStage { relax_bits: 8 })
///     .build()
///     .expect("valid");
/// assert_eq!(config.parallel_units, 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ApimConfig {
    /// The device (VTEAM constants, cycle time… and the per-op energies
    /// derived from them once).
    pub device: Device,
    /// Total memory capacity, bytes.
    pub capacity_bytes: u64,
    /// Concurrently active processing-block pairs.
    pub parallel_units: u32,
    /// Operand width of the in-memory ALU paths.
    pub operand_bits: u32,
    /// Multiplication precision mode.
    pub mode: PrecisionMode,
    /// When `true`, [`crate::Executor::new`] statically verifies the
    /// gate-level microprograms (via `apim-verify`) at the configured
    /// operand width before accepting the device.
    pub verify_microprograms: bool,
}

impl ApimConfig {
    /// Starts a builder.
    pub fn builder() -> ApimConfigBuilder {
        ApimConfigBuilder::new()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for zero capacities/units,
    /// unsupported operand widths or an invalid precision mode. The
    /// device was validated when it was built.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.capacity_bytes == 0 {
            return Err(ArchError::InvalidConfig("capacity must be nonzero".into()));
        }
        if self.parallel_units == 0 {
            return Err(ArchError::InvalidConfig(
                "need at least one parallel unit".into(),
            ));
        }
        if !(4..=64).contains(&self.operand_bits) {
            return Err(ArchError::InvalidConfig(format!(
                "operand width {} outside 4..=64",
                self.operand_bits
            )));
        }
        self.mode
            .validate(self.operand_bits)
            .map_err(|e| ArchError::InvalidConfig(e.to_string()))?;
        Ok(())
    }
}

impl Default for ApimConfig {
    fn default() -> Self {
        ApimConfig {
            device: Device::default(),
            capacity_bytes: 8 << 30,
            parallel_units: 2048,
            operand_bits: 32,
            mode: PrecisionMode::Exact,
            verify_microprograms: false,
        }
    }
}

/// Builder for [`ApimConfig`].
#[derive(Debug, Clone, Default)]
pub struct ApimConfigBuilder {
    config: ApimConfig,
}

impl ApimConfigBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        ApimConfigBuilder {
            config: ApimConfig::default(),
        }
    }

    /// Sets the device (build one from other parameters with
    /// [`Device::new`]).
    pub fn device(mut self, device: Device) -> Self {
        self.config.device = device;
        self
    }

    /// Sets the memory capacity in bytes.
    pub fn capacity_bytes(mut self, capacity: u64) -> Self {
        self.config.capacity_bytes = capacity;
        self
    }

    /// Sets the number of concurrently active processing-block pairs.
    pub fn parallel_units(mut self, units: u32) -> Self {
        self.config.parallel_units = units;
        self
    }

    /// Sets the operand width.
    pub fn operand_bits(mut self, bits: u32) -> Self {
        self.config.operand_bits = bits;
        self
    }

    /// Sets the precision mode.
    pub fn mode(mut self, mode: PrecisionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Enables or disables static microprogram verification at executor
    /// construction.
    pub fn verify_microprograms(mut self, verify: bool) -> Self {
        self.config.verify_microprograms = verify;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`ApimConfig::validate`].
    pub fn build(self) -> Result<ApimConfig, ArchError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ApimConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_round_trips() {
        let c = ApimConfig::builder()
            .capacity_bytes(1 << 30)
            .parallel_units(128)
            .operand_bits(16)
            .mode(PrecisionMode::FirstStage { masked_bits: 4 })
            .build()
            .unwrap();
        assert_eq!(c.capacity_bytes, 1 << 30);
        assert_eq!(c.parallel_units, 128);
        assert_eq!(c.operand_bits, 16);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ApimConfig::builder().capacity_bytes(0).build().is_err());
        assert!(ApimConfig::builder().parallel_units(0).build().is_err());
        assert!(ApimConfig::builder().operand_bits(128).build().is_err());
        assert!(ApimConfig::builder()
            .operand_bits(16)
            .mode(PrecisionMode::LastStage { relax_bits: 64 })
            .build()
            .is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ArchError::DatasetTooLarge {
            dataset_bytes: 100,
            capacity_bytes: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(ArchError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
    }
}
