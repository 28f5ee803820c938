//! The device: one parameter set and the constants derived from it.

use crate::energy::EnergyModel;
use crate::params::DeviceParams;
use crate::timing::TimingModel;

/// A validated device: its [`DeviceParams`] plus the per-operation energy
/// and timing constants derived from them.
///
/// [`Device::new`] is the one place the VTEAM model is integrated. Every
/// crossbar, cost model and compiled program built from a `Device` (or a
/// clone of it) reuses its constants, the way the paper extracts per-op
/// energies from one circuit simulation and then treats them as fixed.
/// Cloning copies a handful of scalars; it derives nothing.
///
/// ```
/// use apim_device::{Device, DeviceParams};
/// let device = Device::new(DeviceParams::default()).expect("valid");
/// assert!((device.timing().cycle_time().as_nanos() - 1.1).abs() < 1e-12);
/// assert!(device.energy().nor_op(32).as_joules() > 0.0);
/// assert!(Device::new(DeviceParams { r_off_ohms: 1.0, ..DeviceParams::default() }).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    params: DeviceParams,
    energy: EnergyModel,
    timing: TimingModel,
}

impl Device {
    /// Validates `params` and derives the device's constants from them,
    /// integrating the VTEAM model once.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint of
    /// [`DeviceParams::validate`].
    pub fn new(params: DeviceParams) -> Result<Self, String> {
        params.validate()?;
        Ok(Device {
            energy: EnergyModel::new(&params),
            timing: TimingModel::new(&params),
            params,
        })
    }

    /// The paper's device (§4.1), [`DeviceParams::paper`].
    pub fn paper() -> Self {
        Device::new(DeviceParams::paper()).expect("the paper's parameters are valid")
    }

    /// The parameters the constants were derived from.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Per-operation energies.
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Latency constants.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }
}

impl Default for Device {
    fn default() -> Self {
        Device::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_parameters_are_rejected_before_integrating() {
        let bad = DeviceParams {
            cycle_ns: 0.0,
            ..DeviceParams::paper()
        };
        assert_eq!(Device::new(bad).unwrap_err(), "latencies must be positive");
    }

    #[test]
    fn constants_follow_the_parameters() {
        let paper = Device::paper();
        let slow = Device::new(DeviceParams {
            cycle_ns: 2.2,
            decoder_pj: 0.02,
            ..DeviceParams::paper()
        })
        .unwrap();
        assert!((slow.timing().cycle_time().as_nanos() - 2.2).abs() < 1e-12);
        assert!(slow.energy().nor_op(1) > paper.energy().nor_op(1));
        assert_eq!(slow.params().decoder_pj, 0.02);
    }
}
