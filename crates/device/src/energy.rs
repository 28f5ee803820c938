//! Energy model: per-operation energies derived from the VTEAM device.
//!
//! The paper obtains per-op energy from one Cadence circuit simulation and
//! then uses the results as fixed constants. Here the same constants are
//! computed by integrating the VTEAM model ([`crate::vteam::VteamModel`]),
//! and that integration happens in exactly one place: [`crate::Device::new`].
//! Crossbars, cost models and compiled programs take their `EnergyModel`
//! from a [`crate::Device`] and copy it; none of them derives one.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::params::DeviceParams;
use crate::units::Joules;
use crate::vteam::VteamModel;

/// VTEAM integrations performed by this process so far.
static DERIVATIONS: AtomicU64 = AtomicU64::new(0);

/// How many times this process has integrated the VTEAM model to derive
/// an [`EnergyModel`]. Only tests read it: they pin that a workload
/// derives its device once, however many crossbars it builds.
#[doc(hidden)]
pub fn derivations() -> u64 {
    DERIVATIONS.load(Ordering::Relaxed)
}

/// Per-operation energies of the APIM memory unit, derived once per
/// [`crate::Device`].
///
/// ```
/// use apim_device::Device;
/// let e = Device::paper().energy().clone();
/// // Wider NOR rows cost proportionally more (every bit position switches
/// // its own output cell).
/// let narrow = e.nor_op(8).as_joules();
/// let wide = e.nor_op(32).as_joules();
/// assert!(wide > 2.0 * narrow);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Worst-case energy of one MAGIC NOR evaluation on a single output
    /// cell: a full switching event plus half-select dissipation on inputs.
    nor_per_cell: Joules,
    /// Energy of writing one cell (initialization to RON before a MAGIC op,
    /// or storing a result).
    write_per_cell: Joules,
    /// Energy of one bitwise sense-amplifier read.
    read_per_bit: Joules,
    /// Energy of one sense-amplifier majority evaluation (read of three
    /// cells + analog majority + comparator).
    maj_per_bit: Joules,
    /// Interconnect switch energy per bit moved.
    interconnect_per_bit: Joules,
    /// Row/column decoder activation per operation.
    decoder_per_op: Joules,
}

impl EnergyModel {
    /// Derives the energy model from device parameters by integrating the
    /// VTEAM model — the one derivation behind [`crate::Device::new`].
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see
    /// [`DeviceParams::validate`]).
    pub(crate) fn new(params: &DeviceParams) -> Self {
        DERIVATIONS.fetch_add(1, Ordering::Relaxed);
        let vteam = VteamModel::new(params);
        let set = vteam.set_energy();
        let hold = vteam.hold_energy_off();
        let read = vteam.read_energy();
        EnergyModel {
            // Output cell may fully switch; the 2 input cells dissipate
            // half-select energy.
            nor_per_cell: set + hold * 2.0,
            write_per_cell: set,
            read_per_bit: read + Joules::from_picojoules(params.senseamp_overhead_pj),
            maj_per_bit: read * 3.0 + Joules::from_picojoules(params.senseamp_overhead_pj * 2.0),
            interconnect_per_bit: Joules::from_picojoules(params.interconnect_pj_per_bit),
            decoder_per_op: Joules::from_picojoules(params.decoder_pj),
        }
    }

    /// Energy of one MAGIC NOR over `width` parallel bit positions.
    pub fn nor_op(&self, width: usize) -> Joules {
        self.nor_per_cell * width as f64 + self.decoder_per_op
    }

    /// Energy of initializing or writing `width` cells.
    pub fn write_op(&self, width: usize) -> Joules {
        self.write_per_cell * width as f64 + self.decoder_per_op
    }

    /// Energy of a bitwise read of `width` bits.
    pub fn read_op(&self, width: usize) -> Joules {
        self.read_per_bit * width as f64 + self.decoder_per_op
    }

    /// Energy of `width` parallel sense-amplifier majority evaluations.
    pub fn maj_op(&self, width: usize) -> Joules {
        self.maj_per_bit * width as f64 + self.decoder_per_op
    }

    /// Energy of moving `width` bits through the configurable interconnect.
    pub fn interconnect_op(&self, width: usize) -> Joules {
        self.interconnect_per_bit * width as f64
    }

    /// Energy per single-cell NOR (without decoder overhead) — exposed for
    /// analytic cost models.
    pub fn nor_per_cell(&self) -> Joules {
        self.nor_per_cell
    }

    /// Energy per single-cell write (without decoder overhead).
    pub fn write_per_cell(&self) -> Joules {
        self.write_per_cell
    }

    /// Energy per single-bit read (without decoder overhead).
    pub fn read_per_bit(&self) -> Joules {
        self.read_per_bit
    }

    /// Energy per single-bit majority evaluation.
    pub fn maj_per_bit(&self) -> Joules {
        self.maj_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> EnergyModel {
        EnergyModel::new(&DeviceParams::paper())
    }

    #[test]
    fn energies_are_positive() {
        let e = paper();
        assert!(e.nor_op(1).as_joules() > 0.0);
        assert!(e.write_op(1).as_joules() > 0.0);
        assert!(e.read_op(1).as_joules() > 0.0);
        assert!(e.maj_op(1).as_joules() > 0.0);
        assert!(e.interconnect_op(1).as_joules() > 0.0);
    }

    #[test]
    fn read_is_cheaper_than_nor() {
        let e = paper();
        assert!(e.read_per_bit().as_joules() < e.nor_per_cell().as_joules());
    }

    #[test]
    fn width_scaling_is_affine() {
        let e = paper();
        let w1 = e.nor_op(1).as_joules();
        let w10 = e.nor_op(10).as_joules();
        let per_cell = e.nor_per_cell().as_joules();
        assert!((w10 - w1 - 9.0 * per_cell).abs() < 1e-18);
    }

    #[test]
    fn maj_costs_roughly_three_reads() {
        let e = paper();
        let ratio = e.maj_per_bit().as_joules() / e.read_per_bit().as_joules();
        assert!(ratio > 1.5 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn per_cell_energies_in_physical_range() {
        // fJ..pJ per cell switch is physically plausible for RRAM at 45nm.
        let e = paper();
        let pj = e.nor_per_cell().as_picojoules();
        assert!(pj > 1e-4 && pj < 10.0, "nor/cell = {pj} pJ");
    }
}
