//! Numerical integration of the VTEAM memristor model.
//!
//! VTEAM (Kvatinsky et al., TCAS-II 2015) describes a voltage-controlled
//! memristor with an internal state variable `w ∈ [w_min, w_max]`:
//!
//! ```text
//! dw/dt = k_off · (v/v_off − 1)^α_off · f_off(w)   for v > v_off
//!       = 0                                         for v_on ≤ v ≤ v_off
//!       = k_on  · (v/v_on − 1)^α_on  · f_on(w)     for v < v_on
//! ```
//!
//! with window functions `f_on/f_off` clamping `w` at the device boundaries,
//! and a linear resistance map `R(w) = R_on + (w − w_min)/(w_max − w_min) ·
//! (R_off − R_on)`.
//!
//! The paper uses this model in Cadence Virtuoso to extract per-operation
//! latency and energy; we integrate it directly (forward Euler with
//! sub-picosecond steps) to derive the same constants.

use crate::params::DeviceParams;
use crate::units::{Joules, Seconds};

/// State of a single VTEAM memristor.
///
/// ```
/// use apim_device::vteam::VteamModel;
/// use apim_device::DeviceParams;
///
/// let params = DeviceParams::default();
/// let model = VteamModel::new(&params);
/// let mut cell = model.cell_off();
/// // Applying a positive voltage above v_off keeps the device OFF-switching
/// // direction; a negative voltage below v_on drives it ON.
/// let report = model.apply_pulse(&mut cell, -1.0, 2e-9);
/// assert!(cell.resistance_ohms() < 1e6); // moved toward R_on
/// assert!(report.energy.as_joules() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VteamCell {
    /// Internal state variable, meters, clamped to `[w_min, w_max]`.
    w: f64,
    resistance: f64,
}

impl VteamCell {
    /// Current device resistance, ohms.
    pub fn resistance_ohms(&self) -> f64 {
        self.resistance
    }

    /// Internal state variable, meters.
    pub fn state(&self) -> f64 {
        self.w
    }
}

/// Outcome of applying a voltage pulse to a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseReport {
    /// Energy dissipated in the device during the pulse.
    pub energy: Joules,
    /// Time at which the state first saturated, if it did.
    pub saturated_at: Option<Seconds>,
}

/// The VTEAM model evaluator for a given parameter set.
#[derive(Debug, Clone)]
pub struct VteamModel {
    params: DeviceParams,
    /// Integration step, seconds.
    dt: f64,
}

impl VteamModel {
    /// Creates a model evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`DeviceParams::validate`]; constructing a
    /// model from unphysical parameters is a programming error.
    pub fn new(params: &DeviceParams) -> Self {
        params.validate().expect("invalid device parameters");
        VteamModel {
            params: params.clone(),
            dt: 0.5e-12,
        }
    }

    /// A cell initialized to the fully-ON (low resistance, logic '1' in the
    /// MAGIC convention) state.
    pub fn cell_on(&self) -> VteamCell {
        self.cell_at(self.params.w_min_m)
    }

    /// A cell initialized to the fully-OFF (high resistance, logic '0')
    /// state.
    pub fn cell_off(&self) -> VteamCell {
        self.cell_at(self.params.w_max_m)
    }

    fn cell_at(&self, w: f64) -> VteamCell {
        VteamCell {
            w,
            resistance: self.resistance(w),
        }
    }

    /// Linear resistance map `R(w)`.
    fn resistance(&self, w: f64) -> f64 {
        let p = &self.params;
        let frac = (w - p.w_min_m) / (p.w_max_m - p.w_min_m);
        p.r_on_ohms + frac * (p.r_off_ohms - p.r_on_ohms)
    }

    /// The voltage factor `k · drive(v)` of the state derivative
    /// `dw/dt = k · drive(v) · window(w)`; constant over a pulse.
    fn rate(&self, v: f64) -> f64 {
        let p = &self.params;
        if v > p.v_off_volts {
            // OFF-switching: w grows toward w_max.
            p.k_off * (v / p.v_off_volts - 1.0).powf(p.alpha_off)
        } else if v < p.v_on_volts {
            // ON-switching: w shrinks toward w_min (k_on < 0).
            p.k_on * (v / p.v_on_volts - 1.0).powf(p.alpha_on)
        } else {
            0.0
        }
    }

    /// Joglekar-style window keeping the state inside the device.
    fn window(w: f64, w_min: f64, w_max: f64) -> f64 {
        let x = (w - w_min) / (w_max - w_min);
        // Quadratic window: zero derivative at the boundaries.
        1.0 - (2.0 * x - 1.0).powi(2) * 0.99
    }

    /// Applies a constant-voltage pulse of the given duration, integrating
    /// the state and accumulating `v²/R` dissipation.
    pub fn apply_pulse(&self, cell: &mut VteamCell, volts: f64, duration_s: f64) -> PulseReport {
        self.integrate(cell, volts, duration_s, false)
    }

    /// The pulse integration behind [`VteamModel::apply_pulse`]. With
    /// `until_saturated` it stops at the step that first saturates the
    /// state, so only `saturated_at` of the report is meaningful.
    fn integrate(
        &self,
        cell: &mut VteamCell,
        volts: f64,
        duration_s: f64,
        until_saturated: bool,
    ) -> PulseReport {
        let p = &self.params;
        let rate = self.rate(volts);
        let mut t = 0.0;
        let mut energy = 0.0;
        let mut saturated_at = None;
        while t < duration_s {
            let step = self.dt.min(duration_s - t);
            energy += volts * volts / cell.resistance * step;
            let dw = rate * Self::window(cell.w, p.w_min_m, p.w_max_m) * step;
            let w_new = (cell.w + dw).clamp(p.w_min_m, p.w_max_m);
            if saturated_at.is_none() && dw != 0.0 && (w_new == p.w_min_m || w_new == p.w_max_m) {
                saturated_at = Some(Seconds::new(t + step));
            }
            cell.w = w_new;
            cell.resistance = self.resistance(w_new);
            t += step;
            if until_saturated && saturated_at.is_some() {
                break;
            }
        }
        PulseReport {
            energy: Joules::new(energy),
            saturated_at,
        }
    }

    /// When a pulse of `volts` first saturates `cell`, or `horizon_s` if
    /// it does not within that long.
    fn saturation_time(&self, mut cell: VteamCell, volts: f64, horizon_s: f64) -> Seconds {
        self.integrate(&mut cell, volts, horizon_s, true)
            .saturated_at
            .unwrap_or(Seconds::new(horizon_s))
    }

    /// Time for a full OFF→ON transition under `-V0` (a MAGIC output cell
    /// being written), found by integration.
    ///
    /// This must complete within one MAGIC cycle for the logic family to
    /// work; [`crate::TimingModel`] asserts it against the paper's 1.1 ns.
    pub fn set_time(&self) -> Seconds {
        let horizon = 20.0 * self.params.cycle_ns * 1e-9;
        self.saturation_time(self.cell_off(), -self.params.v0_volts, horizon)
    }

    /// Energy of a full OFF→ON switching event under `-V0`.
    pub fn set_energy(&self) -> Joules {
        let mut cell = self.cell_off();
        let t = self.set_time().as_secs();
        self.apply_pulse(&mut cell, -self.params.v0_volts, t).energy
    }

    /// Time for a full ON→OFF transition under `+V0` (RESET), found by
    /// integration. RESET is the faster edge on this device: the
    /// OFF-threshold is lower than the ON-threshold, so the drive term is
    /// much larger.
    pub fn reset_time(&self) -> Seconds {
        let horizon = 20.0 * self.params.cycle_ns * 1e-9;
        self.saturation_time(self.cell_on(), self.params.v0_volts, horizon)
    }

    /// Energy of a full ON→OFF switching event under `+V0`. The large
    /// OFF-drive makes the transition so fast that, despite starting at
    /// `RON`'s high current, the integral stays below the SET energy.
    pub fn reset_energy(&self) -> Joules {
        let mut cell = self.cell_on();
        let t = self.reset_time().as_secs();
        self.apply_pulse(&mut cell, self.params.v0_volts, t).energy
    }

    /// Energy dissipated reading a cell at `v_read` for the paper's 0.3 ns
    /// read, worst case (cell in the ON state, max current).
    pub fn read_energy(&self) -> Joules {
        let mut cell = self.cell_on();
        self.apply_pulse(
            &mut cell,
            self.params.v_read_volts,
            self.params.read_ns * 1e-9,
        )
        .energy
    }

    /// Energy dissipated by a half-selected cell held at `V0` across its
    /// (high) resistance for one cycle — the dominant sneak cost of a MAGIC
    /// op on non-switching cells.
    pub fn hold_energy_off(&self) -> Joules {
        let mut cell = self.cell_off();
        // v_off/2 bias: below threshold, no state change, pure dissipation.
        let v = self.params.v_off_volts * 0.5;
        self.apply_pulse(&mut cell, v, self.params.cycle_ns * 1e-9)
            .energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VteamModel {
        VteamModel::new(&DeviceParams::paper())
    }

    #[test]
    fn initial_states_have_expected_resistance() {
        let m = model();
        assert!((m.cell_on().resistance_ohms() - 10e3).abs() < 1.0);
        assert!((m.cell_off().resistance_ohms() - 10e6).abs() < 1.0);
    }

    #[test]
    fn below_threshold_voltage_does_not_switch() {
        let m = model();
        let mut cell = m.cell_off();
        let before = cell.state();
        m.apply_pulse(&mut cell, 0.1, 5e-9); // |v| < v_off
        assert_eq!(cell.state(), before);
        m.apply_pulse(&mut cell, -0.2, 5e-9); // |v| < |v_on|
        assert_eq!(cell.state(), before);
    }

    #[test]
    fn negative_v0_sets_the_cell() {
        let m = model();
        let mut cell = m.cell_off();
        let report = m.apply_pulse(&mut cell, -1.0, 3e-9);
        assert!(cell.resistance_ohms() < 1e6);
        assert!(report.energy.as_joules() > 0.0);
    }

    #[test]
    fn positive_v0_resets_the_cell() {
        let m = model();
        let mut cell = m.cell_on();
        m.apply_pulse(&mut cell, 1.0, 3e-9);
        assert!(cell.resistance_ohms() > 20e3);
    }

    #[test]
    fn set_time_fits_in_a_magic_cycle() {
        let m = model();
        let t = m.set_time();
        assert!(
            t.as_nanos() <= DeviceParams::paper().cycle_ns,
            "SET took {} — must fit in one 1.1 ns cycle",
            t
        );
        assert!(t.as_nanos() > 0.05, "SET time implausibly fast: {}", t);
    }

    #[test]
    fn set_energy_is_positive_and_small() {
        let e = model().set_energy();
        assert!(e.as_joules() > 0.0);
        // Sanity: a single-cell switch should be in the fJ..pJ range.
        assert!(e.as_picojoules() < 10.0, "set energy {} too large", e);
    }

    #[test]
    fn read_energy_below_write_energy() {
        let m = model();
        assert!(m.read_energy().as_joules() < m.set_energy().as_joules());
    }

    #[test]
    fn hold_energy_is_small() {
        let m = model();
        assert!(m.hold_energy_off().as_joules() < m.read_energy().as_joules());
    }

    #[test]
    fn reset_is_the_fast_edge() {
        // The OFF threshold (0.3 V) is far below V0, so the RESET drive
        // term dwarfs the SET drive: RESET completes ~100x faster and,
        // despite flowing through RON, dissipates less total energy.
        let m = model();
        assert!(m.reset_time().as_secs() < 0.1 * m.set_time().as_secs());
        assert!(m.reset_energy().as_joules() < m.set_energy().as_joules());
        assert!(m.reset_time().as_nanos() <= DeviceParams::paper().cycle_ns);
        assert!(m.reset_energy().as_joules() > 0.0);
    }

    #[test]
    fn pulse_energy_scales_with_duration() {
        let m = model();
        let mut c1 = m.cell_off();
        let mut c2 = m.cell_off();
        let e1 = m.apply_pulse(&mut c1, 0.1, 1e-9).energy;
        let e2 = m.apply_pulse(&mut c2, 0.1, 2e-9).energy;
        assert!(e2.as_joules() > 1.9 * e1.as_joules());
    }

    #[test]
    #[should_panic(expected = "invalid device parameters")]
    fn invalid_params_panic() {
        let mut p = DeviceParams::paper();
        p.r_off_ohms = 1.0;
        let _ = VteamModel::new(&p);
    }
}
