//! Property-based tests of the device layer: the VTEAM integration must
//! behave like a physical memristor.

use apim_device::vteam::VteamModel;
use apim_device::{Cycles, Device, DeviceParams, Joules, Seconds, TimingModel};
use proptest::prelude::*;

proptest! {
    #[test]
    fn sub_threshold_voltages_never_switch(v in -0.69f64..0.29) {
        let model = VteamModel::new(&DeviceParams::paper());
        let mut off = model.cell_off();
        let mut on = model.cell_on();
        let w_off = off.state();
        let w_on = on.state();
        model.apply_pulse(&mut off, v, 5e-9);
        model.apply_pulse(&mut on, v, 5e-9);
        prop_assert_eq!(off.state(), w_off);
        prop_assert_eq!(on.state(), w_on);
    }

    #[test]
    fn stronger_set_pulses_switch_no_slower(v1 in 0.8f64..1.0, dv in 0.05f64..0.5) {
        let params = DeviceParams::paper();
        let model = VteamModel::new(&params);
        let v2 = v1 + dv;
        let t = 0.4e-9;
        let mut weak = model.cell_off();
        let mut strong = model.cell_off();
        model.apply_pulse(&mut weak, -v1, t);
        model.apply_pulse(&mut strong, -v2, t);
        // More drive moves the state at least as far toward RON.
        prop_assert!(strong.state() <= weak.state() + 1e-15);
    }

    #[test]
    fn pulse_energy_is_additive_in_time(v in 0.05f64..0.25, t in 0.1e-9..2e-9) {
        let model = VteamModel::new(&DeviceParams::paper());
        // Sub-threshold: the state is frozen, so dissipation is linear.
        let mut c1 = model.cell_off();
        let e1 = model.apply_pulse(&mut c1, v, t).energy.as_joules();
        let mut c2 = model.cell_off();
        let e2 = model.apply_pulse(&mut c2, v, 2.0 * t).energy.as_joules();
        prop_assert!((e2 - 2.0 * e1).abs() < 0.02 * e2.max(1e-30));
    }

    #[test]
    fn resistance_stays_within_device_bounds(v in -1.5f64..1.5, t in 0.0f64..5e-9) {
        let params = DeviceParams::paper();
        let model = VteamModel::new(&params);
        let mut cell = model.cell_off();
        model.apply_pulse(&mut cell, v, t);
        prop_assert!(cell.resistance_ohms() >= params.r_on_ohms - 1.0);
        prop_assert!(cell.resistance_ohms() <= params.r_off_ohms + 1.0);
    }

    #[test]
    fn energy_model_scales_affinely_with_width(w1 in 1usize..256, w2 in 1usize..256) {
        let device = Device::paper();
        let em = device.energy();
        let e = |w: usize| em.nor_op(w).as_joules();
        let per_cell = em.nor_per_cell().as_joules();
        let predicted = e(w1) + (w2 as f64 - w1 as f64) * per_cell;
        prop_assert!((e(w2) - predicted).abs() < 1e-18);
    }

    #[test]
    fn cycles_to_time_is_linear(c1 in 0u64..1_000_000, c2 in 0u64..1_000_000) {
        let tm = TimingModel::new(&DeviceParams::paper());
        let t = |c: u64| tm.cycles_to_time(Cycles::new(c)).as_secs();
        prop_assert!((t(c1 + c2) - (t(c1) + t(c2))).abs() < 1e-15);
    }

    #[test]
    fn unit_arithmetic_is_consistent(pj in 0.0f64..1e6, ns in 0.0f64..1e6) {
        let e = Joules::from_picojoules(pj);
        let t = Seconds::from_nanos(ns);
        let edp = e * t;
        prop_assert!((edp.as_joule_seconds() - pj * 1e-12 * ns * 1e-9).abs() < 1e-20);
    }
}
