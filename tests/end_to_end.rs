//! End-to-end integration: the public facade exercised the way a
//! downstream user would.

use apim::prelude::*;
use apim::{ApimError, App};

#[test]
fn every_app_runs_exactly_and_losslessly() {
    let apim = Apim::default();
    for app in App::all() {
        let run = apim
            .run_with_mode(app, 256 << 20, PrecisionMode::Exact)
            .expect("fits capacity");
        assert_eq!(run.quality.qol_percent, 0.0, "{app}");
        assert!(run.quality.acceptable, "{app}");
        assert!(run.apim.time.as_secs() > 0.0, "{app}");
        assert!(run.apim.energy.as_joules() > 0.0, "{app}");
        assert!(run.gpu.time.as_secs() > 0.0, "{app}");
    }
}

#[test]
fn moderate_approximation_keeps_qos_and_gains() {
    let apim = Apim::default();
    for app in App::all() {
        let exact = apim
            .run_with_mode(app, 1 << 30, PrecisionMode::Exact)
            .unwrap();
        let relaxed = apim
            .run_with_mode(app, 1 << 30, PrecisionMode::LastStage { relax_bits: 8 })
            .unwrap();
        assert!(relaxed.quality.acceptable, "{app} must hold QoS at 8 bits");
        assert!(
            relaxed.apim.edp().as_joule_seconds() < exact.apim.edp().as_joule_seconds(),
            "{app}: relaxation must reduce EDP"
        );
        assert!(
            relaxed.comparison.edp_improvement > exact.comparison.edp_improvement,
            "{app}: GPU-normalized EDP improvement must grow"
        );
    }
}

#[test]
fn first_stage_mode_is_supported_end_to_end() {
    let apim = Apim::default();
    let run = apim
        .run_with_mode(
            App::Sharpen,
            128 << 20,
            PrecisionMode::FirstStage { masked_bits: 4 },
        )
        .unwrap();
    assert!(run.apim.time.as_secs() > 0.0);
    // Masking multiplier LSBs reduces partial products and therefore cost.
    let exact = apim
        .run_with_mode(App::Sharpen, 128 << 20, PrecisionMode::Exact)
        .unwrap();
    assert!(run.apim.time.as_secs() < exact.apim.time.as_secs());
}

#[test]
fn capacity_is_enforced() {
    let apim = Apim::new(
        ApimConfig::builder()
            .capacity_bytes(64 << 20)
            .build()
            .unwrap(),
    )
    .unwrap();
    assert!(apim
        .run_with_mode(App::Fft, 32 << 20, PrecisionMode::Exact)
        .is_ok());
    let err = apim
        .run_with_mode(App::Fft, 128 << 20, PrecisionMode::Exact)
        .unwrap_err();
    assert!(matches!(err, ApimError::Arch(_)));
    assert!(err.to_string().contains("exceeds"));
}

#[test]
fn custom_device_parameters_flow_through() {
    // A slower cycle time must slow everything down proportionally.
    let params = apim::DeviceParams {
        cycle_ns: 2.2,
        ..Default::default()
    };
    let device = apim::Device::new(params).unwrap();
    let slow = Apim::new(ApimConfig::builder().device(device).build().unwrap()).unwrap();
    let fast = Apim::default();
    let app = App::Robert;
    let t_slow = slow
        .run_with_mode(app, 256 << 20, PrecisionMode::Exact)
        .unwrap()
        .apim
        .time;
    let t_fast = fast
        .run_with_mode(app, 256 << 20, PrecisionMode::Exact)
        .unwrap()
        .apim
        .time;
    let ratio = t_slow / t_fast;
    assert!((ratio - 2.0).abs() < 1e-6, "cycle-time scaling: {ratio}");
}

#[test]
fn reports_render_for_humans() {
    let apim = Apim::default();
    let run = apim
        .run_with_mode(
            App::QuasiRandom,
            512 << 20,
            PrecisionMode::LastStage { relax_bits: 16 },
        )
        .unwrap();
    let text = run.to_string();
    assert!(text.contains("QuasiR"));
    assert!(text.contains("speedup"));
}
