//! Cross-crate test: the parallel campaign fast-path on the `apim-serve`
//! worker pool must be a drop-in replacement for the serial sweep —
//! identical rows, identical order, only the wall clock changes. Also
//! covers the pool's pixel path: coalesced pixels keep their deadlines.

use apim::campaign::Campaign;
use apim::{App, PrecisionMode};
use apim_serve::{JobKind, Pool, PoolConfig, Request, ServeError};
use std::time::Duration;

fn pool(workers: usize) -> Pool {
    Pool::new(PoolConfig {
        workers,
        ..PoolConfig::default()
    })
    .expect("valid pool")
}

fn campaign() -> Campaign {
    Campaign::new()
        .apps([App::Fft, App::QuasiRandom, App::DwtHaar1d])
        .dataset_mb([64, 256])
        .modes([
            PrecisionMode::Exact,
            PrecisionMode::LastStage { relax_bits: 8 },
        ])
}

#[test]
fn parallel_campaign_rows_are_identical_to_serial() {
    let serial = campaign().run().expect("serial sweep");
    let parallel = campaign().run_parallel(&pool(4)).expect("parallel sweep");
    assert_eq!(serial.rows().len(), 12);
    assert_eq!(serial.rows().len(), parallel.rows().len(), "same row count");
    for (s, p) in serial.rows().iter().zip(parallel.rows()) {
        // Bit-exact equality of every field, via the exhaustive Debug
        // rendering (RunReport holds floats, which must match exactly:
        // the parallel path runs the very same deterministic simulator).
        assert_eq!(format!("{s:?}"), format!("{p:?}"));
    }
    // And the derived artifacts agree too.
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn parallel_campaign_propagates_oversized_datasets() {
    let err = Campaign::new()
        .apps([App::Fft])
        .dataset_mb([1 << 20])
        .run_parallel(&pool(2))
        .unwrap_err();
    assert!(err.to_string().contains("exceeds"), "{err}");
}

#[test]
fn parallel_campaign_works_on_a_single_worker() {
    let serial = campaign().run().expect("serial sweep");
    let parallel = campaign().run_parallel(&pool(1)).expect("parallel sweep");
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn coalesced_pixels_keep_their_deadlines() {
    let requests: Vec<Request> = (0..8u64)
        .map(|i| {
            Request::new(JobKind::Pixel {
                app: App::Sharpen,
                taps: vec![100 + i, 3 + i, 5 + i, 7 + i, 11 + i],
            })
            .deadline(Duration::from_nanos(1))
        })
        .collect();
    let responses = pool(1).run_all(requests).expect("run_all");
    assert_eq!(responses.len(), 8);
    for (i, response) in responses.iter().enumerate() {
        assert!(
            matches!(response.result, Err(ServeError::DeadlineExceeded)),
            "pixel {i}: {:?}",
            response.result
        );
        assert_eq!(response.attempts, 0, "pixel {i}");
    }
}
