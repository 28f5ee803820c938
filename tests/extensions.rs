//! Integration tests for the extension features: PGM I/O feeding real
//! kernels, batch multiplication, the in-memory comparator, column-mode
//! MAGIC and the explicit trace schedule.

use apim::prelude::*;
use apim_arch::{Op, Trace};
use apim_crossbar::{BlockedCrossbar, CrossbarConfig, RowAllocator};
use apim_logic::adder_serial::SerialScratch;
use apim_logic::subtractor::greater_equal;
use apim_workloads::image::synthetic_image;
use apim_workloads::pgm::{from_pgm, to_pgm};
use apim_workloads::sobel::sobel;
use apim_workloads::{ExactArith, Image};

#[test]
fn pgm_files_flow_through_the_whole_pipeline() {
    // Scene -> PGM bytes -> parsed image -> Sobel -> PGM bytes again.
    let scene = synthetic_image(32, 24, 77);
    let bytes = to_pgm(&scene);
    let loaded = from_pgm(&bytes).expect("round trip");
    assert_eq!(loaded, scene);
    let edges = sobel(&loaded, &mut ExactArith::new());
    let edge_bytes = to_pgm(&edges);
    let edges_again = from_pgm(&edge_bytes).expect("edge image parses");
    assert_eq!(edges_again.width(), 32);
    assert_eq!(edges_again.height(), 24);
}

#[test]
fn pgm_parser_rejects_garbage_without_panicking() {
    for bad in [
        &b"not a pgm at all"[..],
        &b"P5"[..],
        &b"P5\n-3 4\n255\n"[..],
        &b"P5\n4 4\n999999\nxxxxxxxxxxxxxxxx"[..],
    ] {
        assert!(from_pgm(bad).is_err());
    }
}

#[test]
fn batch_multiply_matches_singles_and_schedules() {
    let apim = Apim::default();
    let pairs: Vec<(u64, u64)> = (1..=40).map(|i| (i * 1_001, i * 2_003)).collect();
    let (reports, cost) = apim.multiply_batch(&pairs, PrecisionMode::LastStage { relax_bits: 8 });
    for (r, &(a, b)) in reports.iter().zip(&pairs) {
        let single = apim.multiply(a, b, PrecisionMode::LastStage { relax_bits: 8 });
        assert_eq!(r.product, single.product);
    }
    // 40 independent multiplies on 2048 units: latency = slowest single.
    let slowest = reports.iter().map(|r| r.cost.cycles).max().unwrap();
    assert_eq!(cost.cycles, slowest);
}

#[test]
fn explicit_schedule_agrees_with_run_trace() {
    let apim = Apim::default();
    let mut trace = Trace::new();
    for ones in [1u32, 4, 9, 16, 32, 2, 7] {
        trace.push(Op::Mul {
            bits: 32,
            multiplier_ones: Some(ones),
            mode: PrecisionMode::Exact,
        });
    }
    trace.push_many(Op::Add { bits: 32 }, 5);
    let cost = apim.executor().run_trace(&trace);
    let schedule = apim.executor().schedule_trace(&trace);
    assert_eq!(cost.cycles, schedule.makespan());
    assert_eq!(schedule.placements().len(), trace.len());
    assert!(schedule.utilization() > 0.0);
}

#[test]
fn gate_level_comparator_drives_a_max_reduction() {
    // A tiny in-memory argmax: compare pairs with the carry-out trick.
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
    let block = xbar.block(1).unwrap();
    let values = [23u64, 200, 57, 199, 3];
    let mut best = values[0];
    for &v in &values[1..] {
        let mut alloc = RowAllocator::new(xbar.rows());
        let rows = alloc.alloc_many(4).unwrap();
        let scratch = SerialScratch::alloc(&mut alloc).unwrap();
        let bits = |x: u64| (0..8).map(|i| (x >> i) & 1 == 1).collect::<Vec<_>>();
        xbar.preload_word(block, rows[0], 0, &bits(v)).unwrap();
        xbar.preload_word(block, rows[1], 0, &bits(best)).unwrap();
        let ge = greater_equal(
            &mut xbar,
            block,
            rows[0],
            rows[1],
            rows[2],
            rows[3],
            0..8,
            &scratch,
        )
        .unwrap();
        if ge {
            best = v;
        }
    }
    assert_eq!(best, 200);
}

#[test]
fn column_mode_magic_computes_a_transposed_not() {
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
    let block = xbar.block(0).unwrap();
    // A word stored vertically: bit i at row i, column 0.
    let word = 0b1011_0010u8;
    for i in 0..8 {
        xbar.preload_bit(block, i, 0, (word >> i) & 1 == 1).unwrap();
    }
    xbar.init_cols(block, &[1], 0..8).unwrap();
    xbar.nor_cols(block, &[0], 1, 0..8).unwrap();
    let got = (0..8).fold(0u8, |acc, i| {
        acc | (u8::from(xbar.peek_bit(block, i, 1).unwrap()) << i)
    });
    assert_eq!(got, !word);
    assert_eq!(xbar.stats().cycles.get(), 1, "column NOR is one cycle");
}

#[test]
fn wear_leveled_multiplier_is_a_drop_in_replacement() {
    use apim_logic::multiplier::CrossbarMultiplier;
    let mut plain = CrossbarMultiplier::new(8, &apim::Device::default()).unwrap();
    let mut leveled =
        CrossbarMultiplier::new_with_wear_leveling(8, &apim::Device::default(), 3).unwrap();
    for (a, b) in [(255u64, 255u64), (173, 89), (6, 240), (99, 99)] {
        for mode in [
            PrecisionMode::Exact,
            PrecisionMode::LastStage { relax_bits: 6 },
        ] {
            let x = plain.multiply(a, b, mode).unwrap();
            let y = leveled.multiply(a, b, mode).unwrap();
            assert_eq!(x.product, y.product, "{a}*{b} {mode}");
            assert_eq!(x.stats.cycles, y.stats.cycles, "{a}*{b} {mode}");
        }
    }
}

#[test]
fn image_type_supports_direct_construction() {
    // Q12 samples straight in (the kernel-output path).
    let img = Image::new(2, 2, vec![0, 4096, 8192, 1_044_480]);
    assert_eq!(img.to_u8(), vec![0, 1, 2, 255]);
}
