//! Recorded microprograms of the hand-written kernels, pinned op for op.
//!
//! Each case pins a read-back value, the charged cycles and energy, the
//! trace length and an FNV-1a digest over every recorded op's `Debug`
//! rendering. The cases are every `apim-verify` kernel at widths 8, 16 and
//! 32 (the exact sweep), the multiplier and the fused MAC under the
//! relaxed §3.4 final add, and the in-memory subtractor. Any change to the
//! emitted primitives, their order or their operands moves a digest.

use apim_crossbar::{
    BlockId, BlockedCrossbar, CrossbarConfig, OpTrace, RowAllocator, RowRef, TraceOp,
};
use apim_device::{Cycles, Device};
use apim_logic::adder_serial::SerialScratch;
use apim_logic::mac::CrossbarMac;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::subtractor::sub_words;
use apim_logic::PrecisionMode;
use apim_verify::{record_kernel, Kernel};

/// What one recorded execution is pinned by.
#[derive(Debug, Clone, PartialEq)]
struct Pin {
    value: u64,
    cycles: u64,
    energy_j: f64,
    trace_len: usize,
    digest: u64,
}

/// FNV-1a (64-bit) over the `Debug` rendering of each item, one newline
/// after each.
fn fnv1a<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for item in items {
        for byte in format!("{item:?}\n").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Replays `trace` on a fresh crossbar of the recorded geometry (paper
/// device) and pins what it leaves behind: the value is an FNV-1a digest
/// of every cell, 64 bitlines at a time.
fn replay_pin(trace: &OpTrace) -> Pin {
    let mut xbar = BlockedCrossbar::new(CrossbarConfig {
        blocks: trace.blocks,
        rows: trace.rows,
        cols: trace.cols,
        ..CrossbarConfig::default()
    })
    .unwrap();
    let b: Vec<BlockId> = (0..trace.blocks).map(|i| xbar.block(i).unwrap()).collect();
    for op in trace.ops.iter().cloned() {
        match op {
            TraceOp::PreloadBit {
                block,
                row,
                col,
                value,
            } => xbar.preload_bit(b[block], row, col, value),
            TraceOp::PreloadWord {
                block,
                row,
                col0,
                bits,
            } => xbar.preload_word(b[block], row, col0, &bits),
            TraceOp::ReadBit { block, row, col } => xbar.read_bit(b[block], row, col).map(drop),
            TraceOp::MajRead { block, cells } => xbar.maj_read(b[block], cells).map(drop),
            TraceOp::WriteBackBit {
                block,
                row,
                col,
                value,
            } => xbar.write_back_bit(b[block], row, col, value),
            TraceOp::InitRows { block, rows, cols } => xbar.init_rows(b[block], &rows, cols),
            TraceOp::InitCells { block, cells } => xbar.init_cells(b[block], &cells),
            TraceOp::InitCols { block, cols, rows } => xbar.init_cols(b[block], &cols, rows),
            TraceOp::NorRowsShifted {
                inputs,
                out,
                cols,
                shift,
            } => {
                let inputs: Vec<RowRef> = inputs
                    .iter()
                    .map(|&(blk, row)| RowRef::new(b[blk], row))
                    .collect();
                xbar.nor_rows_shifted(&inputs, RowRef::new(b[out.0], out.1), cols, shift)
            }
            TraceOp::NorCols {
                block,
                input_cols,
                out_col,
                rows,
            } => xbar.nor_cols(b[block], &input_cols, out_col, rows),
            TraceOp::NorCells { block, inputs, out } => xbar.nor_cells(b[block], &inputs, out),
            TraceOp::NorLanes {
                block,
                inputs,
                out,
                lanes,
            } => xbar.nor_lanes(b[block], &inputs, out, lanes),
            TraceOp::AdvanceCycles { cycles } => {
                xbar.advance_cycles(Cycles::new(cycles));
                Ok(())
            }
            TraceOp::RewindCycles { cycles } => {
                xbar.rewind_cycles(Cycles::new(cycles));
                Ok(())
            }
        }
        .unwrap();
    }
    let mut words = Vec::new();
    for &block in &b {
        for row in 0..trace.rows {
            for col0 in (0..trace.cols).step_by(64) {
                let width = (trace.cols - col0).min(64);
                words.push(xbar.peek_u64(block, row, col0, width).unwrap());
            }
        }
    }
    assert_eq!(xbar.stats().cycles.get(), trace.cycles());
    Pin {
        value: fnv1a(&words),
        cycles: xbar.stats().cycles.get(),
        energy_j: xbar.stats().energy.as_joules(),
        trace_len: trace.len(),
        digest: fnv1a(&trace.ops),
    }
}

/// Shorthand for the pin tables below.
fn pin(value: u64, cycles: u64, energy_j: f64, trace_len: usize, digest: u64) -> Pin {
    Pin {
        value,
        cycles,
        energy_j,
        trace_len,
        digest,
    }
}

#[test]
fn verify_kernels_match_their_pins() {
    #[rustfmt::skip]
    let cases = [
        (Kernel::Gates, 8, pin(0x20e8_9626_3b58_06de, 20, 1.945_659_212_426_963e-12, 42, 0x4375_2e36_1f0e_0bba)),
        (Kernel::Gates, 16, pin(0xf38b_4b85_f78d_e325, 20, 3.471_318_424_853_927e-12, 42, 0x91a8_4d7e_f8ee_acfe)),
        (Kernel::Gates, 32, pin(0xf487_9a03_1519_eb39, 20, 6.522_636_849_707_857e-12, 42, 0x9b9d_93bf_93ee_13da)),
        (Kernel::SerialAdder, 8, pin(0x2e58_bb6f_f356_d6e2, 97, 2.928_060_453_041_943_6e-12, 197, 0xf027_fda9_6da4_76e0)),
        (Kernel::SerialAdder, 16, pin(0x9b09_3d83_c4ae_f0e6, 193, 5.792_501_070_258_64e-12, 389, 0x537e_4ca1_66df_5a0f)),
        (Kernel::SerialAdder, 32, pin(0x0f2b_86d1_a782_8d42, 385, 1.152_138_230_469_213e-11, 773, 0x568e_01d1_5161_ff4c)),
        (Kernel::CsaGroup, 8, pin(0xf637_e276_13b0_b0ed, 13, 1.486_165_209_320_222_2e-12, 31, 0xdc69_ef05_690f_ec1b)),
        (Kernel::CsaGroup, 16, pin(0x677a_0ea9_178d_eb61, 13, 2.644_177_237_540_123_7e-12, 31, 0xf1a1_948a_aaed_0b69)),
        (Kernel::CsaGroup, 32, pin(0xe272_a819_f3b0_c366, 13, 4.960_201_293_979_928e-12, 31, 0xfcdb_8661_c3d4_19e5)),
        (Kernel::WallaceTree, 8, pin(0x7df4_7b9c_d9e5_07a4, 52, 1.010_416_772_038_723_4e-11, 214, 0xaace_20c0_f9ef_4ba1)),
        (Kernel::WallaceTree, 16, pin(0x66fa_3d55_60e4_955a, 52, 1.797_218_658_252_202_5e-11, 214, 0xb0cb_e69c_7b0f_9847)),
        (Kernel::WallaceTree, 32, pin(0xf522_ee20_b074_ddb7, 52, 3.370_822_430_679_165e-11, 214, 0xe3ff_8834_86d5_3f03)),
        (Kernel::Multiplier, 8, pin(0x3179_38a0_c45a_cf05, 238, 1.548_356_189_770_092_8e-11, 516, 0xd35a_effb_f900_2c09)),
        (Kernel::Multiplier, 16, pin(0x9717_3e24_4044_41ff, 461, 5.559_613_113_963_753e-11, 1075, 0x2df4_d8c7_38f0_f5b4)),
        (Kernel::Multiplier, 32, pin(0x672b_246d_abd1_8246, 864, 1.659_274_338_137_931_3e-10, 2051, 0x26d4_2cf9_4e91_c51b)),
        (Kernel::Mac, 8, pin(0x8e66_24cb_9768_77cb, 176, 1.856_863_011_669_712_3e-11, 546, 0x1cac_db57_cd40_99ee)),
        (Kernel::Mac, 16, pin(0x1930_1bf1_b18c_a3dc, 272, 3.395_289_023_811_901e-11, 762, 0x493d_3f20_ef99_d61b)),
        (Kernel::Mac, 32, pin(0xf2a2_6ff6_fb32_5c01, 464, 6.472_141_048_096_203e-11, 1194, 0x3ce8_25b1_e0da_a09b)),
    ];
    assert_eq!(
        cases.len(),
        Kernel::ALL.len() * 3,
        "every kernel at every width"
    );
    for (kernel, width, expected) in cases {
        let recorded = record_kernel(kernel, width).unwrap();
        assert_eq!(
            replay_pin(&recorded.trace),
            expected,
            "{kernel:?} at {width} bits"
        );
    }
}

fn relaxed() -> PrecisionMode {
    PrecisionMode::LastStage { relax_bits: 4 }
}

#[test]
fn relaxed_multiply_matches_its_pin() {
    let mut mul = CrossbarMultiplier::new(16, &Device::default()).unwrap();
    mul.crossbar_mut().start_recording();
    let run = mul.multiply(0xBEEF, 0xCAFE, relaxed()).unwrap();
    let trace = mul.crossbar_mut().stop_recording();
    let got = Pin {
        value: run.product as u64,
        cycles: run.stats.cycles.get(),
        energy_j: run.stats.energy.as_joules(),
        trace_len: trace.len(),
        digest: fnv1a(&trace.ops),
    };
    assert_eq!(
        got,
        pin(
            2_540_046_127,
            423,
            5.907_770_272_345_562e-11,
            1020,
            0x4519_f907_dc98_6891
        )
    );
}

#[test]
fn relaxed_mac_matches_its_pin() {
    let mut mac = CrossbarMac::new(16, 3, &Device::default()).unwrap();
    mac.crossbar_mut().start_recording();
    let terms = [(0x3A5C, 0x00B7), (0x1234, 0x0091), (0x0D05, 0x2036)];
    let run = mac.mac(&terms, relaxed()).unwrap();
    let trace = mac.crossbar_mut().stop_recording();
    let got = Pin {
        value: run.value,
        cycles: run.stats.cycles.get(),
        energy_j: run.stats.energy.as_joules(),
        trace_len: trace.len(),
        digest: fnv1a(&trace.ops),
    };
    assert_eq!(
        got,
        pin(
            26_191,
            249,
            4.099_084_478_698_561_4e-11,
            780,
            0xbcb7_dd75_dfb3_7c24
        )
    );
}

#[test]
fn subtractor_matches_its_pin() {
    let n = 8;
    let mut xbar = BlockedCrossbar::new(CrossbarConfig::default()).unwrap();
    let blk = xbar.block(1).unwrap();
    let mut alloc = RowAllocator::new(xbar.rows());
    let rows = alloc.alloc_many(4).unwrap(); // x, y, ȳ, out
    let scratch = SerialScratch::alloc(&mut alloc).unwrap();
    xbar.start_recording();
    xbar.preload_u64(blk, rows[0], 0, n, 0x5A).unwrap();
    xbar.preload_u64(blk, rows[1], 0, n, 0xC3).unwrap();
    sub_words(
        &mut xbar,
        blk,
        rows[0],
        rows[1],
        rows[2],
        rows[3],
        0..n,
        &scratch,
    )
    .unwrap();
    let trace = xbar.stop_recording();
    let got = Pin {
        value: xbar.peek_u64(blk, rows[3], 0, n).unwrap(),
        cycles: xbar.stats().cycles.get(),
        energy_j: xbar.stats().energy.as_joules(),
        trace_len: trace.len(),
        digest: fnv1a(&trace.ops),
    };
    assert_eq!(
        got,
        pin(
            0x97,
            98,
            3.020_712_777_443_228_5e-12,
            199,
            0x1f50_84d3_cd8b_43bc
        )
    );
}
