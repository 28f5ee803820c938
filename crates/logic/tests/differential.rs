//! Kernel-level differential suite: every arithmetic kernel runs on the
//! bit-packed production backend and on the scalar reference oracle, and
//! must produce identical values, cycle/energy statistics, wear counters
//! and final cell state at widths 8/16/32/64.

use apim_crossbar::{Backend, BlockedCrossbar, CrossbarConfig, RowAllocator};
use apim_device::Device;
use apim_logic::adder_serial::SerialScratch;
use apim_logic::lanes::{add_lanes, preload_lanes, read_lanes};
use apim_logic::mac::CrossbarMac;
use apim_logic::multiplier::CrossbarMultiplier;
use apim_logic::{divider, subtractor, PrecisionMode};
use proptest::prelude::*;

const WIDTHS: [usize; 4] = [8, 16, 32, 64];

/// Full observable crossbar state: cell bits plus per-cell wear.
fn observe(x: &BlockedCrossbar) -> (Vec<bool>, Vec<u64>) {
    let mut bits = Vec::new();
    let mut wear = Vec::new();
    for blk in 0..x.block_count() {
        let b = x.block(blk).unwrap();
        for row in 0..x.rows() {
            for col in 0..x.cols() {
                bits.push(x.peek_bit(b, row, col).unwrap());
                wear.push(x.cell_writes(b, row, col).unwrap());
            }
        }
    }
    (bits, wear)
}

fn assert_same(packed: &BlockedCrossbar, scalar: &BlockedCrossbar, what: &str) {
    assert_eq!(packed.stats(), scalar.stats(), "{what}: stats diverged");
    assert_eq!(observe(packed), observe(scalar), "{what}: state diverged");
    assert_eq!(
        packed.wear_report(),
        scalar.wear_report(),
        "{what}: wear diverged"
    );
}

fn standalone_pair(backendless_rows: usize, cols: usize) -> (BlockedCrossbar, BlockedCrossbar) {
    let cfg = |backend| CrossbarConfig {
        blocks: 2,
        rows: backendless_rows,
        cols,
        backend,
        ..CrossbarConfig::default()
    };
    (
        BlockedCrossbar::new(cfg(Backend::Packed)).unwrap(),
        BlockedCrossbar::new(cfg(Backend::Scalar)).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multiplier_is_backend_independent(a: u64, b: u64, relax in 0u32..16) {
        let device = Device::default();
        for n in WIDTHS {
            let n = n as u32;
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let (a, b) = (a & mask, b & mask);
            let mut packed = CrossbarMultiplier::with_backend(n, &device, Backend::Packed).unwrap();
            let mut scalar = CrossbarMultiplier::with_backend(n, &device, Backend::Scalar).unwrap();
            for mode in [
                PrecisionMode::Exact,
                PrecisionMode::LastStage {
                    relax_bits: relax.min(n - 1) as u8,
                },
            ] {
                let rp = packed.multiply(a, b, mode).unwrap();
                let rs = scalar.multiply(a, b, mode).unwrap();
                prop_assert_eq!(rp.product, rs.product, "n={} mode={:?}", n, mode);
                prop_assert_eq!(rp.stats, rs.stats);
            }
            assert_same(packed.crossbar(), scalar.crossbar(), "multiplier");
        }
    }

    #[test]
    fn mac_is_backend_independent(terms in proptest::collection::vec((0u64.., 0u64..), 1..4)) {
        let device = Device::default();
        for n in [8u32, 16, 32] {
            let mask = (1u64 << n) - 1;
            let terms: Vec<(u64, u64)> =
                terms.iter().map(|&(a, b)| (a & mask, b & mask)).collect();
            let mut packed =
                CrossbarMac::with_backend(n, terms.len(), &device, Backend::Packed).unwrap();
            let mut scalar =
                CrossbarMac::with_backend(n, terms.len(), &device, Backend::Scalar).unwrap();
            let rp = packed.mac(&terms, PrecisionMode::Exact).unwrap();
            let rs = scalar.mac(&terms, PrecisionMode::Exact).unwrap();
            prop_assert_eq!(rp.value, rs.value, "n={}", n);
            prop_assert_eq!(rp.stats, rs.stats);
            assert_same(packed.crossbar(), scalar.crossbar(), "mac");
        }
    }

    #[test]
    fn add_lanes_is_backend_independent(pairs in proptest::collection::vec((0u64.., 0u64..), 1..5)) {
        let lanes = pairs.len();
        for n in WIDTHS {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let xs: Vec<u64> = pairs.iter().map(|&(a, _)| a & mask).collect();
            let ys: Vec<u64> = pairs.iter().map(|&(_, b)| b & mask).collect();
            let (mut packed, mut scalar) = standalone_pair(15, (n + 1) * lanes);
            let mut sums = Vec::new();
            for xbar in [&mut packed, &mut scalar] {
                let blk = xbar.block(1).unwrap();
                preload_lanes(xbar, blk, 0, 0, n, lanes, &xs).unwrap();
                preload_lanes(xbar, blk, 1, 0, n, lanes, &ys).unwrap();
                let mut alloc = RowAllocator::new(xbar.rows());
                alloc.alloc_many(3).unwrap();
                let scratch = SerialScratch::alloc(&mut alloc).unwrap();
                add_lanes(xbar, blk, 0, 1, 2, 0..n, lanes, &scratch).unwrap();
                sums.push(read_lanes(xbar, blk, 2, 0, n, lanes).unwrap());
            }
            prop_assert_eq!(&sums[0], &sums[1], "n={}", n);
            assert_same(&packed, &scalar, "add_lanes");
        }
    }

    #[test]
    fn subtract_and_divide_are_backend_independent(x: u64, y: u64) {
        for n in WIDTHS {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let (x, y) = (x & mask, (y & mask).max(1));
            let (mut packed, mut scalar) = standalone_pair(24, 2 * n + 4);
            let bp = packed.block(0).unwrap();
            let bs = scalar.block(0).unwrap();
            let dp = subtractor::subtract(&mut packed, bp, x, y, n).unwrap();
            let ds = subtractor::subtract(&mut scalar, bs, x, y, n).unwrap();
            prop_assert_eq!(dp, ds, "subtract n={}", n);
            assert_same(&packed, &scalar, "subtract");
            // Restoring division on fresh crossbars (divider allocates its
            // own rows); skip 64-bit: the remainder window needs 2n cols.
            if n < 64 {
                let (mut packed, mut scalar) = standalone_pair(24, 2 * n + 4);
                let bp = packed.block(0).unwrap();
                let bs = scalar.block(0).unwrap();
                let qp = divider::divide(&mut packed, bp, x, y, n).unwrap();
                let qs = divider::divide(&mut scalar, bs, x, y, n).unwrap();
                prop_assert_eq!(qp.quotient, qs.quotient, "divide n={}", n);
                prop_assert_eq!(qp.remainder, qs.remainder);
                prop_assert_eq!(qp.cycles, qs.cycles);
                assert_same(&packed, &scalar, "divide");
            }
        }
    }
}
