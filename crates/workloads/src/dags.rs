//! The Sobel and Sharpen inner loops as compiler input DAGs.
//!
//! Each function mirrors its hand-written kernel **literally** — one
//! multiplication per nonzero tap, accumulated left to right — so under
//! [`PrecisionMode::Exact`] a compiled gate-level execution must match the
//! [`crate::sharpen::sharpen`] / [`crate::sobel::sobel`] output bit for
//! bit. The negative tap weights are plain negative constants: recovering
//! the cheap form (`x·|c|` + flipped accumulate) is the compiler's
//! strength-reduction job, not the DAG author's.
//!
//! Words are 64-bit because the hand kernels accumulate in `i64`: the
//! Q12×Q12 products are Q24 and must not wrap during accumulation.
//!
//! The `*_hand_cycles` functions price the op stream the hand-written
//! kernel would issue per pixel on APIM (multiplier magnitudes — the
//! sign rides the complement row, as in
//! [`apim_logic::functional::multiply_signed`]) so callers can compare a
//! compiled program's cycle cost against the hand baseline
//! (`apim-cli compile <kernel> --compare`).

use std::collections::HashMap;

use apim_compile::{BatchCompiledProgram, CompileError, CompiledProgram, Dag};
use apim_logic::{CostModel, PrecisionMode};

use crate::arith::FX_SHIFT;
use crate::image::Image;

/// DAG word width: the hand kernels accumulate Q24 products in `i64`.
pub const DAG_WIDTH: u32 = 64;

/// Q12 sharpening center weight (`5 << FX_SHIFT`).
const SHARPEN_CENTER: i64 = 5 << FX_SHIFT;
/// Q12 sharpening cross weight (`-1 << FX_SHIFT`).
const SHARPEN_CROSS: i64 = -(1 << FX_SHIFT);
/// Q12 Sobel unit weight (1/6 normalization, as in [`crate::sobel`]).
const SOBEL_W1: i64 = (1 << FX_SHIFT) / 6;
/// Q12 Sobel double weight.
const SOBEL_W2: i64 = 2 * SOBEL_W1;

fn const_node(dag: &mut Dag, value: i64) -> apim_compile::NodeId {
    dag.constant(value as u64)
}

/// Fixed-point shift for a `width`-bit build of the workload DAGs: the
/// full Q12 weights need 64-bit accumulation, so narrower builds (used by
/// the `--equiv` sweep) scale the format down to keep every tap nonzero.
/// At [`DAG_WIDTH`] this is exactly [`FX_SHIFT`].
pub fn fx_shift_for(width: u32) -> u32 {
    FX_SHIFT.min(width / 4)
}

/// The sharpen inner loop: `(5c - n - s - w - e) << fx >> fx` over inputs
/// `c` (center) and `n`/`s`/`w`/`e` (4-neighborhood), exactly as
/// [`crate::sharpen::sharpen`] issues it — five tap multiplications and a
/// running sum, then the renormalizing shift (`fx` is
/// [`fx_shift_for(width)`](fx_shift_for); Q12 at full width). The host
/// clamps to pixel range afterwards, like the hand kernel.
///
/// # Errors
///
/// Rejects widths outside the crossbar-supported `4..=64` range.
pub fn sharpen_dag_at(width: u32) -> Result<Dag, CompileError> {
    let mut dag = Dag::new(width)?;
    let fx = fx_shift_for(width);
    let center = 5i64 << fx;
    let cross = -(1i64 << fx);
    let mut acc = None;
    // The center tap leads the accumulation: an Add can absorb only one
    // negated product, so pairing two cross taps first would leave one
    // multiplication stuck with its expensive negative constant.
    for (name, weight) in [
        ("c", center),
        ("n", cross),
        ("w", cross),
        ("e", cross),
        ("s", cross),
    ] {
        let tap = dag.input(name)?;
        let weight = const_node(&mut dag, weight);
        let product = dag.mul(tap, weight, PrecisionMode::Exact)?;
        acc = Some(match acc {
            None => product,
            Some(prev) => dag.add(prev, product)?,
        });
    }
    let renorm = dag.shr(acc.expect("five taps"), fx)?;
    dag.set_root(renorm)?;
    Ok(dag)
}

/// [`sharpen_dag_at`] at the hand kernel's full [`DAG_WIDTH`].
///
/// # Panics
///
/// Never — the DAG is statically well-formed.
pub fn sharpen_dag() -> Dag {
    sharpen_dag_at(DAG_WIDTH).expect("full-width sharpen DAG is well-formed")
}

/// One Sobel gradient (the horizontal one; the vertical is the same DAG
/// over transposed samples): six weighted taps accumulated in the hand
/// kernel's order. Inputs `l0..l2` are the left kernel column
/// (weights −1,−2,−1 × w) and `r0..r2` the right (+1,+2,+1 × w), row by
/// row, where `w` is the 1/6-normalized unit weight of the width's
/// fixed-point format. The root is the full-precision gradient —
/// magnitude and renormalization stay on the host, as in
/// [`crate::sobel::sobel`].
///
/// # Errors
///
/// Rejects widths outside the crossbar-supported `4..=64` range.
pub fn sobel_gradient_dag_at(width: u32) -> Result<Dag, CompileError> {
    let mut dag = Dag::new(width)?;
    // Keep the unit weight nonzero even where the narrowed fixed-point
    // one (`1 << fx`) is smaller than the 1/6 normalizer.
    let w1 = ((1i64 << fx_shift_for(width)) / 6).max(1);
    let w2 = 2 * w1;
    let mut acc = None;
    for (name, weight) in [
        ("l0", -w1),
        ("r0", w1),
        ("l1", -w2),
        ("r1", w2),
        ("l2", -w1),
        ("r2", w1),
    ] {
        let tap = dag.input(name)?;
        let weight = const_node(&mut dag, weight);
        let product = dag.mul(tap, weight, PrecisionMode::Exact)?;
        acc = Some(match acc {
            None => product,
            Some(prev) => dag.add(prev, product)?,
        });
    }
    dag.set_root(acc.expect("six taps"))?;
    Ok(dag)
}

/// [`sobel_gradient_dag_at`] at the hand kernel's full [`DAG_WIDTH`].
///
/// # Panics
///
/// Never — the DAG is statically well-formed.
pub fn sobel_gradient_dag() -> Dag {
    sobel_gradient_dag_at(DAG_WIDTH).expect("full-width Sobel DAG is well-formed")
}

/// Analytic per-pixel cycle cost of the hand-written sharpen inner loop:
/// five constant-multiplier products (center `5<<12` has two set bits,
/// the cross magnitudes one), five serial accumulates and the final
/// renormalizing shift.
pub fn sharpen_hand_cycles(model: &CostModel) -> u64 {
    let mode = PrecisionMode::Exact;
    let center = (SHARPEN_CENTER as u64).count_ones();
    let cross = (SHARPEN_CROSS.unsigned_abs()).count_ones();
    let mut cycles = model
        .multiply_trunc_with_ones(DAG_WIDTH, center, mode)
        .cycles
        .get();
    cycles += 4 * model
        .multiply_trunc_with_ones(DAG_WIDTH, cross, mode)
        .cycles
        .get();
    cycles += 5 * model.serial_add(DAG_WIDTH).cycles.get();
    cycles += model.shift_copy(DAG_WIDTH, -(FX_SHIFT as i32)).cycles.get();
    cycles
}

/// Analytic per-pixel cycle cost of one hand-written Sobel gradient: six
/// weighted taps and six serial accumulates.
pub fn sobel_gradient_hand_cycles(model: &CostModel) -> u64 {
    let mode = PrecisionMode::Exact;
    let w1 = (SOBEL_W1 as u64).count_ones();
    let w2 = (SOBEL_W2 as u64).count_ones();
    let mut cycles = 4 * model
        .multiply_trunc_with_ones(DAG_WIDTH, w1, mode)
        .cycles
        .get();
    cycles += 2 * model
        .multiply_trunc_with_ones(DAG_WIDTH, w2, mode)
        .cycles
        .get();
    cycles += 6 * model.serial_add(DAG_WIDTH).cycles.get();
    cycles
}

fn bind(pairs: &[(&str, i64)]) -> HashMap<String, u64> {
    pairs
        .iter()
        .map(|&(name, v)| (name.to_string(), v as u64))
        .collect()
}

/// Runs the sharpening filter with every pixel's inner loop executed by
/// `program`, the compiled [`sharpen_dag`], at the gate level — the
/// compiler-driven twin of [`crate::sharpen::sharpen`]. The caller
/// compiles once; the program is re-run per pixel.
///
/// # Errors
///
/// Propagates execution/verification errors from `apim-compile`.
pub fn sharpen_via_dag(program: &CompiledProgram, input: &Image) -> Result<Image, CompileError> {
    let (w, h) = (input.width(), input.height());
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h as isize {
        for x in 0..w as isize {
            let inputs = bind(&[
                ("c", i64::from(input.get_clamped(x, y))),
                ("n", i64::from(input.get_clamped(x, y - 1))),
                ("s", i64::from(input.get_clamped(x, y + 1))),
                ("w", i64::from(input.get_clamped(x - 1, y))),
                ("e", i64::from(input.get_clamped(x + 1, y))),
            ]);
            let acc = program.run(&inputs)?.value as i64;
            out.push(acc.clamp(0, i64::from(255 << FX_SHIFT)) as i32);
        }
    }
    Ok(Image::new(w, h, out))
}

/// The two per-pixel gradient values computed by [`sobel_gradient_dag`]
/// at the gate level: `(gx, gy)` in Q24, matching the tap order of
/// [`crate::sobel::sobel`].
///
/// # Errors
///
/// Propagates compile/placement/verification errors from `apim-compile`.
pub fn sobel_gradients_via_dag(
    program: &CompiledProgram,
    input: &Image,
    x: isize,
    y: isize,
) -> Result<(i64, i64), CompileError> {
    let tap = |dx: isize, dy: isize| i64::from(input.get_clamped(x + dx - 1, y + dy - 1));
    // Horizontal: left/right kernel columns, row by row.
    let gx = program.run(&bind(&[
        ("l0", tap(0, 0)),
        ("l1", tap(0, 1)),
        ("l2", tap(0, 2)),
        ("r0", tap(2, 0)),
        ("r1", tap(2, 1)),
        ("r2", tap(2, 2)),
    ]))?;
    // Vertical: the transpose — top/bottom kernel rows.
    let gy = program.run(&bind(&[
        ("l0", tap(0, 0)),
        ("l1", tap(1, 0)),
        ("l2", tap(2, 0)),
        ("r0", tap(0, 2)),
        ("r1", tap(1, 2)),
        ("r2", tap(2, 2)),
    ]))?;
    Ok((gx.value as i64, gy.value as i64))
}

/// Runs one pixel tile through a lane-batched program: pads a partial
/// tile by repeating its last binding (lanes are independent, so padding
/// lanes just recompute a pixel whose result is discarded) and returns
/// only the `bindings.len()` live lane values.
fn run_tile(
    program: &BatchCompiledProgram,
    mut bindings: Vec<HashMap<String, u64>>,
) -> Result<Vec<u64>, CompileError> {
    let used = bindings.len();
    let pad = bindings.last().expect("tiles are non-empty").clone();
    bindings.resize(program.lanes(), pad);
    let mut values = program.run(&bindings)?.values;
    values.truncate(used);
    Ok(values)
}

/// The sharpen tap bindings for pixel `(x, y)` — identical to the serial
/// [`sharpen_via_dag`] loop body.
fn sharpen_taps(input: &Image, x: isize, y: isize) -> HashMap<String, u64> {
    bind(&[
        ("c", i64::from(input.get_clamped(x, y))),
        ("n", i64::from(input.get_clamped(x, y - 1))),
        ("s", i64::from(input.get_clamped(x, y + 1))),
        ("w", i64::from(input.get_clamped(x - 1, y))),
        ("e", i64::from(input.get_clamped(x + 1, y))),
    ])
}

/// Lane-batched [`sharpen_via_dag`]: `program` is [`sharpen_dag`]
/// compiled by [`apim_compile::compile_batched`], run once per `program.lanes()`-pixel
/// tile instead of once per pixel — every lane carries one pixel's five
/// taps, and a single gate-level pass produces the whole tile (§3.1's
/// column parallelism across *instances*). The serial path remains the
/// differential oracle; outputs are bit-identical.
///
/// # Errors
///
/// Propagates execution/verification errors from `apim-compile`.
pub fn sharpen_via_dag_batched(
    program: &BatchCompiledProgram,
    input: &Image,
) -> Result<Image, CompileError> {
    let lanes = program.lanes();
    let (w, h) = (input.width(), input.height());
    let coords: Vec<(isize, isize)> = (0..h as isize)
        .flat_map(|y| (0..w as isize).map(move |x| (x, y)))
        .collect();
    let mut out = Vec::with_capacity(w * h);
    for tile in coords.chunks(lanes) {
        let bindings = tile
            .iter()
            .map(|&(x, y)| sharpen_taps(input, x, y))
            .collect();
        for acc in run_tile(program, bindings)? {
            out.push((acc as i64).clamp(0, i64::from(255 << FX_SHIFT)) as i32);
        }
    }
    Ok(Image::new(w, h, out))
}

/// Lane-batched Sobel: gradient magnitudes for the whole image with each
/// `program.lanes()`-pixel tile computed in two gate-level passes (one
/// per gradient direction) of `program`, the [`apim_compile::compile_batched`]
/// [`sobel_gradient_dag`], instead of two passes *per pixel*. Magnitude
/// and renormalization stay on the host, exactly as in
/// [`crate::sobel::sobel`] — outputs are bit-identical to the hand kernel.
///
/// # Errors
///
/// Propagates execution/verification errors from `apim-compile`.
pub fn sobel_via_dag_batched(
    program: &BatchCompiledProgram,
    input: &Image,
) -> Result<Image, CompileError> {
    let lanes = program.lanes();
    let (w, h) = (input.width(), input.height());
    let coords: Vec<(isize, isize)> = (0..h as isize)
        .flat_map(|y| (0..w as isize).map(move |x| (x, y)))
        .collect();
    let mut out = Vec::with_capacity(w * h);
    for tile in coords.chunks(lanes) {
        let tap = |x: isize, y: isize, dx: isize, dy: isize| {
            i64::from(input.get_clamped(x + dx - 1, y + dy - 1))
        };
        let gx_bindings = tile
            .iter()
            .map(|&(x, y)| {
                bind(&[
                    ("l0", tap(x, y, 0, 0)),
                    ("l1", tap(x, y, 0, 1)),
                    ("l2", tap(x, y, 0, 2)),
                    ("r0", tap(x, y, 2, 0)),
                    ("r1", tap(x, y, 2, 1)),
                    ("r2", tap(x, y, 2, 2)),
                ])
            })
            .collect();
        let gy_bindings = tile
            .iter()
            .map(|&(x, y)| {
                bind(&[
                    ("l0", tap(x, y, 0, 0)),
                    ("l1", tap(x, y, 1, 0)),
                    ("l2", tap(x, y, 2, 0)),
                    ("r0", tap(x, y, 0, 2)),
                    ("r1", tap(x, y, 1, 2)),
                    ("r2", tap(x, y, 2, 2)),
                ])
            })
            .collect();
        let gxs = run_tile(program, gx_bindings)?;
        let gys = run_tile(program, gy_bindings)?;
        for (gx, gy) in gxs.into_iter().zip(gys) {
            let (gx, gy) = (gx as i64, gy as i64);
            let mag = ((gx.abs() + gy.abs()) >> FX_SHIFT).clamp(0, i64::from(i32::MAX));
            out.push(mag as i32);
        }
    }
    Ok(Image::new(w, h, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{Arith, ExactArith};
    use crate::image::synthetic_image;
    use crate::sharpen::sharpen;
    use crate::sobel::sobel;
    use apim_compile::{compile, compile_batched, CompileOptions};
    use apim_device::Device;

    #[test]
    fn sharpen_via_dag_is_bit_identical_to_hand_kernel() {
        let img = synthetic_image(6, 6, 42);
        let hand = sharpen(&img, &mut ExactArith::new());
        let program = compile(&sharpen_dag(), &CompileOptions::default()).unwrap();
        let compiled = sharpen_via_dag(&program, &img).unwrap();
        assert_eq!(hand, compiled);
    }

    #[test]
    fn sobel_gradients_match_hand_taps() {
        let img = synthetic_image(6, 6, 7);
        let program = compile(&sobel_gradient_dag(), &CompileOptions::default()).unwrap();
        let mut arith = ExactArith::new();
        for (x, y) in [(0isize, 0isize), (3, 2), (5, 5), (1, 4)] {
            let (gx, gy) = sobel_gradients_via_dag(&program, &img, x, y).unwrap();
            // Recompute with the hand kernel's own tap loop.
            let (mut hx, mut hy) = (0i64, 0i64);
            for (dy, row) in [[-1i64, 0, 1], [-2, 0, 2], [-1, 0, 1]].iter().enumerate() {
                for (dx, &c) in row.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let weight = (c * SOBEL_W1) as i32;
                    let s = img.get_clamped(x + dx as isize - 1, y + dy as isize - 1);
                    let px = arith.mul(s, weight);
                    hx = arith.add(hx, px);
                    let st = img.get_clamped(x + dy as isize - 1, y + dx as isize - 1);
                    let py = arith.mul(st, weight);
                    hy = arith.add(hy, py);
                }
            }
            assert_eq!((gx, gy), (hx, hy), "pixel ({x},{y})");
        }
    }

    #[test]
    fn sobel_magnitude_from_dag_matches_hand_image() {
        let img = synthetic_image(5, 5, 3);
        let hand = sobel(&img, &mut ExactArith::new());
        let program = compile(&sobel_gradient_dag(), &CompileOptions::default()).unwrap();
        for y in 0..5isize {
            for x in 0..5isize {
                let (gx, gy) = sobel_gradients_via_dag(&program, &img, x, y).unwrap();
                let mag = ((gx.abs() + gy.abs()) >> FX_SHIFT).clamp(0, i64::from(i32::MAX));
                assert_eq!(
                    mag as i32,
                    hand.samples()[(y * 5 + x) as usize],
                    "pixel ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn compiled_cost_is_within_quarter_of_hand_baseline() {
        let model = CostModel::new(&Device::default());
        for (dag, hand, name) in [
            (sharpen_dag(), sharpen_hand_cycles(&model), "sharpen"),
            (
                sobel_gradient_dag(),
                sobel_gradient_hand_cycles(&model),
                "sobel",
            ),
        ] {
            let program = compile(&dag, &CompileOptions::default()).unwrap();
            let inputs: HashMap<String, u64> = program
                .dag()
                .inputs()
                .iter()
                .enumerate()
                .map(|(i, name)| (name.to_string(), (i as u64 + 1) << FX_SHIFT))
                .collect();
            let report = program.run(&inputs).unwrap();
            let gap = (report.cycles as f64 - hand as f64).abs() / hand as f64;
            assert!(
                gap <= 0.25,
                "{name}: compiled {} vs hand {hand} cycles ({:.1}% gap)",
                report.cycles,
                gap * 100.0
            );
        }
    }

    #[test]
    fn narrow_dags_verify_equivalent_symbolically() {
        for width in [8u32, 16, 32] {
            for (dag, name) in [
                (sharpen_dag_at(width).unwrap(), "sharpen"),
                (sobel_gradient_dag_at(width).unwrap(), "sobel"),
            ] {
                let program = compile(&dag, &CompileOptions::default()).unwrap();
                let mask = (1u64 << width) - 1;
                let inputs: HashMap<String, u64> = program
                    .dag()
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.to_string(), (3 * i as u64 + 7) & mask))
                    .collect();
                let report = program.verify_equiv(&inputs).unwrap();
                assert!(report.equivalent, "{name}@{width}: {}", report.lint);
            }
        }
    }

    #[test]
    fn batched_sharpen_is_bit_identical_to_the_hand_kernel() {
        let img = synthetic_image(6, 6, 42);
        let hand = sharpen(&img, &mut ExactArith::new());
        // 36 pixels, 64 lanes: one padded tile covers the whole image.
        let program = compile_batched(&sharpen_dag(), &CompileOptions::default(), 64).unwrap();
        let batched = sharpen_via_dag_batched(&program, &img).unwrap();
        assert_eq!(hand, batched);
    }

    #[test]
    fn batched_sobel_matches_hand_image_across_tile_boundaries() {
        let img = synthetic_image(5, 5, 3);
        let hand = sobel(&img, &mut ExactArith::new());
        // 25 pixels at 16 lanes: one full tile plus a padded partial one.
        let program =
            compile_batched(&sobel_gradient_dag(), &CompileOptions::default(), 16).unwrap();
        let batched = sobel_via_dag_batched(&program, &img).unwrap();
        assert_eq!(hand, batched);
    }

    #[test]
    fn a_full_tile_costs_one_serial_pass() {
        // 64 pixels through the batched sharpen program charge (almost)
        // the cycles one serial pixel does — the 64x throughput claim.
        let serial = compile(&sharpen_dag(), &CompileOptions::default()).unwrap();
        let inputs: HashMap<String, u64> = serial
            .dag()
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i as u64 + 11))
            .collect();
        let serial_cycles = serial.run(&inputs).unwrap().cycles;

        let lanes = 64;
        let batched = compile_batched(&sharpen_dag(), &CompileOptions::default(), lanes).unwrap();
        let bindings: Vec<HashMap<String, u64>> = (0..lanes as u64)
            .map(|j| {
                batched
                    .dag()
                    .inputs()
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.to_string(), 3 * i as u64 + j))
                    .collect()
            })
            .collect();
        let report = batched.run(&bindings).unwrap();
        assert_eq!(report.values, report.references);
        // The batched Shr pays one extra cycle for its in-array sign fill.
        assert_eq!(report.cycles, serial_cycles + 1);
        let speedup = (lanes as f64 * serial_cycles as f64) / report.cycles as f64;
        assert!(speedup > 60.0, "cycles-per-pixel speedup {speedup:.1}");
    }

    #[test]
    fn strength_reduction_rewrites_every_negative_tap() {
        let mut dag = sharpen_dag();
        assert_eq!(dag.strength_reduce_negated_constants(), 4);
        let mut dag = sobel_gradient_dag();
        assert_eq!(dag.strength_reduce_negated_constants(), 3);
    }
}
