//! Lane-batched vs serial compiled-kernel measurement (the
//! `BENCH_simd.json` exhibit).
//!
//! The serial compiler runs one pixel per microprogram pass; the
//! lane-batched backend ([`apim_compile::compile_batched`]) interleaves up
//! to 64 pixels across the bitlines and runs them all in (almost) the same
//! pass. Two families of numbers per kernel:
//!
//! * **Modeled cycles per instance** — the crossbar-charged cycle counts,
//!   which are deterministic: `lanes × serial-pass cycles` vs one batched
//!   pass. This is the number the ≥10x CI gate checks.
//! * **Wall-clock** — the full image-processing loops
//!   ([`apim_workloads::dags::sharpen_via_dag`] vs its `_batched` twin),
//!   reported informatively (host-side simulation speed, noisy under CI).
//!   Each side's program is compiled before its timer starts; compile time
//!   is reported on its own, so the loop ratio measures execution (record,
//!   simulate, lint) alone.
//!
//! Used by the `simd-perf` binary (which writes `BENCH_simd.json`) and the
//! CI perf-smoke gate.

use apim_compile::{
    compile, compile_batched, BatchCompiledProgram, CompileOptions, CompiledProgram,
};
use apim_workloads::dags;
use apim_workloads::image::{synthetic_image, Image};
use std::collections::HashMap;
use std::time::Instant;

/// Lanes the exhibit batches across: one pixel per bit of a packed word.
pub const LANES: usize = 64;

/// One kernel's serial-vs-batched comparison.
#[derive(Debug, Clone)]
pub struct SimdRow {
    /// Kernel name (`sharpen` / `sobel`).
    pub name: &'static str,
    /// Instances per batched pass.
    pub lanes: usize,
    /// Pixels in the wall-clock image loops.
    pub pixels: usize,
    /// Crossbar cycles one serial pass charges for one pixel (for Sobel:
    /// both gradient passes).
    pub serial_cycles_per_pixel: u64,
    /// Crossbar cycles one batched pass charges for a whole
    /// `lanes`-pixel tile.
    pub batched_cycles_per_tile: u64,
    /// Serial program compile wall-clock, seconds.
    pub serial_compile_secs: f64,
    /// Batched program compile wall-clock, seconds.
    pub batched_compile_secs: f64,
    /// Serial image loop wall-clock (execution only), seconds.
    pub serial_secs: f64,
    /// Batched image loop wall-clock (execution only), seconds.
    pub batched_secs: f64,
}

impl SimdRow {
    /// Deterministic cycles-per-instance speedup:
    /// `lanes × serial / batched`.
    pub fn cycle_speedup(&self) -> f64 {
        (self.lanes as f64 * self.serial_cycles_per_pixel as f64)
            / self.batched_cycles_per_tile as f64
    }

    /// Host wall-clock speedup of the batched image loop (execution only).
    pub fn wall_speedup(&self) -> f64 {
        self.serial_secs / self.batched_secs
    }
}

/// The whole lane-batched exhibit.
#[derive(Debug, Clone)]
pub struct SimdPerf {
    /// One row per kernel.
    pub rows: Vec<SimdRow>,
}

fn tile_bindings(inputs: &[&str], lanes: usize) -> Vec<HashMap<String, u64>> {
    (0..lanes as u64)
        .map(|j| {
            inputs
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), 7 * i as u64 + 3 * j + 1))
                .collect()
        })
        .collect()
}

/// Deterministic cycle counts for one kernel: (serial pass, batched tile
/// pass). Multiplies by `passes` for kernels that run the program more
/// than once per pixel (Sobel's two gradients).
fn cycle_counts(
    serial: &CompiledProgram,
    batched: &BatchCompiledProgram,
    passes: u64,
) -> (u64, u64) {
    let names: Vec<&str> = serial.dag().inputs().to_vec();
    let serial_cycles = serial
        .run(&tile_bindings(&names, 1)[0])
        .expect("serial pass")
        .cycles;
    let batched_cycles = batched
        .run(&tile_bindings(&names, batched.lanes()))
        .expect("batched pass")
        .cycles;
    (passes * serial_cycles, passes * batched_cycles)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Measures the sharpen kernel: serial per-pixel loop vs `lanes`-pixel
/// tiles over the same synthetic image (outputs checked identical — the
/// serial path is the differential oracle).
pub fn sharpen_row(side: usize, lanes: usize) -> SimdRow {
    let img = synthetic_image(side, side, 7);
    let dag = dags::sharpen_dag();
    let options = CompileOptions::default();
    let (serial, serial_compile_secs) =
        timed(|| compile(&dag, &options).expect("sharpen compiles"));
    let (batched, batched_compile_secs) =
        timed(|| compile_batched(&dag, &options, lanes).expect("sharpen batches"));
    let (serial_out, serial_secs) =
        timed(|| dags::sharpen_via_dag(&serial, &img).expect("serial sharpen"));
    let (batched_out, batched_secs) =
        timed(|| dags::sharpen_via_dag_batched(&batched, &img).expect("batched sharpen"));
    assert_eq!(serial_out, batched_out, "batched sharpen diverged");
    let (serial_cycles_per_pixel, batched_cycles_per_tile) = cycle_counts(&serial, &batched, 1);
    SimdRow {
        name: "sharpen",
        lanes,
        pixels: side * side,
        serial_cycles_per_pixel,
        batched_cycles_per_tile,
        serial_compile_secs,
        batched_compile_secs,
        serial_secs,
        batched_secs,
    }
}

/// Measures the Sobel kernel (both gradient passes per pixel/tile), serial
/// vs batched over the same synthetic image.
pub fn sobel_row(side: usize, lanes: usize) -> SimdRow {
    let img = synthetic_image(side, side, 7);
    let dag = dags::sobel_gradient_dag();
    let options = CompileOptions::default();
    let (serial, serial_compile_secs) = timed(|| compile(&dag, &options).expect("sobel compiles"));
    let (batched, batched_compile_secs) =
        timed(|| compile_batched(&dag, &options, lanes).expect("sobel batches"));
    let (serial_out, serial_secs) = timed(|| sobel_serial(&serial, &img));
    let (batched_out, batched_secs) =
        timed(|| dags::sobel_via_dag_batched(&batched, &img).expect("batched sobel"));
    assert_eq!(serial_out, batched_out, "batched sobel diverged");
    let (serial_cycles_per_pixel, batched_cycles_per_tile) = cycle_counts(&serial, &batched, 2);
    SimdRow {
        name: "sobel",
        lanes,
        pixels: side * side,
        serial_cycles_per_pixel,
        batched_cycles_per_tile,
        serial_compile_secs,
        batched_compile_secs,
        serial_secs,
        batched_secs,
    }
}

/// The serial Sobel oracle: per-pixel gradient passes of `program` (the
/// compiled gradient DAG) assembled into the same magnitude image the
/// batched driver produces.
fn sobel_serial(program: &CompiledProgram, img: &Image) -> Image {
    use apim_workloads::arith::FX_SHIFT;
    let (w, h) = (img.width(), img.height());
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h as isize {
        for x in 0..w as isize {
            let (gx, gy) = dags::sobel_gradients_via_dag(program, img, x, y).expect("sobel pixel");
            let mag = ((gx.abs() + gy.abs()) >> FX_SHIFT).clamp(0, i64::from(i32::MAX));
            out.push(mag as i32);
        }
    }
    Image::new(w, h, out)
}

/// Generates the full exhibit at `lanes` instances per pass. `quick`
/// shrinks the image side for CI smoke runs; the recorded
/// `BENCH_simd.json` uses the full size (one exact 64-pixel tile per
/// kernel) at [`LANES`].
pub fn generate(quick: bool, lanes: usize) -> SimdPerf {
    let side = if quick { 4 } else { 8 };
    SimdPerf {
        rows: vec![sharpen_row(side, lanes), sobel_row(side, lanes)],
    }
}

/// Renders the exhibit as the README's speedup table.
pub fn render(perf: &SimdPerf) -> String {
    let mut out = String::new();
    out.push_str("lane-batched vs serial compiled kernels\n");
    out.push_str("| kernel | serial cycles/px | batched cycles/tile | cycles/instance speedup | wall-clock (execution) | compile serial / batched |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for row in &perf.rows {
        out.push_str(&format!(
            "| {} x{} ({}px) | {} | {} | {} | {} | {:.0} / {:.0} us |\n",
            row.name,
            row.lanes,
            row.pixels,
            row.serial_cycles_per_pixel,
            row.batched_cycles_per_tile,
            crate::times(row.cycle_speedup()),
            crate::times(row.wall_speedup()),
            row.serial_compile_secs * 1e6,
            row.batched_compile_secs * 1e6,
        ));
    }
    out
}

/// Serializes the exhibit as `BENCH_simd.json` (serial = before, batched =
/// after; no external JSON dependency, so formatted by hand).
pub fn to_json(perf: &SimdPerf) -> String {
    let mut out = String::from("{\n  \"exhibit\": \"lane-batched vs serial compiled kernels\",\n");
    out.push_str("  \"gate\": \"cycles-per-instance speedup >= 10x at 64 lanes\",\n");
    out.push_str(
        "  \"timed\": \"*_secs: image loops only (record, simulate, lint); *_compile_us: one compile each\",\n",
    );
    out.push_str("  \"kernels\": [\n");
    for (i, r) in perf.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"lanes\": {}, \"pixels\": {}, \
             \"before_cycles_per_instance\": {}, \"after_cycles_per_instance\": {:.2}, \
             \"cycle_speedup\": {:.2}, \"before_compile_us\": {:.1}, \
             \"after_compile_us\": {:.1}, \"before_secs\": {:.4}, \"after_secs\": {:.4}, \
             \"wall_speedup\": {:.2}}}{}\n",
            r.name,
            r.lanes,
            r.pixels,
            r.serial_cycles_per_pixel,
            r.batched_cycles_per_tile as f64 / r.lanes as f64,
            r.cycle_speedup(),
            r.serial_compile_secs * 1e6,
            r.batched_compile_secs * 1e6,
            r.serial_secs,
            r.batched_secs,
            r.wall_speedup(),
            if i + 1 < perf.rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_gates_and_serializes() {
        let row = sharpen_row(4, 8);
        assert_eq!(row.pixels, 16);
        assert!(row.serial_cycles_per_pixel > 0);
        // Even 8 lanes clear the 10x bar at one pass per tile.
        assert!(row.cycle_speedup() > 7.0, "{:.2}", row.cycle_speedup());
        let perf = SimdPerf { rows: vec![row] };
        let json = to_json(&perf);
        assert!(json.contains("\"cycle_speedup\""));
        assert!(render(&perf).contains("sharpen"));
    }
}
