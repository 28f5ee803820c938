//! Seeded request sets and their host references.
//!
//! Generation is a pure function of the workload, the seed and the request
//! index: the same seed always yields the same requests, and a request
//! set for a longer run extends the shorter one.

use std::collections::HashMap;

use apim::App;
use apim_compile::{evaluate, parse_program, Dag};
use apim_serve::loadgen::output_digest;
use apim_serve::{JobKind, JobOutput, Request};
use apim_workloads::dags::{sharpen_dag, sobel_gradient_dag};
use apim_workloads::image::synthetic_image;
use apim_workloads::sharpen::sharpen;
use apim_workloads::sobel::sobel;
use apim_workloads::{ExactArith, Image, FX_SHIFT};

use crate::stats::{fnv1a, FNV_BASIS};

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream for item `index` of workload stream `stream` under `seed`.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Rng {
        Rng(mix(seed
            ^ mix(
                stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ mix(index)
            )))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_FRAMES: u64 = 1;
const STREAM_PROGRAMS: u64 = 2;
const STREAM_RPC: u64 = 3;
const STREAM_RPC_BLOCKS: u64 = 4;
const STREAM_RPC_ARRIVALS: u64 = 5;

// ---------------------------------------------------------------------------
// frames
// ---------------------------------------------------------------------------

/// The three per-pixel kernels a frame is cut into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The sharpen DAG.
    Sharpen,
    /// The Sobel gradient DAG over the horizontal taps.
    SobelX,
    /// The same DAG over the transposed (vertical) taps.
    SobelY,
}

impl Kernel {
    /// Submission order at each tile position.
    pub const ALL: [Kernel; 3] = [Kernel::Sharpen, Kernel::SobelX, Kernel::SobelY];

    /// The pool app serving this kernel.
    pub fn app(self) -> App {
        match self {
            Kernel::Sharpen => App::Sharpen,
            Kernel::SobelX | Kernel::SobelY => App::Sobel,
        }
    }

    /// Taps of pixel `(x, y)` in the kernel DAG's input order (sharpen:
    /// `c n w e s`; Sobel: `l0 r0 l1 r1 l2 r2`).
    pub fn taps(self, img: &Image, x: isize, y: isize) -> Vec<u64> {
        let px = |dx: isize, dy: isize| img.get_clamped(x + dx, y + dy) as u64;
        // Sobel tap (kernel column i, kernel row j) around the pixel.
        let t = |i: isize, j: isize| img.get_clamped(x + i - 1, y + j - 1) as u64;
        match self {
            Kernel::Sharpen => vec![px(0, 0), px(0, -1), px(-1, 0), px(1, 0), px(0, 1)],
            Kernel::SobelX => vec![t(0, 0), t(2, 0), t(0, 1), t(2, 1), t(0, 2), t(2, 2)],
            Kernel::SobelY => vec![t(0, 0), t(0, 2), t(1, 0), t(1, 2), t(2, 0), t(2, 2)],
        }
    }
}

/// The compiled kernel DAG behind each app, as the pool builds it.
pub fn kernel_dag(app: App) -> Dag {
    match app {
        App::Sharpen => sharpen_dag(),
        _ => sobel_gradient_dag(),
    }
}

/// Binds taps to a DAG's inputs in declaration order, as the pool does.
pub fn bind(dag: &Dag, values: &[u64]) -> HashMap<String, u64> {
    dag.inputs()
        .iter()
        .zip(values)
        .map(|(name, &v)| (name.to_string(), v))
        .collect()
}

/// One frame: its input image and the hand kernels' outputs on it.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The synthetic input image.
    pub input: Image,
    /// `sharpen` with exact arithmetic: the reference output image.
    pub sharpen: Image,
    /// `sobel` with exact arithmetic: the reference output image.
    pub sobel: Image,
}

/// A run of contiguous same-kernel pixels, submitted back to back.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Frame index.
    pub frame: usize,
    /// Kernel.
    pub kernel: Kernel,
    /// Row-major index of the tile's first pixel.
    pub first_pixel: usize,
    /// Per-pixel taps.
    pub taps: Vec<Vec<u64>>,
    /// Per-pixel reference values (`apim_compile::evaluate`).
    pub expect: Vec<u64>,
}

/// The `frames` request set.
#[derive(Debug, Clone)]
pub struct FrameSet {
    /// Frames, in submission order.
    pub frames: Vec<Frame>,
    /// Tiles, in submission order: frame by frame, and within a frame
    /// tile position by tile position, each position's three kernels in
    /// turn. Every tile is one kernel's contiguous pixels.
    pub tiles: Vec<Tile>,
}

impl FrameSet {
    /// Pixel requests in the set.
    pub fn requests(&self) -> usize {
        self.tiles.iter().map(|t| t.taps.len()).sum()
    }
}

/// Builds `count` frames of `side × side` pixels cut into `tile`-pixel
/// tiles, with every reference value and reference image.
///
/// # Errors
///
/// A tile size that does not divide a frame, or a reference evaluation
/// failure.
pub fn frames(seed: u64, count: usize, side: usize, tile: usize) -> Result<FrameSet, String> {
    if tile == 0 || !(side * side).is_multiple_of(tile) {
        return Err(format!(
            "{tile}-pixel tiles do not divide a {side}x{side} frame"
        ));
    }
    let dags = [kernel_dag(App::Sharpen), kernel_dag(App::Sobel)];
    let mut set = FrameSet {
        frames: Vec::with_capacity(count),
        tiles: Vec::new(),
    };
    for index in 0..count {
        let image_seed = Rng::for_item(seed, STREAM_FRAMES, index as u64).next_u64();
        let input = synthetic_image(side, side, image_seed);
        for first in (0..side * side).step_by(tile) {
            for kernel in Kernel::ALL {
                let dag = &dags[usize::from(kernel.app() != App::Sharpen)];
                let mut taps = Vec::with_capacity(tile);
                let mut expect = Vec::with_capacity(tile);
                for pixel in first..first + tile {
                    let (x, y) = ((pixel % side) as isize, (pixel / side) as isize);
                    let t = kernel.taps(&input, x, y);
                    expect.push(evaluate(dag, &bind(dag, &t)).map_err(|e| e.to_string())?);
                    taps.push(t);
                }
                set.tiles.push(Tile {
                    frame: index,
                    kernel,
                    first_pixel: first,
                    taps,
                    expect,
                });
            }
        }
        set.frames.push(Frame {
            sharpen: sharpen(&input, &mut ExactArith::new()),
            sobel: sobel(&input, &mut ExactArith::new()),
            input,
        });
    }
    Ok(set)
}

/// Reassembles one frame's output images from its per-pixel kernel values
/// (`[sharpen, gx, gy]`, row-major) exactly as the hand kernels finish
/// them on the host: sharpen clamps to pixel range, Sobel takes the L1
/// magnitude and renormalizes.
pub fn assemble(width: usize, height: usize, values: &[Vec<u64>; 3]) -> (Image, Image) {
    let sharpened = values[0]
        .iter()
        .map(|&v| (v as i64).clamp(0, i64::from(255 << FX_SHIFT)) as i32)
        .collect();
    let edges = values[1]
        .iter()
        .zip(&values[2])
        .map(|(&gx, &gy)| {
            let mag = ((gx as i64).abs() + (gy as i64).abs()) >> FX_SHIFT;
            mag.clamp(0, i64::from(i32::MAX)) as i32
        })
        .collect();
    (
        Image::new(width, height, sharpened),
        Image::new(width, height, edges),
    )
}

/// Digest of a frames request set (kernels and taps).
pub fn frames_digest(set: &FrameSet) -> u64 {
    set.tiles.iter().fold(FNV_BASIS, |h, t| {
        let h = fnv1a(h, &[t.kernel as u8]);
        t.taps
            .iter()
            .flatten()
            .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
    })
}

// ---------------------------------------------------------------------------
// programs
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    MulConst,
    MulValue,
    Shl,
    Shr,
    Mac,
}

/// A program shape: the seed picks operand order, operands and constants,
/// while the shape fixes width, precision mode, input count and the
/// multiset of operations, so per-request cost stays comparable across
/// seeds.
struct Shape {
    width: u32,
    mode: &'static str,
    inputs: usize,
    ops: &'static [Op],
}

/// Program shapes; program `i` has shape `i % PROGRAM_SHAPES`.
pub const PROGRAM_SHAPES: usize = 4;

const SHAPES: [Shape; PROGRAM_SHAPES] = [
    Shape {
        width: 16,
        mode: "exact",
        inputs: 2,
        ops: &[Op::MulConst, Op::Add, Op::Shr, Op::Sub],
    },
    Shape {
        width: 16,
        mode: "relax 4",
        inputs: 3,
        ops: &[Op::MulValue, Op::Add, Op::Mac, Op::Sub, Op::Shl],
    },
    Shape {
        width: 32,
        mode: "exact",
        inputs: 3,
        ops: &[Op::Mac, Op::Sub, Op::MulConst, Op::Add, Op::Shr],
    },
    Shape {
        width: 32,
        mode: "mask 3",
        inputs: 2,
        ops: &[Op::MulConst, Op::Add, Op::MulValue, Op::Sub],
    },
];

/// Set bits in every generated multiplier constant: it fixes the partial
/// product count, which mostly sets a constant multiplication's cost.
const CONST_ONES: u32 = 3;

fn constant(rng: &mut Rng, width: u32) -> u64 {
    let span = u64::from(width / 2);
    let mut value = 0u64;
    while value.count_ones() < CONST_ONES {
        value |= 1 << rng.below(span);
    }
    value
}

/// The source of program `index` under `seed`.
pub fn program_source(seed: u64, index: u64) -> String {
    let mut rng = Rng::for_item(seed, STREAM_PROGRAMS, index);
    let shape = &SHAPES[(index % SHAPES.len() as u64) as usize];
    let mut ops = shape.ops.to_vec();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut lines = vec![
        format!("width {}", shape.width),
        format!("mode {}", shape.mode),
    ];
    let mut values: Vec<String> = (0..shape.inputs).map(|i| format!("x{i}")).collect();
    for name in &values {
        lines.push(format!("in {name}"));
    }
    for (k, op) in ops.iter().enumerate() {
        // Chain through the previous value so every statement is live.
        let x = values.last().expect("inputs are nonempty").clone();
        let y = values[rng.below(values.len() as u64) as usize].clone();
        let expr = match op {
            Op::Add => format!("{x} + {y}"),
            Op::Sub => format!("{x} - {y}"),
            Op::MulConst => format!("{x} * {}", constant(&mut rng, shape.width)),
            // A declared input as multiplier: the pool binds it to a small
            // index, so the data-dependent partial-product count stays
            // bounded and comparable across seeds.
            Op::MulValue => format!("{x} * x{}", rng.below(shape.inputs as u64)),
            Op::Shl => format!("{x} << {}", 1 + rng.below(3)),
            Op::Shr => format!("{x} >> {}", 1 + rng.below(3)),
            Op::Mac => format!(
                "mac({x}*{}, {y}*{})",
                constant(&mut rng, shape.width),
                constant(&mut rng, shape.width)
            ),
        };
        let name = format!("t{k}");
        lines.push(format!("let {name} = {expr}"));
        values.push(name);
    }
    lines.push(format!("out {}", values.last().expect("nonempty")));
    lines.join("\n")
}

/// One `programs` request and its reference value.
#[derive(Debug, Clone)]
pub struct ProgramJob {
    /// Program text.
    pub source: String,
    /// `apim_compile::evaluate` with the pool's bindings: input `i` (in
    /// declaration order) bound to `i + 1`.
    pub expect: u64,
}

/// Input bindings the pool gives an open program: declaration index + 1.
pub fn pool_bindings(dag: &Dag) -> HashMap<String, u64> {
    let values: Vec<u64> = (1..=dag.inputs().len() as u64).collect();
    bind(dag, &values)
}

/// Programs `start..start + count` under `seed`, with reference values.
///
/// # Errors
///
/// A program that fails to parse or evaluate — a generator bug.
pub fn programs(seed: u64, start: u64, count: usize) -> Result<Vec<ProgramJob>, String> {
    (start..start + count as u64)
        .map(|index| {
            let source = program_source(seed, index);
            let program = parse_program(&source).map_err(|e| format!("program {index}: {e}"))?;
            let expect = evaluate(&program.dag, &pool_bindings(&program.dag))
                .map_err(|e| format!("program {index}: {e}"))?;
            Ok(ProgramJob { source, expect })
        })
        .collect()
}

/// Digest of a programs request set.
pub fn programs_digest(jobs: &[ProgramJob]) -> u64 {
    jobs.iter()
        .fold(FNV_BASIS, |h, j| fnv1a(h, j.source.as_bytes()))
}

// ---------------------------------------------------------------------------
// rpc-open
// ---------------------------------------------------------------------------

/// One in every this many `rpc-open` requests is a multiply.
pub const MULTIPLY_ONE_IN: u64 = 8;

/// One `rpc-open` request and its expected reply.
#[derive(Debug, Clone)]
pub struct RpcJob {
    /// When the request is due, s after the open loop starts.
    pub due_s: f64,
    /// The request.
    pub request: Request,
    /// Expected reply summary line.
    pub summary: String,
    /// Expected reply digest, for echoes (a multiply's product is checked
    /// through its summary line).
    pub digest: Option<u64>,
}

/// Set bits in every multiplier: a multiply's modelled cost depends only
/// on the multiplier's popcount, so fixing it keeps the simulated cost
/// per request equal across seeds.
const MULTIPLIER_ONES: u32 = 8;

/// Requests `0..count` of the `rpc-open` set under `seed`, arriving as a
/// Poisson process of `rate_per_s`: in every block of [`MULTIPLY_ONE_IN`]
/// requests one, at a seeded position, is a 16 × 16-bit multiply; the rest
/// are echoes of seeded payloads.
///
/// The gaps are seeded exponential draws rather than one fixed interval, so
/// arrivals do not lock onto the phase of a periodic sleep in the system
/// under test (such as the event loop's idle nap).
pub fn rpc(seed: u64, count: usize, rate_per_s: f64) -> Vec<RpcJob> {
    let mut due_s = 0.0;
    (0..count as u64)
        .map(|index| {
            due_s -= Rng::for_item(seed, STREAM_RPC_ARRIVALS, index).unit().ln() / rate_per_s;
            let block = index / MULTIPLY_ONE_IN;
            let slot = Rng::for_item(seed, STREAM_RPC_BLOCKS, block).below(MULTIPLY_ONE_IN);
            let mut rng = Rng::for_item(seed, STREAM_RPC, index);
            if index % MULTIPLY_ONE_IN == slot {
                let a = rng.below(1 << 16);
                let mut b = 0u64;
                while b.count_ones() < MULTIPLIER_ONES {
                    b |= 1 << rng.below(16);
                }
                RpcJob {
                    due_s,
                    request: Request::new(JobKind::Multiply { a, b }),
                    summary: format!("product {}", u128::from(a) * u128::from(b)),
                    digest: None,
                }
            } else {
                let payload = rng.next_u64();
                let output = JobOutput::Echo(payload);
                RpcJob {
                    due_s,
                    request: Request::new(JobKind::Echo { payload }),
                    summary: output.summary(),
                    digest: Some(output_digest(&output)),
                }
            }
        })
        .collect()
}

/// Digest of an `rpc-open` request set (arrival times and requests).
pub fn rpc_digest(jobs: &[RpcJob]) -> u64 {
    jobs.iter().fold(FNV_BASIS, |h, j| {
        let h = fnv1a(h, &j.due_s.to_le_bytes());
        fnv1a(h, format!("{:?}", j.request.kind).as_bytes())
    })
}
