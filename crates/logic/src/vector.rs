//! Element-wise vector operations on resident word batches.
//!
//! A data-parallel kernel holds many words in one block; element-wise
//! operations run the same netlist on every word *simultaneously* — each
//! word's circuit occupies its own rows, and the MAGIC voltage pattern for
//! cycle `t` drives all of them at once (the same row-disjoint parallelism
//! as the Wallace tree's stage groups). A `k`-element vector addition
//! therefore costs the same `12N + 1` cycles as a single addition, with
//! `k×` the energy — the essence of why PIM throughput scales with
//! capacity.
//!
//! The simulator replays the lanes sequentially and rewinds the
//! serialization, exactly like [`crate::wallace`].

use apim_crossbar::{BlockedCrossbar, Result, RowAllocator, Stats};
use apim_device::Cycles;

use crate::adder_serial::{add_words, SerialScratch};

/// Outcome of a vector operation.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorRun {
    /// Per-lane results.
    pub values: Vec<u64>,
    /// Cost delta (cycles reflect the parallel execution).
    pub stats: Stats,
}

/// A vector engine over `lanes` independent `n`-bit lanes in one block.
///
/// ```
/// use apim_logic::vector::VectorUnit;
/// use apim_device::Device;
///
/// # fn main() -> Result<(), apim_crossbar::CrossbarError> {
/// let mut vu = VectorUnit::new(8, 4, &Device::default())?;
/// let run = vu.add(&[(1, 2), (250, 10), (77, 77), (0, 255)])?;
/// assert_eq!(run.values, vec![3, 4, 154, 255]); // wrapping at 8 bits
/// assert_eq!(run.stats.cycles.get(), 12 * 8 + 1); // one addition's latency
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VectorUnit {
    xbar: BlockedCrossbar,
    n: usize,
    lanes: usize,
}

/// Rows each lane needs: 2 operands + result + 12 serial-adder scratch.
const LANE_ROWS: usize = 15;

impl VectorUnit {
    /// Builds a vector engine for `lanes` lanes of `n`-bit words.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for zero lanes or unsupported widths.
    pub fn new(n: u32, lanes: usize, device: &apim_device::Device) -> Result<Self> {
        Self::with_backend(n, lanes, device, apim_crossbar::Backend::default())
    }

    /// Like [`VectorUnit::new`] on an explicit storage backend — the
    /// differential suites run the same lanes on the packed path and the
    /// scalar oracle and compare bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VectorUnit::new`].
    pub fn with_backend(
        n: u32,
        lanes: usize,
        device: &apim_device::Device,
        backend: apim_crossbar::Backend,
    ) -> Result<Self> {
        if !(4..=64).contains(&n) {
            return Err(apim_crossbar::CrossbarError::InvalidConfig(format!(
                "lane width {n} outside 4..=64"
            )));
        }
        if lanes == 0 {
            return Err(apim_crossbar::CrossbarError::InvalidConfig(
                "need at least one lane".into(),
            ));
        }
        let xbar = BlockedCrossbar::new(apim_crossbar::CrossbarConfig {
            blocks: 2,
            rows: lanes * LANE_ROWS,
            cols: n as usize + 4,
            device: device.clone(),
            strict_init: true,
            backend,
        })?;
        Ok(VectorUnit {
            xbar,
            n: n as usize,
            lanes,
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The underlying crossbar.
    pub fn crossbar(&self) -> &BlockedCrossbar {
        &self.xbar
    }

    /// Adds each pair element-wise (wrapping at `n` bits). All lanes run
    /// concurrently: the charged latency is one `12N + 1` addition.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if more pairs than lanes are given;
    /// crossbar errors propagate.
    pub fn add(&mut self, pairs: &[(u64, u64)]) -> Result<VectorRun> {
        if pairs.len() > self.lanes {
            return Err(apim_crossbar::CrossbarError::InvalidConfig(format!(
                "{} pairs exceed {} lanes",
                pairs.len(),
                self.lanes
            )));
        }
        let block = self.xbar.block(1)?;
        let n = self.n;
        // Preload all lanes (resident data).
        for (lane, &(a, b)) in pairs.iter().enumerate() {
            let base = lane * LANE_ROWS;
            self.xbar.preload_u64(block, base, 0, n, a)?;
            self.xbar.preload_u64(block, base + 1, 0, n, b)?;
        }
        let snapshot = *self.xbar.stats();
        let before = snapshot.cycles;
        for lane in 0..pairs.len() {
            let base = lane * LANE_ROWS;
            let mut alloc = RowAllocator::new(self.xbar.rows());
            alloc.alloc_many(base + 3)?; // skip earlier lanes + operands + out
            let scratch = SerialScratch::alloc(&mut alloc)?;
            add_words(
                &mut self.xbar,
                block,
                base,
                base + 1,
                base + 2,
                0..n,
                &scratch,
            )?;
        }
        // Lanes are row-disjoint and execute concurrently: rewind the
        // sequential replay down to one addition's latency.
        let single = Cycles::new((12 * n + 1) as u64);
        let charged = self.xbar.stats().cycles - before;
        self.xbar.rewind_cycles(charged.saturating_sub(single));

        let mut values = Vec::with_capacity(pairs.len());
        for lane in 0..pairs.len() {
            let base = lane * LANE_ROWS;
            values.push(self.xbar.peek_u64(block, base + 2, 0, n)?);
        }
        Ok(VectorRun {
            values,
            stats: *self.xbar.stats() - snapshot,
        })
    }

    /// Element-wise NOT of each word — one cycle for the whole vector
    /// (every lane's NOT is one more row pair under the same voltage
    /// pattern).
    ///
    /// # Errors
    ///
    /// Returns a configuration error for too many inputs; crossbar errors
    /// propagate.
    pub fn not(&mut self, words: &[u64]) -> Result<VectorRun> {
        if words.len() > self.lanes {
            return Err(apim_crossbar::CrossbarError::InvalidConfig(format!(
                "{} words exceed {} lanes",
                words.len(),
                self.lanes
            )));
        }
        let block = self.xbar.block(1)?;
        let n = self.n;
        for (lane, &w) in words.iter().enumerate() {
            let base = lane * LANE_ROWS;
            self.xbar.preload_u64(block, base, 0, n, w)?;
        }
        let snapshot = *self.xbar.stats();
        let before = snapshot.cycles;
        for lane in 0..words.len() {
            let base = lane * LANE_ROWS;
            self.xbar.init_rows(block, &[base + 1], 0..n)?;
            self.xbar.nor_rows_shifted(
                &[apim_crossbar::RowRef::new(block, base)],
                apim_crossbar::RowRef::new(block, base + 1),
                0..n,
                0,
            )?;
        }
        let charged = self.xbar.stats().cycles - before;
        self.xbar
            .rewind_cycles(charged.saturating_sub(Cycles::new(1)));
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut values = Vec::with_capacity(words.len());
        for lane in 0..words.len() {
            let base = lane * LANE_ROWS;
            values.push(self.xbar.peek_u64(block, base + 1, 0, n)? & mask);
        }
        Ok(VectorRun {
            values,
            stats: *self.xbar.stats() - snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_device::Device;

    fn unit(n: u32, lanes: usize) -> VectorUnit {
        VectorUnit::new(n, lanes, &Device::default()).unwrap()
    }

    #[test]
    fn vector_add_matches_scalar_wrapping() {
        let mut vu = unit(8, 8);
        let pairs: Vec<(u64, u64)> = vec![(1, 2), (255, 1), (128, 128), (99, 201)];
        let run = vu.add(&pairs).unwrap();
        let expect: Vec<u64> = pairs.iter().map(|&(a, b)| (a + b) & 0xFF).collect();
        assert_eq!(run.values, expect);
    }

    #[test]
    fn latency_is_independent_of_lane_count() {
        for lanes in [1usize, 2, 6] {
            let mut vu = unit(8, 6);
            let pairs: Vec<(u64, u64)> = (0..lanes as u64).map(|i| (i, i * 3)).collect();
            let run = vu.add(&pairs).unwrap();
            assert_eq!(run.stats.cycles.get(), 97, "{lanes} lanes");
        }
    }

    #[test]
    fn energy_scales_with_lane_count() {
        let mut vu = unit(8, 8);
        let one = vu.add(&[(3, 4)]).unwrap().stats.energy.as_joules();
        let mut vu = unit(8, 8);
        let four = vu
            .add(&[(3, 4), (5, 6), (7, 8), (9, 10)])
            .unwrap()
            .stats
            .energy
            .as_joules();
        let ratio = four / one;
        assert!((3.5..4.5).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn vector_not_is_one_cycle() {
        let mut vu = unit(16, 4);
        let run = vu.not(&[0x0F0F, 0xFFFF, 0x0000]).unwrap();
        assert_eq!(run.values, vec![0xF0F0, 0x0000, 0xFFFF]);
        assert_eq!(run.stats.cycles.get(), 1);
    }

    #[test]
    fn lane_budget_enforced() {
        let mut vu = unit(8, 2);
        assert!(vu.add(&[(1, 1), (2, 2), (3, 3)]).is_err());
        assert!(vu.not(&[1, 2, 3]).is_err());
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(VectorUnit::new(2, 4, &Device::default()).is_err());
        assert!(VectorUnit::new(8, 0, &Device::default()).is_err());
    }

    #[test]
    fn repeated_use_is_stateless() {
        let mut vu = unit(8, 4);
        vu.add(&[(200, 200), (1, 1)]).unwrap();
        let run = vu.add(&[(7, 3)]).unwrap();
        assert_eq!(run.values, vec![10]);
    }
}
