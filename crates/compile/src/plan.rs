//! Area-constrained placement and block-pair scheduling.
//!
//! The backend maps a DAG onto a [`apim_crossbar::BlockedCrossbar`] with a fixed
//! discipline (mirroring the hand-written kernels):
//!
//! * **Blocks 0/1** are the compute pair. Rows `0..16` of both are the
//!   staging area — four word rows (`X`, `Y`, `AUX`, `RES`) plus the
//!   12-row serial-adder scratch — and rows `16..16+R` are the transient
//!   ALU region that holds partial products, the Wallace tree's toggling
//!   stage outputs, and (one row above them) the shared multiplicand
//!   complement. `R` is sized from the worst multiplication in the DAG,
//!   and the placement fails with [`CompileError::AreaExceeded`] when the
//!   block cannot hold it.
//! * **Value rows** (one live row per DAG node) are register-allocated
//!   from block 0's remaining rows, lowest-first, and freed at each
//!   node's last use. When block 0 fills up, values **spill** into the
//!   data blocks (`2..`) and are staged back through the compute pair at
//!   a two-cycle copy cost per access.
//!
//! The planner simulates the exact [`RowAllocator`] call sequence the
//! backend will make, so every slot below is the row the traced allocator
//! will hand out at run time.

use apim_crossbar::{CrossbarConfig, RowAllocator};
use apim_logic::adder_csa::CSA_SCRATCH_ROWS;
use apim_logic::functional::{partial_product_shifts, tree_stages};
use apim_logic::{CostModel, PrecisionMode};

use crate::ir::{Dag, Node, NodeId};
use crate::CompileError;

/// Rows `0..STAGING_ROWS` of each compute block: X, Y, AUX, RES plus the
/// serial-adder scratch.
pub const STAGING_ROWS: usize = 16;
/// Staging row for the first serial operand.
pub const ROW_X: usize = 0;
/// Staging row for the second serial operand.
pub const ROW_Y: usize = 1;
/// Auxiliary row: subtrahend complement, copy relay, approximate-carry
/// chain.
pub const ROW_AUX: usize = 2;
/// Staging row for results awaiting a copy to their home slot.
pub const ROW_RES: usize = 3;

/// A value's home: `block` is the absolute crossbar block index (0 = the
/// anchor compute block, `2..` = data/spill blocks; block 1 never holds
/// values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Absolute block index.
    pub block: usize,
    /// Row within the block.
    pub row: usize,
}

/// The placement of one DAG onto the crossbar.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The crossbar geometry this placement targets.
    pub config: CrossbarConfig,
    /// First ALU-region row in the compute blocks.
    pub region_base: usize,
    /// ALU-region rows (worst partial-product pile + tree scratch + the
    /// shared-NOT row); zero when the DAG has no multiplications.
    pub region_rows: usize,
    /// Per-node home slot, in id order.
    pub slots: Vec<Slot>,
    /// Nodes whose rows are released after executing node `i`.
    pub frees: Vec<Vec<NodeId>>,
    /// Index of each node's last consumer (its own index if unused).
    pub last_use: Vec<usize>,
    /// Nodes whose home ended up outside the compute block.
    pub spilled: usize,
}

impl Placement {
    /// Whether `id`'s home row is in the anchor compute block.
    pub fn in_compute(&self, id: NodeId) -> bool {
        self.slots[id.0].block == 0
    }
}

/// Picks the multiplier operand of `Mul { a, b }`: a constant operand if
/// there is one (its set-bit count is then known at compile time),
/// otherwise `b`. Returns `(multiplicand, multiplier, constant value)`.
///
/// Commuting `a` into the multiplier seat is only legal under
/// [`PrecisionMode::Exact`], where the truncated product is the exact
/// wrapping product either way; the approximate modes act on the actual
/// multiplier's bits, and the reference evaluator fixes that role on `b`.
pub fn mul_multiplier(
    dag: &Dag,
    a: NodeId,
    b: NodeId,
    mode: PrecisionMode,
) -> (NodeId, NodeId, Option<u64>) {
    match (&dag.nodes()[a.0], &dag.nodes()[b.0]) {
        (_, Node::Const { value }) => (a, b, Some(*value)),
        (Node::Const { value }, _) if mode == PrecisionMode::Exact => (b, a, Some(*value)),
        _ => (a, b, None),
    }
}

/// The `(multiplicand, multiplier)` terms and mode of a product node: a
/// `Mac`'s own terms, or a `Mul` as the one-term MAC whose multiplier
/// [`mul_multiplier`] picks. `None` for every other node.
pub(crate) fn product_terms(
    dag: &Dag,
    node: &Node,
) -> Option<(Vec<(NodeId, NodeId)>, PrecisionMode)> {
    match node {
        Node::Mul { a, b, mode } => {
            let (mcand, mult, _) = mul_multiplier(dag, *a, *b, *mode);
            Some((vec![(mcand, mult)], *mode))
        }
        Node::Mac { terms, mode } => Some((terms.clone(), *mode)),
        _ => None,
    }
}

/// The compile-time value of a constant multiplier node.
pub(crate) fn constant(dag: &Dag, id: NodeId) -> Option<u64> {
    match dag.nodes()[id.0] {
        Node::Const { value } => Some(value),
        _ => None,
    }
}

/// Worst-case partial-product rows node `i` can require.
fn worst_pps(dag: &Dag, i: usize) -> usize {
    let Some((terms, mode)) = product_terms(dag, &dag.nodes()[i]) else {
        return 0;
    };
    terms
        .iter()
        .map(|&(_, b)| match constant(dag, b) {
            Some(c) => partial_product_shifts(c, mode.masked_multiplier_bits()).len(),
            None => dag.width() as usize,
        })
        .sum()
}

/// Places `dag` onto `config`, or fails with [`CompileError::AreaExceeded`].
pub fn place(dag: &Dag, config: &CrossbarConfig) -> Result<Placement, CompileError> {
    let n = dag.width() as usize;
    if let Some(node) = dag
        .nodes()
        .iter()
        .find(|node| matches!(node, Node::Math { .. }))
    {
        return Err(CompileError::InvalidDag(format!(
            "{node:?} must be expanded (crate::expand::expand_math) before placement"
        )));
    }
    if config.blocks < 2 {
        return Err(CompileError::AreaExceeded {
            what: "compute block pair".into(),
            needed: 2,
            available: config.blocks,
        });
    }
    if config.cols < n + 2 {
        return Err(CompileError::AreaExceeded {
            what: "bitlines (word + carry margin)".into(),
            needed: n + 2,
            available: config.cols,
        });
    }

    let worst = (0..dag.len()).map(|i| worst_pps(dag, i)).max().unwrap_or(0);
    let region_rows = if dag
        .nodes()
        .iter()
        .any(|node| matches!(node, Node::Mul { .. } | Node::Mac { .. }))
    {
        worst.max(2) + CSA_SCRATCH_ROWS + 1
    } else {
        0
    };
    if STAGING_ROWS + region_rows > config.rows {
        return Err(CompileError::AreaExceeded {
            what: format!("ALU region rows for a {worst}-row partial-product pile"),
            needed: STAGING_ROWS + region_rows,
            available: config.rows,
        });
    }

    // Liveness: a node dies after its last consumer; the root lives until
    // teardown; a node nothing consumes dies right after it executes.
    let mut last_use: Vec<usize> = (0..dag.len()).collect();
    for i in 0..dag.len() {
        for op in dag.operands(NodeId(i)) {
            last_use[op.0] = i;
        }
    }
    let root = dag.root().ok_or(CompileError::NoRoot)?;

    // Mirror the backend's exact allocator call sequence.
    let mut compute = RowAllocator::new(config.rows);
    compute
        .alloc_many(STAGING_ROWS)
        .map_err(CompileError::Crossbar)?;
    if region_rows > 0 {
        compute
            .alloc_many(region_rows)
            .map_err(CompileError::Crossbar)?;
    }
    let mut spills: Vec<RowAllocator> = (2..config.blocks)
        .map(|_| RowAllocator::new(config.rows))
        .collect();

    let mut slots = Vec::with_capacity(dag.len());
    let mut frees: Vec<Vec<NodeId>> = vec![Vec::new(); dag.len()];
    let mut spilled = 0usize;
    for i in 0..dag.len() {
        let slot = if let Ok(row) = compute.alloc() {
            Slot { block: 0, row }
        } else {
            let mut found = None;
            for (k, alloc) in spills.iter_mut().enumerate() {
                if let Ok(row) = alloc.alloc() {
                    found = Some(Slot { block: 2 + k, row });
                    break;
                }
            }
            spilled += 1;
            found.ok_or_else(|| CompileError::AreaExceeded {
                what: format!("value rows for {} live words", dag.len()),
                needed: i + 1,
                available: i,
            })?
        };
        slots.push(slot);
        let mut dying: Vec<NodeId> = dag
            .operands(NodeId(i))
            .into_iter()
            .filter(|op| last_use[op.0] == i && *op != root)
            .collect();
        dying.sort();
        dying.dedup();
        if last_use[i] == i && NodeId(i) != root {
            dying.push(NodeId(i));
        }
        for op in &dying {
            let s = slots[op.0];
            if s.block == 0 {
                compute.free(s.row).map_err(CompileError::Crossbar)?;
            } else {
                spills[s.block - 2]
                    .free(s.row)
                    .map_err(CompileError::Crossbar)?;
            }
        }
        frees[i] = dying;
    }

    Ok(Placement {
        config: config.clone(),
        region_base: STAGING_ROWS,
        region_rows,
        slots,
        frees,
        last_use,
        spilled,
    })
}

/// Extra copy cycles a node pays beyond its arithmetic closed form, given
/// the final partial-product count (`ones`), the relaxed bit count `m`,
/// and where its result must land. Shared between the run-time
/// expected-cycle bookkeeping and the scheduler's estimates.
pub fn mul_copy_overhead(n: u32, ones: usize, m: u32, dest_in_compute: bool) -> u64 {
    match ones {
        0 => 0,
        1 => 2,
        _ => {
            let survivors_in_anchor = tree_stages(ones).is_multiple_of(2);
            let m = m.min(n);
            if m == 0 {
                if survivors_in_anchor && dest_in_compute {
                    0
                } else {
                    2
                }
            } else if m == n {
                2
            } else {
                4
            }
        }
    }
}

/// Staging-copy cycles for a two-operand serial op (`Add`/`Sub`): each
/// operand outside the compute block is staged in (2 cycles), and a
/// spilled destination pays a copy out. A repeated operand costs nothing
/// extra — the serial netlist simply reads the same cell twice.
pub fn serial_copy_overhead(placement: &Placement, a: NodeId, b: NodeId, dest: NodeId) -> u64 {
    let mut cycles = 0;
    if !placement.in_compute(a) {
        cycles += 2;
    }
    if !placement.in_compute(b) {
        cycles += 2;
    }
    if !placement.in_compute(dest) {
        cycles += 2;
    }
    cycles
}

/// One scheduled node on a block pair.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleEntry {
    /// The node.
    pub node: NodeId,
    /// Block-pair index the node runs on.
    pub unit: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle.
    pub end: u64,
}

/// A dependency-respecting list schedule of the DAG across the crossbar's
/// block pairs.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Number of block pairs.
    pub units: usize,
    /// Entries in issue order (zero-duration leaf nodes are omitted).
    pub entries: Vec<ScheduleEntry>,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Serial single-pair total in cycles.
    pub serial_cycles: u64,
}

/// A multiplier bit pattern with the §3.3 random-data expected density
/// (half the unmasked bits set), used to estimate unknown multipliers.
fn expected_density_multiplier(n: u32, mode: PrecisionMode) -> u64 {
    let masked = mode.masked_multiplier_bits().min(n);
    let pattern = 0x5555_5555_5555_5555u64;
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    (pattern & mask) >> masked << masked
}

/// Estimated serial cycles for node `i` (exact for constant multipliers,
/// expected-density otherwise).
pub fn estimate_node_cycles(dag: &Dag, placement: &Placement, model: &CostModel, i: usize) -> u64 {
    let n = dag.width();
    let id = NodeId(i);
    match &dag.nodes()[i] {
        Node::Input { .. } | Node::Const { .. } => 0,
        Node::Add { a, b } => {
            model.serial_add(n).cycles.get() + serial_copy_overhead(placement, *a, *b, id)
        }
        Node::Sub { a, b } => {
            model.serial_sub(n).cycles.get() + serial_copy_overhead(placement, *a, *b, id)
        }
        Node::Shl { .. } => 2,
        Node::Shr { amount, .. } => 2 + u64::from(*amount),
        node @ (Node::Mul { .. } | Node::Mac { .. }) => {
            let (terms, mode) = product_terms(dag, node).expect("a product node");
            let values: Vec<u64> = terms
                .iter()
                .map(|&(_, b)| {
                    constant(dag, b).unwrap_or_else(|| expected_density_multiplier(n, mode))
                })
                .collect();
            let ones: usize = values
                .iter()
                .map(|&v| partial_product_shifts(v, mode.masked_multiplier_bits()).len())
                .sum();
            model.mac_group_value(n, &values, mode).cycles.get()
                + mul_copy_overhead(
                    n,
                    ones,
                    mode.relaxed_product_bits(),
                    placement.in_compute(id),
                )
        }
        // place() rejects unexpanded Math nodes, so no placement (and
        // hence no estimate request) can reach this arm.
        Node::Math { .. } => 0,
    }
}

/// List-schedules independent DAG nodes across the crossbar's block pairs
/// (earliest-start greedy, dependencies respected). The gate-level backend
/// executes serially on pair 0 — this is the controller-level placement a
/// multi-pair device would use, and the makespan it reports is the
/// parallel latency estimate printed by `apim-cli compile`.
pub fn schedule(dag: &Dag, placement: &Placement, model: &CostModel) -> BlockSchedule {
    let units = (placement.config.blocks / 2).max(1);
    let mut unit_free = vec![0u64; units];
    let mut finish = vec![0u64; dag.len()];
    let mut entries = Vec::new();
    let mut serial = 0u64;
    for i in 0..dag.len() {
        let dur = estimate_node_cycles(dag, placement, model, i);
        serial += dur;
        let ready = dag
            .operands(NodeId(i))
            .iter()
            .map(|op| finish[op.0])
            .max()
            .unwrap_or(0);
        if dur == 0 {
            finish[i] = ready;
            continue;
        }
        let unit = (0..units)
            .min_by_key(|&u| unit_free[u].max(ready))
            .unwrap_or(0);
        let start = unit_free[unit].max(ready);
        let end = start + dur;
        unit_free[unit] = end;
        finish[i] = end;
        entries.push(ScheduleEntry {
            node: NodeId(i),
            unit,
            start,
            end,
        });
    }
    BlockSchedule {
        units,
        entries,
        makespan: unit_free.into_iter().max().unwrap_or(0),
        serial_cycles: serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apim_device::Device;

    fn dag_with_mul(width: u32) -> Dag {
        let mut dag = Dag::new(width).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let m = dag.mul(x, y, PrecisionMode::Exact).unwrap();
        let s = dag.add(m, x).unwrap();
        dag.set_root(s).unwrap();
        dag
    }

    #[test]
    fn placement_reserves_staging_and_region() {
        let dag = dag_with_mul(16);
        let p = place(&dag, &CrossbarConfig::default()).unwrap();
        assert_eq!(p.region_base, STAGING_ROWS);
        // Unknown multiplier: worst case 16 partial products + tree
        // scratch + shared-NOT row.
        assert_eq!(p.region_rows, 16 + CSA_SCRATCH_ROWS + 1);
        // First value row sits just above the region.
        assert_eq!(p.slots[0].block, 0);
        assert_eq!(p.slots[0].row, STAGING_ROWS + p.region_rows);
    }

    #[test]
    fn wide_unknown_multiplier_exceeds_area() {
        let dag = dag_with_mul(64);
        let err = place(&dag, &CrossbarConfig::default()).unwrap_err();
        assert!(matches!(err, CompileError::AreaExceeded { .. }), "{err}");
    }

    #[test]
    fn values_spill_into_data_blocks() {
        let mut dag = Dag::new(8).unwrap();
        // More simultaneously live values than one block can hold.
        let inputs: Vec<NodeId> = (0..40)
            .map(|i| dag.input(&format!("x{i}")).unwrap())
            .collect();
        let mut acc = inputs[0];
        for &x in &inputs[1..] {
            acc = dag.add(acc, x).unwrap();
        }
        dag.set_root(acc).unwrap();
        let config = CrossbarConfig {
            rows: 24,
            ..CrossbarConfig::default()
        };
        let p = place(&dag, &config).unwrap();
        assert!(p.spilled > 0, "expected spills with 24-row blocks");
        assert!(p.slots.iter().any(|s| s.block >= 2));
        assert!(p.slots.iter().all(|s| s.block != 1));
    }

    #[test]
    fn rows_are_recycled_at_last_use() {
        let mut dag = Dag::new(8).unwrap();
        let a = dag.input("a").unwrap();
        let b = dag.input("b").unwrap();
        let s1 = dag.add(a, b).unwrap();
        let s2 = dag.add(s1, s1).unwrap();
        dag.set_root(s2).unwrap();
        let p = place(&dag, &CrossbarConfig::default()).unwrap();
        // `a` and `b` die at s1; s2 reuses the most recently freed row
        // (the allocator's free list is a stack).
        assert_eq!(p.frees[s1.0], vec![a, b]);
        assert_eq!(p.slots[s2.0].row, p.slots[b.0].row);
    }

    #[test]
    fn schedule_respects_dependencies_and_beats_serial() {
        let mut dag = Dag::new(16).unwrap();
        let x = dag.input("x").unwrap();
        let y = dag.input("y").unwrap();
        let c = dag.constant(0xABCD);
        let d = dag.constant(0x1234);
        let m1 = dag.mul(x, c, PrecisionMode::Exact).unwrap();
        let m2 = dag.mul(y, d, PrecisionMode::Exact).unwrap();
        let s = dag.add(m1, m2).unwrap();
        dag.set_root(s).unwrap();
        let p = place(&dag, &CrossbarConfig::default()).unwrap();
        let model = CostModel::new(&Device::default());
        let sched = schedule(&dag, &p, &model);
        assert_eq!(sched.units, 2);
        // Two independent multiplies overlap; the add starts after both.
        assert!(sched.makespan < sched.serial_cycles);
        let add_entry = sched.entries.iter().find(|e| e.node == s).unwrap();
        for e in &sched.entries {
            if e.node == m1 || e.node == m2 {
                assert!(e.end <= add_entry.start);
            }
        }
    }
}
