//! Table 1's directory-memory figures, computed here from the paper's
//! formula and compared with what `scd_core::overhead` reports.
//!
//! An entry holds the sharer state, one dirty bit, and for a sparse
//! directory of sparsity `s` a tag of `ceil(log2 s)` bits. Sharer state is
//! one bit per cluster for a full vector; for `Dir_i CV_r` it is the larger
//! of `i` pointers of `ceil(log2 P)` bits and a `P / r`-bit coarse vector,
//! plus one mode bit. The overhead is entry bits over the memory bits the
//! entry covers: `s` blocks of 16 bytes.

use scd_core::overhead::{overhead, table1_rows, DirectoryChoice, MachineSpec};
use scd_core::Scheme;

use crate::checks;

/// One of Table 1's rows as the paper states it.
pub struct Row {
    label: &'static str,
    clusters: usize,
    pointers: Option<(usize, usize)>,
    sparsity: u64,
    /// Entry width and overhead printed in the paper.
    paper: (usize, f64),
}

const ROWS: [Row; 3] = [
    Row {
        label: "Dir16",
        clusters: 16,
        pointers: None,
        sparsity: 1,
        paper: (17, 0.1328),
    },
    Row {
        label: "sparse Dir64",
        clusters: 64,
        pointers: None,
        sparsity: 4,
        paper: (67, 0.1309),
    },
    Row {
        label: "sparse Dir8CV4",
        clusters: 256,
        pointers: Some((8, 4)),
        sparsity: 4,
        paper: (68, 0.1328),
    },
];

const BLOCK_BITS: f64 = 16.0 * 8.0;

fn log2_ceil(n: u64) -> usize {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as usize
    }
}

/// Entry bits and overhead from the formula.
fn formula(row: &Row) -> (usize, f64) {
    let p = row.clusters;
    let state = match row.pointers {
        None => p,
        Some((i, r)) => (i * log2_ceil(p as u64)).max(p.div_ceil(r)) + 1,
    };
    let bits = state + 1 + log2_ceil(row.sparsity);
    (bits, bits as f64 / (row.sparsity as f64 * BLOCK_BITS))
}

/// What the program reports for a row.
fn reported(row: &Row) -> (usize, f64) {
    let spec = MachineSpec::paper_defaults(row.clusters);
    let scheme = match row.pointers {
        None => Scheme::FullVector,
        Some((i, r)) => Scheme::dir_cv(i, r),
    };
    let r = overhead(
        &spec,
        &DirectoryChoice {
            scheme,
            sparsity: row.sparsity,
        },
    );
    (r.entry_bits, r.overhead)
}

/// Checks all three rows: the program against the formula, the formula
/// against the paper's printed figures (to the paper's two decimals), and
/// `table1_rows` against the same figures.
pub fn check() -> Result<(), String> {
    check_with(formula)
}

/// [`check`] with the formula replaced, so the self-test can show that a
/// wrong formula is caught.
pub fn check_with(formula: fn(&Row) -> (usize, f64)) -> Result<(), String> {
    let table = table1_rows();
    for (row, t) in ROWS.iter().zip(&table) {
        let computed = formula(row);
        checks::overhead_row(row.label, reported(row), computed)?;
        checks::overhead_row(
            row.label,
            (t.report.entry_bits, t.report.overhead),
            computed,
        )?;
        let rounded = (computed.1 * 1e4).round() / 1e4;
        checks::overhead_row(row.label, row.paper, (computed.0, rounded))?;
    }
    Ok(())
}

/// A formula with the dirty bit left out, for the self-test.
pub fn broken_formula(row: &Row) -> (usize, f64) {
    let (bits, _) = formula(row);
    (
        bits - 1,
        (bits - 1) as f64 / (row.sparsity as f64 * BLOCK_BITS),
    )
}
