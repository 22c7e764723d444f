//! Logical per-function tables: branch inventory, BCV and BAT.

use std::collections::BTreeMap;

use ipds_ir::{BlockId, FuncId};

use crate::action::BrAction;
use crate::encode::TableSizes;
use crate::hash::HashParams;

/// One conditional branch of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// The block whose terminator is this branch.
    pub block: BlockId,
    /// The branch instruction's PC (its hardware identity).
    pub pc: u64,
    /// The hash slot assigned by the function's perfect hash.
    pub slot: u32,
}

/// One BAT entry: update `target`'s status with `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatEntry {
    /// Index of the target branch in [`FunctionAnalysis::branches`].
    pub target: u32,
    /// The status update.
    pub action: BrAction,
}

/// Complete compiler output for one function: what gets attached to the
/// binary and consumed by the runtime.
#[derive(Debug, Clone)]
pub struct FunctionAnalysis {
    /// The analyzed function.
    pub func: FuncId,
    /// Function name (diagnostics).
    pub name: String,
    /// All conditional branches, sorted by block id.
    pub branches: Vec<BranchInfo>,
    /// BCV: `checked[i]` ⇔ branch `i` is verified against the BSV.
    pub checked: Vec<bool>,
    /// BAT rows: `(branch index, direction)` → ordered entries. Pairs with
    /// no entries are absent (`NC` for every target).
    pub bat: BTreeMap<(u32, bool), Vec<BatEntry>>,
    /// The collision-free hash parameters for this function.
    pub hash: HashParams,
    /// Encoded table sizes in bits (Fig. 8 accounting).
    pub sizes: TableSizes,
}

impl FunctionAnalysis {
    /// Index of the branch terminating `block`, if any.
    pub fn branch_index(&self, block: BlockId) -> Option<u32> {
        self.branches
            .iter()
            .position(|b| b.block == block)
            .map(|i| i as u32)
    }

    /// The BAT entries fired when branch `idx` commits with direction `dir`.
    pub fn actions(&self, idx: u32, dir: bool) -> &[BatEntry] {
        self.bat.get(&(idx, dir)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of branches whose BCV bit is set.
    pub fn checked_count(&self) -> usize {
        self.checked.iter().filter(|&&c| c).count()
    }

    /// Total number of BAT entries across all rows.
    pub fn bat_entry_count(&self) -> usize {
        self.bat.values().map(Vec::len).sum()
    }
}
