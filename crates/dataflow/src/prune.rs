//! Feasibility-pruned CFG views.
//!
//! The interval analysis proves some conditional-branch edges infeasible
//! (`edge_feasible` returns `false`). Dataflow restricted to the surviving
//! paths is strictly more precise — Pathade & Khedker's MFP-over-feasible-
//! paths observation — so the pipeline materialises the proved-dead edge
//! set as a [`PrunedCfg`] *overlay* and re-runs alias classification,
//! summaries, anchor discovery and correlation discovery against it.
//!
//! The view is an overlay, not a rewritten program: block ids, branch
//! inventories and PCs are untouched (the perfect-hash and verifier
//! contracts re-prove the full inventory), the view merely records which
//! edges are dead and which blocks became unreachable once those edges are
//! removed. Only conditional-branch edges are ever pruned, so a live
//! block's `Jump` successor is always live.
//!
//! Every analysis takes the view as an ordinary argument; there is no
//! separate unpruned entry point. The identity view ([`PrunedCfg::full`],
//! the empty `PrunedCfg::default()`, or `PrunedFunction::default()` for one
//! function) gives the stock analysis.

use std::collections::BTreeSet;

use ipds_ir::{BlockId, FuncId, Function, Program, Terminator};

/// The pruned view of one function: proved-dead branch edges plus the
/// blocks that become unreachable from the entry once they are removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrunedFunction {
    /// Conditional-branch edges proved infeasible, as `(block, taken?)`.
    pub dead_edges: BTreeSet<(BlockId, bool)>,
    /// Blocks unreachable from the entry over the surviving edges.
    pub dead_blocks: BTreeSet<BlockId>,
}

impl PrunedFunction {
    /// Builds the view for `func` from a proved-dead edge set: records the
    /// edges and recomputes entry reachability over the survivors.
    pub fn new(func: &Function, dead_edges: BTreeSet<(BlockId, bool)>) -> PrunedFunction {
        let mut live: BTreeSet<BlockId> = BTreeSet::new();
        let mut work = vec![func.entry];
        while let Some(b) = work.pop() {
            if !live.insert(b) {
                continue;
            }
            match &func.block(b).term {
                Terminator::Jump(t) => work.push(*t),
                Terminator::Branch {
                    taken, not_taken, ..
                } => {
                    if !dead_edges.contains(&(b, true)) {
                        work.push(*taken);
                    }
                    if !dead_edges.contains(&(b, false)) {
                        work.push(*not_taken);
                    }
                }
                Terminator::Return(_) => {}
            }
        }
        let dead_blocks = func
            .iter_blocks()
            .map(|(bid, _)| bid)
            .filter(|bid| !live.contains(bid))
            .collect();
        PrunedFunction {
            dead_edges,
            dead_blocks,
        }
    }

    /// True if `block` survives the pruning.
    pub fn block_live(&self, block: BlockId) -> bool {
        !self.dead_blocks.contains(&block)
    }

    /// True if the branch edge `(block, dir)` survives: the source block is
    /// reachable and the edge itself was not proved dead.
    pub fn edge_live(&self, block: BlockId, dir: bool) -> bool {
        self.block_live(block) && !self.dead_edges.contains(&(block, dir))
    }

    /// True if nothing was pruned in this function.
    pub fn is_full(&self) -> bool {
        self.dead_edges.is_empty() && self.dead_blocks.is_empty()
    }
}

/// The pruned view of a whole program, indexed by [`FuncId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrunedCfg {
    functions: Vec<PrunedFunction>,
}

impl PrunedCfg {
    /// The identity view: nothing pruned anywhere.
    pub fn full(program: &Program) -> PrunedCfg {
        PrunedCfg {
            functions: program
                .functions
                .iter()
                .map(|_| PrunedFunction::default())
                .collect(),
        }
    }

    /// Builds the view from a per-edge deadness oracle (typically
    /// `!IntervalAnalysis::edge_feasible`). The oracle is consulted for
    /// every conditional-branch edge of every function, in id order, so the
    /// result is deterministic.
    pub fn from_oracle(
        program: &Program,
        mut edge_dead: impl FnMut(FuncId, BlockId, bool) -> bool,
    ) -> PrunedCfg {
        let functions = program
            .functions
            .iter()
            .map(|func| {
                let mut dead = BTreeSet::new();
                for (bid, block) in func.iter_blocks() {
                    if matches!(block.term, Terminator::Branch { .. }) {
                        for dir in [true, false] {
                            if edge_dead(func.id, bid, dir) {
                                dead.insert((bid, dir));
                            }
                        }
                    }
                }
                PrunedFunction::new(func, dead)
            })
            .collect();
        PrunedCfg { functions }
    }

    /// The pruned view of one function. A function the view holds no entry
    /// for is unpruned, so the empty `PrunedCfg::default()` is the identity
    /// view of every program.
    pub fn function(&self, id: FuncId) -> &PrunedFunction {
        static FULL: PrunedFunction = PrunedFunction {
            dead_edges: BTreeSet::new(),
            dead_blocks: BTreeSet::new(),
        };
        self.functions.get(id.0 as usize).unwrap_or(&FULL)
    }

    /// True if `block` of `func` survives the pruning.
    pub fn block_live(&self, func: FuncId, block: BlockId) -> bool {
        self.function(func).block_live(block)
    }

    /// True if the branch edge survives the pruning.
    pub fn edge_live(&self, func: FuncId, block: BlockId, dir: bool) -> bool {
        self.function(func).edge_live(block, dir)
    }

    /// Total number of proved-dead branch edges across the program.
    pub fn pruned_edges(&self) -> u64 {
        self.functions
            .iter()
            .map(|f| f.dead_edges.len() as u64)
            .sum()
    }

    /// Total number of newly-unreachable blocks across the program.
    pub fn pruned_blocks(&self) -> u64 {
        self.functions
            .iter()
            .map(|f| f.dead_blocks.len() as u64)
            .sum()
    }

    /// True if nothing was pruned anywhere.
    pub fn is_full(&self) -> bool {
        self.functions.iter().all(|f| f.is_full())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        ipds_ir::parse(src).unwrap()
    }

    #[test]
    fn full_view_prunes_nothing() {
        let p =
            parse("fn main() -> int { int x; x = read_int(); if (x < 5) { return 1; } return 0; }");
        // The empty default view is the identity of any program too.
        for v in [PrunedCfg::full(&p), PrunedCfg::default()] {
            assert!(v.is_full());
            assert_eq!(v.pruned_edges(), 0);
            assert_eq!(v.pruned_blocks(), 0);
            let f = p.main().unwrap();
            for (bid, _) in f.iter_blocks() {
                assert!(v.block_live(f.id, bid));
                assert!(v.edge_live(f.id, bid, true) && v.edge_live(f.id, bid, false));
            }
        }
    }

    #[test]
    fn dead_edge_makes_its_sole_target_unreachable() {
        // if (x < 5) { A } else { B }: killing the taken edge makes the
        // then-block dead unless something else reaches it.
        let p =
            parse("fn main() -> int { int x; x = read_int(); if (x < 5) { return 1; } return 0; }");
        let f = p.main().unwrap();
        let (branch, taken) = f
            .iter_blocks()
            .find_map(|(bid, b)| match &b.term {
                Terminator::Branch { taken, .. } => Some((bid, *taken)),
                _ => None,
            })
            .expect("branch block");
        let v = PrunedCfg::from_oracle(&p, |_, b, dir| b == branch && dir);
        assert_eq!(v.pruned_edges(), 1);
        assert!(!v.edge_live(f.id, branch, true));
        assert!(v.edge_live(f.id, branch, false));
        assert!(!v.block_live(f.id, taken), "then-block must be dead");
        assert!(v.pruned_blocks() >= 1);
    }

    #[test]
    fn both_edges_dead_kills_the_whole_tail() {
        let p =
            parse("fn main() -> int { int x; x = read_int(); if (x < 5) { return 1; } return 0; }");
        let f = p.main().unwrap();
        let branch = f
            .iter_blocks()
            .find_map(|(bid, b)| matches!(b.term, Terminator::Branch { .. }).then_some(bid))
            .unwrap();
        let v = PrunedCfg::from_oracle(&p, |_, b, _| b == branch);
        // Everything strictly dominated by the branch dies with both edges.
        let succ = f.block(branch).term.successors();
        for s in succ {
            assert!(!v.block_live(f.id, s));
        }
        assert!(v.block_live(f.id, f.entry));
    }

    #[test]
    fn edge_from_a_dead_block_is_not_live() {
        let p = parse(
            "fn main() -> int { int x; int y; x = read_int(); \
             if (x < 5) { y = read_int(); if (y < 3) { return 2; } return 1; } return 0; }",
        );
        let f = p.main().unwrap();
        // Kill the outer taken edge; the inner branch sits in the dead
        // region, so neither of its edges is live even though they were
        // never individually proved dead.
        let mut branches: Vec<BlockId> = f
            .iter_blocks()
            .filter_map(|(bid, b)| matches!(b.term, Terminator::Branch { .. }).then_some(bid))
            .collect();
        branches.sort();
        assert!(branches.len() >= 2, "{branches:?}");
        let outer = branches[0];
        let inner = branches[1];
        let v = PrunedCfg::from_oracle(&p, |_, b, dir| b == outer && dir);
        assert!(!v.block_live(f.id, inner));
        assert!(!v.edge_live(f.id, inner, true));
        assert!(!v.edge_live(f.id, inner, false));
    }
}
