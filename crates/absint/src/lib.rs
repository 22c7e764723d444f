//! # ipds-absint — interval abstract interpretation over the IPDS IR
//!
//! The correlation compiler (`ipds-analysis`) proves branch correlations
//! through the paper's narrow Scenario-1/2/3 patterns, and `verify_tables`
//! checks only *structural* consistency of the emitted BSV/BCV/BAT. Neither
//! answers the semantic question: could an emitted `SET_T`/`SET_NT` action
//! ever fire on a feasible path where the target branch goes the other way?
//!
//! This crate supplies the independent oracle: a classic flow- and
//! branch-sensitive abstract interpretation of each function over the
//! interval domain of [`ipds_dataflow::Range`]:
//!
//! * **Per-program-point environments** map memory variables
//!   ([`MemVar`]) and SSA registers to value ranges; absent entries mean
//!   "unconstrained" (⊤), unreachable blocks have no environment (⊥).
//! * **Edge refinement**: each direction of a conditional branch meets the
//!   branch's implied constraints into the environment — through the
//!   condition register, the affine `Cmp` chain (`w = ±v + c`, Fig. 3.c),
//!   and the branch's memory anchors. An edge whose refined environment
//!   turns empty is statically *infeasible*.
//! * **Only live registers flow along edges.** One backward liveness pass
//!   per function finds, for every block, the registers some path from its
//!   entry still reads: as an instruction operand, as a branch condition,
//!   or along a branch's `Cmp` chain. Edge refinement runs on the full
//!   environment (a register read nowhere later can still prove an edge
//!   infeasible); then every register not live at the successor is dropped.
//!   Memory variables are never dropped, so every variable fact and every
//!   feasibility verdict is exactly what an all-registers fixpoint computes;
//!   only [`AbsEnv::reg`] on a stored environment reads ⊤ for a register
//!   dead at that point.
//! * **Widening at loop heads** (plus a global fallback) guarantees the
//!   fixpoint terminates; two descending narrowing rounds claw back the
//!   precision classic widening gives up at loop exits.
//! * **Transfer functions** cover the arithmetic the paper's patterns need
//!   (`r = x ± c`, copies, constants) exactly and degrade to ⊤ everywhere
//!   else, so every result is a sound over-approximation of the wrapping
//!   concrete semantics in `BinOp::eval`.
//!
//! The analysis is deliberately intraprocedural and entered from ⊤ (no
//! assumptions about callers); calls and unclassified stores havoc exactly
//! the variables the caller's [`Summaries`] say they may write. Consumers
//! (`refine-correlations`, `lint-tables` in `ipds-analysis`) run it
//! function by function in `FuncId` order, and everything here is
//! deterministic by construction: key-sorted vector environments,
//! index-ordered worklists, no hashing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use ipds_dataflow::{
    AccessClass, AliasAnalysis, BranchAnchor, MemVar, PrunedCfg, PrunedFunction, Range, Summaries,
};
use ipds_ir::{
    Address, BinOp, BlockId, Function, Inst, Operand, Pred, Program, Reg, Terminator, VarKind,
};

/// Bounds with absolute value at most this are "safe": adding or
/// subtracting two safe bounds cannot leave the `i64` value space, so exact
/// interval arithmetic is sound despite the IR's wrapping semantics.
const SAFE_BOUND: i128 = (1 << 62) - 1;

/// After this many worklist updates (scaled by block count) every block is
/// treated as a widening point, bounding the fixpoint unconditionally even
/// if loop-head detection were ever incomplete.
const WIDEN_ALL_FACTOR: u64 = 16;

/// Descending (narrowing) rounds applied after the ascending fixpoint.
const NARROW_ROUNDS: usize = 2;

/// An abstract store at one program point: ranges for memory variables and
/// registers, each kept as a key-sorted vector. Missing entries are
/// unconstrained (`Range::Full`); the environments stored by the analysis
/// never contain empty or full ranges (empty environments are represented
/// as "no environment" — the program point is unreachable).
///
/// The environments an [`IntervalAnalysis`] stores
/// ([`IntervalAnalysis::entry_env`], [`IntervalAnalysis::edge_env`]) carry
/// only the registers live at that point: [`AbsEnv::reg`] there is ⊤ for a
/// register no later instruction or branch refinement reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsEnv {
    vars: Vec<(MemVar, Range)>,
    regs: Vec<(Reg, Range)>,
}

impl AbsEnv {
    /// The unconstrained environment (every variable and register is ⊤).
    pub fn top() -> AbsEnv {
        AbsEnv::default()
    }

    /// The range of memory variable `v` (⊤ if untracked).
    pub fn var(&self, v: MemVar) -> Range {
        lookup(&self.vars, v)
    }

    /// The range of register `r` (⊤ if untracked).
    pub fn reg(&self, r: Reg) -> Range {
        lookup(&self.regs, r)
    }

    /// Sets the range of memory variable `v` (⊤ drops the entry).
    pub fn set_var(&mut self, v: MemVar, r: Range) {
        assign(&mut self.vars, v, r);
    }

    /// Sets the range of register `r` (⊤ drops the entry).
    pub fn set_reg(&mut self, r: Reg, range: Range) {
        assign(&mut self.regs, r, range);
    }

    /// Meets `r` into variable `v`; returns `false` if the variable's range
    /// became empty (the program point is infeasible under the refinement).
    pub fn refine_var(&mut self, v: MemVar, r: Range) -> bool {
        let m = self.var(v).meet(r);
        if m.is_empty() {
            return false;
        }
        self.set_var(v, m);
        true
    }

    /// Meets `range` into register `r`; returns `false` on empty.
    pub fn refine_reg(&mut self, r: Reg, range: Range) -> bool {
        let m = self.reg(r).meet(range);
        if m.is_empty() {
            return false;
        }
        self.set_reg(r, m);
        true
    }

    /// Iterates the tracked (non-⊤) memory variables.
    pub fn tracked_vars(&self) -> impl Iterator<Item = (MemVar, Range)> + '_ {
        self.vars.iter().copied()
    }

    /// Pointwise join (least upper bound): keys surviving in the result are
    /// exactly those constrained in *both* environments.
    fn join(a: &AbsEnv, b: &AbsEnv) -> AbsEnv {
        AbsEnv {
            vars: merge(&a.vars, &b.vars, Range::join),
            regs: merge(&a.regs, &b.regs, Range::join),
        }
    }

    /// Pointwise widening of `self` (previous iterate) by `next`.
    fn widen(&self, next: &AbsEnv) -> AbsEnv {
        AbsEnv {
            vars: merge(&self.vars, &next.vars, Range::widen),
            regs: merge(&self.regs, &next.regs, Range::widen),
        }
    }
}

/// The range a key-sorted map holds for `k` (⊤ if absent).
fn lookup<K: Ord>(map: &[(K, Range)], k: K) -> Range {
    map.binary_search_by(|(key, _)| key.cmp(&k))
        .map_or(Range::Full, |i| map[i].1)
}

/// Stores `r` under `k` in a key-sorted map; ⊤ drops the entry.
fn assign<K: Ord>(map: &mut Vec<(K, Range)>, k: K, r: Range) {
    match map.binary_search_by(|(key, _)| key.cmp(&k)) {
        Ok(i) if r == Range::Full => {
            map.remove(i);
        }
        Ok(i) => map[i].1 = r,
        Err(i) if r != Range::Full => map.insert(i, (k, r)),
        Err(_) => {}
    }
}

/// `op` applied to the keys constrained in *both* key-sorted maps, in one
/// linear merge; ⊤ results are dropped.
fn merge<K: Ord + Copy>(
    a: &[(K, Range)],
    b: &[(K, Range)],
    op: impl Fn(Range, Range) -> Range,
) -> Vec<(K, Range)> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&(ka, ra)), Some(&(kb, rb))) = (a.get(i), b.get(j)) {
        match ka.cmp(&kb) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let r = op(ra, rb);
                if r != Range::Full {
                    out.push((ka, r));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Fixpoint effort counters, exposed so tests can assert the widening
/// strategy actually bounds the iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsIntStats {
    /// Worklist block (re)computations during the ascending phase.
    pub block_updates: u64,
    /// Widening applications (loop heads plus the global fallback).
    pub widenings: u64,
    /// Loop heads detected by the DFS back-edge scan.
    pub loop_heads: u64,
}

/// The interval analysis result for one function: entry environments per
/// block and refined environments per conditional-branch edge.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis {
    /// Per-block entry environment, indexed by `BlockId`; `None` means the
    /// block is statically unreachable.
    entry: Vec<Option<AbsEnv>>,
    /// Per-edge environment for every conditional branch `(block, dir)`;
    /// `None` means the direction is statically infeasible.
    edges: BTreeMap<(BlockId, bool), Option<AbsEnv>>,
    /// Fixpoint effort counters.
    pub stats: AbsIntStats,
}

impl IntervalAnalysis {
    /// Runs the interval abstract interpretation over `func`, seeded with
    /// the branch anchors found over `view`.
    ///
    /// The alias analysis and call summaries come from the same
    /// whole-program facts the correlation passes use, so the two analyses
    /// agree on which accesses are uniquely-aliased scalars and on what a
    /// call may clobber. Under feasibility pruning they are the pruned-view
    /// facts.
    pub fn analyze(
        program: &Program,
        func: &Function,
        alias: &AliasAnalysis,
        summaries: &Summaries,
        view: &PrunedFunction,
    ) -> IntervalAnalysis {
        let anchors = ipds_dataflow::find_anchors(program, func, alias, summaries, view);
        let chains = cmp_chains(func);
        let live = Liveness::compute(func, &chains);
        let cx = Ctx {
            program,
            func,
            alias,
            summaries,
            anchors: &anchors,
            chains,
            live,
        };
        let n = func.blocks.len();
        let loop_heads = find_loop_heads(func);
        let mut stats = AbsIntStats {
            loop_heads: loop_heads.len() as u64,
            ..AbsIntStats::default()
        };

        // Ascending phase: index-ordered worklist, join into successor
        // entries, widen at loop heads (and everywhere past the fallback
        // cap, so termination never depends on the head scan).
        let mut entry: Vec<Option<AbsEnv>> = vec![None; n];
        entry[func.entry.index()] = Some(AbsEnv::top());
        let mut work: BTreeSet<u32> = BTreeSet::new();
        work.insert(func.entry.0);
        let widen_all_after = WIDEN_ALL_FACTOR * (n as u64 + 1);
        while let Some(b) = work.pop_first() {
            stats.block_updates += 1;
            let bid = BlockId(b);
            let Some(env0) = entry[bid.index()].clone() else {
                continue;
            };
            let out = cx.transfer_block(bid, env0);
            let widen_all = stats.block_updates > widen_all_after;
            for (succ, env) in cx.out_edges(bid, &out, None) {
                let widen_here = widen_all || loop_heads.contains(&succ.0);
                let slot = &mut entry[succ.index()];
                let next = match slot.as_ref() {
                    None => env,
                    Some(old) => {
                        let joined = AbsEnv::join(old, &env);
                        if widen_here {
                            stats.widenings += 1;
                            old.widen(&joined)
                        } else {
                            joined
                        }
                    }
                };
                if slot.as_ref() != Some(&next) {
                    *slot = Some(next);
                    work.insert(succ.0);
                }
            }
        }

        // Descending (narrowing) rounds: one simultaneous application of
        // the transfer system per round, starting from the post-widening
        // state. Each application stays a sound over-approximation of the
        // concrete reachable states, and a fixed round count trivially
        // terminates.
        for _ in 0..NARROW_ROUNDS {
            let mut next_entry: Vec<Option<AbsEnv>> = vec![None; n];
            next_entry[func.entry.index()] = Some(AbsEnv::top());
            for b in 0..n as u32 {
                let bid = BlockId(b);
                let Some(env0) = entry[bid.index()].clone() else {
                    continue;
                };
                let out = cx.transfer_block(bid, env0);
                for (succ, env) in cx.out_edges(bid, &out, None) {
                    let slot = &mut next_entry[succ.index()];
                    *slot = Some(match slot.as_ref() {
                        None => env,
                        Some(old) => AbsEnv::join(old, &env),
                    });
                }
            }
            entry = next_entry;
        }

        // Final edge refresh from the narrowed entries, so edge
        // environments and entry environments describe the same state.
        let mut edges = BTreeMap::new();
        for b in 0..n as u32 {
            let bid = BlockId(b);
            let Some(env0) = entry[bid.index()].clone() else {
                if func.block(bid).term.is_branch() {
                    edges.insert((bid, true), None);
                    edges.insert((bid, false), None);
                }
                continue;
            };
            let out = cx.transfer_block(bid, env0);
            let _ = cx.out_edges(bid, &out, Some(&mut edges));
        }

        IntervalAnalysis {
            entry,
            edges,
            stats,
        }
    }

    /// True if the block is statically reachable.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.entry.get(b.index()).is_some_and(|e| e.is_some())
    }

    /// The entry environment of a reachable block. It carries only the
    /// registers live on entry to `b`.
    pub fn entry_env(&self, b: BlockId) -> Option<&AbsEnv> {
        self.entry.get(b.index()).and_then(|e| e.as_ref())
    }

    /// The refined environment on conditional-branch edge `(b, dir)`.
    /// `None` means the edge is statically infeasible (or `b` is not a
    /// conditional branch). It carries only the registers live on entry to
    /// the edge's successor.
    pub fn edge_env(&self, b: BlockId, dir: bool) -> Option<&AbsEnv> {
        self.edges.get(&(b, dir)).and_then(|e| e.as_ref())
    }

    /// True if the conditional-branch edge `(b, dir)` may be taken. Edges
    /// the analysis knows nothing about count as feasible.
    pub fn edge_feasible(&self, b: BlockId, dir: bool) -> bool {
        match self.edges.get(&(b, dir)) {
            Some(env) => env.is_some(),
            None => true,
        }
    }

    /// The range of memory variable `v` on conditional-branch edge
    /// `(b, dir)`: ⊥ on an infeasible edge, ⊤ when untracked.
    pub fn var_on_edge(&self, b: BlockId, dir: bool, v: MemVar) -> Range {
        match self.edges.get(&(b, dir)) {
            Some(Some(env)) => env.var(v),
            Some(None) => Range::Empty,
            None => Range::Full,
        }
    }
}

/// Analyzes every function of `program`, in `FuncId` order, over `view`.
pub fn analyze_program(
    program: &Program,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    view: &PrunedCfg,
) -> Vec<IntervalAnalysis> {
    program
        .functions
        .iter()
        .map(|f| IntervalAnalysis::analyze(program, f, alias, summaries, view.function(f.id)))
        .collect()
}

/// A register's range implied by each branch direction: `[not-taken,
/// taken]`.
type Implied = [Range; 2];

/// Per block, the affine `Cmp` chain behind its branch condition (empty for
/// blocks that do not end in a branch); see [`cmp_chain`].
fn cmp_chains(func: &Function) -> Vec<Vec<(Reg, Implied)>> {
    let mut defs = BTreeMap::new();
    for (bid, block) in func.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                defs.insert(d, (bid, i));
            }
        }
    }
    func.blocks
        .iter()
        .map(|block| match block.term {
            Terminator::Branch { cond, .. } => cmp_chain(func, &defs, cond),
            _ => Vec::new(),
        })
        .collect()
}

/// Walks the condition's use–def chain through `Cmp` against a constant
/// and `±constant` arithmetic (the same shapes the anchor finder walks),
/// listing every register on the chain with the range each branch
/// direction implies for it. Registers are single-assignment, so the
/// relation between a register and the condition always holds — no
/// store-freedom side conditions.
fn cmp_chain(
    func: &Function,
    defs: &BTreeMap<Reg, (BlockId, usize)>,
    cond: Reg,
) -> Vec<(Reg, Implied)> {
    let mut chain = Vec::new();
    let Some(&(b, i)) = defs.get(&cond) else {
        return chain;
    };
    let Inst::Cmp { pred, lhs, rhs, .. } = &func.block(b).insts[i] else {
        return chain;
    };
    let (mut cur, pred, c) = match (lhs, rhs) {
        (Operand::Reg(r), Operand::Imm(c)) => (*r, *pred, *c),
        (Operand::Imm(c), Operand::Reg(r)) => (*r, pred.swap(), *c),
        _ => return chain,
    };
    // implied always describes the current chain register `cur`.
    let mut implied: Implied = [false, true].map(|dir| Range::from_pred(pred, c, dir));
    for _ in 0..64 {
        chain.push((cur, implied));
        let Some(&(b, i)) = defs.get(&cur) else {
            break;
        };
        let Inst::BinOp { op, lhs, rhs, .. } = &func.block(b).insts[i] else {
            break;
        };
        match (op, lhs, rhs) {
            // cur = r + k  ⇒  r ∈ implied - k
            (BinOp::Add, Operand::Reg(r), Operand::Imm(k))
            | (BinOp::Add, Operand::Imm(k), Operand::Reg(r)) => {
                implied = implied.map(|c| c.shift(k.wrapping_neg()));
                cur = *r;
            }
            // cur = r - k  ⇒  r ∈ implied + k
            (BinOp::Sub, Operand::Reg(r), Operand::Imm(k)) => {
                implied = implied.map(|c| c.shift(*k));
                cur = *r;
            }
            // cur = k - r  ⇒  r ∈ k - implied
            (BinOp::Sub, Operand::Imm(k), Operand::Reg(r)) => {
                implied = implied.map(|c| c.negate().shift(*k));
                cur = *r;
            }
            _ => break,
        }
    }
    chain
}

/// Registers live on entry to each block, one bit per register: those
/// some path from the block's entry reads before redefining. A block reads
/// its instructions' operands and, at its branch, the condition and every
/// register on the condition's `Cmp` chain (edge refinement meets into
/// them).
struct Liveness {
    /// `u64` words per block.
    words: usize,
    /// Block-major live-in bitsets.
    live_in: Vec<u64>,
}

impl Liveness {
    /// Backward may-liveness over the full CFG, iterated to its fixpoint.
    fn compute(func: &Function, chains: &[Vec<(Reg, Implied)>]) -> Liveness {
        fn set(bits: &mut [u64], r: Reg) {
            if let Some(w) = bits.get_mut(r.0 as usize / 64) {
                *w |= 1 << (r.0 % 64);
            }
        }
        fn clear(bits: &mut [u64], r: Reg) {
            if let Some(w) = bits.get_mut(r.0 as usize / 64) {
                *w &= !(1 << (r.0 % 64));
            }
        }
        let n = func.blocks.len();
        let words = (func.next_reg as usize).div_ceil(64);
        // Per block: registers read before any write in it, and written.
        let mut gen = vec![0u64; n * words];
        let mut kill = vec![0u64; n * words];
        let mut uses = Vec::new();
        for (b, block) in func.blocks.iter().enumerate() {
            let g = &mut gen[b * words..(b + 1) * words];
            let k = &mut kill[b * words..(b + 1) * words];
            if let Terminator::Branch { cond, .. } = block.term {
                set(g, cond);
                for &(r, _) in &chains[b] {
                    set(g, r);
                }
            }
            for inst in block.insts.iter().rev() {
                if let Some(d) = inst.def() {
                    set(k, d);
                    clear(g, d);
                }
                uses.clear();
                inst.uses(&mut uses);
                for &u in &uses {
                    set(g, u);
                }
            }
        }
        // live_in = gen ∪ (⋃ live_in(succ) − kill); sets only grow.
        let mut live_in = gen.clone();
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                out.fill(0);
                for s in func.blocks[b].term.successors() {
                    let s = s.index();
                    for (o, &l) in out.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                        *o |= l;
                    }
                }
                for (w, &o) in out.iter().enumerate() {
                    let i = b * words + w;
                    let next = gen[i] | (o & !kill[i]);
                    if next != live_in[i] {
                        live_in[i] = next;
                        changed = true;
                    }
                }
            }
        }
        Liveness { words, live_in }
    }

    /// True if `r` is live on entry to `b`. A register outside the
    /// function's `next_reg` range is conservatively always live.
    fn contains(&self, b: BlockId, r: Reg) -> bool {
        let w = r.0 as usize / 64;
        w >= self.words || self.live_in[b.index() * self.words + w] >> (r.0 % 64) & 1 == 1
    }
}

/// DFS back-edge scan: a successor edge landing on a block that is still on
/// the DFS path is a back edge, and its target a loop head. Every CFG cycle
/// contains at least one such edge, so widening at these blocks bounds the
/// ascending chain through any loop nest.
fn find_loop_heads(func: &Function) -> BTreeSet<u32> {
    const WHITE: u8 = 0;
    const ON_PATH: u8 = 1;
    const DONE: u8 = 2;
    let mut color = vec![WHITE; func.blocks.len()];
    let mut heads = BTreeSet::new();
    let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = Vec::new();
    color[func.entry.index()] = ON_PATH;
    stack.push((func.entry, func.block(func.entry).term.successors(), 0));
    while let Some((b, succs, i)) = stack.last_mut() {
        if *i >= succs.len() {
            color[b.index()] = DONE;
            stack.pop();
            continue;
        }
        let s = succs[*i];
        *i += 1;
        match color[s.index()] {
            ON_PATH => {
                heads.insert(s.0);
            }
            WHITE => {
                color[s.index()] = ON_PATH;
                stack.push((s, func.block(s).term.successors(), 0));
            }
            _ => {}
        }
    }
    heads
}

/// Per-function analysis context shared by the transfer functions.
struct Ctx<'a> {
    program: &'a Program,
    func: &'a Function,
    alias: &'a AliasAnalysis,
    summaries: &'a Summaries,
    anchors: &'a BTreeMap<BlockId, Vec<BranchAnchor>>,
    chains: Vec<Vec<(Reg, Implied)>>,
    live: Liveness,
}

impl<'a> Ctx<'a> {
    /// Runs the block's straight-line instructions over `env`.
    fn transfer_block(&self, bid: BlockId, mut env: AbsEnv) -> AbsEnv {
        for inst in &self.func.block(bid).insts {
            self.transfer_inst(&mut env, inst);
        }
        env
    }

    /// Outgoing `(successor, environment)` contributions of `bid` given its
    /// post-instructions environment, refining conditional-branch edges and
    /// then keeping only the registers live at each successor. When `edges`
    /// is given, the edge environments (including infeasible `None`s) are
    /// recorded there.
    fn out_edges(
        &self,
        bid: BlockId,
        out: &AbsEnv,
        mut edges: Option<&mut BTreeMap<(BlockId, bool), Option<AbsEnv>>>,
    ) -> Vec<(BlockId, AbsEnv)> {
        match &self.func.block(bid).term {
            Terminator::Jump(t) => vec![(*t, self.live_at(*t, out.clone()))],
            Terminator::Return(_) => Vec::new(),
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => {
                let mut contributions = Vec::new();
                for (dir, succ) in [(true, *taken), (false, *not_taken)] {
                    // Refine first: a register dead at `succ` may still
                    // prove the edge infeasible.
                    let refined = self
                        .refine_edge(out, bid, *cond, dir)
                        .map(|env| self.live_at(succ, env));
                    if let Some(map) = edges.as_deref_mut() {
                        map.insert((bid, dir), refined.clone());
                    }
                    if let Some(env) = refined {
                        contributions.push((succ, env));
                    }
                }
                contributions
            }
        }
    }

    /// `env` without the registers dead on entry to `succ`.
    fn live_at(&self, succ: BlockId, mut env: AbsEnv) -> AbsEnv {
        env.regs.retain(|&(r, _)| self.live.contains(succ, r));
        env
    }
    /// Abstract transfer of one instruction.
    fn transfer_inst(&self, env: &mut AbsEnv, inst: &Inst) {
        match inst {
            Inst::Const { dst, value } => env.set_reg(*dst, Range::exact(*value)),
            Inst::BinOp { dst, op, lhs, rhs } => {
                let r = binop_range(
                    *op,
                    self.operand_range(env, lhs),
                    self.operand_range(env, rhs),
                );
                env.set_reg(*dst, r);
            }
            Inst::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => {
                env.set_reg(
                    *dst,
                    cmp_range(
                        *pred,
                        self.operand_range(env, lhs),
                        self.operand_range(env, rhs),
                    ),
                );
            }
            Inst::Load { dst, addr } => {
                let r = match self.alias.classify(self.program, self.func.id, addr) {
                    AccessClass::Unique(v) => env.var(v),
                    _ => match self.promoted_cell(addr) {
                        Some(v) => env.var(v),
                        None => Range::Full,
                    },
                };
                env.set_reg(*dst, r);
            }
            Inst::Store { addr, src } => {
                let value = self.operand_range(env, src);
                self.havoc(env, inst);
                if let AccessClass::Unique(v) =
                    self.alias.classify(self.program, self.func.id, addr)
                {
                    env.set_var(v, value);
                } else if let Some(v) = self.promoted_cell(addr) {
                    env.set_var(v, value);
                }
            }
            Inst::AddrOf { dst, .. } => env.set_reg(*dst, Range::Full),
            Inst::Call { dst, .. } => {
                self.havoc(env, inst);
                if let Some(d) = dst {
                    env.set_reg(*d, Range::Full);
                }
            }
            // Phis only exist inside the SSA construction window; the
            // abstract interpreter runs after deconstruction. Stay total
            // and conservative: the join of unknown paths is unknown.
            Inst::Phi { dst, .. } => env.set_reg(*dst, Range::Full),
        }
    }

    /// Tracks a direct access to a promoted scalar as an exact cell.
    ///
    /// `mem2reg` only promotes scalars whose address is never taken, so a
    /// promoted variable's residual memory traffic (phi-spill stores and
    /// reloads after SSA deconstruction) all goes through direct
    /// [`Address::Var`] accesses — there is no aliasing path to it. The
    /// alias layer still refuses `Unique` for promoted variables (their
    /// spill slots are rewritten freely by later passes, so correlation
    /// anchors must not form on them), which without this special case
    /// would drop their ranges to ⊤ and make [`IntervalAnalysis::var_on_edge`]
    /// — and hence feasibility pruning — strictly less precise under
    /// promotion. Indirect writes stay sound: any store that may write the
    /// variable havocs it before this refinement applies.
    fn promoted_cell(&self, addr: &Address) -> Option<MemVar> {
        if let Address::Var(v) = addr {
            let mv = MemVar::resolve(self.func.id, *v);
            if mv.size(self.program) == 1 && mv.kind(self.program) == VarKind::Promoted {
                return Some(mv);
            }
        }
        None
    }

    /// Drops every tracked variable the instruction may write (per the
    /// whole-program call summaries and alias classes).
    fn havoc(&self, env: &mut AbsEnv, inst: &Inst) {
        let eff = self
            .summaries
            .may_write(self.program, self.alias, self.func.id, inst);
        if eff.is_nothing() {
            return;
        }
        env.vars.retain(|&(v, _)| !eff.may_write(v));
    }

    fn operand_range(&self, env: &AbsEnv, op: &Operand) -> Range {
        match op {
            Operand::Reg(r) => env.reg(*r),
            Operand::Imm(k) => Range::exact(*k),
        }
    }

    /// Refines `env` with everything the branch direction `(bid, dir)`
    /// implies: the condition register, the registers along its affine
    /// `Cmp` chain, and the branch's memory anchors. Returns `None` when a
    /// constraint turns empty — the edge is statically infeasible.
    fn refine_edge(&self, env: &AbsEnv, bid: BlockId, cond: Reg, dir: bool) -> Option<AbsEnv> {
        let mut e = env.clone();
        // The branch tests `cond != 0`.
        let cond_range = if dir { Range::Ne(0) } else { Range::exact(0) };
        if !e.refine_reg(cond, cond_range) {
            return None;
        }
        for &(r, implied) in &self.chains[bid.index()] {
            if !e.refine_reg(r, implied[usize::from(dir)]) {
                return None;
            }
        }
        for a in self.anchors.get(&bid).into_iter().flatten() {
            if !e.refine_var(a.var, a.implied_range(dir)) {
                return None;
            }
        }
        Some(e)
    }
}

/// Returns the interval bounds of `r` when both are inside the safe window
/// where `i64` addition/subtraction of members cannot wrap.
fn safe_bounds(r: Range) -> Option<(i128, i128)> {
    match r {
        Range::Interval { lo, hi } if lo >= -SAFE_BOUND && hi <= SAFE_BOUND && lo <= hi => {
            Some((lo, hi))
        }
        _ => None,
    }
}

/// Sound, monotone abstract addition under wrapping `i64` semantics.
fn add_range(a: Range, b: Range) -> Range {
    if a.is_empty() || b.is_empty() {
        return Range::Empty;
    }
    if let Some(k) = b.as_exact() {
        return a.shift(k);
    }
    if let Some(k) = a.as_exact() {
        return b.shift(k);
    }
    match (safe_bounds(a), safe_bounds(b)) {
        (Some((l1, h1)), Some((l2, h2))) => Range::Interval {
            lo: l1 + l2,
            hi: h1 + h2,
        },
        _ => Range::Full,
    }
}

/// Sound, monotone abstract subtraction under wrapping `i64` semantics.
fn sub_range(a: Range, b: Range) -> Range {
    if a.is_empty() || b.is_empty() {
        return Range::Empty;
    }
    if let Some(k) = b.as_exact() {
        return a.shift(k.wrapping_neg());
    }
    if let Some(k) = a.as_exact() {
        return b.negate().shift(k);
    }
    match (safe_bounds(a), safe_bounds(b)) {
        (Some((l1, h1)), Some((l2, h2))) => Range::Interval {
            lo: l1 - h2,
            hi: h1 - l2,
        },
        _ => Range::Full,
    }
}

/// The abstract transfer of `dst = op(lhs, rhs)` at the range level.
///
/// Exact for the affine forms the paper's Fig. 3.c needs (`x ± c`, copies
/// via `+ 0`, negation) and for fully-constant operands; ⊤ otherwise. The
/// function is *monotone* in both arguments and *sound* for the wrapping
/// concrete semantics of [`BinOp::eval`] — both properties are hammered by
/// the `props` suite.
pub fn binop_range(op: BinOp, lhs: Range, rhs: Range) -> Range {
    if lhs.is_empty() || rhs.is_empty() {
        return Range::Empty;
    }
    match op {
        BinOp::Add => add_range(lhs, rhs),
        BinOp::Sub => sub_range(lhs, rhs),
        BinOp::Mul => match (lhs.as_exact(), rhs.as_exact()) {
            (Some(0), _) | (_, Some(0)) => Range::exact(0),
            (Some(1), _) => rhs,
            (_, Some(1)) => lhs,
            (Some(-1), _) => rhs.negate(),
            (_, Some(-1)) => lhs.negate(),
            (Some(a), Some(b)) => Range::exact(a.wrapping_mul(b)),
            _ => Range::Full,
        },
        _ => match (lhs.as_exact(), rhs.as_exact()) {
            (Some(a), Some(b)) => Range::exact(op.eval(a, b)),
            _ => Range::Full,
        },
    }
}

/// The abstract transfer of `dst = (lhs pred rhs) ? 1 : 0`: the result is
/// the exact boolean when one side is constant and the other side's range
/// forces the comparison, and `[0, 1]` otherwise.
pub fn cmp_range(pred: Pred, lhs: Range, rhs: Range) -> Range {
    if lhs.is_empty() || rhs.is_empty() {
        return Range::Empty;
    }
    let forced = if let Some(c) = rhs.as_exact() {
        lhs.implies_direction(pred, c)
    } else if let Some(c) = lhs.as_exact() {
        rhs.implies_direction(pred.swap(), c)
    } else {
        None
    };
    match forced {
        Some(true) => Range::exact(1),
        Some(false) => Range::exact(0),
        None => Range::Interval { lo: 0, hi: 1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_dataflow::Facts;
    use ipds_ir::VarId;

    fn setup(src: &str) -> (Program, AliasAnalysis, Summaries) {
        let p = ipds_ir::parse(src).unwrap();
        let Facts { alias, summaries } = Facts::compute(&p);
        (p, alias, summaries)
    }

    fn analyze_main(src: &str) -> (Program, IntervalAnalysis) {
        let (p, a, s) = setup(src);
        let f = p.main().unwrap();
        let ia = IntervalAnalysis::analyze(&p, f, &a, &s, &PrunedFunction::default());
        (p, ia)
    }

    fn local(p: &Program, fname: &str, vname: &str) -> MemVar {
        let f = p.function_by_name(fname).unwrap();
        let idx = f.vars.iter().position(|v| v.name == vname).unwrap();
        MemVar::local(f.id, VarId::local(idx as u32))
    }

    fn branch_blocks(p: &Program) -> Vec<BlockId> {
        let f = p.main().unwrap();
        f.iter_blocks()
            .filter(|(_, b)| b.term.is_branch())
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn constant_store_forces_direction() {
        // x = 3 makes the not-taken direction of `x < 5` infeasible.
        let src = "fn main() -> int { int x; x = 3; if (x < 5) { return 1; } return 0; }";
        let (p, ia) = analyze_main(src);
        let branches = branch_blocks(&p);
        assert_eq!(branches.len(), 1);
        let b = branches[0];
        assert!(ia.edge_feasible(b, true));
        assert!(!ia.edge_feasible(b, false), "x = 3 cannot fail x < 5");
        let x = local(&p, "main", "x");
        assert_eq!(ia.var_on_edge(b, true, x), Range::exact(3));
        assert_eq!(ia.var_on_edge(b, false, x), Range::Empty);
    }

    #[test]
    fn edge_refinement_propagates_to_nested_branch() {
        // Outer taken edge pins x ≤ 4; the inner x > 20 can then never be
        // taken.
        let src = "fn main() -> int { int x; x = read_int(); \
                   if (x < 5) { if (x > 20) { return 2; } return 1; } return 0; }";
        let (p, ia) = analyze_main(src);
        let f = p.main().unwrap();
        let x = local(&p, "main", "x");
        let mut saw_inner = false;
        for (bid, block) in f.iter_blocks() {
            if !block.term.is_branch() {
                continue;
            }
            let on_taken = ia.var_on_edge(bid, true, x);
            if on_taken == Range::at_most(4) {
                // Outer branch: both directions feasible.
                assert!(ia.edge_feasible(bid, true) && ia.edge_feasible(bid, false));
            } else if ia
                .entry_env(bid)
                .is_some_and(|e| e.var(x) == Range::at_most(4))
            {
                // Inner branch: entry already knows x ≤ 4, so taken (x > 20)
                // is infeasible.
                saw_inner = true;
                assert!(!ia.edge_feasible(bid, true), "x ≤ 4 cannot satisfy x > 20");
                assert!(ia.edge_feasible(bid, false));
            }
        }
        assert!(saw_inner, "inner branch must be found");
    }

    #[test]
    fn loop_widening_terminates_and_narrowing_bounds_exit() {
        let src = "fn main() -> int { int i; i = 0; \
                   while (i < 10) { i = i + 1; } return i; }";
        let (p, ia) = analyze_main(src);
        let f = p.main().unwrap();
        let i = local(&p, "main", "i");
        assert!(ia.stats.loop_heads >= 1, "the while loop has a head");
        assert!(
            ia.stats.block_updates <= 64 * (f.blocks.len() as u64 + 1),
            "widening must bound the fixpoint ({} updates)",
            ia.stats.block_updates
        );
        // The loop-exit edge knows i ≥ 10 (the not-taken direction of
        // i < 10); narrowing additionally caps it at exactly 10's meet with
        // the widened head state.
        let branches = branch_blocks(&p);
        let head = branches[0];
        let exit_range = ia.var_on_edge(head, false, i);
        assert!(
            exit_range.subsumed_by(Range::at_least(10)),
            "loop exit must know i ≥ 10, got {exit_range}"
        );
        // Inside the loop i stays below 10.
        let body_range = ia.var_on_edge(head, true, i);
        assert!(
            body_range.subsumed_by(Range::at_most(9)),
            "loop body must know i ≤ 9, got {body_range}"
        );
    }

    #[test]
    fn call_havocs_written_variable() {
        let src = "fn bump(int *p) { *p = 99; } \
                   fn main() -> int { int x; int y; x = 3; y = 4; bump(&x); \
                   if (x < 5) { return 1; } return 0; }";
        let (p, ia) = analyze_main(src);
        let x = local(&p, "main", "x");
        let y = local(&p, "main", "y");
        let branches = branch_blocks(&p);
        let b = branches[0];
        // x was clobbered by the call; y survives.
        assert!(ia.edge_feasible(b, true) && ia.edge_feasible(b, false));
        assert_eq!(ia.var_on_edge(b, true, y), Range::exact(4));
        assert_eq!(ia.var_on_edge(b, true, x), Range::at_most(4));
    }

    #[test]
    fn affine_chain_refines_edge() {
        // taken direction of (x - 1 < 10) pins x ≤ 11 via the chain.
        let src = "fn main() -> int { int x; x = read_int(); \
                   if (x - 1 < 10) { return 1; } return 0; }";
        let (p, ia) = analyze_main(src);
        let x = local(&p, "main", "x");
        let b = branch_blocks(&p)[0];
        assert_eq!(ia.var_on_edge(b, true, x), Range::at_most(10));
        assert_eq!(ia.var_on_edge(b, false, x), Range::at_least(11));
    }

    #[test]
    fn unreachable_block_has_no_env() {
        let src = "fn main() -> int { int x; x = 1; \
                   if (x == 1) { return 1; } return 0; }";
        let (p, ia) = analyze_main(src);
        let f = p.main().unwrap();
        let b = branch_blocks(&p)[0];
        assert!(!ia.edge_feasible(b, false));
        // The not-taken successor is unreachable.
        if let Terminator::Branch { not_taken, .. } = &f.block(b).term {
            assert!(!ia.reachable(*not_taken));
        } else {
            panic!("expected branch");
        }
    }

    #[test]
    fn promoted_vars_stay_tracked_through_phi_spills() {
        // Under full register promotion `m`'s surviving memory traffic is
        // phi spills, which the alias layer refuses to class as Unique. The
        // interval domain must still track the spill slot, or the merged
        // `m ∈ [1, 3]` is lost and the dead `m > 5` edge stops being
        // provable. (The two arms must disagree, or SSA folds the phi away
        // and no spill survives to exercise the tracking.)
        let src = "fn main() -> int { int m; int t; t = read_int(); m = 1; \
                   if (t < 5) { m = 3; } \
                   if (m > 5) { print_int(1); } return 0; }";
        let mut p = ipds_ir::parse(src).unwrap();
        let form = ipds_ir::build_ssa(&mut p, 100);
        ipds_ir::mark_promoted(&mut p, &form);
        ipds_ir::deconstruct_ssa(&mut p, &form);
        let Facts { alias, summaries } = Facts::compute(&p);
        let f = p.main().unwrap();
        let ia = IntervalAnalysis::analyze(&p, f, &alias, &summaries, &PrunedFunction::default());
        let m = local(&p, "main", "m");
        assert_eq!(m.kind(&p), VarKind::Promoted, "promotion must cover m");
        // The `m > 5` guard is the last branch in block order; `m` is 3 on
        // every path into it.
        let guard = *branch_blocks(&p).last().unwrap();
        assert!(
            !ia.edge_feasible(guard, true),
            "m ∈ [1, 3] on every path; the taken edge of m > 5 must be infeasible"
        );
        assert_eq!(
            ia.var_on_edge(guard, false, m),
            Range::Interval { lo: 1, hi: 3 }
        );
    }

    #[test]
    fn dead_registers_leave_stored_environments() {
        // Under full promotion `t` lives in a register the inner branch
        // reads in another block; the outer `Cmp` result is read only by
        // its own branch.
        let src = "fn main() -> int { int t; t = read_int(); \
                   if (t < 5) { if (t > 2) { return 1; } } return 0; }";
        let mut p = ipds_ir::parse(src).unwrap();
        let form = ipds_ir::build_ssa(&mut p, 100);
        ipds_ir::mark_promoted(&mut p, &form);
        ipds_ir::deconstruct_ssa(&mut p, &form);
        let Facts { alias, summaries } = Facts::compute(&p);
        let f = p.main().unwrap();
        let ia = IntervalAnalysis::analyze(&p, f, &alias, &summaries, &PrunedFunction::default());
        let outer = branch_blocks(&p)[0];
        let Terminator::Branch { cond, taken, .. } = f.block(outer).term else {
            panic!("expected branch");
        };
        let t = f
            .block(outer)
            .insts
            .iter()
            .find_map(|inst| match inst {
                Inst::Cmp {
                    dst,
                    lhs: Operand::Reg(t),
                    ..
                } if *dst == cond => Some(*t),
                _ => None,
            })
            .expect("the outer branch tests `t < 5` in its own block");
        let inner = ia.entry_env(taken).unwrap();
        assert_eq!(inner.reg(cond), Range::Full, "the Cmp result is dead");
        assert_eq!(ia.edge_env(outer, true).unwrap().reg(cond), Range::Full);
        assert_eq!(inner.reg(t), Range::at_most(4), "t is read downstream");
    }

    #[test]
    fn cmp_chain_registers_stay_live_across_blocks() {
        // Under full promotion `u = t + 1` is computed before the outer
        // branch pins `t ≥ 10`, so only the inner branch's chain back
        // through `u` to `t` proves `u < 5` impossible. Both inner arms
        // return, so nothing after the inner branch reads `t`: the chain
        // alone must keep it live into the inner block.
        let src = "fn main() -> int { int t; int u; t = read_int(); u = t + 1; \
                   if (t >= 10) { if (u < 5) { return 1; } else { return 2; } } \
                   return 0; }";
        let mut p = ipds_ir::parse(src).unwrap();
        let form = ipds_ir::build_ssa(&mut p, 100);
        ipds_ir::mark_promoted(&mut p, &form);
        ipds_ir::deconstruct_ssa(&mut p, &form);
        let Facts { alias, summaries } = Facts::compute(&p);
        let f = p.main().unwrap();
        let ia = IntervalAnalysis::analyze(&p, f, &alias, &summaries, &PrunedFunction::default());
        let inner = branch_blocks(&p)[1];
        assert!(!ia.edge_feasible(inner, true), "t ≥ 10 forces u ≥ 11");
        assert!(ia.edge_feasible(inner, false));
    }

    #[test]
    fn binop_range_keeps_wrapped_sums_of_extreme_constants() {
        let small = Range::Interval { lo: -18, hi: 36 };
        let out = binop_range(BinOp::Add, Range::exact(i64::MAX), small);
        for v in [-18i64, 0, 1, 36] {
            assert!(out.contains(i64::MAX.wrapping_add(v)), "{v}: {out}");
        }
        let out = binop_range(BinOp::Sub, small, Range::exact(i64::MIN));
        for v in [-18i64, 0, 36] {
            assert!(out.contains(v.wrapping_sub(i64::MIN)), "{v}: {out}");
        }
    }

    #[test]
    fn binop_range_constant_folds() {
        assert_eq!(
            binop_range(BinOp::Add, Range::exact(2), Range::exact(3)),
            Range::exact(5)
        );
        assert_eq!(
            binop_range(BinOp::Sub, Range::at_most(4), Range::exact(1)),
            Range::at_most(3)
        );
        assert_eq!(
            binop_range(
                BinOp::Add,
                Range::Interval { lo: 1, hi: 2 },
                Range::Interval { lo: 10, hi: 20 }
            ),
            Range::Interval { lo: 11, hi: 22 }
        );
        assert_eq!(
            binop_range(BinOp::Mul, Range::exact(6), Range::exact(7)),
            Range::exact(42)
        );
        assert_eq!(
            binop_range(BinOp::Mul, Range::at_most(3), Range::at_most(3)),
            Range::Full
        );
        assert_eq!(
            binop_range(BinOp::Div, Range::exact(7), Range::exact(2)),
            Range::exact(3)
        );
    }

    #[test]
    fn cmp_range_decides_when_forced() {
        assert_eq!(
            cmp_range(Pred::Lt, Range::at_most(4), Range::exact(5)),
            Range::exact(1)
        );
        assert_eq!(
            cmp_range(Pred::Lt, Range::at_least(5), Range::exact(5)),
            Range::exact(0)
        );
        assert_eq!(
            cmp_range(Pred::Lt, Range::Full, Range::exact(5)),
            Range::Interval { lo: 0, hi: 1 }
        );
        // Swapped constant side.
        assert_eq!(
            cmp_range(Pred::Gt, Range::exact(5), Range::at_least(6)),
            Range::exact(0)
        );
    }
}
