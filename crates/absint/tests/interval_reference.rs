//! Differential oracle for the interval analyzer.
//!
//! `IntervalAnalysis::analyze` carries only live registers in key-sorted
//! vector environments. The reference below is the all-registers,
//! `BTreeMap`-backed fixpoint it replaced, kept verbatim in behaviour: every
//! register ever defined on a path flows along every edge, and the
//! ascending phase re-queues a block whenever any register of its entry
//! changes. The two must agree exactly on everything the analysis exposes
//! about memory and feasibility:
//!
//! * per block, `reachable` and the tracked variables of `entry_env`;
//! * per conditional-branch edge, `edge_feasible` and the tracked
//!   variables of `edge_env`;
//! * and every register the fast analyzer still tracks has the
//!   reference's range.
//!
//! They are diffed on every extended workload (as written and at full
//! register promotion) and on generated programs under two generator
//! configurations, each over the full CFG and over every `prune-cfg`
//! round's pruned view.
//!
//! Why dropping dead registers cannot change a result: a register not live
//! at a block is never read on any path from it before being redefined, so
//! the facts the block computes, and those of everything after it, are the
//! same with or without it. What the fast analyzer does skip are ascending
//! visits the reference makes when *only* a dead register of an entry
//! changed. Such a visit recomputes the same live facts, so it changes
//! nothing but the update count. That count matters in one place: past
//! `WIDEN_ALL_FACTOR × (blocks + 1)` updates the reference widens at every
//! block, which would change its results. The reference records whether
//! that fallback ever fires, and the tests assert it never does. Over the
//! 3,449 function analyses here the peak is 6.5 updates per `blocks + 1`
//! (a promoted stock workload), against the cap of 16.

use std::collections::{BTreeMap, BTreeSet};

use ipds_absint::{binop_range, cmp_range, IntervalAnalysis};
use ipds_dataflow::{
    AccessClass, AliasAnalysis, BranchAnchor, Facts, MemVar, PrunedCfg, PrunedFunction, Range,
    Summaries,
};
use ipds_ir::{
    Address, BinOp, BlockId, Function, Inst, Operand, Program, Reg, Terminator, VarKind,
};
use ipds_workloads::generator::{generate_program, GenConfig};

/// The reference's global widening fallback, in worklist updates per
/// `blocks + 1`.
const WIDEN_ALL_FACTOR: u64 = 16;
const NARROW_ROUNDS: usize = 2;
/// `prune-cfg`'s round cap.
const MAX_PRUNE_ROUNDS: usize = 2;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Env {
    vars: BTreeMap<MemVar, Range>,
    regs: BTreeMap<Reg, Range>,
}

impl Env {
    fn var(&self, v: MemVar) -> Range {
        self.vars.get(&v).copied().unwrap_or(Range::Full)
    }

    fn reg(&self, r: Reg) -> Range {
        self.regs.get(&r).copied().unwrap_or(Range::Full)
    }

    fn set_var(&mut self, v: MemVar, r: Range) {
        if r == Range::Full {
            self.vars.remove(&v);
        } else {
            self.vars.insert(v, r);
        }
    }

    fn set_reg(&mut self, r: Reg, range: Range) {
        if range == Range::Full {
            self.regs.remove(&r);
        } else {
            self.regs.insert(r, range);
        }
    }

    fn refine_var(&mut self, v: MemVar, r: Range) -> bool {
        let m = self.var(v).meet(r);
        if m.is_empty() {
            return false;
        }
        self.set_var(v, m);
        true
    }

    fn refine_reg(&mut self, r: Reg, range: Range) -> bool {
        let m = self.reg(r).meet(range);
        if m.is_empty() {
            return false;
        }
        self.set_reg(r, m);
        true
    }

    fn join(a: &Env, b: &Env) -> Env {
        Env {
            vars: pointwise(&a.vars, &b.vars, Range::join),
            regs: pointwise(&a.regs, &b.regs, Range::join),
        }
    }

    fn widen(&self, next: &Env) -> Env {
        Env {
            vars: pointwise(&self.vars, &next.vars, Range::widen),
            regs: pointwise(&self.regs, &next.regs, Range::widen),
        }
    }
}

fn pointwise<K: Ord + Copy>(
    a: &BTreeMap<K, Range>,
    b: &BTreeMap<K, Range>,
    op: fn(Range, Range) -> Range,
) -> BTreeMap<K, Range> {
    let mut out = BTreeMap::new();
    for (&k, &ra) in a {
        if let Some(&rb) = b.get(&k) {
            let r = op(ra, rb);
            if r != Range::Full {
                out.insert(k, r);
            }
        }
    }
    out
}

type Edges = BTreeMap<(BlockId, bool), Option<Env>>;

/// The reference fixpoint for one function.
struct Reference {
    entry: Vec<Option<Env>>,
    edges: Edges,
    widen_all_fired: bool,
}

impl Reference {
    fn analyze(
        program: &Program,
        func: &Function,
        alias: &AliasAnalysis,
        summaries: &Summaries,
        view: &PrunedFunction,
    ) -> Reference {
        let anchors = ipds_dataflow::find_anchors(program, func, alias, summaries, view);
        let mut defs = BTreeMap::new();
        for (bid, block) in func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Some(d) = inst.def() {
                    defs.insert(d, (bid, i));
                }
            }
        }
        let cx = Cx {
            program,
            func,
            alias,
            summaries,
            anchors: &anchors,
            defs,
        };
        let n = func.blocks.len();
        let loop_heads = loop_heads(func);

        let mut entry: Vec<Option<Env>> = vec![None; n];
        entry[func.entry.index()] = Some(Env::default());
        let mut edges = Edges::new();
        let mut work = BTreeSet::from([func.entry.0]);
        let widen_all_after = WIDEN_ALL_FACTOR * (n as u64 + 1);
        let mut block_updates = 0;
        let mut widen_all_fired = false;
        while let Some(b) = work.pop_first() {
            block_updates += 1;
            let bid = BlockId(b);
            let Some(env0) = entry[bid.index()].clone() else {
                continue;
            };
            let out = cx.transfer_block(bid, env0);
            let widen_all = block_updates > widen_all_after;
            for (succ, env) in cx.out_edges(bid, &out, Some(&mut edges)) {
                widen_all_fired |= widen_all;
                let slot = &mut entry[succ.index()];
                let next = match slot.as_ref() {
                    None => env,
                    Some(old) => {
                        let joined = Env::join(old, &env);
                        if widen_all || loop_heads.contains(&succ.0) {
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

        for _ in 0..NARROW_ROUNDS {
            let mut next_entry: Vec<Option<Env>> = vec![None; n];
            next_entry[func.entry.index()] = Some(Env::default());
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
                        Some(old) => Env::join(old, &env),
                    });
                }
            }
            entry = next_entry;
        }

        edges.clear();
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

        Reference {
            entry,
            edges,
            widen_all_fired,
        }
    }
}

fn loop_heads(func: &Function) -> BTreeSet<u32> {
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

struct Cx<'a> {
    program: &'a Program,
    func: &'a Function,
    alias: &'a AliasAnalysis,
    summaries: &'a Summaries,
    anchors: &'a BTreeMap<BlockId, Vec<BranchAnchor>>,
    defs: BTreeMap<Reg, (BlockId, usize)>,
}

impl Cx<'_> {
    fn transfer_block(&self, bid: BlockId, mut env: Env) -> Env {
        for inst in &self.func.block(bid).insts {
            self.transfer_inst(&mut env, inst);
        }
        env
    }

    fn out_edges(
        &self,
        bid: BlockId,
        out: &Env,
        mut edges: Option<&mut Edges>,
    ) -> Vec<(BlockId, Env)> {
        match &self.func.block(bid).term {
            Terminator::Jump(t) => vec![(*t, out.clone())],
            Terminator::Return(_) => Vec::new(),
            Terminator::Branch {
                cond,
                taken,
                not_taken,
            } => {
                let mut contributions = Vec::new();
                for (dir, succ) in [(true, *taken), (false, *not_taken)] {
                    let refined = self.refine_edge(out, bid, *cond, dir);
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

    fn transfer_inst(&self, env: &mut Env, inst: &Inst) {
        match inst {
            Inst::Const { dst, value } => env.set_reg(*dst, Range::exact(*value)),
            Inst::BinOp { dst, op, lhs, rhs } => {
                let r = binop_range(*op, operand(env, lhs), operand(env, rhs));
                env.set_reg(*dst, r);
            }
            Inst::Cmp {
                dst,
                pred,
                lhs,
                rhs,
            } => env.set_reg(*dst, cmp_range(*pred, operand(env, lhs), operand(env, rhs))),
            Inst::Load { dst, addr } => {
                let r = match self.cell(addr) {
                    Some(v) => env.var(v),
                    None => Range::Full,
                };
                env.set_reg(*dst, r);
            }
            Inst::Store { addr, src } => {
                let value = operand(env, src);
                let eff = self
                    .summaries
                    .may_write(self.program, self.alias, self.func.id, inst);
                if !eff.is_nothing() {
                    env.vars.retain(|v, _| !eff.may_write(*v));
                }
                if let Some(v) = self.cell(addr) {
                    env.set_var(v, value);
                }
            }
            Inst::AddrOf { dst, .. } | Inst::Phi { dst, .. } => env.set_reg(*dst, Range::Full),
            Inst::Call { dst, .. } => {
                let eff = self
                    .summaries
                    .may_write(self.program, self.alias, self.func.id, inst);
                if !eff.is_nothing() {
                    env.vars.retain(|v, _| !eff.may_write(*v));
                }
                if let Some(d) = dst {
                    env.set_reg(*d, Range::Full);
                }
            }
        }
    }

    /// The tracked cell an access names: a uniquely-aliased scalar, or a
    /// direct access to a promoted one.
    fn cell(&self, addr: &Address) -> Option<MemVar> {
        if let AccessClass::Unique(v) = self.alias.classify(self.program, self.func.id, addr) {
            return Some(v);
        }
        if let Address::Var(v) = addr {
            let mv = MemVar::resolve(self.func.id, *v);
            if mv.size(self.program) == 1 && mv.kind(self.program) == VarKind::Promoted {
                return Some(mv);
            }
        }
        None
    }

    fn refine_edge(&self, env: &Env, bid: BlockId, cond: Reg, dir: bool) -> Option<Env> {
        let mut e = env.clone();
        let cond_range = if dir { Range::Ne(0) } else { Range::exact(0) };
        if !e.refine_reg(cond, cond_range) || !self.refine_cmp_chain(&mut e, cond, dir) {
            return None;
        }
        for a in self.anchors.get(&bid).into_iter().flatten() {
            if !e.refine_var(a.var, a.implied_range(dir)) {
                return None;
            }
        }
        Some(e)
    }

    fn refine_cmp_chain(&self, env: &mut Env, cond: Reg, dir: bool) -> bool {
        let Some(&(b, i)) = self.defs.get(&cond) else {
            return true;
        };
        let Inst::Cmp { pred, lhs, rhs, .. } = &self.func.block(b).insts[i] else {
            return true;
        };
        let (mut cur, mut constraint) = match (lhs, rhs) {
            (Operand::Reg(r), Operand::Imm(c)) => (*r, Range::from_pred(*pred, *c, dir)),
            (Operand::Imm(c), Operand::Reg(r)) => (*r, Range::from_pred(pred.swap(), *c, dir)),
            _ => return true,
        };
        for _ in 0..64 {
            if !env.refine_reg(cur, constraint) {
                return false;
            }
            let Some(&(b, i)) = self.defs.get(&cur) else {
                return true;
            };
            let Inst::BinOp { op, lhs, rhs, .. } = &self.func.block(b).insts[i] else {
                return true;
            };
            match (op, lhs, rhs) {
                (BinOp::Add, Operand::Reg(r), Operand::Imm(k))
                | (BinOp::Add, Operand::Imm(k), Operand::Reg(r)) => {
                    constraint = constraint.shift(k.wrapping_neg());
                    cur = *r;
                }
                (BinOp::Sub, Operand::Reg(r), Operand::Imm(k)) => {
                    constraint = constraint.shift(*k);
                    cur = *r;
                }
                (BinOp::Sub, Operand::Imm(k), Operand::Reg(r)) => {
                    constraint = constraint.negate().shift(*k);
                    cur = *r;
                }
                _ => return true,
            }
        }
        true
    }
}

fn operand(env: &Env, op: &Operand) -> Range {
    match op {
        Operand::Reg(r) => env.reg(*r),
        Operand::Imm(k) => Range::exact(*k),
    }
}

/// Diffs the fast analyzer against the reference on every function of
/// `program` over `view`; panics on the first disagreement.
fn diff_view(
    program: &Program,
    alias: &AliasAnalysis,
    summaries: &Summaries,
    view: &PrunedCfg,
    what: &str,
) -> Vec<IntervalAnalysis> {
    let vars = |env: &BTreeMap<MemVar, Range>| env.iter().map(|(&v, &r)| (v, r)).collect();
    program
        .functions
        .iter()
        .map(|func| {
            let at = format!("{what}: {}", func.name);
            let fv = view.function(func.id);
            let fast = IntervalAnalysis::analyze(program, func, alias, summaries, fv);
            let slow = Reference::analyze(program, func, alias, summaries, fv);
            assert!(
                !slow.widen_all_fired,
                "{at}: the reference's widen-all fallback fired"
            );
            let regs = |fast: &ipds_absint::AbsEnv, slow: &Env, at: &str| {
                for r in (0..func.next_reg).map(Reg) {
                    let got = fast.reg(r);
                    assert!(
                        got == Range::Full || got == slow.reg(r),
                        "{at}: {r} is {got}, reference {}",
                        slow.reg(r)
                    );
                }
            };
            for (bid, block) in func.iter_blocks() {
                let at = format!("{at} {bid:?}");
                assert_eq!(
                    fast.reachable(bid),
                    slow.entry[bid.index()].is_some(),
                    "{at}: reachable"
                );
                if let (Some(f), Some(s)) = (fast.entry_env(bid), &slow.entry[bid.index()]) {
                    let want: Vec<_> = vars(&s.vars);
                    assert_eq!(f.tracked_vars().collect::<Vec<_>>(), want, "{at}: entry");
                    regs(f, s, &at);
                }
                if !block.term.is_branch() {
                    continue;
                }
                for dir in [true, false] {
                    let at = format!("{at} dir {dir}");
                    let want = slow.edges.get(&(bid, dir)).expect("every branch edge");
                    assert_eq!(fast.edge_feasible(bid, dir), want.is_some(), "{at}");
                    let got = fast.edge_env(bid, dir);
                    assert_eq!(
                        got.map(|e| e.tracked_vars().collect::<Vec<_>>()),
                        want.as_ref().map(|e| vars(&e.vars)),
                        "{at}: edge"
                    );
                    if let (Some(f), Some(s)) = (got, want) {
                        regs(f, s, &at);
                    }
                }
            }
            fast
        })
        .collect()
}

/// Diffs `program` over the full view and then over each view the
/// `prune-cfg` loop would build from it, with the facts recomputed over
/// that view as the pass does; returns how many pruned views there were.
fn diff_program(program: &Program, what: &str) -> usize {
    let Facts { alias, summaries } = Facts::compute(program);
    let full = PrunedCfg::full(program);
    let mut intervals = diff_view(program, &alias, &summaries, &full, what);
    let mut dead: Vec<BTreeSet<(BlockId, bool)>> = vec![BTreeSet::new(); program.functions.len()];
    for round in 1..=MAX_PRUNE_ROUNDS {
        let mut grew = false;
        for (func, ia) in program.functions.iter().zip(&intervals) {
            for (bid, block) in func.iter_blocks() {
                for dir in [true, false] {
                    if block.term.is_branch() && !ia.edge_feasible(bid, dir) {
                        grew |= dead[func.id.0 as usize].insert((bid, dir));
                    }
                }
            }
        }
        if !grew {
            return round - 1;
        }
        let view =
            PrunedCfg::from_oracle(program, |f, b, dir| dead[f.0 as usize].contains(&(b, dir)));
        let alias = AliasAnalysis::analyze(program, &view);
        let summaries = Summaries::compute(program, &alias, &view);
        let at = format!("{what} prune round {round}");
        intervals = diff_view(program, &alias, &summaries, &view, &at);
    }
    MAX_PRUNE_ROUNDS
}

#[test]
fn fast_analyzer_matches_reference_on_extended_workloads() {
    let mut pruned_views = 0;
    for w in ipds_workloads::extended() {
        let program = w.program();
        pruned_views += diff_program(&program, w.name);
        // At full promotion the scalars' residual traffic is phi spills,
        // tracked through the promoted-cell rule.
        let mut promoted = program.clone();
        let form = ipds_ir::build_ssa(&mut promoted, 100);
        ipds_ir::mark_promoted(&mut promoted, &form);
        ipds_ir::deconstruct_ssa(&mut promoted, &form);
        pruned_views += diff_program(&promoted, &format!("{} promote 100", w.name));
    }
    assert!(pruned_views > 0, "no workload exercised a pruned view");
}

#[test]
fn fast_analyzer_matches_reference_on_generated_programs() {
    // The generator's defaults, and the larger shape the build benchmark
    // draws its programs from.
    let configs = [
        GenConfig::default(),
        GenConfig {
            num_vars: 8,
            max_stmts: 6,
            max_depth: 4,
            loop_bound: 4,
        },
    ];
    let mut pruned_views = 0;
    for (c, cfg) in configs.into_iter().enumerate() {
        for seed in 0..300 {
            let source = generate_program(seed, cfg);
            let program = ipds_ir::parse(&source)
                .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{source}"));
            pruned_views += diff_program(&program, &format!("config {c} seed {seed}"));
        }
    }
    assert!(
        pruned_views > 0,
        "no generated program exercised a pruned view"
    );
}
