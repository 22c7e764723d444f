//! Property tests for the interval abstract interpreter.
//!
//! Two families of laws keep the lint/refine oracles honest:
//!
//! * the range-level transfer functions ([`binop_range`], [`cmp_range`])
//!   must be **sound** for the wrapping concrete semantics of
//!   `BinOp::eval` / `Pred::eval` and **monotone** in both arguments, and
//! * the whole-function fixpoint must **terminate with bounded effort** on
//!   randomly generated loop CFGs — including loops whose concrete
//!   execution never terminates (zero or negative steps), which is exactly
//!   where widening has to earn its keep.

use ipds_absint::{binop_range, cmp_range, IntervalAnalysis};
use ipds_dataflow::{Facts, PrunedFunction, Range};
use ipds_ir::{BinOp, Pred};
use proptest::prelude::*;

fn any_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

fn any_pred() -> impl Strategy<Value = Pred> {
    prop_oneof![
        Just(Pred::Eq),
        Just(Pred::Ne),
        Just(Pred::Lt),
        Just(Pred::Le),
        Just(Pred::Gt),
        Just(Pred::Ge),
    ]
}

fn any_range() -> impl Strategy<Value = Range> {
    prop_oneof![
        Just(Range::Full),
        Just(Range::Empty),
        (-100i64..100).prop_map(Range::Ne),
        (-100i64..100).prop_map(Range::exact),
        (-100i64..100).prop_map(Range::at_most),
        (-100i64..100).prop_map(Range::at_least),
        (-100i64..100, 0i64..80).prop_map(|(lo, w)| Range::Interval {
            lo: lo as i128,
            hi: (lo + w) as i128
        }),
    ]
}

/// Operand values biased toward the representable ends, where the
/// interval arithmetic has to saturate instead of silently inverting.
fn extreme() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(-1i64),
        Just(0i64),
        Just(1i64),
        Just(i64::MAX - 1),
        Just(i64::MAX),
        any::<i64>(),
    ]
}

/// A range guaranteed to contain `v`, of varying shape.
fn range_containing(v: i64, kind: i64, a: i64, b: i64) -> Range {
    match kind.rem_euclid(4) {
        0 => Range::Full,
        1 => Range::exact(v),
        2 => Range::Interval {
            lo: (v - a) as i128,
            hi: (v + b) as i128,
        },
        _ => Range::Ne(v.wrapping_add(1 + a)),
    }
}

proptest! {
    /// Soundness: concrete results of members stay inside the abstract
    /// result.
    #[test]
    fn binop_range_is_sound(
        op in any_binop(),
        va in -50i64..50,
        vb in -50i64..50,
        ka in 0i64..4, aa in 0i64..40, ba in 0i64..40,
        kb in 0i64..4, ab in 0i64..40, bb in 0i64..40,
    ) {
        let ra = range_containing(va, ka, aa, ba);
        let rb = range_containing(vb, kb, ab, bb);
        prop_assert!(ra.contains(va) && rb.contains(vb));
        let out = binop_range(op, ra, rb);
        let concrete = op.eval(va, vb);
        prop_assert!(
            out.contains(concrete),
            "{op:?}: {va} ∈ {ra}, {vb} ∈ {rb}, but {concrete} ∉ {out}"
        );
    }

    /// Monotonicity: widening either input can only widen the output.
    #[test]
    fn binop_range_is_monotone(
        op in any_binop(),
        a1 in any_range(),
        da in any_range(),
        b1 in any_range(),
        db in any_range(),
        v in -200i64..200,
    ) {
        let a2 = a1.join(da);
        let b2 = b1.join(db);
        let narrow = binop_range(op, a1, b1);
        let wide = binop_range(op, a2, b2);
        if narrow.contains(v) {
            prop_assert!(
                wide.contains(v),
                "{op:?}: f({a1}, {b1}) = {narrow} ∋ {v} escapes f({a2}, {b2}) = {wide}"
            );
        }
    }

    /// Soundness of the comparison transfer: the concrete boolean is in the
    /// abstract result.
    #[test]
    fn cmp_range_is_sound(
        pred in any_pred(),
        va in -50i64..50,
        vb in -50i64..50,
        ka in 0i64..4, aa in 0i64..40, ba in 0i64..40,
        kb in 0i64..4, ab in 0i64..40, bb in 0i64..40,
    ) {
        let ra = range_containing(va, ka, aa, ba);
        let rb = range_containing(vb, kb, ab, bb);
        let out = cmp_range(pred, ra, rb);
        let concrete = i64::from(pred.eval(va, vb));
        prop_assert!(
            out.contains(concrete),
            "{pred:?}: {va} ∈ {ra}, {vb} ∈ {rb}, but {concrete} ∉ {out}"
        );
    }

    /// Monotonicity of the comparison transfer.
    #[test]
    fn cmp_range_is_monotone(
        pred in any_pred(),
        a1 in any_range(),
        da in any_range(),
        b1 in any_range(),
        db in any_range(),
        v in -2i64..4,
    ) {
        let a2 = a1.join(da);
        let b2 = b1.join(db);
        let narrow = cmp_range(pred, a1, b1);
        let wide = cmp_range(pred, a2, b2);
        if narrow.contains(v) {
            prop_assert!(wide.contains(v), "{pred:?}: {narrow} ∋ {v} escapes {wide}");
        }
    }

    /// Saturation soundness: exact operands at the representable ends must
    /// still produce ranges containing the wrapping concrete result. This
    /// is where the shift/negate helpers used to invert an interval (e.g.
    /// `−1 × MIN` or `MAX + 1`) and silently claim the result impossible.
    #[test]
    fn binop_range_is_sound_at_extreme_operands(
        op in any_binop(),
        a in extreme(),
        b in extreme(),
    ) {
        let out = binop_range(op, Range::exact(a), Range::exact(b));
        let concrete = op.eval(a, b);
        prop_assert!(
            out.contains(concrete),
            "{op:?}: exact({a}) ⋄ exact({b}) = {out} misses {concrete}"
        );
    }

    /// Saturation soundness with one extreme exact operand against a
    /// small range of arbitrary shape (the shift-by-constant fast paths).
    #[test]
    fn binop_range_saturates_against_small_ranges(
        op in any_binop(),
        va in -50i64..50,
        ka in 0i64..4, aa in 0i64..40, ba in 0i64..40,
        c in extreme(),
        flip in proptest::bool::ANY,
    ) {
        let ra = range_containing(va, ka, aa, ba);
        prop_assert!(ra.contains(va));
        let (l, r, cl, cr) = if flip {
            (Range::exact(c), ra, c, va)
        } else {
            (ra, Range::exact(c), va, c)
        };
        let out = binop_range(op, l, r);
        let concrete = op.eval(cl, cr);
        prop_assert!(
            out.contains(concrete),
            "{op:?}: {cl} ∈ {l}, {cr} ∈ {r}, but {concrete} ∉ {out}"
        );
    }

    /// The comparison transfer stays sound when either side sits at the
    /// representable ends (`from_pred` must collapse to ∅, not wrap).
    #[test]
    fn cmp_range_is_sound_at_extreme_operands(
        pred in any_pred(),
        a in extreme(),
        b in extreme(),
        va in -50i64..50,
        ka in 0i64..4, aa in 0i64..40, ba in 0i64..40,
        mix in proptest::bool::ANY,
    ) {
        let (l, r, cl, cr) = if mix {
            let ra = range_containing(va, ka, aa, ba);
            (ra, Range::exact(b), va, b)
        } else {
            (Range::exact(a), Range::exact(b), a, b)
        };
        let out = cmp_range(pred, l, r);
        let concrete = i64::from(pred.eval(cl, cr));
        prop_assert!(
            out.contains(concrete),
            "{pred:?}: {cl} ∈ {l}, {cr} ∈ {r}, but {concrete} ∉ {out}"
        );
    }

    /// Strictness: an empty input (the canonical `Empty` or an inverted
    /// interval) makes every transfer result empty — dead edges stay dead
    /// through arithmetic, they never resurrect into spurious values.
    #[test]
    fn empty_ranges_propagate_through_transfers(
        op in any_binop(),
        pred in any_pred(),
        r in any_range(),
        flip in proptest::bool::ANY,
    ) {
        let inverted = Range::Interval { lo: 7, hi: -7 };
        for e in [Range::Empty, inverted] {
            let (l, rr) = if flip { (e, r) } else { (r, e) };
            let b = binop_range(op, l, rr);
            prop_assert!(b.is_empty(), "{op:?}: {l} ⋄ {rr} = {b} not empty");
            let c = cmp_range(pred, l, rr);
            prop_assert!(c.is_empty(), "{pred:?}: {l} ⋄ {rr} = {c} not empty");
        }
    }

    /// Widening termination: the fixpoint over randomly generated loop
    /// nests (including concretely non-terminating ones) finishes with a
    /// bounded number of block updates.
    #[test]
    fn widening_terminates_on_random_loop_cfgs(
        descs in proptest::collection::vec(
            (0i64..3, -8i64..8, -8i64..8, -3i64..4, proptest::bool::ANY),
            1..6,
        ),
    ) {
        let src = loop_program(&descs);
        let program = ipds_ir::parse(&src)
            .unwrap_or_else(|e| panic!("generated program must parse: {e}\n{src}"));
        let Facts { alias, summaries } = Facts::compute(&program);
        for func in &program.functions {
            let ia = IntervalAnalysis::analyze(&program, func, &alias, &summaries, &PrunedFunction::default());
            let cap = 64 * (func.blocks.len() as u64 + 1);
            prop_assert!(
                ia.stats.block_updates <= cap,
                "fixpoint took {} updates (cap {cap}) on:\n{src}",
                ia.stats.block_updates
            );
            prop_assert!(ia.reachable(func.entry), "entry must stay reachable");
        }
    }
}

/// Renders a loop-nest program from descriptors: each entry contributes
/// `v = init; while (v < bound) { v = v + step; … }`, nesting the remaining
/// descriptors inside the body when its flag is set.
fn loop_program(descs: &[(i64, i64, i64, i64, bool)]) -> String {
    fn stmts(descs: &[(i64, i64, i64, i64, bool)]) -> String {
        let Some((&(v, init, bound, step, nest), rest)) = descs.split_first() else {
            return String::new();
        };
        let var = ["i", "j", "k"][v.rem_euclid(3) as usize];
        let inner = stmts(rest);
        if nest {
            format!(
                "{var} = {init}; while ({var} < {bound}) {{ {var} = {var} + {step}; {inner} }} "
            )
        } else {
            format!("{var} = {init}; while ({var} < {bound}) {{ {var} = {var} + {step}; }} {inner}")
        }
    }
    format!(
        "fn main() -> int {{ int i; int j; int k; {} return i; }}",
        stmts(descs)
    )
}
