//! Value-range domain for branch correlation.
//!
//! A branch whose condition compares a value against a constant implies a
//! *range* of that value in each direction. Scenario 3 of the paper
//! ("subsume") reduces to set inclusion between such ranges; Fig. 3.c's
//! arithmetic (`r1 = y - 1`) reduces to shifting a range by a constant.
//!
//! The domain is intervals over `i64` (with open ends) plus a disequality
//! shape `Ne(c)` so that the not-taken direction of `x == c` (and the taken
//! direction of `x != c`) stays representable.

use std::fmt;

use ipds_ir::Pred;

/// A set of `i64` values representable by the correlation analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Range {
    /// The empty set (an always-false constraint).
    Empty,
    /// A closed interval `[lo, hi]`; unbounded ends use `i64::MIN`/`MAX`.
    /// Kept in `i128` so arithmetic on bounds cannot overflow.
    Interval {
        /// Lower bound (inclusive).
        lo: i128,
        /// Upper bound (inclusive).
        hi: i128,
    },
    /// Every value except `c`.
    Ne(i64),
    /// All values.
    Full,
}

const LO_INF: i128 = i64::MIN as i128;
const HI_INF: i128 = i64::MAX as i128;

impl Range {
    /// The full range.
    pub fn full() -> Range {
        Range::Full
    }

    /// A single value.
    pub fn exact(v: i64) -> Range {
        Range::Interval {
            lo: v as i128,
            hi: v as i128,
        }
    }

    /// `(-∞, hi]` clamped to `i64`.
    pub fn at_most(hi: i64) -> Range {
        Range::Interval {
            lo: LO_INF,
            hi: hi as i128,
        }
    }

    /// `[lo, +∞)` clamped to `i64`.
    pub fn at_least(lo: i64) -> Range {
        Range::Interval {
            lo: lo as i128,
            hi: HI_INF,
        }
    }

    /// Normalizes: empty intervals collapse to [`Range::Empty`], full
    /// intervals to [`Range::Full`].
    fn norm(self) -> Range {
        match self {
            Range::Interval { lo, hi } => {
                if lo > hi {
                    Range::Empty
                } else if lo <= LO_INF && hi >= HI_INF {
                    Range::Full
                } else {
                    Range::Interval {
                        lo: lo.max(LO_INF),
                        hi: hi.min(HI_INF),
                    }
                }
            }
            other => other,
        }
    }

    /// The set of values `v` for which `v pred c` evaluates to `dir`.
    ///
    /// This is the range a branch direction implies about the *compared*
    /// value: e.g. the taken direction of `cmp.lt v, 5` implies
    /// `v ∈ (-∞, 4]`.
    pub fn from_pred(pred: Pred, c: i64, dir: bool) -> Range {
        let p = if dir { pred } else { pred.negate() };
        let c128 = c as i128;
        match p {
            Pred::Eq => Range::exact(c),
            Pred::Ne => Range::Ne(c),
            Pred::Lt => Range::Interval {
                lo: LO_INF,
                hi: c128 - 1,
            }
            .norm(),
            Pred::Le => Range::Interval {
                lo: LO_INF,
                hi: c128,
            }
            .norm(),
            Pred::Gt => Range::Interval {
                lo: c128 + 1,
                hi: HI_INF,
            }
            .norm(),
            Pred::Ge => Range::Interval {
                lo: c128,
                hi: HI_INF,
            }
            .norm(),
        }
    }

    /// True if every value of `self` lies in `other` (`self ⊆ other`).
    ///
    /// This is the paper's *subsumes* test, with the arguments in subset
    /// order: `sub.subsumed_by(sup)` answers "does knowing `v ∈ sub` force
    /// `v ∈ sup`?".
    pub fn subsumed_by(self, other: Range) -> bool {
        match (self.norm(), other.norm()) {
            (Range::Empty, _) => true,
            (_, Range::Full) => true,
            (Range::Full, _) => false,
            (_, Range::Empty) => false,
            (Range::Interval { lo, hi }, Range::Interval { lo: lo2, hi: hi2 }) => {
                lo >= lo2 && hi <= hi2
            }
            (Range::Interval { lo, hi }, Range::Ne(c)) => {
                let c = c as i128;
                c < lo || c > hi
            }
            (Range::Ne(_), Range::Interval { lo, hi }) => {
                // Ne covers all but one value; an interval can only contain
                // it if the interval is full, which norm() already rewrote.
                let _ = (lo, hi);
                false
            }
            (Range::Ne(a), Range::Ne(b)) => a == b,
        }
    }

    /// Shifts the range by `k` (the set `{v + k : v ∈ self}`). Infinity
    /// sentinels stay put; a finite bound whose image leaves the `i64`
    /// window makes the result ⊤.
    pub fn shift(self, k: i64) -> Range {
        let k = k as i128;
        match self {
            Range::Empty => Range::Empty,
            Range::Full => Range::Full,
            Range::Interval { lo, hi } => {
                let nl = if lo <= LO_INF { LO_INF } else { lo + k };
                let nh = if hi >= HI_INF { HI_INF } else { hi + k };
                let window = LO_INF..=HI_INF;
                if window.contains(&nl) && window.contains(&nh) {
                    Range::Interval { lo: nl, hi: nh }.norm()
                } else {
                    // The values next to that bound wrap around to the
                    // other end of the window, and only ⊤ covers both
                    // shores; saturating the bound would drop them.
                    Range::Full
                }
            }
            Range::Ne(c) => match (c as i128).checked_add(k) {
                Some(v) if (LO_INF..=HI_INF).contains(&v) => Range::Ne(v as i64),
                _ => Range::Full,
            },
        }
    }

    /// Negates the range (the set `{-v : v ∈ self}`).
    pub fn negate(self) -> Range {
        match self {
            Range::Empty => Range::Empty,
            Range::Full => Range::Full,
            Range::Interval { lo: _, hi } if hi <= LO_INF => {
                // The singleton {MIN}: −MIN wraps straight back to MIN, so
                // the naive mirror would produce an inverted (empty) range
                // and silently drop a reachable value.
                Range::Interval {
                    lo: LO_INF,
                    hi: LO_INF,
                }
            }
            Range::Interval { lo, hi } => {
                // Infinity sentinels mirror to the opposite sentinel —
                // negating them arithmetically would leave a near-sentinel
                // finite bound that later shifts misread as wraparound.
                let nl = if hi >= HI_INF { LO_INF } else { -hi };
                let nh = if lo <= LO_INF { HI_INF } else { -lo };
                Range::Interval { lo: nl, hi: nh }.norm()
            }
            Range::Ne(c) => match c.checked_neg() {
                Some(v) => Range::Ne(v),
                None => Range::Full,
            },
        }
    }

    /// Applies the affine map `v ↦ scale*v + offset` where `scale ∈ {1,-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not `1` or `-1`.
    pub fn affine(self, scale: i64, offset: i64) -> Range {
        match scale {
            1 => self.shift(offset),
            -1 => self.negate().shift(offset),
            _ => panic!("affine scale must be ±1, got {scale}"),
        }
    }

    /// True if the range contains `v`.
    pub fn contains(self, v: i64) -> bool {
        match self.norm() {
            Range::Empty => false,
            Range::Full => true,
            Range::Interval { lo, hi } => (v as i128) >= lo && (v as i128) <= hi,
            Range::Ne(c) => v != c,
        }
    }

    /// Given that the compared value lies in `self`, decides the branch
    /// direction of `value pred c` if it is forced: `Some(true)` (taken),
    /// `Some(false)` (not taken) or `None` (either possible).
    pub fn implies_direction(self, pred: Pred, c: i64) -> Option<bool> {
        if self.subsumed_by(Range::from_pred(pred, c, true)) {
            Some(true)
        } else if self.subsumed_by(Range::from_pred(pred, c, false)) {
            Some(false)
        } else {
            None
        }
    }

    /// Least upper bound: the smallest representable range containing both
    /// `self` and `other` (exact for interval/interval — the convex hull —
    /// and for every case involving `Ne`).
    pub fn join(self, other: Range) -> Range {
        match (self.norm(), other.norm()) {
            (Range::Empty, r) | (r, Range::Empty) => r,
            (Range::Full, _) | (_, Range::Full) => Range::Full,
            (Range::Interval { lo, hi }, Range::Interval { lo: lo2, hi: hi2 }) => Range::Interval {
                lo: lo.min(lo2),
                hi: hi.max(hi2),
            }
            .norm(),
            (Range::Ne(c), Range::Interval { lo, hi })
            | (Range::Interval { lo, hi }, Range::Ne(c)) => {
                // Ne(c) already covers the interval unless c lies inside it.
                let c128 = c as i128;
                if c128 < lo || c128 > hi {
                    Range::Ne(c)
                } else {
                    Range::Full
                }
            }
            (Range::Ne(a), Range::Ne(b)) => {
                if a == b {
                    Range::Ne(a)
                } else {
                    Range::Full
                }
            }
        }
    }

    /// Greatest lower bound (over-approximate): a representable range
    /// containing the intersection of `self` and `other`. Exact except for
    /// `Interval ∩ Ne(c)` with `c` strictly inside the interval (the hole is
    /// not representable, so the interval is kept) and `Ne(a) ∩ Ne(b)` with
    /// `a ≠ b` (kept as `Ne(a)`). Both keeps are supersets of the true
    /// intersection, so refinement with `meet` stays sound.
    pub fn meet(self, other: Range) -> Range {
        match (self.norm(), other.norm()) {
            (Range::Empty, _) | (_, Range::Empty) => Range::Empty,
            (Range::Full, r) | (r, Range::Full) => r,
            (Range::Interval { lo, hi }, Range::Interval { lo: lo2, hi: hi2 }) => Range::Interval {
                lo: lo.max(lo2),
                hi: hi.min(hi2),
            }
            .norm(),
            (Range::Ne(c), Range::Interval { lo, hi })
            | (Range::Interval { lo, hi }, Range::Ne(c)) => {
                let c128 = c as i128;
                if c128 < lo || c128 > hi {
                    Range::Interval { lo, hi }.norm()
                } else if c128 == lo {
                    Range::Interval { lo: lo + 1, hi }.norm()
                } else if c128 == hi {
                    Range::Interval { lo, hi: hi - 1 }.norm()
                } else {
                    // The hole sits strictly inside: not representable,
                    // keep the interval (a sound over-approximation).
                    Range::Interval { lo, hi }.norm()
                }
            }
            (Range::Ne(a), Range::Ne(b)) => {
                // a == b is exact; otherwise Ne(a) ⊇ (Ne(a) ∩ Ne(b)).
                let _ = b;
                Range::Ne(a)
            }
        }
    }

    /// Classic interval widening with `self` as the previous iterate and
    /// `next` as the new one: any bound that moved outward jumps straight
    /// to its representable infinity. Each variable can therefore change at
    /// most three times under repeated widening (finite ascending chains),
    /// which is what guarantees loop fixpoints terminate.
    pub fn widen(self, next: Range) -> Range {
        match (self.norm(), next.norm()) {
            (Range::Empty, r) | (r, Range::Empty) => r,
            (Range::Full, _) | (_, Range::Full) => Range::Full,
            (Range::Interval { lo, hi }, Range::Interval { lo: lo2, hi: hi2 }) => Range::Interval {
                lo: if lo2 < lo { LO_INF } else { lo },
                hi: if hi2 > hi { HI_INF } else { hi },
            }
            .norm(),
            (Range::Ne(a), Range::Ne(b)) if a == b => Range::Ne(a),
            // Mixed shapes have no useful widening structure: give up to
            // Full immediately rather than oscillate.
            _ => Range::Full,
        }
    }

    /// True if the range denotes the empty set.
    pub fn is_empty(self) -> bool {
        matches!(self.norm(), Range::Empty)
    }

    /// The single value of the range, if it is a singleton.
    pub fn as_exact(self) -> Option<i64> {
        match self.norm() {
            Range::Interval { lo, hi } if lo == hi => Some(lo as i64),
            _ => None,
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.norm() {
            Range::Empty => write!(f, "∅"),
            Range::Full => write!(f, "⊤"),
            Range::Ne(c) => write!(f, "≠{c}"),
            Range::Interval { lo, hi } => {
                if lo <= LO_INF {
                    write!(f, "(-∞, {hi}]")
                } else if hi >= HI_INF {
                    write!(f, "[{lo}, +∞)")
                } else {
                    write!(f, "[{lo}, {hi}]")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pred_matches_eval() {
        // Exhaustively check that from_pred agrees with concrete evaluation
        // on a window of values.
        for pred in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            for c in [-2i64, 0, 3] {
                for dir in [true, false] {
                    let r = Range::from_pred(pred, c, dir);
                    for v in -6..=6 {
                        assert_eq!(
                            r.contains(v),
                            pred.eval(v, c) == dir,
                            "{pred:?} c={c} dir={dir} v={v} r={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_fig3a_subsumption() {
        // y < 5 subsumes y < 10.
        let y_lt_5 = Range::from_pred(Pred::Lt, 5, true);
        let y_lt_10 = Range::from_pred(Pred::Lt, 10, true);
        assert!(y_lt_5.subsumed_by(y_lt_10));
        assert!(!y_lt_10.subsumed_by(y_lt_5));
    }

    #[test]
    fn paper_fig3c_affine() {
        // y < 5, r1 = y - 1 ⇒ r1 < 4 ⊆ r1 < 10, so the branch r1 < 10 is
        // forced taken.
        let y_range = Range::from_pred(Pred::Lt, 5, true);
        let r1_range = y_range.affine(1, -1);
        assert_eq!(r1_range.implies_direction(Pred::Lt, 10), Some(true));
    }

    #[test]
    fn equality_ranges() {
        let eq0_taken = Range::from_pred(Pred::Eq, 0, true);
        assert_eq!(eq0_taken, Range::exact(0));
        let eq0_not = Range::from_pred(Pred::Eq, 0, false);
        assert_eq!(eq0_not, Range::Ne(0));
        // [1,5] ⊆ ≠0.
        assert!(Range::Interval { lo: 1, hi: 5 }.subsumed_by(Range::Ne(0)));
        // [0,5] ⊄ ≠0.
        assert!(!Range::Interval { lo: 0, hi: 5 }.subsumed_by(Range::Ne(0)));
        // ≠0 forces x == 0 not-taken.
        assert_eq!(Range::Ne(0).implies_direction(Pred::Eq, 0), Some(false));
        // [0,0] forces x == 0 taken.
        assert_eq!(Range::exact(0).implies_direction(Pred::Eq, 0), Some(true));
    }

    #[test]
    fn shift_and_negate() {
        let r = Range::Interval { lo: 1, hi: 3 };
        assert_eq!(r.shift(2), Range::Interval { lo: 3, hi: 5 });
        assert_eq!(r.negate(), Range::Interval { lo: -3, hi: -1 });
        assert_eq!(Range::Ne(4).shift(-1), Range::Ne(3));
        assert_eq!(Range::at_most(5).shift(1), Range::at_most(6));
        assert_eq!(Range::full().shift(100), Range::full());
        // A finite bound leaving the window makes the shift ⊤: 36 + MAX
        // wraps negative, and saturating the upper bound would drop it.
        let r = Range::Interval { lo: -18, hi: 36 };
        assert_eq!(r.shift(i64::MAX), Range::Full);
        assert_eq!(r.shift(i64::MIN), Range::Full);
        assert_eq!(Range::at_most(5).shift(i64::MAX), Range::Full);
        // Bounds that stay inside the window shift exactly.
        assert_eq!(
            Range::Interval { lo: -18, hi: 0 }.shift(i64::MAX),
            Range::Interval {
                lo: HI_INF - 18,
                hi: HI_INF
            }
        );
    }

    #[test]
    fn norm_collapses() {
        assert_eq!(
            Range::Interval { lo: 5, hi: 4 }.implies_direction(Pred::Lt, 0),
            Some(true),
            "empty range forces everything"
        );
        assert!(Range::Empty.subsumed_by(Range::Empty));
        assert!(Range::Ne(3).subsumed_by(Range::Full));
    }

    #[test]
    fn join_is_upper_bound() {
        let cases = [
            Range::Empty,
            Range::Full,
            Range::Ne(0),
            Range::Ne(7),
            Range::exact(3),
            Range::at_most(5),
            Range::at_least(-2),
            Range::Interval { lo: 1, hi: 9 },
        ];
        for a in cases {
            for b in cases {
                let j = a.join(b);
                assert!(a.subsumed_by(j), "{a} ⊄ {a} ⊔ {b} = {j}");
                assert!(b.subsumed_by(j), "{b} ⊄ {a} ⊔ {b} = {j}");
                assert_eq!(j, b.join(a), "join must commute");
            }
        }
        assert_eq!(
            Range::exact(1).join(Range::exact(5)),
            Range::Interval { lo: 1, hi: 5 }
        );
        assert_eq!(Range::Ne(3).join(Range::exact(4)), Range::Ne(3));
        assert_eq!(Range::Ne(3).join(Range::exact(3)), Range::Full);
    }

    #[test]
    fn meet_over_approximates_intersection() {
        let cases = [
            Range::Empty,
            Range::Full,
            Range::Ne(0),
            Range::Ne(7),
            Range::exact(3),
            Range::at_most(5),
            Range::at_least(-2),
            Range::Interval { lo: 1, hi: 9 },
        ];
        for a in cases {
            for b in cases {
                let m = a.meet(b);
                for v in -12..=12 {
                    if a.contains(v) && b.contains(v) {
                        assert!(m.contains(v), "{v} ∈ {a} ∩ {b} but not in meet {m}");
                    }
                }
            }
        }
        // Exact cases: boundary holes shave an endpoint.
        assert_eq!(
            Range::Interval { lo: 0, hi: 5 }.meet(Range::Ne(0)),
            Range::Interval { lo: 1, hi: 5 }
        );
        assert_eq!(
            Range::Interval { lo: 0, hi: 5 }.meet(Range::Ne(5)),
            Range::Interval { lo: 0, hi: 4 }
        );
        assert_eq!(Range::exact(4).meet(Range::at_least(5)), Range::Empty);
    }

    #[test]
    fn widen_covers_and_terminates() {
        let cases = [
            Range::Empty,
            Range::Full,
            Range::Ne(0),
            Range::exact(3),
            Range::at_most(5),
            Range::Interval { lo: 1, hi: 9 },
        ];
        for old in cases {
            for next in cases {
                let w = old.widen(next);
                assert!(old.subsumed_by(w), "{old} ∇ {next} = {w} lost old");
                assert!(next.subsumed_by(w), "{old} ∇ {next} = {w} lost next");
                // Idempotent once stable: widening with a subset of the
                // result must not change it.
                assert_eq!(w.widen(w), w);
            }
        }
        // Growing upper bound jumps straight to +∞; stable bound is kept.
        assert_eq!(
            Range::Interval { lo: 0, hi: 3 }.widen(Range::Interval { lo: 0, hi: 4 }),
            Range::at_least(0)
        );
        // Any chain r0 ∇ r1 ∇ ... stabilizes in a bounded number of steps.
        let mut r = Range::exact(0);
        let mut changes = 0;
        for i in 1..100 {
            let next = r.widen(Range::exact(i));
            if next != r {
                changes += 1;
            }
            r = next;
        }
        assert!(changes <= 3, "widening chain changed {changes} times");
    }

    #[test]
    fn self_subsumption_scenario2() {
        // Scenario 2 of the paper: a branch's own implied range trivially
        // forces the same direction when re-tested.
        for pred in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge] {
            for dir in [true, false] {
                let r = Range::from_pred(pred, 7, dir);
                assert_eq!(r.implies_direction(pred, 7), Some(dir), "{pred:?} {dir}");
            }
        }
    }
}
