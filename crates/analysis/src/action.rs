//! Branch statuses and BAT actions.

use std::fmt;

/// The expected direction recorded for a branch in the BSV.
///
/// Two bits per branch encode three possibilities (§5.1): taken, not-taken
/// and unknown. "Unknown" matches any actual direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BranchStatus {
    /// Expected taken.
    Taken,
    /// Expected not-taken.
    NotTaken,
    /// Direction unknown — any outcome verifies.
    #[default]
    Unknown,
}

impl BranchStatus {
    /// True if the actual direction `dir` (`true` = taken) is consistent
    /// with this expected status. A mismatch is an infeasible path.
    pub fn matches(self, dir: bool) -> bool {
        match self {
            BranchStatus::Taken => dir,
            BranchStatus::NotTaken => !dir,
            BranchStatus::Unknown => true,
        }
    }

    /// 2-bit encoding used by the packed tables (00 = unknown, 01 = taken,
    /// 10 = not-taken).
    pub fn to_bits(self) -> u8 {
        match self {
            BranchStatus::Unknown => 0b00,
            BranchStatus::Taken => 0b01,
            BranchStatus::NotTaken => 0b10,
        }
    }

    /// Decodes the 2-bit encoding; `0b11` is treated as unknown.
    pub fn from_bits(bits: u8) -> BranchStatus {
        match bits & 0b11 {
            0b01 => BranchStatus::Taken,
            0b10 => BranchStatus::NotTaken,
            _ => BranchStatus::Unknown,
        }
    }
}

impl fmt::Display for BranchStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BranchStatus::Taken => write!(f, "T"),
            BranchStatus::NotTaken => write!(f, "NT"),
            BranchStatus::Unknown => write!(f, "UN"),
        }
    }
}

/// A BAT action applied to a target branch's status after a trigger branch
/// commits (§5.1: `SET_T`, `SET_NT`, `SET_UN`, `NC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrAction {
    /// Set the target's expected direction to taken.
    SetTaken,
    /// Set the target's expected direction to not-taken.
    SetNotTaken,
    /// Set the target's expected direction to unknown.
    SetUnknown,
    /// Leave the target's status unchanged. Never stored in the BAT (absence
    /// of an entry means `NC`); exists for completeness and merging.
    NoChange,
}

impl BrAction {
    /// The status this action installs, if any.
    pub fn applied(self, old: BranchStatus) -> BranchStatus {
        match self {
            BrAction::SetTaken => BranchStatus::Taken,
            BrAction::SetNotTaken => BranchStatus::NotTaken,
            BrAction::SetUnknown => BranchStatus::Unknown,
            BrAction::NoChange => old,
        }
    }

    /// The action asserting direction `dir`.
    pub fn set_dir(dir: bool) -> BrAction {
        if dir {
            BrAction::SetTaken
        } else {
            BrAction::SetNotTaken
        }
    }

    /// Conservative merge of two actions for the same (trigger, direction,
    /// target): `SET_UN` absorbs everything, conflicting directions collapse
    /// to `SET_UN`, `NC` is the identity.
    pub fn merge(self, other: BrAction) -> BrAction {
        use BrAction::*;
        match (self, other) {
            (NoChange, x) | (x, NoChange) => x,
            (SetUnknown, _) | (_, SetUnknown) => SetUnknown,
            (SetTaken, SetTaken) => SetTaken,
            (SetNotTaken, SetNotTaken) => SetNotTaken,
            (SetTaken, SetNotTaken) | (SetNotTaken, SetTaken) => SetUnknown,
        }
    }

    /// 2-bit encoding (00 = NC, 01 = SET_T, 10 = SET_NT, 11 = SET_UN).
    pub fn to_bits(self) -> u8 {
        match self {
            BrAction::NoChange => 0b00,
            BrAction::SetTaken => 0b01,
            BrAction::SetNotTaken => 0b10,
            BrAction::SetUnknown => 0b11,
        }
    }

    /// Decodes the 2-bit encoding.
    pub fn from_bits(bits: u8) -> BrAction {
        match bits & 0b11 {
            0b01 => BrAction::SetTaken,
            0b10 => BrAction::SetNotTaken,
            0b11 => BrAction::SetUnknown,
            _ => BrAction::NoChange,
        }
    }
}

impl fmt::Display for BrAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrAction::SetTaken => write!(f, "SET_T"),
            BrAction::SetNotTaken => write!(f, "SET_NT"),
            BrAction::SetUnknown => write!(f, "SET_UN"),
            BrAction::NoChange => write!(f, "NC"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_matches_everything() {
        assert!(BranchStatus::Unknown.matches(true));
        assert!(BranchStatus::Unknown.matches(false));
        assert!(BranchStatus::Taken.matches(true));
        assert!(!BranchStatus::Taken.matches(false));
        assert!(BranchStatus::NotTaken.matches(false));
        assert!(!BranchStatus::NotTaken.matches(true));
    }

    #[test]
    fn status_bits_roundtrip() {
        for s in [
            BranchStatus::Taken,
            BranchStatus::NotTaken,
            BranchStatus::Unknown,
        ] {
            assert_eq!(BranchStatus::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    fn action_bits_roundtrip() {
        for a in [
            BrAction::SetTaken,
            BrAction::SetNotTaken,
            BrAction::SetUnknown,
            BrAction::NoChange,
        ] {
            assert_eq!(BrAction::from_bits(a.to_bits()), a);
        }
    }

    #[test]
    fn merge_is_conservative_and_commutative() {
        use BrAction::*;
        let all = [SetTaken, SetNotTaken, SetUnknown, NoChange];
        for &a in &all {
            for &b in &all {
                assert_eq!(a.merge(b), b.merge(a), "{a} {b}");
            }
            assert_eq!(a.merge(NoChange), a);
            assert_eq!(a.merge(SetUnknown), SetUnknown);
        }
        assert_eq!(SetTaken.merge(SetNotTaken), SetUnknown);
    }

    #[test]
    fn apply_semantics() {
        assert_eq!(
            BrAction::SetTaken.applied(BranchStatus::Unknown),
            BranchStatus::Taken
        );
        assert_eq!(
            BrAction::NoChange.applied(BranchStatus::NotTaken),
            BranchStatus::NotTaken
        );
        assert_eq!(
            BrAction::SetUnknown.applied(BranchStatus::Taken),
            BranchStatus::Unknown
        );
    }
}
