//! Flat cell memory with contiguous stack frames.
//!
//! Every variable occupies a contiguous run of 64-bit cells. Globals are
//! laid out once at startup; each function activation pushes a frame holding
//! its parameters and locals back-to-back. Because frames are contiguous,
//! writing past the end of a buffer clobbers the next variable — the memory
//! model a buffer-overflow attack needs.

use ipds_ir::{Function, Program, VarId, VarKind};

/// Base address of the globals segment (cell 0 stays reserved as "null").
pub const GLOBAL_BASE: usize = 16;

/// One active stack frame's layout. Plain `Copy` data — the per-variable
/// offsets live in the per-function layout table shared by all activations
/// of a function, so pushing a frame allocates nothing and snapshotting the
/// frame stack is a memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLayout {
    /// Owning function index.
    pub func: u32,
    /// First cell of the frame.
    pub base: usize,
    /// Total frame size in cells.
    pub size: usize,
}

/// Per-function frame layout, computed once at startup.
#[derive(Debug, Clone)]
struct FuncLayout {
    /// Per-variable offsets from the frame base (indexed by local `VarId`
    /// index).
    var_offsets: Vec<usize>,
    /// Total frame size in cells.
    size: usize,
}

/// A point-in-time copy of the mutable memory state (cells + frame stack);
/// see [`Memory::snapshot_into`].
#[derive(Debug, Clone, Default)]
pub struct MemSnapshot {
    cells: Vec<i64>,
    frames: Vec<FrameLayout>,
}

/// The simulated memory.
#[derive(Debug, Clone)]
pub struct Memory {
    cells: Vec<i64>,
    global_offsets: Vec<usize>,
    stack_base: usize,
    frames: Vec<FrameLayout>,
    func_layouts: Vec<FuncLayout>,
    /// Cells that are read-only (string literals etc.); enforced against
    /// program stores, exempt from tampering per the machine model.
    readonly_from_to: Vec<(usize, usize)>,
    /// Snapshot of the global segment (`cells[..stack_base]`) as laid out at
    /// startup, so [`Memory::reset`] can restore pristine state without
    /// re-running layout.
    pristine: Vec<i64>,
}

impl Memory {
    /// Lays out globals and prepares an empty stack.
    pub fn new(program: &Program) -> Memory {
        let mut cells = vec![0i64; GLOBAL_BASE];
        let mut global_offsets = Vec::with_capacity(program.globals.len());
        let mut readonly = Vec::new();
        for g in &program.globals {
            let base = cells.len();
            global_offsets.push(base);
            for i in 0..g.size as usize {
                cells.push(g.init.get(i).copied().unwrap_or(0));
            }
            if g.kind == VarKind::ReadOnly {
                readonly.push((base, base + g.size as usize));
            }
        }
        let stack_base = cells.len();
        let func_layouts = program
            .functions
            .iter()
            .map(|f| {
                let mut var_offsets = Vec::with_capacity(f.vars.len());
                let mut off = 0usize;
                for v in &f.vars {
                    var_offsets.push(off);
                    off += v.size as usize;
                }
                FuncLayout {
                    var_offsets,
                    size: off,
                }
            })
            .collect();
        Memory {
            pristine: cells.clone(),
            cells,
            global_offsets,
            stack_base,
            frames: Vec::new(),
            func_layouts,
            readonly_from_to: readonly,
        }
    }

    /// Restores the memory to its just-constructed state — globals back to
    /// their initializers, stack empty — without reallocating. This is what
    /// lets one interpreter arena serve a whole attack campaign.
    pub fn reset(&mut self) {
        self.cells.truncate(self.stack_base);
        self.cells.copy_from_slice(&self.pristine);
        self.frames.clear();
    }

    /// Pushes a frame for `func`, zero-initializing its cells. Returns the
    /// frame index. Allocation-free in steady state: the layout was computed
    /// at startup and the cell vector reuses its capacity.
    pub fn push_frame(&mut self, func: &Function) -> usize {
        let base = self.cells.len();
        let size = self.func_layouts[func.id.0 as usize].size;
        self.cells.resize(base + size, 0);
        self.frames.push(FrameLayout {
            func: func.id.0,
            base,
            size,
        });
        self.frames.len() - 1
    }

    /// Captures the mutable memory state (cells + frame stack) into `snap`,
    /// reusing its allocations. Restoring with [`Memory::restore`] rewinds
    /// to exactly this point.
    pub fn snapshot_into(&self, snap: &mut MemSnapshot) {
        snap.cells.clone_from(&self.cells);
        snap.frames.clone_from(&self.frames);
    }

    /// Rewinds the mutable memory state to a previously captured
    /// [`MemSnapshot`] (taken from a `Memory` over the same program).
    pub fn restore(&mut self, snap: &MemSnapshot) {
        self.cells.clone_from(&snap.cells);
        self.frames.clone_from(&snap.frames);
    }

    /// True if the mutable memory state equals the captured snapshot's on
    /// the frame stack and on the cells set in `read_mask` (a bitmask over
    /// cell addresses, 64 per word). Cells outside the mask may hold
    /// arbitrary divergent values.
    ///
    /// The warm-start engine passes the set of cells the golden suffix will
    /// ever read: a run whose state matches on those — with an identical
    /// frame stack, so all future layout decisions and bounds checks agree —
    /// performs exactly the golden suffix regardless of what the unread
    /// cells hold. Mask bits at or beyond the current allocation are
    /// ignored: unmapped cells read as a deterministic 0 and are
    /// zero-filled on (re)allocation, identically on both sides.
    pub fn state_eq_masked(&self, snap: &MemSnapshot, read_mask: &[u64]) -> bool {
        if self.frames != snap.frames || self.cells.len() != snap.cells.len() {
            return false;
        }
        for (w, &word) in read_mask.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let addr = w * 64 + m.trailing_zeros() as usize;
                if addr >= self.cells.len() {
                    break;
                }
                if self.cells[addr] != snap.cells[addr] {
                    return false;
                }
                m &= m - 1;
            }
        }
        true
    }

    /// Pops the top frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame is active.
    pub fn pop_frame(&mut self) {
        let f = self.frames.pop().expect("frame stack underflow");
        self.cells.truncate(f.base);
    }

    /// The absolute cell address of a variable as seen from frame
    /// `frame_idx` (locals resolve against that frame, globals globally).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids.
    pub fn addr_of(&self, frame_idx: usize, var: VarId) -> usize {
        if var.is_global() {
            self.global_offsets[var.index()]
        } else {
            let f = &self.frames[frame_idx];
            f.base + self.func_layouts[f.func as usize].var_offsets[var.index()]
        }
    }

    /// Loads a cell; out-of-range addresses read 0 (like unmapped memory
    /// returning junk, kept deterministic).
    pub fn load(&self, addr: usize) -> i64 {
        self.cells.get(addr).copied().unwrap_or(0)
    }

    /// Stores a cell. Returns `false` (a fault) when the address is outside
    /// the allocated space or inside a read-only segment — the simulator
    /// turns that into a crash, which is what a segfault or write-protect
    /// trap would do.
    #[must_use]
    pub fn store(&mut self, addr: usize, value: i64) -> bool {
        if addr >= self.cells.len() || addr == 0 {
            return false;
        }
        if self
            .readonly_from_to
            .iter()
            .any(|&(lo, hi)| addr >= lo && addr < hi)
        {
            return false;
        }
        self.cells[addr] = value;
        true
    }

    /// Tampering write used by the attack injector: bypasses read-only and
    /// bounds policing (the attacker model is an arbitrary memory write),
    /// but still targets allocated cells only.
    pub fn tamper(&mut self, addr: usize, value: i64) -> bool {
        if let Some(c) = self.cells.get_mut(addr) {
            *c = value;
            true
        } else {
            false
        }
    }

    /// Total allocated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if no cells are allocated (never happens in practice; globals
    /// plus the reserved null page are always present).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Active frames, innermost last.
    pub fn frames(&self) -> &[FrameLayout] {
        &self.frames
    }

    /// True if `addr` lies in a read-only segment.
    pub fn is_readonly(&self, addr: usize) -> bool {
        self.readonly_from_to
            .iter()
            .any(|&(lo, hi)| addr >= lo && addr < hi)
    }

    /// All currently-live mutable cell addresses: globals plus active stack
    /// frames (the format-string attack's target space).
    pub fn live_mutable_cells(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (gi, &base) in self.global_offsets.iter().enumerate() {
            let glen = if gi + 1 < self.global_offsets.len() {
                self.global_offsets[gi + 1] - base
            } else {
                self.stack_base - base
            };
            for a in base..base + glen {
                if !self.is_readonly(a) {
                    out.push(a);
                }
            }
        }
        for f in &self.frames {
            out.extend(f.base..f.base + f.size);
        }
        out
    }

    /// Live stack cells only (the buffer-overflow attack's target space).
    pub fn live_stack_cells(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for f in &self.frames {
            out.extend(f.base..f.base + f.size);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        ipds_ir::parse(
            "int g = 7; int table[3]; \
             fn f(int a) -> int { int x; int buf[4]; int y; x = a; return x; } \
             fn main() -> int { return f(5); }",
        )
        .unwrap()
    }

    #[test]
    fn globals_initialized_and_addressable() {
        let p = program();
        let m = Memory::new(&p);
        let g = m.addr_of(0, VarId::global(0));
        assert_eq!(m.load(g), 7);
        let t = m.addr_of(0, VarId::global(1));
        assert_eq!(m.load(t), 0);
        assert_eq!(t, g + 1);
    }

    #[test]
    fn frames_are_contiguous_and_overflow_clobbers_neighbor() {
        let p = program();
        let f = p.function_by_name("f").unwrap();
        let mut m = Memory::new(&p);
        let fi = m.push_frame(f);
        // Layout: a(1), x(1), buf(4), y(1).
        let buf = m.addr_of(fi, VarId::local(2));
        let y = m.addr_of(fi, VarId::local(3));
        assert_eq!(y, buf + 4, "y must sit right after buf");
        // Write one past the end of buf: hits y.
        assert!(m.store(buf + 4, 99));
        assert_eq!(m.load(y), 99);
    }

    #[test]
    fn pop_frame_releases_cells() {
        let p = program();
        let f = p.function_by_name("f").unwrap();
        let mut m = Memory::new(&p);
        let before = m.len();
        m.push_frame(f);
        assert!(m.len() > before);
        m.pop_frame();
        assert_eq!(m.len(), before);
    }

    #[test]
    fn store_faults_are_reported() {
        let p = program();
        let mut m = Memory::new(&p);
        assert!(!m.store(0, 1), "null write faults");
        assert!(!m.store(1_000_000, 1), "wild write faults");
        assert!(m.tamper(GLOBAL_BASE, 42), "tamper within bounds works");
        assert!(!m.tamper(1_000_000, 1), "tamper out of bounds fails");
    }

    #[test]
    fn readonly_strings_resist_stores_but_not_policy() {
        let p =
            ipds_ir::parse("fn main() -> int { int x; x = strlen(\"abc\"); return x; }").unwrap();
        let m = Memory::new(&p);
        // Find the read-only segment.
        let ro = (0..m.len()).find(|&a| m.is_readonly(a)).expect("ro cells");
        let mut m2 = m.clone();
        assert!(!m2.store(ro, 1), "program store to read-only faults");
    }

    #[test]
    fn reset_restores_pristine_state() {
        let p = program();
        let f = p.function_by_name("f").unwrap();
        let mut m = Memory::new(&p);
        let baseline = m.clone();
        let fi = m.push_frame(f);
        assert!(m.store(m.addr_of(fi, VarId::local(0)), 5));
        assert!(m.tamper(m.addr_of(0, VarId::global(0)), 999));
        m.reset();
        assert_eq!(m.len(), baseline.len());
        assert_eq!(m.frames().len(), 0);
        assert_eq!(m.load(m.addr_of(0, VarId::global(0))), 7, "global restored");
        for a in 0..m.len() {
            assert_eq!(m.load(a), baseline.load(a), "cell {a}");
        }
    }

    #[test]
    fn live_cells_track_frames() {
        let p = program();
        let f = p.function_by_name("f").unwrap();
        let mut m = Memory::new(&p);
        let before_stack = m.live_stack_cells().len();
        assert_eq!(before_stack, 0);
        m.push_frame(f);
        assert_eq!(m.live_stack_cells().len(), 7);
        assert!(m.live_mutable_cells().len() >= 7 + 4, "globals + frame");
    }
}
