//! Bit-level encoding of BSV/BCV/BAT and size accounting (Fig. 8).
//!
//! The tables are tagless thanks to the per-function perfect hash (§5.2):
//!
//! * **BSV** — `2 × space` bits (one 2-bit status per hash slot);
//! * **BCV** — `1 × space` bits;
//! * **BAT** — a packed list-of-lists: a 16-bit row count, then per row the
//!   trigger slot (`slot_bits`), a direction bit, an 8-bit entry count, and
//!   `slot_bits + 2` bits per entry (target slot + action). A list longer
//!   than 255 entries is written as consecutive rows with the same trigger
//!   and direction, which decoding concatenates.
//!
//! [`encode_bat`]/[`decode_bat`] round-trip through the packed form so the
//! sizes reported by the harness are backed by a real encoding, not just
//! arithmetic.

use std::collections::BTreeMap;

use crate::action::BrAction;
use crate::hash::HashParams;
use crate::tables::{BatEntry, BranchInfo};

/// Encoded table sizes in bits for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableSizes {
    /// Branch Status Vector bits (`2 × space`).
    pub bsv_bits: usize,
    /// Branch Check Vector bits (`1 × space`).
    pub bcv_bits: usize,
    /// Branch Action Table bits (packed encoding length).
    pub bat_bits: usize,
}

impl TableSizes {
    /// Total bits across the three tables.
    pub fn total(&self) -> usize {
        self.bsv_bits + self.bcv_bits + self.bat_bits
    }
}

/// A growable MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn push(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} too large");
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            let byte_idx = self.bit_len / 8;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            if bit != 0 {
                self.bytes[byte_idx] |= 1 << (7 - (self.bit_len % 8));
            }
            self.bit_len += 1;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Consumes the writer, returning the packed bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// An MSB-first bit reader over packed bytes.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `width` bits, MSB first. Returns `None` past the end.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..width {
            let byte = self.bytes[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u64;
            self.pos += 1;
        }
        Some(v)
    }
}

/// Most entries one packed BAT row holds: the row's entry count is 8 bits.
const MAX_ROW_ENTRIES: usize = u8::MAX as usize;

/// Packed rows needed for one `(trigger, dir)` list of `len` entries (an
/// empty list still takes one row).
fn row_count(len: usize) -> usize {
    len.div_ceil(MAX_ROW_ENTRIES).max(1)
}

/// Encodes the BAT rows into the packed wire format.
///
/// Entries reference *hash slots*, mirroring the hardware layout: branch
/// indices are mapped through `branches[i].slot`.
pub fn encode_bat(
    bat: &BTreeMap<(u32, bool), Vec<BatEntry>>,
    branches: &[BranchInfo],
    hash: &HashParams,
) -> Vec<u8> {
    let slot_bits = hash.slot_bits();
    let mut w = BitWriter::new();
    let rows: usize = bat.values().map(|entries| row_count(entries.len())).sum();
    w.push(rows as u64, 16);
    for ((trigger, dir), entries) in bat {
        for start in (0..row_count(entries.len())).map(|r| r * MAX_ROW_ENTRIES) {
            let row = &entries[start..entries.len().min(start + MAX_ROW_ENTRIES)];
            w.push(branches[*trigger as usize].slot as u64, slot_bits);
            w.push(*dir as u64, 1);
            w.push(row.len() as u64, 8);
            for e in row {
                w.push(branches[e.target as usize].slot as u64, slot_bits);
                w.push(e.action.to_bits() as u64, 2);
            }
        }
    }
    w.into_bytes()
}

/// Decodes a packed BAT, resolving slots back to branch indices via the
/// slot→index map implied by `branches`. Rows sharing a `(trigger, dir)`
/// key are concatenated in order.
///
/// Returns `None` if the bytes are truncated or reference unknown slots.
pub fn decode_bat(
    bytes: &[u8],
    branches: &[BranchInfo],
    hash: &HashParams,
) -> Option<BTreeMap<(u32, bool), Vec<BatEntry>>> {
    let slot_bits = hash.slot_bits();
    let index_of_slot: BTreeMap<u32, u32> = branches
        .iter()
        .enumerate()
        .map(|(i, b)| (b.slot, i as u32))
        .collect();
    let mut r = BitReader::new(bytes);
    let rows = r.read(16)?;
    let mut out: BTreeMap<(u32, bool), Vec<BatEntry>> = BTreeMap::new();
    for _ in 0..rows {
        let slot = r.read(slot_bits)? as u32;
        let dir = r.read(1)? != 0;
        let count = r.read(8)?;
        let trigger = *index_of_slot.get(&slot)?;
        let entries = out.entry((trigger, dir)).or_default();
        entries.reserve(count as usize);
        for _ in 0..count {
            let tslot = r.read(slot_bits)? as u32;
            let action = BrAction::from_bits(r.read(2)? as u8);
            entries.push(BatEntry {
                target: *index_of_slot.get(&tslot)?,
                action,
            });
        }
    }
    Some(out)
}

/// Computes the three table sizes for a function's analysis results.
pub fn table_sizes(
    bat: &BTreeMap<(u32, bool), Vec<BatEntry>>,
    branches: &[BranchInfo],
    hash: &HashParams,
) -> TableSizes {
    let space = hash.space() as usize;
    let bat_bytes = encode_bat(bat, branches, hash);
    // Exact bit length: recompute rather than ×8 the byte length.
    let slot_bits = hash.slot_bits() as usize;
    let bat_bits = 16
        + bat
            .values()
            .map(|entries| {
                row_count(entries.len()) * (slot_bits + 1 + 8) + entries.len() * (slot_bits + 2)
            })
            .sum::<usize>();
    debug_assert!(bat_bytes.len() * 8 >= bat_bits);
    TableSizes {
        bsv_bits: 2 * space,
        bcv_bits: space,
        bat_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipds_ir::BlockId;

    fn branches_with_slots(n: u32) -> (Vec<BranchInfo>, HashParams) {
        let hash = HashParams {
            shift1: 0,
            shift2: 0,
            log2_size: 4,
            pc_base: 0x1000,
        };
        let branches = (0..n)
            .map(|i| {
                let pc = 0x1000 + 4 * (i as u64) * 3;
                BranchInfo {
                    block: BlockId(i),
                    pc,
                    slot: hash.slot(pc),
                }
            })
            .collect();
        (branches, hash)
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.push(0b101, 3);
        w.push(0xDEAD, 16);
        w.push(1, 1);
        w.push(0, 7);
        assert_eq!(w.bit_len(), 27);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(16), Some(0xDEAD));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(7), Some(0));
        assert_eq!(r.read(9), None, "past the end");
    }

    #[test]
    fn bat_roundtrips() {
        let (branches, hash) = branches_with_slots(5);
        let mut bat = BTreeMap::new();
        bat.insert(
            (0u32, true),
            vec![
                BatEntry {
                    target: 1,
                    action: BrAction::SetTaken,
                },
                BatEntry {
                    target: 4,
                    action: BrAction::SetUnknown,
                },
            ],
        );
        bat.insert(
            (3u32, false),
            vec![BatEntry {
                target: 3,
                action: BrAction::SetNotTaken,
            }],
        );
        // Longer than one packed row's 8-bit entry count.
        let entry = BatEntry {
            target: 4,
            action: BrAction::SetTaken,
        };
        bat.insert((2u32, true), vec![entry; 300]);
        let bytes = encode_bat(&bat, &branches, &hash);
        let back = decode_bat(&bytes, &branches, &hash).unwrap();
        assert_eq!(back, bat);
        assert_eq!(
            table_sizes(&bat, &branches, &hash).bat_bits.div_ceil(8),
            bytes.len()
        );
    }

    #[test]
    fn sizes_scale_with_content() {
        let (branches, hash) = branches_with_slots(5);
        let empty = table_sizes(&BTreeMap::new(), &branches, &hash);
        assert_eq!(empty.bsv_bits, 2 * 16);
        assert_eq!(empty.bcv_bits, 16);
        assert_eq!(empty.bat_bits, 16);

        let mut bat = BTreeMap::new();
        bat.insert(
            (0u32, true),
            vec![BatEntry {
                target: 1,
                action: BrAction::SetTaken,
            }],
        );
        let one = table_sizes(&bat, &branches, &hash);
        assert!(one.bat_bits > empty.bat_bits);
        assert_eq!(one.total(), one.bsv_bits + one.bcv_bits + one.bat_bits);
    }

    #[test]
    fn truncated_bat_decodes_to_none() {
        let (branches, hash) = branches_with_slots(3);
        let mut bat = BTreeMap::new();
        bat.insert(
            (0u32, true),
            vec![BatEntry {
                target: 2,
                action: BrAction::SetTaken,
            }],
        );
        let mut bytes = encode_bat(&bat, &branches, &hash);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_bat(&bytes, &branches, &hash).is_none());
    }
}
