//! Main memory banks with per-line valid bits.
//!
//! "A single tag bit is associated with each line in main memory indicating
//! whether the contents are valid or invalid, that is, modified. This bit
//! is necessary to prevent a request from acquiring stale data from memory
//! while the modified line tables are in an inconsistent state." (§3)

use crate::addr::{LineAddr, LineMap};

/// An opaque stamp standing in for a line's data contents.
///
/// Every write mints a fresh version (see the coherence layer), so
/// comparing versions is equivalent to comparing data. Version 0 is the
/// line's initial contents.
///
/// # Example
///
/// ```
/// use multicube_mem::LineVersion;
///
/// let v = LineVersion::new(7);
/// assert_ne!(v, LineVersion::INITIAL);
/// assert_eq!(v.stamp(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineVersion(u64);

impl LineVersion {
    /// The version every line holds before its first write.
    pub const INITIAL: LineVersion = LineVersion(0);

    /// Creates a version from a raw stamp.
    pub const fn new(stamp: u64) -> Self {
        LineVersion(stamp)
    }

    /// The raw stamp.
    pub const fn stamp(self) -> u64 {
        self.0
    }
}

/// One line's state in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemLine {
    valid: bool,
    data: LineVersion,
}

/// One column's bank of interleaved main memory.
///
/// The bank lazily materializes lines: any line is initially valid with
/// [`LineVersion::INITIAL`] contents. The protocol marks a line invalid
/// when a cache takes it modified, and valid again on update.
///
/// # Example
///
/// ```
/// use multicube_mem::{LineAddr, LineVersion, MemoryBank};
///
/// let mut bank = MemoryBank::new();
/// let line = LineAddr::new(5);
/// assert!(bank.is_valid(&line));
/// bank.mark_invalid(&line);
/// assert_eq!(bank.read_valid(&line), None);
/// bank.write(line, LineVersion::new(3));
/// assert_eq!(bank.read_valid(&line), Some(LineVersion::new(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryBank {
    lines: LineMap<MemLine>,
}

impl MemoryBank {
    /// Creates an empty (all-valid, all-initial) bank.
    pub fn new() -> Self {
        MemoryBank::default()
    }

    fn entry(&mut self, line: LineAddr) -> &mut MemLine {
        self.lines.entry(line).or_insert(MemLine {
            valid: true,
            data: LineVersion::INITIAL,
        })
    }

    /// Whether the line's memory copy is valid (global state unmodified).
    pub fn is_valid(&self, line: &LineAddr) -> bool {
        self.lines.get(line).map(|l| l.valid).unwrap_or(true)
    }

    /// Reads the line's contents if the valid bit is set; `None` if the
    /// memory copy is stale.
    pub fn read_valid(&self, line: &LineAddr) -> Option<LineVersion> {
        match self.lines.get(line) {
            Some(l) if l.valid => Some(l.data),
            Some(_) => None,
            None => Some(LineVersion::INITIAL),
        }
    }

    /// Reads the line's contents regardless of the valid bit (diagnostics).
    pub fn peek(&self, line: &LineAddr) -> LineVersion {
        self.lines
            .get(line)
            .map(|l| l.data)
            .unwrap_or(LineVersion::INITIAL)
    }

    /// Writes the line and sets its valid bit (a memory update:
    /// `write memory line and mark line valid` in Appendix A).
    pub fn write(&mut self, line: LineAddr, data: LineVersion) {
        let entry = self.entry(line);
        entry.data = data;
        entry.valid = true;
    }

    /// Clears the valid bit: the authoritative copy has moved to a cache
    /// (`mark line invalid` executed by memory in Appendix A).
    pub fn mark_invalid(&mut self, line: &LineAddr) {
        self.entry(*line).valid = false;
    }

    /// Iterates over lines that have been touched, with their valid bit.
    pub fn touched_lines(&self) -> impl Iterator<Item = (LineAddr, bool, LineVersion)> + '_ {
        self.lines.iter().map(|(l, s)| (*l, s.valid, s.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn untouched_lines_are_valid_initial() {
        let bank = MemoryBank::new();
        assert!(bank.is_valid(&line(42)));
        assert_eq!(bank.read_valid(&line(42)), Some(LineVersion::INITIAL));
    }

    #[test]
    fn invalid_lines_refuse_reads() {
        let mut bank = MemoryBank::new();
        bank.mark_invalid(&line(1));
        assert!(!bank.is_valid(&line(1)));
        assert_eq!(bank.read_valid(&line(1)), None);
    }

    #[test]
    fn write_restores_validity() {
        let mut bank = MemoryBank::new();
        bank.mark_invalid(&line(1));
        bank.write(line(1), LineVersion::new(9));
        assert_eq!(bank.read_valid(&line(1)), Some(LineVersion::new(9)));
    }

    #[test]
    fn peek_ignores_valid_bit() {
        let mut bank = MemoryBank::new();
        bank.write(line(3), LineVersion::new(7));
        bank.mark_invalid(&line(3));
        assert_eq!(bank.peek(&line(3)), LineVersion::new(7));
    }

    #[test]
    fn touched_lines_reports_state() {
        let mut bank = MemoryBank::new();
        bank.write(line(1), LineVersion::new(1));
        bank.mark_invalid(&line(2));
        let mut touched: Vec<_> = bank.touched_lines().collect();
        touched.sort_by_key(|(l, _, _)| l.index());
        assert_eq!(
            touched,
            vec![
                (line(1), true, LineVersion::new(1)),
                (line(2), false, LineVersion::INITIAL)
            ]
        );
    }
}
