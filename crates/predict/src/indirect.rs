//! Last-target prediction for indirect jumps and calls.

#[derive(Debug, Clone, Copy)]
struct IndirectEntry {
    tag: u64,
    target: u64,
}

/// A tagged last-target predictor for indirect jumps/calls.
///
/// The paper counts indirect mispredictions alongside conditional ones in
/// Figure 14 (returns are predicted ideally and handled by the
/// [`crate::ReturnStack`]); this simple BTB-style structure provides the
/// indirect-target predictions.
#[derive(Debug, Clone)]
pub struct IndirectPredictor {
    entries: Vec<Option<IndirectEntry>>,
}

impl IndirectPredictor {
    /// Creates a predictor with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> IndirectPredictor {
        assert!(
            entries.is_power_of_two(),
            "indirect predictor size must be a power of two"
        );
        IndirectPredictor {
            entries: vec![None; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        (pc as usize) & (self.entries.len() - 1)
    }

    fn tag(&self, pc: u64) -> u64 {
        pc / self.entries.len() as u64
    }

    /// The predicted target for the indirect branch at `pc`, if known.
    #[must_use]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        match &self.entries[self.index(pc)] {
            Some(e) if e.tag == self.tag(pc) => Some(e.target),
            _ => None,
        }
    }

    /// Records the actual target of the indirect branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        self.entries[idx] = Some(IndirectEntry { tag, target });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remembers_last_target() {
        let mut p = IndirectPredictor::new(16);
        assert_eq!(p.predict(0x30), None);
        p.update(0x30, 100);
        assert_eq!(p.predict(0x30), Some(100));
        p.update(0x30, 200);
        assert_eq!(p.predict(0x30), Some(200));
    }

    #[test]
    fn tags_disambiguate_aliases() {
        let mut p = IndirectPredictor::new(16);
        p.update(0x1, 50);
        assert_eq!(
            p.predict(0x1 + 16),
            None,
            "aliased slot must not match a different tag"
        );
        p.update(0x1 + 16, 60);
        assert_eq!(p.predict(0x1 + 16), Some(60));
        assert_eq!(p.predict(0x1), None, "eviction removes the old branch");
    }
}
