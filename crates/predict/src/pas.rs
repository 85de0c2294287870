//! A PAs (per-address, set/shared PHT) two-level predictor.

use crate::counter::Counter2;

/// A PAs two-level predictor: a per-address branch history table feeding
/// a shared pattern history table of 2-bit counters.
///
/// The paper's icache-only reference front end uses a PAs component with
/// 15 bits of local history and a 4K-entry branch history table
/// ([`PasPredictor::paper`]).
#[derive(Debug, Clone)]
pub struct PasPredictor {
    /// Per-branch local histories.
    bht: Vec<u64>,
    /// Shared pattern table indexed by local history.
    pht: Vec<Counter2>,
    local_bits: u32,
}

impl PasPredictor {
    /// Creates a PAs predictor with `2^bht_bits` history entries and
    /// `local_bits` bits of local history (PHT has `2^local_bits`
    /// counters).
    ///
    /// # Panics
    ///
    /// Panics if `bht_bits` or `local_bits` is 0 or greater than 26.
    #[must_use]
    pub fn new(bht_bits: u32, local_bits: u32) -> PasPredictor {
        assert!(bht_bits > 0 && bht_bits <= 26);
        assert!(local_bits > 0 && local_bits <= 26);
        PasPredictor {
            bht: vec![0; 1 << bht_bits],
            pht: vec![Counter2::new(); 1 << local_bits],
            local_bits,
        }
    }

    /// The paper's configuration: 4K-entry BHT, 15 bits of local history.
    #[must_use]
    pub fn paper() -> PasPredictor {
        PasPredictor::new(12, 15)
    }

    fn bht_index(&self, pc: u64) -> usize {
        (pc as usize) & (self.bht.len() - 1)
    }

    fn pht_index(&self, local: u64) -> usize {
        (local as usize) & (self.pht.len() - 1)
    }

    /// Predicts the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u64) -> bool {
        let local = self.bht[self.bht_index(pc)];
        self.pht[self.pht_index(local)].predict()
    }

    /// Trains with the actual outcome and shifts it into the local
    /// history.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let bi = self.bht_index(pc);
        let local = self.bht[bi];
        let pi = self.pht_index(local);
        self.pht[pi].update(taken);
        let mask = (1u64 << self.local_bits) - 1;
        self.bht[bi] = ((local << 1) | u64::from(taken)) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_per_branch_period_two_pattern() {
        // A branch alternating T,N,T,N is hopeless for a counter but
        // trivial for local history.
        let mut p = PasPredictor::new(8, 8);
        let pc = 0x1234;
        let mut outcome = false;
        for _ in 0..64 {
            p.update(pc, outcome);
            outcome = !outcome;
        }
        // After training, prediction should track the alternation.
        let mut correct = 0;
        for _ in 0..20 {
            if p.predict(pc) == outcome {
                correct += 1;
            }
            p.update(pc, outcome);
            outcome = !outcome;
        }
        assert!(
            correct >= 18,
            "PAs should nail an alternating branch, got {correct}/20"
        );
    }

    #[test]
    fn distinct_branches_have_distinct_local_histories() {
        let mut p = PasPredictor::new(8, 8);
        // Enough iterations for each branch's local history to saturate
        // (8 shifts) and then revisit the same PHT entry repeatedly.
        for _ in 0..24 {
            p.update(0x10, true);
            p.update(0x11, false);
        }
        assert!(p.predict(0x10));
        assert!(!p.predict(0x11));
    }

    #[test]
    fn paper_geometry() {
        let p = PasPredictor::paper();
        assert_eq!(p.bht.len(), 4096);
        assert_eq!(p.pht.len(), 1 << 15);
    }
}
