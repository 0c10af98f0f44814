//! Hashed-perceptron off-chip prediction (the PerceptronOffChip contender).
//!
//! Jamet et al. ("A Two Level Neural Approach Combining Off-Chip Prediction
//! with Adaptive Prefetch Filtering", arXiv:2403.15181) predict whether a
//! load will be served off chip with a hashed perceptron: several weight
//! tables, each indexed by a different hash of the block address and a
//! per-core access history, are summed and compared against a confidence
//! threshold. Only a sum at or above the threshold gates the DRAM bypass;
//! training is thresholded too (weights move only on mispredicts or weak
//! sums), the classic perceptron-branch-predictor recipe.

use crate::hash::BitsHash;

/// Number of hashed feature tables.
const NUM_FEATURES: usize = 3;

/// The largest threshold magnitude the perceptron tells apart. A sum of
/// `NUM_FEATURES` i8 weights lies in −384..=381, so every θ ≥ 384 never
/// steers and always trains, and every θ ≤ −384 always steers.
pub const THETA_LIMIT: i32 = 128 * NUM_FEATURES as i32;

/// Hashed perceptron predicting "this load leaves the chip".
#[derive(Debug, Clone)]
pub struct OffChipPerceptron {
    /// `NUM_FEATURES` weight tables, all the same power-of-two size.
    weights: Vec<Vec<i8>>,
    hash: BitsHash,
    /// Per-core history of recent off-chip outcomes (1 bit per access).
    histories: Vec<u64>,
    history_mask: u64,
    theta: i32,
}

impl OffChipPerceptron {
    /// `index_bits`-bit tables, `cores` history registers, `history_bits`
    /// (at most 64) of outcome history folded into the hashes, decision
    /// threshold `theta`.
    pub fn new(index_bits: u32, cores: usize, history_bits: u32, theta: i32) -> Self {
        assert!(history_bits <= 64, "history register is 64 bits");
        let hash = BitsHash::new(index_bits);
        let entries = hash.table_entries() as usize;
        let mut weights = Vec::with_capacity(NUM_FEATURES);
        for _ in 0..NUM_FEATURES {
            let mut table = vec![0i8; entries];
            crate::prefault(&mut table);
            weights.push(table);
        }
        let history_mask = if history_bits == 64 {
            u64::MAX
        } else {
            (1u64 << history_bits) - 1
        };
        Self {
            weights,
            hash,
            histories: vec![0; cores],
            history_mask,
            theta,
        }
    }

    /// Builds the tables from an area budget in bytes (`NUM_FEATURES`
    /// tables of 1-byte weights; per-table entries rounded down to a
    /// power of two).
    pub fn from_capacity_bytes(bytes: u64, cores: usize, history_bits: u32, theta: i32) -> Self {
        let entries = (bytes / NUM_FEATURES as u64).max(2);
        let bits = 63 - entries.leading_zeros() as u64;
        Self::new(bits as u32, cores, history_bits, theta)
    }

    /// Total weight-storage budget in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.hash.table_entries() * NUM_FEATURES as u64
    }

    /// The decision threshold.
    pub fn theta(&self) -> i32 {
        self.theta
    }

    #[inline]
    fn feature_indices(&self, core: usize, block: u64) -> [usize; NUM_FEATURES] {
        let hist = self.histories[core];
        [
            self.hash.index(block) as usize,
            self.hash.index(block ^ hist) as usize,
            self.hash.index((block >> 7) ^ hist.rotate_left(13)) as usize,
        ]
    }

    /// Sums the hashed weights for `(core, block)`. Pure: neither weights
    /// nor history move until [`train`](Self::train).
    #[inline]
    pub fn predict(&self, core: usize, block: u64) -> i32 {
        let idx = self.feature_indices(core, block);
        let mut sum = 0i32;
        for (f, table) in self.weights.iter().enumerate() {
            sum += table[idx[f]] as i32;
        }
        sum
    }

    /// Whether `sum` clears the confidence threshold for an off-chip
    /// steer.
    #[inline]
    pub fn confident_off_chip(&self, sum: i32) -> bool {
        sum >= self.theta
    }

    /// Trains on the observed outcome (`went_off_chip`) given the sum the
    /// prediction was made with, then shifts the outcome into the core's
    /// history. Weights move only on a mispredict or a weak (|sum| ≤ θ)
    /// agreement, saturating at the i8 rails.
    pub fn train(&mut self, core: usize, block: u64, sum: i32, went_off_chip: bool) {
        let predicted = self.confident_off_chip(sum);
        if predicted != went_off_chip || sum.abs() <= self.theta {
            let idx = self.feature_indices(core, block);
            for (f, table) in self.weights.iter_mut().enumerate() {
                let w = &mut table[idx[f]];
                *w = if went_off_chip {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        self.histories[core] =
            ((self.histories[core] << 1) | u64::from(went_off_chip)) & self.history_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sizing_splits_across_tables() {
        let p = OffChipPerceptron::from_capacity_bytes(64 << 10, 2, 8, 12);
        // 64 KB / 3 tables = 21845 entries, floored to 2^14.
        assert_eq!(p.capacity_bytes(), (1 << 14) * 3);
    }

    #[test]
    fn fresh_perceptron_predicts_zero() {
        let p = OffChipPerceptron::new(8, 1, 8, 12);
        assert_eq!(p.predict(0, 0xdead), 0);
        assert!(!p.confident_off_chip(0));
    }

    #[test]
    fn repeated_off_chip_outcomes_build_confidence() {
        let mut p = OffChipPerceptron::new(8, 1, 8, 6);
        let block = 0x42;
        for _ in 0..8 {
            let sum = p.predict(0, block);
            p.train(0, block, sum, true);
        }
        // History changed along the way so different table entries were
        // touched, but the block-only feature alone keeps climbing.
        assert!(p.predict(0, block) >= 3);
    }

    #[test]
    fn strong_agreement_freezes_weights() {
        let mut p = OffChipPerceptron::new(6, 1, 0, 2);
        let block = 7;
        // With history_bits = 0 the indices never move; train until the
        // sum is strictly above theta.
        loop {
            let sum = p.predict(0, block);
            if sum > p.theta() {
                break;
            }
            p.train(0, block, sum, true);
        }
        let sum = p.predict(0, block);
        p.train(0, block, sum, true);
        assert_eq!(p.predict(0, block), sum); // |sum| > θ, correct → frozen
    }

    #[test]
    fn histories_are_per_core() {
        let mut p = OffChipPerceptron::new(8, 2, 8, 12);
        let sum = p.predict(0, 1);
        p.train(0, 1, sum, true);
        // Core 1's history is untouched, so its indices for the same
        // block still include the zero-history hash.
        assert_eq!(p.predict(1, 1), p.predict(1, 1));
        assert_eq!(p.histories[0], 1);
        assert_eq!(p.histories[1], 0);
    }

    #[test]
    fn weights_saturate_at_the_i8_rails() {
        let mut p = OffChipPerceptron::new(4, 1, 0, i32::MAX);
        // theta = i32::MAX keeps every train in the "weak" regime.
        for _ in 0..300 {
            let sum = p.predict(0, 3);
            p.train(0, 3, sum, true);
        }
        assert_eq!(p.predict(0, 3), 127 * NUM_FEATURES as i32);
    }
}
