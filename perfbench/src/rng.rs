//! SplitMix64: the benchmark's only source of randomness. Every input is
//! a pure function of the `--seed` argument, so the same seed yields
//! byte-identical inputs on every machine.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent generator for the input stream named `stream`.
    #[must_use]
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        Rng(base.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        // Multiply-shift keeps the bias below 2^-32 for the small `n` used here.
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
