//! The benchmark's own generator: xoshiro256** seeded through SplitMix64.
//!
//! Kept in this crate on purpose — `chronicle-testkit` and
//! `chronicle-workload` may change their generators in a later PR, and the
//! inputs a seed produces here must not move with them.

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman & Vigna).
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The stream `stream` of `seed`: every input of a run (each producer's
    /// ring, the relation, the lookup keys) draws from its own stream, so
    /// adding a consumer never shifts another's inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut st = seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBC9);
        Rng {
            s: [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (`n` a power of two or small enough that modulo
    /// bias is far below anything the benchmark resolves).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n
    }
}
