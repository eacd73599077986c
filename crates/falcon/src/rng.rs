//! ChaCha20-based pseudorandom generator.
//!
//! FALCON's reference implementation drives its samplers from a ChaCha20
//! stream seeded with SHAKE256 output; this module reproduces that
//! construction. The generator is deliberately deterministic from its
//! seed so signing campaigns and attacks are reproducible.

use crate::shake::Shake256;

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

fn chacha20_block(key: &[u32; 8], counter: u64, nonce: u64, out: &mut [u8; 64]) {
    let mut s: [u32; 16] = [
        0x61707865,
        0x3320646E,
        0x79622D32,
        0x6B206574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        nonce as u32,
        (nonce >> 32) as u32,
    ];
    let init = s;
    for _ in 0..10 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for i in 0..16 {
        let w = s[i].wrapping_add(init[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
    }
}

/// Deterministic ChaCha20 generator seeded through SHAKE256.
///
/// ```
/// use falcon_sig::rng::Prng;
/// let mut a = Prng::from_seed(b"seed");
/// let mut b = Prng::from_seed(b"seed");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Prng {
    key: [u32; 8],
    nonce: u64,
    counter: u64,
    buf: [u8; 64],
    pos: usize,
}

impl Prng {
    /// Seeds the generator from arbitrary bytes (expanded with SHAKE256).
    pub fn from_seed(seed: &[u8]) -> Prng {
        let mut raw = [0u8; 40];
        Shake256::digest(seed, &mut raw);
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(raw[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let nonce = u64::from_le_bytes(raw[32..40].try_into().expect("8 bytes"));
        Prng { key, nonce, counter: 0, buf: [0; 64], pos: 64 }
    }

    fn refill(&mut self) {
        chacha20_block(&self.key, self.counter, self.nonce, &mut self.buf);
        self.counter += 1;
        self.pos = 0;
    }

    /// Size in bytes of [`Prng::export_state`]'s output.
    pub const STATE_LEN: usize = 49;

    /// Exports the complete generator state (key, nonce, block counter,
    /// intra-block position) as a fixed-size byte string, so long-running
    /// campaigns can checkpoint and later resume the exact stream.
    pub fn export_state(&self) -> [u8; Self::STATE_LEN] {
        let mut out = [0u8; Self::STATE_LEN];
        for (i, k) in self.key.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&k.to_le_bytes());
        }
        out[32..40].copy_from_slice(&self.nonce.to_le_bytes());
        out[40..48].copy_from_slice(&self.counter.to_le_bytes());
        out[48] = self.pos as u8;
        out
    }

    /// Rebuilds a generator from [`Prng::export_state`] output. The
    /// buffered block is regenerated from the counter, so the restored
    /// stream continues bit-for-bit where the exported one stopped.
    ///
    /// Returns `None` when the intra-block position is out of range.
    pub fn import_state(bytes: &[u8; Self::STATE_LEN]) -> Option<Prng> {
        let pos = bytes[48] as usize;
        if pos > 64 {
            return None;
        }
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        let nonce = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
        let counter = u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes"));
        let mut p = Prng { key, nonce, counter, buf: [0; 64], pos };
        if pos < 64 {
            // The buffered block was produced with the previous counter
            // value (refill post-increments).
            chacha20_block(&p.key, counter.wrapping_sub(1), p.nonce, &mut p.buf);
        }
        Some(p)
    }

    /// Next byte of the stream.
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        if self.pos >= 64 {
            self.refill();
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        b
    }

    /// Next 64-bit little-endian word.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }

    /// Fills `out` with stream bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            *b = self.next_u8();
        }
    }

    /// Advances the stream by `k` bytes, landing exactly where `k` calls
    /// to [`Prng::next_u8`] would. ChaCha20 is addressed by its block
    /// counter, so the skipped blocks are never generated; only the
    /// block the stream lands in is.
    ///
    /// ```
    /// use falcon_sig::rng::Prng;
    /// let mut a = Prng::from_seed(b"seed");
    /// let mut b = a.clone();
    /// a.skip(1000);
    /// b.fill(&mut [0u8; 1000]);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    pub fn skip(&mut self, k: u64) {
        // ct: allow(stream offsets are public byte counts, independent of the key)
        let buffered = (64 - self.pos) as u64;
        // ct: allow(stream offsets are public byte counts, independent of the key)
        if k <= buffered {
            self.pos += k as usize;
            return;
        }
        // Past the buffered block: jump the counter over the whole
        // blocks the reads would consume, then generate the last one.
        let rest = k - buffered;
        let whole = (rest - 1) / 64;
        self.counter += whole;
        self.refill();
        self.pos = (rest - 64 * whole) as usize;
    }

    /// A uniform value in `[0, bound)` by rejection (bound must be
    /// nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_rfc7539_block_one() {
        // RFC 7539 §2.3.2 test vector (key 00..1f, counter 1, nonce
        // 00:00:00:09:00:00:00:4a:00:00:00:00 — our nonce layout is two
        // little-endian words, so reproduce the same state words).
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            let b = [4 * i as u8, 4 * i as u8 + 1, 4 * i as u8 + 2, 4 * i as u8 + 3];
            *k = u32::from_le_bytes(b);
        }
        // State words 12..15 must be: 1, 0x09000000, 0x4a000000, 0.
        let counter = 1u64 | ((0x09000000u64) << 32);
        let nonce = 0x4a000000u64;
        let mut out = [0u8; 64];
        chacha20_block(&key, counter, nonce, &mut out);
        assert_eq!(
            &out[..16],
            &[
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
                0x71, 0xc4
            ]
        );
    }

    #[test]
    fn determinism_and_divergence() {
        let mut a = Prng::from_seed(b"one");
        let mut b = Prng::from_seed(b"one");
        let mut c = Prng::from_seed(b"two");
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Prng::from_seed(b"range");
        for bound in [1u64, 2, 3, 7, 12289, u64::MAX / 2 + 3] {
            for _ in 0..50 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn state_roundtrip_resumes_stream_exactly() {
        let mut r = Prng::from_seed(b"state roundtrip");
        // Fresh state (pos == 64, counter == 0).
        let fresh = Prng::import_state(&r.export_state()).expect("valid state");
        let mut fresh = fresh;
        let mut orig = r.clone();
        for _ in 0..200 {
            assert_eq!(orig.next_u8(), fresh.next_u8());
        }
        // Mid-block state.
        for _ in 0..37 {
            r.next_u8();
        }
        let mut resumed = Prng::import_state(&r.export_state()).expect("valid state");
        for _ in 0..300 {
            assert_eq!(r.next_u64(), resumed.next_u64());
        }
        // Corrupt position is rejected.
        let mut bad = r.export_state();
        bad[48] = 65;
        assert!(Prng::import_state(&bad).is_none());
    }

    /// Asserts that `skip(k)` leaves `start` where reading `k` bytes
    /// would: same exported state, same bytes after.
    fn assert_skip_matches_reads(start: &Prng, k: u64) {
        let mut skipped = start.clone();
        skipped.skip(k);
        let mut read = start.clone();
        for _ in 0..k {
            read.next_u8();
        }
        assert_eq!(skipped.export_state(), read.export_state(), "state after skip({k})");
        let (mut a, mut b) = ([0u8; 100], [0u8; 100]);
        skipped.fill(&mut a);
        read.fill(&mut b);
        assert_eq!(a, b, "bytes after skip({k})");
    }

    #[test]
    fn skip_equals_reading_the_same_bytes() {
        let fresh = Prng::from_seed(b"skip");
        let mut mid_block = fresh.clone();
        mid_block.fill(&mut [0u8; 37]);
        let imported = Prng::import_state(&mid_block.export_state()).expect("valid state");
        for start in [&fresh, &mid_block, &imported] {
            for k in 0..=200 {
                assert_skip_matches_reads(start, k);
            }
            // Many whole blocks, ending mid-block.
            assert_skip_matches_reads(start, 64 * 97 + 13);
        }
    }

    #[test]
    fn fill_advances_stream() {
        let mut r = Prng::from_seed(b"fill");
        let mut a = [0u8; 100];
        r.fill(&mut a);
        let mut b = [0u8; 100];
        r.fill(&mut b);
        assert_ne!(a, b);
    }
}
