//! A small, self-contained SHA-1 implementation.
//!
//! The paper's substrate (Section III-A) uses SHA-1 to map node addresses,
//! tuple keys, relation/epoch pairs and page identifiers into its 160-bit
//! key space.  Cryptographic strength is irrelevant here — SHA-1 is used
//! purely as a uniform hash into the ring — so a compact, dependency-free
//! implementation is sufficient.  It is validated against the FIPS 180-1
//! test vectors in the unit tests below.
//!
//! It is also the largest host cost of routing a row (every row that
//! crosses a `Rehash` is hashed), so the block function is written for
//! speed in plain, portable Rust: the 80 rounds are spelled out with
//! literal indices, which keeps the 16-word schedule in registers.  There
//! is one path on every platform — no lane kernel, no architecture
//! intrinsics, no runtime feature detection.  A message short enough to
//! fit, padded, in one block — a ring key of a few numbers or short
//! strings — is padded where it lies and compressed once
//! (`digest_one_block`), which is also how `ColumnarBatch::hash_columns`
//! hashes a numeric key without any streaming state.

/// Output size of SHA-1 in bytes (160 bits).
pub const DIGEST_LEN: usize = 20;

/// The longest message that fits, padded, in a single 64-byte block: the
/// padding takes at least one `0x80` byte and the 8-byte bit length.
pub(crate) const ONE_BLOCK_MAX: usize = 55;

/// The initial state (FIPS 180-1, section 7).
const INITIAL: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// An incremental SHA-1 state: feed it byte slices with [`Sha1::update`]
/// and read the digest with [`Sha1::finish`].  Nothing is heap-allocated
/// — callers hashing a composite key (several values, several parts)
/// stream the pieces in instead of concatenating them into a buffer
/// first.
pub(crate) struct Sha1 {
    state: [u32; 5],
    /// Bytes of the current, not yet complete 64-byte block.
    block: [u8; 64],
    /// Total number of message bytes fed so far.
    len: u64,
}

impl Sha1 {
    /// A fresh hasher.
    pub(crate) fn new() -> Sha1 {
        Sha1 {
            state: INITIAL,
            block: [0; 64],
            len: 0,
        }
    }

    /// Append `data` to the message.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        let filled = (self.len % 64) as usize;
        self.len += data.len() as u64;
        if filled > 0 {
            let take = data.len().min(64 - filled);
            self.block[filled..filled + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            if filled + take < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.block[..rest.len()].copy_from_slice(rest);
    }

    /// Pad the message and return its digest.
    pub(crate) fn finish(self) -> [u8; DIGEST_LEN] {
        digest_bytes(self.finish_words())
    }

    /// [`Sha1::finish`] as the digest's five big-endian words.  A message
    /// of at most `ONE_BLOCK_MAX` bytes is still all in the block buffer,
    /// zero-filled behind it: it is padded there and compressed once.
    pub(crate) fn finish_words(mut self) -> [u32; 5] {
        if self.len <= ONE_BLOCK_MAX as u64 {
            return digest_one_block(self.block, self.len as usize);
        }
        // Message padding: append 0x80, zeros, then the 64-bit big-endian
        // bit length, so that the total is a whole number of blocks.
        let bit_len = self.len.wrapping_mul(8);
        let filled = (self.len % 64) as usize;
        self.block[filled] = 0x80;
        self.block[filled + 1..].fill(0);
        if filled + 1 > 56 {
            compress(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.block);
        self.state
    }
}

/// The digest bytes of a final state.
fn digest_bytes(state: [u32; 5]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (i, s) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// The SHA-1 of the `len`-byte message at the start of `block`, as the
/// five big-endian words of the digest, where `len <= ONE_BLOCK_MAX` and
/// every byte of `block` after the message is zero.  The message is
/// padded in place and takes one compression, with no streaming state.
/// Inlined into its two callers, [`Sha1::finish_words`] and the numeric
/// key path of `ColumnarBatch::hash_columns`, so that each runs the
/// rounds on its own block without a call.
#[inline(always)]
pub(crate) fn digest_one_block(mut block: [u8; 64], len: usize) -> [u32; 5] {
    debug_assert!(len <= ONE_BLOCK_MAX, "{len} bytes need more than one block");
    block[len] = 0x80;
    block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    let mut state = INITIAL;
    compress_words(&mut state, words(&block));
    state
}

/// A block as the sixteen big-endian words the schedule starts from.
#[inline(always)]
fn words(block: &[u8; 64]) -> [u32; 16] {
    let mut w = [0u32; 16];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    w
}

/// Fold one 64-byte block into `state`.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    compress_words(state, words(block));
}

/// The 80 rounds over a block's words, written out one by one.
///
/// Every round index is a literal, so every schedule index is a constant:
/// the 16-word window (word `i` overwrites word `i - 16`, the oldest one
/// it depends on) lives in registers, and no round loops or dispatches on
/// its index.  This is the textbook SHA-1 — the test module keeps the
/// FIPS 180-1 form (an 80-word schedule filled up front, one loop that
/// picks the round function by index) and checks the two agree.
#[inline(always)]
fn compress_words(state: &mut [u32; 5], mut w: [u32; 16]) {
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // One round on schedule word `$w`; the five working variables shift
    // by one, which the compiler turns into renaming.
    macro_rules! round {
        ($f:ident, $k:expr, $w:expr) => {
            let temp = a
                .rotate_left(5)
                .wrapping_add($f(b, c, d))
                .wrapping_add(e)
                .wrapping_add($k)
                .wrapping_add($w);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        };
    }
    // Rounds 0-15 read the block's own words.
    macro_rules! rounds {
        ($f:ident, $k:expr; $($i:literal)+) => {
            $( round!($f, $k, w[$i]); )+
        };
    }
    // Rounds 16-79 first extend the schedule into the window slot of the
    // word sixteen rounds back.
    macro_rules! expanded {
        ($f:ident, $k:expr; $($i:literal)+) => {
            $(
                w[$i % 16] = (w[($i + 13) % 16] ^ w[($i + 8) % 16] ^ w[($i + 2) % 16] ^ w[$i % 16])
                    .rotate_left(1);
                round!($f, $k, w[$i % 16]);
            )+
        };
    }
    rounds!(choose, 0x5A827999; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    expanded!(choose, 0x5A827999; 16 17 18 19);
    expanded!(parity, 0x6ED9EBA1; 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
    expanded!(majority, 0x8F1BBCDC; 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
    expanded!(parity, 0xCA62C1D6; 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// Round function of rounds 0-19: `b` chooses between `c` and `d`.
#[inline(always)]
fn choose(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (!b & d)
}

/// Round function of rounds 20-39 and 60-79.
#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

/// Round function of rounds 40-59: the bitwise majority of `b`, `c`, `d`.
#[inline(always)]
fn majority(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (b & d) | (c & d)
}

/// Compute the SHA-1 digest of `data`.
///
/// ```
/// use orchestra_common::sha1::sha1;
/// let d = sha1(b"abc");
/// assert_eq!(d[0], 0xa9);
/// assert_eq!(d.len(), 20);
/// ```
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hasher = Sha1::new();
    hasher.update(data);
    hasher.finish()
}

/// Hexadecimal rendering of a SHA-1 digest, handy for debugging and tests.
pub fn to_hex(digest: &[u8; DIGEST_LEN]) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for b in digest {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 appendix A/B test vectors plus a couple of extras.
    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            to_hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            to_hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(
            to_hex(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn length_exactly_at_block_boundary() {
        // 64-byte input exercises the padding path that adds a whole block.
        let data = vec![0x61u8; 64];
        assert_eq!(
            to_hex(&sha1(&data)),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d"
        );
    }

    #[test]
    fn streaming_in_any_chunking_matches_one_shot() {
        // Lengths around the 55/56/64-byte padding edges, fed in pieces
        // of every size, must agree with the one-shot digest.
        let data: Vec<u8> = (0..200u8).collect();
        for len in [0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200] {
            let expected = sha1(&data[..len]);
            for piece in [1, 3, 7, 64, 65] {
                let mut h = Sha1::new();
                for chunk in data[..len].chunks(piece) {
                    h.update(chunk);
                }
                assert_eq!(h.finish(), expected, "len {len}, pieces of {piece}");
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha1(b"node-1"), sha1(b"node-2"));
    }

    /// The block function as FIPS 180-1 writes it: the whole 80-word
    /// schedule up front, one loop that picks the round function by index.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) =
            (state[0], state[1], state[2], state[3], state[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    /// A one-shot SHA-1 over [`compress_reference`].
    fn sha1_reference(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = INITIAL;
        for block in padded.chunks_exact(64) {
            compress_reference(&mut state, block.try_into().unwrap());
        }
        digest_bytes(state)
    }

    /// The unrolled rounds, streamed in random chunkings and as a single
    /// block, against the FIPS 180-1 form.
    #[test]
    fn rolling_schedule_matches_the_80_word_reference() {
        let mut r = crate::rng::seeded(0x5ba1);
        for _ in 0..2_000 {
            let len = r.random_range(0usize..301);
            let data: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
            let expected = sha1_reference(&data);
            let mut h = Sha1::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(r.random_range(1..=rest.len()));
                h.update(chunk);
                rest = tail;
            }
            assert_eq!(h.finish(), expected, "{} bytes", data.len());
            if len <= ONE_BLOCK_MAX {
                let mut block = [0u8; 64];
                block[..len].copy_from_slice(&data);
                let one = digest_one_block(block, len);
                assert_eq!(digest_bytes(one), expected, "{len} bytes in one block");
            }
        }
    }
}
