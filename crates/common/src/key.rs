//! The 160-bit key space and ring arithmetic.
//!
//! ORCHESTRA's substrate (paper Section III-A) places nodes and data on a
//! ring of 160-bit unsigned integers — the output space of SHA-1 — that
//! "starts at 0 and increases clockwise until `2^160 - 1` and then
//! overflows back to 0".  [`Key160`] is that integer type, implemented as
//! three 64-bit limbs (the top limb holds only 32 significant bits), with
//! exactly the operations the substrate, storage and query layers need:
//!
//! * wrapping addition and subtraction (ring arithmetic),
//! * clockwise distance between two points,
//! * midpoints of ranges (used to co-locate index pages with the middle of
//!   the tuple-key range they describe, Section IV),
//! * division of the whole space into `n` equal contiguous ranges (the
//!   "balanced range allocation" of Figure 2(b)), and
//! * hashing arbitrary byte strings onto the ring via SHA-1.
//!
//! [`KeyRange`] is a half-open clockwise arc `[start, end)` on the ring,
//! which is how both the substrate (node ownership ranges) and the storage
//! layer (index-page key ranges) describe responsibility.

use crate::sha1::{sha1, Sha1, DIGEST_LEN};
use std::cmp::Ordering;
use std::fmt;

/// Number of significant bits in a key.
pub const KEY_BITS: u32 = 160;

/// A 160-bit unsigned integer on the ORCHESTRA ring.
///
/// Stored as three little-endian 64-bit limbs; the most significant limb
/// (`limbs[2]`) only ever holds 32 significant bits, so every arithmetic
/// result is masked back into the 160-bit space.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key160 {
    limbs: [u64; 3],
}

const TOP_MASK: u64 = 0xFFFF_FFFF;

impl Key160 {
    /// The additive identity (the "12 o'clock" position of the ring).
    pub const ZERO: Key160 = Key160 { limbs: [0, 0, 0] };

    /// The largest representable key, `2^160 - 1`.
    pub const MAX: Key160 = Key160 {
        limbs: [u64::MAX, u64::MAX, TOP_MASK],
    };

    /// Raw little-endian limbs.
    pub fn limbs(&self) -> [u64; 3] {
        self.limbs
    }

    /// Construct from a 20-byte big-endian digest (e.g. a SHA-1 output).
    pub fn from_bytes(bytes: &[u8; DIGEST_LEN]) -> Self {
        // bytes[0] is the most significant byte.
        let hi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as u64;
        let mid = u64::from_be_bytes([
            bytes[4], bytes[5], bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11],
        ]);
        let lo = u64::from_be_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
        ]);
        Key160 {
            limbs: [lo, mid, hi],
        }
    }

    /// Construct from a SHA-1 digest given as its five big-endian words
    /// (the first is the most significant) — [`Key160::from_bytes`]
    /// without the round trip through bytes.
    pub(crate) fn from_words(w: [u32; 5]) -> Self {
        let pair = |hi: u32, lo: u32| (u64::from(hi) << 32) | u64::from(lo);
        Key160 {
            limbs: [pair(w[3], w[4]), pair(w[1], w[2]), u64::from(w[0])],
        }
    }

    /// Serialize to a 20-byte big-endian digest.
    pub fn to_bytes(self) -> [u8; DIGEST_LEN] {
        let mut out = [0u8; DIGEST_LEN];
        out[0..4].copy_from_slice(&(self.limbs[2] as u32).to_be_bytes());
        out[4..12].copy_from_slice(&self.limbs[1].to_be_bytes());
        out[12..20].copy_from_slice(&self.limbs[0].to_be_bytes());
        out
    }

    /// Hash an arbitrary byte string onto the ring with SHA-1, exactly as
    /// the paper hashes node addresses, tuple keys and `(relation, epoch)`
    /// pairs.
    pub fn hash(data: &[u8]) -> Self {
        Key160::from_bytes(&sha1(data))
    }

    /// Hash a sequence of byte-string components, unambiguously.  Each
    /// component is length-prefixed so that `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn hash_parts(parts: &[&[u8]]) -> Self {
        let mut hasher = Sha1::new();
        for p in parts {
            hasher.update(&(p.len() as u64).to_be_bytes());
            hasher.update(p);
        }
        Key160::from_bytes(&hasher.finish())
    }

    /// Construct from a `u128` (useful in tests and doc examples).
    pub fn from_u128(v: u128) -> Self {
        Key160 {
            limbs: [v as u64, (v >> 64) as u64, 0],
        }
    }

    /// Lossy view of the top 64 significant bits of the key; handy for
    /// approximate positioning and diagnostics.
    pub fn top64(&self) -> u64 {
        (self.limbs[2] << 32) | (self.limbs[1] >> 32)
    }

    /// Ring (wrapping) addition.
    pub fn wrapping_add(self, rhs: Key160) -> Key160 {
        let (l0, c0) = self.limbs[0].overflowing_add(rhs.limbs[0]);
        let (l1a, c1a) = self.limbs[1].overflowing_add(rhs.limbs[1]);
        let (l1, c1b) = l1a.overflowing_add(c0 as u64);
        let l2 = self.limbs[2]
            .wrapping_add(rhs.limbs[2])
            .wrapping_add((c1a as u64) + (c1b as u64));
        Key160 {
            limbs: [l0, l1, l2 & TOP_MASK],
        }
    }

    /// Ring (wrapping) subtraction.
    pub fn wrapping_sub(self, rhs: Key160) -> Key160 {
        let (l0, b0) = self.limbs[0].overflowing_sub(rhs.limbs[0]);
        let (l1a, b1a) = self.limbs[1].overflowing_sub(rhs.limbs[1]);
        let (l1, b1b) = l1a.overflowing_sub(b0 as u64);
        let l2 = self.limbs[2]
            .wrapping_sub(rhs.limbs[2])
            .wrapping_sub((b1a as u64) + (b1b as u64));
        Key160 {
            limbs: [l0, l1, l2 & TOP_MASK],
        }
    }

    /// Clockwise distance from `self` to `other`: how far one must travel
    /// clockwise (increasing key values, wrapping at `2^160`) to reach
    /// `other` starting at `self`.
    pub fn clockwise_distance(self, other: Key160) -> Key160 {
        other.wrapping_sub(self)
    }

    /// Halve the key (logical shift right by one bit).
    pub fn half(self) -> Key160 {
        Key160 {
            limbs: [
                (self.limbs[0] >> 1) | (self.limbs[1] << 63),
                (self.limbs[1] >> 1) | (self.limbs[2] << 63),
                (self.limbs[2] >> 1) & TOP_MASK,
            ],
        }
    }

    /// Multiply by a small unsigned factor, wrapping within the 160-bit
    /// space.  Used to lay out the `i`-th balanced range boundary as
    /// `i * width`.
    pub fn wrapping_mul_small(self, factor: u64) -> Key160 {
        let mut acc = [0u128; 3];
        for (i, limb) in self.limbs.iter().enumerate() {
            acc[i] += (*limb as u128) * (factor as u128);
        }
        // Propagate carries.
        let mut out = [0u64; 3];
        let mut carry: u128 = 0;
        for i in 0..3 {
            let v = acc[i] + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        Key160 {
            limbs: [out[0], out[1], out[2] & TOP_MASK],
        }
    }

    /// Divide by a small unsigned divisor, returning the quotient
    /// (remainder discarded).  Panics if `divisor == 0`.
    pub fn div_small(self, divisor: u64) -> Key160 {
        assert!(divisor != 0, "division by zero in Key160::div_small");
        let d = divisor as u128;
        let mut rem: u128 = 0;
        let mut out = [0u64; 3];
        for i in (0..3).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d) as u64;
            rem = cur % d;
        }
        Key160 {
            limbs: [out[0], out[1], out[2] & TOP_MASK],
        }
    }

    /// Width of each range when the whole key space is divided into `n`
    /// equal contiguous ranges (the balanced allocation of Figure 2(b)).
    ///
    /// Computed as `floor((2^160 - 1) / n)`; for `n` not a power of two the
    /// final range absorbs the few leftover keys.
    pub fn space_divided_by(n: u64) -> Key160 {
        Key160::MAX.div_small(n)
    }

    /// Render the most significant bytes as hex, with an ellipsis — the
    /// same visual style used in the paper's examples (`0x55...`).
    pub fn short_hex(&self) -> String {
        let b = self.to_bytes();
        format!("0x{:02x}{:02x}{:02x}..", b[0], b[1], b[2])
    }
}

impl Ord for Key160 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..3).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Key160 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Key160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key160({})", self.short_hex())
    }
}

impl fmt::Display for Key160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

/// A half-open clockwise arc `[start, end)` on the key ring.
///
/// If `start == end` the range covers the *entire* ring (this is the
/// natural representation when a single node owns everything, as in the
/// paper's single-node baseline measurements).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KeyRange {
    /// First key of the arc (inclusive).
    pub start: Key160,
    /// Key just past the end of the arc (exclusive); may be numerically
    /// smaller than `start` when the arc wraps past `2^160 - 1`.
    pub end: Key160,
}

impl KeyRange {
    /// Build a range; `start == end` means the full ring.
    pub fn new(start: Key160, end: Key160) -> Self {
        KeyRange { start, end }
    }

    /// The range covering the entire ring.
    pub fn full() -> Self {
        KeyRange {
            start: Key160::ZERO,
            end: Key160::ZERO,
        }
    }

    /// Does this range cover the whole ring?
    pub fn is_full(&self) -> bool {
        self.start == self.end
    }

    /// Does the arc contain `key`?
    pub fn contains(&self, key: Key160) -> bool {
        if self.is_full() {
            return true;
        }
        if self.start < self.end {
            key >= self.start && key < self.end
        } else {
            // Wrapping arc.
            key >= self.start || key < self.end
        }
    }

    /// Number of keys in the arc, as a `Key160` (the full ring reports
    /// `Key160::MAX`, i.e. `2^160 - 1`, which is off by one but only used
    /// for relative comparisons of range sizes).
    pub fn size(&self) -> Key160 {
        if self.is_full() {
            Key160::MAX
        } else {
            self.start.clockwise_distance(self.end)
        }
    }

    /// The midpoint of the arc — the key halfway along the clockwise walk
    /// from `start` to `end`.  The storage layer places index pages at the
    /// midpoint of the tuple-key range they describe so that they are
    /// co-located with most of the tuples they reference (Section IV).
    pub fn midpoint(&self) -> Key160 {
        self.start.wrapping_add(self.size().half())
    }

    /// Does `other` overlap this arc at all?
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        if self.is_full() || other.is_full() {
            return true;
        }
        self.contains(other.start)
            || other.contains(self.start)
            || self.contains(other.end.wrapping_sub(Key160::from_u128(1)))
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sub_round_trip() {
        let a = Key160::hash(b"a");
        let b = Key160::hash(b"b");
        assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
        assert_eq!(a.wrapping_sub(b).wrapping_add(b), a);
    }

    #[test]
    fn max_plus_one_wraps_to_zero() {
        let one = Key160::from_u128(1);
        assert_eq!(Key160::MAX.wrapping_add(one), Key160::ZERO);
        assert_eq!(Key160::ZERO.wrapping_sub(one), Key160::MAX);
    }

    #[test]
    fn byte_round_trip() {
        let k = Key160::hash(b"round trip");
        assert_eq!(Key160::from_bytes(&k.to_bytes()), k);
    }

    #[test]
    fn ordering_matches_byte_ordering() {
        let a = Key160::from_u128(5);
        let b = Key160::from_u128(6);
        assert!(a < b);
        assert!(Key160::MAX > b);
    }

    #[test]
    fn clockwise_distance_wraps() {
        let near_end = Key160::MAX.wrapping_sub(Key160::from_u128(9));
        let near_start = Key160::from_u128(10);
        // From near the top of the ring, a short clockwise hop reaches a
        // small key.
        let d = near_end.clockwise_distance(near_start);
        assert_eq!(d, Key160::from_u128(20));
    }

    #[test]
    fn division_into_equal_ranges_tiles_the_ring() {
        let n = 7u64;
        let width = Key160::space_divided_by(n);
        let mut start = Key160::ZERO;
        let mut total = Key160::ZERO;
        for _ in 0..n {
            total = total.wrapping_add(width);
            start = start.wrapping_add(width);
        }
        // n * floor(MAX/n) must not exceed MAX and must be close to it.
        assert!(total <= Key160::MAX);
        let leftover = Key160::MAX.wrapping_sub(total);
        assert!(leftover < Key160::from_u128(u128::from(n)));
        let _ = start;
    }

    #[test]
    fn mul_then_div_small_consistent() {
        let w = Key160::space_divided_by(16);
        let x = w.wrapping_mul_small(13);
        assert_eq!(x.div_small(13), w);
    }

    #[test]
    fn range_contains_non_wrapping() {
        let r = KeyRange::new(Key160::from_u128(100), Key160::from_u128(200));
        assert!(r.contains(Key160::from_u128(100)));
        assert!(r.contains(Key160::from_u128(150)));
        assert!(!r.contains(Key160::from_u128(200)));
        assert!(!r.contains(Key160::from_u128(99)));
    }

    #[test]
    fn range_contains_wrapping() {
        let r = KeyRange::new(
            Key160::MAX.wrapping_sub(Key160::from_u128(10)),
            Key160::from_u128(10),
        );
        assert!(r.contains(Key160::MAX));
        assert!(r.contains(Key160::ZERO));
        assert!(r.contains(Key160::from_u128(9)));
        assert!(!r.contains(Key160::from_u128(10)));
        assert!(!r.contains(Key160::from_u128(1_000_000)));
    }

    #[test]
    fn full_range_contains_everything() {
        let r = KeyRange::full();
        assert!(r.is_full());
        assert!(r.contains(Key160::ZERO));
        assert!(r.contains(Key160::MAX));
        assert!(r.contains(Key160::hash(b"anything")));
    }

    #[test]
    fn midpoint_lies_inside_range() {
        let r = KeyRange::new(Key160::hash(b"s"), Key160::hash(b"e"));
        assert!(r.contains(r.midpoint()));
        let wrap = KeyRange::new(
            Key160::MAX.wrapping_sub(Key160::from_u128(100)),
            Key160::from_u128(100),
        );
        assert!(wrap.contains(wrap.midpoint()));
    }

    #[test]
    fn hash_parts_is_unambiguous() {
        let a = Key160::hash_parts(&[b"ab", b"c"]);
        let b = Key160::hash_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn short_hex_matches_leading_bytes() {
        let k = Key160::from_bytes(&[
            0xAB, 0xCD, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(k.short_hex(), "0xabcdef..");
    }

    #[test]
    fn overlaps_detects_intersection_and_disjointness() {
        let a = KeyRange::new(Key160::from_u128(0), Key160::from_u128(100));
        let b = KeyRange::new(Key160::from_u128(50), Key160::from_u128(150));
        let c = KeyRange::new(Key160::from_u128(200), Key160::from_u128(300));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }
}
