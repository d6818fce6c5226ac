//! Compact little-endian binary reader/writer for on-disk artifacts.
//!
//! This is the serialization substrate for the persistent trace cache
//! (`docs/PERSISTENCE.md`). It deliberately has no schema knowledge: it
//! provides fixed-width little-endian primitives, length-prefixed byte
//! strings and the word-at-a-time [`hash64`], and the cache layer
//! composes them.
//!
//! ## Contract
//!
//! * **Fixed widths.** Every integer is encoded at its full width,
//!   little-endian. No varints — the format trades a few bytes for a
//!   reader whose every access is bounds-checked and branch-predictable,
//!   and for a spec (`docs/PERSISTENCE.md`) a human can check against a
//!   hex dump.
//! * **Hostile input is expected.** [`ByteReader`] never panics on any
//!   byte sequence: every read returns [`BinError`] on truncation, and
//!   length prefixes are validated against the remaining input *before*
//!   allocation, so a corrupt 4 GiB length cannot OOM the process.
//! * **Determinism.** Encoding the same value twice yields identical
//!   bytes; there is no padding, no alignment, and no platform
//!   dependence.

use std::fmt;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Error from a [`ByteReader`] operation.
///
/// Carries the byte offset at which the failure was detected so cache
/// diagnostics can point at the corrupt region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinError {
    /// Input ended before the requested number of bytes.
    Truncated {
        /// Offset at which the read was attempted.
        at: usize,
        /// Bytes requested.
        want: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A length prefix exceeded the bytes remaining in the input.
    BadLength {
        /// Offset of the length prefix.
        at: usize,
        /// The decoded (invalid) length.
        len: u64,
    },
    /// A decoded discriminant/tag was outside its valid range.
    BadTag {
        /// Offset of the tag byte.
        at: usize,
        /// The invalid tag value.
        tag: u64,
        /// Human-readable name of the thing being decoded.
        what: &'static str,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BinError::Truncated { at, want, have } => {
                write!(f, "truncated input at byte {at}: want {want} bytes, have {have}")
            }
            BinError::BadLength { at, len } => {
                write!(f, "invalid length prefix {len} at byte {at}")
            }
            BinError::BadTag { at, tag, what } => {
                write!(f, "invalid {what} tag {tag} at byte {at}")
            }
        }
    }
}

impl std::error::Error for BinError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32`, little-endian two's complement.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32` length prefix followed by the bytes.
    pub fn bytes_u32(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= u32::MAX as usize);
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a UTF-8 string as [`ByteWriter::bytes_u32`].
    pub fn str(&mut self, s: &str) {
        self.bytes_u32(s.as_bytes());
    }

    /// Reserves a 4-byte slot for a `u32` to be patched later (e.g. a
    /// section length computed after the section body is written).
    /// Returns the slot's offset for [`ByteWriter::patch_u32`].
    pub fn reserve_u32(&mut self) -> usize {
        let at = self.buf.len();
        self.u32(0);
        at
    }

    /// Patches a slot reserved with [`ByteWriter::reserve_u32`].
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian byte source over a borrowed slice.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed all input.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(self.truncated(n)),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], BinError> {
        match self.buf.get(self.pos..).and_then(<[u8]>::first_chunk::<N>) {
            Some(a) => {
                self.pos += N;
                Ok(*a)
            }
            None => Err(self.truncated(N)),
        }
    }

    #[cold]
    fn truncated(&self, want: usize) -> BinError {
        BinError::Truncated { at: self.pos, want, have: self.remaining() }
    }

    /// Reads a single byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, BinError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, BinError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, BinError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte; any value other than 0/1 is a [`BinError::BadTag`].
    #[inline]
    pub fn bool(&mut self) -> Result<bool, BinError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(BinError::BadTag { at, tag: u64::from(t), what: "bool" }),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte string. The length is checked
    /// against the remaining input before any allocation.
    pub fn bytes_u32(&mut self) -> Result<&'a [u8], BinError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(BinError::BadLength { at, len: len as u64 });
        }
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string; invalid UTF-8 is a
    /// [`BinError::BadTag`].
    pub fn str(&mut self) -> Result<&'a str, BinError> {
        let at = self.pos;
        let bytes = self.bytes_u32()?;
        std::str::from_utf8(bytes).map_err(|_| BinError::BadTag {
            at,
            tag: 0,
            what: "utf-8 string",
        })
    }

    /// Reads a `u32` element count for a sequence whose elements occupy at
    /// least `min_elem_bytes` each, rejecting counts that could not fit in
    /// the remaining input. This is the guard that makes hostile length
    /// prefixes cheap to reject: a corrupt count fails here instead of
    /// after a huge reserve.
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, BinError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        let floor = min_elem_bytes.max(1);
        if n > self.remaining() / floor + 1 {
            return Err(BinError::BadLength { at, len: n as u64 });
        }
        Ok(n)
    }
}

/// The one 64-bit hasher of the trace cache: program keys, realm
/// fingerprints, entry digests and the `.tmc` checksums.
///
/// Word at a time: each 8-byte little-endian word (a byte string's last
/// partial word zero-padded, each integer of the [`Hasher`] interface a
/// word of its own) costs one rotate, one xor and one multiply. The byte
/// count is folded in last and the state goes through the 64-bit
/// avalanche of MurmurHash3 (`fmix64`). Every step is a bijection of the
/// state for a fixed word and of the word for a fixed state, so a change
/// confined to one word (any single-byte flip among them) always changes
/// the hash. It detects corruption and staleness, not adversaries (see the
/// threat model in `docs/PERSISTENCE.md`).
///
/// A hash is of the sequence of writes: two `write`s are not the `write`
/// of their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher {
    state: u64,
    len: u64,
}

/// Odd multiplier of each word step (2^64 / golden ratio).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Initial state (the first hex digits of pi), so no input hashes to 0.
const WORD_SEED: u64 = 0x243f_6a88_85a3_08d3;

impl Default for WordHasher {
    fn default() -> WordHasher {
        WordHasher::new()
    }
}

impl WordHasher {
    /// An empty hasher.
    pub fn new() -> WordHasher {
        WordHasher { state: WORD_SEED, len: 0 }
    }

    #[inline]
    fn word(&mut self, w: u64, bytes: u64) {
        self.state = (self.state.rotate_left(26) ^ w).wrapping_mul(WORD_MUL);
        self.len += bytes;
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.word(u64::from_le_bytes(*w), 8);
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last), tail.len() as u64);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.word(v.into(), 1);
    }

    fn write_u16(&mut self, v: u16) {
        self.word(v.into(), 2);
    }

    fn write_u32(&mut self, v: u32) {
        self.word(v.into(), 4);
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v, 8);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64, 8);
    }

    fn finish(&self) -> u64 {
        let mut last = *self;
        last.word(self.len, 0);
        let mut h = last.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// A `HashMap` hashed by [`WordHasher`]: for tables keyed by the
/// compiler's own small ids (slot keys, labels), where std's keyed
/// SipHash costs more than the lookup. Tables keyed by program text
/// (names, property keys) keep std's hasher, against hash flooding.
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// One-shot [`WordHasher`] of `bytes`.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.i32(-7);
        w.i64(-1);
        w.f64(-0.5);
        w.bool(true);
        w.bool(false);
        w.str("héllo");
        w.bytes_u32(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.i32().unwrap(), -7);
        assert_eq!(r.i64().unwrap(), -1);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes_u32().unwrap(), &[1, 2, 3]);
        assert!(r.is_at_end());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u16().unwrap(), 0x0201);
        let e = r.u32().unwrap_err();
        assert_eq!(e, BinError::Truncated { at: 2, want: 4, have: 1 });
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        // A length prefix claiming 4 GiB with 0 bytes behind it.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.bytes_u32(), Err(BinError::BadLength { at: 0, .. })));

        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.seq_len(8), Err(BinError::BadLength { .. })));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_tag_errors() {
        let mut r = ByteReader::new(&[2u8]);
        assert!(matches!(r.bool(), Err(BinError::BadTag { what: "bool", .. })));

        let mut w = ByteWriter::new();
        w.bytes_u32(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(BinError::BadTag { what: "utf-8 string", .. })));
    }

    #[test]
    fn patch_u32_fills_reserved_slot() {
        let mut w = ByteWriter::new();
        w.u8(9);
        let slot = w.reserve_u32();
        w.str("body");
        w.patch_u32(slot, 0x1234_5678);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 0x1234_5678);
        assert_eq!(r.str().unwrap(), "body");
    }

    #[test]
    fn hash64_is_pinned_and_folds_in_the_length() {
        // Pinned: the values are part of the .tmc format (a change is a
        // version bump, docs/PERSISTENCE.md §7).
        let pins = [hash64(b""), hash64(b"a"), hash64(b"foobar"), hash64(b"0123456789abcdef!")];
        let want = [0x3ca1_b289_bc35_7f8c, 0x0f08_7da1_1cc6_0c55, 0xbf4b_a503_42e9_01f0];
        assert_eq!(pins[..3], want, "{pins:#x?}");
        assert_eq!(pins[3], 0x8d44_57cf_ff29_e707, "{pins:#x?}");
        // A zero-padded tail is not the same input as the zeros written.
        assert_ne!(hash64(b"ab"), hash64(b"ab\0"));
        assert_ne!(hash64(b""), hash64(&[0; 8]));
    }

    #[test]
    fn every_single_byte_change_changes_the_hash() {
        let base: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(37)).collect();
        let h = hash64(&base);
        for at in 0..base.len() {
            for delta in 1..=255u8 {
                let mut v = base.clone();
                v[at] ^= delta;
                assert_ne!(hash64(&v), h, "byte {at} ^ {delta:#x}");
            }
        }
    }

    #[test]
    fn integer_writes_are_one_word_each() {
        let mut a = WordHasher::new();
        a.write_u32(7);
        a.write_u8(1);
        let mut b = WordHasher::new();
        b.write_u32(1);
        b.write_u8(7);
        assert_ne!(a.finish(), b.finish(), "the order of the words matters");
        let mut c = WordHasher::new();
        c.write_u64(7);
        assert_ne!(c.finish(), hash64(&7u64.to_le_bytes()[..4]));
        assert_eq!(c.finish(), hash64(&7u64.to_le_bytes()));
    }

    #[test]
    fn f64_round_trip_preserves_bit_patterns() {
        for v in [0.0f64, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1.5e300] {
            let mut w = ByteWriter::new();
            w.f64(v);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }
}
