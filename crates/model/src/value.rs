//! Application data values: the set *A*.

use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The FNV-1a 64-bit offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h` (start from
/// [`FNV1A_OFFSET`]; feed the result back in to hash a stream in
/// pieces). Deterministic, dependency-free and identical on every
/// platform. Shard placement (`gcs-shard`'s `ShardMap`) and the
/// simulator's run digests hash with it byte by byte; value
/// fingerprints use it only for the last < 8 bytes of a payload (see
/// [`Value::fingerprint`]).
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// An opaque application data value, an element of the set *A*.
///
/// Both specifications treat data values as uninterpreted; a `Value` is a
/// cheaply clonable byte string. Applications (Section 3, footnote 3) encode
/// their operations into values; tests and examples usually use the small
/// integer constructors.
///
/// A payload of at most 23 bytes lives inside the value (no shared
/// counter, no buffer kept alive), a longer one in a shared [`Bytes`];
/// equality, order, hashing and the fingerprint are those of the bytes.
///
/// # Example
///
/// ```
/// use gcs_model::Value;
/// let v = Value::from_u64(42);
/// assert_eq!(v.as_u64(), Some(42));
/// let w = Value::from("hello");
/// assert_eq!(w.len(), 5);
/// ```
#[derive(Clone)]
pub struct Value(Repr);

/// The odd multiplier of [`Value::fingerprint`]'s word fold (2⁶⁴/φ).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// What fits beside a length byte in the 32 bytes of a [`Bytes`] handle.
const INLINE_MAX: usize = 23;

/// `Inline` (`buf[..len]`) exactly when the payload is ≤ `INLINE_MAX`.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_MAX] },
    Shared(Bytes),
}

impl Value {
    /// Encodes a `u64` as a value (big-endian).
    pub fn from_u64(x: u64) -> Self {
        Value::from(&x.to_be_bytes()[..])
    }

    /// Decodes a value previously produced by [`Value::from_u64`].
    ///
    /// Returns `None` if the payload is not exactly eight bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.as_bytes().try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }

    /// The underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(b) => b,
        }
    }

    /// A stable 64-bit identity for this value: the integer itself for
    /// [`Value::from_u64`] payloads, otherwise a digest of the bytes that
    /// folds each 8-byte little-endian word into the state with one
    /// multiply and one rotate, starting from [`FNV1A_OFFSET`], and
    /// finishes the last < 8 bytes with [`fnv1a`] (so a payload shorter
    /// than 8 bytes has its plain FNV-1a digest). Every step is a
    /// bijection of the state, so two payloads of equal length that
    /// differ in one word never collide. The `Bcast`/`Brcv` trace events
    /// (read by the b/d monitors) and the load generators key
    /// submit/deliver pairs by this fingerprint, so arbitrary application
    /// payloads (encoded KV commands, say) stay distinguishable in the
    /// event stream; it is the same on every platform.
    pub fn fingerprint(&self) -> u64 {
        if let Some(x) = self.as_u64() {
            return x;
        }
        let (words, tail) = self.as_bytes().as_chunks::<8>();
        let h = words.iter().fold(FNV1A_OFFSET, |h, w| {
            (h ^ u64::from_le_bytes(*w)).wrapping_mul(WORD_MUL).rotate_left(27)
        });
        fnv1a(h, tail)
    }

    /// The payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::from(&[][..])
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl From<&[u8]> for Value {
    fn from(bytes: &[u8]) -> Self {
        if bytes.len() > INLINE_MAX {
            return Value(Repr::Shared(Bytes::copy_from_slice(bytes)));
        }
        let mut buf = [0; INLINE_MAX];
        buf[..bytes.len()].copy_from_slice(bytes);
        Value(Repr::Inline { len: bytes.len() as u8, buf })
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::from(s.as_bytes())
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::from(&v[..])
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::from_u64(x)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(x) = self.as_u64() {
            write!(f, "v{x}")
        } else if let Ok(s) = std::str::from_utf8(self.as_bytes()) {
            write!(f, "v{s:?}")
        } else {
            write!(f, "v<{} bytes>", self.len())
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        for x in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Value::from_u64(x).as_u64(), Some(x));
        }
    }

    #[test]
    fn non_u64_payload_decodes_to_none() {
        assert_eq!(Value::from("abc").as_u64(), None);
        assert_eq!(Value::default().as_u64(), None);
    }

    #[test]
    fn fingerprint_is_the_integer_for_u64_payloads() {
        assert_eq!(Value::from_u64(42).fingerprint(), 42);
        assert_eq!(Value::from_u64(u64::MAX).fingerprint(), u64::MAX);
        // Non-integral payloads hash; distinct payloads get distinct
        // fingerprints (plain FNV-1a below 8 bytes).
        assert_ne!(Value::from("a").fingerprint(), Value::from("b").fingerprint());
        assert_eq!(Value::from("a").fingerprint(), 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector");
    }

    /// `len` bytes of a fixed pattern: the known-answer inputs below.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    /// Known answers computed independently of this crate: a change of
    /// word order, endianness, multiplier, rotation or tail handling
    /// moves at least one of them.
    #[test]
    fn fingerprint_known_answers() {
        assert_eq!(Value::from(pattern(9)).fingerprint(), 0x6337_64f6_1ef8_afd5, "one word + 1");
        assert_eq!(Value::from(pattern(30)).fingerprint(), 0x0e84_89f5_0145_b1d7, "3 words + 6");
        assert_eq!(Value::from(pattern(1024)).fingerprint(), 0xd9de_4396_6267_940e, "1 KiB");
    }

    #[test]
    fn every_single_byte_flip_of_a_kib_moves_the_fingerprint() {
        let base = pattern(1024);
        let fp = Value::from(base.clone()).fingerprint();
        let mut bytes = base;
        for i in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                bytes[i] ^= mask;
                assert_ne!(Value::from(&bytes[..]).fingerprint(), fp, "byte {i} ^ {mask:#x}");
                bytes[i] ^= mask;
            }
        }
    }

    /// Values shaped like the benchmark's 1 KiB payloads (an 8-byte id,
    /// then 1016 bytes of one shared filler at a varying offset) never
    /// share a fingerprint.
    #[test]
    fn kib_values_with_distinct_ids_do_not_collide() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let filler: Vec<u8> = (0..8192).flat_map(|_| next().to_le_bytes()).collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut bytes = Vec::with_capacity(1024);
        for id in 0..100_000u64 {
            let off = (next() % (filler.len() - 1016) as u64) as usize;
            bytes.clear();
            bytes.extend_from_slice(&((1 << 56) | id).to_be_bytes());
            bytes.extend_from_slice(&filler[off..off + 1016]);
            assert!(seen.insert(Value::from(&bytes[..]).fingerprint()), "collision at id {id}");
        }
    }

    /// Across the inline limit, a value built from a slice and one built
    /// from a vector are the same value by every observation.
    #[test]
    fn representation_is_invisible_at_every_length() {
        use std::collections::hash_map::DefaultHasher;
        let digest = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let frame: Vec<u8> = (0..200u8).collect();
        for len in 0..=64 {
            let bytes = &frame[3..3 + len];
            let sliced = Value::from(bytes);
            let owned = Value::from(bytes.to_vec());
            assert_eq!(sliced.as_bytes(), bytes);
            assert_eq!(owned.as_bytes(), bytes);
            assert_eq!(sliced, owned, "len {len}");
            assert_eq!(sliced.cmp(&owned), Ordering::Equal);
            assert_eq!(digest(&sliced), digest(&owned));
            assert_eq!(sliced.fingerprint(), owned.fingerprint());
            assert_eq!(format!("{sliced:?}"), format!("{owned:?}"));
        }
        assert_eq!(Value::default(), Value::from(""));
        assert!(Value::from(vec![0; 64]) < Value::from_u64(1), "order is bytewise");
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", Value::from_u64(7)), "v7");
        assert_eq!(format!("{:?}", Value::from("hi")), "v\"hi\"");
        assert!(!format!("{:?}", Value::default()).is_empty());
    }
}
