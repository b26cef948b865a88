//! Application data values: the set *A*.

use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// The FNV-1a 64-bit offset basis: the state [`fnv1a`] starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h` (start from
/// [`FNV1A_OFFSET`]; feed the result back in to hash a stream in
/// pieces). Deterministic, dependency-free and identical on every
/// platform, which is what value fingerprints, shard placement and the
/// simulator's run digests all need.
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

/// What fits beside a length byte in the 32 bytes of a [`Bytes`] handle.
const INLINE_MAX: usize = 23;

/// `Inline` (`buf[..len]`) exactly when the payload is ≤ `INLINE_MAX`.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_MAX] },
    Shared(Bytes),
}

impl Value {
    /// The value `buf[range]`: a payload over 23 bytes is an O(1) sub-view
    /// sharing `buf`'s allocation, a shorter one an inline copy that does
    /// not keep `buf` alive. Panics if `range` is out of bounds.
    pub fn slice_of(buf: &Bytes, range: Range<usize>) -> Self {
        if range.len() <= INLINE_MAX {
            Value::from(&buf[range])
        } else {
            Value(Repr::Shared(buf.slice(range)))
        }
    }

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
    /// [`Value::from_u64`] payloads, otherwise an FNV-1a digest of the
    /// bytes. Trace events and monitors key submit/deliver pairs by this
    /// fingerprint, so arbitrary application payloads (encoded KV
    /// commands, say) stay distinguishable in the event stream.
    pub fn fingerprint(&self) -> u64 {
        if let Some(x) = self.as_u64() {
            return x;
        }
        fnv1a(FNV1A_OFFSET, self.as_bytes())
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
        if v.len() <= INLINE_MAX {
            Value::from(&v[..])
        } else {
            Value(Repr::Shared(Bytes::from(v)))
        }
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
        // fingerprints (FNV over short strings).
        assert_ne!(Value::from("a").fingerprint(), Value::from("b").fingerprint());
        assert_eq!(Value::from("a").fingerprint(), 0xaf63_dc4c_8601_ec8c, "FNV-1a test vector");
    }

    /// Across the inline limit, a fresh copy and a sub-view of a larger
    /// buffer are the same value by every observation.
    #[test]
    fn representation_is_invisible_at_every_length() {
        use std::collections::hash_map::DefaultHasher;
        let digest = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let frame = Bytes::from((0..200u8).collect::<Vec<_>>());
        for len in 0..=64 {
            let bytes = &frame[3..3 + len];
            let fresh = Value::from(bytes.to_vec());
            let view = Value::slice_of(&frame, 3..3 + len);
            assert_eq!(fresh.as_bytes(), bytes);
            assert_eq!(view.as_bytes(), bytes);
            assert_eq!(fresh, view, "len {len}");
            assert_eq!(fresh.cmp(&view), Ordering::Equal);
            assert_eq!(digest(&fresh), digest(&view));
            assert_eq!(fresh.fingerprint(), view.fingerprint());
            assert_eq!(format!("{fresh:?}"), format!("{view:?}"));
            // Only a payload past the limit shares the buffer.
            let aliases = view.as_bytes().as_ptr() == frame[3..].as_ptr();
            assert_eq!(aliases, len > INLINE_MAX, "len {len}");
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
