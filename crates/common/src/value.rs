//! Attribute values and value domains.
//!
//! A [`Value`] is the unit of data stored in a relation cell and the unit of
//! search in a selection query.  The Query Binning technique of the paper
//! partitions the *values* of a searchable attribute into sensitive and
//! non-sensitive bins, so values need a total order, hashing and a stable
//! byte serialisation (the byte form is what gets encrypted by
//! `pds-crypto`).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::sink::ByteSink;

/// A single attribute value.
///
/// The variants cover what the paper's experiments need: integer keys
/// (TPC-H `L_PARTKEY`, salaries, ...), text values (employee ids such as
/// `E259`, department names) and raw bytes (ciphertexts handed back by the
/// cloud before the owner decrypts them). `Null` models the empty cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// Raw bytes (used for ciphertexts and opaque payloads).
    Bytes(Vec<u8>),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Returns `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer payload if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the text payload if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte payload if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Stable, self-describing byte encoding of the value.
    ///
    /// The encoding is prefix-tagged so that distinct values never encode to
    /// the same byte string; this is the plaintext handed to
    /// non-deterministic encryption and to deterministic tags/PRFs, so
    /// injectivity matters for correctness of equality search.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.size_bytes());
        self.encode_into(&mut out);
        out
    }

    /// Writes [`Value::encode`]'s bytes into `out` — straight into a wire
    /// frame, or into a [`ByteCounter`](crate::ByteCounter) to size one.
    pub fn encode_into<S: ByteSink>(&self, out: &mut S) {
        match self {
            Value::Null => out.put_u8(0),
            Value::Int(v) => {
                out.put_u8(1);
                out.put(&v.to_be_bytes());
            }
            Value::Text(s) => {
                out.put_u8(2);
                out.put(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.put_u8(3);
                out.put(b);
            }
            Value::Bool(b) => {
                out.put_u8(4);
                out.put_u8(u8::from(*b));
            }
        }
    }

    /// Decodes a value previously produced by [`Value::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Value> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            0 => {
                if rest.is_empty() {
                    Some(Value::Null)
                } else {
                    None
                }
            }
            1 => {
                let arr: [u8; 8] = rest.try_into().ok()?;
                Some(Value::Int(i64::from_be_bytes(arr)))
            }
            2 => String::from_utf8(rest.to_vec()).ok().map(Value::Text),
            3 => Some(Value::Bytes(rest.to_vec())),
            4 => match rest {
                [0] => Some(Value::Bool(false)),
                [1] => Some(Value::Bool(true)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Approximate size of the value in bytes, used by the communication
    /// cost simulator in `pds-cloud`.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }

    /// A short human readable rendering used in adversarial-view tables.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed("null"),
            Value::Int(v) => Cow::Owned(v.to_string()),
            Value::Text(s) => Cow::Borrowed(s.as_str()),
            Value::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Value::Bytes(b) => Cow::Owned(format!("0x{}", hex(&b[..b.len().min(8)]))),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

/// Values have a total order so that range queries and ordered indexes work.
/// Different variants order by a fixed variant rank (Null < Bool < Int <
/// Text < Bytes); values of the same variant order naturally.
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Text(_) => 3,
                Value::Bytes(_) => 4,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// The domain of an attribute: the set of values the attribute may take.
///
/// The paper's security definition quantifies over `Domain(A)`; the
/// adversary's prior over associations is uniform over the domain.  For the
/// experiments we only ever need to enumerate the *active* domain (values
/// that actually occur) plus, optionally, a declared closed domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Domain {
    /// A contiguous integer domain `[lo, hi]` (inclusive).
    IntRange {
        /// Lower inclusive bound.
        lo: i64,
        /// Upper inclusive bound.
        hi: i64,
    },
    /// An explicitly enumerated domain.
    Enumerated(Vec<Value>),
    /// Unconstrained domain (the active domain stands in for it).
    Open,
}

impl Domain {
    /// Number of values in the domain, when finite.
    pub fn cardinality(&self) -> Option<u64> {
        match self {
            Domain::IntRange { lo, hi } => {
                if hi < lo {
                    Some(0)
                } else {
                    Some((hi - lo) as u64 + 1)
                }
            }
            Domain::Enumerated(vs) => Some(vs.len() as u64),
            Domain::Open => None,
        }
    }

    /// Whether a value belongs to the domain.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            Domain::IntRange { lo, hi } => match v {
                Value::Int(x) => x >= lo && x <= hi,
                _ => false,
            },
            Domain::Enumerated(vs) => vs.contains(v),
            Domain::Open => true,
        }
    }

    /// Enumerates the domain when it is finite and reasonably small.
    pub fn enumerate(&self) -> Option<Vec<Value>> {
        match self {
            Domain::IntRange { lo, hi } => {
                if hi < lo {
                    return Some(Vec::new());
                }
                let n = (*hi - *lo) as u64 + 1;
                if n > 10_000_000 {
                    return None;
                }
                Some((*lo..=*hi).map(Value::Int).collect())
            }
            Domain::Enumerated(vs) => Some(vs.clone()),
            Domain::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_int() {
        let v = Value::Int(-42);
        assert_eq!(Value::decode(&v.encode()), Some(v));
    }

    #[test]
    fn encode_decode_roundtrip_text() {
        let v = Value::from("E259");
        assert_eq!(Value::decode(&v.encode()), Some(v));
    }

    #[test]
    fn encode_decode_roundtrip_bytes() {
        let v = Value::Bytes(vec![0, 1, 2, 255]);
        assert_eq!(Value::decode(&v.encode()), Some(v));
    }

    #[test]
    fn encode_decode_roundtrip_bool_and_null() {
        assert_eq!(
            Value::decode(&Value::Bool(true).encode()),
            Some(Value::Bool(true))
        );
        assert_eq!(Value::decode(&Value::Null.encode()), Some(Value::Null));
    }

    #[test]
    fn encode_is_injective_across_variants() {
        let vals = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::from(""),
            Value::from("0"),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0]),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                if i != j {
                    assert_ne!(a.encode(), b.encode(), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn ordering_within_variants() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::from("a") < Value::from("b"));
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn int_range_domain() {
        let d = Domain::IntRange { lo: 1, hi: 10 };
        assert_eq!(d.cardinality(), Some(10));
        assert!(d.contains(&Value::Int(5)));
        assert!(!d.contains(&Value::Int(11)));
        assert_eq!(d.enumerate().unwrap().len(), 10);
    }

    #[test]
    fn enumerated_domain() {
        let d = Domain::Enumerated(vec![Value::from("a"), Value::from("b")]);
        assert_eq!(d.cardinality(), Some(2));
        assert!(d.contains(&Value::from("a")));
        assert!(!d.contains(&Value::from("c")));
    }

    #[test]
    fn empty_int_range() {
        let d = Domain::IntRange { lo: 5, hi: 1 };
        assert_eq!(d.cardinality(), Some(0));
        assert_eq!(d.enumerate().unwrap().len(), 0);
    }

    #[test]
    fn display_renders_ciphertext_prefix() {
        let v = Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(v.to_string(), "0xdeadbeef");
    }

    #[test]
    fn size_bytes_reasonable() {
        assert_eq!(Value::Int(7).size_bytes(), 8);
        assert_eq!(Value::from("abc").size_bytes(), 3);
        assert_eq!(Value::Null.size_bytes(), 1);
    }
}
