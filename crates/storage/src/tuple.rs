//! Tuples (rows) of a relation.

use pds_common::{AttrId, ByteSink, TupleId, Value};
use serde::{Deserialize, Serialize};

/// A tuple: a stable identifier plus one value per attribute of the owning
/// relation's schema.
///
/// The identifier is preserved across partitioning (sensitive tuples keep the
/// id they had in the original relation), because the paper's adversarial
/// view is phrased in terms of *which* encrypted tuples the cloud returns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    /// Stable identifier of the tuple.
    pub id: TupleId,
    /// Attribute values, in schema order.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(id: TupleId, values: Vec<Value>) -> Self {
        Tuple { id, values }
    }

    /// The value of the attribute at `attr`.
    pub fn value(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// Mutable access to the value of the attribute at `attr`.
    pub fn value_mut(&mut self, attr: AttrId) -> &mut Value {
        &mut self.values[attr.index()]
    }

    /// Projects the tuple onto the given attribute positions.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs
            .iter()
            .map(|a| self.values[a.index()].clone())
            .collect()
    }

    /// Approximate serialised size in bytes (communication cost modelling).
    pub fn size_bytes(&self) -> usize {
        8 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// Stable byte encoding of the whole tuple (what gets encrypted when a
    /// sensitive tuple is outsourced).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes() + 5 * self.values.len() + 4);
        self.encode_into(&mut out);
        out
    }

    /// Writes [`Tuple::encode`]'s bytes into `out` — straight into a wire
    /// frame, or into a [`ByteCounter`](pds_common::ByteCounter) to size
    /// one.
    pub fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.put_u64(self.id.raw());
        out.put_u32(self.values.len() as u32);
        for v in &self.values {
            out.put_len_prefixed(|out| v.encode_into(out));
        }
    }

    /// Decodes a tuple previously produced by [`Tuple::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Tuple> {
        if bytes.len() < 12 {
            return None;
        }
        let id = TupleId::new(u64::from_be_bytes(bytes[..8].try_into().ok()?));
        let count = u32::from_be_bytes(bytes[8..12].try_into().ok()?) as usize;
        let mut values = Vec::with_capacity(count);
        let mut offset = 12;
        for _ in 0..count {
            if bytes.len() < offset + 4 {
                return None;
            }
            let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().ok()?) as usize;
            offset += 4;
            if bytes.len() < offset + len {
                return None;
            }
            values.push(Value::decode(&bytes[offset..offset + len])?);
            offset += len;
        }
        if offset != bytes.len() {
            return None;
        }
        Some(Tuple { id, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Tuple {
        Tuple::new(
            TupleId::new(4),
            vec![
                Value::from("E259"),
                Value::from("John"),
                Value::Int(222),
                Value::Null,
            ],
        )
    }

    #[test]
    fn value_access_and_projection() {
        let t = sample();
        assert_eq!(t.value(AttrId::new(0)), &Value::from("E259"));
        assert_eq!(
            t.project(&[AttrId::new(2), AttrId::new(0)]),
            vec![Value::Int(222), Value::from("E259")]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        assert_eq!(Tuple::decode(&t.encode()), Some(t));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Tuple::decode(&[]), None);
        assert_eq!(Tuple::decode(&[0u8; 11]), None);
        let mut enc = sample().encode();
        enc.push(0); // trailing junk
        assert_eq!(Tuple::decode(&enc), None);
    }

    #[test]
    fn size_accounts_for_values() {
        let t = sample();
        assert!(t.size_bytes() > 8 + 4 + 4 + 8);
    }

    proptest! {
        #[test]
        fn roundtrip_property(id in any::<u64>(),
                              ints in proptest::collection::vec(any::<i64>(), 0..8),
                              texts in proptest::collection::vec(".{0,12}", 0..8)) {
            let mut values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            values.extend(texts.into_iter().map(Value::Text));
            let t = Tuple::new(TupleId::new(id), values);
            prop_assert_eq!(Tuple::decode(&t.encode()), Some(t));
        }
    }
}
