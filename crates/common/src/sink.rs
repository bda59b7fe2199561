//! Byte sinks: one writer that either produces bytes or only counts them.
//!
//! Every stable byte encoding in the workspace ([`crate::Value`], tuples,
//! the wire messages of `pds-proto`) is written through a [`ByteSink`].
//! Writing into a `Vec<u8>` produces the bytes; writing into a
//! [`ByteCounter`] produces only their number.  Both run the same writer
//! code, so a length computed by counting equals the length of the
//! encoding by construction — which is how the cloud's byte accounting
//! sizes a frame without building or encoding it.

/// A destination for an encoding's bytes.
pub trait ByteSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, byte: u8) {
        self.put(&[byte]);
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Appends `bytes` behind a big-endian `u32` length prefix.
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put(bytes);
    }

    /// Appends whatever `body` writes behind a big-endian `u32` prefix
    /// holding its length — the framing of every nested value and tuple,
    /// written in one pass without a scratch buffer.
    fn put_len_prefixed(&mut self, body: impl FnOnce(&mut Self));
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_u8(&mut self, byte: u8) {
        self.push(byte);
    }

    fn put_len_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.len();
        self.extend_from_slice(&[0; 4]);
        body(self);
        let len = (self.len() - at - 4) as u32;
        self[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }
}

/// A sink that keeps only the number of bytes written to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCounter(pub usize);

impl ByteSink for ByteCounter {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }

    fn put_len_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        self.0 += 4;
        body(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write<S: ByteSink>(out: &mut S) {
        out.put_u8(7);
        out.put_u32(1);
        out.put_u64(2);
        out.put_bytes(b"abc");
        out.put_len_prefixed(|o| {
            o.put(b"xy");
            o.put_len_prefixed(|o| o.put_u8(9));
        });
    }

    #[test]
    fn counter_counts_what_the_vec_receives() {
        let mut bytes = Vec::new();
        write(&mut bytes);
        let mut count = ByteCounter::default();
        write(&mut count);
        assert_eq!(count.0, bytes.len());
    }

    #[test]
    fn len_prefix_is_patched_in_place() {
        let mut bytes = vec![0xEE];
        bytes.put_len_prefixed(|o| o.put(b"hello"));
        assert_eq!(bytes, [0xEE, 0, 0, 0, 5, b'h', b'e', b'l', b'l', b'o']);
        let mut nested = Vec::new();
        nested.put_len_prefixed(|o| o.put_len_prefixed(|o| o.put_u8(1)));
        assert_eq!(nested, [0, 0, 0, 5, 0, 0, 0, 1, 1]);
    }
}
