//! Length-delimited, checksummed frames — the outermost layer of the wire
//! protocol.
//!
//! Every owner↔cloud message travels inside exactly one frame.  The
//! current layout (protocol version 2) carries a correlation id so
//! responses can be matched to requests out of order:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------------
//!       0     2  magic  0x50 0x44 ("PD")
//!       2     1  protocol version (currently 2)
//!       3     1  message type tag (see `pds_proto::messages`)
//!       4     8  correlation id, big-endian u64 (0 = uncorrelated)
//!      12     4  payload length, big-endian u32
//!      16     n  payload (message body, see `pds_proto::messages`)
//!    16+n     4  CRC-32 (IEEE) over bytes [0, 16+n), big-endian
//! ```
//!
//! Version-1 frames (no correlation-id field; the length sits at offset 4
//! and the payload at offset 8) still **decode**: the decoders switch on
//! the version byte and report correlation id 0 for v1 input, so a peer
//! speaking the old protocol keeps working.  Encoders always emit v2.
//! `tests/proto_roundtrip.rs` property-tests the compat path.
//!
//! Decoding is total: any truncated, oversized, or corrupted input yields
//! `Err(PdsError::Wire(..))` — never a panic.  The CRC trailer guarantees
//! that *any* single-byte corruption anywhere in the frame is detected
//! (CRC-32 detects all error bursts up to 32 bits), which the property
//! tests in `tests/proto_roundtrip.rs` fuzz.
//!
//! Buffers on both sides come from the thread-local [`crate::pool`]:
//! encoding builds header, payload and trailer in **one** pooled buffer
//! (no intermediate payload `Vec`), and [`FrameReader`] fills a pooled
//! buffer in bounded chunks — so steady-state traffic allocates nothing
//! per frame once each thread's working set is warm.

use std::io::Read;

use pds_common::{PdsError, Result};

use crate::pool::{self, PooledBuf};

/// Frame magic: ASCII "PD".
pub const MAGIC: [u8; 2] = [0x50, 0x44];

/// Current protocol version (with the correlation-id header field).
pub const VERSION: u8 = 2;

/// The previous protocol version, still accepted by every decoder.
pub const VERSION_V1: u8 = 1;

/// Bytes before the payload in a **v2** frame:
/// magic + version + type + correlation id + length.
pub const HEADER_LEN: usize = 16;

/// Bytes before the payload in a legacy **v1** frame (no correlation id).
pub const HEADER_LEN_V1: usize = 8;

/// Bytes after the payload: the CRC-32 trailer.
pub const TRAILER_LEN: usize = 4;

/// Fixed per-frame overhead added on top of the payload (v2 layout, which
/// is what every encoder emits).
pub const FRAME_OVERHEAD: usize = HEADER_LEN + TRAILER_LEN;

/// Hard ceiling on a frame's payload length.  Protects decoders against
/// pathological length fields (a forged frame could otherwise request a
/// multi-gigabyte allocation before the CRC is ever checked).
pub const MAX_PAYLOAD_LEN: usize = 1 << 30;

/// The frame reader grows its buffer in steps of at most this many bytes,
/// so growth events stay proportional to bytes actually received — never
/// to the declared length, and never to the number of `read` calls.
const READ_CHUNK: usize = 64 * 1024;

/// Byte-indexed CRC-32 lookup table for the reflected IEEE polynomial,
/// built once at compile time (the bit-at-a-time loop would otherwise run
/// 8 iterations per payload byte on every exchange's accounting path).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Big-endian u32 from (the first 4 bytes of) `bytes`, without a panic
/// path: the fold simply consumes what is there, and every caller has
/// already length-checked its slice.  Decoding must stay total — a hostile
/// frame may exercise any byte pattern, and the daemon's hot path forbids
/// `unwrap`/`expect` (see `pds-analyze`'s panic-path pass).
pub(crate) fn be_u32(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .take(4)
        .fold(0u32, |acc, &b| (acc << 8) | u32::from(b))
}

/// Big-endian u64 twin of [`be_u32`].
pub(crate) fn be_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .take(8)
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Total encoded size of a frame carrying `payload_len` payload bytes.
///
/// Used to account for messages whose body the simulation only knows by
/// size (opaque engine tokens), without materialising the payload.
pub const fn encoded_len(payload_len: usize) -> usize {
    FRAME_OVERHEAD + payload_len
}

/// Refuses a payload longer than [`MAX_PAYLOAD_LEN`] — the check every
/// encoder (and [`crate::WireMessage::encoded_len`]) makes.
pub(crate) fn check_payload_len(payload_len: usize) -> Result<()> {
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(PdsError::Wire(format!(
            "payload of {payload_len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte frame limit"
        )));
    }
    Ok(())
}

/// Starts a v2 frame in `buf`: magic, version, type, correlation id, and a
/// zeroed length placeholder that [`finish_frame`] patches.  The caller
/// appends the payload directly after this — one buffer end to end, which
/// is what lets the codec hot path run without a per-frame allocation.
pub fn begin_frame(buf: &mut Vec<u8>, msg_type: u8, corr: u64) {
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(msg_type);
    buf.extend_from_slice(&corr.to_be_bytes());
    buf.extend_from_slice(&[0u8; 4]);
}

/// Completes a frame begun with [`begin_frame`]: validates the payload
/// length, patches the header's length field, and appends the CRC trailer.
pub fn finish_frame(buf: &mut Vec<u8>) -> Result<()> {
    let payload_len = buf.len().saturating_sub(HEADER_LEN);
    check_payload_len(payload_len)?;
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&(payload_len as u32).to_be_bytes());
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_be_bytes());
    Ok(())
}

/// Wraps a message payload into one wire frame (correlation id 0).
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Result<Vec<u8>> {
    encode_frame_corr(msg_type, 0, payload)
}

/// Wraps a message payload into one wire frame carrying `corr`.
pub fn encode_frame_corr(msg_type: u8, corr: u64, payload: &[u8]) -> Result<Vec<u8>> {
    let _span = pds_obs::obs_span("frame.encode");
    check_payload_len(payload.len())?;
    let mut out = pool::take_buf();
    out.reserve(encoded_len(payload.len()));
    begin_frame(&mut out, msg_type, corr);
    out.extend_from_slice(payload);
    finish_frame(&mut out)?;
    Ok(out.into_vec())
}

/// Unwraps one wire frame, returning `(msg_type, payload)`.
///
/// Accepts both protocol versions; see [`decode_frame_corr`] for the form
/// that also surfaces the correlation id.
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8])> {
    decode_frame_corr(bytes).map(|(msg_type, _, payload)| (msg_type, payload))
}

/// Unwraps one wire frame, returning `(msg_type, correlation id, payload)`.
///
/// The input must be exactly one frame (trailing garbage is rejected —
/// stream reassembly happens above this layer, using the length field).
/// Legacy v1 frames decode with correlation id 0.
pub fn decode_frame_corr(bytes: &[u8]) -> Result<(u8, u64, &[u8])> {
    let _span = pds_obs::obs_span("frame.decode");
    if bytes.len() < HEADER_LEN_V1 + TRAILER_LEN {
        return Err(PdsError::Wire(format!(
            "frame truncated: {} bytes, need at least {}",
            bytes.len(),
            HEADER_LEN_V1 + TRAILER_LEN
        )));
    }
    if bytes[..2] != MAGIC {
        return Err(PdsError::Wire(format!(
            "bad frame magic {:02x}{:02x}",
            bytes[0], bytes[1]
        )));
    }
    let (header_len, corr) = match bytes[2] {
        VERSION_V1 => (HEADER_LEN_V1, 0),
        VERSION => {
            if bytes.len() < FRAME_OVERHEAD {
                return Err(PdsError::Wire(format!(
                    "v2 frame truncated: {} bytes, need at least {FRAME_OVERHEAD}",
                    bytes.len()
                )));
            }
            (HEADER_LEN, be_u64(&bytes[4..12]))
        }
        other => {
            return Err(PdsError::Wire(format!(
                "unsupported protocol version {other}"
            )));
        }
    };
    let msg_type = bytes[3];
    let len = be_u32(&bytes[header_len - 4..header_len]) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(PdsError::Wire(format!(
            "declared payload of {len} bytes exceeds the {MAX_PAYLOAD_LEN}-byte frame limit"
        )));
    }
    let expected_total = match header_len
        .checked_add(len)
        .and_then(|n| n.checked_add(TRAILER_LEN))
    {
        Some(n) => n,
        None => return Err(PdsError::Wire("frame length overflows".into())),
    };
    if bytes.len() != expected_total {
        return Err(PdsError::Wire(format!(
            "frame length mismatch: header declares {len} payload bytes \
             ({expected_total} total), got {}",
            bytes.len()
        )));
    }
    let body_end = header_len + len;
    let declared_crc = be_u32(&bytes[body_end..]);
    let actual_crc = crc32(&bytes[..body_end]);
    if declared_crc != actual_crc {
        return Err(PdsError::Wire(format!(
            "frame checksum mismatch: header {declared_crc:08x}, computed {actual_crc:08x}"
        )));
    }
    Ok((msg_type, corr, &bytes[header_len..body_end]))
}

/// Outcome of one streaming frame read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadFrame {
    /// The peer closed the stream cleanly on a frame boundary.
    Eof,
    /// One complete frame (header + payload + CRC trailer) in a pooled
    /// buffer, ready for [`decode_frame`] / `WireMessage::decode`.
    /// Dropping the buffer recycles it for the next read on this thread.
    Frame(PooledBuf),
    /// A well-formed header declared more payload than this reader's limit.
    /// The payload was **not** read (and not allocated); the stream is now
    /// desynchronised, so the caller must close the connection after
    /// reporting the violation.
    Oversized {
        /// Message type tag from the offending header.
        msg_type: u8,
        /// Correlation id from the offending header (0 for v1 frames), so
        /// the refusal can be stamped onto the right in-flight request.
        corr: u64,
        /// Payload length the header declared.
        declared: usize,
    },
}

/// Streaming frame reader with a configurable per-read payload ceiling.
///
/// [`decode_frame`] needs the whole frame in memory up front; sockets
/// deliver bytes in arbitrary chunks.  This reader reassembles exactly one
/// frame from any [`Read`], handling short reads, and maps every truncation
/// (EOF mid-header, EOF mid-payload) to `Err(PdsError::Wire)` — never a
/// hang or a panic.  The declared payload length is validated against the
/// ceiling *before* any payload byte is read, and the pooled receive
/// buffer grows in bounded [`READ_CHUNK`] steps as bytes actually arrive,
/// never pre-sized from the declared length — so a hostile peer cannot
/// turn a forged length field into a large allocation, and a 1-byte
/// dribble schedule cannot force per-read reallocation: growth events are
/// bounded by `ceil(frame len / READ_CHUNK)`, not by the number of `read`
/// calls, and are counted in [`pool::pool_stats`]'s `reader_grows` so
/// tests can assert the bound.  Accepts both protocol versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameReader {
    max_payload: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader {
            max_payload: MAX_PAYLOAD_LEN,
        }
    }
}

impl FrameReader {
    /// Creates a reader that accepts payloads up to `max_payload` bytes
    /// (clamped to [`MAX_PAYLOAD_LEN`]).
    pub fn new(max_payload: usize) -> Self {
        FrameReader {
            max_payload: max_payload.min(MAX_PAYLOAD_LEN),
        }
    }

    /// The payload ceiling this reader enforces.
    pub fn max_payload(&self) -> usize {
        self.max_payload
    }

    /// Reads exactly one frame from `r`.
    ///
    /// Returns [`ReadFrame::Eof`] only when the stream ends cleanly on a
    /// frame boundary (zero bytes of the next header read); any partial
    /// frame is an error.  Returns [`ReadFrame::Oversized`] — without
    /// reading or allocating the payload — when the declared length exceeds
    /// this reader's ceiling.
    pub fn read<R: Read>(&self, r: &mut R) -> Result<ReadFrame> {
        let mut header = [0u8; HEADER_LEN];
        let mut got = 0;
        // Both versions share the first 8 bytes' magic/version/type prefix;
        // only after the version byte do we know whether 8 more follow.
        while got < HEADER_LEN_V1 {
            match r.read(&mut header[got..HEADER_LEN_V1]) {
                Ok(0) if got == 0 => return Ok(ReadFrame::Eof),
                Ok(0) => {
                    return Err(PdsError::Wire(format!(
                        "stream ended mid-header: got {got} of {HEADER_LEN_V1} bytes"
                    )))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(PdsError::Wire(format!("frame header read failed: {e}"))),
            }
        }
        if header[..2] != MAGIC {
            return Err(PdsError::Wire(format!(
                "bad frame magic {:02x}{:02x}",
                header[0], header[1]
            )));
        }
        let (header_len, corr, declared) = match header[2] {
            VERSION_V1 => (
                HEADER_LEN_V1,
                0u64,
                be_u32(&header[4..HEADER_LEN_V1]) as usize,
            ),
            VERSION => {
                while got < HEADER_LEN {
                    match r.read(&mut header[got..HEADER_LEN]) {
                        Ok(0) => {
                            return Err(PdsError::Wire(format!(
                                "stream ended mid-header: got {got} of {HEADER_LEN} bytes"
                            )))
                        }
                        Ok(n) => got += n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            return Err(PdsError::Wire(format!("frame header read failed: {e}")))
                        }
                    }
                }
                (
                    HEADER_LEN,
                    be_u64(&header[4..12]),
                    be_u32(&header[12..16]) as usize,
                )
            }
            other => {
                return Err(PdsError::Wire(format!(
                    "unsupported protocol version {other}"
                )));
            }
        };
        let msg_type = header[3];
        if declared > self.max_payload {
            return Ok(ReadFrame::Oversized {
                msg_type,
                corr,
                declared,
            });
        }
        let rest = declared + TRAILER_LEN;
        // Fill a pooled buffer in bounded chunks as bytes actually arrive:
        // a peer that declares big and sends nothing costs at most one
        // READ_CHUNK of reserve, and a warm pool buffer (capacity from the
        // last frame of this size) grows zero times.
        let mut frame = pool::take_buf();
        frame.extend_from_slice(&header[..header_len]);
        let mut remaining = rest;
        while remaining > 0 {
            let chunk = remaining.min(READ_CHUNK);
            let filled_start = frame.len();
            let cap_before = frame.capacity();
            frame.resize(filled_start + chunk, 0);
            if frame.capacity() != cap_before {
                pool::note_reader_grow();
            }
            let mut filled = 0;
            while filled < chunk {
                match r.read(&mut frame[filled_start + filled..filled_start + chunk]) {
                    Ok(0) => {
                        let got = rest - remaining + filled;
                        return Err(PdsError::Wire(format!(
                            "stream ended mid-frame: got {got} of {rest} payload+trailer bytes"
                        )));
                    }
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        return Err(PdsError::Wire(format!("frame payload read failed: {e}")))
                    }
                }
            }
            remaining -= chunk;
        }
        Ok(ReadFrame::Frame(frame))
    }
}

/// Reads one frame from `r` with the default [`MAX_PAYLOAD_LEN`] ceiling.
pub fn read_frame<R: Read>(r: &mut R) -> Result<ReadFrame> {
    FrameReader::default().read(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a legacy v1 frame (length at offset 4, payload at offset 8,
    /// no correlation id) — the compat fixture every decoder must accept.
    fn encode_frame_v1(msg_type: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN_V1 + payload.len() + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION_V1);
        out.push(msg_type);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    #[test]
    fn roundtrip() {
        let frame = encode_frame(3, b"hello wire").unwrap();
        assert_eq!(frame.len(), encoded_len(10));
        let (ty, payload) = decode_frame(&frame).unwrap();
        assert_eq!(ty, 3);
        assert_eq!(payload, b"hello wire");
    }

    #[test]
    fn correlation_id_roundtrips() {
        for corr in [0u64, 1, 7, u64::MAX] {
            let frame = encode_frame_corr(9, corr, b"tagged").unwrap();
            let (ty, got, payload) = decode_frame_corr(&frame).unwrap();
            assert_eq!(ty, 9);
            assert_eq!(got, corr);
            assert_eq!(payload, b"tagged");
        }
    }

    #[test]
    fn v1_frames_still_decode_with_corr_zero() {
        let frame = encode_frame_v1(3, b"legacy peer");
        let (ty, corr, payload) = decode_frame_corr(&frame).unwrap();
        assert_eq!(ty, 3);
        assert_eq!(corr, 0);
        assert_eq!(payload, b"legacy peer");
        // And through the streaming reader.
        let mut cursor = std::io::Cursor::new(frame);
        match read_frame(&mut cursor).unwrap() {
            ReadFrame::Frame(bytes) => {
                let (ty, corr, payload) = decode_frame_corr(&bytes).unwrap();
                assert_eq!((ty, corr), (3, 0));
                assert_eq!(payload, b"legacy peer");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = encode_frame(0, &[]).unwrap();
        assert_eq!(frame.len(), FRAME_OVERHEAD);
        let (ty, payload) = decode_frame(&frame).unwrap();
        assert_eq!(ty, 0);
        assert!(payload.is_empty());
    }

    #[test]
    fn crc32_matches_known_answer() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_truncation_is_an_error() {
        for frame in [
            encode_frame(2, b"payload bytes").unwrap(),
            encode_frame_v1(2, b"payload bytes"),
        ] {
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut]).is_err(),
                    "truncation to {cut} bytes must fail"
                );
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        for frame in [
            encode_frame(5, b"tamper with me").unwrap(),
            encode_frame_v1(5, b"tamper with me"),
        ] {
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0x01;
                assert!(decode_frame(&bad).is_err(), "flip at byte {i} must fail");
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame.push(0);
        assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[2] = 9;
        assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn absurd_declared_length_rejected_before_alloc() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_frame(&frame).is_err());
    }

    /// A reader that delivers one byte per `read` call — the worst-case
    /// short-read schedule a socket can produce.
    struct ByteAtATime<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn streaming_read_survives_short_reads() {
        let frame = encode_frame(3, b"dribbled one byte at a time").unwrap();
        let mut r = ByteAtATime {
            bytes: &frame,
            pos: 0,
        };
        match read_frame(&mut r).unwrap() {
            ReadFrame::Frame(bytes) => {
                let (ty, payload) = decode_frame(&bytes).unwrap();
                assert_eq!(ty, 3);
                assert_eq!(payload, b"dribbled one byte at a time");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // The stream is now exhausted on a frame boundary: clean EOF.
        assert_eq!(read_frame(&mut r).unwrap(), ReadFrame::Eof);
    }

    #[test]
    fn dribble_reallocation_is_bounded_by_frame_size_not_read_count() {
        // ~200 KiB payload delivered one byte at a time: hundreds of
        // thousands of read calls, but capacity growth must stay bounded by
        // the frame's chunk count, not the read count.  Thread-local stats
        // keep the delta deterministic under the parallel test runner.
        let payload = vec![0xA5u8; 200 * 1024];
        let frame = encode_frame(7, &payload).unwrap();
        let before = pool::thread_pool_stats().reader_grows;
        let mut r = ByteAtATime {
            bytes: &frame,
            pos: 0,
        };
        match read_frame(&mut r).unwrap() {
            ReadFrame::Frame(bytes) => assert_eq!(bytes.len(), frame.len()),
            other => panic!("expected a frame, got {other:?}"),
        }
        let grows = pool::thread_pool_stats().reader_grows - before;
        let chunks = (frame.len() / READ_CHUNK + 2) as u64;
        assert!(
            grows <= chunks,
            "{grows} capacity growths for {} bytes dribbled byte-by-byte \
             (bound: {chunks})",
            frame.len()
        );
    }

    #[test]
    fn pooled_read_buffer_is_reused_across_frames() {
        let frame = encode_frame(3, b"recycled").unwrap();
        // Warm the pool: the first read may miss, later reads must hit.
        for _ in 0..2 {
            let mut cursor = std::io::Cursor::new(frame.clone());
            match read_frame(&mut cursor).unwrap() {
                ReadFrame::Frame(bytes) => drop(bytes),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        let before = pool::thread_pool_stats();
        let mut cursor = std::io::Cursor::new(frame);
        match read_frame(&mut cursor).unwrap() {
            ReadFrame::Frame(bytes) => drop(bytes),
            other => panic!("expected a frame, got {other:?}"),
        }
        let after = pool::thread_pool_stats();
        assert_eq!(after.hits - before.hits, 1, "warm read must hit the pool");
        assert_eq!(after.misses, before.misses, "warm read must not allocate");
    }

    #[test]
    fn streaming_read_reassembles_back_to_back_mixed_version_frames() {
        let mut stream = encode_frame(1, b"first").unwrap();
        stream.extend_from_slice(&encode_frame_v1(2, b"second"));
        let mut cursor = std::io::Cursor::new(stream);
        for expected in [(1u8, b"first".as_slice()), (2u8, b"second".as_slice())] {
            match read_frame(&mut cursor).unwrap() {
                ReadFrame::Frame(bytes) => {
                    let (ty, payload) = decode_frame(&bytes).unwrap();
                    assert_eq!((ty, payload), expected);
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), ReadFrame::Eof);
    }

    #[test]
    fn eof_mid_header_is_a_wire_error() {
        let frame = encode_frame(4, b"cut me off").unwrap();
        for cut in 1..HEADER_LEN {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(
                read_frame(&mut cursor).is_err(),
                "EOF after {cut} header bytes must be Err(Wire), not a hang or Eof"
            );
        }
        let v1 = encode_frame_v1(4, b"cut me off");
        for cut in 1..HEADER_LEN_V1 {
            let mut cursor = std::io::Cursor::new(v1[..cut].to_vec());
            assert!(
                read_frame(&mut cursor).is_err(),
                "EOF after {cut} v1 header bytes must be Err(Wire)"
            );
        }
    }

    #[test]
    fn eof_mid_payload_is_a_wire_error() {
        let frame = encode_frame(4, b"cut me off").unwrap();
        for cut in HEADER_LEN..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(
                read_frame(&mut cursor).is_err(),
                "EOF after {cut} of {} bytes must be Err(Wire)",
                frame.len()
            );
        }
    }

    #[test]
    fn bad_magic_and_version_fail_streaming_too() {
        let mut bad_magic = encode_frame(1, b"x").unwrap();
        bad_magic[0] = 0xFF;
        assert!(read_frame(&mut std::io::Cursor::new(bad_magic)).is_err());
        let mut bad_version = encode_frame(1, b"x").unwrap();
        bad_version[2] = 9;
        assert!(read_frame(&mut std::io::Cursor::new(bad_version)).is_err());
    }

    #[test]
    fn oversized_declared_length_reported_before_payload_read() {
        // Header declares 1 MiB but the configured ceiling is 1 KiB; the
        // reader must report Oversized — with the header's correlation id —
        // without consuming payload bytes.
        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(VERSION);
        stream.push(7);
        stream.extend_from_slice(&0xDEAD_BEEFu64.to_be_bytes());
        stream.extend_from_slice(&(1_048_576u32).to_be_bytes());
        stream.extend_from_slice(b"payload bytes that must not be consumed");
        let mut cursor = std::io::Cursor::new(stream);
        let reader = FrameReader::new(1024);
        match reader.read(&mut cursor).unwrap() {
            ReadFrame::Oversized {
                msg_type,
                corr,
                declared,
            } => {
                assert_eq!(msg_type, 7);
                assert_eq!(corr, 0xDEAD_BEEF);
                assert_eq!(declared, 1_048_576);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert_eq!(
            cursor.position() as usize,
            HEADER_LEN,
            "no payload byte may be consumed after an oversized header"
        );
    }

    #[test]
    fn huge_declared_length_does_not_preallocate() {
        // Declared length is just under the default ceiling, but only 3
        // payload bytes actually arrive: the read must fail with a wire
        // error after consuming what exists, not allocate ~1 GiB up front.
        let mut stream = Vec::new();
        stream.extend_from_slice(&MAGIC);
        stream.push(VERSION);
        stream.push(1);
        stream.extend_from_slice(&0u64.to_be_bytes());
        stream.extend_from_slice(&((MAX_PAYLOAD_LEN as u32) - 1).to_be_bytes());
        stream.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(stream);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn frame_reader_ceiling_is_clamped() {
        assert_eq!(FrameReader::new(usize::MAX).max_payload(), MAX_PAYLOAD_LEN);
        assert_eq!(FrameReader::new(10).max_payload(), 10);
        assert_eq!(FrameReader::default().max_payload(), MAX_PAYLOAD_LEN);
    }
}
