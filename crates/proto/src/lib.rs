//! # pds-proto
//!
//! The **byte-accurate owner↔cloud wire protocol** plus an **event-driven
//! network simulator**.
//!
//! Until this crate existed, every `bytes_uploaded` / `bytes_downloaded`
//! number in the workspace was an *estimate* (`Value::size_bytes` sums) —
//! the serde derives are no-ops and nothing ever serialised.  `pds-proto`
//! closes that gap:
//!
//! * [`frame`] — a versioned, length-delimited, CRC-checked frame layout.
//!   Decoding is total: truncated or corrupted input yields
//!   `Err(PdsError::Wire(..))`, never a panic.
//! * [`messages`] — the typed protocol messages ([`FetchBinRequest`],
//!   [`BinPairRequest`], [`BinPayload`], [`InsertRequest`], [`Ack`],
//!   [`ErrorFrame`], plus an [`WireMessage::Opaque`] escape hatch for
//!   engine-specific token sets).  `pds-cloud` encodes the *actual* traffic
//!   of every owner↔cloud interaction through these and charges the
//!   encoded frame lengths to its metrics, so bytes moved are measured off
//!   the wire.  The payload writers run over a `pds_common::ByteSink`, so
//!   the same code that encodes a frame also sizes it from borrowed parts
//!   ([`fetch_bin_request_len`], [`bin_pair_request_len`],
//!   [`tuples_and_rows_len`]) without building or encoding it.
//! * [`pool`] — a thread-local reusable buffer pool backing both codec
//!   directions, so steady-state wire traffic allocates nothing per frame
//!   (reuse counters feed the `pds_wire_buf_reuse_total` metrics).
//! * [`netsim`] — a deterministic discrete-event simulator over per-shard
//!   FIFO links.  Round trips on different links overlap on one virtual
//!   clock, so the reported makespan shows per-shard latency genuinely
//!   overlapping (`pds_cloud::BinTransport::Simulated` and the
//!   `experiments wire` sweep are built on it).
//!
//! Layering: this crate depends only on `pds-common` (values, errors) and
//! `pds-storage` (tuples).  Ciphertexts travel as opaque byte strings
//! ([`WireRow`]), so no crypto types leak into the protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod messages;
pub mod netsim;
pub mod pool;

pub use frame::{
    crc32, decode_frame, decode_frame_corr, encode_frame, encode_frame_corr, encoded_len,
    read_frame, FrameReader, ReadFrame, FRAME_OVERHEAD, HEADER_LEN, MAX_PAYLOAD_LEN, TRAILER_LEN,
    VERSION,
};
pub use messages::{
    bin_pair_request_len, error_frame, fetch_bin_request_len, msg_tag, tuples_and_rows_len, Ack,
    BinPairRequest, BinPayload, ErrorFrame, FetchBinRequest, Hello, InsertRequest, WireMessage,
    WireRow, WireRowRef, PREDICATE_DEPTH_CAP,
};
pub use netsim::{LinkSpec, NetSim, RoundTrip, SimReport};
pub use pool::{pool_stats, thread_pool_stats, PoolStats, PooledBuf};
