//! The typed owner↔cloud messages carried inside wire frames.
//!
//! Each variant of [`WireMessage`] has a stable one-byte type tag and a
//! self-delimiting payload encoding built from four primitives: `u8`,
//! big-endian `u32`/`u64`, and length-prefixed byte strings.  Attribute
//! values reuse [`Value::encode`]'s injective tagged encoding and tuples
//! reuse [`Tuple::encode`], so the wire format is exactly the byte form the
//! rest of the workspace already encrypts and hashes.
//!
//! Decoding is total: every read is bounds-checked and malformed payloads
//! yield `Err(PdsError::Wire(..))`, never a panic.  The frame layer's CRC
//! already rejects corrupted-in-flight bytes; the payload decoders defend
//! against malformed-but-checksummed input (a buggy or malicious peer).

use pds_common::{AttrId, ByteCounter, ByteSink, PdsError, Result, Value};
use pds_storage::{Predicate, Tuple};

use crate::frame::{
    be_u32, be_u64, begin_frame, check_payload_len, decode_frame_corr, encoded_len, finish_frame,
};
use crate::pool::{self, PooledBuf};

/// One encrypted row as it travels over the wire.
///
/// Ciphertexts are opaque byte strings at this layer — `pds-cloud` converts
/// its `EncryptedRow` (whose fields are `pds_crypto::Ciphertext`) to and
/// from this struct, keeping the protocol crate free of crypto types.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireRow {
    /// Storage address / tuple id.
    pub id: u64,
    /// Ciphertext of the searchable attribute value (may be empty when the
    /// message only carries full-tuple ciphertexts, and vice versa).
    pub attr_ct: Vec<u8>,
    /// Ciphertext of the full tuple.
    pub tuple_ct: Vec<u8>,
    /// Cloud-side searchable tags.
    pub search_tags: Vec<Vec<u8>>,
}

impl WireRow {
    /// A borrowed view of this row, as the payload writers take it.
    pub fn as_row_ref(&self) -> WireRowRef<'_> {
        WireRowRef {
            id: self.id,
            attr_ct: &self.attr_ct,
            tuple_ct: &self.tuple_ct,
            search_tags: &self.search_tags,
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self> {
        let id = r.u64()?;
        let attr_ct = r.bytes()?.to_vec();
        let tuple_ct = r.bytes()?.to_vec();
        let tag_count = r.u32()? as usize;
        let mut search_tags = Vec::with_capacity(tag_count.min(PREALLOC_CAP));
        for _ in 0..tag_count {
            search_tags.push(r.bytes()?.to_vec());
        }
        Ok(WireRow {
            id,
            attr_ct,
            tuple_ct,
            search_tags,
        })
    }
}

/// A [`WireRow`] whose ciphertexts are borrowed: what the cloud writes or
/// sizes straight from its store, without copying a ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireRowRef<'a> {
    /// Storage address / tuple id.
    pub id: u64,
    /// Ciphertext of the searchable attribute value (may be empty).
    pub attr_ct: &'a [u8],
    /// Ciphertext of the full tuple (may be empty).
    pub tuple_ct: &'a [u8],
    /// Cloud-side searchable tags.
    pub search_tags: &'a [Vec<u8>],
}

impl WireRowRef<'_> {
    /// A row carrying only a full-tuple ciphertext — the form every
    /// retrieval response uses.
    pub fn tuple_ct(id: u64, tuple_ct: &[u8]) -> WireRowRef<'_> {
        WireRowRef {
            id,
            tuple_ct,
            ..WireRowRef::default()
        }
    }

    /// Copies the borrowed fields into an owned [`WireRow`].
    pub fn to_wire_row(&self) -> WireRow {
        WireRow {
            id: self.id,
            attr_ct: self.attr_ct.to_vec(),
            tuple_ct: self.tuple_ct.to_vec(),
            search_tags: self.search_tags.to_vec(),
        }
    }

    fn write<S: ByteSink>(&self, out: &mut S) {
        out.put_u64(self.id);
        out.put_bytes(self.attr_ct);
        out.put_bytes(self.tuple_ct);
        out.put_u32(self.search_tags.len() as u32);
        for tag in self.search_tags {
            out.put_bytes(tag);
        }
    }
}

/// Owner → cloud: fetch tuples by clear-text values, by storage address,
/// and/or by opaque searchable tags (the three retrieval flavours the
/// simulated cloud serves).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FetchBinRequest {
    /// Clear-text values of one non-sensitive bin (`IN` selection).
    pub values: Vec<Value>,
    /// Storage addresses of encrypted tuples to return.
    pub ids: Vec<u64>,
    /// Opaque searchable tags (deterministic tags / Arx counter tokens).
    pub tags: Vec<Vec<u8>>,
    /// Optional residual predicate pushed below the bin fetch: the cloud
    /// evaluates it on the *clear-text* (non-sensitive) result stream before
    /// the downlink, so non-matching tuples never travel.  The owner must
    /// only place predicates over non-sensitive, non-searchable attributes
    /// here — anything else would leak plaintext structure on the wire.
    pub predicate: Option<Predicate>,
}

/// Owner → cloud: one whole Query Binning episode as a single message —
/// the encrypted tokens of the sensitive bin plus the clear-text values of
/// the non-sensitive bin.  This is the composed single-round-trip form of
/// the protocol; the simulator's live path uses the finer-grained messages
/// (its §V-B back-ends are multi-round by construction), and
/// `benches/wire_overhead.rs` compares the two encodings.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BinPairRequest {
    /// Index of the sensitive bin being retrieved.
    pub sensitive_bin: u32,
    /// Index of the non-sensitive bin being retrieved.
    pub nonsensitive_bin: u32,
    /// Encrypted search tokens, one per value of the sensitive bin.
    pub encrypted_values: Vec<Vec<u8>>,
    /// Clear-text values of the non-sensitive bin.
    pub nonsensitive_values: Vec<Value>,
    /// Optional residual predicate applied to the clear-text non-sensitive
    /// result stream cloud-side (see [`FetchBinRequest::predicate`]).  The
    /// encrypted sensitive stream is never filtered by it.
    pub predicate: Option<Predicate>,
}

/// Cloud → owner: the result stream of a retrieval — clear-text tuples from
/// the non-sensitive side and/or encrypted rows from the sensitive side.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BinPayload {
    /// Clear-text matching tuples.
    pub plain_tuples: Vec<Tuple>,
    /// Encrypted rows (ciphertexts opaque at this layer).
    pub encrypted_rows: Vec<WireRow>,
}

/// Owner → cloud: outsource clear-text tuples and/or encrypted rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InsertRequest {
    /// Clear-text tuples of the non-sensitive relation.
    pub plain_tuples: Vec<Tuple>,
    /// Encrypted rows of the sensitive relation.
    pub encrypted_rows: Vec<WireRow>,
}

/// Cloud → owner: positive acknowledgement, carrying the number of items
/// the request affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ack {
    /// Items (tuples, rows, tokens) the acknowledged request covered.
    pub items: u64,
}

/// Either direction: a transported error (the wire form of [`PdsError`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ErrorFrame {
    /// Machine-readable category (mirrors [`PdsError::category`]).
    pub category: String,
    /// Human-readable message.
    pub message: String,
}

impl ErrorFrame {
    /// Converts the transported error back into a typed [`PdsError`],
    /// inverting [`error_frame`] (unknown categories become `Wire` errors).
    pub fn into_error(self) -> PdsError {
        match self.category.as_str() {
            "schema" => PdsError::Schema(self.message),
            "query" => PdsError::Query(self.message),
            "crypto" => PdsError::Crypto(self.message),
            "binning" => PdsError::Binning(self.message),
            "cloud" => PdsError::Cloud(self.message),
            "security" => PdsError::Security(self.message),
            "config" => PdsError::Config(self.message),
            _ => PdsError::Wire(self.message),
        }
    }
}

/// Owner → cloud: the first message of every service connection — names the
/// tenant whose keyspace and bin namespace the connection operates in.  The
/// daemon validates the tenant and echoes the `Hello` back; any other first
/// message (or an unknown tenant) is answered with a typed `Error` frame
/// and a closed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hello {
    /// Tenant identifier (one per concurrent `DbOwner`).
    pub tenant: u64,
}

/// The stable one-byte type tags of the wire protocol, as module-level
/// constants so metrics layers can index per-type counters without having a
/// message instance at hand.
pub mod msg_tag {
    /// [`super::FetchBinRequest`].
    pub const FETCH_BIN_REQUEST: u8 = 1;
    /// [`super::BinPairRequest`].
    pub const BIN_PAIR_REQUEST: u8 = 2;
    /// [`super::BinPayload`].
    pub const BIN_PAYLOAD: u8 = 3;
    /// [`super::InsertRequest`].
    pub const INSERT_REQUEST: u8 = 4;
    /// [`super::Ack`].
    pub const ACK: u8 = 5;
    /// [`super::ErrorFrame`].
    pub const ERROR: u8 = 6;
    /// [`super::WireMessage::Opaque`].
    pub const OPAQUE: u8 = 7;
    /// [`super::Hello`].
    pub const HELLO: u8 = 8;
    /// [`super::WireMessage::StatsRequest`].
    pub const STATS_REQUEST: u8 = 9;
    /// [`super::WireMessage::StatsSnapshot`].
    pub const STATS_SNAPSHOT: u8 = 10;
    /// Number of distinct message types (tags are `1..=COUNT`).
    pub const COUNT: usize = 10;

    /// Short human-readable name of a type tag (for experiment output).
    pub fn name(tag: u8) -> &'static str {
        match tag {
            FETCH_BIN_REQUEST => "FetchBinRequest",
            BIN_PAIR_REQUEST => "BinPairRequest",
            BIN_PAYLOAD => "BinPayload",
            INSERT_REQUEST => "InsertRequest",
            ACK => "Ack",
            ERROR => "Error",
            OPAQUE => "Opaque",
            HELLO => "Hello",
            STATS_REQUEST => "StatsRequest",
            STATS_SNAPSHOT => "StatsSnapshot",
            _ => "unknown",
        }
    }
}

/// Every message of the owner↔cloud protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// Fetch by values / addresses / tags.
    FetchBinRequest(FetchBinRequest),
    /// One composed QB episode request.
    BinPairRequest(BinPairRequest),
    /// Result stream of a retrieval.
    BinPayload(BinPayload),
    /// Outsourcing upload.
    InsertRequest(InsertRequest),
    /// Positive acknowledgement.
    Ack(Ack),
    /// Transported error.
    Error(ErrorFrame),
    /// An opaque body whose structure the protocol does not interpret
    /// (engine-specific token sets such as DPF key shares; the frame still
    /// contributes its real length to the byte accounting).
    Opaque(Vec<u8>),
    /// Tenant handshake (first message of every service connection).
    Hello(Hello),
    /// Ask the shard daemon for a metrics snapshot scoped to the
    /// connection's tenant (own series plus global shard health).
    StatsRequest,
    /// Prometheus-text-format metrics snapshot answering a
    /// [`WireMessage::StatsRequest`].
    StatsSnapshot(String),
}

impl WireMessage {
    /// The one-byte frame tag of this message type.
    pub fn msg_type(&self) -> u8 {
        match self {
            WireMessage::FetchBinRequest(_) => msg_tag::FETCH_BIN_REQUEST,
            WireMessage::BinPairRequest(_) => msg_tag::BIN_PAIR_REQUEST,
            WireMessage::BinPayload(_) => msg_tag::BIN_PAYLOAD,
            WireMessage::InsertRequest(_) => msg_tag::INSERT_REQUEST,
            WireMessage::Ack(_) => msg_tag::ACK,
            WireMessage::Error(_) => msg_tag::ERROR,
            WireMessage::Opaque(_) => msg_tag::OPAQUE,
            WireMessage::Hello(_) => msg_tag::HELLO,
            WireMessage::StatsRequest => msg_tag::STATS_REQUEST,
            WireMessage::StatsSnapshot(_) => msg_tag::STATS_SNAPSHOT,
        }
    }

    /// Short human-readable name of this message type.
    pub fn name(&self) -> &'static str {
        match self {
            WireMessage::FetchBinRequest(_) => "FetchBinRequest",
            WireMessage::BinPairRequest(_) => "BinPairRequest",
            WireMessage::BinPayload(_) => "BinPayload",
            WireMessage::InsertRequest(_) => "InsertRequest",
            WireMessage::Ack(_) => "Ack",
            WireMessage::Error(_) => "Error",
            WireMessage::Opaque(_) => "Opaque",
            WireMessage::Hello(_) => "Hello",
            WireMessage::StatsRequest => "StatsRequest",
            WireMessage::StatsSnapshot(_) => "StatsSnapshot",
        }
    }

    /// Encodes the message into one complete wire frame
    /// (header + payload + CRC trailer) with correlation id 0, in a `Vec`
    /// of its own: the buffer pool is left alone, since the caller keeps
    /// the bytes.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut frame = Vec::new();
        self.write_frame(&mut frame, 0)?;
        Ok(frame)
    }

    /// Encodes the message into one complete wire frame carrying `corr`,
    /// in a pooled buffer: header, payload, and trailer are written into a
    /// single recycled `Vec`, so a warm thread encodes a frame with zero
    /// allocations.  Dropping the returned buffer (e.g. after the bytes
    /// are on the socket) returns it to the pool.
    pub fn encode_framed(&self, corr: u64) -> Result<PooledBuf> {
        let mut frame = pool::take_buf();
        self.write_frame(&mut frame, corr)?;
        Ok(frame)
    }

    fn write_frame(&self, frame: &mut Vec<u8>, corr: u64) -> Result<()> {
        let _span = pds_obs::obs_span("frame.encode");
        begin_frame(frame, self.msg_type(), corr);
        self.write_payload(frame)?;
        finish_frame(frame)
    }

    /// The exact encoded frame length of this message — what
    /// [`Self::encode`] would return the length of, errors included —
    /// computed by running the payload writer into a [`ByteCounter`].
    pub fn encoded_len(&self) -> Result<usize> {
        let mut count = ByteCounter::default();
        self.write_payload(&mut count)?;
        check_payload_len(count.0)?;
        Ok(encoded_len(count.0))
    }

    /// Writes this message's payload encoding into `out`: after the frame
    /// header when encoding, into a [`ByteCounter`] when sizing.
    fn write_payload<S: ByteSink>(&self, out: &mut S) -> Result<()> {
        match self {
            WireMessage::FetchBinRequest(m) => write_fetch_bin(
                out,
                &m.values,
                m.ids.iter().copied(),
                &m.tags,
                m.predicate.as_ref(),
            )?,
            WireMessage::BinPairRequest(m) => write_bin_pair(out, m)?,
            WireMessage::BinPayload(BinPayload {
                plain_tuples,
                encrypted_rows,
            })
            | WireMessage::InsertRequest(InsertRequest {
                plain_tuples,
                encrypted_rows,
            }) => write_tuples_and_rows(
                out,
                plain_tuples,
                encrypted_rows.iter().map(WireRow::as_row_ref),
            ),
            WireMessage::Ack(m) => out.put_u64(m.items),
            WireMessage::Error(m) => {
                out.put_bytes(m.category.as_bytes());
                out.put_bytes(m.message.as_bytes());
            }
            WireMessage::Opaque(body) => out.put(body),
            WireMessage::Hello(m) => out.put_u64(m.tenant),
            WireMessage::StatsRequest => {}
            WireMessage::StatsSnapshot(text) => out.put_bytes(text.as_bytes()),
        }
        Ok(())
    }

    /// Decodes one complete wire frame back into a message, discarding the
    /// correlation id (lock-step callers pair request and response by
    /// position, so the id is redundant for them).
    pub fn decode(frame: &[u8]) -> Result<WireMessage> {
        Self::decode_corr(frame).map(|(_, msg)| msg)
    }

    /// Decodes one complete wire frame back into a message plus the
    /// correlation id its header carried (0 for legacy v1 frames).
    pub fn decode_corr(frame: &[u8]) -> Result<(u64, WireMessage)> {
        let (msg_type, corr, payload) = decode_frame_corr(frame)?;
        let mut r = Reader::new(payload);
        let msg = match msg_type {
            1 => {
                let value_count = r.u32()? as usize;
                let mut values = Vec::with_capacity(value_count.min(PREALLOC_CAP));
                for _ in 0..value_count {
                    values.push(r.value()?);
                }
                let id_count = r.u32()? as usize;
                let mut ids = Vec::with_capacity(id_count.min(PREALLOC_CAP));
                for _ in 0..id_count {
                    ids.push(r.u64()?);
                }
                let tag_count = r.u32()? as usize;
                let mut tags = Vec::with_capacity(tag_count.min(PREALLOC_CAP));
                for _ in 0..tag_count {
                    tags.push(r.bytes()?.to_vec());
                }
                let predicate = read_opt_predicate(&mut r)?;
                WireMessage::FetchBinRequest(FetchBinRequest {
                    values,
                    ids,
                    tags,
                    predicate,
                })
            }
            2 => {
                let sensitive_bin = r.u32()?;
                let nonsensitive_bin = r.u32()?;
                let ev_count = r.u32()? as usize;
                let mut encrypted_values = Vec::with_capacity(ev_count.min(PREALLOC_CAP));
                for _ in 0..ev_count {
                    encrypted_values.push(r.bytes()?.to_vec());
                }
                let v_count = r.u32()? as usize;
                let mut nonsensitive_values = Vec::with_capacity(v_count.min(PREALLOC_CAP));
                for _ in 0..v_count {
                    nonsensitive_values.push(r.value()?);
                }
                let predicate = read_opt_predicate(&mut r)?;
                WireMessage::BinPairRequest(BinPairRequest {
                    sensitive_bin,
                    nonsensitive_bin,
                    encrypted_values,
                    nonsensitive_values,
                    predicate,
                })
            }
            3 => {
                let (plain_tuples, encrypted_rows) = read_tuples_and_rows(&mut r)?;
                WireMessage::BinPayload(BinPayload {
                    plain_tuples,
                    encrypted_rows,
                })
            }
            4 => {
                let (plain_tuples, encrypted_rows) = read_tuples_and_rows(&mut r)?;
                WireMessage::InsertRequest(InsertRequest {
                    plain_tuples,
                    encrypted_rows,
                })
            }
            5 => WireMessage::Ack(Ack { items: r.u64()? }),
            6 => {
                let category = r.string()?;
                let message = r.string()?;
                WireMessage::Error(ErrorFrame { category, message })
            }
            7 => WireMessage::Opaque(r.rest().to_vec()),
            8 => WireMessage::Hello(Hello { tenant: r.u64()? }),
            9 => WireMessage::StatsRequest,
            10 => WireMessage::StatsSnapshot(r.string()?),
            other => {
                return Err(PdsError::Wire(format!("unknown message type tag {other}")));
            }
        };
        r.finish()?;
        Ok((corr, msg))
    }
}

/// Builds the wire form of a [`PdsError`].
pub fn error_frame(err: &PdsError) -> ErrorFrame {
    ErrorFrame {
        category: err.category().to_string(),
        message: err.message().to_string(),
    }
}

// Frame lengths from borrowed parts.  Each runs the payload writer that
// encodes the message into a `ByteCounter`, so it equals the length of the
// built message's encoding by construction.  Unlike `WireMessage::encoded_len`
// they do not refuse payloads above `MAX_PAYLOAD_LEN`: they size what would
// travel, and only an over-deep predicate is an error.

/// The frame length of a [`FetchBinRequest`] with these fields, computed
/// without building or encoding it.
pub fn fetch_bin_request_len(
    values: &[Value],
    ids: impl ExactSizeIterator<Item = u64>,
    tags: &[Vec<u8>],
    predicate: Option<&Predicate>,
) -> Result<usize> {
    let mut count = ByteCounter::default();
    write_fetch_bin(&mut count, values, ids, tags, predicate)?;
    Ok(encoded_len(count.0))
}

/// The frame length of `request`, computed without encoding it.
pub fn bin_pair_request_len(request: &BinPairRequest) -> Result<usize> {
    let mut count = ByteCounter::default();
    write_bin_pair(&mut count, request)?;
    Ok(encoded_len(count.0))
}

/// The frame length of a [`BinPayload`] or an [`InsertRequest`] (the two
/// share a layout) carrying `tuples` and `rows`, computed without building
/// or encoding the message.
pub fn tuples_and_rows_len<'a>(
    tuples: &[Tuple],
    rows: impl ExactSizeIterator<Item = WireRowRef<'a>>,
) -> usize {
    let mut count = ByteCounter::default();
    write_tuples_and_rows(&mut count, tuples, rows);
    encoded_len(count.0)
}

fn write_fetch_bin<S: ByteSink>(
    out: &mut S,
    values: &[Value],
    ids: impl ExactSizeIterator<Item = u64>,
    tags: &[Vec<u8>],
    predicate: Option<&Predicate>,
) -> Result<()> {
    write_values(out, values);
    out.put_u32(ids.len() as u32);
    for id in ids {
        out.put_u64(id);
    }
    write_blobs(out, tags);
    write_opt_predicate(out, predicate)
}

fn write_bin_pair<S: ByteSink>(out: &mut S, m: &BinPairRequest) -> Result<()> {
    out.put_u32(m.sensitive_bin);
    out.put_u32(m.nonsensitive_bin);
    write_blobs(out, &m.encrypted_values);
    write_values(out, &m.nonsensitive_values);
    write_opt_predicate(out, m.predicate.as_ref())
}

fn write_tuples_and_rows<'a, S: ByteSink>(
    out: &mut S,
    tuples: &[Tuple],
    rows: impl ExactSizeIterator<Item = WireRowRef<'a>>,
) {
    out.put_u32(tuples.len() as u32);
    for t in tuples {
        out.put_len_prefixed(|out| t.encode_into(out));
    }
    out.put_u32(rows.len() as u32);
    for row in rows {
        row.write(out);
    }
}

/// A count followed by each value's length-prefixed encoding.
fn write_values<S: ByteSink>(out: &mut S, values: &[Value]) {
    out.put_u32(values.len() as u32);
    for v in values {
        write_value(out, v);
    }
}

fn write_value<S: ByteSink>(out: &mut S, v: &Value) {
    out.put_len_prefixed(|out| v.encode_into(out));
}

/// A count followed by each length-prefixed byte string.
fn write_blobs<S: ByteSink>(out: &mut S, blobs: &[Vec<u8>]) {
    out.put_u32(blobs.len() as u32);
    for b in blobs {
        out.put_bytes(b);
    }
}

fn read_tuples_and_rows(r: &mut Reader<'_>) -> Result<(Vec<Tuple>, Vec<WireRow>)> {
    let tuple_count = r.u32()? as usize;
    let mut plain_tuples = Vec::with_capacity(tuple_count.min(PREALLOC_CAP));
    for _ in 0..tuple_count {
        plain_tuples.push(r.tuple()?);
    }
    let row_count = r.u32()? as usize;
    let mut encrypted_rows = Vec::with_capacity(row_count.min(PREALLOC_CAP));
    for _ in 0..row_count {
        encrypted_rows.push(WireRow::read(r)?);
    }
    Ok((plain_tuples, encrypted_rows))
}

/// Cap on speculative `Vec::with_capacity` from untrusted count fields: a
/// forged count cannot force a large allocation before its items fail to
/// parse.
const PREALLOC_CAP: usize = 1024;

/// Maximum nesting depth of a wire predicate, bounding decode recursion
/// against adversarial deeply-nested `Not(Not(Not(..)))` payloads.  The
/// same cap is enforced on encode so both directions agree on what is
/// representable.
pub const PREDICATE_DEPTH_CAP: usize = 16;

/// One-byte structure tags of the predicate encoding (distinct from the
/// frame-level `msg_tag`s; these only appear inside a request payload).
mod pred_tag {
    pub const EQ: u8 = 1;
    pub const IN_SET: u8 = 2;
    pub const RANGE: u8 = 3;
    pub const AND: u8 = 4;
    pub const OR: u8 = 5;
    pub const NOT: u8 = 6;
    pub const TRUE: u8 = 7;
}

/// Writes an `Option<Predicate>` as a presence byte plus, when present, the
/// recursive tagged encoding.  Predicates travel in clear by design — they
/// may only reference non-sensitive attributes (the planner enforces this
/// owner-side; `pds-analyze`'s egress lint watches the call sites).
pub fn write_opt_predicate<S: ByteSink>(out: &mut S, p: Option<&Predicate>) -> Result<()> {
    match p {
        None => {
            out.put_u8(0);
            Ok(())
        }
        Some(p) => {
            out.put_u8(1);
            write_predicate(out, p, 0)
        }
    }
}

fn write_predicate<S: ByteSink>(out: &mut S, p: &Predicate, depth: usize) -> Result<()> {
    if depth >= PREDICATE_DEPTH_CAP {
        return Err(PdsError::Wire(format!(
            "predicate nesting exceeds the wire depth cap of {PREDICATE_DEPTH_CAP}"
        )));
    }
    match p {
        Predicate::Eq { attr, value } => {
            out.put_u8(pred_tag::EQ);
            out.put_u64(attr.raw());
            write_value(out, value);
        }
        Predicate::InSet { attr, values } => {
            out.put_u8(pred_tag::IN_SET);
            out.put_u64(attr.raw());
            write_values(out, values);
        }
        Predicate::Range { attr, lo, hi } => {
            out.put_u8(pred_tag::RANGE);
            out.put_u64(attr.raw());
            write_value(out, lo);
            write_value(out, hi);
        }
        Predicate::And(ps) | Predicate::Or(ps) => {
            out.put_u8(if matches!(p, Predicate::And(_)) {
                pred_tag::AND
            } else {
                pred_tag::OR
            });
            out.put_u32(ps.len() as u32);
            for child in ps {
                write_predicate(out, child, depth + 1)?;
            }
        }
        Predicate::Not(child) => {
            out.put_u8(pred_tag::NOT);
            write_predicate(out, child, depth + 1)?;
        }
        Predicate::True => out.put_u8(pred_tag::TRUE),
    }
    Ok(())
}

fn read_opt_predicate(r: &mut Reader<'_>) -> Result<Option<Predicate>> {
    match r.take(1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(read_predicate(r, 0)?)),
        other => Err(PdsError::Wire(format!(
            "invalid predicate presence byte {other}"
        ))),
    }
}

fn read_predicate(r: &mut Reader<'_>, depth: usize) -> Result<Predicate> {
    if depth >= PREDICATE_DEPTH_CAP {
        return Err(PdsError::Wire(format!(
            "predicate nesting exceeds the wire depth cap of {PREDICATE_DEPTH_CAP}"
        )));
    }
    let tag = r.take(1)?[0];
    match tag {
        pred_tag::EQ => Ok(Predicate::Eq {
            attr: AttrId::new(r.u64()?),
            value: r.value()?,
        }),
        pred_tag::IN_SET => {
            let attr = AttrId::new(r.u64()?);
            let count = r.u32()? as usize;
            let mut values = Vec::with_capacity(count.min(PREALLOC_CAP));
            for _ in 0..count {
                values.push(r.value()?);
            }
            Ok(Predicate::InSet { attr, values })
        }
        pred_tag::RANGE => Ok(Predicate::Range {
            attr: AttrId::new(r.u64()?),
            lo: r.value()?,
            hi: r.value()?,
        }),
        pred_tag::AND | pred_tag::OR => {
            let count = r.u32()? as usize;
            let mut children = Vec::with_capacity(count.min(PREALLOC_CAP));
            for _ in 0..count {
                children.push(read_predicate(r, depth + 1)?);
            }
            Ok(if tag == pred_tag::AND {
                Predicate::And(children)
            } else {
                Predicate::Or(children)
            })
        }
        pred_tag::NOT => Ok(Predicate::Not(Box::new(read_predicate(r, depth + 1)?))),
        pred_tag::TRUE => Ok(Predicate::True),
        other => Err(PdsError::Wire(format!(
            "unknown predicate structure tag {other}"
        ))),
    }
}

/// Bounds-checked sequential reader over a message payload.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| PdsError::Wire("message payload length overflows".into()))?;
        if end > self.data.len() {
            return Err(PdsError::Wire(format!(
                "message payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(be_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(be_u64(self.take(8)?))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| PdsError::Wire("string field is not valid UTF-8".into()))
    }

    fn value(&mut self) -> Result<Value> {
        let raw = self.bytes()?;
        Value::decode(raw).ok_or_else(|| PdsError::Wire("malformed value encoding".into()))
    }

    fn tuple(&mut self) -> Result<Tuple> {
        let raw = self.bytes()?;
        Tuple::decode(raw).ok_or_else(|| PdsError::Wire("malformed tuple encoding".into()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.data[self.pos..];
        self.pos = self.data.len();
        out
    }

    /// Rejects trailing bytes: every payload must be consumed exactly.
    fn finish(self) -> Result<()> {
        if self.pos != self.data.len() {
            return Err(PdsError::Wire(format!(
                "{} unconsumed trailing bytes in message payload",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::TupleId;

    fn sample_tuple(id: u64) -> Tuple {
        Tuple::new(
            TupleId::new(id),
            vec![Value::from("E259"), Value::Int(6), Value::Bool(true)],
        )
    }

    fn sample_predicate() -> Predicate {
        Predicate::And(vec![
            Predicate::Range {
                attr: AttrId::new(2),
                lo: Value::Int(1),
                hi: Value::Int(4),
            },
            Predicate::Not(Box::new(Predicate::Eq {
                attr: AttrId::new(3),
                value: Value::from("closed"),
            })),
            Predicate::Or(vec![
                Predicate::InSet {
                    attr: AttrId::new(4),
                    values: vec![Value::Bool(true), Value::Null],
                },
                Predicate::True,
            ]),
        ])
    }

    fn sample_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::FetchBinRequest(FetchBinRequest {
                values: vec![Value::from("E259"), Value::Int(-4), Value::Null],
                ids: vec![0, u64::MAX],
                tags: vec![vec![], vec![1, 2, 3]],
                predicate: Some(sample_predicate()),
            }),
            WireMessage::BinPairRequest(BinPairRequest {
                sensitive_bin: 3,
                nonsensitive_bin: 7,
                encrypted_values: vec![vec![9; 48], vec![]],
                nonsensitive_values: vec![Value::from("E101")],
                predicate: None,
            }),
            WireMessage::BinPayload(BinPayload {
                plain_tuples: vec![sample_tuple(1), sample_tuple(2)],
                encrypted_rows: vec![WireRow {
                    id: 42,
                    attr_ct: vec![1; 37],
                    tuple_ct: vec![2; 90],
                    search_tags: vec![vec![3; 16]],
                }],
            }),
            WireMessage::InsertRequest(InsertRequest {
                plain_tuples: vec![sample_tuple(9)],
                encrypted_rows: vec![WireRow::default()],
            }),
            WireMessage::Ack(Ack { items: 12 }),
            WireMessage::Error(error_frame(&PdsError::Cloud("no such shard".into()))),
            WireMessage::Opaque(vec![0xAB; 33]),
            WireMessage::Hello(Hello { tenant: u64::MAX }),
            WireMessage::StatsRequest,
            WireMessage::StatsSnapshot(
                "# TYPE pds_requests_total counter\npds_requests_total{tenant=\"1\"} 4\n"
                    .to_string(),
            ),
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let frame = msg.encode().unwrap();
            let back = WireMessage::decode(&frame).unwrap();
            assert_eq!(back, msg, "{} roundtrip", msg.name());
            assert_eq!(frame.len(), msg.encoded_len().unwrap());
        }
    }

    #[test]
    fn correlated_encode_roundtrips_and_matches_uncorrelated_payload() {
        for (i, msg) in sample_messages().into_iter().enumerate() {
            let corr = (i as u64) * 7 + 1;
            let framed = msg.encode_framed(corr).unwrap();
            let (got_corr, back) = WireMessage::decode_corr(&framed).unwrap();
            assert_eq!(got_corr, corr, "{} correlation id", msg.name());
            assert_eq!(back, msg, "{} roundtrip", msg.name());
            // The correlation id lives in the header only: the payload (and
            // total length) are identical to the uncorrelated encoding.
            assert_eq!(framed.len(), msg.encode().unwrap().len());
        }
    }

    #[test]
    fn message_types_are_distinct() {
        let mut tags: Vec<u8> = sample_messages()
            .iter()
            .map(WireMessage::msg_type)
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), sample_messages().len());
    }

    #[test]
    fn unknown_type_tag_is_an_error() {
        let frame = crate::frame::encode_frame(200, b"").unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn trailing_payload_bytes_are_an_error() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_be_bytes());
        payload.push(0); // one byte too many for an Ack
        let frame = crate::frame::encode_frame(5, &payload).unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn forged_count_fields_fail_without_large_allocs() {
        // An Ack-sized payload relabelled as a BinPayload with a huge tuple
        // count: the first item read fails, no allocation explosion.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        let frame = crate::frame::encode_frame(3, &payload).unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn error_frame_mirrors_pds_error() {
        let ef = error_frame(&PdsError::Query("bad bin".into()));
        assert_eq!(ef.category, "query");
        assert_eq!(ef.message, "bad bin");
    }

    #[test]
    fn error_frame_into_error_inverts_every_category() {
        for err in [
            PdsError::Schema("a".into()),
            PdsError::Query("b".into()),
            PdsError::Crypto("c".into()),
            PdsError::Binning("d".into()),
            PdsError::Cloud("e".into()),
            PdsError::Security("f".into()),
            PdsError::Config("g".into()),
            PdsError::Wire("h".into()),
        ] {
            let back = error_frame(&err).into_error();
            assert_eq!(back.category(), err.category());
            assert_eq!(back.message(), err.message());
        }
        // Unknown categories degrade to Wire rather than panicking.
        let odd = ErrorFrame {
            category: "martian".into(),
            message: "m".into(),
        };
        assert_eq!(odd.into_error().category(), "wire");
    }

    #[test]
    fn predicate_roundtrips_on_both_request_types() {
        let deep = Predicate::Not(Box::new(sample_predicate()));
        for msg in [
            WireMessage::FetchBinRequest(FetchBinRequest {
                values: vec![Value::from("a")],
                predicate: Some(deep.clone()),
                ..FetchBinRequest::default()
            }),
            WireMessage::BinPairRequest(BinPairRequest {
                sensitive_bin: 1,
                nonsensitive_bin: 2,
                predicate: Some(deep.clone()),
                ..BinPairRequest::default()
            }),
        ] {
            let frame = msg.encode().unwrap();
            assert_eq!(WireMessage::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn predicate_depth_cap_rejects_towers_both_ways() {
        // A Not-tower deeper than the cap must fail to encode...
        let mut tower = Predicate::True;
        for _ in 0..(PREDICATE_DEPTH_CAP + 1) {
            tower = Predicate::Not(Box::new(tower));
        }
        let msg = WireMessage::FetchBinRequest(FetchBinRequest {
            predicate: Some(tower),
            ..FetchBinRequest::default()
        });
        assert!(msg.encode().is_err());

        // ...and a hand-forged payload of NOT tags must fail to decode
        // before recursing past the cap.
        let mut payload = Vec::new();
        payload.put_u32(0); // values
        payload.put_u32(0); // ids
        payload.put_u32(0); // tags
        payload.push(1); // predicate present
        payload.extend(std::iter::repeat(pred_tag::NOT).take(64));
        payload.push(pred_tag::TRUE);
        let frame = crate::frame::encode_frame(msg_tag::FETCH_BIN_REQUEST, &payload).unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn invalid_predicate_presence_byte_is_an_error() {
        let mut payload = Vec::new();
        payload.put_u32(0);
        payload.put_u32(0);
        payload.put_u32(0);
        payload.push(9); // neither 0 nor 1
        let frame = crate::frame::encode_frame(msg_tag::FETCH_BIN_REQUEST, &payload).unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn newest_tag_is_the_count() {
        // The stats snapshot is the newest message: its tag must close
        // the 1..=COUNT range the metrics layer sizes its counters from.
        assert_eq!(msg_tag::STATS_SNAPSHOT as usize, msg_tag::COUNT);
        assert_eq!(msg_tag::name(msg_tag::STATS_SNAPSHOT), "StatsSnapshot");
        let msg = WireMessage::StatsSnapshot(String::new());
        assert_eq!(msg.msg_type(), msg_tag::STATS_SNAPSHOT);
        assert_eq!(msg.name(), "StatsSnapshot");
        assert_eq!(msg_tag::name(msg_tag::STATS_REQUEST), "StatsRequest");
        assert_eq!(WireMessage::StatsRequest.msg_type(), msg_tag::STATS_REQUEST);
    }
}
