//! Property tests for the wire protocol: `decode ∘ encode == id` for every
//! message type, every way of sizing a frame equals the length of its
//! encoding, and fuzzed truncation/corruption always yields
//! `Err(PdsError::Wire)` — never a panic.
//!
//! Seeding rides the workspace's deterministic proptest machinery
//! (`PROPTEST_SEED` / `PROPTEST_CASES`, regressions recorded under
//! `proptest-regressions/`).

use pds_common::{ByteCounter, PdsError, TupleId, Value};
use pds_proto::{
    bin_pair_request_len, fetch_bin_request_len, tuples_and_rows_len, Ack, BinPairRequest,
    BinPayload, ErrorFrame, FetchBinRequest, Hello, InsertRequest, WireMessage, WireRow,
    PREDICATE_DEPTH_CAP,
};
use pds_storage::{Predicate, Tuple};
use proptest::prelude::*;
use rand::Rng;

fn arb_value<R: Rng>(rng: &mut R) -> Value {
    match rng.gen_range(0u8..5) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(i64::MIN..i64::MAX)),
        2 => {
            let len = rng.gen_range(0usize..24);
            Value::Text(
                (0..len)
                    .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                    .collect(),
            )
        }
        3 => {
            let len = rng.gen_range(0usize..48);
            Value::Bytes((0..len).map(|_| rng.gen_range(0u8..=255)).collect())
        }
        _ => Value::Bool(rng.gen_range(0u8..2) == 1),
    }
}

fn arb_blob<R: Rng>(rng: &mut R, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn arb_tuple<R: Rng>(rng: &mut R) -> Tuple {
    let arity = rng.gen_range(1usize..5);
    Tuple::new(
        TupleId::new(rng.gen_range(0u64..u64::MAX)),
        (0..arity).map(|_| arb_value(rng)).collect(),
    )
}

fn arb_predicate<R: Rng>(rng: &mut R, depth: usize) -> Predicate {
    let leaf_only = depth >= 3;
    match rng.gen_range(0u8..if leaf_only { 4 } else { 7 }) {
        0 => Predicate::True,
        1 => Predicate::Eq {
            attr: pds_common::AttrId::new(rng.gen_range(0u64..16)),
            value: arb_value(rng),
        },
        2 => Predicate::InSet {
            attr: pds_common::AttrId::new(rng.gen_range(0u64..16)),
            values: (0..rng.gen_range(0usize..4))
                .map(|_| arb_value(rng))
                .collect(),
        },
        3 => Predicate::Range {
            attr: pds_common::AttrId::new(rng.gen_range(0u64..16)),
            lo: arb_value(rng),
            hi: arb_value(rng),
        },
        4 => Predicate::Not(Box::new(arb_predicate(rng, depth + 1))),
        other => {
            let children = (0..rng.gen_range(0usize..3))
                .map(|_| arb_predicate(rng, depth + 1))
                .collect();
            if other == 5 {
                Predicate::And(children)
            } else {
                Predicate::Or(children)
            }
        }
    }
}

fn arb_opt_predicate<R: Rng>(rng: &mut R) -> Option<Predicate> {
    if rng.gen_range(0u8..3) == 0 {
        Some(arb_predicate(rng, 0))
    } else {
        None
    }
}

fn arb_row<R: Rng>(rng: &mut R) -> WireRow {
    WireRow {
        id: rng.gen_range(0u64..u64::MAX),
        attr_ct: arb_blob(rng, 40),
        tuple_ct: arb_blob(rng, 120),
        search_tags: (0..rng.gen_range(0usize..3))
            .map(|_| arb_blob(rng, 20))
            .collect(),
    }
}

/// One random message of a random type, driven by the proptest case seed.
fn arb_message(seed: u64) -> WireMessage {
    let mut rng = pds_common::rng::seeded_rng(seed);
    match rng.gen_range(0u8..10) {
        0 => WireMessage::FetchBinRequest(FetchBinRequest {
            values: (0..rng.gen_range(0usize..6))
                .map(|_| arb_value(&mut rng))
                .collect(),
            ids: (0..rng.gen_range(0usize..6))
                .map(|_| rng.gen_range(0u64..u64::MAX))
                .collect(),
            tags: (0..rng.gen_range(0usize..4))
                .map(|_| arb_blob(&mut rng, 24))
                .collect(),
            predicate: arb_opt_predicate(&mut rng),
        }),
        1 => WireMessage::BinPairRequest(BinPairRequest {
            sensitive_bin: rng.gen_range(0u32..1 << 20),
            nonsensitive_bin: rng.gen_range(0u32..1 << 20),
            encrypted_values: (0..rng.gen_range(0usize..5))
                .map(|_| arb_blob(&mut rng, 64))
                .collect(),
            nonsensitive_values: (0..rng.gen_range(0usize..5))
                .map(|_| arb_value(&mut rng))
                .collect(),
            predicate: arb_opt_predicate(&mut rng),
        }),
        2 => WireMessage::BinPayload(BinPayload {
            plain_tuples: (0..rng.gen_range(0usize..4))
                .map(|_| arb_tuple(&mut rng))
                .collect(),
            encrypted_rows: (0..rng.gen_range(0usize..4))
                .map(|_| arb_row(&mut rng))
                .collect(),
        }),
        3 => WireMessage::InsertRequest(InsertRequest {
            plain_tuples: (0..rng.gen_range(0usize..4))
                .map(|_| arb_tuple(&mut rng))
                .collect(),
            encrypted_rows: (0..rng.gen_range(0usize..4))
                .map(|_| arb_row(&mut rng))
                .collect(),
        }),
        4 => WireMessage::Ack(Ack {
            items: rng.gen_range(0u64..u64::MAX),
        }),
        5 => {
            let msg_len = rng.gen_range(0usize..40);
            WireMessage::Error(ErrorFrame {
                category: "cloud".to_string(),
                message: (0..msg_len)
                    .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                    .collect(),
            })
        }
        6 => WireMessage::Opaque(arb_blob(&mut rng, 100)),
        7 => WireMessage::Hello(Hello {
            tenant: rng.gen_range(0u64..u64::MAX),
        }),
        8 => WireMessage::StatsRequest,
        _ => {
            let len = rng.gen_range(0usize..80);
            WireMessage::StatsSnapshot(
                (0..len)
                    .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                    .collect(),
            )
        }
    }
}

/// Every message type with every collection empty and every option unset.
fn empty_messages() -> Vec<WireMessage> {
    vec![
        WireMessage::FetchBinRequest(FetchBinRequest::default()),
        WireMessage::BinPairRequest(BinPairRequest::default()),
        WireMessage::BinPayload(BinPayload::default()),
        WireMessage::InsertRequest(InsertRequest::default()),
        WireMessage::Ack(Ack::default()),
        WireMessage::Error(ErrorFrame::default()),
        WireMessage::Opaque(Vec::new()),
        WireMessage::Hello(Hello::default()),
        WireMessage::StatsRequest,
        WireMessage::StatsSnapshot(String::new()),
    ]
}

/// The frame length the borrowed-parts sizing function of `msg`'s type
/// computes, for the types the cloud sizes that way.
fn sized_from_parts(msg: &WireMessage) -> Option<pds_common::Result<usize>> {
    match msg {
        WireMessage::FetchBinRequest(m) => Some(fetch_bin_request_len(
            &m.values,
            m.ids.iter().copied(),
            &m.tags,
            m.predicate.as_ref(),
        )),
        WireMessage::BinPairRequest(m) => Some(bin_pair_request_len(m)),
        WireMessage::BinPayload(BinPayload {
            plain_tuples,
            encrypted_rows,
        })
        | WireMessage::InsertRequest(InsertRequest {
            plain_tuples,
            encrypted_rows,
        }) => Some(Ok(tuples_and_rows_len(
            plain_tuples,
            encrypted_rows.iter().map(WireRow::as_row_ref),
        ))),
        _ => None,
    }
}

/// Asserts every way of sizing `msg` agrees with its encoding.
fn assert_sizes_match(msg: &WireMessage) {
    let encoded = msg.encode().expect("in-range message encodes").len();
    assert_eq!(msg.encoded_len().unwrap(), encoded, "{}", msg.name());
    if let Some(sized) = sized_from_parts(msg) {
        assert_eq!(sized.unwrap(), encoded, "{} from parts", msg.name());
    }
}

/// A predicate whose deepest node sits at nesting depth `depth` (the root
/// is depth 0), built from every composite kind.
fn predicate_of_depth(depth: usize) -> Predicate {
    let mut p = Predicate::Eq {
        attr: pds_common::AttrId::new(1),
        value: Value::Int(7),
    };
    for level in 0..depth {
        p = match level % 3 {
            0 => Predicate::Not(Box::new(p)),
            1 => Predicate::And(vec![Predicate::True, p]),
            _ => Predicate::Or(vec![p]),
        };
    }
    p
}

/// [`Value::encode`] as the wire layout specifies it: a tag byte, then the
/// payload.
fn reference_value_encoding(v: &Value) -> Vec<u8> {
    match v {
        Value::Null => vec![0],
        Value::Int(i) => [&[1u8][..], &i.to_be_bytes()].concat(),
        Value::Text(s) => [&[2u8][..], s.as_bytes()].concat(),
        Value::Bytes(b) => [&[3u8][..], b].concat(),
        Value::Bool(b) => vec![4, u8::from(*b)],
    }
}

/// [`Tuple::encode`] as the layout specifies it: id, value count, then
/// each value's encoding behind a 4-byte length.
fn reference_tuple_encoding(t: &Tuple) -> Vec<u8> {
    let mut out = t.id.raw().to_be_bytes().to_vec();
    out.extend_from_slice(&(t.values.len() as u32).to_be_bytes());
    for v in &t.values {
        let enc = reference_value_encoding(v);
        out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
        out.extend_from_slice(&enc);
    }
    out
}

#[test]
fn empty_bodies_size_exactly() {
    for msg in empty_messages() {
        assert_sizes_match(&msg);
    }
}

#[test]
fn predicates_at_the_depth_cap_size_exactly_and_past_it_are_errors() {
    let at_cap = predicate_of_depth(PREDICATE_DEPTH_CAP - 1);
    let past_cap = predicate_of_depth(PREDICATE_DEPTH_CAP);
    for (predicate, ok) in [(at_cap, true), (past_cap, false)] {
        let fetch = WireMessage::FetchBinRequest(FetchBinRequest {
            values: vec![Value::from("v")],
            predicate: Some(predicate.clone()),
            ..FetchBinRequest::default()
        });
        let pair = WireMessage::BinPairRequest(BinPairRequest {
            nonsensitive_values: vec![Value::Int(3)],
            predicate: Some(predicate),
            ..BinPairRequest::default()
        });
        for msg in [fetch, pair] {
            if ok {
                assert_sizes_match(&msg);
            } else {
                assert!(msg.encode().is_err(), "{} encodes", msg.name());
                assert!(msg.encoded_len().is_err(), "{} sizes", msg.name());
                let sized = sized_from_parts(&msg).expect("request types size from parts");
                assert!(sized.is_err(), "{} sizes from parts", msg.name());
            }
        }
    }
}

proptest! {
    #[test]
    fn encode_decode_is_identity(seed in proptest::arbitrary::any::<u64>()) {
        let msg = arb_message(seed);
        let frame = msg.encode().expect("encode never fails on in-range data");
        let back = WireMessage::decode(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn encoded_len_matches_frame(seed in proptest::arbitrary::any::<u64>()) {
        let msg = arb_message(seed);
        prop_assert_eq!(msg.encoded_len().unwrap(), msg.encode().unwrap().len());
        assert_sizes_match(&msg);
    }

    #[test]
    fn encode_into_writes_the_encoding(seed in proptest::arbitrary::any::<u64>()) {
        let mut rng = pds_common::rng::seeded_rng(seed);
        let value = arb_value(&mut rng);
        let tuple = arb_tuple(&mut rng);
        prop_assert_eq!(value.encode(), reference_value_encoding(&value));
        prop_assert_eq!(tuple.encode(), reference_tuple_encoding(&tuple));
        // Into a buffer that already holds bytes (a frame header), and into
        // a counter: the same bytes appended, the same count.
        let mut frame = vec![0xAA; 5];
        value.encode_into(&mut frame);
        tuple.encode_into(&mut frame);
        let expected = [&[0xAA; 5][..], &value.encode(), &tuple.encode()].concat();
        prop_assert_eq!(&frame, &expected);
        let mut count = ByteCounter::default();
        value.encode_into(&mut count);
        tuple.encode_into(&mut count);
        prop_assert_eq!(count.0 + 5, frame.len());
    }

    #[test]
    fn any_truncation_is_a_wire_error(seed in proptest::arbitrary::any::<u64>()) {
        let frame = arb_message(seed).encode().unwrap();
        // Every strict prefix must fail cleanly — exhaustive, not sampled,
        // so no truncation point ever panics.
        for cut in 0..frame.len() {
            match WireMessage::decode(&frame[..cut]) {
                Err(PdsError::Wire(_)) => {}
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
    }

    #[test]
    fn any_single_byte_corruption_is_a_wire_error(seed in proptest::arbitrary::any::<u64>()) {
        let frame = arb_message(seed).encode().unwrap();
        let mut rng = pds_common::rng::seeded_rng(seed ^ 0xC0FFEE);
        // CRC-32 detects every single-byte error; exercise a sample of
        // positions and all positions for small frames.
        let positions: Vec<usize> = if frame.len() <= 64 {
            (0..frame.len()).collect()
        } else {
            (0..64).map(|_| rng.gen_range(0..frame.len())).collect()
        };
        for pos in positions {
            let flip = rng.gen_range(1u8..=255);
            let mut bad = frame.clone();
            bad[pos] ^= flip;
            match WireMessage::decode(&bad) {
                Err(PdsError::Wire(_)) => {}
                other => prop_assert!(
                    false,
                    "flip of {:#04x} at byte {} gave {:?}",
                    flip,
                    pos,
                    other
                ),
            }
        }
    }

    #[test]
    fn correlation_id_roundtrips_any_message(seed in proptest::arbitrary::any::<u64>()) {
        let msg = arb_message(seed);
        let corr = seed.rotate_left(17) | 1;
        let framed = msg.encode_framed(corr).expect("encode never fails on in-range data");
        let (got_corr, back) = WireMessage::decode_corr(&framed).expect("roundtrip");
        prop_assert_eq!(got_corr, corr);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn random_garbage_never_panics(seed in proptest::arbitrary::any::<u64>()) {
        let mut rng = pds_common::rng::seeded_rng(seed);
        let garbage = arb_blob(&mut rng, 256);
        // Random bytes essentially never form a valid CRC-framed message;
        // the property under test is totality (Err, not panic).
        let _ = WireMessage::decode(&garbage);
        let mut near_miss = arb_message(seed).encode().unwrap();
        near_miss.extend_from_slice(&garbage);
        prop_assert!(matches!(
            WireMessage::decode(&near_miss),
            Err(PdsError::Wire(_))
        ));
    }
}
