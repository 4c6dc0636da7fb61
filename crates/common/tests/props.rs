//! Property tests for the relation primitives.

use parjoin_common::wire::control::{self, ControlError, FrameKind};
use parjoin_common::{hash, sort, wire, Relation, WireFormat};
use proptest::prelude::*;

fn arb_relation(max_arity: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    (1..=max_arity).prop_flat_map(move |arity| {
        proptest::collection::vec(proptest::collection::vec(0u64..50, arity), 0..=max_rows)
            .prop_map(move |rows| Relation::from_rows(arity, rows))
    })
}

/// Row-major buffers of arity 1–5 with a tight value domain (lots of
/// duplicate rows, the stability-sensitive case) mixed with full-range
/// values (all eight key bytes vary).
fn arb_sort_input() -> impl Strategy<Value = (usize, Vec<u64>)> {
    (1usize..=5, 0u64..2).prop_flat_map(move |(arity, wide)| {
        proptest::collection::vec(any::<u64>(), 0..=40 * arity).prop_map(move |mut flat| {
            if wide == 0 {
                // Tight domain: lots of duplicate rows, the
                // stability-sensitive case.
                for v in &mut flat {
                    *v %= 7;
                }
            }
            flat.truncate(flat.len() / arity * arity);
            (arity, flat)
        })
    })
}

/// Like [`arb_relation`] but includes arity 0 (nullary relations) and the
/// full `u64` value range, which exercises multi-byte varints.
fn arb_wire_relation(max_arity: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    (0..=max_arity, 0..=max_rows).prop_flat_map(move |(arity, rows)| {
        proptest::collection::vec(any::<u64>(), arity * rows).prop_map(move |flat| {
            let mut rel = Relation::new(arity);
            if arity == 0 {
                rel.push_nullary_rows(rows);
            } else {
                for chunk in flat.chunks_exact(arity) {
                    rel.push_row(chunk);
                }
            }
            rel
        })
    })
}

/// Arity 0, 1 or 3.
fn arb_frame_arity() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [0, 1, 3][i])
}

fn encode(rel: &Relation) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_vectored(rel.arity(), rel.len(), rel.raw(), false, &mut buf);
    buf
}

fn decode_into(bytes: &[u8], rel: &mut Relation) -> Result<usize, wire::WireError> {
    wire::decode_frame_into(WireFormat::Vectored, bytes, rel)
}

/// Decodes hostile `bytes` into a relation of `arity` already holding
/// one row: the decoder must return (never panic), leave `rel` alone on
/// error, and never grow it by more than `8 × bytes.len()` bytes.
fn assert_decode_is_bounded(bytes: &[u8], arity: usize) {
    let mut rel = Relation::new(arity);
    if arity == 0 {
        rel.push_nullary_rows(1);
    } else {
        rel.push_row(&vec![7; arity]);
    }
    let before = rel.clone();
    match decode_into(bytes, &mut rel) {
        Err(_) => assert_eq!(rel, before, "a failed decode must not touch rel"),
        Ok(rows) => {
            assert_eq!(rel.len(), before.len() + rows);
            let grown = (rel.raw().len() - before.raw().len()) * 8;
            assert!(
                grown <= 8 * bytes.len(),
                "{} frame bytes grew rel by {grown} bytes",
                bytes.len()
            );
        }
    }
}

proptest! {
    #[test]
    fn sort_is_permutation(rel in arb_relation(4, 60)) {
        let mut sorted = rel.clone();
        sorted.sort_lex();
        prop_assert!(sorted.is_sorted_lex());
        prop_assert_eq!(sorted.len(), rel.len());
        // Multisets equal: compare sorted row vectors.
        let mut a: Vec<Vec<u64>> = rel.rows().map(|r| r.to_vec()).collect();
        let b: Vec<Vec<u64>> = sorted.rows().map(|r| r.to_vec()).collect();
        a.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn radix_sort_identical_to_comparator_sort(input in arb_sort_input()) {
        let (arity, flat) = input;
        let n = flat.len() / arity;
        // The dispatcher hides the radix path below its size threshold,
        // so target both kernels directly: identical index permutations
        // mean identical gathered bytes for every input.
        let radix = sort::sorted_indices_radix(&flat, arity, 0, n);
        let cmp = sort::sorted_indices_comparator(&flat, arity, 0, n);
        prop_assert_eq!(&radix, &cmp);
        prop_assert_eq!(
            sort::gather(&flat, arity, &radix),
            sort::gather(&flat, arity, &cmp)
        );
    }

    #[test]
    fn merge_runs_identical_to_full_sort(input in arb_sort_input(), cut in 0usize..=40) {
        let (arity, flat) = input;
        let n = flat.len() / arity;
        let mid = cut.min(n);
        let a = sort::sorted_indices_comparator(&flat, arity, 0, mid);
        let b = sort::sorted_indices_comparator(&flat, arity, mid, n);
        let merged = sort::merge_runs(&flat, arity, &a, &b);
        prop_assert_eq!(merged, sort::sorted_indices_comparator(&flat, arity, 0, n));
    }

    #[test]
    fn distinct_is_sorted_dedup(rel in arb_relation(3, 60)) {
        let d = rel.clone().distinct();
        prop_assert!(d.is_sorted_lex());
        let mut expect: Vec<Vec<u64>> = rel.rows().map(|r| r.to_vec()).collect();
        expect.sort();
        expect.dedup();
        let got: Vec<Vec<u64>> = d.rows().map(|r| r.to_vec()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn project_then_len_preserved(rel in arb_relation(4, 40), keep in 0usize..4) {
        let keep = keep.min(rel.arity() - 1);
        let p = rel.project(&[keep]);
        prop_assert_eq!(p.len(), rel.len());
        prop_assert_eq!(p.arity(), 1);
        for (i, row) in rel.rows().enumerate() {
            prop_assert_eq!(p.row(i)[0], row[keep]);
        }
    }

    #[test]
    fn buckets_cover_range(x in any::<u64>(), seed in any::<u64>(), b in 1usize..128) {
        prop_assert!(hash::bucket(x, seed, b) < b);
        prop_assert!(hash::bucket_row(&[x, seed], seed, b) < b);
    }

    #[test]
    fn wire_round_trip_is_byte_identical(rel in arb_wire_relation(4, 60)) {
        let buf = encode(&rel);
        let mut back = Relation::new(rel.arity());
        let n = decode_into(&buf, &mut back).expect("decode own encoding");
        prop_assert_eq!(n, rel.len());
        prop_assert_eq!(&back, &rel);
        // Re-encoding the decoded relation reproduces the bytes exactly.
        prop_assert_eq!(&encode(&back), &buf);
        // Every frame costs exactly what `frame_bytes` predicts; that
        // arithmetic is what the analyzer's R411/R414 pre-flight and the
        // fragment's relation length prefix lean on.
        prop_assert_eq!(
            buf.len() as u64,
            wire::frame_bytes(WireFormat::Vectored, rel.arity(), rel.len())
        );
    }

    #[test]
    fn wire_decode_into_appends(
        a in arb_wire_relation(3, 20),
        b in arb_wire_relation(3, 20),
    ) {
        let mut acc = Relation::new(a.arity());
        let n1 = decode_into(&encode(&a), &mut acc).expect("first batch");
        prop_assert_eq!(n1, a.len());
        // Only meaningful when arities agree.
        if b.arity() == a.arity() {
            let n2 = decode_into(&encode(&b), &mut acc).expect("second batch");
            prop_assert_eq!(n2, b.len());
            prop_assert_eq!(acc.len(), a.len() + b.len());
        }
    }

    #[test]
    fn wire_decode_rejects_mutations(
        rel in arb_wire_relation(3, 20),
        cut in any::<usize>(),
        flip in any::<u8>(),
    ) {
        let buf = encode(&rel);
        // Truncating anywhere strictly inside the frame must error, never
        // panic or decode short.
        let cut = cut % buf.len();
        let mut scratch = Relation::new(rel.arity());
        prop_assert!(decode_into(&buf[..cut], &mut scratch).is_err());
        // Every flag bit is unknown, hence a hard decode error
        // (forward-compat fence).
        let mut bad = buf.clone();
        bad[0] = flip.max(1);
        let mut scratch = Relation::new(rel.arity());
        prop_assert!(decode_into(&bad, &mut scratch).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn wire_decode_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=48),
        arity in 0usize..=4,
    ) {
        assert_decode_is_bounded(&bytes, arity);
        // Steer the noise past the header so it reaches the payload
        // decoder: no flag, right arity, the rest arbitrary.
        let mut steered = vec![0, arity as u8];
        steered.extend_from_slice(&bytes);
        assert_decode_is_bounded(&steered, arity);
    }

    #[test]
    fn wire_decode_survives_single_byte_mutations(
        arity in arb_frame_arity(),
        rows in 0usize..=6,
        seed in any::<u64>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        // Valid frames of arity 0/1/3, with `u64::MAX` among the values.
        let mut rel = Relation::new(arity);
        if arity == 0 {
            rel.push_nullary_rows(rows);
        } else {
            for i in 0..rows {
                let row: Vec<u64> = (0..arity)
                    .map(|c| if (i + c) % 2 == 0 { u64::MAX } else { hash::hash64(i as u64, seed) })
                    .collect();
                rel.push_row(&row);
            }
        }
        let mut frame = encode(&rel);
        let at = at % frame.len();
        frame[at] = byte;
        assert_decode_is_bounded(&frame, arity);
    }
}

/// Reads one control frame from hostile `bytes` under `limit`: the
/// reader must return (never panic), and whatever it returns it sized
/// from the declared length only after checking it against `limit`.
fn assert_read_frame_is_bounded(bytes: &[u8], limit: u32) {
    let mut stream = std::io::Cursor::new(bytes);
    match control::read_frame(&mut stream, limit) {
        Ok((_, payload)) => {
            assert!(
                payload.len() <= limit as usize,
                "{} > {limit}",
                payload.len()
            );
            let consumed = control::HEADER_LEN + payload.len();
            assert_eq!(stream.position() as usize, consumed, "read past the frame");
        }
        Err(ControlError::Oversized { len, limit: l }) => assert!(len > limit && l == limit),
        // Typed, and decided from the eleven header bytes alone.
        Err(_) => assert!(stream.position() as usize <= bytes.len()),
    }
}

fn control_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    control::write_frame(&mut frame, kind, payload).expect("in-memory write");
    frame
}

const FRAME_KINDS: [FrameKind; 6] = [
    FrameKind::Ready,
    FrameKind::Fragment,
    FrameKind::OutputBatch,
    FrameKind::OutputDone,
    FrameKind::Error,
    FrameKind::Shutdown,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn control_read_frame_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=48),
        kind in 0usize..FRAME_KINDS.len(),
        limit in 0u32..=64,
    ) {
        assert_read_frame_is_bounded(&bytes, limit);
        // Steer the noise past magic, version and kind so it lands in
        // the length prefix: a bomb dies as `Oversized`, unallocated.
        let mut steered = control_frame(FRAME_KINDS[kind], &[]);
        steered.truncate(control::HEADER_LEN - 4);
        steered.extend_from_slice(&bytes);
        assert_read_frame_is_bounded(&steered, limit);
        if let Some(len) = bytes.first_chunk::<4>().map(|b| u32::from_le_bytes(*b)) {
            let got = control::read_frame(&mut steered.as_slice(), limit);
            prop_assert_eq!(
                matches!(got, Err(ControlError::Oversized { .. })),
                len > limit,
                "declared {} under limit {}: {:?}", len, limit, got
            );
        }
    }

    #[test]
    fn control_read_frame_stops_at_the_frame_and_survives_mutation(
        payload in proptest::collection::vec(any::<u8>(), 0..=24),
        noise in proptest::collection::vec(any::<u8>(), 0..=24),
        kind in 0usize..FRAME_KINDS.len(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        // A valid frame followed by noise reads back exactly, and the
        // noise stays in the stream for the next read to refuse.
        let kind = FRAME_KINDS[kind];
        let mut bytes = control_frame(kind, &payload);
        let frame_len = bytes.len();
        bytes.extend_from_slice(&noise);
        let mut stream = std::io::Cursor::new(bytes.as_slice());
        let (got_kind, got) = control::read_frame(&mut stream, 64).expect("valid frame");
        prop_assert_eq!((got_kind, got.as_slice()), (kind, payload.as_slice()));
        prop_assert_eq!(stream.position() as usize, frame_len);
        assert_read_frame_is_bounded(&noise, 64);

        // One byte of the frame flipped: a frame or a typed refusal.
        bytes[at % frame_len] = byte;
        assert_read_frame_is_bounded(&bytes, 64);
        assert_read_frame_is_bounded(&bytes[..frame_len], 8);
    }
}
