//! Hostile bytes into the PJCP payload decoders: whatever a peer puts
//! inside a well-framed `Ready`, `OutputDone` or `Error`, the decoder
//! answers with a value or a typed [`ControlError`] — it never panics
//! and never sizes anything from a length it has not checked against
//! the bytes actually there.

use parjoin_common::wire::control::ControlError;
use parjoin_dist::proto::{self, WorkerStats};
use proptest::prelude::*;

/// Decodes `bytes` as each of the three payload shapes. A payload that
/// decodes must be the canonical encoding of what it decoded to (the
/// decoders refuse trailing bytes, so nothing rides along unseen).
fn assert_decoders_are_total(bytes: &[u8]) {
    for decode in [proto::decode_ready, proto::decode_error] {
        match decode(bytes) {
            Ok(text) => assert_eq!(proto::encode_ready(&text), bytes),
            Err(ControlError::Truncated(_) | ControlError::Malformed(_)) => {}
            Err(other) => panic!("payload decoders only truncate or refuse: {other}"),
        }
    }
    match proto::decode_done(3, bytes) {
        Ok(stats) => {
            assert_eq!(stats.rank, 3);
            assert_eq!(proto::encode_done(&stats), bytes);
        }
        Err(ControlError::Truncated(_) | ControlError::Malformed(_)) => {}
        Err(other) => panic!("payload decoders only truncate or refuse: {other}"),
    }
}

/// Text with one-, two-, three- and four-byte characters.
fn arb_text() -> impl Strategy<Value = String> {
    const PALETTE: [&str; 8] = ["127.0.0.1:", "9", "worker ", "é", "→", "⋈", "𝔘", ""];
    proptest::collection::vec(0usize..PALETTE.len(), 0..=8)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn payload_decoders_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..=64),
        claimed in any::<u32>(),
    ) {
        assert_decoders_are_total(&bytes);
        // A length prefix claiming up to 4 GiB over a few real bytes: the
        // string decoders must refuse before copying anything.
        let mut bomb = claimed.to_le_bytes().to_vec();
        bomb.extend_from_slice(&bytes);
        assert_decoders_are_total(&bomb);
        if claimed as usize > bytes.len() {
            prop_assert!(matches!(proto::decode_ready(&bomb), Err(ControlError::Truncated(_))));
        }
    }

    #[test]
    fn payload_decoders_survive_noise_and_mutation(
        text in arb_text(),
        counts in proptest::collection::vec(any::<u64>(), 6),
        rounds in any::<u32>(),
        noise in proptest::collection::vec(any::<u8>(), 1..=16),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let stats = WorkerStats {
            rank: 3,
            output_tuples: counts[0],
            tuples_sent: counts[1],
            rounds,
            tx_bytes: counts[2],
            rx_bytes: counts[3],
            tx_batches: counts[4],
            rx_batches: counts[5],
        };
        let done = proto::encode_done(&stats);
        prop_assert_eq!(proto::decode_done(3, &done), Ok(stats));
        let ready = proto::encode_ready(&text);
        prop_assert_eq!(proto::decode_ready(&ready).as_deref(), Ok(text.as_str()));
        prop_assert_eq!(proto::decode_error(&proto::encode_error(&text)), Ok(text));

        // Valid payload + noise: the trailing bytes are refused, typed.
        let noisy = |valid: &[u8]| [valid, noise.as_slice()].concat();
        assert_decoders_are_total(&noisy(&done));
        assert_decoders_are_total(&noisy(&ready));
        let trailing = |r: Result<(), ControlError>| matches!(r, Err(ControlError::Malformed(_)));
        prop_assert!(trailing(proto::decode_done(3, &noisy(&done)).map(drop)));
        prop_assert!(trailing(proto::decode_ready(&noisy(&ready)).map(drop)));

        // One byte flipped, and every truncation of the result.
        for mut mutated in [done, ready] {
            let at = at % mutated.len();
            mutated[at] = byte;
            for end in 0..=mutated.len() {
                assert_decoders_are_total(&mutated[..end]);
            }
        }
    }
}
