//! Property suite for the wire codec: encode→decode identity over
//! generated values, and totality of the decoder over mangled input —
//! truncations, oversized length fields, version skews and random bytes
//! must all come back as `Err`, never as a panic.

use gossip_net::{
    decode_frame_sealed, seal_frame, AuthKey, NodeId, WireError, WireMsg, WireReader,
    AUTH_TAG_BYTES, FRAME_HEADER_BYTES, MAX_PAYLOAD_BYTES, WIRE_MAGIC, WIRE_VERSION,
};
use gossip_obs::TraceCtx;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Round-trip one value through bytes, asserting full consumption.
fn assert_round_trip<M: WireMsg + PartialEq + std::fmt::Debug>(value: &M) {
    let bytes = value.to_wire_bytes();
    let mut r = WireReader::new(&bytes);
    let decoded = M::decode(&mut r).expect("well-formed bytes decode");
    assert_eq!(&decoded, value);
    assert_eq!(r.remaining(), 0, "decode consumes exactly the encoding");
}

proptest! {
    #[test]
    fn scalars_round_trip(a in 0u64..=u64::MAX, b in 0u32..=u32::MAX, c in -1e300f64..1e300) {
        assert_round_trip(&a);
        assert_round_trip(&b);
        assert_round_trip(&c);
        assert_round_trip(&NodeId(b));
    }

    #[test]
    fn composites_round_trip(
        stamps in proptest::collection::vec(0u64..=u64::MAX, 0..64),
        pairs in proptest::collection::vec(0u64..=u64::MAX, 0..32),
        flag in proptest::bool::ANY,
    ) {
        assert_round_trip(&stamps);
        // Values via an integer cast: full-range but never NaN, which
        // PartialEq cannot compare (NaN *bit patterns* round-trip too —
        // pinned by the unit suite on the bit level).
        let delta: Vec<(NodeId, f64)> = pairs
            .iter()
            .map(|&z| (NodeId((z >> 32) as u32), ((z as i64) as f64) / 7.0))
            .collect();
        assert_round_trip(&delta);
        assert_round_trip(&if flag { Some(stamps.clone()) } else { None });
    }

    #[test]
    fn frames_round_trip_for_every_sender(
        from in 0u32..=u32::MAX,
        payload in proptest::collection::vec(0u64..=u64::MAX, 0..64),
    ) {
        let frame = seal_frame(NodeId(from), TraceCtx::NONE, None, &payload.to_wire_bytes());
        prop_assert_eq!(frame.len(), FRAME_HEADER_BYTES + 4 + payload.len() * 8);
        let (decoded_from, ctx, decoded) = decode_frame_sealed::<Vec<u64>>(&frame, None).unwrap();
        prop_assert_eq!(decoded_from, NodeId(from));
        prop_assert!(ctx.is_none());
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn truncation_always_errors_never_panics(
        payload in proptest::collection::vec(0u64..=u64::MAX, 0..32),
        cut_seed in 0u64..=u64::MAX,
    ) {
        let frame = seal_frame(NodeId(1), TraceCtx::NONE, None, &payload.to_wire_bytes());
        let mut rng = SmallRng::seed_from_u64(cut_seed);
        for _ in 0..8 {
            let cut = rng.gen_range(0..frame.len());
            prop_assert!(decode_frame_sealed::<Vec<u64>>(&frame[..cut], None).is_err());
        }
    }

    #[test]
    fn bit_flips_never_panic(
        payload in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        flip_seed in 0u64..=u64::MAX,
    ) {
        // Any single-bit corruption either still decodes (a flipped
        // payload bit yields different but valid content) or errors; it
        // must never panic, and a header flip in the magic/version/length
        // region must not be silently accepted as the original.
        let frame = seal_frame(NodeId(7), TraceCtx::NONE, None, &payload.to_wire_bytes());
        let mut rng = SmallRng::seed_from_u64(flip_seed);
        for _ in 0..16 {
            let mut mangled = frame.clone();
            let bit = rng.gen_range(0..mangled.len() * 8);
            mangled[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_frame_sealed::<Vec<u64>>(&mangled, None); // must return, is all
        }
    }

    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = decode_frame_sealed::<Vec<u64>>(&bytes, None);
        let _ = decode_frame_sealed::<f64>(&bytes, None);
        let _ = decode_frame_sealed::<(u64, Vec<(NodeId, f64)>)>(&bytes, None);
        let mut r = WireReader::new(&bytes);
        let _ = Vec::<(NodeId, f64)>::decode(&mut r);
    }

    #[test]
    fn sealed_frames_round_trip_and_bare_encoding_is_pinned(
        from in 0u32..=u32::MAX,
        payload in proptest::collection::vec(0u64..=u64::MAX, 0..64),
        trace_id in 0u64..=u64::MAX,
        hop in 0u8..=255,
        traced in proptest::bool::ANY,
        key_seed in 0u64..=u64::MAX,
    ) {
        let ctx = if traced { TraceCtx { trace_id, hop } } else { TraceCtx::NONE };
        let phrase = format!("cluster-key-{key_seed:016x}");
        // A bare frame is exactly magic ‖ version ‖ flags 0 ‖ from ‖ len ‖
        // payload for every sender and payload: the version-1 layout that
        // older builds speak, built here byte by byte.
        let body = payload.to_wire_bytes();
        let bare = seal_frame(NodeId(from), TraceCtx::NONE, None, &body);
        let mut reference = Vec::new();
        reference.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        reference.extend_from_slice(&[WIRE_VERSION, 0]);
        reference.extend_from_slice(&from.to_le_bytes());
        reference.extend_from_slice(&(body.len() as u32).to_le_bytes());
        reference.extend_from_slice(&body);
        prop_assert_eq!(&bare, &reference);

        let key = AuthKey::from_passphrase(&phrase);
        let sealed = seal_frame(NodeId(from), ctx, Some(&key), &body);
        prop_assert_eq!(
            sealed.len(),
            FRAME_HEADER_BYTES
                + if ctx.is_some() { 9 } else { 0 }
                + AUTH_TAG_BYTES
                + body.len()
        );
        // Keyed decode verifies and round-trips; keyless decode skips the
        // tag and still round-trips (mixed-cluster interop).
        let (got_from, got_ctx, got): (NodeId, TraceCtx, Vec<u64>) =
            decode_frame_sealed(&sealed, Some(&key)).unwrap();
        prop_assert_eq!(got_from, NodeId(from));
        prop_assert_eq!(got_ctx, ctx);
        prop_assert_eq!(&got, &payload);
        let (_, _, got): (NodeId, TraceCtx, Vec<u64>) =
            decode_frame_sealed(&sealed, None).unwrap();
        prop_assert_eq!(&got, &payload);
        // A keyed receiver rejects the bare frame outright.
        prop_assert_eq!(
            decode_frame_sealed::<Vec<u64>>(&bare, Some(&key)),
            Err(WireError::AuthRequired)
        );
    }

    #[test]
    fn sealed_truncation_and_bit_flips_never_panic_or_forge(
        payload in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        mangle_seed in 0u64..=u64::MAX,
    ) {
        let key = AuthKey::from_passphrase("property-suite");
        let sealed = seal_frame(NodeId(7), TraceCtx::NONE, Some(&key), &payload.to_wire_bytes());
        let mut rng = SmallRng::seed_from_u64(mangle_seed);
        for _ in 0..8 {
            let cut = rng.gen_range(0..sealed.len());
            prop_assert!(decode_frame_sealed::<Vec<u64>>(&sealed[..cut], Some(&key)).is_err());
        }
        // Under a keyed decoder, *every* single-bit flip is rejected —
        // stronger than the bare-frame property, where payload flips
        // still decode. This is the whole point of the tag.
        for _ in 0..16 {
            let mut mangled = sealed.clone();
            let bit = rng.gen_range(0..mangled.len() * 8);
            mangled[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_frame_sealed::<Vec<u64>>(&mangled, Some(&key)).is_err());
            let _ = decode_frame_sealed::<Vec<u64>>(&mangled, None); // keyless: total, is all
        }
    }

    #[test]
    fn foreign_versions_are_rejected(version in 0u8..=255, x in 0u64..=u64::MAX) {
        let mut frame = seal_frame(NodeId(0), TraceCtx::NONE, None, &x.to_wire_bytes());
        frame[2] = version;
        let result = decode_frame_sealed::<u64>(&frame, None);
        if version == WIRE_VERSION {
            prop_assert_eq!(result.unwrap().2, x);
        } else {
            prop_assert_eq!(result, Err(WireError::VersionMismatch { found: version }));
        }
    }
}

#[test]
fn oversized_claims_are_rejected_without_allocation() {
    // Header claiming u32::MAX payload bytes over an 8-byte body: the
    // decoder must reject on the length field, before trusting it.
    let mut frame = seal_frame(NodeId(0), TraceCtx::NONE, None, &1u64.to_wire_bytes());
    frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_frame_sealed::<u64>(&frame, None),
        Err(WireError::Oversized {
            claimed: u32::MAX as usize,
            limit: MAX_PAYLOAD_BYTES,
        })
    );
}
