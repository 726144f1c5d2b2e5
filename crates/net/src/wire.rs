//! The wire codec: how [`Handler`](crate::Handler) messages travel over a
//! real network.
//!
//! The simulation backends carry handler messages as plain Rust values —
//! a `send` hands the payload to the host, the host hands it to the
//! receiver's callback, and the `bits` argument merely *models* a wire
//! size. A socket host (`gossip-node`) has no such luxury: the payload
//! must round-trip through bytes, and the bytes come off an untrusted
//! datagram socket. This module is that boundary:
//!
//! * [`WireMsg`] — encode/decode for a protocol's message type. The
//!   workspace builds offline without a serialisation crate, so the data
//!   model is hand-rolled: fixed-width little-endian primitives
//!   through a [`WireWriter`]/[`WireReader`] pair, with blanket impls for
//!   the shapes protocol messages are built from (integers, floats,
//!   `Vec`, tuples, `Option`, [`NodeId`]).
//! * **Frames** — one datagram is one frame: a fixed header (magic,
//!   version, sender id, payload length) followed by exactly
//!   `payload length` bytes of `WireMsg`-encoded payload. One encoder,
//!   [`seal_frame`], and one decoder, [`decode_frame_sealed`], cover
//!   every flag combination (trace context, authentication tag).
//!
//! The decoder is total: any input — truncated mid-header, truncated
//! mid-payload, oversized, version-skewed, trailing garbage, absurd
//! collection lengths — produces a [`WireError`], never a panic and never
//! an attempt to allocate what the length field claims before the bytes
//! are actually there. A node must be able to eat arbitrary datagrams off
//! the network and shrug.

use crate::auth::{AuthKey, AUTH_TAG_BYTES};
use crate::node::NodeId;
use gossip_obs::TraceCtx;
use std::fmt;

/// First two bytes of every frame (little-endian on the wire). Chosen to
/// be unlikely as the start of stray ASCII traffic.
pub const WIRE_MAGIC: u16 = 0xCA75;

/// Current wire-format version. Bump on any incompatible layout change;
/// the decoder rejects every other version.
pub const WIRE_VERSION: u8 = 1;

/// Frame header size in bytes: magic (2) + version (1) + flags (1) +
/// sender id (4) + payload length (4).
pub const FRAME_HEADER_BYTES: usize = 12;

/// Flags bit: the header is followed by a trace context (trace id `u64`
/// plus hop `u8`) before the payload. Frames without the bit carry no extra
/// bytes and are byte-identical to version-1 frames from builds that
/// predate tracing — the feature is opt-in per frame, not a version bump.
pub const FLAG_TRACE: u8 = 0x01;

/// Flags bit: the frame is authenticated — [`AUTH_TAG_BYTES`] of
/// truncated HMAC-SHA256 (keyed by the cluster [`AuthKey`]) follow the
/// header and any trace context, covering every frame byte except the tag
/// itself. Like [`FLAG_TRACE`], the bit is opt-in per frame: frames
/// without it are byte-identical to the unauthenticated format.
pub const FLAG_AUTH: u8 = 0x02;

/// All flags bits this build understands. Unknown bits are rejected: a
/// flag may imply extra header bytes (as [`FLAG_TRACE`] and [`FLAG_AUTH`]
/// do), so a decoder that ignored one would misparse everything after it.
pub const KNOWN_FLAGS: u8 = FLAG_TRACE | FLAG_AUTH;

/// Extra bytes a [`FLAG_TRACE`] frame carries: trace id (8) + hop (1).
pub const TRACE_CTX_BYTES: usize = 9;

/// Hard ceiling on a frame's payload length, chosen so that header +
/// payload always fits a single unfragmented-at-the-API UDP datagram
/// (65 507 bytes of UDP payload max). The decoder rejects length fields
/// beyond this *before* trusting them.
pub const MAX_PAYLOAD_BYTES: usize = 65_000;

/// Everything that can be wrong with bytes off the wire.
///
/// Every variant is a *rejection*, not a crash: the decoder returns these
/// for arbitrary input and a socket host counts them and moves on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value being decoded did: the decoder
    /// asked for `need` bytes when only `have` remained.
    Truncated {
        /// Bytes the failing read requested (in total, not the shortfall).
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The first two bytes are not [`WIRE_MAGIC`] — not one of ours.
    BadMagic {
        /// The magic actually found.
        found: u16,
    },
    /// The frame's version byte differs from [`WIRE_VERSION`].
    VersionMismatch {
        /// The version actually found.
        found: u8,
    },
    /// The header's length field exceeds [`MAX_PAYLOAD_BYTES`] (or the
    /// datagram's own size): rejected before any allocation trusts it.
    Oversized {
        /// The claimed payload length.
        claimed: usize,
        /// The largest length that would have been accepted.
        limit: usize,
    },
    /// The payload decoded cleanly but did not consume every payload
    /// byte — a length/content mismatch, so the frame is rejected rather
    /// than silently ignoring the tail.
    TrailingBytes {
        /// Unconsumed payload bytes.
        extra: usize,
    },
    /// An enum tag byte holds a value the message type does not define.
    BadTag {
        /// The offending tag.
        tag: u8,
    },
    /// A collection length field claims more elements than the remaining
    /// bytes could possibly encode — rejected before allocating.
    BadLength {
        /// The claimed element count.
        claimed: usize,
    },
    /// The flags byte carries a bit this build does not understand (see
    /// [`KNOWN_FLAGS`]): the frame cannot be parsed safely.
    BadFlags {
        /// The flags byte actually found.
        found: u8,
    },
    /// The frame carries [`FLAG_AUTH`] but its tag does not verify under
    /// the receiver's key — a tampered frame, a truncation that happened
    /// to keep the layout parseable, or a sender holding a different key.
    BadAuthTag,
    /// The receiver requires authenticated frames (it holds an
    /// [`AuthKey`]) but the frame arrived bare — a legacy or hostile
    /// sender talking to an auth-required host.
    AuthRequired,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated frame: read wanted {need} bytes, had {have}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#06x}"),
            WireError::VersionMismatch { found } => {
                write!(f, "wire version {found} (this build speaks {WIRE_VERSION})")
            }
            WireError::Oversized { claimed, limit } => {
                write!(f, "payload length {claimed} exceeds limit {limit}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing payload bytes after decode")
            }
            WireError::BadTag { tag } => write!(f, "unknown enum tag {tag}"),
            WireError::BadLength { claimed } => {
                write!(
                    f,
                    "collection length {claimed} cannot fit the remaining bytes"
                )
            }
            WireError::BadFlags { found } => {
                write!(
                    f,
                    "unknown flags {found:#04x} (this build understands {KNOWN_FLAGS:#04x})"
                )
            }
            WireError::BadAuthTag => write!(f, "frame auth tag failed verification"),
            WireError::AuthRequired => {
                write!(f, "unauthenticated frame at an auth-required receiver")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only byte sink for encoding. All integers are little-endian.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked cursor over received bytes for decoding.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Validate a collection length field against the bytes that remain:
    /// `claimed` elements of at least `min_elem_bytes` each must fit. This
    /// is what keeps a hostile length field from driving a huge allocation.
    pub fn check_len(&self, claimed: usize, min_elem_bytes: usize) -> Result<(), WireError> {
        let fits = claimed
            .checked_mul(min_elem_bytes.max(1))
            .is_some_and(|total| total <= self.remaining());
        if fits {
            Ok(())
        } else {
            Err(WireError::BadLength { claimed })
        }
    }
}

/// A message type that can cross a real wire. Implemented by every
/// protocol message a socket host can carry; the simulation backends never
/// call it.
///
/// The contract the property suite pins: `decode(encode(m)) == m` for all
/// values, and `decode` returns `Err` (never panics) on arbitrary bytes.
pub trait WireMsg: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decode one value, advancing the reader past exactly the bytes
    /// [`encode`](WireMsg::encode) produced.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh byte vector.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

impl WireMsg for u8 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u8()
    }
}

impl WireMsg for u16 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u16()
    }
}

impl WireMsg for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u32()
    }
}

impl WireMsg for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u64()
    }
}

impl WireMsg for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_f64()
    }
}

impl WireMsg for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

impl WireMsg for NodeId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.take_u32()?))
    }
}

impl<T: WireMsg> WireMsg for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_u32()? as usize;
        // Every element costs at least one byte on the wire, so the length
        // field is validated against the remaining buffer before any
        // allocation happens.
        r.check_len(len, 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: WireMsg, B: WireMsg> WireMsg for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireMsg, B: WireMsg, C: WireMsg> WireMsg for (A, B, C) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<T: WireMsg> WireMsg for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

/// Encode one frame: the header ([`WIRE_MAGIC`], [`WIRE_VERSION`], flags,
/// sender id, payload length), then the optional trace context and
/// authentication tag, then the already-encoded `payload` (typed callers
/// pass `&msg.to_wire_bytes()`). The length field counts the payload only.
///
/// * `ctx` — [`TraceCtx::NONE`] adds nothing; a real context sets
///   [`FLAG_TRACE`] and carries [`TRACE_CTX_BYTES`] of trace id + hop
///   after the header.
/// * `key` — `None` leaves the frame bare (flags 0 when the context is
///   also absent). A key sets [`FLAG_AUTH`] and splices [`AUTH_TAG_BYTES`]
///   of truncated HMAC-SHA256 between the trace context (if any) and the
///   payload. The tag covers every frame byte *except itself* — header,
///   trace context and payload — so any post-seal tampering (including
///   the length field and sender id) invalidates it.
///
/// Callers must reject payloads over [`MAX_PAYLOAD_BYTES`] first (the
/// socket host counts and drops them as `NodeStats::send_oversize` rather
/// than hand the kernel a datagram it would refuse); this function only
/// `debug_assert!`s it.
pub fn seal_frame(from: NodeId, ctx: TraceCtx, key: Option<&AuthKey>, payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        payload.len() <= MAX_PAYLOAD_BYTES,
        "caller must reject oversize payloads before framing"
    );
    let mut flags = 0u8;
    if ctx.is_some() {
        flags |= FLAG_TRACE;
    }
    if key.is_some() {
        flags |= FLAG_AUTH;
    }
    let mut w = WireWriter::new();
    w.put_u16(WIRE_MAGIC);
    w.put_u8(WIRE_VERSION);
    w.put_u8(flags);
    w.put_u32(from.0);
    w.put_u32(payload.len() as u32);
    if ctx.is_some() {
        w.put_u64(ctx.trace_id);
        w.put_u8(ctx.hop);
    }
    let mut frame = w.into_bytes();
    if let Some(key) = key {
        // Tag over header+context so far, then the payload that follows
        // the tag on the wire — exactly the bytes a verifier can see.
        let tag = key.tag_parts(&[&frame, payload]);
        frame.extend_from_slice(&tag);
    }
    frame.extend_from_slice(payload);
    frame
}

/// Decode one frame: validate magic, version, flags and the length field,
/// apply the authentication policy, then decode the payload and require it
/// to consume every payload byte. Returns the header's sender id, the
/// frame's causal context ([`TraceCtx::NONE`] for untraced frames) and the
/// message. Total over arbitrary input: every failure is a [`WireError`]
/// (unknown flag bits are [`WireError::BadFlags`], a flagged-but-truncated
/// trace context is [`WireError::Truncated`]).
///
/// * `key = None` — bare frames decode, and [`FLAG_AUTH`] frames are
///   accepted with the tag skipped, not verified: a keyless receiver
///   cannot verify, and rejecting would partition mixed clusters
///   mid-rollout (the same way untraced code skips a trace context).
/// * `key = Some` — the receiver *requires* authentication: a bare frame
///   is [`WireError::AuthRequired`], and a tagged frame whose tag does
///   not verify over the received bytes (header, trace context, payload —
///   everything but the tag) is [`WireError::BadAuthTag`], as is a tag
///   region cut short. Verification happens before payload decode, so a
///   forged frame never reaches the message parser.
pub fn decode_frame_sealed<M: WireMsg>(
    buf: &[u8],
    key: Option<&AuthKey>,
) -> Result<(NodeId, TraceCtx, M), WireError> {
    let mut r = WireReader::new(buf);
    let magic = r.take_u16()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = r.take_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { found: version });
    }
    let flags = r.take_u8()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(WireError::BadFlags { found: flags });
    }
    let from = NodeId(r.take_u32()?);
    let claimed = r.take_u32()? as usize;
    if claimed > MAX_PAYLOAD_BYTES {
        return Err(WireError::Oversized {
            claimed,
            limit: MAX_PAYLOAD_BYTES,
        });
    }
    let ctx = if flags & FLAG_TRACE != 0 {
        let trace_id = r.take_u64()?;
        let hop = r.take_u8()?;
        TraceCtx { trace_id, hop }
    } else {
        TraceCtx::NONE
    };
    if flags & FLAG_AUTH != 0 {
        // The tag sits between the (optional) trace context and the
        // payload; its offset is fixed by the flags alone.
        let tag_start = buf.len() - r.remaining();
        // A frame claiming authentication without a whole tag is an auth
        // failure, not mere truncation: every mutilation of the tag
        // region — flipped, cut short, missing — reads as one signal
        // (`auth_reject` at the host), whatever shape the forgery took.
        let tag = r.take(AUTH_TAG_BYTES).map_err(|_| WireError::BadAuthTag)?;
        if let Some(key) = key {
            let covered_head = &buf[..tag_start];
            let covered_tail = &buf[tag_start + AUTH_TAG_BYTES..];
            if !key.verify_parts(&[covered_head, covered_tail], tag) {
                return Err(WireError::BadAuthTag);
            }
        }
    } else if key.is_some() {
        return Err(WireError::AuthRequired);
    }
    if claimed != r.remaining() {
        // A datagram is one frame: the payload must fill the rest exactly.
        // Shorter is truncation; longer is trailing garbage.
        if claimed > r.remaining() {
            return Err(WireError::Truncated {
                need: claimed,
                have: r.remaining(),
            });
        }
        return Err(WireError::TrailingBytes {
            extra: r.remaining() - claimed,
        });
    }
    let msg = M::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok((from, ctx, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        0xABu8.encode(&mut w);
        0xBEEFu16.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        0x0123_4567_89AB_CDEFu64.encode(&mut w);
        (-1234.5678f64).encode(&mut w);
        true.encode(&mut w);
        NodeId::new(17).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(u8::decode(&mut r), Ok(0xAB));
        assert_eq!(u16::decode(&mut r), Ok(0xBEEF));
        assert_eq!(u32::decode(&mut r), Ok(0xDEAD_BEEF));
        assert_eq!(u64::decode(&mut r), Ok(0x0123_4567_89AB_CDEF));
        assert_eq!(f64::decode(&mut r), Ok(-1234.5678));
        assert_eq!(bool::decode(&mut r), Ok(true));
        assert_eq!(NodeId::decode(&mut r), Ok(NodeId::new(17)));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn composites_round_trip() {
        type Composite = (u32, Vec<(NodeId, f64)>, Option<u64>);
        let value: Composite = (
            7,
            vec![(NodeId::new(1), 1.5), (NodeId::new(2), f64::NEG_INFINITY)],
            Some(99),
        );
        let bytes = value.to_wire_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Composite::decode(&mut r), Ok(value));
        assert_eq!(r.remaining(), 0);

        let none: Option<u64> = None;
        let bytes = none.to_wire_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(Option::<u64>::decode(&mut r), Ok(None));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = weird.to_wire_bytes();
        let decoded = f64::decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(decoded.to_bits(), weird.to_bits());
    }

    /// The sealed-decoder result type the frame tests compare against.
    type Decoded<M> = Result<(NodeId, TraceCtx, M), WireError>;

    #[test]
    fn frames_round_trip() {
        let msg: Vec<u64> = vec![3, 1, 4, 1, 5];
        let frame = seal_frame(NodeId::new(9), TraceCtx::NONE, None, &msg.to_wire_bytes());
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + msg.to_wire_bytes().len());
        let (from, ctx, decoded) = decode_frame_sealed::<Vec<u64>>(&frame, None).unwrap();
        assert_eq!(from, NodeId::new(9));
        assert!(ctx.is_none());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let payload = vec![1u64, 2, 3].to_wire_bytes();
        let frame = seal_frame(NodeId::new(3), TraceCtx::NONE, None, &payload);
        for cut in 0..frame.len() {
            let err = decode_frame_sealed::<Vec<u64>>(&frame[..cut], None).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::BadLength { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn version_and_magic_mismatches_are_rejected() {
        let frame = seal_frame(NodeId::new(0), TraceCtx::NONE, None, &42u64.to_wire_bytes());
        let mut skewed = frame.clone();
        skewed[2] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame_sealed::<u64>(&skewed, None),
            Err(WireError::VersionMismatch {
                found: WIRE_VERSION + 1
            })
        );
        let mut foreign = frame;
        foreign[0] ^= 0xFF;
        assert!(matches!(
            decode_frame_sealed::<u64>(&foreign, None),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_length_fields_are_rejected_before_allocation() {
        // A frame whose header claims a payload far beyond the limit.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u8(0);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        let err = decode_frame_sealed::<u64>(&w.into_bytes(), None).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));

        // A vector whose length field claims more elements than the bytes
        // behind it could hold.
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        w.put_u64(1);
        let err = Vec::<u64>::decode(&mut WireReader::new(&w.into_bytes())).unwrap_err();
        assert_eq!(
            err,
            WireError::BadLength {
                claimed: u32::MAX as usize
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = seal_frame(NodeId::new(1), TraceCtx::NONE, None, &7u64.to_wire_bytes());
        frame.push(0xFF);
        assert!(matches!(
            decode_frame_sealed::<u64>(&frame, None),
            Err(WireError::TrailingBytes { .. })
        ));
        // Payload shorter than its content claims: the inner decode sees
        // trailing bytes *inside* the declared payload.
        let payload = (7u64, 8u64).to_wire_bytes();
        let frame = seal_frame(NodeId::new(1), TraceCtx::NONE, None, &payload);
        assert!(decode_frame_sealed::<u64>(&frame, None).is_err());
    }

    #[test]
    fn errors_display_usefully() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(WireError::Truncated { need: 8, have: 3 }),
            Box::new(WireError::BadMagic { found: 0x1234 }),
            Box::new(WireError::VersionMismatch { found: 9 }),
            Box::new(WireError::Oversized {
                claimed: 1 << 30,
                limit: MAX_PAYLOAD_BYTES,
            }),
            Box::new(WireError::TrailingBytes { extra: 4 }),
            Box::new(WireError::BadTag { tag: 7 }),
            Box::new(WireError::BadLength { claimed: 1 << 40 }),
            Box::new(WireError::BadFlags { found: 0x80 }),
            Box::new(WireError::BadAuthTag),
            Box::new(WireError::AuthRequired),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn traced_frames_round_trip() {
        let msg = vec![1u64, 2, 3];
        let ctx = TraceCtx {
            trace_id: 0x0123_4567_89AB_CDEF,
            hop: 3,
        };
        let traced = seal_frame(NodeId::new(9), ctx, None, &msg.to_wire_bytes());
        assert_eq!(
            traced.len(),
            FRAME_HEADER_BYTES + TRACE_CTX_BYTES + msg.to_wire_bytes().len()
        );
        assert_eq!(traced[3], FLAG_TRACE);
        let decoded: Decoded<Vec<u64>> = decode_frame_sealed(&traced, None);
        assert_eq!(decoded, Ok((NodeId::new(9), ctx, msg)));
    }

    #[test]
    fn keyless_frame_bytes_are_pinned() {
        // Golden frames next to the sealed pin below: the same sender and
        // 8-byte payload, bare (flags 0: header then little-endian f64)
        // and traced (flags 0x01: header, trace id, hop, payload). An
        // untraced, keyless frame is the original version-1 layout, so a
        // byte diff here breaks interop with every older build.
        let hex = |frame: Vec<u8>| -> String { frame.iter().map(|b| format!("{b:02x}")).collect() };
        let payload = 42.5f64.to_wire_bytes();
        assert_eq!(
            hex(seal_frame(NodeId::new(5), TraceCtx::NONE, None, &payload)),
            "75ca010005000000080000000000000000404540"
        );
        let ctx = TraceCtx {
            trace_id: 0x0123_4567_89AB_CDEF,
            hop: 3,
        };
        assert_eq!(
            hex(seal_frame(NodeId::new(5), ctx, None, &payload)),
            "75ca01010500000008000000efcdab8967452301030000000000404540"
        );
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let payload = 7u64.to_wire_bytes();
        let mut frame = seal_frame(NodeId::new(1), TraceCtx::NONE, None, &payload);
        frame[3] = 0x04; // a bit this build does not define
        assert_eq!(
            decode_frame_sealed::<u64>(&frame, None),
            Err(WireError::BadFlags { found: 0x04 })
        );
        let ctx = TraceCtx {
            trace_id: 5,
            hop: 0,
        };
        let mut frame = seal_frame(NodeId::new(1), ctx, None, &payload);
        frame[3] |= 0x80;
        assert!(matches!(
            decode_frame_sealed::<u64>(&frame, None),
            Err(WireError::BadFlags { found }) if found == 0x81
        ));
    }

    #[test]
    fn truncated_traced_frames_error_at_every_cut() {
        let ctx = TraceCtx {
            trace_id: 42,
            hop: 1,
        };
        let frame = seal_frame(NodeId::new(3), ctx, None, &vec![1u64, 2, 3].to_wire_bytes());
        for cut in 0..frame.len() {
            let err = decode_frame_sealed::<Vec<u64>>(&frame[..cut], None).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::BadLength { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
        // A frame that claims FLAG_TRACE but ends inside the context.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u8(FLAG_TRACE);
        w.put_u32(0);
        w.put_u32(0); // empty payload...
        w.put_u32(0xDEAD); // ...but only 4 of the 9 context bytes
        assert!(matches!(
            decode_frame_sealed::<u64>(&w.into_bytes(), None),
            Err(WireError::Truncated { .. })
        ));
    }

    fn test_key() -> AuthKey {
        AuthKey::from_passphrase("wire-tests")
    }

    #[test]
    fn sealed_frames_round_trip_with_and_without_trace() {
        let key = test_key();
        let msg = vec![6u64, 28, 496];
        let payload = msg.to_wire_bytes();
        let ctx = TraceCtx {
            trace_id: 0xFEED_FACE,
            hop: 7,
        };

        let sealed = seal_frame(NodeId::new(4), ctx, Some(&key), &payload);
        assert_eq!(sealed[3], FLAG_TRACE | FLAG_AUTH);
        assert_eq!(
            sealed.len(),
            FRAME_HEADER_BYTES + TRACE_CTX_BYTES + AUTH_TAG_BYTES + payload.len()
        );
        let decoded: Decoded<Vec<u64>> = decode_frame_sealed(&sealed, Some(&key));
        assert_eq!(decoded, Ok((NodeId::new(4), ctx, msg.clone())));

        let sealed = seal_frame(NodeId::new(4), TraceCtx::NONE, Some(&key), &payload);
        assert_eq!(sealed[3], FLAG_AUTH);
        assert_eq!(
            sealed.len(),
            FRAME_HEADER_BYTES + AUTH_TAG_BYTES + payload.len()
        );
        let decoded: Decoded<Vec<u64>> = decode_frame_sealed(&sealed, Some(&key));
        assert_eq!(decoded, Ok((NodeId::new(4), TraceCtx::NONE, msg)));
    }

    #[test]
    fn sealed_frame_bytes_are_pinned() {
        // A golden frame: fixed key, sender and 8-byte payload — the shape
        // of every datagram a sealed max-gossip cluster sends. Header
        // (12 B), truncated tag (16 B), little-endian f64 (8 B). Any
        // change to the framing or the MAC shows up here as a byte diff.
        let mut raw = [0u8; 32];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(7).wrapping_add(3);
        }
        let key = AuthKey::from_bytes(raw);
        let payload = 42.5f64.to_wire_bytes();
        let sealed = seal_frame(NodeId::new(5), TraceCtx::NONE, Some(&key), &payload);
        let hex: String = sealed.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "75ca0102050000000800000067b0b2738cba08a5f8bd89163c9fcd880000000000404540"
        );
        assert_eq!(sealed.len(), FRAME_HEADER_BYTES + AUTH_TAG_BYTES + 8);
    }

    #[test]
    fn keyless_receivers_accept_sealed_frames() {
        // Mixed-cluster interop: a node without a key skips the tag, like
        // untraced code skipping a trace context.
        let key = test_key();
        let sealed = seal_frame(
            NodeId::new(2),
            TraceCtx::NONE,
            Some(&key),
            &77u64.to_wire_bytes(),
        );
        let decoded: Decoded<u64> = decode_frame_sealed(&sealed, None);
        assert_eq!(decoded, Ok((NodeId::new(2), TraceCtx::NONE, 77)));
    }

    #[test]
    fn keyed_receivers_reject_bare_frames() {
        let key = test_key();
        let payload = 77u64.to_wire_bytes();
        let bare = seal_frame(NodeId::new(2), TraceCtx::NONE, None, &payload);
        assert_eq!(
            decode_frame_sealed::<u64>(&bare, Some(&key)),
            Err(WireError::AuthRequired)
        );
        let ctx = TraceCtx {
            trace_id: 1,
            hop: 0,
        };
        let traced = seal_frame(NodeId::new(2), ctx, None, &payload);
        assert_eq!(
            decode_frame_sealed::<u64>(&traced, Some(&key)),
            Err(WireError::AuthRequired)
        );
    }

    #[test]
    fn tampering_anywhere_invalidates_the_tag() {
        let key = test_key();
        let ctx = TraceCtx {
            trace_id: 123,
            hop: 1,
        };
        let payload = vec![1u64, 2, 3].to_wire_bytes();
        let sealed = seal_frame(NodeId::new(5), ctx, Some(&key), &payload);
        // Flip one bit at every position that keeps the frame structurally
        // parseable (skip magic/version/flags/length: those fail their own
        // structural checks first, which is also fine — just not BadAuthTag).
        for byte in 0..sealed.len() {
            let mut evil = sealed.clone();
            evil[byte] ^= 0x01;
            let got = decode_frame_sealed::<Vec<u64>>(&evil, Some(&key));
            assert!(got.is_err(), "flipping byte {byte} was accepted");
        }
        // Sender id and payload flips specifically must be BadAuthTag: the
        // frame still parses, only the tag disagrees.
        for byte in [4usize, 5, 6, 7, sealed.len() - 1] {
            let mut evil = sealed.clone();
            evil[byte] ^= 0x01;
            assert_eq!(
                decode_frame_sealed::<Vec<u64>>(&evil, Some(&key)),
                Err(WireError::BadAuthTag),
                "byte {byte}"
            );
        }
    }

    #[test]
    fn wrong_key_and_truncated_tag_are_rejected() {
        let key = test_key();
        let other = AuthKey::from_passphrase("not-the-cluster-key");
        let sealed = seal_frame(
            NodeId::new(5),
            TraceCtx::NONE,
            Some(&key),
            &42u64.to_wire_bytes(),
        );
        assert_eq!(
            decode_frame_sealed::<u64>(&sealed, Some(&other)),
            Err(WireError::BadAuthTag)
        );
        // Truncation at every cut is an error under a keyed decoder too.
        for cut in 0..sealed.len() {
            let err = decode_frame_sealed::<u64>(&sealed[..cut], Some(&key)).unwrap_err();
            assert!(
                !matches!(err, WireError::TrailingBytes { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn auth_flag_without_tag_bytes_is_a_bad_tag() {
        let mut w = WireWriter::new();
        w.put_u16(WIRE_MAGIC);
        w.put_u8(WIRE_VERSION);
        w.put_u8(FLAG_AUTH);
        w.put_u32(0);
        w.put_u32(0); // empty payload...
        w.put_u32(0xBEEF); // ...but only 4 of the 16 tag bytes
        assert_eq!(
            decode_frame_sealed::<u64>(&w.into_bytes(), Some(&test_key())),
            Err(WireError::BadAuthTag)
        );
    }
}
