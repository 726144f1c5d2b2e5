//! The `net.wire` / `net.auth` table: `seal_frame` and
//! `decode_frame_sealed` at the smallest (8 B) and a datagram-sized
//! (1400 B) payload, with and without the cluster key.

use crate::report::{median, Metrics};
use gossip_net::{decode_frame_sealed, seal_frame, AuthKey, NodeId, WireMsg};
use gossip_obs::TraceCtx;
use std::hint::black_box;
use std::time::Instant;

/// Batches timed per cell; the cell is their median.
const BATCHES: usize = 11;
/// Wall time one batch aims for.
const BATCH_NS: f64 = 4e6;

/// Median ns per call of `f`, over batches sized from a calibration pass.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..16 {
        f();
    }
    let per_call = started.elapsed().as_nanos() as f64 / 16.0;
    let calls = ((BATCH_NS / per_call.max(1.0)) as usize).clamp(16, 1 << 20);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

fn cell<M: WireMsg>(
    m: &mut Metrics,
    size: &str,
    key: &AuthKey,
    payload: &[u8],
    frame_sealed: &[u8],
) {
    let from = NodeId::new(7);
    let bare = seal_frame(from, TraceCtx::NONE, None, payload);
    for (label, key, frame) in [
        ("sealed", Some(key), frame_sealed),
        ("bare", None, &bare[..]),
    ] {
        let seal = ns_per_call(|| {
            black_box(seal_frame(
                from,
                TraceCtx::NONE,
                black_box(key),
                black_box(payload),
            ));
        });
        let decode = ns_per_call(|| {
            black_box(
                decode_frame_sealed::<M>(black_box(frame), black_box(key))
                    .expect("replayed frames decode"),
            );
        });
        m.push(format!("net.seal_frame.{size}.{label}_ns"), seal, "ns");
        m.push(
            format!("net.decode_frame_sealed.{size}.{label}_ns"),
            decode,
            "ns",
        );
    }
}

/// Time the codec on an 8-byte `f64` frame — `captured` when the run
/// produced one, else one sealed here the same way — and on a 1400-byte
/// payload.
pub fn table(key: &AuthKey, captured: Option<&[u8]>) -> Metrics {
    let mut m = Metrics::default();
    let small = 0.5f64.to_wire_bytes();
    let sealed_small = captured
        .map(<[u8]>::to_vec)
        .unwrap_or_else(|| seal_frame(NodeId::new(7), TraceCtx::NONE, Some(key), &small));
    cell::<f64>(&mut m, "8B", key, &small, &sealed_small);
    // A `Vec<u8>` payload is a 4-byte length and its bytes.
    let large = vec![0xA5u8; 1396].to_wire_bytes();
    assert_eq!(large.len(), 1400);
    let sealed_large = seal_frame(NodeId::new(7), TraceCtx::NONE, Some(key), &large);
    cell::<Vec<u8>>(&mut m, "1400B", key, &large, &sealed_large);
    m
}
