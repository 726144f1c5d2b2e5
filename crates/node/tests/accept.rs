//! The accept pipeline without sockets: two keyed [`NodeCore`]s exchange
//! frames through the `Vec` [`FrameSink`](gossip_node::FrameSink), and
//! hostile datagrams go straight into `on_datagram`. Decode,
//! authentication, sender checks and dispatch are covered here even
//! where the environment forbids binds.

use gossip_net::{
    seal_frame, AuthKey, Handler, Mailbox, NodeId, Phase, TimerId, WireMsg, FLAG_AUTH,
    FRAME_HEADER_BYTES,
};
use gossip_node::{NodeCore, NodeStats, Recv};
use gossip_obs::TraceCtx;
use std::net::SocketAddr;

/// Node 0 sends one `7` to node 1 at start; every node records what it
/// receives and never replies.
#[derive(Debug, Default)]
struct Inbox {
    got: Vec<(NodeId, u64)>,
}

impl Handler for Inbox {
    type Msg = u64;
    fn on_start(&mut self, mailbox: &mut dyn Mailbox<u64>) {
        if mailbox.me().index() == 0 {
            mailbox.send(NodeId::new(1), Phase::Other, 64, 7);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: u64, _: &mut dyn Mailbox<u64>) {
        self.got.push((from, msg));
    }
    fn on_timer(&mut self, _: TimerId, _: &mut dyn Mailbox<u64>) {}
}

#[test]
fn keyed_cores_exchange_frames_and_count_every_reject_without_sockets() {
    let key = AuthKey::from_passphrase("socket-free-core");
    let peers: Vec<SocketAddr> = vec![
        "127.0.0.1:9001".parse().unwrap(),
        "127.0.0.1:9002".parse().unwrap(),
    ];
    let core = |i: usize| {
        NodeCore::new(NodeId::new(i), peers.clone(), 5, Inbox::default()).with_auth_key(key.clone())
    };
    let (mut a, mut b) = (core(0), core(1));
    let mut out_a: Vec<(SocketAddr, Vec<u8>)> = Vec::new();
    let mut out_b: Vec<(SocketAddr, Vec<u8>)> = Vec::new();
    a.start(&mut out_a);
    b.start(&mut out_b);

    // A's start-up send is captured, sealed and addressed to B.
    assert_eq!(out_a.len(), 1);
    let (to, frame) = out_a.pop().unwrap();
    assert_eq!(to, peers[1]);
    assert_eq!(frame[3], FLAG_AUTH);
    assert_eq!(a.stats().datagrams_sent, 1);
    assert_eq!(a.stats().bytes_sent, frame.len() as u64);

    // Delivered from A's address book entry: dispatched.
    assert_eq!(
        b.on_datagram(&frame, peers[0], &mut out_b),
        Recv::Dispatched
    );
    assert_eq!(b.handler().got, vec![(NodeId::new(0), 7)]);

    // A bare frame at a keyed core: rejected by authentication.
    let payload = 9u64.to_wire_bytes();
    let bare = seal_frame(NodeId::new(0), TraceCtx::NONE, None, &payload);
    assert_eq!(b.on_datagram(&bare, peers[0], &mut out_b), Recv::Rejected);

    // Sealed with the right key but from a sender id outside 0..n.
    let stranger = seal_frame(NodeId::new(2), TraceCtx::NONE, Some(&key), &payload);
    assert_eq!(
        b.on_datagram(&stranger, peers[0], &mut out_b),
        Recv::Rejected
    );

    // A's frame from an address the book does not list: counted, and
    // still dispatched (the tag already proved key possession).
    let elsewhere: SocketAddr = "127.0.0.1:9999".parse().unwrap();
    assert_eq!(
        b.on_datagram(&frame, elsewhere, &mut out_b),
        Recv::Dispatched
    );
    assert_eq!(b.handler().got, vec![(NodeId::new(0), 7); 2]);

    // Cut inside the header: a decode error, before any tag is read.
    let truncated = &frame[..FRAME_HEADER_BYTES - 1];
    assert_eq!(
        b.on_datagram(truncated, peers[0], &mut out_b),
        Recv::Rejected
    );

    assert!(out_b.is_empty(), "B never replies");
    let received = [
        &frame,
        &bare,
        &stranger,
        &frame,
        &frame[..FRAME_HEADER_BYTES - 1],
    ];
    assert_eq!(
        *b.stats(),
        NodeStats {
            handler_starts: 1,
            messages_dispatched: 2,
            datagrams_received: received.len() as u64,
            bytes_received: received.iter().map(|f| f.len() as u64).sum(),
            decode_errors: 1,
            auth_reject: 1,
            unknown_sender_drops: 1,
            addr_mismatches: 1,
            ..NodeStats::default()
        }
    );
}
