//! Frame authentication: in-tree SHA-256, HMAC-SHA256 and the cluster
//! [`AuthKey`].
//!
//! The socket host trusts the sender id in every frame header at
//! simulation grade — fine on loopback, not deployable. This module is
//! the dependency-free fix: a cluster shares one symmetric [`AuthKey`],
//! every frame carries a truncated HMAC-SHA256 tag over its header and
//! payload (the [`FLAG_AUTH`](crate::wire::FLAG_AUTH) extension), and a
//! keyed receiver rejects anything it cannot verify — counted
//! (`NodeStats::auth_reject`), never fatal, exactly like every other
//! hostile-input path in the stack.
//!
//! The build environment is offline (DESIGN.md §9), so the primitives are
//! implemented here rather than pulled from a crate: SHA-256 per FIPS
//! 180-4 and HMAC per RFC 2104, pinned against the FIPS examples and the
//! RFC 4231 HMAC-SHA-256 test vectors in the unit suite below. The tag is
//! truncated to [`AUTH_TAG_BYTES`] (128 bits) — RFC 2104 §5 truncation,
//! still far beyond what a datagram forger can search — to keep the
//! per-frame overhead at 16 bytes.
//!
//! **Keyed midstates.** Both HMAC passes begin by hashing one fixed block
//! per key, `key ⊕ ipad` and `key ⊕ opad`, so [`AuthKey`] runs those two
//! compressions once, at construction, and stores only the resulting
//! SHA-256 chaining values (RFC 2104 §4). A tag then resumes each pass at
//! length 64: the inner pass costs ⌈(m + 9) / 64⌉ compressions for an
//! m-byte frame and the outer pass one more, so a frame of up to 55
//! bytes (every 8-byte push) takes 2 compressions instead of 4, with no
//! heap allocation. The midstates are key-equivalent secrets — anyone
//! holding them can forge tags — so `Debug` redacts them and no accessor
//! exposes them. [`hmac_sha256`] runs the same key schedule per call, so
//! there is one HMAC code path, pinned by the RFC vectors below.
//!
//! What this does and does not give you: **authenticity and integrity**
//! of each frame under a shared cluster secret (a bit flip, a forged
//! sender id, an unkeyed attacker all fail the tag), but no
//! confidentiality (payloads travel in the clear) and no replay
//! protection (a verbatim captured frame verifies again; the protocols
//! themselves are idempotent max-merges, which is what makes that
//! tolerable). Key distribution is out of scope — pass the same
//! `--auth-key` to every node.

use std::fmt;

/// Bytes of truncated HMAC-SHA256 carried by an authenticated frame.
pub const AUTH_TAG_BYTES: usize = 16;

/// SHA-256 block size in bytes (the HMAC pad width).
const BLOCK_BYTES: usize = 64;

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// FIPS 180-4 §5.3.3 initial hash value.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The SHA-256 compression function: fold one 64-byte block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Streaming SHA-256 (FIPS 180-4). Incremental so HMAC's two passes never
/// concatenate buffers, and resumable from a midstate so a keyed HMAC
/// never re-absorbs its pad blocks.
struct Sha256 {
    state: [u32; 8],
    /// Bytes absorbed so far (for the length suffix).
    len: u64,
    block: [u8; BLOCK_BYTES],
    fill: usize,
}

impl Sha256 {
    fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// Continue a hash whose first `len` bytes (a whole number of blocks)
    /// left the chaining value `state`.
    fn resume(state: [u32; 8], len: u64) -> Self {
        debug_assert_eq!(len % BLOCK_BYTES as u64, 0);
        Sha256 {
            state,
            len,
            block: [0; BLOCK_BYTES],
            fill: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.fill > 0 {
            let take = (BLOCK_BYTES - self.fill).min(data.len());
            self.block[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < BLOCK_BYTES {
                return;
            }
            compress(&mut self.state, &self.block);
            self.fill = 0;
        }
        // Whole blocks straight from the input, no staging copy.
        let mut blocks = data.chunks_exact(BLOCK_BYTES);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().unwrap());
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    fn finish(mut self) -> [u8; 32] {
        // FIPS 180-4 §5.1.1: 0x80, zeros, then the 64-bit bit length in
        // the last 8 bytes — spilling into one more block when fewer than
        // 8 bytes remain after the marker.
        const LEN_AT: usize = BLOCK_BYTES - 8;
        self.block[self.fill] = 0x80;
        let marked = self.fill + 1;
        if marked > LEN_AT {
            self.block[marked..].fill(0);
            compress(&mut self.state, &self.block);
            self.block[..LEN_AT].fill(0);
        } else {
            self.block[marked..LEN_AT].fill(0);
        }
        self.block[LEN_AT..].copy_from_slice(&(self.len * 8).to_be_bytes());
        compress(&mut self.state, &self.block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// HMAC-SHA256 over `data` with `key` (RFC 2104): keys longer than one
/// block are hashed first, shorter ones zero-padded.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    AuthKey::keyed(key).mac(&[data])
}

/// The shared cluster secret that seals and verifies frames.
///
/// Every node of an authenticated cluster holds the same key; frames are
/// tagged with a truncated HMAC-SHA256 over their header and payload (see
/// [`seal_frame`](crate::wire::seal_frame)). The key is stored as its two
/// keyed HMAC midstates (see the module docs), which are as secret as the
/// key itself: `Debug` redacts them and nothing exposes them. Equality is
/// deliberately not derived — keys are compared only through tag
/// verification.
#[derive(Clone)]
pub struct AuthKey {
    /// SHA-256 chaining value after absorbing the block `key ⊕ ipad`.
    inner: [u32; 8],
    /// SHA-256 chaining value after absorbing the block `key ⊕ opad`.
    outer: [u32; 8],
}

impl AuthKey {
    /// A key from 32 raw bytes.
    pub fn from_bytes(key: [u8; 32]) -> Self {
        Self::keyed(&key)
    }

    /// A key derived from a shared passphrase (its SHA-256). The
    /// deployment path: every node is started with the same
    /// `--auth-key <phrase>`.
    pub fn from_passphrase(phrase: &str) -> Self {
        Self::from_bytes(sha256(phrase.as_bytes()))
    }

    /// The RFC 2104 key schedule for a key of any length, run once: pad
    /// the key to one block, then absorb `key ⊕ ipad` and `key ⊕ opad`.
    fn keyed(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_BYTES];
        if key.len() > BLOCK_BYTES {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let block = key_block.map(|b| b ^ pad);
            let mut state = H0;
            compress(&mut state, &block);
            state
        };
        AuthKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// The full HMAC-SHA256 of the concatenation of `parts`.
    fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, BLOCK_BYTES as u64);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::resume(self.outer, BLOCK_BYTES as u64);
        outer.update(&inner.finish());
        outer.finish()
    }

    /// The truncated HMAC-SHA256 tag of `data` under this key.
    pub fn tag(&self, data: &[u8]) -> [u8; AUTH_TAG_BYTES] {
        self.tag_parts(&[data])
    }

    /// [`tag`](AuthKey::tag) over the concatenation of `parts` without
    /// materialising it — the frame sealer MACs "header ‖ payload" while
    /// the tag sits between them on the wire.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> [u8; AUTH_TAG_BYTES] {
        let mut tag = [0u8; AUTH_TAG_BYTES];
        tag.copy_from_slice(&self.mac(parts)[..AUTH_TAG_BYTES]);
        tag
    }

    /// Whether `tag` is the valid tag of `data`. Compared without an
    /// early exit, so a byte-wise timing probe learns nothing about how
    /// far a forgery got.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        self.verify_parts(&[data], tag)
    }

    /// [`verify`](AuthKey::verify) over the concatenation of `parts`.
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &[u8]) -> bool {
        if tag.len() != AUTH_TAG_BYTES {
            return false;
        }
        let expect = self.tag_parts(parts);
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

impl fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material, not even in debug logs.
        f.write_str("AuthKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_the_fips_examples() {
        // FIPS 180-4 example values plus the empty string.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's: exercises many compressions and the counter.
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_padding_boundaries_are_exact() {
        // Lengths straddling the 55/56-byte padding split and the block
        // size itself — the classic off-by-one sites. Expected digests come
        // from an independent SHA-256: no FIPS or RFC vector leaves exactly
        // 55 bytes in the final block, where the 0x80 marker takes the last
        // byte before the length suffix.
        let lens = [54, 55, 56, 57, 63, 64, 65, 119, 120, 128];
        let digests = [
            "bbc9cf58477cda4f72a4d20d1ae6a95241ac924c3f310b86c4c8fb903e89d1ff",
            "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44",
            "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a",
            "30ab35131f9b368e840dc65fc1eb832706e748e3c5e44ec40bc19cd1ce5c0dc2",
            "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333",
            "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282",
            "b8de0db62b6c87db61345504a8038bf973d987e8d2111abd8beb407c0bf3d9db",
            "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e",
            "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee",
            "349d65e9ba1de7b0a13f9a3eadcc5b0202f15d6008fe9477f2a7b80f6194b20f",
        ];
        for (len, want) in lens.into_iter().zip(digests) {
            let data = vec![0x5au8; len];
            let streamed = {
                let mut h = Sha256::new();
                for chunk in data.chunks(7) {
                    h.update(chunk);
                }
                h.finish()
            };
            assert_eq!(hex(&streamed), want, "length {len}");
            assert_eq!(hex(&sha256(&data)), want, "length {len}");
        }
    }

    #[test]
    fn hmac_matches_rfc_4231_vectors() {
        // Test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: a key shorter than the hash output.
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 3: 0xaa-keyed over 0xdd data.
        assert_eq!(
            hex(&hmac_sha256(&[0xaa; 20], &[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Test case 6: a key longer than one block (hashed first).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        // Test case 7: long key and long data together.
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm."
            )),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn keys_tag_and_verify_and_reject_forgeries() {
        let key = AuthKey::from_passphrase("correct horse");
        let other = AuthKey::from_passphrase("correct horse!");
        let data = b"frame header and payload";
        let tag = key.tag(data);
        assert!(key.verify(data, &tag));
        assert!(!other.verify(data, &tag), "a different key must not verify");
        assert!(!key.verify(b"tampered payload", &tag));
        let mut flipped = tag;
        flipped[0] ^= 1;
        assert!(!key.verify(data, &flipped));
        assert!(!key.verify(data, &tag[..8]), "short tags never verify");
        assert!(!key.verify(data, &[]), "empty tags never verify");
    }

    /// Textbook HMAC-SHA256 (RFC 2104 §2) over one-shot SHA-256 of
    /// concatenated buffers — no midstates, no streaming across parts.
    fn reference_hmac(key: &[u8; 32], data: &[u8]) -> [u8; 32] {
        let pad = |byte: u8| -> Vec<u8> {
            let mut block = vec![byte; BLOCK_BYTES];
            for (b, k) in block.iter_mut().zip(key) {
                *b ^= k;
            }
            block
        };
        let inner = sha256(&[pad(0x36), data.to_vec()].concat());
        sha256(&[pad(0x5c), inner.to_vec()].concat())
    }

    #[test]
    fn midstate_tags_match_the_reference_at_every_length_and_split() {
        // The keyed stream starts at length 64, so message lengths 55/56
        // and 119/120 are where the padding spills into an extra block.
        let mut keys = vec![[0u8; 32], [0xff; 32], sha256(b"midstate")];
        let mut z = 0x5EED_u64;
        for _ in 0..2 {
            let mut key = [0u8; 32];
            for chunk in key.chunks_exact_mut(8) {
                z = crate::bits::mix64(z);
                chunk.copy_from_slice(&z.to_le_bytes());
            }
            keys.push(key);
        }
        let data: Vec<u8> = (0..200u64).map(|i| crate::bits::mix64(i) as u8).collect();
        for raw in keys {
            let key = AuthKey::from_bytes(raw);
            for len in 0..=data.len() {
                let msg = &data[..len];
                let expect = reference_hmac(&raw, msg);
                assert_eq!(hmac_sha256(&raw, msg), expect, "length {len}");
                let expect = &expect[..AUTH_TAG_BYTES];
                assert_eq!(key.tag(msg), expect, "length {len}");
                for cut in 0..=len {
                    let (a, b) = msg.split_at(cut);
                    let tag = key.tag_parts(&[a, b]);
                    assert_eq!(tag, expect, "length {len}, split at {cut}");
                    assert!(key.verify_parts(&[a, b], &tag));
                }
            }
        }
    }

    #[test]
    fn passphrase_and_byte_keys_agree() {
        let a = AuthKey::from_passphrase("s3cret");
        let b = AuthKey::from_bytes(sha256(b"s3cret"));
        let data = b"x";
        assert_eq!(a.tag(data), b.tag(data));
        // And the Debug impl never leaks material.
        assert_eq!(format!("{a:?}"), "AuthKey(..)");
    }
}
