//! FIPS 180-4 SHA-256.
//!
//! Dependency-free implementation with an incremental [`Sha256`]
//! hasher and one-shot [`sha256`] / [`sha256_concat`] helpers. The
//! compression function has two implementations: the portable
//! [`compress_scalar`], and [`compress_sha_ni`] on the x86 SHA
//! extensions (Gulley et al., *Intel SHA Extensions*, 2013). Every
//! compression picks SHA-NI when the CPU reports it at runtime and the
//! scalar code otherwise, so one binary runs everywhere.
//!
//! Messages of at most [`ONE_BLOCK_MAX`] bytes — every pair-PRF message
//! whose token is 23 bytes or shorter — fit one padded block and take
//! [`sha256_one_block`], which skips the streaming buffer entirely. A
//! batch of such messages (`one_block_states`: a pair-PRF sweep row,
//! or the inner and outer hashes of detect's stored pairs) checks CPU
//! features once and picks one of three backends: sixteen messages at
//! a time in the 32-bit lanes of AVX-512 registers (Gueron & Krasnov,
//! *Simultaneous Hashing of Multiple Messages*, 2012), else two SHA-NI
//! compressions interleaved, else two scalar ones.

use crate::Digest;

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
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

/// Initial hash state (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use freqywm_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     freqywm_crypto::hex::encode(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte block"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the digest. Consumes the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length, written
        // into the buffer directly.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        state_bytes(&self.state)
    }
}

/// Big-endian serialisation of a finished state.
pub(crate) fn state_bytes(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// One compression with the fastest implementation the CPU supports.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !compress_sha_ni(state, block) {
        compress_scalar(state, block);
    }
}

/// The portable SHA-256 compression function: absorbs one 64-byte
/// block into `state`.
pub fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
        let ch = (e & f) ^ ((!e) & g);
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

/// The SHA-256 compression on the x86 SHA extensions. Returns `false`,
/// leaving `state` untouched, when the CPU lacks SHA, SSSE3 or SSE4.1
/// (or is not x86-64); the caller then falls back to
/// [`compress_scalar`].
#[inline]
pub fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `available()` just confirmed at runtime that the CPU
        // supports every feature `sha_ni::compress` is compiled for.
        unsafe { sha_ni::compress(state, block) };
        return true;
    }
    let _ = (state, block);
    false
}

/// Whether [`compress_sha_ni`] runs on this CPU.
pub fn sha_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return sha_ni::available();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Two independent compressions: `states[k]` absorbs `blocks[k]`.
fn compress2_scalar(states: &mut [[u32; 8]; 2], blocks: [&[u8; 64]; 2]) {
    compress_scalar(&mut states[0], blocks[0]);
    compress_scalar(&mut states[1], blocks[1]);
}

#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Four rounds: adds the round constants to the schedule words `w`
    /// and runs two `sha256rnds2` steps.
    ///
    /// # Safety
    ///
    /// As for [`compress`]; `i` must be below 16.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        // SAFETY: `i < 16`, so the 16-byte load at `K[4 * i]` stays in
        // the 64-word table; `loadu` has no alignment requirement.
        let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast());
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four message-schedule words from the previous sixteen.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// A state in the `(ABEF, CDGH)` register layout `sha256rnds2`
    /// works on.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_state(state: &[u32; 8]) -> (__m128i, __m128i) {
        // SAFETY: `state` is 32 bytes, read as two unaligned 16-byte lanes.
        let p = state.as_ptr().cast::<__m128i>();
        let dcba = _mm_shuffle_epi32(_mm_loadu_si128(p), 0xB1);
        let hgfe = _mm_shuffle_epi32(_mm_loadu_si128(p.add(1)), 0x1B);
        (
            _mm_alignr_epi8(dcba, hgfe, 8),
            _mm_blend_epi16(hgfe, dcba, 0xF0),
        )
    }

    /// Inverse of [`load_state`].
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn store_state(state: &mut [u32; 8], abef: __m128i, cdgh: __m128i) {
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: `state` is 32 bytes, written as two unaligned 16-byte
        // lanes.
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(p.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }

    /// The four big-endian message words of `block`.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_block(block: &[u8; 64]) -> [__m128i; 4] {
        // Byte-swaps each 32-bit word (the message is big-endian).
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `block` is 64 bytes, read as four unaligned 16-byte
        // lanes.
        let m = block.as_ptr().cast::<__m128i>();
        [
            _mm_shuffle_epi8(_mm_loadu_si128(m), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(m.add(1)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(m.add(2)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(m.add(3)), bswap),
        ]
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSSE3 and SSE4.1 ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let (mut abef, mut cdgh) = load_state(state);
        let (abef_in, cdgh_in) = (abef, cdgh);
        let [mut w0, mut w1, mut w2, mut w3] = load_block(block);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for i in 4..16 {
            let w4 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w4, i);
            (w0, w1, w2, w3) = (w1, w2, w3, w4);
        }
        store_state(
            state,
            _mm_add_epi32(abef, abef_in),
            _mm_add_epi32(cdgh, cdgh_in),
        );
    }

    /// Two independent compressions with their rounds interleaved, so
    /// one lane's `sha256rnds2` issues while the other's is in flight.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress2(states: &mut [[u32; 8]; 2], blocks: [&[u8; 64]; 2]) {
        let (mut abef0, mut cdgh0) = load_state(&states[0]);
        let (mut abef1, mut cdgh1) = load_state(&states[1]);
        let (abef0_in, cdgh0_in, abef1_in, cdgh1_in) = (abef0, cdgh0, abef1, cdgh1);
        let mut w = load_block(blocks[0]);
        let mut v = load_block(blocks[1]);
        for i in 0..4 {
            rounds4(&mut abef0, &mut cdgh0, w[i], i);
            rounds4(&mut abef1, &mut cdgh1, v[i], i);
        }
        for i in 4..16 {
            let w4 = schedule(w[0], w[1], w[2], w[3]);
            let v4 = schedule(v[0], v[1], v[2], v[3]);
            rounds4(&mut abef0, &mut cdgh0, w4, i);
            rounds4(&mut abef1, &mut cdgh1, v4, i);
            w = [w[1], w[2], w[3], w4];
            v = [v[1], v[2], v[3], v4];
        }
        store_state(
            &mut states[0],
            _mm_add_epi32(abef0, abef0_in),
            _mm_add_epi32(cdgh0, cdgh0_in),
        );
        store_state(
            &mut states[1],
            _mm_add_epi32(abef1, abef1_in),
            _mm_add_epi32(cdgh1, cdgh1_in),
        );
    }

    /// [`super::one_block_states`] on the SHA extensions.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn one_block_states<'m, T: AsRef<[u8]> + 'm>(
        messages: impl IntoIterator<Item = (&'m [u8], T)>,
        emit: impl FnMut(&[u32; 8]),
    ) {
        super::lane_sweep(messages, emit, |lanes: &[super::Lane; 2], states| {
            // SAFETY: the caller of this function guarantees the CPU
            // features `compress2` needs.
            unsafe { compress2(states, [&lanes[0].block, &lanes[1].block]) }
        });
    }
}

/// Sixteen one-block compressions at once, one per 32-bit lane of the
/// AVX-512 registers: the scalar rounds, each operation applied to
/// sixteen independent messages.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Lane, H0, K};
    use std::arch::x86_64::*;

    /// Lanes per batch.
    pub(super) const LANES: usize = 16;

    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
    }

    /// `rotr(x, a) ^ rotr(x, b) ^ rotr(x, c)` in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn big_sigma<const A: i32, const B: i32, const C: i32>(x: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<A>(x),
            _mm512_ror_epi32::<B>(x),
            _mm512_ror_epi32::<C>(x),
        )
    }

    /// `rotr(x, a) ^ rotr(x, b) ^ (x >> c)` in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn small_sigma<const A: i32, const B: i32, const C: u32>(x: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<A>(x),
            _mm512_ror_epi32::<B>(x),
            _mm512_srli_epi32::<C>(x),
        )
    }

    /// Compresses each lane's block from [`H0`] and writes the finished
    /// state of lane `k` to `states[k]`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512BW ([`available`]).
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn compress16(lanes: &[Lane; LANES], states: &mut [[u32; 8]; LANES]) {
        const STRIDE: i32 = std::mem::size_of::<Lane>() as i32;
        // Byte offsets of the lanes' blocks, and the shuffle that turns
        // each little-endian load into the block's big-endian word.
        let lane_offsets = _mm512_mullo_epi32(
            _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
            _mm512_set1_epi32(STRIDE),
        );
        let bswap =
            _mm512_broadcast_i32x4(_mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203));
        let base = lanes.as_ptr().cast::<i32>();
        let mut w = [_mm512_setzero_si512(); 64];
        for (t, wt) in w[..16].iter_mut().enumerate() {
            let offsets = _mm512_add_epi32(lane_offsets, _mm512_set1_epi32(4 * t as i32));
            // SAFETY: `Lane` is `repr(C)` with its 64-byte block first,
            // so lane `k`'s word `t` is the 4 bytes at `k · STRIDE + 4t`
            // past `base`, inside `lanes` for every `k < 16`, `t < 16`;
            // a gather needs no alignment.
            let words = unsafe { _mm512_i32gather_epi32::<1>(offsets, base) };
            *wt = _mm512_shuffle_epi8(words, bswap);
        }
        for t in 16..64 {
            w[t] = _mm512_add_epi32(
                _mm512_add_epi32(small_sigma::<17, 19, 10>(w[t - 2]), w[t - 7]),
                _mm512_add_epi32(small_sigma::<7, 18, 3>(w[t - 15]), w[t - 16]),
            );
        }
        let init = H0.map(|h| _mm512_set1_epi32(h as i32));
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = init;
        for (wt, kt) in w.iter().zip(K) {
            let kw = _mm512_add_epi32(*wt, _mm512_set1_epi32(kt as i32));
            let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
            let t1 = _mm512_add_epi32(
                _mm512_add_epi32(h, kw),
                _mm512_add_epi32(big_sigma::<6, 11, 25>(e), ch),
            );
            let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
            let t2 = _mm512_add_epi32(big_sigma::<2, 13, 22>(a), maj);
            h = g;
            g = f;
            f = e;
            e = _mm512_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm512_add_epi32(t1, t2);
        }
        // Transpose the eight state-word vectors into per-lane states.
        let mut words = [[0u32; LANES]; 8];
        for ((out, v), v0) in words.iter_mut().zip([a, b, c, d, e, f, g, h]).zip(init) {
            // SAFETY: `out` is 64 bytes, written as one unaligned vector.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), _mm512_add_epi32(v, v0)) };
        }
        for (k, state) in states.iter_mut().enumerate() {
            *state = std::array::from_fn(|i| words[i][k]);
        }
    }

    /// [`super::one_block_states`] on AVX-512.
    ///
    /// # Safety
    ///
    /// As for [`compress16`].
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn one_block_states<'m, T: AsRef<[u8]> + 'm>(
        messages: impl IntoIterator<Item = (&'m [u8], T)>,
        emit: impl FnMut(&[u32; 8]),
    ) {
        super::lane_sweep(messages, emit, |lanes, states| {
            // SAFETY: the caller of this function guarantees the CPU
            // features `compress16` needs.
            unsafe { compress16(lanes, states) }
        });
    }
}

/// Longest message that fits one padded block: 64 bytes minus the
/// `0x80` terminator and the 8-byte length.
pub const ONE_BLOCK_MAX: usize = 55;

/// Writes the padding of a `len`-byte one-block message (`len ≤`
/// [`ONE_BLOCK_MAX`]) into `block`, whose bytes past `len` are zero.
fn pad_one_block(block: &mut [u8; 64], len: usize) {
    block[len] = 0x80;
    block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
}

/// SHA-256 of the concatenation of `parts` in one compression, or
/// `None` when they total more than [`ONE_BLOCK_MAX`] bytes.
pub fn sha256_one_block(parts: &[&[u8]]) -> Option<Digest> {
    let mut block = [0u8; 64];
    let mut len = 0;
    for p in parts {
        block.get_mut(len..len + p.len())?.copy_from_slice(p);
        len += p.len();
    }
    if len > ONE_BLOCK_MAX {
        return None;
    }
    pad_one_block(&mut block, len);
    let mut state = H0;
    compress(&mut state, &block);
    Some(state_bytes(&state))
}

/// The finished SHA-256 state of every two-part message `head ‖ tail`
/// in `messages`, passed to `emit` in order — the big-endian bytes of
/// a state are the digest. Every message must fit one block (`head`
/// and `tail` together at most [`ONE_BLOCK_MAX`] bytes); a longer one
/// panics.
///
/// The CPU is asked once per call for its fastest backend: sixteen
/// messages at a time on AVX-512F and AVX-512BW, else two interleaved
/// SHA-NI compressions, else two scalar ones.
pub(crate) fn one_block_states<'m, T: AsRef<[u8]> + 'm>(
    messages: impl IntoIterator<Item = (&'m [u8], T)>,
    emit: impl FnMut(&[u32; 8]),
) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512::available() {
            // SAFETY: `available()` just confirmed the CPU features.
            unsafe { avx512::one_block_states(messages, emit) };
            return;
        }
        if sha_ni::available() {
            // SAFETY: `available()` just confirmed the CPU features.
            unsafe { sha_ni::one_block_states(messages, emit) };
            return;
        }
    }
    scalar_one_block_states(messages, emit);
}

/// [`one_block_states`] on the portable compression, whatever the CPU.
fn scalar_one_block_states<'m, T: AsRef<[u8]> + 'm>(
    messages: impl IntoIterator<Item = (&'m [u8], T)>,
    emit: impl FnMut(&[u32; 8]),
) {
    lane_sweep(messages, emit, |lanes: &[Lane; 2], states| {
        compress2_scalar(states, [&lanes[0].block, &lanes[1].block])
    });
}

/// One lane's padded block, the head slice it was last written from
/// and the length of the message it holds. `repr(C)` puts the block
/// first, so a lane array is blocks at a fixed stride.
#[derive(Clone, Copy)]
#[repr(C)]
struct Lane {
    block: [u8; 64],
    head: (*const u8, usize),
    len: usize,
}

impl Lane {
    const EMPTY: Lane = Lane {
        block: [0; 64],
        head: (std::ptr::null(), usize::MAX),
        len: usize::MAX,
    };

    /// Writes the one-block message `head ‖ tail` over the previous
    /// one, copying `head` only when it is a different slice (a sweep
    /// row repeats one) and re-padding only when the length changed.
    ///
    /// Every head of one sweep is borrowed for the whole sweep, so a
    /// slice at the same address and length holds the same bytes.
    #[inline(always)]
    fn write(&mut self, head: &[u8], tail: &[u8]) {
        let len = head.len() + tail.len();
        assert!(len <= ONE_BLOCK_MAX, "{len}-byte message exceeds one block");
        if (head.as_ptr(), head.len()) != self.head {
            self.block[..head.len()].copy_from_slice(head);
            self.head = (head.as_ptr(), head.len());
        }
        self.block[head.len()..len].copy_from_slice(tail);
        if len != self.len {
            self.block[len..56].fill(0);
            pad_one_block(&mut self.block, len);
            self.len = len;
        }
    }
}

/// Writes up to `N` messages into `N` lanes, has `compress` turn the
/// lanes into finished states (each lane's block compressed from
/// [`H0`]), and passes each message's state to `emit` in order. A short
/// last batch compresses whatever its idle lanes last held and emits
/// only its real lanes.
#[inline(always)]
fn lane_sweep<'m, T: AsRef<[u8]> + 'm, const N: usize>(
    messages: impl IntoIterator<Item = (&'m [u8], T)>,
    mut emit: impl FnMut(&[u32; 8]),
    compress: impl Fn(&[Lane; N], &mut [[u32; 8]; N]),
) {
    let mut lanes = [Lane::EMPTY; N];
    let mut messages = messages.into_iter();
    loop {
        let mut n = 0;
        // `zip` asks the lanes first, so a full batch leaves the next
        // message in `messages`.
        for (lane, (head, tail)) in lanes.iter_mut().zip(messages.by_ref()) {
            lane.write(head, tail.as_ref());
            n += 1;
        }
        if n == 0 {
            return;
        }
        let mut states = [H0; N];
        compress(&lanes, &mut states);
        states[..n].iter().for_each(&mut emit);
        if n < N {
            return;
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    sha256_concat(&[data])
}

/// One-shot SHA-256 over the concatenation of several byte slices,
/// avoiding an intermediate allocation.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    if let Some(d) = sha256_one_block(parts) {
        return d;
    }
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn hash_hex(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    /// The five FIPS 180-4 / NIST example messages and their digests.
    fn nist_vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// SHA-256 of `data` through one given compression function, with
    /// the padding done here rather than by [`Sha256`].
    fn hash_with(compress: impl Fn(&mut [u32; 8], &[u8; 64]), data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        state_bytes(&state)
    }

    /// [`compress_sha_ni`] as a plain compression; panics on a CPU
    /// without SHA-NI, so callers check [`sha_ni_available`] first.
    fn sha_ni_only(state: &mut [u32; 8], block: &[u8; 64]) {
        assert!(compress_sha_ni(state, block), "SHA-NI unavailable");
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits() {
        assert_eq!(
            hash_hex(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hash_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn nist_vectors_through_compress_scalar() {
        for (msg, want) in nist_vectors() {
            assert_eq!(hex::encode(&hash_with(compress_scalar, &msg)), want);
        }
    }

    #[test]
    fn nist_vectors_through_compress_sha_ni() {
        if !sha_ni_available() {
            eprintln!("CPU lacks SHA-NI; only the scalar compression is tested");
            return;
        }
        for (msg, want) in nist_vectors() {
            assert_eq!(hex::encode(&hash_with(sha_ni_only, &msg)), want);
        }
    }

    #[test]
    fn compressions_agree_on_random_state_and_block() {
        if !sha_ni_available() {
            eprintln!("CPU lacks SHA-NI; only the scalar compression is tested");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5_4a_2b);
        for _ in 0..2_000 {
            let mut state = [0u32; 8];
            state.iter_mut().for_each(|w| *w = rng.next_u32());
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let (mut a, mut b) = (state, state);
            compress_scalar(&mut a, &block);
            sha_ni_only(&mut b, &block);
            assert_eq!(a, b, "state {state:08x?}");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn two_lane_compressions_agree_on_random_block_pairs() {
        if !sha_ni_available() {
            eprintln!("CPU lacks SHA-NI; only the scalar compression is tested");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x2_1a_7e);
        for _ in 0..2_000 {
            let mut states = [[0u32; 8]; 2];
            states
                .iter_mut()
                .flatten()
                .for_each(|w| *w = rng.next_u32());
            let mut blocks = [[0u8; 64]; 2];
            blocks.iter_mut().for_each(|b| rng.fill_bytes(b));
            let (mut a, mut b) = (states, states);
            compress2_scalar(&mut a, [&blocks[0], &blocks[1]]);
            // SAFETY: `sha_ni_available()` confirmed the CPU features.
            unsafe { sha_ni::compress2(&mut b, [&blocks[0], &blocks[1]]) };
            assert_eq!(a, b, "states {states:08x?}");
        }
    }

    #[test]
    fn one_block_states_match_one_block_hashes() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(53)).collect();
        let suffixes: Vec<Digest> = (0..5u32).map(|i| sha256(&i.to_be_bytes())).collect();
        for prefix_len in 0..=ONE_BLOCK_MAX - 32 {
            let prefix = &data[..prefix_len];
            for n in 0..=suffixes.len() {
                let messages = || suffixes[..n].iter().map(|d| (prefix, d));
                let want: Vec<Digest> = messages().map(|(p, d)| sha256_concat(&[p, d])).collect();
                let mut got = Vec::new();
                one_block_states(messages(), |s| got.push(state_bytes(s)));
                assert_eq!(got, want, "prefix {prefix_len}, {n} suffixes");
                // The scalar lanes, whatever this CPU picks above.
                let mut scalar = Vec::new();
                scalar_one_block_states(messages(), |s| scalar.push(state_bytes(s)));
                assert_eq!(scalar, want, "scalar, prefix {prefix_len}, {n} suffixes");
            }
        }
    }

    #[test]
    fn one_block_states_repad_lanes_as_message_lengths_change() {
        let data: Vec<u8> = (0..ONE_BLOCK_MAX as u8)
            .map(|i| i.wrapping_mul(29))
            .collect();
        // Heads and tails of every length, in an order that grows and
        // shrinks each lane's message.
        let messages: Vec<(&[u8], &[u8])> = (0..=ONE_BLOCK_MAX)
            .flat_map(|len| [len, ONE_BLOCK_MAX - len])
            .map(|len| data[..len].split_at(len / 3))
            .collect();
        let want: Vec<Digest> = messages
            .iter()
            .map(|(h, t)| sha256_concat(&[h, t]))
            .collect();
        for n in 0..=messages.len() {
            let mut got = Vec::new();
            one_block_states(messages[..n].iter().copied(), |s| got.push(state_bytes(s)));
            assert_eq!(got, want[..n], "{n} messages");
            let mut scalar = Vec::new();
            scalar_one_block_states(messages[..n].iter().copied(), |s| {
                scalar.push(state_bytes(s))
            });
            assert_eq!(scalar, want[..n], "scalar, {n} messages");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn sixteen_lane_compressions_match_compress_scalar() {
        if !avx512::available() {
            eprintln!("CPU lacks AVX-512F/BW; the sixteen-lane kernel is not tested");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x161a7e);
        let mut lanes = [Lane::EMPTY; avx512::LANES];
        for _ in 0..500 {
            lanes.iter_mut().for_each(|l| rng.fill_bytes(&mut l.block));
            let mut got = [[0u32; 8]; avx512::LANES];
            // SAFETY: `avx512::available()` confirmed the CPU features.
            unsafe { avx512::compress16(&lanes, &mut got) };
            for (lane, state) in lanes.iter().zip(&got) {
                let mut want = H0;
                compress_scalar(&mut want, &lane.block);
                assert_eq!(*state, want, "block {:02x?}", lane.block);
            }
        }
    }

    #[test]
    fn one_block_backends_agree_on_every_ragged_batch() {
        let mut rng = StdRng::seed_from_u64(0xba7c4);
        let mut bytes = |n: usize| {
            let mut v = vec![0u8; n];
            rng.fill_bytes(&mut v);
            v
        };
        // Heads of 0–23 bytes, each borrowed for many messages as a
        // sweep row borrows its token, and tails that make messages of
        // every length up to one block.
        let heads: Vec<Vec<u8>> = (0..8).map(|k| bytes(k * 23 / 7)).collect();
        let tails: Vec<Vec<u8>> = (0..=ONE_BLOCK_MAX).map(&mut bytes).collect();
        for n in 0..=40 {
            for round in 0..25 {
                // A head runs for 1–10 messages, so it changes inside a
                // sixteen-message batch.
                let messages: Vec<(&[u8], &[u8])> = (0..n)
                    .map(|k| {
                        let head = &heads[(k / (1 + (round + n) % 10) + round) % heads.len()];
                        let tail_len = (7 * k + 3 * round + n) % (ONE_BLOCK_MAX - head.len() + 1);
                        (&head[..], &tails[tail_len][..tail_len])
                    })
                    .collect();
                let want: Vec<Digest> = messages
                    .iter()
                    .map(|(h, t)| sha256_concat(&[h, t]))
                    .collect();
                let mut got = Vec::new();
                one_block_states(messages.iter().copied(), |s| got.push(state_bytes(s)));
                assert_eq!(got, want, "{n} messages, round {round}");
                let mut scalar = Vec::new();
                scalar_one_block_states(messages.iter().copied(), |s| scalar.push(state_bytes(s)));
                assert_eq!(scalar, want, "scalar, {n} messages, round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds one block")]
    fn one_block_states_refuse_a_message_over_one_block() {
        one_block_states([(&[0u8; 24][..], [0u8; 32])], |_| {});
    }

    #[test]
    fn one_block_matches_streaming_at_every_length_and_split() {
        let data: Vec<u8> = (0..ONE_BLOCK_MAX as u8)
            .map(|i| i.wrapping_mul(37))
            .collect();
        for len in 0..=ONE_BLOCK_MAX {
            let msg = &data[..len];
            let mut h = Sha256::new();
            h.update(msg);
            let want = h.finalize();
            for split in 0..=len {
                let (a, b) = msg.split_at(split);
                assert_eq!(
                    sha256_one_block(&[a, b]),
                    Some(want),
                    "len {len} split {split}"
                );
            }
        }
        assert_eq!(sha256_one_block(&[&[0u8; 40], &[0u8; 16]]), None);
        assert_eq!(sha256_one_block(&[&[0u8; 70]]), None);
    }

    #[test]
    fn incremental_matches_oneshot_across_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog again and again";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn sha256_concat_matches_manual_concat() {
        let a = b"hello ".as_slice();
        let b = b"frequency ".as_slice();
        let c = b"watermark".as_slice();
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        joined.extend_from_slice(c);
        assert_eq!(sha256_concat(&[a, b, c]), sha256(&joined));
    }

    #[test]
    fn padding_edge_lengths() {
        // Lengths around the 56-byte padding boundary exercise the
        // two-block padding path.
        for len in 50..70usize {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let d1 = h.finalize();
            let d2 = sha256(&data);
            assert_eq!(d1, d2, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"token-a"), sha256(b"token-b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
