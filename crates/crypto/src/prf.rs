//! The FreqyWM pair PRF and deterministic keystream.
//!
//! The watermarking secret is a high-entropy value `R ← {0,1}^λ`
//! (λ = 256 here). For a candidate token pair `(tk_i, tk_j)` the paper
//! derives a per-pair modulus
//!
//! ```text
//! s_ij = H(tk_i || H(R || tk_j)) mod z
//! ```
//!
//! where `||` is byte concatenation and `z ∈ Z+` is the public-ish
//! modulo parameter. [`pair_modulus`] implements exactly this, reducing
//! the 256-bit digest modulo `z` in big-endian order. It is the
//! composition of [`inner_digest`] (`H(R || tk_j)`, per token) and
//! [`outer_modulus`] (per pair), which sweeps over many pairs call
//! separately. Two batched forms hash many messages per call, sixteen
//! at a time on AVX-512 (see [`crate::sha256`]), and reduce each state
//! with a modulus precomputed for the call: [`outer_moduli`] for one
//! sweep row, and [`pair_moduli`] for a list of pairs (detect's stored
//! pairs and maintenance's).
//!
//! [`KeyStream`] turns the same secret into a deterministic random
//! stream (HMAC-SHA-256 in counter mode). The generation algorithm uses
//! it to pick *random insertion positions* for added tokens — the paper
//! notes these positions must be keyed, otherwise the placement of the
//! new instances would leak the watermarked pairs.

use crate::hmac::hmac_sha256;
use crate::sha256::{one_block_states, sha256_concat, state_bytes, Sha256, ONE_BLOCK_MAX};
use crate::{Digest, DIGEST_LEN};
use rand::{CryptoRng, RngCore, SeedableRng};

/// Security parameter λ in bytes (256 bits, matching SHA-256 output).
pub const SECRET_LEN: usize = 32;

/// The high-entropy watermarking secret `R`.
///
/// Created freshly via [`Secret::generate`] (OS entropy through
/// `rand::rngs::OsRng`) or deterministically for tests via
/// [`Secret::from_bytes`].
#[derive(Clone, PartialEq, Eq)]
pub struct Secret {
    bytes: [u8; SECRET_LEN],
}

impl std::fmt::Debug for Secret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the raw secret.
        write!(f, "Secret(…{:02x}{:02x})", self.bytes[30], self.bytes[31])
    }
}

impl Secret {
    /// Samples a fresh λ-bit secret from the provided RNG.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; SECRET_LEN];
        rng.fill_bytes(&mut bytes);
        Secret { bytes }
    }

    /// Builds a secret from raw bytes (secret import, tests).
    pub fn from_bytes(bytes: [u8; SECRET_LEN]) -> Self {
        Secret { bytes }
    }

    /// Deterministic secret derived from a string label. **Test and
    /// example use only** — real deployments must use [`Secret::generate`].
    pub fn from_label(label: &str) -> Self {
        Secret {
            bytes: crate::sha256::sha256(label.as_bytes()),
        }
    }

    /// Raw secret bytes (for serialisation by the owner).
    pub fn as_bytes(&self) -> &[u8; SECRET_LEN] {
        &self.bytes
    }

    /// Hex representation (for secret files).
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.bytes)
    }

    /// Parses a hex representation produced by [`Secret::to_hex`].
    pub fn from_hex(s: &str) -> Option<Self> {
        let v = crate::hex::decode(s)?;
        let bytes: [u8; SECRET_LEN] = v.try_into().ok()?;
        Some(Secret { bytes })
    }

    /// Overwrites the secret bytes with zeros. Called automatically on
    /// drop; exposed for callers that want to wipe eagerly (e.g. a key
    /// registry evicting a tenant).
    pub fn zeroize(&mut self) {
        for b in self.bytes.iter_mut() {
            // Volatile so the wipe cannot be optimised away as a dead
            // store right before deallocation.
            // SAFETY: `b` is an exclusive, aligned reference into
            // `self.bytes`, valid for a one-byte write.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }

    /// Non-reversible 64-bit tag for cache keying: a domain-separated
    /// SHA-256 of the secret, truncated. Safe to store next to cached
    /// PRF outputs — recovering `R` from it is a preimage attack — and
    /// stable across processes for the same secret.
    pub fn cache_tag(&self) -> u64 {
        let mut h = Sha256::new();
        h.update(b"freqywm/cache-tag/v1");
        h.update(&self.bytes);
        let d = h.finalize();
        u64::from_be_bytes(d[..8].try_into().expect("8-byte prefix"))
    }
}

impl Drop for Secret {
    /// Zeroize-on-drop: the high-entropy secret never lingers in freed
    /// memory.
    fn drop(&mut self) {
        self.zeroize();
    }
}

/// Reduces the 256-bit number with big-endian 64-bit `limbs` modulo
/// `z` (`z ≥ 1`), one limb at a time: `acc < z` holds between steps,
/// so `acc · 2^64 + limb` fits a `u128`.
fn limbs_mod(limbs: [u64; 4], z: u64) -> u64 {
    debug_assert!(z > 0);
    let z128 = u128::from(z);
    let mut acc = limbs[0] % z;
    for limb in &limbs[1..] {
        acc = (((u128::from(acc) << 64) | u128::from(*limb)) % z128) as u64;
    }
    acc
}

/// A 256-bit big-endian digest modulo `z`.
fn digest_mod(digest: &Digest, z: u64) -> u64 {
    let limb = |k: usize| u64::from_be_bytes(digest[8 * k..8 * k + 8].try_into().expect("8 bytes"));
    limbs_mod([limb(0), limb(1), limb(2), limb(3)], z)
}

/// Reduces finished SHA-256 states modulo one fixed `z`, with the
/// constants precomputed once per sweep row or batch; like
/// [`limbs_mod`], it panics on a reduction modulo 0. A state's words
/// are the digest's big-endian 32-bit words, so no digest bytes are
/// built.
///
/// For `2 ≤ z < 2^32` a state `Σ w_k · 2^(32·(7−k))` is congruent to
/// `s = Σ w_k · c_k` with `c_k = 2^(32·(7−k)) mod z`, and `s < 2^67` is
/// reduced by two Barrett steps with `m = ⌊2^64 / z⌋`. Other `z` go
/// through [`limbs_mod`]; both give the same result.
pub(crate) struct Modulus {
    z: u64,
    /// `(c, m)` when `2 ≤ z < 2^32`.
    fixed: Option<([u64; 8], u64)>,
}

impl Modulus {
    pub(crate) fn new(z: u64) -> Self {
        let fixed = (2..1 << 32).contains(&z).then(|| {
            // c_7 = 1, then c_k = c_{k+1} · 2^32 mod z: `2^224` itself
            // does not fit any integer type.
            let mut c = [1u64; 8];
            for k in (0..7).rev() {
                c[k] = (c[k + 1] << 32) % z;
            }
            (c, ((1u128 << 64) / u128::from(z)) as u64)
        });
        Modulus { z, fixed }
    }

    /// `a mod z` for any `a`, given `m = ⌊2^64 / z⌋`: the estimate
    /// `⌊a · m / 2^64⌋` is the quotient or one below it.
    #[inline(always)]
    fn barrett(a: u64, z: u64, m: u64) -> u64 {
        let q = ((u128::from(a) * u128::from(m)) >> 64) as u64;
        let r = a - q * z;
        if r >= z {
            r - z
        } else {
            r
        }
    }

    /// The state read as a 256-bit big-endian number, modulo `z`.
    #[inline]
    pub(crate) fn reduce(&self, state: &[u32; 8]) -> u64 {
        let Some((c, m)) = &self.fixed else {
            let limb = |k: usize| (u64::from(state[2 * k]) << 32) | u64::from(state[2 * k + 1]);
            return limbs_mod([limb(0), limb(1), limb(2), limb(3)], self.z);
        };
        // Each product is below 2^32 · z < 2^64, so eight sum below 2^67.
        let s: u128 = state
            .iter()
            .zip(c)
            .map(|(&w, &c)| u128::from(u64::from(w) * c))
            .sum();
        // s = hi · 2^32 + lo: reduce hi (< 2^35), then (hi mod z) · 2^32
        // + lo, which is below 2^64.
        let hi = Self::barrett((s >> 32) as u64, self.z, *m);
        Self::barrett((hi << 32) | (s as u64 & 0xffff_ffff), self.z, *m)
    }
}

/// The PRF's inner digest `H(R ‖ tk_j)`. It depends on the second
/// token only, so a sweep over all pairs computes it once per token.
pub fn inner_digest(secret: &Secret, tk_j: &[u8]) -> Digest {
    sha256_concat(&[secret.as_bytes(), tk_j])
}

/// The PRF's outer step `H(tk_i ‖ inner) mod z`, given
/// `inner = `[`inner_digest`]`(R, tk_j)`.
pub fn outer_modulus(tk_i: &[u8], inner: &Digest, z: u64) -> u64 {
    digest_mod(&sha256_concat(&[tk_i, inner]), z)
}

/// Longest token whose PRF messages fit one SHA-256 block: the inner
/// `R ‖ tk_j` and the outer `tk_i ‖ H(R ‖ tk_j)` are each 32 bytes
/// plus a token.
const ONE_BLOCK_TOKEN: usize = ONE_BLOCK_MAX - DIGEST_LEN;

/// One row of the pair sweep: replaces the contents of `out` with
/// [`outer_modulus`]`(tk_i, &inners[k], z)` for every `k`, in order.
///
/// When `tk_i ‖ inner` fits one SHA-256 block (`tk_i` of at most 23
/// bytes) the row runs as one batch of one-block compressions; longer
/// tokens fall back to [`outer_modulus`] per pair.
pub fn outer_moduli(tk_i: &[u8], inners: &[Digest], z: u64, out: &mut Vec<u64>) {
    out.clear();
    out.reserve(inners.len());
    if tk_i.len() <= ONE_BLOCK_TOKEN {
        let modulus = Modulus::new(z);
        one_block_states(inners.iter().map(|inner| (tk_i, inner)), |state| {
            out.push(modulus.reduce(state))
        });
    } else {
        out.extend(inners.iter().map(|inner| outer_modulus(tk_i, inner, z)));
    }
}

/// Replaces the contents of `out` with [`pair_modulus`]`(secret, tk_i,
/// tk_j, z)` for every `(tk_i, tk_j)` in `pairs`, in order.
///
/// Pairs whose tokens are both at most 23 bytes run their inner and
/// then their outer hashes as two batches of one-block compressions;
/// any other pair falls back to [`pair_modulus`].
pub fn pair_moduli(secret: &Secret, pairs: &[(&[u8], &[u8])], z: u64, out: &mut Vec<u64>) {
    let fits = |(tk_i, tk_j): &(&[u8], &[u8])| {
        tk_i.len() <= ONE_BLOCK_TOKEN && tk_j.len() <= ONE_BLOCK_TOKEN
    };
    let short = || pairs.iter().filter(|p| fits(p));
    let mut inners = Vec::with_capacity(pairs.len());
    one_block_states(
        short().map(|(_, tk_j)| (&secret.as_bytes()[..], tk_j)),
        |state| inners.push(state_bytes(state)),
    );
    out.clear();
    out.reserve(pairs.len());
    let modulus = Modulus::new(z);
    one_block_states(
        short()
            .zip(&inners)
            .map(|((tk_i, _), inner)| (*tk_i, inner)),
        |state| out.push(modulus.reduce(state)),
    );
    if out.len() < pairs.len() {
        // Move the short pairs' moduli to their places, back to front,
        // and compute the long pairs' in between.
        let mut done = out.len();
        out.resize(pairs.len(), 0);
        for (k, pair) in pairs.iter().enumerate().rev() {
            out[k] = if fits(pair) {
                done -= 1;
                out[done]
            } else {
                pair_modulus(secret, pair.0, pair.1, z)
            };
        }
    }
}

/// Computes the paper's pair modulus `s_ij = H(tk_i || H(R || tk_j)) mod z`.
///
/// `z` must be ≥ 1; callers treat results `< 2` as ineligible (modulo 0
/// is undefined and modulo 1 is identically 0).
pub fn pair_modulus(secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
    outer_modulus(tk_i, &inner_digest(secret, tk_j), z)
}

/// Source of pair moduli.
///
/// Detection and batched service calls take a provider instead of
/// calling [`pair_modulus`] directly, so a deployment can interpose a
/// memoization layer (the service crate's sharded LRU) without the core
/// algorithms knowing. Implementations must be semantically transparent:
/// `provider.pair_modulus(...)` ≡ [`pair_modulus`] for all inputs.
pub trait PrfProvider {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64;
}

/// The trivial provider: compute every modulus directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectPrf;

impl PrfProvider for DirectPrf {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
        pair_modulus(secret, tk_i, tk_j, z)
    }
}

impl<P: PrfProvider + ?Sized> PrfProvider for &P {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
        (**self).pair_modulus(secret, tk_i, tk_j, z)
    }
}

/// Deterministic keystream: HMAC-SHA-256 in counter mode over a secret
/// and a domain-separation label.
///
/// Implements [`rand::RngCore`] so it can drive any `rand` API. The
/// stream is reproducible given (secret, label), which the generation
/// algorithm relies on for keyed-but-reproducible token placement.
pub struct KeyStream {
    key: [u8; SECRET_LEN],
    counter: u64,
    buf: [u8; 32],
    used: usize,
}

impl KeyStream {
    /// Creates a stream bound to `secret` under the given domain label.
    pub fn new(secret: &Secret, label: &[u8]) -> Self {
        // Derive a subkey so different labels give independent streams.
        let mut h = Sha256::new();
        h.update(b"freqywm/keystream/v1");
        h.update(secret.as_bytes());
        h.update(label);
        KeyStream {
            key: h.finalize(),
            counter: 0,
            buf: [0u8; 32],
            used: 32,
        }
    }

    fn refill(&mut self) {
        self.buf = hmac_sha256(&self.key, &self.counter.to_be_bytes());
        self.counter += 1;
        self.used = 0;
    }
}

impl RngCore for KeyStream {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.used == 32 {
                self.refill();
            }
            let take = (dest.len() - filled).min(32 - self.used);
            dest[filled..filled + take].copy_from_slice(&self.buf[self.used..self.used + take]);
            self.used += take;
            filled += take;
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl CryptoRng for KeyStream {}

impl SeedableRng for KeyStream {
    type Seed = [u8; SECRET_LEN];

    fn from_seed(seed: Self::Seed) -> Self {
        KeyStream::new(&Secret::from_bytes(seed), b"seedable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn secret(n: u8) -> Secret {
        Secret::from_bytes([n; SECRET_LEN])
    }

    #[test]
    fn pair_modulus_in_range() {
        let s = secret(7);
        for z in [2u64, 3, 10, 131, 1031, u32::MAX as u64] {
            for (a, b) in [("youtube.com", "instagram.com"), ("a", "b"), ("", "x")] {
                let m = pair_modulus(&s, a.as_bytes(), b.as_bytes(), z);
                assert!(m < z, "modulus {m} out of range for z={z}");
            }
        }
    }

    #[test]
    fn pair_modulus_is_deterministic() {
        let s = secret(1);
        let m1 = pair_modulus(&s, b"tok-a", b"tok-b", 1031);
        let m2 = pair_modulus(&s, b"tok-a", b"tok-b", 1031);
        assert_eq!(m1, m2);
    }

    #[test]
    fn pair_modulus_is_order_sensitive() {
        // H(tk_i || H(R || tk_j)) is asymmetric in (i, j); the core crate
        // normalises ordering. Here we only document the asymmetry.
        let s = secret(1);
        let ab = pair_modulus(&s, b"tok-a", b"tok-b", 1_000_003);
        let ba = pair_modulus(&s, b"tok-b", b"tok-a", 1_000_003);
        assert_ne!(ab, ba);
    }

    #[test]
    fn pair_modulus_depends_on_secret() {
        let m1 = pair_modulus(&secret(1), b"a", b"b", 1031);
        let m2 = pair_modulus(&secret(2), b"a", b"b", 1031);
        assert_ne!(m1, m2);
    }

    /// Independent reference: shift-and-subtract long division, one
    /// bit of the digest at a time.
    fn bitwise_mod(digest: &Digest, z: u64) -> u64 {
        let z = u128::from(z);
        let mut acc: u128 = 0;
        for byte in digest {
            for bit in (0..8).rev() {
                acc = (acc << 1) | u128::from((byte >> bit) & 1);
                if acc >= z {
                    acc -= z;
                }
            }
        }
        acc as u64
    }

    #[test]
    fn digest_mod_agrees_with_bitwise_long_division() {
        let mut digests = vec![[0u8; 32], [0xFF; 32]];
        digests.extend((0..64u32).map(|i| crate::sha256::sha256(&i.to_be_bytes())));
        for d in &digests {
            for z in [
                1u64,
                2,
                3,
                7,
                131,
                1031,
                65_537,
                (1 << 32) + 15,
                (1 << 63) + 1,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(digest_mod(d, z), bitwise_mod(d, z), "z={z}");
            }
        }
    }

    #[test]
    fn outer_moduli_match_outer_modulus_across_the_one_block_boundary() {
        let s = secret(6);
        let token: Vec<u8> = (0..64u8).map(|i| b'a' + i % 26).collect();
        let inners: Vec<Digest> = (0..5u8).map(|j| inner_digest(&s, &[b'j', j])).collect();
        let mut row = vec![7u64; 3];
        for len in 0..=64 {
            let tk_i = &token[..len];
            for n in 0..=inners.len() {
                for z in [
                    1u64,
                    2,
                    3,
                    131,
                    1031,
                    (1 << 32) + 15,
                    (1 << 63) + 1,
                    u64::MAX,
                ] {
                    outer_moduli(tk_i, &inners[..n], z, &mut row);
                    let want: Vec<u64> = inners[..n]
                        .iter()
                        .map(|inner| outer_modulus(tk_i, inner, z))
                        .collect();
                    assert_eq!(row, want, "tk_i of {len} bytes, {n} pairs, z={z}");
                }
            }
        }
    }

    #[test]
    fn pair_moduli_match_pair_modulus_across_the_one_block_boundary() {
        let s = secret(8);
        let text: Vec<u8> = (0..64u8).map(|i| b'a' + i % 26).collect();
        let token = |len: usize, tag: u8| {
            let mut t = text[..len].to_vec();
            if let Some(last) = t.last_mut() {
                *last = tag;
            }
            t
        };
        let zs = [1u64, 2, 131, 1031, (1 << 32) + 15, u64::MAX];
        let check = |pairs: &[(&[u8], &[u8])], out: &mut Vec<u64>| {
            for z in zs {
                pair_moduli(&s, pairs, z, out);
                let want: Vec<u64> = pairs
                    .iter()
                    .map(|(a, b)| pair_modulus(&s, a, b, z))
                    .collect();
                let lens: Vec<(usize, usize)> =
                    pairs.iter().map(|(a, b)| (a.len(), b.len())).collect();
                assert_eq!(*out, want, "pairs of lengths {lens:?}, z={z}");
            }
        };
        let mut out = vec![7u64; 3];
        // Every tk_i and tk_j length from 0 to 64, one pair at a time.
        for len_i in 0..=64 {
            for len_j in 0..=64 {
                let (a, b) = (token(len_i, b'I'), token(len_j, b'J'));
                check(&[(&a, &b)], &mut out);
            }
        }
        // Batches of 0-5 pairs mixing short and long tokens on both
        // sides, so odd lane remainders and in-place spreading both run.
        let lens = [0usize, 5, 22, 23, 24, 40, 64];
        let tokens: Vec<Vec<u8>> = (0..lens.len() * 2)
            .map(|k| token(lens[k % lens.len()], b'0' + k as u8))
            .collect();
        for n in 0..=5 {
            for start in 0..tokens.len() {
                let pairs: Vec<(&[u8], &[u8])> = (0..n)
                    .map(|p| {
                        let i = (start + 3 * p) % tokens.len();
                        let j = (start + 5 * p + 1) % tokens.len();
                        (&tokens[i][..], &tokens[j][..])
                    })
                    .collect();
                check(&pairs, &mut out);
            }
        }
    }

    /// The state whose big-endian bytes are `d`.
    fn state_of(d: &Digest) -> [u32; 8] {
        std::array::from_fn(|k| u32::from_be_bytes(d[4 * k..4 * k + 4].try_into().unwrap()))
    }

    #[test]
    fn modulus_matches_limbs_mod() {
        let zs = [
            1u64,
            2,
            3,
            131,
            1031,
            (1 << 31) - 1,
            (1 << 31) + 1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 15,
            1 << 63,
            u64::MAX,
        ];
        let limbs = |s: &[u32; 8]| {
            std::array::from_fn(|k| (u64::from(s[2 * k]) << 32) | u64::from(s[2 * k + 1]))
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x40d0105);
        let mut states = vec![[0u32; 8], [u32::MAX; 8]];
        states.extend((0..100_000).map(|_| std::array::from_fn(|_| rng.next_u32())));
        for z in zs {
            let modulus = Modulus::new(z);
            for s in &states {
                assert_eq!(modulus.reduce(s), limbs_mod(limbs(s), z), "z={z}, {s:08x?}");
            }
        }
    }

    #[test]
    fn modulus_matches_digest_mod() {
        for i in 0..64u32 {
            let d = crate::sha256::sha256(&i.to_be_bytes());
            for z in [1u64, 2, 131, 1031, (1 << 32) - 1, (1 << 63) + 1, u64::MAX] {
                assert_eq!(
                    Modulus::new(z).reduce(&state_of(&d)),
                    digest_mod(&d, z),
                    "z={z}"
                );
            }
        }
    }

    #[test]
    fn pair_modulus_is_inner_then_outer() {
        let s = secret(4);
        for (a, b) in [("", "x"), ("tok-a", "tok-b"), ("a".repeat(40).as_str(), "")] {
            let inner = crate::sha256::sha256_concat(&[s.as_bytes(), b.as_bytes()]);
            assert_eq!(inner_digest(&s, b.as_bytes()), inner);
            let outer = crate::sha256::sha256_concat(&[a.as_bytes(), &inner]);
            assert_eq!(
                pair_modulus(&s, a.as_bytes(), b.as_bytes(), 65_537),
                bitwise_mod(&outer, 65_537)
            );
        }
    }

    #[test]
    fn keystream_reproducible_and_label_separated() {
        let s = secret(9);
        let mut k1 = KeyStream::new(&s, b"placement");
        let mut k2 = KeyStream::new(&s, b"placement");
        let mut k3 = KeyStream::new(&s, b"other");
        let a: Vec<u64> = (0..16).map(|_| k1.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| k2.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| k3.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keystream_fill_bytes_cross_boundary() {
        let s = secret(3);
        let mut k1 = KeyStream::new(&s, b"x");
        let mut whole = vec![0u8; 100];
        k1.fill_bytes(&mut whole);

        let mut k2 = KeyStream::new(&s, b"x");
        let mut parts = vec![0u8; 100];
        let mut off = 0;
        for chunk in [1usize, 31, 32, 33, 3] {
            k2.fill_bytes(&mut parts[off..off + chunk]);
            off += chunk;
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn keystream_drives_rand_apis() {
        let mut k = KeyStream::new(&secret(5), b"rand");
        let v: u32 = k.gen_range(0..100);
        assert!(v < 100);
        let f: f64 = k.gen();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn keystream_uniformity_smoke() {
        // Chi-square-ish smoke test: byte histogram of 64 KiB should be
        // roughly flat.
        let mut k = KeyStream::new(&secret(11), b"uniform");
        let mut buf = vec![0u8; 65_536];
        k.fill_bytes(&mut buf);
        let mut hist = [0u32; 256];
        for &b in &buf {
            hist[b as usize] += 1;
        }
        let expected = 65_536.0 / 256.0;
        let chi2: f64 = hist
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 255 dof; mean 255, sd ~22.6. Accept a generous window.
        assert!(chi2 > 150.0 && chi2 < 400.0, "chi2={chi2}");
    }

    #[test]
    fn secret_hex_round_trip() {
        let s = secret(42);
        let hex = s.to_hex();
        assert_eq!(Secret::from_hex(&hex).unwrap(), s);
        assert!(Secret::from_hex("abc").is_none());
    }

    #[test]
    fn secret_debug_does_not_leak() {
        let s = secret(0xAA);
        let dbg = format!("{s:?}");
        assert!(!dbg.contains(&s.to_hex()));
    }
}
