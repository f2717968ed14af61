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
//! separately.
//!
//! [`KeyStream`] turns the same secret into a deterministic random
//! stream (HMAC-SHA-256 in counter mode). The generation algorithm uses
//! it to pick *random insertion positions* for added tokens — the paper
//! notes these positions must be keyed, otherwise the placement of the
//! new instances would leak the watermarked pairs.

use crate::hmac::hmac_sha256;
use crate::sha256::{one_block_states, sha256_concat, Sha256};
use crate::Digest;
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

/// A finished SHA-256 state modulo `z`: the state words are the
/// digest's big-endian 32-bit words, so no digest bytes are built.
fn state_mod(state: &[u32; 8], z: u64) -> u64 {
    let limb = |k: usize| (u64::from(state[2 * k]) << 32) | u64::from(state[2 * k + 1]);
    limbs_mod([limb(0), limb(1), limb(2), limb(3)], z)
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

/// One row of the pair sweep: replaces the contents of `out` with
/// [`outer_modulus`]`(tk_i, &inners[k], z)` for every `k`, in order.
///
/// When `tk_i ‖ inner` fits one SHA-256 block (`tk_i` of at most 23
/// bytes) the row pads that block once and rewrites only the inner
/// digest per pair, two compressions at a time; longer tokens fall back
/// to [`outer_modulus`] per pair.
pub fn outer_moduli(tk_i: &[u8], inners: &[Digest], z: u64, out: &mut Vec<u64>) {
    out.clear();
    out.reserve(inners.len());
    if !one_block_states(tk_i, inners, |state| out.push(state_mod(state, z))) {
        out.extend(inners.iter().map(|inner| outer_modulus(tk_i, inner, z)));
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
    fn state_mod_matches_digest_mod() {
        for i in 0..64u32 {
            let d = crate::sha256::sha256(&i.to_be_bytes());
            let mut state = [0u32; 8];
            for (w, chunk) in state.iter_mut().zip(d.chunks_exact(4)) {
                *w = u32::from_be_bytes(chunk.try_into().unwrap());
            }
            for z in [1u64, 2, 131, (1 << 63) + 1, u64::MAX] {
                assert_eq!(state_mod(&state, z), digest_mod(&d, z), "z={z}");
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
