//! Cryptographic substrate for FreqyWM.
//!
//! The paper derives the per-pair modulus as
//! `s_ij = H(tk_i || H(R || tk_j)) mod z` with `H = SHA-256` and `R` a
//! high-entropy secret (λ-bit). None of the whitelisted dependencies
//! provide a hash function, so this crate implements:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (one-shot and incremental),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104),
//! * [`prf`] — the FreqyWM pair PRF `s_ij` plus a deterministic
//!   keystream used to derive reproducible randomness from a secret,
//! * [`hex`] — hex encoding/decoding for secrets at rest.
//!
//! All implementations are validated against official test vectors in
//! the unit tests.

pub mod hex;
pub mod hmac;
pub mod prf;
pub mod sha256;

pub use hmac::hmac_sha256;
pub use prf::{
    inner_digest, outer_moduli, outer_modulus, pair_modulus, DirectPrf, KeyStream, PrfProvider,
    Secret,
};
pub use sha256::{sha256, Sha256};

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];
