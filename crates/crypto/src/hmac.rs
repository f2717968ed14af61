//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the [`crate::prf`] keystream and by the ledger crate for
//! authenticated fingerprint records.

use crate::sha256::{sha256, Sha256};
use crate::Digest;

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256, for a message produced in pieces.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    pub fn finalize(self) -> Digest {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// Constant-time digest comparison. Watermark secrets are compared with
/// this to avoid leaking prefix information through timing.
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_one_shot() {
        let msg: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        for key in [&b"k"[..], &[0x0b; 20], &[0xaa; 131]] {
            for split in [0, 1, 63, 64, 65, 200, 300] {
                let mut mac = HmacSha256::new(key);
                mac.update(&msg[..split]);
                mac.update(&msg[split..]);
                assert_eq!(mac.finalize(), hmac_sha256(key, &msg), "split {split}");
            }
        }
    }
    use crate::hex;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let got = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&got),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let got = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&got),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let got = hmac_sha256(&key, &msg);
        assert_eq!(
            hex::encode(&got),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let got = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&got),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm.";
        let got = hmac_sha256(&key, msg);
        assert_eq!(
            hex::encode(&got),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn digest_eq_detects_differences() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(digest_eq(&a, &b));
        b[31] ^= 1;
        assert!(!digest_eq(&a, &b));
        b[31] ^= 1;
        b[0] ^= 0x80;
        assert!(!digest_eq(&a, &b));
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"key-1", b"msg"), hmac_sha256(b"key-2", b"msg"));
        assert_ne!(hmac_sha256(b"key", b"msg-1"), hmac_sha256(b"key", b"msg-2"));
    }
}
