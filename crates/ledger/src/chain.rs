//! The hash chain.

use bytes::{BufMut, Bytes, BytesMut};
use freqywm_crypto::hmac::{digest_eq, hmac_sha256};
use freqywm_crypto::sha256::sha256;
use freqywm_crypto::Digest;
use std::fmt;

/// One registered fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Position in the chain (0-based).
    pub index: u64,
    /// Logical timestamp supplied by the caller (e.g. Unix seconds).
    pub timestamp: u64,
    /// Who the fingerprint was issued to (buyer id, marketplace id…).
    pub subject: String,
    /// SHA-256 of the serialised secret list — commits to the
    /// watermark without revealing it.
    pub fingerprint: Digest,
    /// Hash of the previous entry (all-zero for the genesis entry).
    pub prev_hash: Digest,
    /// HMAC over the canonical encoding, keyed with the ledger key.
    pub mac: Digest,
}

impl Entry {
    /// Canonical byte encoding (without the MAC).
    fn encode_unmacced(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.subject.len());
        buf.put_u64(self.index);
        buf.put_u64(self.timestamp);
        buf.put_u64(self.subject.len() as u64);
        buf.put_slice(self.subject.as_bytes());
        buf.put_slice(&self.fingerprint);
        buf.put_slice(&self.prev_hash);
        buf.freeze()
    }

    /// Hash identifying this entry in the chain.
    pub fn hash(&self) -> Digest {
        let mut buf = BytesMut::from(&self.encode_unmacced()[..]);
        buf.put_slice(&self.mac);
        sha256(&buf)
    }
}

/// Ledger errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The chain linkage or a MAC failed verification at this index.
    Corrupted { index: u64, reason: &'static str },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Corrupted { index, reason } => {
                write!(f, "ledger corrupted at entry {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// Entries per chunk of a [`Ledger`]'s storage.
const CHUNK: usize = 1024;

/// The append-only ledger.
///
/// Entries are kept in chunks of [`CHUNK`], so an append never moves
/// the chain. In one growing `Vec`, each doubling would copy every
/// entry into a buffer twice the size and leave the old one behind in
/// the heap: a server's resident memory would jump by the chain's size
/// each time the entry count passed a power of two.
#[derive(Debug, Clone)]
pub struct Ledger {
    key: Vec<u8>,
    chunks: Vec<Vec<Entry>>,
}

impl Ledger {
    /// Creates an empty ledger authenticated under `key`.
    pub fn new(key: &[u8]) -> Self {
        Ledger {
            key: key.to_vec(),
            chunks: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The entries, in chain order.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.chunks.iter().flatten()
    }

    /// The newest entry.
    pub fn last(&self) -> Option<&Entry> {
        self.chunks.last().and_then(|chunk| chunk.last())
    }

    /// Hash of the chain head (all-zero for an empty ledger) — the
    /// value a recovered replica must reproduce.
    pub fn head_hash(&self) -> Digest {
        self.last().map(|e| e.hash()).unwrap_or([0u8; 32])
    }

    /// Rebuilds a ledger from previously persisted entries, verifying
    /// MACs and hash linkage while loading. This is the recovery path:
    /// a snapshot or replayed log that fails here was tampered with or
    /// corrupted on disk.
    pub fn from_entries(key: &[u8], entries: Vec<Entry>) -> Result<Self, LedgerError> {
        let mut ledger = Ledger::new(key);
        entries.into_iter().for_each(|e| ledger.push(e));
        ledger.verify_chain()?;
        Ok(ledger)
    }

    fn push(&mut self, entry: Entry) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(entry),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(entry);
                self.chunks.push(chunk);
            }
        }
    }

    /// Registers a fingerprint; returns the new entry's index.
    ///
    /// `secret_material` is hashed — typically the output of
    /// `SecretList::to_text()` — so the ledger never stores secrets.
    pub fn register(&mut self, timestamp: u64, subject: &str, secret_material: &[u8]) -> u64 {
        let prev_hash = self.head_hash();
        let mut entry = Entry {
            index: self.len() as u64,
            timestamp,
            subject: subject.to_string(),
            fingerprint: sha256(secret_material),
            prev_hash,
            mac: [0u8; 32],
        };
        entry.mac = hmac_sha256(&self.key, &entry.encode_unmacced());
        let idx = entry.index;
        self.push(entry);
        idx
    }

    /// Verifies the full chain: per-entry MACs, index continuity and
    /// hash linkage.
    pub fn verify_chain(&self) -> Result<(), LedgerError> {
        let mut prev = [0u8; 32];
        for (i, e) in self.entries().enumerate() {
            if e.index != i as u64 {
                return Err(LedgerError::Corrupted {
                    index: i as u64,
                    reason: "index gap",
                });
            }
            if e.prev_hash != prev {
                return Err(LedgerError::Corrupted {
                    index: e.index,
                    reason: "broken link",
                });
            }
            let mac = hmac_sha256(&self.key, &e.encode_unmacced());
            if !digest_eq(&mac, &e.mac) {
                return Err(LedgerError::Corrupted {
                    index: e.index,
                    reason: "bad mac",
                });
            }
            prev = e.hash();
        }
        Ok(())
    }

    /// Finds the earliest entry matching a fingerprint — the
    /// leak-tracing lookup ("whose watermark is on this copy?").
    pub fn find_fingerprint(&self, secret_material: &[u8]) -> Option<&Entry> {
        let fp = sha256(secret_material);
        self.entries().find(|e| digest_eq(&e.fingerprint, &fp))
    }

    /// Chronological comparison for dispute resolution: which of two
    /// fingerprints was registered first?
    pub fn earlier_of(&self, material_a: &[u8], material_b: &[u8]) -> Option<std::cmp::Ordering> {
        let a = self.find_fingerprint(material_a)?;
        let b = self.find_fingerprint(material_b)?;
        Some(a.timestamp.cmp(&b.timestamp).then(a.index.cmp(&b.index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_with(n: usize) -> Ledger {
        let mut l = Ledger::new(b"marketplace-ledger-key");
        for i in 0..n {
            l.register(
                1_700_000_000 + i as u64,
                &format!("buyer-{i}"),
                format!("secret-{i}").as_bytes(),
            );
        }
        l
    }

    #[test]
    fn empty_ledger_verifies() {
        assert_eq!(Ledger::new(b"k").verify_chain(), Ok(()));
    }

    #[test]
    fn append_and_verify() {
        // One chunk, and a chain across three.
        for n in [10, 2 * CHUNK + 5] {
            let l = ledger_with(n);
            assert_eq!(l.len(), n);
            assert_eq!(l.entries().count(), n);
            assert_eq!(l.last().map(|e| e.index), Some(n as u64 - 1));
            assert_eq!(l.verify_chain(), Ok(()));
            let e = l
                .find_fingerprint(format!("secret-{}", n - 1).as_bytes())
                .expect("registered");
            assert_eq!(e.index, n as u64 - 1);
        }
    }

    #[test]
    fn lookup_by_fingerprint() {
        let l = ledger_with(5);
        let e = l.find_fingerprint(b"secret-3").expect("registered");
        assert_eq!(e.subject, "buyer-3");
        assert!(l.find_fingerprint(b"never-registered").is_none());
    }

    #[test]
    fn chronology() {
        let l = ledger_with(5);
        assert_eq!(
            l.earlier_of(b"secret-1", b"secret-4"),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            l.earlier_of(b"secret-4", b"secret-1"),
            Some(std::cmp::Ordering::Greater)
        );
        assert_eq!(l.earlier_of(b"secret-1", b"missing"), None);
    }

    #[test]
    fn tampering_with_subject_detected() {
        let mut l = ledger_with(4);
        l.chunks[0][2].subject = "mallory".into();
        let err = l.verify_chain().unwrap_err();
        assert_eq!(
            err,
            LedgerError::Corrupted {
                index: 2,
                reason: "bad mac"
            }
        );
    }

    #[test]
    fn tampering_with_timestamp_detected() {
        let mut l = ledger_with(4);
        l.chunks[0][1].timestamp = 1;
        assert!(l.verify_chain().is_err());
    }

    #[test]
    fn reordering_detected() {
        let mut l = ledger_with(4);
        l.chunks[0].swap(1, 2);
        assert!(l.verify_chain().is_err());
    }

    #[test]
    fn deletion_detected() {
        let mut l = ledger_with(4);
        l.chunks[0].remove(1);
        assert!(l.verify_chain().is_err());
    }

    #[test]
    fn recomputed_mac_with_wrong_key_detected() {
        // An attacker without the ledger key cannot re-MAC a forged entry.
        let mut l = ledger_with(3);
        l.chunks[0][1].subject = "mallory".into();
        let forged_mac = hmac_sha256(b"wrong-key", &l.chunks[0][1].encode_unmacced());
        l.chunks[0][1].mac = forged_mac;
        assert!(l.verify_chain().is_err());
    }

    #[test]
    fn from_entries_restores_and_verifies() {
        let l = ledger_with(6);
        let restored =
            Ledger::from_entries(b"marketplace-ledger-key", l.entries().cloned().collect())
                .expect("clean entries restore");
        assert_eq!(restored.head_hash(), l.head_hash());
        assert_eq!(restored.len(), 6);
        // Wrong key: every MAC fails.
        assert!(Ledger::from_entries(b"wrong-key", l.entries().cloned().collect()).is_err());
        // Tampered entry: rejected while loading.
        let mut tampered: Vec<Entry> = l.entries().cloned().collect();
        tampered[3].timestamp += 1;
        assert!(Ledger::from_entries(b"marketplace-ledger-key", tampered).is_err());
    }

    #[test]
    fn head_hash_tracks_appends() {
        let mut l = Ledger::new(b"k");
        assert_eq!(l.head_hash(), [0u8; 32]);
        l.register(1, "a", b"m");
        assert_eq!(l.head_hash(), l.last().unwrap().hash());
    }

    #[test]
    fn fingerprint_does_not_store_secret() {
        let l = ledger_with(1);
        let secret = b"secret-0";
        // The entry holds a hash, not the material.
        let first = l.entries().next().unwrap();
        assert_eq!(first.fingerprint, sha256(secret));
        assert_ne!(&first.fingerprint[..], &secret[..]);
    }
}
