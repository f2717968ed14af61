//! Minimal hex codec for secrets at rest (CLI export/import, ledger
//! records). Implemented here to avoid an extra dependency.

/// Encodes bytes as lowercase hex.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    encode_into(bytes, &mut out);
    out
}

/// Appends the lowercase hex of `bytes` to `out`.
pub fn encode_into(bytes: &[u8], out: &mut String) {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
}

/// Decodes a hex string (upper- or lowercase). Returns `None` on odd
/// length or non-hex characters.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uppercase_accepted() {
        assert_eq!(decode("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode("abc").is_none(), "odd length");
        assert!(decode("zz").is_none(), "non-hex char");
        assert!(decode("0g").is_none(), "non-hex second nibble");
    }

    #[test]
    fn known_value() {
        assert_eq!(encode(&[0x00, 0x01, 0xff]), "0001ff");
    }
}
