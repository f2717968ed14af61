//! The owner's secret list `L_sc = {L_wm, R, z}` and its file format.
//!
//! Watermark detection needs exactly three things (Sec. III-B3): the
//! list of watermarked token pairs `L_wm`, the high-entropy secret `R`
//! and the modulo base `z`. [`SecretList`] carries them; the text
//! format hex-encodes token bytes so arbitrary token content (commas,
//! newlines, separators) round-trips safely.

use crate::error::{Error, Result};
use freqywm_crypto::hex;
use freqywm_crypto::prf::Secret;
use freqywm_data::token::Token;

/// The secret material produced by `WM_Generate` and consumed by
/// `WM_Detect`.
#[derive(Debug, Clone, PartialEq)]
pub struct SecretList {
    /// Watermarked pairs, each in generation order
    /// (higher-frequency token first at generation time).
    pub pairs: Vec<(Token, Token)>,
    /// The high-entropy secret `R`.
    pub secret: Secret,
    /// The modulo base `z`.
    pub z: u64,
}

impl SecretList {
    pub fn new(pairs: Vec<(Token, Token)>, secret: Secret, z: u64) -> Self {
        SecretList { pairs, secret, z }
    }

    /// Number of watermarked pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Serialises to the `freqywm-secret-v1` text format.
    pub fn to_text(&self) -> String {
        secret_text(
            self.pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())),
            &self.secret,
            self.z,
        )
    }

    /// Parses the `freqywm-secret-v1` text format.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        match lines.next() {
            Some("freqywm-secret-v1") => {}
            other => {
                return Err(Error::MalformedSecret(format!(
                    "bad header: {:?}",
                    other.unwrap_or("<empty>")
                )))
            }
        }
        let mut z: Option<u64> = None;
        let mut r: Option<Secret> = None;
        let mut pairs = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                Error::MalformedSecret(format!("line {}: missing '='", lineno + 2))
            })?;
            match key {
                "z" => {
                    z = Some(value.parse().map_err(|_| {
                        Error::MalformedSecret(format!("line {}: bad z", lineno + 2))
                    })?)
                }
                "r" => {
                    r = Some(Secret::from_hex(value).ok_or_else(|| {
                        Error::MalformedSecret(format!("line {}: bad secret hex", lineno + 2))
                    })?)
                }
                "pair" => {
                    let (a, b) = value.split_once(',').ok_or_else(|| {
                        Error::MalformedSecret(format!("line {}: pair needs a comma", lineno + 2))
                    })?;
                    let decode = |s: &str| -> Result<Token> {
                        let bytes = hex::decode(s).ok_or_else(|| {
                            Error::MalformedSecret(format!("line {}: bad token hex", lineno + 2))
                        })?;
                        String::from_utf8(bytes).map(Token::from).map_err(|_| {
                            Error::MalformedSecret(format!(
                                "line {}: token is not UTF-8",
                                lineno + 2
                            ))
                        })
                    };
                    pairs.push((decode(a)?, decode(b)?));
                }
                other => {
                    return Err(Error::MalformedSecret(format!(
                        "line {}: unknown key {other:?}",
                        lineno + 2
                    )))
                }
            }
        }
        let z = z.ok_or_else(|| Error::MalformedSecret("missing z".into()))?;
        let secret = r.ok_or_else(|| Error::MalformedSecret("missing r".into()))?;
        Ok(SecretList { pairs, secret, z })
    }
}

/// The `freqywm-secret-v1` text of a secret list given as its parts:
/// [`SecretList::to_text`] for callers that hold the pairs in another
/// form.
pub fn secret_text<'a>(
    pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    secret: &Secret,
    z: u64,
) -> String {
    let mut out = format!("freqywm-secret-v1\nz={z}\nr={}\n", secret.to_hex());
    for (a, b) in pairs {
        out.push_str("pair=");
        hex::encode_into(a.as_bytes(), &mut out);
        out.push(',');
        hex::encode_into(b.as_bytes(), &mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SecretList {
        SecretList::new(
            vec![
                (Token::new("youtube.com"), Token::new("instagram.com")),
                (Token::new("a,b\nweird"), Token::composite(["39", "Gov"])),
            ],
            Secret::from_label("secret-tests"),
            131,
        )
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let text = s.to_text();
        let back = SecretList::from_text(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn tolerates_comments_and_blank_lines() {
        let s = sample();
        let mut text = s.to_text();
        text.push_str("\n# trailing comment\n\n");
        assert_eq!(SecretList::from_text(&text).unwrap(), s);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            SecretList::from_text("nope\nz=3\n"),
            Err(Error::MalformedSecret(_))
        ));
        assert!(SecretList::from_text("").is_err());
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(SecretList::from_text("freqywm-secret-v1\nz=131\n").is_err());
        let r = Secret::from_label("x").to_hex();
        assert!(SecretList::from_text(&format!("freqywm-secret-v1\nr={r}\n")).is_err());
    }

    #[test]
    fn rejects_garbage_lines() {
        let base = sample().to_text();
        assert!(SecretList::from_text(&format!("{base}junk\n")).is_err());
        assert!(SecretList::from_text(&format!("{base}what=ever\n")).is_err());
        assert!(SecretList::from_text(&format!("{base}pair=zz,xx\n")).is_err());
        assert!(SecretList::from_text(&format!("{base}pair=abcd\n")).is_err());
        assert!(SecretList::from_text(&format!("{base}z=notanumber\n")).is_err());
        assert!(SecretList::from_text(&format!("{base}r=1234\n")).is_err());
    }

    #[test]
    fn empty_pairs_is_valid() {
        let s = SecretList::new(Vec::new(), Secret::from_label("e"), 7);
        let back = SecretList::from_text(&s.to_text()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.z, 7);
    }
}
