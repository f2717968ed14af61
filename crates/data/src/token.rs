//! The token model.
//!
//! A token is any repeating value within a dataset — FreqyWM never
//! interprets it, so a plain byte-string wrapper suffices. For
//! multi-dimensional datasets a token may combine several attributes
//! (Sec. IV-C, e.g. `[Age, WorkClass]`); [`Token::composite`] joins the
//! fields with an unambiguous separator so `("a", "bc")` and
//! `("ab", "c")` yield different tokens.

use std::borrow::Borrow;
use std::fmt;

/// Field separator for composite tokens: ASCII Unit Separator, which
/// cannot appear in well-formed CSV field text.
pub const FIELD_SEP: char = '\u{1f}';

/// A dataset token. Held as a `Box<str>`: no spare capacity, and 8
/// bytes less than a `String` in every histogram row and secret pair a
/// tenant keeps.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(Box<str>);

impl Token {
    /// Single-attribute token.
    pub fn new(value: impl Into<String>) -> Self {
        Token(value.into().into_boxed_str())
    }

    /// Multi-attribute (composite) token, e.g. `[Age, WorkClass]`.
    ///
    /// Panics if a field contains the reserved separator.
    pub fn composite<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = String::new();
        let mut first = true;
        for f in fields {
            let f = f.as_ref();
            assert!(
                !f.contains(FIELD_SEP),
                "token field contains the reserved separator"
            );
            if !first {
                out.push(FIELD_SEP);
            }
            out.push_str(f);
            first = false;
        }
        Token(out.into_boxed_str())
    }

    /// The token's string form (composite fields joined by `FIELD_SEP`).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Byte representation fed into the PRF.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Splits a composite token back into its fields.
    pub fn fields(&self) -> Vec<&str> {
        self.0.split(FIELD_SEP).collect()
    }

    /// Number of attributes in the token (1 for single-attribute).
    pub fn arity(&self) -> usize {
        self.0.matches(FIELD_SEP).count() + 1
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.arity() == 1 {
            write!(f, "Token({:?})", self.0)
        } else {
            write!(f, "Token({:?})", self.fields())
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.arity() == 1 {
            f.write_str(&self.0)
        } else {
            write!(f, "[{}]", self.fields().join(", "))
        }
    }
}

impl From<&str> for Token {
    fn from(s: &str) -> Self {
        Token::new(s)
    }
}

impl From<String> for Token {
    fn from(s: String) -> Self {
        Token::new(s)
    }
}

impl Borrow<str> for Token {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_token() {
        let t = Token::new("youtube.com");
        assert_eq!(t.as_str(), "youtube.com");
        assert_eq!(t.arity(), 1);
        assert_eq!(t.to_string(), "youtube.com");
    }

    #[test]
    fn composite_round_trip() {
        let t = Token::composite(["39", "State-gov"]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.fields(), vec!["39", "State-gov"]);
        assert_eq!(t.to_string(), "[39, State-gov]");
    }

    #[test]
    fn composite_is_unambiguous() {
        let a = Token::composite(["a", "bc"]);
        let b = Token::composite(["ab", "c"]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "reserved separator")]
    fn rejects_separator_in_field() {
        Token::composite([format!("x{FIELD_SEP}y")]);
    }

    #[test]
    fn hashable_and_borrowable() {
        use std::collections::HashMap;
        let mut m: HashMap<Token, u32> = HashMap::new();
        m.insert(Token::new("a"), 1);
        assert_eq!(m.get("a"), Some(&1));
    }

    #[test]
    fn debug_forms() {
        assert_eq!(format!("{:?}", Token::new("x")), "Token(\"x\")");
        let c = Token::composite(["x", "y"]);
        assert_eq!(format!("{c:?}"), "Token([\"x\", \"y\"])");
    }
}
