//! Word-at-a-time byte search: eight bytes per step in a `u64`, in
//! portable safe code with no CPU-specific backend. The framer finds
//! newlines with it and the JSON scanner finds the quote or backslash
//! that ends a run of string text.

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// The high bit of every byte of `word` that equals `byte`. Exact up
/// to and including the lowest match; a borrow may also flag bytes
/// above it, so only the lowest set bit may be read.
#[inline]
fn equal_bytes(word: u64, byte: u8) -> u64 {
    let x = word ^ (ONES * u64::from(byte));
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// The index of the first byte of `bytes` that is `a` or `b`.
#[inline]
pub(crate) fn find2(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // Little-endian: the lowest set bit is the earliest byte.
        let hits = equal_bytes(word, a) | equal_bytes(word, b);
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder();
    tail.iter().position(|&c| c == a || c == b).map(|i| at + i)
}

/// The index of the first `byte` in `bytes`.
#[inline]
pub(crate) fn find(bytes: &[u8], byte: u8) -> Option<usize> {
    find2(bytes, byte, byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_first_match_at_every_offset_and_length() {
        // Every byte value around the targets, including 0x80 and the
        // bytes one above and below, so a borrow shows up as a miss.
        let fill: Vec<u8> = (0..=255u8).filter(|&c| c != b'"' && c != b'\\').collect();
        for len in 0..40 {
            for shift in (0..fill.len()).step_by(3) {
                let mut bytes: Vec<u8> = (0..len).map(|i| fill[(i + shift) % fill.len()]).collect();
                assert_eq!(find2(&bytes, b'"', b'\\'), None);
                for at in 0..len {
                    let keep = bytes[at];
                    for (target, later) in [(b'"', b'\\'), (b'\\', b'"')] {
                        bytes[at] = target;
                        assert_eq!(find2(&bytes, b'"', b'\\'), Some(at));
                        assert_eq!(find(&bytes, target), Some(at));
                        // A second match after the first never wins.
                        if at + 1 < len {
                            let next = bytes[at + 1];
                            bytes[at + 1] = later;
                            assert_eq!(find2(&bytes, b'"', b'\\'), Some(at));
                            bytes[at + 1] = next;
                        }
                    }
                    bytes[at] = keep;
                }
            }
        }
    }
}
