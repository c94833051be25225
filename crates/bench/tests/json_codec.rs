//! Properties of the artifact codec (`multicube_bench::json`): whatever
//! value the writer prints parses back to itself, numbers read back
//! exactly, and no input — arbitrary bytes or a damaged document — makes
//! the parser panic.

use multicube_bench::json::{self, Value};
use proptest::prelude::*;
use proptest::rng::TestRng;

/// Bytes that steer the parser past its first byte: JSON punctuation,
/// escapes and number characters.
const ALPHABET: &[u8] = b"{}[]\",: \n\\/ubfnrt0123456789.eE+-aN\x01";

/// A random byte, half the time from [`ALPHABET`].
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])]
}

/// Characters for strings and keys: plain, escaped, control and
/// multi-byte ones.
const CHARS: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '😀',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(6))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

/// A finite `f64` from raw bits, or zero.
fn finite(bits: u64) -> f64 {
    Some(f64::from_bits(bits))
        .filter(|x| x.is_finite())
        .unwrap_or(0.0)
}

fn number(rng: &mut TestRng) -> Value {
    match rng.below(5) {
        0 => rng.next_u64().into(),
        1 => rng.below(100).into(),
        2 => finite(rng.next_u64()).into(),
        3 => Value::fixed(
            rng.below(1 << 40) as f64 / 1024.0 - 1e6,
            rng.below(8) as usize,
        ),
        _ => Value::Num(format!(
            "-{}.{}e{}",
            rng.below(10),
            rng.below(1000),
            rng.below(300)
        )),
    }
}

/// A value nested up to `depth` levels below itself.
fn value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 2 } else { 4 }) {
        0 => number(rng),
        1 => Value::Str(string(rng)),
        2 => Value::Arr((0..rng.below(5)).map(|_| value(rng, depth - 1)).collect()),
        _ => Value::Obj(
            (0..rng.below(5))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Values nested up to `depth` levels below the root.
struct Values {
    depth: u32,
}

impl Strategy for Values {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        value(rng, self.depth)
    }
}

proptest! {
    /// `parse(pretty(v)) == v`, and the reprint is the same text.
    #[test]
    fn pretty_output_parses_back_to_the_same_value(v in Values { depth: 4 }) {
        let text = v.pretty();
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(parsed.pretty(), text);
        prop_assert_eq!(parsed, v);
    }

    /// A `u64` keeps every digit and a rate reads back as the same `f64`.
    #[test]
    fn numbers_read_back_exactly(int in any::<u64>(), bits in any::<u64>()) {
        let rate = finite(bits);
        let text = json::obj([("int", int.into()), ("rate", rate.into())]).pretty();
        let parsed = json::parse(&text).unwrap();
        prop_assert_eq!(parsed.u64_field("int"), Ok(int));
        prop_assert_eq!(parsed.f64_field("rate").map(f64::to_bits), Ok(rate.to_bits()));
    }

    /// Arbitrary bytes never panic; whatever parses reprints to itself.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(byte(), 0..300)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = json::parse(&text) {
            prop_assert_eq!(json::parse(&v.pretty()), Ok(v));
        }
    }

    /// A document with one byte replaced, or cut short, never panics.
    #[test]
    fn damaged_documents_never_panic(
        v in Values { depth: 3 },
        at in any::<usize>(),
        replacement in byte(),
        cut in any::<bool>(),
    ) {
        let mut bytes = v.pretty().into_bytes();
        let at = at % bytes.len();
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] = replacement;
        }
        if let Ok(v) = json::parse(&String::from_utf8_lossy(&bytes)) {
            prop_assert_eq!(json::parse(&v.pretty()), Ok(v));
        }
    }
}
