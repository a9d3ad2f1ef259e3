//! The vendored JSON parser on arbitrary input.
//!
//! `vendor/serde_json`'s unit tests pin the string scanner and the depth
//! bound on fixed documents. This file lets the input vary:
//!
//! * any `String` — control characters, quotes and backslashes beside
//!   1- to 4-byte characters, so escapes and copied runs meet in every
//!   order — comes back from `from_str(&to_string(&s))` unchanged, as a
//!   value and as an object key;
//! * every prefix of a valid document parses or fails with an `Error`;
//!   none panics, and the whole document parses back to its value.

use proptest::prelude::*;
use serde::Value;

/// A character of class `class` (control, JSON-special, then one class
/// per UTF-8 length) picked by `pick`.
fn char_of((class, pick): (u8, u32)) -> char {
    let code = match class {
        0 => pick % 0x20,
        1 => [0x22, 0x5c, 0x2f][pick as usize % 3],
        2 => 0x20 + pick % 0x5f,
        3 => 0x80 + pick % 0x780,
        4 => 0x800 + pick % 0xd000,
        _ => 0x1_0000 + pick % 0x10_0000,
    };
    char::from_u32(code).expect("no class reaches the surrogates")
}

fn string_of(chars: Vec<(u8, u32)>) -> String {
    chars.into_iter().map(char_of).collect()
}

proptest! {
    #[test]
    fn any_string_round_trips_as_value_and_as_key(
        chars in prop::collection::vec((0u8..6, 0u32..1 << 24), 0..64),
    ) {
        let s = string_of(chars);
        let doc = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(&serde_json::from_str::<String>(&doc).unwrap(), &s);

        let map = Value::Map(vec![(s.clone(), Value::Str(s))]);
        let doc = serde_json::to_string(&map).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&doc).unwrap(), map);
    }

    #[test]
    fn no_prefix_of_a_valid_document_panics(
        rows in prop::collection::vec(
            (prop::collection::vec((0u8..6, 0u32..1 << 24), 0..6), 0u64..1 << 40, prop::bool::ANY),
            0..6,
        ),
        pretty in prop::bool::ANY,
    ) {
        let value = Value::Seq(
            rows.into_iter()
                .map(|(chars, n, some)| {
                    let s = string_of(chars);
                    Value::Map(vec![
                        (s.clone(), Value::Seq(vec![Value::UInt(n), Value::Float(n as f64 / 8.0)])),
                        ("opt".into(), if some { Value::Str(s) } else { Value::Null }),
                        ("neg".into(), Value::Int(-(n as i64) - 1)),
                    ])
                })
                .collect(),
        );
        let doc = if pretty {
            serde_json::to_string_pretty(&value).unwrap()
        } else {
            serde_json::to_string(&value).unwrap()
        };
        for (cut, _) in doc.char_indices() {
            let _ = serde_json::from_str::<Value>(&doc[..cut]);
        }
        prop_assert_eq!(serde_json::from_str::<Value>(&doc).unwrap(), value);
    }
}
