//! Property tests for the JSON reader: whatever the input — fragments of
//! the grammar, arbitrary bytes, or arrays and objects nested far past
//! the depth cap — `Json::parse` returns `Ok` or `Err` and never panics
//! or overflows the stack.

use kacc_trace::minijson::{Json, MAX_DEPTH};
use proptest::prelude::*;

/// The grammar's tokens plus a few near-misses.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ":", ",", " ", "\n", "\"", "\\", "\\u00", "\\n", "\"k\"", "true", "false",
    "null", "nul", "0", "7", "-", ".", "e", "E", "+", "1e3", "-2.5", "é", "\u{fffd}",
];

/// A document of grammar tokens and raw bytes (decoded lossily, as a
/// file read with `from_utf8_lossy` would be).
fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..TOKENS.len() + 1, any::<u8>()), 0..64).prop_map(|parts| {
        let mut bytes = Vec::new();
        for (i, raw) in parts {
            match TOKENS.get(i) {
                Some(t) => bytes.extend_from_slice(t.as_bytes()),
                None => bytes.push(raw),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn parse_never_panics_on_token_soup(doc in soup()) {
        let _ = Json::parse(&doc);
    }

    #[test]
    fn nesting_parses_to_the_cap_and_errs_past_it(
        depth in prop_oneof![0usize..2 * MAX_DEPTH, 0usize..20_000],
        object in proptest::bool::ANY,
        closed in proptest::bool::ANY,
    ) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let mut doc = open.repeat(depth);
        doc.push('0');
        if closed {
            doc.push_str(&close.repeat(depth));
        }
        let parsed = Json::parse(&doc);
        prop_assert_eq!(parsed.is_ok(), closed && depth <= MAX_DEPTH, "depth {}", depth);
    }
}
