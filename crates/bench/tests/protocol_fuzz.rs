//! Fuzz-style property tests over the line protocol's one entry point,
//! `decode`: whatever bytes a client sends on a request line, it returns —
//! a request, or an `invalid_json` / `invalid_request` error whose message
//! names the line — and never panics.

use dader_bench::serve::protocol::decode;
use dader_bench::ErrorCode;
use proptest::prelude::*;

/// One valid line per request mode, each with the envelope fields set.
const VALID: [&str; 7] = [
    r#"{"id": 1, "a": {"title": "kodak esp", "price": 9}, "b": {"title": "kodak"}, "timings": true, "deadline_ms": 50}"#,
    r#"{"mode": "match_table", "left": [{"title": "kodak"}], "right": [{"title": "kodak esp"}], "blocker": "topk", "k": 3, "threshold": 0.5}"#,
    r#"{"mode": "match_record", "record": {"title": "kodak"}, "k": 2, "threshold": 0.1, "deadline_ms": 5}"#,
    r#"{"mode": "index_upsert", "record_id": "b9", "record": {"title": "hp", "stock": null}}"#,
    r#"{"mode": "index_delete", "record_id": "b9", "id": "x"}"#,
    r#"{"mode": "reload", "index": true, "timings": true}"#,
    r#"{"mode": "status", "id": [1, {"n": null}]}"#,
];

/// Lines with one numeric field left open as `{n}`.
const NUMERIC: [&str; 7] = [
    r#"{"a": {"title": "x", "price": {n}}, "b": {"title": "y"}}"#,
    r#"{"a": {"title": "x"}, "b": {"title": "y"}, "deadline_ms": {n}}"#,
    r#"{"mode": "match_table", "left": [{"title": "x"}], "k": {n}}"#,
    r#"{"mode": "match_table", "left": [], "right": [], "threshold": {n}}"#,
    r#"{"mode": "match_record", "record": {"title": "x"}, "k": {n}}"#,
    r#"{"mode": "match_record", "record": {"title": "x"}, "threshold": {n}}"#,
    r#"{"mode": "status", "id": {n}, "deadline_ms": {n}}"#,
];

/// Values swapped into the numeric fields: at, below and far past every
/// bound the protocol checks.
const NUMBERS: [&str; 5] = ["0", "-1", "1.5", "1e15", "1e300"];

/// Fragments that random lines are strung together from, so that they
/// get past the first byte: JSON syntax, escapes (a high surrogate
/// awaiting its low half among them), the protocol's keys and modes, and
/// edge-case values.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\"",
    "\\",
    "\\u",
    "\"\\ud835\\u",
    "0041",
    "é",
    "null",
    "true",
    "false",
    "0",
    "-1",
    "1.5",
    "1e300",
    "\"x\"",
    "\"a\"",
    "\"b\"",
    "\"title\"",
    "\"mode\"",
    "\"id\"",
    "\"k\"",
    "\"threshold\"",
    "\"deadline_ms\"",
    "\"timings\"",
    "\"record\"",
    "\"record_id\"",
    "\"left\"",
    "\"right\"",
    "\"blocker\"",
    "\"match_table\"",
    "\"match_record\"",
    "\"index_upsert\"",
    "\"reload\"",
    "\"index\"",
    "\"status\"",
];

/// `decode` returned, and any error it gave is a client error that names
/// its line.
fn check(line: &str, lineno: usize) -> Result<(), TestCaseError> {
    if let Err((code, msg)) = decode(line, lineno) {
        prop_assert!(
            matches!(code, ErrorCode::InvalidJson | ErrorCode::InvalidRequest),
            "{code:?} for {line:?}"
        );
        prop_assert!(
            msg.starts_with(&format!("line {lineno}: ")),
            "{msg:?} for {line:?}"
        );
    }
    Ok(())
}

#[test]
fn valid_lines_of_every_mode_decode() {
    for (i, line) in VALID.iter().enumerate() {
        if let Err(e) = decode(line, i + 1) {
            panic!("{line}: {e:?}");
        }
    }
}

#[test]
fn out_of_range_numbers_and_deep_nesting_get_typed_answers() {
    for template in NUMERIC {
        for n in NUMBERS {
            check(&template.replace("{n}", n), 7).unwrap();
        }
    }
    // Deeper than the JSON parser's recursion limit: `invalid_json`, not
    // a stack overflow.
    for open in ["[", "{\"a\":"] {
        let (code, _) = decode(&open.repeat(50_000), 1).err().expect("too deep");
        assert_eq!(code, ErrorCode::InvalidJson);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn random_bytes_get_typed_answers(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        lineno in 1usize..100_000,
    ) {
        check(&String::from_utf8_lossy(&bytes), lineno)?;
    }

    #[test]
    fn random_token_strings_get_typed_answers(
        tokens in proptest::collection::vec(proptest::sample::select(TOKENS.to_vec()), 0..48),
    ) {
        check(&tokens.concat(), 1)?;
    }

    #[test]
    fn one_byte_edits_of_valid_lines_get_typed_answers(
        mode in 0usize..VALID.len(),
        at in 0.0f64..1.0,
        byte in 0u8..=255,
        edit in 0u8..3,
    ) {
        let mut bytes = VALID[mode].as_bytes().to_vec();
        let pos = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        match edit {
            0 => bytes[pos] ^= byte.max(1),
            1 => {
                bytes.remove(pos);
            }
            _ => bytes.insert(pos, byte),
        }
        check(&String::from_utf8_lossy(&bytes), 1)?;
    }
}
