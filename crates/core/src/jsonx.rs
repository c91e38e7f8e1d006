//! Minimal hand-rolled JSON extraction for the checkpoint formats.
//!
//! The campaign checkpoint documents (`reorder.checkpoint/2`,
//! `reorder.shard/1`) and the exact-state serializers on [`Moments`],
//! [`QuantileSketch`], `WorkerTelemetry` and `ShardAggregator` are all
//! emitted by hand with stable key order; this module is the matching
//! reader. It is deliberately not a general JSON parser: keys are
//! code-defined identifiers (never escaped), lookups take the first
//! occurrence of `"key":`, and every helper returns `Err` rather than
//! guessing on malformed input — corruption is surfaced, not absorbed.
//!
//! [`Moments`]: crate::stats::Moments
//! [`QuantileSketch`]: crate::stats::QuantileSketch

/// 64-bit FNV-1a over a byte string — the integrity hash sealed into
/// checkpoint documents and pinned by the determinism test suite.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Byte length of the JSON value at the start of `text`: a
/// brace/bracket-matched container (string-aware), a quoted string, or
/// a bare scalar running to the next `,` / `}` / `]`.
fn value_end(text: &str) -> Result<usize, String> {
    let bytes = text.as_bytes();
    match bytes.first() {
        Some(b'{') | Some(b'[') => {
            let mut depth = 0i64;
            let mut in_str = false;
            let mut escape = false;
            for (i, &b) in bytes.iter().enumerate() {
                if escape {
                    escape = false;
                    continue;
                }
                match b {
                    b'\\' if in_str => escape = true,
                    b'"' => in_str = !in_str,
                    b'{' | b'[' if !in_str => depth += 1,
                    b'}' | b']' if !in_str => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(i + 1);
                        }
                        if depth < 0 {
                            return Err("unbalanced JSON container".into());
                        }
                    }
                    _ => {}
                }
            }
            Err("unterminated JSON container".into())
        }
        Some(b'"') => {
            let mut escape = false;
            for (i, &b) in bytes.iter().enumerate().skip(1) {
                if escape {
                    escape = false;
                    continue;
                }
                match b {
                    b'\\' => escape = true,
                    b'"' => return Ok(i + 1),
                    _ => {}
                }
            }
            Err("unterminated JSON string".into())
        }
        Some(_) => Ok(bytes
            .iter()
            .position(|&b| matches!(b, b',' | b'}' | b']'))
            .unwrap_or(bytes.len())),
        None => Err("empty JSON value".into()),
    }
}

/// Raw value of the first `"key":` occurrence in `text` — the slice of
/// the object, array, string (quotes included) or bare scalar that
/// follows the colon.
pub fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat).ok_or_else(|| format!("missing `{key}`"))?;
    let rest = &text[at + pat.len()..];
    let end = value_end(rest).map_err(|e| format!("bad `{key}`: {e}"))?;
    Ok(&rest[..end])
}

/// Parse an integer-valued field (any `FromStr` integer type).
pub fn int_field<T: std::str::FromStr>(text: &str, key: &str) -> Result<T, String> {
    field(text, key)?
        .parse()
        .map_err(|_| format!("non-integer `{key}`"))
}

/// Contents of a string-valued field. No escape decoding: checkpoint
/// strings are plain identifiers by construction, and anything else is
/// malformed input.
pub fn str_field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let raw = field(text, key)?;
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("`{key}` is not a string"))?;
    if inner.contains(['"', '\\']) {
        return Err(format!("`{key}` contains escapes"));
    }
    Ok(inner)
}

/// Split a JSON object or array into its top-level comma-separated
/// element slices (members for an object, values for an array). Empty
/// containers yield an empty vector.
pub fn elements(raw: &str) -> Result<Vec<&str>, String> {
    let bytes = raw.as_bytes();
    let close = match bytes.first() {
        Some(b'{') => b'}',
        Some(b'[') => b']',
        _ => return Err("not a JSON container".into()),
    };
    if bytes.len() < 2 || bytes[bytes.len() - 1] != close {
        return Err("unterminated JSON container".into());
    }
    let inner = &raw[1..raw.len() - 1];
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escape = false;
    let mut start = 0usize;
    for (i, &b) in inner.as_bytes().iter().enumerate() {
        if escape {
            escape = false;
            continue;
        }
        match b {
            b'\\' if in_str => escape = true,
            b'"' => in_str = !in_str,
            b'{' | b'[' if !in_str => depth += 1,
            b'}' | b']' if !in_str => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced JSON container".into());
                }
            }
            b',' if !in_str && depth == 0 => {
                out.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced JSON container".into());
    }
    out.push(&inner[start..]);
    Ok(out)
}

/// Split one object member (`"key":value`) into its key and raw value.
pub fn member(elem: &str) -> Result<(&str, &str), String> {
    let rest = elem
        .strip_prefix('"')
        .ok_or("object member must start with a quoted key")?;
    let q = rest.find('"').ok_or("unterminated member key")?;
    let val = rest[q + 1..]
        .strip_prefix(':')
        .ok_or("missing `:` after member key")?;
    Ok((&rest[..q], val))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_extracts_nested_containers() {
        let doc = r#"{"a":{"x":[1,2],"y":"s"},"b":7,"c":"txt"}"#;
        assert_eq!(field(doc, "a").unwrap(), r#"{"x":[1,2],"y":"s"}"#);
        assert_eq!(field(doc, "b").unwrap(), "7");
        assert_eq!(str_field(doc, "c").unwrap(), "txt");
        assert_eq!(int_field::<u64>(doc, "b").unwrap(), 7);
        assert!(field(doc, "missing").is_err());
    }

    #[test]
    fn elements_splits_at_top_level_only() {
        let arr = r#"[[1,2],[3,4],{"k":"a,b"}]"#;
        let parts = elements(arr).unwrap();
        assert_eq!(parts, vec!["[1,2]", "[3,4]", r#"{"k":"a,b"}"#]);
        assert_eq!(elements("{}").unwrap(), Vec::<&str>::new());
        assert_eq!(elements("[]").unwrap(), Vec::<&str>::new());
        assert!(elements("[1,2").is_err());
        assert!(elements("plain").is_err());
    }

    #[test]
    fn member_splits_key_and_value() {
        let obj = r#"{"spans":{"a":1},"n":2}"#;
        let parts = elements(obj).unwrap();
        let (k, v) = member(parts[0]).unwrap();
        assert_eq!((k, v), ("spans", r#"{"a":1}"#));
        assert!(member("noquote:1").is_err());
        assert!(member("\"key\"1").is_err());
    }
}
