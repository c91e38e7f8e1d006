//! The one JSON reader for every document this workspace persists or
//! ships between processes: the sealed campaign documents
//! (`reorder.checkpoint/2`, `reorder.shard/1`), the campaign spec, the
//! exact-state forms of [`Moments`], [`QuantileSketch`],
//! `WorkerTelemetry` and `ShardAggregator`, and the [`Measurement`]
//! line.
//!
//! Every one of those documents is written by hand with a fixed key
//! order, no whitespace and no escapes, so this is deliberately not a
//! general JSON parser. An [`Object`] parses the object spanning a
//! whole string once into its direct `(key, raw value)` members, and
//! its lookups see only those members, never a key of a nested
//! object. Nested values stay raw slices until their own reader parses
//! them, so integers keep their exact text (`u64` fingerprints, `i128`
//! fixed-point moments), and each object is split once instead of
//! being searched again for every key.
//!
//! Corruption is an error, never a guess: a missing or duplicated key,
//! bytes after a value, whitespace, an escape, an unbalanced container
//! or an empty value is rejected.
//!
//! [`Moments`]: crate::stats::Moments
//! [`QuantileSketch`]: crate::stats::QuantileSketch
//! [`Measurement`]: crate::measurer::Measurement

use std::str::FromStr;

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

/// Byte length of the value at the start of `text`: a container up to
/// its matching close, a quoted string, or a bare scalar (a run of
/// ASCII letters, digits, `-`, `+` and `.`). A container's members are
/// checked only when it is parsed in turn; here it is delimited, and
/// rejected if it holds an escape or whitespace outside a string.
fn value_len(text: &str) -> Result<usize, String> {
    let bytes = text.as_bytes();
    match bytes.first() {
        Some(b'{' | b'[') => {
            let (mut depth, mut i) = (0usize, 0);
            while let Some(&b) = bytes.get(i) {
                match b {
                    b'"' => i += value_len(&text[i..])? - 1,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(i + 1);
                        }
                    }
                    b'\\' => return Err("escape in JSON text".into()),
                    b' ' | b'\t' | b'\n' | b'\r' => return Err("whitespace in JSON text".into()),
                    _ => {}
                }
                i += 1;
            }
            Err("unterminated JSON container".into())
        }
        Some(b'"') => match bytes[1..].iter().position(|&b| b == b'"' || b == b'\\') {
            Some(i) if bytes[i + 1] == b'"' => Ok(i + 2),
            Some(_) => Err("escape in JSON string".into()),
            None => Err("unterminated JSON string".into()),
        },
        _ => match bytes
            .iter()
            .position(|b| !(b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.')))
            .unwrap_or(bytes.len())
        {
            0 => Err("expected a JSON value".into()),
            n => Ok(n),
        },
    }
}

/// The contents of a quoted string value.
fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// Split the container spanning all of `text`, opened by `open` and
/// closed by `close`, into its items. `item` reads one item from the
/// start of its argument and returns the bytes it took.
fn items<'a>(
    text: &'a str,
    open: char,
    close: char,
    mut item: impl FnMut(&'a str) -> Result<usize, String>,
) -> Result<(), String> {
    let mut rest = text
        .strip_prefix(open)
        .ok_or_else(|| format!("expected `{open}`"))?;
    if rest.len() == 1 && rest.starts_with(close) {
        return Ok(());
    }
    loop {
        let tail = &rest[item(rest)?..];
        match tail.strip_prefix(',') {
            Some(next) => rest = next,
            None if tail.len() == 1 && tail.starts_with(close) => return Ok(()),
            None if tail.starts_with(close) => return Err(format!("bytes after `{close}`")),
            None => return Err(format!("expected `,` or `{close}`")),
        }
    }
}

/// The direct members of one JSON object, in document order.
#[derive(Debug)]
pub struct Object<'a> {
    members: Vec<(&'a str, &'a str)>,
}

impl<'a> Object<'a> {
    /// Parse the object spanning all of `text` into its direct
    /// `(key, raw value)` members.
    pub fn parse(text: &'a str) -> Result<Object<'a>, String> {
        let mut members: Vec<(&'a str, &'a str)> = Vec::new();
        items(text, '{', '}', |rest| {
            let key_len = value_len(rest).map_err(|e| format!("bad key: {e}"))?;
            let key = unquote(&rest[..key_len]).ok_or("object key is not a string")?;
            let value = rest[key_len..]
                .strip_prefix(':')
                .ok_or_else(|| format!("missing `:` after `{key}`"))?;
            let len = value_len(value).map_err(|e| format!("bad `{key}`: {e}"))?;
            if members.iter().any(|&(k, _)| k == key) {
                return Err(format!("duplicate `{key}`"));
            }
            members.push((key, &value[..len]));
            Ok(key_len + 1 + len)
        })
        .map_err(|e| format!("malformed JSON object: {e}"))?;
        Ok(Object { members })
    }

    /// Every member in document order — the entries of a label-keyed
    /// map such as a breakdown or a counter set.
    pub fn members(&self) -> &[(&'a str, &'a str)] {
        &self.members
    }

    /// Raw text of member `key`: the object, array, quoted string or
    /// bare scalar after its colon.
    pub fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.members
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing `{key}`"))
    }

    /// Member `key` as an integer of any `FromStr` type.
    pub fn int<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.raw(key)?
            .parse()
            .map_err(|_| format!("non-integer `{key}`"))
    }

    /// Contents of the string member `key`.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        unquote(self.raw(key)?).ok_or_else(|| format!("`{key}` is not a string"))
    }

    /// Member `key` as `true` or `false`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.raw(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("`{key}` is not a bool: `{other}`")),
        }
    }

    /// Raw text of member `key`, or `None` when it is `null`.
    pub fn nullable(&self, key: &str) -> Result<Option<&'a str>, String> {
        self.raw(key).map(|raw| (raw != "null").then_some(raw))
    }
}

/// Raw text of each element of the array spanning all of `text`.
pub fn array(text: &str) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    items(text, '[', ']', |rest| {
        let len = value_len(rest)?;
        out.push(&rest[..len]);
        Ok(len)
    })
    .map_err(|e| format!("malformed JSON array: {e}"))?;
    Ok(out)
}

/// An array of exactly `N` integers, such as a `[reordered,total]`
/// pair.
pub fn ints<T: FromStr + Copy + Default, const N: usize>(text: &str) -> Result<[T; N], String> {
    let (mut out, mut n) = ([T::default(); N], 0);
    items(text, '[', ']', |rest| {
        let raw = &rest[..value_len(rest)?];
        let slot = out.get_mut(n).ok_or("too many integers")?;
        *slot = raw.parse().map_err(|_| format!("non-integer `{raw}`"))?;
        n += 1;
        Ok(raw.len())
    })?;
    if n != N {
        return Err(format!("expected {N} integers, found {n}"));
    }
    Ok(out)
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
        let doc = r#"{"a":{"x":[1,2],"b":"s"},"b":7,"c":"txt","d":true,"e":null}"#;
        let obj = Object::parse(doc).unwrap();
        assert_eq!(obj.raw("a").unwrap(), r#"{"x":[1,2],"b":"s"}"#);
        assert_eq!(obj.int::<u64>("b").unwrap(), 7);
        assert_eq!(obj.str("c").unwrap(), "txt");
        assert!(obj.bool("d").unwrap());
        assert_eq!(obj.nullable("e").unwrap(), None);
        assert_eq!(obj.nullable("b").unwrap(), Some("7"));
        // `x` lives one level down: invisible here.
        assert!(obj.raw("x").is_err() && obj.raw("missing").is_err());
        assert!(obj.str("b").is_err() && obj.bool("c").is_err());
        // Integers keep their exact text: i128 fixed point, u64 max.
        let big = Object::parse(
            r#"{"s":-170141183460469231731687303715884105728,"u":18446744073709551615}"#,
        )
        .unwrap();
        assert_eq!(big.int::<i128>("s").unwrap(), i128::MIN);
        assert_eq!(big.int::<u64>("u").unwrap(), u64::MAX);
    }

    #[test]
    fn elements_splits_at_top_level_only() {
        let rows = array(r#"[[1,2],[3,4],{"k":"a,b"}]"#).unwrap();
        assert_eq!(rows, vec!["[1,2]", "[3,4]", r#"{"k":"a,b"}"#]);
        assert_eq!(array("[]").unwrap(), Vec::<&str>::new());
        assert_eq!(ints::<i32, 2>("[-3,4]").unwrap(), [-3, 4]);
        for bad in ["[1,2", "plain", "[1,,2]", "[1,2]]", "[1,2] ", "[1, 2]"] {
            assert!(array(bad).is_err(), "accepted {bad:?}");
        }
        assert!(ints::<u64, 2>("[1,2,3]").is_err());
        assert!(ints::<u64, 2>("[1,-2]").is_err());
        assert!(ints::<u64, 2>("[1,2x]").is_err());
    }

    #[test]
    fn member_splits_key_and_value() {
        let obj = Object::parse(r#"{"spans":{"a":1},"n":2}"#).unwrap();
        assert_eq!(obj.members(), [("spans", r#"{"a":1}"#), ("n", "2")]);
        assert!(Object::parse("{}").unwrap().members().is_empty());
        assert!(Object::parse(r#"{noquote:1}"#).is_err());
        assert!(Object::parse(r#"{"key"1}"#).is_err());
    }

    #[test]
    fn object_rejects_structural_corruption() {
        for bad in [
            "",
            "[]",
            r#"{"a":1,"a":2}"#,
            r#"{"a":1}x"#,
            r#"{"a":1}}"#,
            r#"{"a":1,}"#,
            r#"{"a":}"#,
            r#"{"a":1"#,
            r#"{"a" :1}"#,
            r#"{"a": 1}"#,
            r#"{"a":1 }"#,
            r#"{"a":"x\"y"}"#,
            r#"{"a\"":1}"#,
            r#"{"a":{"b":1 }}"#,
            r#"{"a":{"b":1}x}"#,
            r#"{"a":[1,2}"#,
        ] {
            assert!(Object::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
