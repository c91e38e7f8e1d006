//! Structural edits of a compact JSON document, shared by the property
//! suites that check every persisted document's reader refuses them:
//!
//! - delete one member of a fixed-key object, at any depth;
//! - duplicate one member, at any depth, map entries included;
//! - append one byte after a nested value.
//!
//! Entries of a label-keyed map (a breakdown, a counter set) are not
//! deleted: the map without one entry is still valid data. The walker
//! here is written independently of `reorder_core::jsonx`, so the
//! reader is never checked against itself. It trusts its input: it
//! only ever walks documents the crate's own writers produced.

/// Bytes appended after a value: a letter or sign that spoils a
/// scalar, a bracket, a brace, a separator, a quote or whitespace. No
/// digit: after a number a digit makes a different number, not a
/// structural edit.
pub const JUNK: &[u8] = b"x ,}]\":{[\n-";

/// Where one member sits: `[start, end)` of `"key":value`, and whether
/// it is an entry of a label-keyed map.
struct Member {
    start: usize,
    end: usize,
    in_map: bool,
}

/// Walk the value starting at `at` and return where it ends. `is_map`
/// says whether an object there is label-keyed (its members are map
/// entries); `maps` names the keys whose values are such maps.
fn walk(
    doc: &[u8],
    at: usize,
    is_map: bool,
    maps: &[&str],
    values: &mut Vec<(usize, usize)>,
    members: &mut Vec<Member>,
) -> usize {
    let close_quote = |from: usize| from + doc[from..].iter().position(|&b| b == b'"').unwrap();
    let end = match doc[at] {
        b'{' | b'[' => {
            let close = if doc[at] == b'{' { b'}' } else { b']' };
            let mut i = at + 1;
            while doc[i] != close {
                if close == b'}' {
                    let key_end = close_quote(i + 1);
                    let key = std::str::from_utf8(&doc[i + 1..key_end]).unwrap();
                    let end = walk(doc, key_end + 2, maps.contains(&key), maps, values, members);
                    members.push(Member {
                        start: i,
                        end,
                        in_map: is_map,
                    });
                    i = end;
                } else {
                    i = walk(doc, i, false, maps, values, members);
                }
                if doc[i] == b',' {
                    i += 1;
                }
            }
            i + 1
        }
        b'"' => close_quote(at + 1) + 1,
        _ => {
            at + doc[at..]
                .iter()
                .position(|b| matches!(b, b',' | b'}' | b']'))
                .unwrap_or(doc.len() - at)
        }
    };
    values.push((at, end));
    end
}

/// Every structural edit of the object `doc`, each with a description
/// for failure messages. `maps` names the keys whose values are
/// label-keyed maps. Appends after `doc` itself are left to the
/// caller (a sealed document's trailer sits there). `salt` rotates
/// which [`JUNK`] byte goes after which value, so successive cases
/// cover every byte at every position.
pub fn edits(doc: &str, maps: &[&str], salt: usize) -> Vec<(String, String)> {
    let (mut values, mut members) = (Vec::new(), Vec::new());
    let bytes = doc.as_bytes();
    assert_eq!(
        walk(bytes, 0, false, maps, &mut values, &mut members),
        doc.len()
    );
    let mut out = Vec::new();
    for m in &members {
        let text = &doc[m.start..m.end];
        if !m.in_map {
            // Take the member and one comma next to it, if any.
            let (start, end) = match (bytes[m.start - 1], bytes[m.end]) {
                (_, b',') => (m.start, m.end + 1),
                (b',', _) => (m.start - 1, m.end),
                _ => (m.start, m.end),
            };
            out.push((
                format!("delete `{text}`"),
                format!("{}{}", &doc[..start], &doc[end..]),
            ));
        }
        out.push((
            format!("duplicate `{text}`"),
            format!("{},{text}{}", &doc[..m.end], &doc[m.end..]),
        ));
    }
    for (i, &(start, end)) in values.iter().enumerate() {
        if end == doc.len() {
            continue;
        }
        let junk = JUNK[(i + salt) % JUNK.len()] as char;
        out.push((
            format!("append {junk:?} after `{}`", &doc[start..end]),
            format!("{}{junk}{}", &doc[..end], &doc[end..]),
        ));
    }
    out
}
