//! Wire-format comparison shared by the engine and router fixture
//! tests. A fixture is a response captured from a known-good build; a
//! live response matches it when it has the same JSON key paths (or the
//! same Prometheus families, types, HELP text and label names) and the
//! same value wherever the value is not timing-derived. Timing-derived
//! paths and families are named by the caller and checked for presence
//! only.

use freqywm_obs::prom::{parse_exposition, PromFamily};
use freqywm_service::proto::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Reads a committed fixture of the calling test crate.
pub fn fixture(manifest_dir: &str, name: &str) -> String {
    let path = PathBuf::from(manifest_dir)
        .join("tests/fixtures/wire")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path:?}: {e}"))
}

/// `*` matches any run of characters (including `.`).
fn glob(pattern: &str, s: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == s,
        Some((head, tail)) => {
            s.starts_with(head)
                && (head.len()..=s.len()).any(|i| s.is_char_boundary(i) && glob(tail, &s[i..]))
        }
    }
}

fn timing(patterns: &[&str], s: &str) -> bool {
    patterns.iter().any(|p| glob(p, s))
}

/// Flattens a JSON document into `path → leaf`. Object keys nest with
/// `.`, arrays holding objects index with `[i]`, and any other value
/// (including an array of numbers or an empty object) is one leaf.
pub fn leaves(v: &Value) -> BTreeMap<String, String> {
    fn walk(v: &Value, path: &str, out: &mut BTreeMap<String, String>) {
        match v {
            Value::Obj(fields) if !fields.is_empty() => {
                for (k, f) in fields {
                    let child = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(f, &child, out);
                }
            }
            Value::Arr(items) if items.iter().any(|i| matches!(i, Value::Obj(_))) => {
                for (i, item) in items.iter().enumerate() {
                    walk(item, &format!("{path}[{i}]"), out);
                }
            }
            other => {
                out.insert(path.to_string(), json::write(other));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(v, "", &mut out);
    out
}

/// Asserts `live` carries exactly the fixture's JSON key paths, with
/// equal values at every path that no `timing_paths` pattern matches.
pub fn assert_json_matches(what: &str, fixture: &str, live: &str, timing_paths: &[&str]) {
    let want = leaves(&json::parse(fixture.trim()).expect("fixture parses"));
    let got = leaves(&json::parse(live.trim()).unwrap_or_else(|e| panic!("{what}: {e}: {live}")));
    let missing: Vec<&String> = want.keys().filter(|k| !got.contains_key(*k)).collect();
    let extra: Vec<&String> = got.keys().filter(|k| !want.contains_key(*k)).collect();
    assert!(missing.is_empty(), "{what}: missing {missing:?}: {live}");
    assert!(
        extra.is_empty(),
        "{what}: not in the fixture {extra:?}: {live}"
    );
    for (path, value) in &want {
        if !timing(timing_paths, path) {
            assert_eq!(&got[path], value, "{what}: value at {path}");
        }
    }
}

/// One family's shape: type, HELP text and the label-name lists of its
/// series (`le` excluded).
fn shape(f: &PromFamily) -> (String, String, BTreeSet<Vec<String>>) {
    let labels = f
        .samples
        .iter()
        .map(|s| {
            s.labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, _)| k.clone())
                .collect()
        })
        .collect();
    (f.kind.clone(), f.help.clone(), labels)
}

/// Sample values keyed by label set.
fn values(f: &PromFamily) -> BTreeMap<Vec<(String, String)>, String> {
    f.samples
        .iter()
        .map(|s| (s.labels.clone(), s.value.to_string()))
        .collect()
}

/// Asserts `live` passes the strict exposition parser and has exactly
/// the fixture's families with the same type, HELP text and label
/// names, and equal samples in every counter or gauge family that no
/// `timing_families` pattern matches.
pub fn assert_prom_matches(what: &str, fixture: &str, live: &str, timing_families: &[&str]) {
    let want = parse_exposition(fixture).expect("fixture exposition parses");
    let got = parse_exposition(live).unwrap_or_else(|e| panic!("{what}: {e}\n{live}"));
    let names = |fs: &[PromFamily]| fs.iter().map(|f| f.name.clone()).collect::<BTreeSet<_>>();
    assert_eq!(names(&got), names(&want), "{what}: family names");
    for w in &want {
        let g = got.iter().find(|f| f.name == w.name).expect("same names");
        assert_eq!(shape(g), shape(w), "{what}: shape of {}", w.name);
        if w.kind != "histogram" && !timing(timing_families, &w.name) {
            assert_eq!(values(g), values(w), "{what}: samples of {}", w.name);
        }
    }
}
