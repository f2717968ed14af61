//! Metric families, each declared once.
//!
//! A component (the engine, the router) lists every metric it reports
//! in one table of [`Family`] entries, generated together with an
//! index enum by [`families!`](crate::families). An entry gives the
//! kind, its label, the JSON path of its value, the Prometheus name and
//! help text, and two flags: kept in the retention `history` sample,
//! and summed into the router's `totals`. [`JsonObject::families`] and
//! [`write_prom`] walk a table with the component's value source, so
//! the `metrics` JSON and the `GET /metrics` exposition come from the
//! same declarations and cannot drift apart. Recording never touches
//! the table: a bump is a relaxed add on the atomic at the family's
//! enum index.

use crate::prom::{PromKind, PromText};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How a family is recorded and exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    /// A power-of-two [`LatencyHistogram`].
    Histogram,
    /// A string identity: a JSON string, exposed as a gauge fixed at 1
    /// that carries the string as a label. Consecutive info entries
    /// sharing a Prometheus name form one sample with all their labels.
    Info,
}

impl Kind {
    fn prom(self) -> PromKind {
        match self {
            Kind::Counter => PromKind::Counter,
            Kind::Gauge | Kind::Info => PromKind::Gauge,
            Kind::Histogram => PromKind::Histogram,
        }
    }
}

/// One metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    pub kind: Kind,
    /// Dotted JSON path of the value, inside the row object for row
    /// families; empty for an exposition-only family.
    pub json: &'static str,
    /// Prometheus family name; empty for a JSON-only value. Consecutive
    /// entries sharing a name are one family whose series differ by
    /// `label`; the first entry's help text is written.
    pub prom: &'static str,
    pub help: &'static str,
    /// Fixed `(name, value)` label on this entry's series. An info
    /// family gives the name only: its string is the value.
    pub label: Option<(&'static str, &'static str)>,
    /// One series per row (tenant, shard), labelled with the row key.
    pub row: bool,
    /// Key in the retention sample; a histogram keeps `{key}_sum_us`
    /// and `{key}_count`.
    pub history: Option<&'static str>,
    /// Summed across shards into the router's `totals`.
    pub totals: bool,
}

const fn family(kind: Kind, json: &'static str, prom: &'static str, help: &'static str) -> Family {
    Family {
        kind,
        json,
        prom,
        help,
        label: None,
        row: false,
        history: None,
        totals: false,
    }
}

pub const fn counter(json: &'static str, prom: &'static str, help: &'static str) -> Family {
    family(Kind::Counter, json, prom, help)
}

pub const fn gauge(json: &'static str, prom: &'static str, help: &'static str) -> Family {
    family(Kind::Gauge, json, prom, help)
}

pub const fn histogram(json: &'static str, prom: &'static str, help: &'static str) -> Family {
    family(Kind::Histogram, json, prom, help)
}

/// An info family whose string is exposed as the label `label`.
pub const fn info(
    json: &'static str,
    prom: &'static str,
    label: &'static str,
    help: &'static str,
) -> Family {
    family(Kind::Info, json, prom, help).labelled(label, "")
}

impl Family {
    pub const fn labelled(self, name: &'static str, value: &'static str) -> Family {
        Family {
            label: Some((name, value)),
            ..self
        }
    }

    pub const fn per_row(self) -> Family {
        Family { row: true, ..self }
    }

    pub const fn in_history(self, key: &'static str) -> Family {
        Family {
            history: Some(key),
            ..self
        }
    }

    pub const fn in_totals(self) -> Family {
        Family {
            totals: true,
            ..self
        }
    }
}

/// Declares an index enum and its family table from one list, so
/// `TABLE[Enum::X as usize]` is always `X`'s declaration and
/// `Enum::ALL[i]` names entry `i`.
#[macro_export]
macro_rules! families {
    ($(#[$meta:meta])* $vis:vis enum $name:ident in $table:ident {
        $($variant:ident => $family:expr,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $name {
            $($variant,)*
        }

        impl $name {
            /// Every family, in table order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];
        }

        $vis static $table: &[$crate::family::Family] = &[$($family,)*];
    };
}

/// One family's value in one rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Val<'a> {
    Num(u64),
    Bool(bool),
    Str(Cow<'a, str>),
    /// Not known yet: JSON `null` and no sample (an info label reads
    /// `unknown`).
    Null,
    /// Not reported: left out of both surfaces.
    Absent,
    /// A histogram with the full JSON form: count, mean, p50/p95/p99
    /// and the bucket counts.
    Hist(LatencySnapshot),
    /// A histogram with the brief JSON form: count, whole-µs mean, p50
    /// and p99.
    Brief(LatencySnapshot),
}

impl Val<'_> {
    fn json(&self) -> Option<String> {
        Some(match self {
            Val::Num(n) => n.to_string(),
            Val::Bool(b) => b.to_string(),
            Val::Str(s) => format!("\"{}\"", escape_json(s)),
            Val::Null => "null".to_string(),
            Val::Absent => return None,
            Val::Hist(h) => {
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                format!(
                    concat!(
                        "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p95_us\":{},",
                        "\"p99_us\":{},\"buckets_us_pow2\":[{}]}}"
                    ),
                    h.count,
                    h.mean_micros(),
                    h.quantile_upper_micros(0.50),
                    h.quantile_upper_micros(0.95),
                    h.quantile_upper_micros(0.99),
                    buckets.join(",")
                )
            }
            Val::Brief(h) => format!(
                "{{\"count\":{},\"mean_us\":{:.0},\"p50_us\":{},\"p99_us\":{}}}",
                h.count,
                h.mean_micros(),
                h.quantile_upper_micros(0.50),
                h.quantile_upper_micros(0.99)
            ),
        })
    }
}

/// A JSON object built from dotted paths. Members keep insertion order;
/// paths sharing a prefix share one nested object.
#[derive(Debug, Default)]
pub struct JsonObject(Vec<(String, Member)>);

#[derive(Debug)]
enum Member {
    Raw(String),
    Object(JsonObject),
}

impl JsonObject {
    /// Sets the dotted `path` to the raw JSON `value`.
    pub fn insert(&mut self, path: &str, value: String) {
        let Some((head, rest)) = path.split_once('.') else {
            self.push(path, value);
            return;
        };
        let at = match self
            .0
            .iter()
            .position(|(k, m)| k == head && matches!(m, Member::Object(_)))
        {
            Some(at) => at,
            None => {
                self.0
                    .push((head.to_string(), Member::Object(JsonObject::default())));
                self.0.len() - 1
            }
        };
        if let Member::Object(inner) = &mut self.0[at].1 {
            inner.insert(rest, value);
        }
    }

    /// Adds a member whose key is taken literally (dots included).
    pub fn push(&mut self, key: &str, value: String) {
        self.0.push((key.to_string(), Member::Raw(value)));
    }

    /// Adds the value of every family in `table` that has a JSON path
    /// and whose `row` flag equals `rows`.
    pub fn families<'a>(&mut self, table: &[Family], rows: bool, val: impl Fn(usize) -> Val<'a>) {
        for (i, f) in table.iter().enumerate() {
            if f.row == rows && !f.json.is_empty() {
                if let Some(v) = val(i).json() {
                    self.insert(f.json, v);
                }
            }
        }
    }

    /// The members, without the enclosing braces.
    pub fn members(&self) -> String {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(k, m)| {
                let v = match m {
                    Member::Raw(v) => v.clone(),
                    Member::Object(o) => o.render(),
                };
                format!("\"{}\":{v}", escape_json(k))
            })
            .collect();
        parts.join(",")
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.members())
    }
}

/// Writes every family of `table` that has a Prometheus name. A row
/// family gets one series per entry of `rows`, labelled `row_label`.
/// A family with no sample is left out, except a row family while rows
/// exist: its `HELP`/`TYPE` stay so a scraper sees it before the first
/// reading.
pub fn write_prom<'a>(
    w: &mut PromText,
    table: &[Family],
    row_label: &str,
    rows: &[String],
    val: impl Fn(usize, Option<usize>) -> Val<'a>,
) {
    let mut start = 0;
    while start < table.len() {
        let head = &table[start];
        let len = table[start..]
            .iter()
            .take_while(|f| f.prom == head.prom)
            .count();
        let group = start..start + len;
        start = group.end;
        if head.prom.is_empty() {
            continue;
        }
        let row_ids: Vec<Option<usize>> = if head.row {
            (0..rows.len()).map(Some).collect()
        } else {
            vec![None]
        };
        let mut samples: Vec<(Vec<(&str, String)>, Val<'a>)> = Vec::new();
        for row in row_ids {
            let base: Vec<(&str, String)> = row
                .map(|r| (row_label, rows[r].clone()))
                .into_iter()
                .collect();
            if head.kind == Kind::Info {
                let mut labels = base.clone();
                for (i, f) in group.clone().zip(&table[group.clone()]) {
                    let name = f.label.map_or("", |(name, _)| name);
                    match val(i, row) {
                        Val::Str(s) => labels.push((name, s.into_owned())),
                        Val::Null => labels.push((name, "unknown".to_string())),
                        _ => {}
                    }
                }
                if labels.len() > base.len() {
                    samples.push((labels, Val::Num(1)));
                }
                continue;
            }
            for (i, f) in group.clone().zip(&table[group.clone()]) {
                let mut labels = base.clone();
                labels.extend(f.label.map(|(k, v)| (k, v.to_string())));
                match val(i, row) {
                    Val::Null | Val::Absent | Val::Str(_) => {}
                    v => samples.push((labels, v)),
                }
            }
        }
        if samples.is_empty() && (!head.row || rows.is_empty()) {
            continue;
        }
        w.family(head.prom, head.kind.prom(), head.help);
        for (labels, v) in samples {
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            match v {
                Val::Num(n) => w.sample(head.prom, &labels, n as f64),
                Val::Bool(b) => w.sample(head.prom, &labels, if b { 1.0 } else { 0.0 }),
                Val::Hist(h) | Val::Brief(h) => h.write_prom(w, head.prom, &labels),
                _ => {}
            }
        }
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Number of latency buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` µs (bucket 0: `< 1 µs`), the last one open-ended
/// (≥ ~34 s).
pub const LATENCY_BUCKETS: usize = 26;

/// A lock-free power-of-two latency histogram.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    total_micros: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// `(sum of µs, count)` without copying the buckets.
    pub fn sum_count(&self) -> (u64, u64) {
        (
            self.total_micros.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }

    pub fn snapshot(&self) -> LatencySnapshot {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let (total_micros, count) = self.sum_count();
        LatencySnapshot {
            buckets,
            total_micros,
            count,
        }
    }
}

/// Point-in-time view of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    pub buckets: Vec<u64>,
    pub total_micros: u64,
    pub count: u64,
}

impl LatencySnapshot {
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// Upper bound (in µs) of the bucket containing quantile `q`.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }

    /// Appends this histogram as one series of an already-started
    /// family. Bucket `i` holds `[2^(i-1), 2^i)` µs, so its upper bound
    /// is `2^i` µs (written in seconds); the last bucket is open-ended
    /// and maps to `+Inf` only.
    fn write_prom(&self, w: &mut PromText, name: &str, labels: &[(&str, &str)]) {
        let last = self.buckets.len().saturating_sub(1);
        let bounds: Vec<f64> = (0..last).map(|i| (1u64 << i) as f64 / 1e6).collect();
        w.histogram(
            name,
            labels,
            &bounds,
            &self.buckets[..last],
            self.total_micros as f64 / 1e6,
            self.count,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::parse_exposition;

    crate::families! {
        enum T in TABLE {
            Name => info("name", "t_info", "name", "Identity."),
            Hits => counter("cache.hits", "t_total", "Lookups.").labelled("kind", "hit"),
            Misses => counter("cache.misses", "t_total", "Lookups.").labelled("kind", "miss"),
            Depth => gauge("depth", "t_depth", "Per-row depth.").per_row(),
            Lat => histogram("lat", "t_lat_seconds", "Latency."),
        }
    }

    #[test]
    fn one_table_renders_nested_json_and_grouped_exposition() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        let val = |i: usize, row: Option<usize>| match (T::ALL[i], row) {
            (T::Name, _) => Val::Str("a\"b".into()),
            (T::Hits, _) => Val::Num(3),
            (T::Misses, _) => Val::Num(4),
            (T::Depth, Some(0)) => Val::Num(7),
            (T::Depth, _) => Val::Null,
            (T::Lat, _) => Val::Hist(h.snapshot()),
        };
        let mut obj = JsonObject::default();
        obj.families(TABLE, false, |i| val(i, None));
        obj.insert("cache.rate", "0.5".to_string());
        let json = obj.render();
        assert!(
            json.starts_with(
                "{\"name\":\"a\\\"b\",\"cache\":{\"hits\":3,\"misses\":4,\"rate\":0.5},\"lat\":{\"count\":1"
            ),
            "{json}"
        );
        let mut w = PromText::new();
        write_prom(&mut w, TABLE, "row", &["r0".into(), "r1".into()], val);
        let families = parse_exposition(&w.finish()).expect("valid exposition");
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["t_info", "t_total", "t_depth", "t_lat_seconds"]);
        assert_eq!(families[0].samples[0].label("name"), Some("a\"b"));
        assert_eq!(families[1].samples.len(), 2);
        assert_eq!(families[1].samples[1].label("kind"), Some("miss"));
        // The unknown row has no sample; the known one is labelled.
        assert_eq!(families[2].samples.len(), 1);
        assert_eq!(families[2].samples[0].label("row"), Some("r0"));
    }
}
