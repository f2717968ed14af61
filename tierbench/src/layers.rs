//! Per-layer numbers for the traced run.
//!
//! Spans are recorded here, in the benchmark's own code, around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented for this. The workload's seeded inputs are replayed
//! in-process through the protocol parser, the protocol handler, the
//! engine, the core algorithms, the PRF and its cache, and a timing
//! [`Storage`] wrapper over the on-disk log. Spans stay in memory and
//! are written out when the run ends.

use crate::stats::Samples;
use crate::workload::TenantData;
use freqywm_core::detect::detect_histogram;
use freqywm_core::eligible::{eligible_pairs_with_min, eligible_pairs_with_prf};
use freqywm_core::generate::GenerationOutput;
use freqywm_core::incremental::IncrementalWatermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_core::select::select_pairs;
use freqywm_crypto::prf::{pair_modulus, PrfProvider, Secret};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::proto::{handle_line, json};
use freqywm_service::storage::{DiskLog, Storage, StorageResult};
use freqywm_service::{PrfCache, PrfCacheConfig};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens an enclosing span; close it with [`SpanLog::close`].
    pub fn open(&mut self, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
        self.open.retain(|&o| o != id);
    }

    /// Times one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (e.g. on a client thread).
    pub fn record(&mut self, layer: &'static str, start: Instant, dur_ns: u64) {
        self.spans.push(Span {
            layer,
            parent: None,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
    }

    /// Durations of every span of `layer`, in nanoseconds.
    pub fn durations_ns(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    pub fn total_ns(&self, layer: &str) -> f64 {
        self.durations_ns(layer).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer, parent, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Appends seen by [`TimedStorage`].
#[derive(Debug, Default, Clone)]
pub struct AppendStats {
    pub durations_us: Vec<f64>,
    pub bytes: u64,
}

/// A [`Storage`] that times every log append and otherwise passes each
/// call, and every byte, straight through to `inner`.
pub struct TimedStorage<S> {
    inner: S,
    stats: Arc<Mutex<AppendStats>>,
}

impl<S: Storage> TimedStorage<S> {
    pub fn new(inner: S) -> (Self, Arc<Mutex<AppendStats>>) {
        let stats = Arc::new(Mutex::new(AppendStats::default()));
        (
            TimedStorage {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn append_log(&mut self, bytes: &[u8]) -> StorageResult<()> {
        let started = Instant::now();
        let result = self.inner.append_log(bytes);
        let took = started.elapsed().as_secs_f64() * 1e6;
        let mut stats = self.stats.lock().expect("append stats lock poisoned");
        stats.durations_us.push(took);
        stats.bytes += bytes.len() as u64;
        result
    }

    fn read_log(&mut self) -> StorageResult<Vec<u8>> {
        self.inner.read_log()
    }

    fn truncate_log(&mut self, len: u64) -> StorageResult<()> {
        self.inner.truncate_log(len)
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> StorageResult<()> {
        self.inner.install_snapshot(snapshot)
    }

    fn read_snapshot(&mut self) -> StorageResult<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }
}

/// Direct PRF that counts its calls: the exact number of pairs a sweep
/// evaluates.
#[derive(Default)]
struct CountingPrf {
    calls: Cell<u64>,
}

impl PrfProvider for CountingPrf {
    fn pair_modulus(&self, secret: &Secret, tk_i: &[u8], tk_j: &[u8], z: u64) -> u64 {
        self.calls.set(self.calls.get() + 1);
        pair_modulus(secret, tk_i, tk_j, z)
    }
}

/// What the in-process replay gets from the workload.
pub struct ReplayInput {
    /// Tenants to embed, with the library's expected output.
    pub tenants: Vec<(TenantData, GenerationOutput)>,
    /// Detect requests for those tenants: `(tenant, marked?, line)`.
    pub detects: Vec<(usize, bool, Arc<str>)>,
    /// Maintain batches for those tenants, in order.
    pub maintains: Vec<(usize, Vec<(Token, i64)>)>,
}

/// Lookups per PRF-cache pass. Fits well inside the default cache, so
/// the second pass over the same keys hits every time.
const CACHE_KEYS: usize = 4096;
/// Each detect line is replayed this many times through the parser and
/// the handler.
const DETECT_REPS: usize = 3;

fn median(values: Vec<f64>) -> f64 {
    Samples::new(values)
        .quantile_unchecked(0.5)
        .unwrap_or(f64::NAN)
}

/// Replays `input` through every layer. Returns the per-layer numbers,
/// or an error naming the first output that disagreed with the library.
pub fn replay(
    input: &ReplayInput,
    dir: &Path,
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Core algorithms and the PRF, per embedded tenant.
    let (mut swept, mut eligible_total, mut chosen_total) = (0u64, 0u64, 0u64);
    let cache = PrfCache::new(PrfCacheConfig::default());
    for (data, expected) in &input.tenants {
        let params = data.params();
        let secret = data.secret();
        let parent = log.open("replay.embed");
        let eligible = log.time("core.eligible_pairs_with_min", || {
            eligible_pairs_with_min(&data.hist, &secret, params.z, params.min_modulus)
        });
        let counting = CountingPrf::default();
        let counted = log.time("crypto.pair_modulus_sweep", || {
            eligible_pairs_with_prf(&data.hist, &secret, params.z, params.min_modulus, &counting)
        });
        let selection = log.time("core.select_pairs", || {
            select_pairs(&data.hist, &eligible, &params)
        });
        log.close(parent);
        if counted.len() != eligible.len() || eligible.len() != expected.report.eligible_pairs {
            return Err(format!(
                "{}: sweeps disagree on eligible pairs",
                data.tenant
            ));
        }
        if selection.chosen.len() != expected.report.chosen_pairs {
            return Err(format!("{}: select_pairs disagrees", data.tenant));
        }
        swept += counting.calls.get();
        eligible_total += eligible.len() as u64;
        chosen_total += selection.chosen.len() as u64;

        // PRF cache: a cold pass over fresh keys misses, a second pass
        // over the same keys hits.
        let tag = secret.cache_tag();
        let tokens: Vec<&[u8]> = data
            .hist
            .entries()
            .iter()
            .map(|(t, _)| t.as_bytes())
            .collect();
        let keys: Vec<(usize, usize)> = (0..tokens.len())
            .flat_map(|i| (i + 1..tokens.len()).map(move |j| (i, j)))
            .take(CACHE_KEYS)
            .collect();
        for layer in ["prf_cache.miss", "prf_cache.hit"] {
            log.time(layer, || {
                for &(i, j) in &keys {
                    std::hint::black_box(
                        cache.get_or_compute(tag, &secret, tokens[i], tokens[j], params.z),
                    );
                }
            });
        }
    }
    let embeds = input.tenants.len() as f64;
    let cache_lookups = (CACHE_KEYS as f64) * embeds;
    let stats = cache.stats();
    if stats.hits as f64 != cache_lookups || stats.misses as f64 != cache_lookups {
        return Err(format!(
            "PRF cache passes did not split into misses then hits: {stats:?}"
        ));
    }
    out.push((
        "crypto.pair_modulus_ns",
        log.total_ns("crypto.pair_modulus_sweep") / swept as f64,
    ));
    out.push(("crypto.sweep_pairs", swept as f64));
    out.push((
        "core.sweep_ms",
        log.total_ns("core.eligible_pairs_with_min") / embeds / 1e6,
    ));
    out.push((
        "core.select_ms",
        log.total_ns("core.select_pairs") / embeds / 1e6,
    ));
    out.push((
        "core.eligible_per_swept",
        eligible_total as f64 / swept as f64,
    ));
    out.push((
        "core.chosen_per_eligible",
        chosen_total as f64 / eligible_total as f64,
    ));
    out.push((
        "prf_cache.hit_ns",
        log.total_ns("prf_cache.hit") / cache_lookups,
    ));
    out.push((
        "prf_cache.miss_ns",
        log.total_ns("prf_cache.miss") / cache_lookups,
    ));

    // Detect through the core, the parser and the protocol handler of a
    // durable engine whose log appends are timed.
    let data_dir = dir.join("replay-engine");
    let storage = DiskLog::open(&data_dir).map_err(|e| format!("replay data-dir: {e}"))?;
    let (timed, appends) = TimedStorage::new(storage);
    let engine = Engine::open(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        Box::new(timed),
    )
    .map_err(|e| format!("replay engine: {e}"))?;
    let mut durable_ops = 0u64;
    let run = |log: &mut SpanLog, spec: JobSpec| log.time("engine.run", || engine.run(spec));
    for (data, expected) in &input.tenants {
        engine
            .register_tenant(&data.tenant, data.secret())
            .map_err(|e| format!("replay register: {e}"))?;
        let state = run(
            log,
            JobSpec::new(JobPayload::Embed {
                tenant: data.tenant.clone(),
                data: JobData::Histogram(data.hist.clone()),
                params: data.params(),
            }),
        );
        durable_ops += 2;
        match state {
            JobState::Completed(JobOutput::Embed(e)) if e.watermarked == expected.watermarked => {}
            other => return Err(format!("{}: replayed embed gave {other:?}", data.tenant)),
        }
    }
    for (tenant, marked, line) in &input.detects {
        let (data, expected) = &input.tenants[*tenant];
        let hist = if *marked {
            &expected.watermarked
        } else {
            &data.hist
        };
        let outcome = log.time("core.detect_histogram", || {
            detect_histogram(hist, &expected.secrets, &DetectionParams::default())
        });
        if outcome.accepted != *marked {
            return Err(format!("{}: library detect verdict wrong", data.tenant));
        }
        for _ in 0..DETECT_REPS {
            log.time("proto.json_parse", || json::parse(line.trim_end()))
                .map_err(|e| format!("replayed request does not parse: {e}"))?;
            let response = log.time("proto.handle_line", || {
                handle_line(&engine, line.trim_end())
            });
            if !crate::client::check(crate::client::Expect::Verdict(*marked), &response) {
                return Err(format!("{}: handle_line answered {response}", data.tenant));
            }
        }
    }
    let mut mirrors: Vec<IncrementalWatermarker> = input
        .tenants
        .iter()
        .map(|(data, expected)| {
            IncrementalWatermarker::new(
                GenerationParams::default().with_z(data.z),
                expected.secrets.clone(),
                expected.watermarked.clone(),
            )
        })
        .collect();
    for (tenant, updates) in &input.maintains {
        let report = log
            .time("core.apply_updates", || {
                mirrors[*tenant].apply_updates(updates, false)
            })
            .map_err(|e| format!("library maintain failed: {e}"))?;
        let state = run(
            log,
            JobSpec::new(JobPayload::Maintain {
                tenant: input.tenants[*tenant].0.tenant.clone(),
                updates: updates.clone(),
                replenish: false,
            }),
        );
        durable_ops += 1;
        match state {
            JobState::Completed(JobOutput::Maintain(m)) if m.report == report => {}
            other => {
                return Err(format!(
                    "replayed maintain gave {other:?}, library {report:?}"
                ))
            }
        }
    }
    engine.shutdown();
    drop(engine);
    let appends = appends.lock().expect("append stats lock poisoned").clone();
    let _ = std::fs::remove_dir_all(&data_dir);

    out.push((
        "core.detect_us",
        median(log.durations_ns("core.detect_histogram")) / 1e3,
    ));
    out.push((
        "core.maintain_us",
        median(log.durations_ns("core.apply_updates")) / 1e3,
    ));
    out.push((
        "proto.parse_us",
        median(log.durations_ns("proto.json_parse")) / 1e3,
    ));
    out.push((
        "proto.handle_us",
        median(log.durations_ns("proto.handle_line")) / 1e3,
    ));
    let append_us = Samples::new(appends.durations_us.clone());
    out.push((
        "persist.append_p50_us",
        append_us.quantile_unchecked(0.5).unwrap_or(f64::NAN),
    ));
    out.push((
        "persist.append_p99_us",
        append_us.quantile_unchecked(0.99).unwrap_or(f64::NAN),
    ));
    out.push((
        "persist.bytes_per_op",
        appends.bytes as f64 / durable_ops as f64,
    ));
    out.push((
        "persist.appends_per_op",
        append_us.len() as f64 / durable_ops as f64,
    ));
    Ok(out)
}
