//! Inputs, the pinned engine configuration, and the small measurement helpers every
//! workload shares.

use datamaran_core::{DatamaranConfig, MatchingBackend};
use logsynth::GeneratedDataset;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The engine configuration every workload measures: `evalkit::corpus::corpus_config()`
/// rebuilt through the strict builder with every environment-covered knob set
/// explicitly, so no `DATAMARAN_*` variable can change what is measured.  One worker
/// thread per stage keeps the numbers comparable on a shared two-core box.
pub fn engine_config(matching: MatchingBackend) -> DatamaranConfig {
    let corpus = evalkit::corpus::corpus_config();
    DatamaranConfig::builder()
        .alpha(corpus.alpha)
        .max_line_span(corpus.max_line_span)
        .prune_keep(corpus.prune_keep)
        .search(corpus.search)
        .sample_bytes(corpus.sample_bytes)
        .sample_chunks(corpus.sample_chunks)
        .max_record_types(corpus.max_record_types)
        .beam_width(corpus.beam_width)
        .max_exhaustive_chars(corpus.max_exhaustive_chars)
        .refine(corpus.refine)
        .seed(corpus.seed)
        .generation_backend(corpus.generation_backend)
        .extraction_backend(corpus.extraction_backend)
        .evaluation_backend(corpus.evaluation_backend)
        .matching_backend(matching)
        .generation_threads(1)
        .evaluation_threads(1)
        .extraction_threads(1)
        .build()
        .expect("the pinned benchmark configuration is valid")
}

/// One-line rendering of the knobs that decide what is measured.
pub fn describe_config(c: &DatamaranConfig) -> String {
    format!(
        "alpha={} L={} M={} search={} sample_bytes={} sample_chunks={} max_record_types={} \
         beam={} refine={} seed={:#x} generation={}x{} extraction={}x{} evaluation={}x{} matching={}",
        c.alpha,
        c.max_line_span,
        c.prune_keep,
        c.search.name(),
        c.sample_bytes,
        c.sample_chunks,
        c.max_record_types,
        c.beam_width,
        c.refine,
        c.seed,
        c.generation_backend.name(),
        c.generation_threads,
        c.extraction_backend.name(),
        c.extraction_threads,
        c.evaluation_backend.name(),
        c.evaluation_threads,
        c.matching_backend.name(),
    )
}

/// Generates the LogHub clone `name` at `scale_divisor` (optionally with `records`
/// records), its record draws seeded from the benchmark seed and the stream index `k`.
/// The record-type catalog itself is fixed per clone; only the drawn records vary.
pub fn loghub(
    name: &str,
    scale_divisor: usize,
    records: Option<usize>,
    seed: u64,
    k: u64,
) -> GeneratedDataset {
    let entry = logsynth::loghub::catalog()
        .into_iter()
        .find(|e| e.name == name)
        .expect("dataset is catalogued");
    let mut spec = entry.spec(scale_divisor);
    if let Some(n) = records {
        spec = spec.with_records(n);
    }
    spec.seed = mix64(logsynth::loghub::stable_seed(name) ^ mix64(seed) ^ mix64(k ^ 0x6b));
    spec.generate()
}

/// The clone `name` exactly as the corpus matrix generates it (its own fixed seed): the
/// source of the fixed template artifacts, so every benchmark seed replays and serves
/// against the same template set.
pub fn canonical(name: &str) -> GeneratedDataset {
    logsynth::loghub::catalog()
        .into_iter()
        .find(|e| e.name == name)
        .expect("dataset is catalogued")
        .spec(1)
        .generate()
}

pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a 64 running digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The JSON Lines destination of the batch workloads: digests and counts every byte,
/// and timestamps every `sample_every`-th row as it arrives.
pub struct DigestWriter {
    pub digest: Fnv,
    pub bytes: usize,
    pub rows: usize,
    sample_every: usize,
    pub stamps: Vec<Instant>,
    /// Seconds spent inside `write` (measured only when `timed`).
    pub write_s: f64,
    timed: bool,
}

impl DigestWriter {
    pub fn new(sample_every: usize, timed: bool) -> Self {
        DigestWriter {
            digest: Fnv::default(),
            bytes: 0,
            rows: 0,
            sample_every: sample_every.max(1),
            stamps: Vec::new(),
            write_s: 0.0,
            timed,
        }
    }
}

impl Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let started = self.timed.then(Instant::now);
        self.digest.update(buf);
        self.bytes += buf.len();
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            if self.rows.is_multiple_of(self.sample_every) {
                self.stamps.push(Instant::now());
            }
            self.rows += 1;
        }
        if let Some(t) = started {
            self.write_s += t.elapsed().as_secs_f64();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Set-up runs at least this many times…
const SETUP_MIN: usize = 3;
/// …and keeps repeating while this much time has not passed…
const SETUP_BUDGET_S: f64 = 1.0;
/// …up to this many times.
const SETUP_MAX: usize = 50;

/// Times repeated set-ups and returns the median duration with the last repetition's
/// result.
pub fn time_setups<T>(mut once: impl FnMut() -> T) -> (f64, T) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = once();
        times.push(t.elapsed().as_secs_f64());
        let more = times.len() < SETUP_MIN
            || (times.len() < SETUP_MAX && started.elapsed().as_secs_f64() < SETUP_BUDGET_S);
        if !more {
            return (crate::stats::median(&times), value);
        }
    }
}

/// Scratch directory of one run inside the checkout; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(".perfbench").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run produced: operation counts, named correctness checks, and the
/// metrics of the requested kind (end-to-end untraced, per-layer traced).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<crate::trace::Tracer>,
}

impl Outcome {
    /// Records a correctness check; a failing one counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Seconds as milliseconds.
pub fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// Bytes per second as MB/s (10^6 bytes).
pub fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / secs / 1e6
    } else {
        0.0
    }
}
