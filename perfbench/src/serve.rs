//! `serve` and `drift` — an open-loop generator on one thread drives a
//! `datamaran_serve::Daemon` over several sequential connections.
//!
//! The daemon runs with its shipped defaults (`ServeOptions`, `FlushPolicy`) and a
//! durable template journal in the run's work dir, started the way `datamaran-serve
//! --journal` starts it: artifact load, journal replay, snapshot compile, daemon
//! construction.  Each connection is a paced reader handed to `Daemon::handle_stream`:
//! line `i` is due at `start + i / rate` and is handed over no earlier; when the daemon
//! stalls, due lines pile up and go out as soon as it reads again, so a stall shows in
//! the latency of every line that waited (open loop).  `Daemon::metrics_json` is scraped
//! every [`SCRAPE_INTERVAL`] from the same thread, between lines.  The daemon's output
//! writer parses each row's `"lines":[a,b]` field and stamps its arrival; a row's
//! latency runs from when its last input line was due until its bytes reach the writer.
//! `mb_s` is the schedule's bytes over the time the daemon was busy with them: each
//! connection's wall time minus the generator's waits and scrapes.
//!
//! * `serve` — why: per-line latency is the main metric of online log structuring, and
//!   this is the only workload that loads the daemon, the serving session and the
//!   journal-backed store.  The base format (apache clone) is fully covered by its
//!   catalog artifact, so rediscovery, swaps and journal appends are bypassed.  The
//!   reported latency is the steady phase at [`NOMINAL_LPS`]; the offered rate then
//!   steps through [`CAPACITY_LPS`], which bracket the daemon's measured capacity.  A
//!   row cannot leave before its 256-line window has filled (up to 64 ms at the nominal
//!   rate) and the shipped flush policy buffers up to 64 KiB of rows, so the nominal
//!   p50/p99 are mostly that wait: the serving path's own time shows in the per-layer
//!   `daemon.window_p50_ms`/`daemon.window_p99_ms` (latency from the last line handed
//!   to the daemon) and, gated, in `serve`'s `mb_s`, which the capacity rungs dominate.
//! * `drift` — why: it is the only workload that loads inline rediscovery, the hot swap
//!   and the journal append.  After a steady base phase at the nominal rate a second
//!   LogHub format takes over the stream; the first drifted window triggers discovery on
//!   the residual inside `push_line`, which stalls the connection for seconds.  The
//!   reported latencies are the drift phase's, as medians over [`DRIFT_EPISODES`]
//!   episodes, each on a fresh daemon with its own draw of drift lines.  The drift
//!   format (zookeeper) keeps the stall at 2–4 s: the residual holds only drifted lines
//!   because the base artifact covers the base stream, and discovery on a 251-line
//!   zookeeper residual varies least across draws among the clones tried (hadoop
//!   2–3.7 s, the others 5–18 s).

use crate::common::{
    canonical, engine_config, loghub, mb_per_s, ms, time_setups, Outcome, WorkDir,
};
use crate::stats::{median, summarize, Lateness};
use crate::trace::Tracer;
use datamaran_bench::loghub_template_set;
use datamaran_core::{
    recovered_snapshot, CountingSink, Datamaran, JournalConfig, JournalPersistence,
    MatchingBackend, ServeMetrics, ServeOptions, ServeSession, SnapshotStore, TemplateArtifact,
};
use datamaran_serve::{Daemon, FlushPolicy};
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Serve,
    Drift,
}

const BASE: &str = "apache";
const DRIFT: &str = "zookeeper";
/// The rate whose steady-phase latency `serve` reports, and the rate of `drift`: a
/// lightly loaded daemon, about 1% busy at the capacity measured below, so the reported
/// latency is the per-window path without queueing; and slow enough that `drift`'s
/// drifted lines are all due within its rediscovery stall.
const NOMINAL_LPS: f64 = 4_000.0;
/// Connections at the nominal rate; they share the run's `--seconds`.
const NOMINAL_CONNECTIONS: usize = 2;
/// The rungs above the nominal rate, one connection of [`RUNG_LINES`] each: steps of √2
/// around the daemon's capacity, which measured 415,000–470,000 lines per busy second
/// (median ~450,000) on the rungs of calibration runs with the apache artifact, on one
/// core of the two-core Xeon reference VM.  A rung keeps up to about 90% of that, so the
/// three lower rungs hold their backlog and the two upper ones cannot: `loadgen.max_lps`
/// reads 350,000 and moves a step when capacity falls below ~390,000 or rises above
/// ~555,000 lines per busy second.
const CAPACITY_LPS: [f64; 5] = [175_000.0, 250_000.0, 350_000.0, 500_000.0, 700_000.0];
/// Lines per capacity rung: ~400 windows, enough for the backlog of an overloaded rung
/// to grow far beyond a window, few enough that the row log stays small.
const RUNG_LINES: usize = 100_000;
/// Drift episodes per `drift` run, each on a fresh daemon with its own draw of drift
/// lines; the reported latencies are medians over episodes, because one rediscovery's
/// cost swings with the residual's content (with three episodes the run-to-run spread of
/// the drift latencies was ~0.15 of their median).
const DRIFT_EPISODES: usize = 9;
/// Lines per drift episode, as seconds of the run at the nominal rate: the rest of the
/// episode's time is the rediscovery stall.  Half of them are base lines, half drifted.
/// The drifted half (~0.2 s of lines) is due well within the ~2 s stall, so every
/// drift-phase row waits for it and both latency percentiles track the stall instead of
/// flipping between waiting and non-waiting rows.
const DRIFT_EPISODE_SHARE: f64 = 0.25;
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);
/// A ladder step meets its limit when its row p99 is at most this and the generator's
/// backlog does not grow.
const LATENCY_LIMIT_MS: f64 = 1_000.0;
/// How many windows of lines a ladder step's generator backlog may grow by before the
/// step counts as overloaded: at the capacity rungs a single window's processing lets a
/// window's worth of lines fall due, and a rung at 90% of capacity ends up to ~1.5
/// windows behind, while one above capacity falls tens of windows behind.
const BACKLOG_SLACK_WINDOWS: usize = 4;
/// Minimum share of steady base lines the initial artifact must explain.
const MIN_BASE_COVERAGE: f64 = 0.97;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Base-format lines.
    Steady,
    /// Drift-format lines.
    Drift,
}

/// One connection of the schedule.
struct Conn {
    rate: f64,
    phase: Phase,
    lines: Vec<Arc<str>>,
}

fn lines_of(text: &str) -> Vec<Arc<str>> {
    text.split_inclusive('\n').map(Arc::from).collect()
}

/// Takes `n` lines from `pool`, cycling from `cursor`.
fn take(pool: &[Arc<str>], cursor: &mut usize, n: usize) -> Vec<Arc<str>> {
    (0..n)
        .map(|_| {
            let line = pool[*cursor % pool.len()].clone();
            *cursor += 1;
            line
        })
        .collect()
}

/// The offered rates of the `serve` ladder, lowest first.
fn ladder() -> impl Iterator<Item = f64> {
    std::iter::once(NOMINAL_LPS).chain(CAPACITY_LPS)
}

/// The run's episodes, each a sequence of connections served by one daemon: the nominal
/// connections then one per capacity rung for `serve`, [`DRIFT_EPISODES`]
/// base-then-drift pairs for `drift`.
fn schedule(mode: Mode, seed: u64, seconds: f64) -> Vec<Vec<Conn>> {
    let base = lines_of(&loghub(BASE, 1, Some(30_000), seed, 0).text);
    let mut cursor = 0;
    match mode {
        Mode::Serve => {
            let nominal = (NOMINAL_LPS * seconds / NOMINAL_CONNECTIONS as f64) as usize;
            let rates = std::iter::repeat_n((NOMINAL_LPS, nominal), NOMINAL_CONNECTIONS)
                .chain(CAPACITY_LPS.iter().map(|&rate| (rate, RUNG_LINES)));
            vec![rates
                .map(|(rate, n)| Conn {
                    rate,
                    phase: Phase::Steady,
                    lines: take(&base, &mut cursor, n),
                })
                .collect()]
        }
        Mode::Drift => {
            let half = (NOMINAL_LPS * seconds * DRIFT_EPISODE_SHARE / DRIFT_EPISODES as f64 / 2.0)
                as usize;
            (1..=DRIFT_EPISODES as u64)
                .map(|k| {
                    let drift = lines_of(&loghub(DRIFT, 1, Some(4_000), seed, k).text);
                    vec![
                        Conn {
                            rate: NOMINAL_LPS,
                            phase: Phase::Steady,
                            lines: take(&base, &mut cursor, half),
                        },
                        Conn {
                            rate: NOMINAL_LPS,
                            phase: Phase::Drift,
                            lines: take(&drift, &mut 0, half),
                        },
                    ]
                })
                .collect()
        }
    }
}

/// One output row as the daemon's writer saw it.
struct Row {
    conn: usize,
    first: usize,
    end: usize,
    at: Instant,
}

#[derive(Default)]
struct RowLog {
    conn: usize,
    rows: Vec<Row>,
    unparsed: usize,
    bytes: usize,
    partial: Vec<u8>,
}

/// The daemon's output stream: parses `"lines":[a,b]` out of every row as it arrives.
struct RowWriter(Arc<Mutex<RowLog>>);

impl Write for RowWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let at = Instant::now();
        let mut log = self.0.lock().expect("row log lock is never poisoned");
        log.bytes += buf.len();
        log.partial.extend_from_slice(buf);
        let partial = std::mem::take(&mut log.partial);
        let mut rest = partial.as_slice();
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            match parse_lines_field(&rest[..nl]) {
                Some((first, end)) => {
                    let conn = log.conn;
                    log.rows.push(Row {
                        conn,
                        first,
                        end,
                        at,
                    });
                }
                None => log.unparsed += 1,
            }
            rest = &rest[nl + 1..];
        }
        log.partial = rest.to_vec();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `[a,b]` of a JSONL row's `"lines":[a,b]` field.
fn parse_lines_field(row: &[u8]) -> Option<(usize, usize)> {
    const KEY: &[u8] = b"\"lines\":[";
    let at = row.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let rest = std::str::from_utf8(&row[at..]).ok()?;
    let close = rest.find(']')?;
    let (a, b) = rest[..close].split_once(',')?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

/// The open-loop line source of one connection.
struct Paced<'a> {
    lines: &'a [Arc<str>],
    next: usize,
    pos: usize,
    start: Instant,
    rate: f64,
    daemon: &'a Daemon,
    next_scrape: Instant,
    lateness: Lateness,
    wait_s: f64,
    /// `(start, end, bytes)` of every metrics scrape.
    scrapes: Vec<(Instant, Instant, usize)>,
}

impl Paced<'_> {
    fn due(&self, line: usize) -> Instant {
        self.start + Duration::from_secs_f64(line as f64 / self.rate)
    }
}

impl Read for Paced<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.next > 0 && self.pos < self.lines[self.next - 1].len() {
            return Ok(&self.lines[self.next - 1].as_bytes()[self.pos..]);
        }
        if self.next == self.lines.len() {
            return Ok(&[]);
        }
        let now = Instant::now();
        if now >= self.next_scrape {
            let doc = self.daemon.metrics_json();
            self.scrapes.push((now, Instant::now(), doc.len()));
            while self.next_scrape <= now {
                self.next_scrape += SCRAPE_INTERVAL;
            }
        }
        let due = self.due(self.next);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            self.wait_s += now.elapsed().as_secs_f64();
        }
        let sent = Instant::now();
        self.lateness.record(
            due.duration_since(self.start).as_secs_f64(),
            sent.duration_since(self.start).as_secs_f64(),
        );
        self.next += 1;
        self.pos = 0;
        Ok(self.lines[self.next - 1].as_bytes())
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// What one connection left behind.
struct ConnResult {
    start: Instant,
    busy_s: f64,
    metrics: ServeMetrics,
    lateness: Lateness,
    scrapes: Vec<(Instant, Instant, usize)>,
}

/// The daemon plus the shared view of its output stream.
struct Served {
    daemon: Daemon,
    log: Arc<Mutex<RowLog>>,
}

/// Starts the daemon like `datamaran-serve --templates A --journal J`.
fn start(artifact_path: &Path, journal_path: &Path, tracer: &mut Tracer) -> Served {
    let artifact = tracer
        .time("artifact.load", 0, || TemplateArtifact::load(artifact_path))
        .expect("artifact loads");
    let (persistence, deltas, _note) = tracer
        .time("journal.replay", 0, || {
            JournalPersistence::open(
                &artifact,
                artifact_path,
                journal_path,
                JournalConfig::default(),
            )
        })
        .expect("journal opens");
    let snapshot = tracer
        .time("serve.compile", 0, || {
            recovered_snapshot(&artifact, &deltas)
        })
        .expect("snapshot compiles");
    let log = Arc::new(Mutex::new(RowLog::default()));
    let daemon = tracer
        .time("daemon.new", 0, || {
            let engine = Datamaran::new(engine_config(MatchingBackend::Fused))?;
            Daemon::with_store(
                engine,
                SnapshotStore::with_persistence(snapshot, Arc::new(persistence)),
                ServeOptions::default(),
                Box::new(RowWriter(Arc::clone(&log))),
                FlushPolicy::default(),
            )
        })
        .expect("daemon starts");
    Served { daemon, log }
}

/// Runs the schedule against a fresh daemon; `Err` carries a failed connection.
fn drive(
    served: &Served,
    schedule: &[Conn],
    tracer: &mut Tracer,
) -> Vec<datamaran_core::Result<ConnResult>> {
    let mut next_scrape = Instant::now();
    let mut out = Vec::new();
    for (k, conn) in schedule.iter().enumerate() {
        served.log.lock().expect("row log lock").conn = k;
        let start = Instant::now();
        let mut paced = Paced {
            lines: &conn.lines,
            next: 0,
            pos: 0,
            start,
            rate: conn.rate,
            daemon: &served.daemon,
            next_scrape,
            lateness: Lateness::default(),
            wait_s: 0.0,
            scrapes: Vec::new(),
        };
        let span = tracer.begin("daemon.connection", k as u64);
        let result = served.daemon.handle_stream(&mut paced);
        let end = Instant::now();
        for &(s, e, _) in &paced.scrapes {
            tracer.record("daemon.scrape", k as u64, s, e);
        }
        tracer.end(span);
        next_scrape = paced.next_scrape;
        let wall_s = end.duration_since(start).as_secs_f64();
        let scrape_s: f64 = paced
            .scrapes
            .iter()
            .map(|(s, e, _)| e.duration_since(*s).as_secs_f64())
            .sum();
        out.push(result.map(|metrics| ConnResult {
            start,
            busy_s: wall_s - paced.wait_s - scrape_s,
            metrics,
            lateness: paced.lateness,
            scrapes: paced.scrapes,
        }));
    }
    out
}

/// Per-run results after the schedule has been checked.
#[derive(Default)]
struct Measured {
    bytes: usize,
    busy_s: f64,
    /// Row latencies (ms) per connection.
    latency_ms: Vec<Vec<f64>>,
    /// Row latencies net of the wait for input (ms) per connection: from the last line
    /// handed to the daemon before the row reached the writer.
    window_ms: Vec<Vec<f64>>,
    /// Lines per second of daemon busy time, per connection.
    conn_lps: Vec<f64>,
    scrape_ms: Vec<f64>,
    scrape_bytes: Vec<f64>,
    late_ms: Vec<f64>,
    backlog: Vec<usize>,
    growing: Vec<bool>,
    conn_busy_s: Vec<f64>,
}

/// Checks that every sent line is accounted for exactly once — inside one row's line
/// span or as a noise line — and collects the timings.
fn account(
    schedule: &[Conn],
    results: Vec<datamaran_core::Result<ConnResult>>,
    log: &RowLog,
    out: &mut Outcome,
) -> Measured {
    let mut m = Measured::default();
    for (k, (conn, result)) in schedule.iter().zip(results).enumerate() {
        let sent = conn.lines.len();
        out.attempted += sent as u64;
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += sent as u64;
                out.note(format!("connection {k} failed: {e}"));
                m.latency_ms.push(Vec::new());
                m.window_ms.push(Vec::new());
                m.conn_lps.push(0.0);
                m.growing.push(false);
                continue;
            }
        };
        let mut rows: Vec<&Row> = log.rows.iter().filter(|row| row.conn == k).collect();
        rows.sort_by_key(|row| row.first);
        let mut covered = 0usize;
        let mut overlaps = 0usize;
        let mut reach = 0usize;
        let mut latency = Vec::with_capacity(rows.len());
        let mut window = Vec::with_capacity(rows.len());
        for row in &rows {
            if row.first < reach || row.end <= row.first || row.end > sent {
                overlaps += 1;
                continue;
            }
            reach = row.end;
            covered += row.end - row.first;
            let due = r.start + Duration::from_secs_f64((row.end - 1) as f64 / conn.rate);
            latency.push(ms(row.at.saturating_duration_since(due).as_secs_f64()));
            let at = row.at.saturating_duration_since(r.start).as_secs_f64();
            if let Some(sent) = r.lateness.last_sent_by(at) {
                window.push(ms(at - sent));
            }
        }
        let noise = r.metrics.summary.noise_lines;
        let unaccounted = sent.abs_diff(covered + noise) + overlaps;
        out.failed += unaccounted as u64;
        out.checks.push((
            format!(
                "connection {k}: {sent} lines = {covered} in {} rows + {noise} noise",
                rows.len()
            ),
            unaccounted == 0 && rows.len() == r.metrics.summary.records,
        ));
        if conn.phase == Phase::Steady {
            out.check(
                format!(
                    "connection {k}: artifact covers {:.4} of base lines (>= {MIN_BASE_COVERAGE})",
                    covered as f64 / sent as f64
                ),
                covered as f64 >= MIN_BASE_COVERAGE * sent as f64,
            );
        }
        m.latency_ms.push(latency);
        m.window_ms.push(window);
        m.conn_lps.push(sent as f64 / r.busy_s);
        m.conn_busy_s.push(r.busy_s);
        for (s, e, bytes) in &r.scrapes {
            m.scrape_ms.push(ms(e.duration_since(*s).as_secs_f64()));
            m.scrape_bytes.push(*bytes as f64);
        }
        m.bytes += conn.lines.iter().map(|l| l.len()).sum::<usize>();
        m.busy_s += r.busy_s;
        m.late_ms.extend(r.lateness.late_secs().into_iter().map(ms));
        m.backlog.push(r.lateness.final_backlog());
        m.growing.push(
            r.lateness
                .backlog_growing(BACKLOG_SLACK_WINDOWS * ServeOptions::default().window_lines),
        );
    }
    if log.unparsed > 0 {
        out.check(
            format!("{} output rows without a lines field", log.unparsed),
            false,
        );
    }
    m
}

/// Whether a connection's rows are the ones `mode` reports: the steady nominal-rate
/// connections of `serve`, the drift phase of `drift`.
fn reported(mode: Mode, conn: &Conn) -> bool {
    match mode {
        Mode::Serve => conn.rate == NOMINAL_LPS,
        Mode::Drift => conn.phase == Phase::Drift,
    }
}

/// Per-connection samples `of` the connections selected by `pick`, pooled.
fn pooled(schedule: &[Conn], of: &[Vec<f64>], pick: impl Fn(&Conn) -> bool) -> Vec<f64> {
    schedule
        .iter()
        .zip(of)
        .filter(|(c, _)| pick(c))
        .flat_map(|(_, l)| l.iter().copied())
        .collect()
}

pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let config = engine_config(MatchingBackend::Fused);
    out.note(format!(
        "config: {}",
        crate::common::describe_config(&config)
    ));
    out.note(format!(
        "daemon: {:?} {:?}",
        ServeOptions::default(),
        FlushPolicy::default()
    ));
    let artifact = TemplateArtifact::new(
        loghub_template_set(&canonical(BASE)),
        config.max_line_span,
        MatchingBackend::Fused,
    )
    .expect("the catalog is not empty");
    // A daemon compacts learned templates into its artifact on shutdown, so every daemon
    // starts from its own copy of the base artifact.
    let fresh_artifact = |tag: &str| {
        let path = work.path(&format!("artifact-{tag}.json"));
        artifact
            .save(&path)
            .expect("artifact saves to the work dir");
        path
    };
    let artifact_path = fresh_artifact("setup");
    let episodes = schedule(mode, seed, seconds);

    // Set-up: artifact load, journal replay, snapshot compile, daemon construction — a
    // daemon restarting on its journal.  An untimed first start creates the journal (and
    // fsyncs its header); every timed repetition replays it.
    let mut quiet = Tracer::new(false);
    let journal_path = work.path("journal-setup.bin");
    drop(start(&artifact_path, &journal_path, &mut quiet));
    let (setup_s, served) = time_setups(|| start(&artifact_path, &journal_path, &mut quiet));

    if !trace {
        let mut first = Some(served);
        let mut bytes = 0;
        let mut busy_s = 0.0;
        let mut tails = Vec::new();
        for (i, episode) in episodes.iter().enumerate() {
            let daemon = first.take().unwrap_or_else(|| {
                let tag = format!("episode-{i}");
                let journal = work.path(&format!("journal-{tag}.bin"));
                start(&fresh_artifact(&tag), &journal, &mut quiet)
            });
            let results = drive(&daemon, episode, &mut quiet);
            let m = finish(&daemon, episode, results, mode, &mut out, &mut quiet);
            bytes += m.bytes;
            busy_s += m.busy_s;
            let mut rows = pooled(episode, &m.latency_ms, |c| reported(mode, c));
            let tail = summarize(&mut rows);
            out.note(format!(
                "episode {i}, {} rows: n={} p50={:.1} ms p{}={:.1} ms",
                match mode {
                    Mode::Serve => "steady nominal-rate",
                    Mode::Drift => "drift-phase",
                },
                tail.n,
                tail.p50,
                tail.tail_pct,
                tail.tail
            ));
            tails.push(tail);
        }
        let p50: Vec<f64> = tails.iter().map(|t| t.p50).collect();
        let p99: Vec<f64> = tails.iter().map(|t| t.tail).collect();
        out.set("setup_s", setup_s);
        out.set("mb_s", mb_per_s(bytes, busy_s));
        out.set("p50_ms", median(&p50));
        out.set("p99_ms", median(&p99));
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
        return out;
    }

    // Traced run, on the first episode: untraced on the set-up daemon, then traced on a
    // fresh one, restarted on its own journal like the set-up daemon (the capacity
    // difference is the tracing overhead), then the drift stall measured by driving a
    // `ServeSession` directly.
    let schedule = &episodes[0];
    let plain = drive(&served, schedule, &mut quiet);
    let plain = finish(
        &served,
        schedule,
        plain,
        mode,
        &mut Outcome::default(),
        &mut quiet,
    );
    let mut tracer = Tracer::new(true);
    let (traced_artifact, traced_journal) =
        (fresh_artifact("traced"), work.path("journal-traced.bin"));
    drop(start(&traced_artifact, &traced_journal, &mut quiet));
    let traced = start(&traced_artifact, &traced_journal, &mut tracer);
    let results = drive(&traced, schedule, &mut tracer);
    let m = finish(&traced, schedule, results, mode, &mut out, &mut tracer);
    out.set(
        "trace.overhead_frac",
        (plain.bytes as f64 / plain.busy_s) / (m.bytes as f64 / m.busy_s) - 1.0,
    );
    let layers = tracer.layers();
    let mean_self = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s / l.count as f64);
    out.set("artifact.load_s", mean_self("artifact.load"));
    out.set("journal.replay_s", mean_self("journal.replay"));
    out.set("serve.compile_s", mean_self("serve.compile"));
    out.set("journal.compact_s", mean_self("journal.compact"));
    out.set("daemon.scrape_s", median(&m.scrape_ms) / 1e3);
    out.set(
        "daemon.scrape_p99_ms",
        summarize(&mut m.scrape_ms.clone()).tail,
    );
    out.set("daemon.scrape_bytes", median(&m.scrape_bytes));
    out.set("daemon.connection_s", median(&m.conn_busy_s));
    let summary = &traced.daemon.metrics();
    let s = &summary.summary;
    out.set("streaming.match_s", s.match_seconds);
    out.set("streaming.sink_s", s.sink_seconds);
    out.set("streaming.windows", s.windows as f64);
    out.set("streaming.peak_window_bytes", s.peak_window_bytes as f64);
    let stats = s.match_stats();
    out.set("extract.mb_s", mb_per_s(s.bytes_processed, s.match_seconds));
    out.set(
        "extract.trials_per_line",
        stats.templates_trialed as f64 / stats.lines_dispatched.max(1) as f64,
    );
    out.set("extract.prune_ratio", stats.prune_rate());
    out.set("serve.swaps", summary.swaps as f64);
    out.set(
        "serve.rediscover_failures",
        summary.rediscover_failures as f64,
    );
    out.set("serve.residual_dropped", summary.residual_dropped as f64);
    let journal = traced.daemon.store().persistence_stats();
    out.set(
        "journal.appends",
        journal.map_or(0.0, |j| j.appended as f64),
    );
    out.set(
        "journal.failures",
        journal.map_or(0.0, |j| j.failures as f64),
    );
    out.set(
        "export.bytes",
        traced.log.lock().expect("row log").bytes as f64,
    );
    let window = summarize(&mut pooled(schedule, &m.window_ms, |c| reported(mode, c)));
    out.set("daemon.window_p50_ms", window.p50);
    out.set("daemon.window_p99_ms", window.tail);
    let mut late = m.late_ms.clone();
    out.set("loadgen.late_p99_ms", summarize(&mut late).tail);
    out.set(
        "loadgen.backlog_lines",
        m.backlog.iter().copied().max().unwrap_or(0) as f64,
    );
    match mode {
        Mode::Serve => out.set("loadgen.max_lps", max_lps(schedule, &m)),
        Mode::Drift => out.set("serve.rediscover_s", rediscover_stall(&artifact, schedule)),
    }
    out.trace = Some(tracer);
    out
}

/// Clean shutdown (flush + compaction, as on SIGTERM), then the accounting and the
/// workload-specific checks.
fn finish(
    served: &Served,
    schedule: &[Conn],
    results: Vec<datamaran_core::Result<ConnResult>>,
    mode: Mode,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Measured {
    let flushed = served.daemon.flush_output();
    let compacted = tracer.time("journal.compact", 0, || served.daemon.compact());
    out.check("daemon flushes its output", flushed.is_ok());
    out.check("journal compacts on shutdown", compacted.is_ok());
    let log = served.log.lock().expect("row log lock");
    let m = account(schedule, results, &log, out);
    drop(log);
    let metrics = served.daemon.metrics();
    let appended = served
        .daemon
        .store()
        .persistence_stats()
        .map_or(0, |s| s.appended);
    out.check(
        format!(
            "journal.appends {appended} == serve.swaps {}",
            metrics.swaps
        ),
        appended == metrics.swaps,
    );
    match mode {
        Mode::Serve => {
            out.check(
                format!(
                    "steady serving bypasses rediscovery (swaps {}, failures {})",
                    metrics.swaps, metrics.rediscover_failures
                ),
                metrics.swaps == 0 && metrics.rediscover_failures == 0,
            );
            for (k, conn) in schedule.iter().enumerate().skip(NOMINAL_CONNECTIONS) {
                let mut rows = m.latency_ms[k].clone();
                out.note(format!(
                    "rung {:.0} lines/s: {:.0} lines per busy second, row p99 {:.1} ms, \
                     final backlog {} lines ({})",
                    conn.rate,
                    m.conn_lps[k],
                    summarize(&mut rows).tail,
                    m.backlog[k],
                    if m.growing[k] { "growing" } else { "steady" }
                ));
            }
            out.note(format!("ladder max_lps={}", max_lps(schedule, &m)));
        }
        Mode::Drift => out.check(
            format!("drift forces a hot swap (swaps {})", metrics.swaps),
            metrics.swaps >= 1,
        ),
    }
    m
}

/// The highest ladder rate whose rows meet [`LATENCY_LIMIT_MS`] at p99 with no growing
/// generator backlog on any of its connections (0 when none does).
fn max_lps(schedule: &[Conn], m: &Measured) -> f64 {
    ladder()
        .filter(|&rate| {
            let mut rows = pooled(schedule, &m.latency_ms, |c| c.rate == rate);
            let growing = schedule
                .iter()
                .zip(&m.growing)
                .any(|(c, &g)| c.rate == rate && g);
            !rows.is_empty() && !growing && summarize(&mut rows).tail <= LATENCY_LIMIT_MS
        })
        .fold(0.0, f64::max)
}

/// Total duration of the `push_line` calls during which a drift rediscovery ran (the
/// session's swap or failure count advanced), driving a `ServeSession` directly.  Only
/// calls over a millisecond are inspected: discovery on the ≥64-line residual it needs
/// takes far longer.
fn rediscover_stall(artifact: &TemplateArtifact, schedule: &[Conn]) -> f64 {
    let engine = Datamaran::new(engine_config(MatchingBackend::Fused)).expect("valid config");
    let store = SnapshotStore::new(datamaran_core::snapshot_from_artifact(artifact));
    let mut stall = 0.0;
    for conn in schedule {
        let mut session =
            ServeSession::new(&engine, &store, ServeOptions::default()).expect("valid options");
        let mut sink = CountingSink::default();
        let mut seen = (0, 0);
        for line in &conn.lines {
            let started = Instant::now();
            session.push_line(line, &mut sink).expect("push succeeds");
            let took = started.elapsed();
            if took > Duration::from_millis(1) {
                let m = session.metrics();
                if (m.swaps, m.rediscover_failures) != seen {
                    seen = (m.swaps, m.rediscover_failures);
                    stall += took.as_secs_f64();
                }
            }
        }
    }
    stall
}
