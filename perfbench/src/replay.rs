//! `replay_wide` — the batch streaming path with a fixed template artifact:
//! `StreamSession::run` into a `JsonLinesSink`, discovery never runs.
//!
//! Why this workload: matching is nearly all of its wall time, so it shows matcher gains
//! that `discover` cannot (it spends <1% there).  It loads the artifact/compile path, the
//! streaming window loop, the fused matcher and the JSONL export; it bypasses generation,
//! refinement, serving, the journal and the daemon.
//!
//! The stream is the thunderbird clone, replayed against the 608 distinct templates of
//! its catalog (taken from the clone's canonical corpus draw, so every seed replays a
//! different stream against the same template set).  The fused DFA overflows its
//! 32,768-state budget, and every `StreamSession::run` starts with a cold DFA cache.
//! Measured before this benchmark existed, in a streaming replay of a ~750-template
//! thunderbird catalog: fused 2.1 MB/s against 9.0 MB/s for the trial matcher (the
//! warm-cache `BENCH_matching.json` reports fused 7.9x faster).  Here the fused matcher
//! takes ~1.6–1.8x the trial matcher's match time (`extract.fused_vs_trial` ≈ 0.55–0.63)
//! and the stream replays at ~6.8 MB/s on a quiet two-core Xeon VM (~4.4 MB/s when the
//! host is busy).  Later matcher changes start from that baseline.
//!
//! A narrow counterpart (the hdfs clone's 43-template catalog, where the fused DFA stays
//! within budget and matches ~2x faster than trial) was dropped: its ~40 ms passes swing
//! between ~34 and ~49 MB/s with the host's load, and across four sets of ten seeds its
//! `mb_s` spread reached 0.27 of the median, beyond any bound the benchmark may set.

use crate::common::{
    canonical, engine_config, loghub, mb_per_s, ms, time_setups, DigestWriter, Outcome, WorkDir,
};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use datamaran_bench::loghub_template_set;
use datamaran_core::{
    snapshot_from_artifact, Datamaran, Dataset, JsonLinesSink, MatchingBackend, SpanLineMatcher,
    SpanScratch, StreamOptions, StreamSession, StreamSummary, StructureTemplate, TemplateArtifact,
};
use std::io::Cursor;
use std::time::Instant;

const DATASET: &str = "thunderbird";
/// Every 8th row is timestamped on arrival (row latency is sampled, not exhaustive, to
/// keep the clock off the export path).
const ROW_SAMPLE: usize = 8;
/// Passes per side when the traced run compares traced and untraced passes.
const OVERHEAD_PASSES: usize = 3;
/// Untimed passes before measuring: the first second of passes on a fresh process runs
/// ~30% slower than the rest on the two-core reference VM.
const WARMUP_S: f64 = 1.0;

struct PassResult {
    secs: f64,
    summary: StreamSummary,
    sink: DigestWriter,
    started: Instant,
}

fn pass(
    engine: &Datamaran,
    templates: &[StructureTemplate],
    text: &str,
    timed_writes: bool,
) -> datamaran_core::Result<PassResult> {
    let templates = templates.to_vec();
    let mut sink = JsonLinesSink::new(DigestWriter::new(ROW_SAMPLE, timed_writes));
    let started = Instant::now();
    let summary = StreamSession::new(engine)
        .options(StreamOptions::default())
        .templates(templates)
        .run(Cursor::new(text.as_bytes()), &mut sink)?;
    let secs = started.elapsed().as_secs_f64();
    Ok(PassResult {
        secs,
        summary,
        sink: sink.into_writer(),
        started,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let config = engine_config(MatchingBackend::Fused);
    out.note(format!(
        "config: {}",
        crate::common::describe_config(&config)
    ));
    let data = loghub(DATASET, 1, None, seed, 0);
    let text = data.text.as_str();
    let artifact_path = work.path("artifact.json");
    TemplateArtifact::new(
        loghub_template_set(&canonical(DATASET)),
        config.max_line_span,
        MatchingBackend::Fused,
    )
    .and_then(|a| a.save(&artifact_path))
    .expect("artifact saves to the work dir");

    // Set-up: artifact load + snapshot compile.
    let mut tracer = Tracer::new(trace);
    let (setup_s, templates) = time_setups(|| {
        let loaded = tracer.time("artifact.load", 0, || {
            TemplateArtifact::load(&artifact_path)
        });
        let loaded = loaded.expect("artifact loads");
        let snapshot = tracer.time("serve.compile", 0, || snapshot_from_artifact(&loaded));
        std::hint::black_box(&snapshot);
        loaded.templates
    });
    out.note(format!(
        "{DATASET}: {} bytes, {} lines, {} templates",
        text.len(),
        text.lines().count(),
        templates.len()
    ));

    // Reference output, untimed, through the in-tree trial matcher.
    let trial_engine = Datamaran::new(engine_config(MatchingBackend::Trial)).expect("valid");
    let reference = pass(&trial_engine, &templates, text, false).expect("trial replay runs");
    let engine = Datamaran::new(config).expect("valid config");

    if !trace {
        let warmup = Instant::now();
        while warmup.elapsed().as_secs_f64() < WARMUP_S {
            pass(&engine, &templates, text, false).expect("replay runs");
        }
        let mut busy_s = 0.0;
        let mut latency_ms = Vec::new();
        let mut passes = 0u64;
        let mut mismatched = 0u64;
        let started = Instant::now();
        while passes < 3 || started.elapsed().as_secs_f64() < seconds {
            passes += 1;
            match pass(&engine, &templates, text, false) {
                Ok(p) => {
                    if p.sink.digest != reference.sink.digest || p.sink.rows != reference.sink.rows
                    {
                        mismatched += 1;
                    }
                    busy_s += p.secs;
                    latency_ms.extend(
                        p.sink
                            .stamps
                            .iter()
                            .map(|t| ms(t.duration_since(p.started).as_secs_f64())),
                    );
                }
                Err(e) => {
                    mismatched += 1;
                    out.note(format!("replay failed: {e}"));
                }
            }
        }
        out.attempted += passes;
        out.failed += mismatched;
        out.checks.push((
            format!(
                "{} of {passes} passes byte-identical to the trial-matcher JSONL ({} rows)",
                passes - mismatched,
                reference.sink.rows
            ),
            mismatched == 0,
        ));
        let tail = summarize(&mut latency_ms);
        let mb_s = mb_per_s(text.len() * passes as usize, busy_s);
        out.note(format!(
            "{passes} passes, {mb_s:.3} MB/s; row latency n={} p50={:.1} ms p{}={:.1} ms",
            tail.n, tail.p50, tail.tail_pct, tail.tail
        ));
        out.set("setup_s", setup_s);
        out.set("mb_s", mb_s);
        out.set("p50_ms", tail.p50);
        out.set("p99_ms", tail.tail);
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
        return out;
    }

    // Traced run.  Untraced and traced passes alternate; their median difference is the
    // tracing overhead.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    for i in 0..OVERHEAD_PASSES {
        plain.push(
            pass(&engine, &templates, text, false)
                .expect("replay runs")
                .secs,
        );
        let span = tracer.begin("streaming.run", i as u64);
        let p = pass(&engine, &templates, text, true).expect("replay runs");
        tracer.end(span);
        traced.push(p.secs);
        last = Some(p);
    }
    let p = last.expect("at least one traced pass");
    out.check(
        "traced pass byte-identical to the trial-matcher JSONL",
        p.sink.digest == reference.sink.digest,
    );
    out.set(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
    );
    let s = &p.summary;
    let stats = s.match_stats();
    out.set("streaming.match_s", s.match_seconds);
    out.set("streaming.sink_s", s.sink_seconds);
    out.set("streaming.windows", s.windows as f64);
    out.set("streaming.peak_window_bytes", s.peak_window_bytes as f64);
    out.set("export.write_s", p.sink.write_s);
    out.set("export.bytes", p.sink.bytes as f64);
    out.set("extract.mb_s", mb_per_s(s.bytes_processed, s.match_seconds));
    out.set(
        "extract.trials_per_line",
        stats.templates_trialed as f64 / stats.lines_dispatched.max(1) as f64,
    );
    out.set("extract.prune_ratio", stats.prune_rate());
    out.set(
        "extract.fused_vs_trial",
        reference.summary.match_seconds / s.match_seconds,
    );

    // The fused DFA's state count after one cold pass over the stream.
    let dataset = Dataset::new(text);
    let matcher = SpanLineMatcher::with_backend(
        &templates,
        engine.config().max_line_span,
        MatchingBackend::Fused,
    );
    let mut scratch = SpanScratch::default();
    let (mut cells, mut reps) = (Vec::new(), Vec::new());
    let mut line = 0;
    while line < dataset.line_count() {
        line = matcher
            .match_line_into(&dataset, line, &mut cells, &mut reps, &mut scratch)
            .map_or(line + 1, |r| r.line_span.1);
        cells.clear();
        reps.clear();
    }
    out.set("extract.dfa_states", scratch.fused_dfa_states() as f64);
    out.set(
        "extract.dfa_overflowed",
        f64::from(u8::from(scratch.fused_dfa_overflowed())),
    );
    let layers = tracer.layers();
    let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s / l.count as f64);
    out.set("artifact.load_s", self_s("artifact.load"));
    out.set("serve.compile_s", self_s("serve.compile"));
    out.trace = Some(tracer);
    out
}
