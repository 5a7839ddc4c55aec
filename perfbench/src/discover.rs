//! `discover` — the paper's batch path: raw text in, templates and relational tables out.
//!
//! Why this workload: it is how DATAMARAN is meant to be used on a data lake, and it is
//! the only workload where discovery runs end to end.  It loads generation (most of the
//! time), pruning, refinement/MDL evaluation (about a quarter), the final extraction
//! pass and the relational/JSONL export.  It bypasses streaming, serving, the journal and
//! the daemon; matching is well under 1% of its time.
//!
//! Inputs: full-scale draws of the zookeeper LogHub clone (~700 KB, 89 templates), each
//! drawn from the benchmark seed and the draw index.  A run extracts at least
//! [`MIN_DRAWS`] draws, generating further ones (untimed) only while `--seconds` have not
//! passed; one extract takes 9–15 s on one core, so at the committed 15 s a run extracts
//! exactly three.  Every row waits for its whole extract, so the row latencies are the
//! draws' extract times, weighted by their record counts.
//!
//! The hadoop clone is left out.  Its discovery cost swings 4.6x between draws (2.6–12 s,
//! as the number of record types found goes from 1 to 4), wider than any bound a
//! run-to-run comparison can hold, and ~30 KB draws that would average it out are too
//! small for the full-scale quality floors (pooled hadoop line coverage fell to 0.975
//! against its 0.98 floor on one seed).

use crate::common::{engine_config, loghub, mb_per_s, ms, time_setups, DigestWriter, Outcome};
use crate::stats::summarize;
use crate::trace::Tracer;
use datamaran_core::assimilation::prune;
use datamaran_core::{
    all_records_jsonl, extract_records, generate, to_relational, Datamaran, DatamaranConfig,
    Dataset, EvaluationMetrics, MatchingBackend, MdlScorer, RecordMatch, Refiner,
};
use logsynth::GeneratedDataset;
use std::io::Write;
use std::time::Instant;

const DATASET: &str = "zookeeper";
/// Draws a run always extracts (so the row-latency median is a middle draw, not one of
/// two); they are generated before set-up, further draws only when time remains.
const MIN_DRAWS: u64 = 3;

/// The zookeeper clone's quality floors in the committed `BENCH_corpus.json`.
const F1_FLOOR: f64 = 0.024;
const COVERAGE_FLOOR: f64 = 0.9194;

/// Rows out, time spent and quality for one pass over some inputs.
#[derive(Default)]
struct Pass {
    datasets: usize,
    bytes: usize,
    busy_s: f64,
    row_latency_ms: Vec<f64>,
    f1_sum: f64,
    /// Ground-truth record lines inside an extracted record, and all of them.
    covered_lines: f64,
    truth_lines: f64,
}

impl Pass {
    /// Checks quality, pooled over the run's draws, against the floors.
    fn check_quality(&self, out: &mut Outcome) {
        let f1 = self.f1_sum / self.datasets.max(1) as f64;
        let coverage = self.covered_lines / self.truth_lines.max(1.0);
        out.check(
            format!(
                "{DATASET} template_f1 {f1:.4} >= {F1_FLOOR} (mean of {} draws)",
                self.datasets
            ),
            f1 >= F1_FLOOR,
        );
        out.check(
            format!("{DATASET} line_coverage {coverage:.4} >= {COVERAGE_FLOOR} (pooled)"),
            coverage >= COVERAGE_FLOOR,
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let config = engine_config(MatchingBackend::Fused);
    out.note(format!(
        "config: {}",
        crate::common::describe_config(&config)
    ));

    // The raw logs exist before the program starts: generating them is not timed.
    let mut inputs: Vec<GeneratedDataset> = (0..MIN_DRAWS)
        .map(|k| loghub(DATASET, 1, None, seed, k))
        .collect();
    // Set-up: constructing the engine and indexing the draws' lines (`Dataset::new`, the
    // index every extraction pass starts from).
    let (setup_s, engine) = time_setups(|| {
        let engine = Datamaran::new(engine_config(MatchingBackend::Fused)).expect("valid config");
        for input in &inputs {
            std::hint::black_box(Dataset::new(&input.text));
        }
        engine
    });

    if !trace {
        let mut sink = DigestWriter::new(1, false);
        let mut quiet = Tracer::new(false);
        let started = Instant::now();
        let mut pass = Pass::default();
        let mut k = 0;
        while k < MIN_DRAWS || started.elapsed().as_secs_f64() < seconds {
            if k as usize == inputs.len() {
                inputs.push(loghub(DATASET, 1, None, seed, k));
            }
            extract_one(
                &engine,
                &inputs[k as usize],
                &mut sink,
                &mut pass,
                &mut out,
                &mut quiet,
            );
            k += 1;
        }
        pass.check_quality(&mut out);
        let tail = summarize(&mut pass.row_latency_ms);
        out.note(format!(
            "extracted {} datasets, {} bytes, {} rows in {:.2} s",
            pass.datasets, pass.bytes, sink.rows, pass.busy_s
        ));
        out.note(format!(
            "row latency n={} p50={:.1} ms p{}={:.1} ms",
            tail.n, tail.p50, tail.tail_pct, tail.tail
        ));
        out.set("setup_s", setup_s);
        out.set("mb_s", mb_per_s(pass.bytes, pass.busy_s));
        out.set("p50_ms", tail.p50);
        out.set("p99_ms", tail.tail);
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
        return out;
    }

    // Traced run: the first draw extracted once for the quality checks and the export
    // spans, then decomposed into one discovery round per layer — untraced, traced, and
    // untraced again; the traced round against the mean untraced one is the tracing
    // overhead.
    let mut tracer = Tracer::new(true);
    let mut sink = DigestWriter::new(1, true);
    let mut traced = Pass::default();
    extract_one(
        &engine,
        &inputs[0],
        &mut sink,
        &mut traced,
        &mut out,
        &mut tracer,
    );
    traced.check_quality(&mut out);
    out.set("export.write_s", sink.write_s);
    out.set("export.bytes", sink.bytes as f64);

    let mut quiet = Tracer::new(false);
    let before = round(&inputs[0].text, &config, &mut quiet).0;
    let (traced_s, counts) = round(&inputs[0].text, &config, &mut tracer);
    let after = round(&inputs[0].text, &config, &mut quiet).0;
    out.set(
        "trace.overhead_frac",
        traced_s / ((before + after) / 2.0) - 1.0,
    );
    let (candidates, kept, examined, charsets, metrics) = counts;
    let layers = tracer.layers();
    let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    out.set("dataset.sample_s", self_s("dataset.sample"));
    out.set("generation.self_s", self_s("generation"));
    out.set("generation.candidates", candidates as f64);
    out.set("generation.records_examined", examined as f64);
    out.set("generation.charsets", charsets as f64);
    out.set(
        "assimilation.kept_ratio",
        kept as f64 / candidates.max(1) as f64,
    );
    out.set("refine.self_s", self_s("refine"));
    out.set("refine.parse_s", metrics.parse_seconds);
    out.set("refine.score_s", metrics.score_seconds);
    out.set("refine.evaluations", metrics.evaluations as f64);
    out.set(
        "refine.memo_hit_ratio",
        metrics.memo_hits as f64 / metrics.evaluations.max(1) as f64,
    );
    out.set(
        "refine.delta_reuse",
        metrics.delta_records_reused as f64 / metrics.delta_records_total.max(1) as f64,
    );
    out.set("extract.self_s", self_s("extract"));
    out.set("relational.self_s", self_s("relational"));
    out.trace = Some(tracer);
    out
}

/// Counters of one decomposed discovery round: candidates, kept after pruning, records
/// examined, charsets enumerated, and the refiner's evaluation metrics.
type RoundCounts = (usize, usize, usize, usize, EvaluationMetrics);

/// One discovery round over `text`, each layer called through its public function inside
/// a span: sample, generate, prune, refine, then the final extraction and relational
/// output of the best refined template.  Returns the round's wall seconds.
fn round(text: &str, config: &DatamaranConfig, tracer: &mut Tracer) -> (f64, RoundCounts) {
    let started = Instant::now();
    let span = tracer.begin("round", 0);
    let (full, sample) = tracer.time("dataset.sample", 0, || {
        let full = Dataset::new(text);
        let sample = full.sample(config.sample_bytes, config.sample_chunks, config.seed);
        (full, sample)
    });
    let generation = tracer.time("generation", 0, || generate(&sample, config));
    let candidates = generation.candidates.len();
    let (examined, charsets) = (generation.records_examined, generation.charsets_enumerated);
    let pruned = tracer.time("assimilation", 0, || {
        prune(generation.candidates, config.prune_keep)
    });
    let kept = pruned.kept.len();
    let templates = pruned.kept.into_iter().map(|c| c.template).collect();
    let refiner = Refiner::with_config(&sample, &MdlScorer, config);
    let mut refined = tracer.time("refine", 0, || {
        refiner.refine_batch(templates, config.refine, config.evaluation_threads)
    });
    refined.retain(|r| {
        r.summary.record_count > 0 && r.summary.record_coverage(sample.len()) >= config.alpha
    });
    refined.sort_by(|a, b| a.score.total_cmp(&b.score));
    if let Some(best) = refined.into_iter().next() {
        let best = vec![best.template];
        let parse = tracer.time("extract", 0, || extract_records(&full, &best, config));
        tracer.time("relational", 0, || {
            let refs: Vec<&RecordMatch> = parse.records.iter().collect();
            std::hint::black_box(to_relational(&best[0], &full.shared_text(), &refs, "type0"));
        });
    }
    tracer.end(span);
    (
        started.elapsed().as_secs_f64(),
        (candidates, kept, examined, charsets, refiner.metrics()),
    )
}

/// Extracts one dataset, exports its rows as JSON Lines, and checks quality against the
/// ground truth (untimed).  Every row waits for the whole batch: its latency is the time
/// from handing the text to the engine until its bytes reach the writer.
fn extract_one(
    engine: &Datamaran,
    input: &GeneratedDataset,
    sink: &mut DigestWriter,
    pass: &mut Pass,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    out.attempted += 1;
    let text = input.text.as_str();
    let started = Instant::now();
    let result = match tracer.time("pipeline.extract", 0, || engine.extract(text)) {
        Ok(result) => result,
        Err(e) => {
            out.failed += 1;
            out.note(format!("extract failed: {e}"));
            return;
        }
    };
    tracer
        .time("export", 0, || {
            sink.write_all(all_records_jsonl(text, &result).as_bytes())
        })
        .expect("digest writer never fails");
    let elapsed = started.elapsed().as_secs_f64();
    pass.datasets += 1;
    pass.bytes += text.len();
    pass.busy_s += elapsed;
    pass.row_latency_ms
        .extend(std::iter::repeat_n(ms(elapsed), result.record_count()));

    let view = evalkit::datamaran_view(text, &result);
    let accuracy = evalkit::corpus::template_accuracy(input, &view);
    let lines: usize = input
        .records
        .iter()
        .map(|r| r.line_end - r.line_start)
        .sum();
    pass.f1_sum += accuracy.f1;
    pass.covered_lines += accuracy.line_coverage * lines as f64;
    pass.truth_lines += lines as f64;
}
