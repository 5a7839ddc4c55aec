//! End-to-end benchmark of the DATAMARAN workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <discover|replay_wide|serve|drift> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Inputs are generated from `--seed` (the program only
//! sees generated text); each workload measures for about `--seconds`, checks its
//! outputs, prints one line per metric, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]), measured
//! untraced; with `--trace 1` they are the per-layer set ([`PER_LAYER`]), from spans the
//! benchmark records around its calls into each layer (written to `.perfbench/traces/`).
//! Per-layer metrics a workload does not exercise read 0.
//!
//! Every workload reports the same end-to-end metrics:
//! * `setup_s` — median of several set-ups: what the program does before it takes input.
//! * `mb_s` — raw-log MB (10^6 bytes) through the program per second: per second of
//!   `extract` (discover), of stream passes (replay), and of daemon busy time (serve,
//!   drift; drift's rediscovery stall included).
//! * `p50_ms`, `p99_ms` — latency of an output row: from when its input was available
//!   (batch) or due (serving) until its bytes reach the output writer.  The tail is the
//!   highest percentile up to p99 with at least ten rows beyond it.  `drift` reports
//!   the median of these over its episodes.
//! * `peak_rss_mb` — peak resident memory of the run.
//!
//! Failed or unaccounted operations and failed checks are counted in `failed`, against
//! `attempted`; `fail_frac` is printed from them.

mod common;
mod discover;
mod replay;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("mb_s", "MB/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("dataset.sample_s", "s"),
    ("generation.self_s", "s"),
    ("generation.candidates", "count"),
    ("generation.records_examined", "count"),
    ("generation.charsets", "count"),
    ("assimilation.kept_ratio", "ratio"),
    ("refine.self_s", "s"),
    ("refine.parse_s", "s"),
    ("refine.score_s", "s"),
    ("refine.evaluations", "count"),
    ("refine.memo_hit_ratio", "ratio"),
    ("refine.delta_reuse", "ratio"),
    ("extract.self_s", "s"),
    ("relational.self_s", "s"),
    ("extract.mb_s", "MB/s"),
    ("extract.trials_per_line", "count"),
    ("extract.prune_ratio", "ratio"),
    ("extract.dfa_states", "count"),
    ("extract.dfa_overflowed", "flag"),
    ("extract.fused_vs_trial", "ratio"),
    ("streaming.match_s", "s"),
    ("streaming.sink_s", "s"),
    ("streaming.windows", "count"),
    ("streaming.peak_window_bytes", "bytes"),
    ("export.write_s", "s"),
    ("export.bytes", "bytes"),
    ("artifact.load_s", "s"),
    ("serve.compile_s", "s"),
    ("journal.replay_s", "s"),
    ("serve.rediscover_s", "s"),
    ("serve.swaps", "count"),
    ("serve.rediscover_failures", "count"),
    ("serve.residual_dropped", "count"),
    ("journal.appends", "count"),
    ("journal.failures", "count"),
    ("journal.compact_s", "s"),
    ("daemon.scrape_s", "s"),
    ("daemon.scrape_p99_ms", "ms"),
    ("daemon.scrape_bytes", "bytes"),
    ("daemon.connection_s", "s"),
    ("daemon.window_p50_ms", "ms"),
    ("daemon.window_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_lines", "count"),
    ("loadgen.max_lps", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Discover,
    ReplayWide,
    Serve,
    Drift,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "discover" => Workload::Discover,
            "replay_wide" => Workload::ReplayWide,
            "serve" => Workload::Serve,
            "drift" => Workload::Drift,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut name = String::new();
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                name = value.clone();
                if workload.is_none() {
                    return Err(format!("unknown workload {value}"));
                }
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the traced run's spans to `.perfbench/traces/<workload>-seed<seed>.jsonl`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new(".perfbench").join("traces");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write trace: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Nothing in the environment may change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DATAMARAN_") {
            std::env::remove_var(&key);
        }
    }
    let work = match common::WorkDir::create("run") {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: cannot create the work dir: {e}");
            return ExitCode::from(3);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={cores}",
        args.name, args.seed, args.seconds, args.trace
    );
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload {
        Workload::Discover => discover::run(seed, secs, trace),
        Workload::ReplayWide => replay::run(seed, secs, trace, &work),
        Workload::Serve => serve::run(serve::Mode::Serve, seed, secs, trace, &work),
        Workload::Drift => serve::run(serve::Mode::Drift, seed, secs, trace, &work),
    };
    drop(work);
    if let Some(tracer) = &outcome.trace {
        write_trace(tracer, &args.name, seed);
    }
    report(&outcome, trace);
    ExitCode::SUCCESS
}

/// Prints notes, checks and metrics for humans, then the one-line JSON result.
fn report(outcome: &common::Outcome, trace: bool) {
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, ok) in &outcome.checks {
        println!("  check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    let correct = outcome.checks.iter().all(|(_, ok)| *ok) && outcome.failed == 0;
    let attempted = outcome.attempted.max(1);
    println!(
        "  fail_frac = {} ({} of {attempted})",
        outcome.failed as f64 / attempted as f64,
        outcome.failed
    );
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in set {
        // A layer the workload does not exercise reads 0; every workload measures every
        // end-to-end metric.
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => panic!("workload did not measure {name}"),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed,
        fields.join(",")
    );
}
