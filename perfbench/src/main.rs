//! The repository's benchmark: strong simulation, batched sampling and the
//! TCP service, measured end to end (untraced runs) and layer by layer
//! (traced runs).  See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload strong|sample|serve --seed N --seconds S --trace 0|1 [--pool P] [--short]
//! perfbench benchmark-json      # prints the repository's BENCHMARK.json
//! perfbench serve-child ...     # the server process the serve workload drives
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod machine;
mod probe;
mod record;
mod sample;
mod serve;
mod stats;
mod strong;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How the benchmark is invoked, from the repository root; the caller
/// appends `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "perfbench",
    "--",
];

/// The benchmark's own directory, relative to the repository root.
pub const BENCH_DIR: &str = "perfbench";

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The circuit pool runs use unless `--pool` says otherwise.
pub const DEFAULT_POOL: u64 = 0;

/// A circuit pool no tuning of this benchmark used: a claimed gain must
/// also hold on it (`--pool 1`).  Every result records it.
pub const HELDOUT_POOL: u64 = 1;

/// Seconds one pass over a workload's circuit pool takes on the machine
/// the pools were sized on; a run makes `round(seconds / PASS_S)` passes
/// (at least one), so every run of a workload does the same work.
pub const PASS_S: f64 = 20.0;

/// The workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "strong",
        "exact strong simulation of the paper's four families; BDD apply, op caches and the gate loop \
         do the work, sampling and result cache do none",
    ),
    (
        "sample",
        "run rc_t circuits then draw first and repeat shot batches; the sampler and conditioning \
         dominate, gate apply is minor",
    ),
    (
        "serve",
        "QASM requests over TCP to a 1-worker server; the repo's skewed 6-circuit serve mix (cache \
         hits) plus 3% never-seen rc_t(12) misses, one at a time and 32 in flight",
    ),
];

/// Set-up repetitions whose median is reported as `setup_s`.
pub const SETUP_REPS: usize = 3;

/// A run over this many seconds fails loudly rather than overrun the
/// 180 s a run is allowed.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed of everything but the circuits: job order, BV secrets, shot
    /// seeds, request mix, check probes.
    pub seed: u64,
    /// Seed of the circuit pool.
    pub pool: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Tiny inputs and a short window, for the benchmark's own tests.
    pub short: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs (or requests) attempted.
    pub attempted: u64,
    /// Jobs that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra figures for the results file and standard error (tail
    /// percentiles, unsteady serve rates, ...).
    pub notes: BTreeMap<String, String>,
    /// Per-layer metrics of layers this workload never calls.
    pub unexercised: BTreeSet<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.insert(key.into(), value.to_string());
    }

    /// Records the tail of job latencies (ms) as a note: the tail is one
    /// job's time, and on a shared host the heaviest jobs swing by more
    /// than any bound the benchmark may set.
    pub fn note_tail(&mut self, latencies_ms: &[f64]) {
        let tail = stats::tail(latencies_ms);
        self.note(
            "job_tail_ms",
            format!(
                "{:.3} (p{:.2} of {} samples, {} beyond)",
                tail.value, tail.percentile, tail.samples, tail.beyond
            ),
        );
    }
}

impl Settings {
    /// Passes over the circuit pool this run makes.
    pub fn passes(&self) -> usize {
        if self.short {
            1
        } else {
            (self.seconds / PASS_S).round().max(1.0) as usize
        }
    }
}

/// Counts a failed check: logs it and bumps `failed`.
pub fn fail(outcome: &mut Outcome, what: impl std::fmt::Display) {
    eprintln!("perfbench: FAILED {what}");
    outcome.failed += 1;
}

/// Times `reps` set-ups, keeping the last one's state; returns it with the
/// median set-up time in seconds.  The peak RSS is reset afterwards, so
/// `peak_rss_mib` covers the measured work, not set-up's transient buffers.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..reps.max(1) {
        // Free the previous repetition's state (for serve: stop its server)
        // before the clock starts, so no two set-ups' state is held at once
        // and no repetition pays for freeing its predecessor.
        drop(state.take());
        let start = Instant::now();
        state = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    machine::reset_peak_rss()?;
    Ok((
        state.expect("at least one set-up ran"),
        stats::median(&times),
    ))
}

fn usage() -> String {
    "usage: perfbench --workload strong|sample|serve --seed N --seconds S --trace 0|1 [--pool P] [--short]\n\
     \x20      perfbench benchmark-json\n\
     \x20      perfbench serve-child"
        .into()
}

fn parse_args(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        pool: DEFAULT_POOL,
        seconds: RUN_SECONDS as f64,
        trace: false,
        short: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                settings.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--pool" => {
                settings.pool = value("--pool")?
                    .parse()
                    .map_err(|e| format!("--pool: {e}"))?
            }
            "--seconds" => {
                settings.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(settings.seconds > 0.0 && settings.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                settings.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--short" => settings.short = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, settings))
}

/// Formats a metric value as JSON: a finite number with every digit.
fn json_number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value:?}"))
    } else {
        Err(format!("non-finite value {value}"))
    }
}

fn run(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    let mut outcome = match workload {
        "strong" => strong::run(settings)?,
        "sample" => sample::run(settings)?,
        "serve" => serve::run(settings)?,
        other => unreachable!("validated workload {other}"),
    };
    if settings.trace {
        outcome
            .unexercised
            .extend(layers::complete(workload, &mut outcome.metrics)?);
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("benchmark-json") => {
            print!("{}", layers::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("serve-child") => return serve::child_main(),
        _ => {}
    }
    let (workload, settings) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("perfbench: {error}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    serve::start_watchdog(RUN_LIMIT);
    let result = run(&workload, &settings);
    serve::stop_registered();
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {workload} run failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    let wanted: Vec<(String, &str)> = if settings.trace {
        layers::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        layers::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let Some(&value) = outcome.metrics.get(name) else {
            eprintln!("perfbench: {workload} did not measure {name}");
            return ExitCode::FAILURE;
        };
        match json_number(value) {
            Ok(number) => fields.push(format!(
                "\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
            )),
            Err(error) => {
                eprintln!("perfbench: {name}: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (key, value) in &outcome.notes {
        eprintln!("perfbench: {workload} {key} = {value}");
    }
    if !settings.short {
        if let Err(error) = record::save(&workload, &settings, &outcome, &wanted) {
            eprintln!("perfbench: could not record results: {error}");
        }
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
