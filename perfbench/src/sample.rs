//! `sample`: weak simulation.  Each job runs one rc_t circuit on the
//! bit-sliced backend, draws a shot batch with a fresh seed, then draws
//! again with new seeds from the same state, which is the path the
//! session's sampling memo serves.

use crate::probe::{
    bitslice_config, check_coverage, emit_span_means, note_round_trip, BddTotals, CircuitLayer,
    GateProfile, TraceOverhead,
};
use crate::stats::{self, pool_seed, Rng};
use crate::trace::Tracer;
use crate::{fail, machine, record, timed_setup, Outcome, Settings, SETUP_REPS};
use sliq_circuit::{qasm, Circuit};
use sliq_exec::{BackendKind, Histogram, Session, SessionConfig};
use sliq_workloads::random_clifford_t;
use std::time::{Duration, Instant};

/// A job over this long fails the run.
const JOB_LIMIT: Duration = Duration::from_secs(30);

struct Sizes {
    qubits: &'static [usize],
    shots: &'static [u64],
    repeats: usize,
    jobs: usize,
    traced_jobs: usize,
}

const FULL: Sizes = Sizes {
    qubits: &[12],
    shots: &[1024, 4096],
    repeats: 1,
    jobs: 200,
    traced_jobs: 40,
};

const SHORT: Sizes = Sizes {
    qubits: &[5, 6],
    shots: &[64],
    repeats: 1,
    jobs: 4,
    traced_jobs: 4,
};

struct Job {
    id: u64,
    label: String,
    circuit: Circuit,
    qasm: String,
    shots: u64,
    /// First seed, then the repeat seeds.
    seeds: Vec<u64>,
    /// Digest of the dense backend's histogram for each seed (a digest,
    /// not the histogram, so the references hardly add to the peak RSS).
    expected: Vec<u64>,
}

/// A histogram's digest: width, shots and every (outcome, count) pair.
fn digest(histogram: &Histogram) -> u64 {
    let head = [histogram.num_qubits() as u64, histogram.shots()];
    let pairs = histogram.counts().iter().flat_map(|(&o, &c)| [o, c]);
    stats::digest(head.into_iter().chain(pairs))
}

/// Builds one pass: circuits from the pool, shot seeds from the seed.
fn build(sizes: &Sizes, settings: &Settings) -> Result<Vec<Job>, String> {
    let mut rng = Rng::new(settings.seed, 0x5a3);
    (0..sizes.jobs)
        .map(|i| {
            let n = sizes.qubits[i % sizes.qubits.len()];
            let shots = sizes.shots[(i / sizes.qubits.len()) % sizes.shots.len()];
            let circuit = random_clifford_t(n, pool_seed(settings.pool, 3, i));
            let seeds: Vec<u64> = (0..=sizes.repeats).map(|_| rng.next_u64()).collect();
            let mut dense =
                Session::for_circuit(&circuit, SessionConfig::with_backend(BackendKind::Dense))
                    .map_err(|e| e.to_string())?;
            dense.run(&circuit).map_err(|e| e.to_string())?;
            let expected = seeds
                .iter()
                .map(|&s| dense.sample(shots, s).map(|r| digest(&r.histogram)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            Ok(Job {
                id: i as u64 + 1,
                label: format!("rct{n}/{shots}"),
                qasm: qasm::emit(&circuit),
                circuit,
                shots,
                seeds,
                expected,
            })
        })
        .collect()
}

/// Runs one job untraced; histograms are compared after the clock stops.
fn untraced_job(job: &Job, outcome: &mut Outcome) -> Result<Duration, String> {
    outcome.attempted += 1;
    let start = Instant::now();
    let result = (|| {
        let mut session = Session::for_circuit(&job.circuit, bitslice_config())?;
        session.run(&job.circuit)?;
        let histograms = job
            .seeds
            .iter()
            .map(|&seed| session.sample(job.shots, seed).map(|r| r.histogram))
            .collect::<Result<Vec<_>, _>>()?;
        drop(session);
        Ok::<_, sliq_exec::ExecError>(histograms)
    })();
    let latency = start.elapsed();
    match result {
        Err(error) => fail(outcome, format!("{}: {error}", job.label)),
        Ok(histograms) => {
            if !histograms
                .iter()
                .map(|h| digest(h))
                .eq(job.expected.iter().copied())
            {
                fail(
                    outcome,
                    format!("{}: histogram differs from the dense backend's", job.label),
                );
            }
        }
    }
    if latency > JOB_LIMIT {
        return Err(format!(
            "job {} took {:.1} s, over the {} s job limit",
            job.label,
            latency.as_secs_f64(),
            JOB_LIMIT.as_secs()
        ));
    }
    Ok(latency)
}

/// Runs one job inside spans and collects kernel counters: the run's, and
/// the deltas across every `sample` call.
fn traced_job(
    job: &Job,
    tracer: &mut Tracer,
    bdd: &mut BddTotals,
    bdd_sample: &mut BddTotals,
) -> Result<Duration, String> {
    let start = Instant::now();
    let span = tracer.begin("job", job.id);
    let err = |e: sliq_exec::ExecError| format!("{}: {e}", job.label);
    let mut session = tracer
        .time("exec.open", job.id, || {
            Session::for_circuit(&job.circuit, bitslice_config())
        })
        .map_err(err)?;
    let run = tracer
        .time("exec.run", job.id, || session.run(&job.circuit))
        .map_err(err)?;
    for (i, &seed) in job.seeds.iter().enumerate() {
        let before = session.stats().bdd;
        let name = if i == 0 {
            "exec.sample_first"
        } else {
            "exec.sample_repeat"
        };
        tracer
            .time(name, job.id, || session.sample(job.shots, seed))
            .map_err(err)?;
        if let (Some(after), Some(before)) = (session.stats().bdd, before) {
            bdd_sample.add(&after, Some(&before));
        }
    }
    tracer.time("exec.drop", job.id, || drop(session));
    tracer.end(span);
    if let Some(stats) = &run.stats.bdd {
        bdd.add(stats, None);
    }
    Ok(start.elapsed())
}

/// The `sample` workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let sizes = if settings.short { &SHORT } else { &FULL };
    let reps = if settings.short { 1 } else { SETUP_REPS };
    let (jobs, setup_s) = timed_setup(reps, || build(sizes, settings))?;
    let mut outcome = Outcome::default();
    if settings.trace {
        trace(
            &jobs[..sizes.traced_jobs.min(jobs.len())],
            settings,
            &mut outcome,
        )?;
        return Ok(outcome);
    }
    let mut latencies_ms = Vec::new();
    let mut measured = 0.0;
    for _ in 0..settings.passes() {
        for job in &jobs {
            let latency = untraced_job(job, &mut outcome)?.as_secs_f64();
            latencies_ms.push(latency * 1e3);
            measured += latency;
        }
    }
    outcome.set("setup_s", setup_s);
    outcome.set("jobs_per_s", latencies_ms.len() as f64 / measured);
    outcome.set("job_p50_ms", stats::median(&latencies_ms));
    outcome.note_tail(&latencies_ms);
    outcome.set(
        "peak_rss_mib",
        machine::peak_rss_mib(None).ok_or("cannot read peak RSS")?,
    );
    Ok(outcome)
}

fn trace(jobs: &[Job], settings: &Settings, outcome: &mut Outcome) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut bdd = BddTotals::default();
    let mut bdd_sample = BddTotals::default();
    let mut circuit_layer = CircuitLayer::default();
    let mut gates = GateProfile::default();
    let mut overhead = TraceOverhead::default();
    for (i, job) in jobs.iter().enumerate() {
        let (traced, untraced) = if i % 2 == 0 {
            let t = traced_job(job, &mut tracer, &mut bdd, &mut bdd_sample)?;
            (t, untraced_job(job, outcome)?)
        } else {
            let u = untraced_job(job, outcome)?;
            (traced_job(job, &mut tracer, &mut bdd, &mut bdd_sample)?, u)
        };
        overhead.add(traced.as_secs_f64(), untraced.as_secs_f64());
        if !circuit_layer.probe(&mut tracer, job.id, &job.qasm, &job.circuit) {
            note_round_trip(outcome, &job.label);
        }
        gates.stream(&mut tracer, job.id, "rct", &job.circuit)?;
    }
    emit_span_means(
        outcome,
        &tracer,
        &[
            ("exec.open_ms", "exec.open"),
            ("exec.run_ms", "exec.run"),
            ("exec.drop_ms", "exec.drop"),
            ("exec.sample_first_ms", "exec.sample_first"),
            ("exec.sample_repeat_ms", "exec.sample_repeat"),
        ],
    );
    circuit_layer.emit(outcome, &tracer);
    gates.emit(outcome)?;
    bdd.emit(outcome, "bdd", true);
    bdd_sample.emit(outcome, "bdd.sample", false);
    overhead.emit(outcome);
    check_coverage(outcome, &tracer, overhead.untraced_s());
    if !settings.short {
        record::save_spans("sample", settings.seed, &tracer);
    }
    Ok(())
}
