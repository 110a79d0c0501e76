//! `strong`: exact strong simulation of the paper's four circuit families
//! on the bit-sliced backend, result cache off, no shots.  Each job is
//! `Session::for_circuit` → `run` → drop.
//!
//! A pass runs every job once, each family spread evenly over the pass.
//! The small-n, deep-BDD half (rc_t, the superposed
//! RevLib-style adder and comparator, GRCS 4×5) and the large-n half (BV,
//! GHZ entanglement) each take about half its time.  rc_t stays at 16–18
//! qubits: at 22–24 qubits one circuit in ten costs 10–40× the median.

use crate::probe::{
    bitslice_config, check_coverage, emit_span_means, note_round_trip, BddTotals, CircuitLayer,
    GateProfile, TraceOverhead,
};
use crate::stats::{self, pool_seed, Rng};
use crate::trace::Tracer;
use crate::{fail, machine, record, timed_setup, Outcome, Settings, SETUP_REPS};
use sliq_circuit::{qasm, Circuit, Gate};
use sliq_exec::{BackendKind, Session, SessionConfig};
use sliq_workloads::{
    algorithms, random_clifford_t, revlib_like, supremacy_circuit, Lattice, ReversibleBenchmark,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A job over this long fails the run.
const JOB_LIMIT: Duration = Duration::from_secs(60);

/// Circuits up to this many qubits are checked against the dense backend.
const DENSE_MAX_QUBITS: usize = 20;

struct Sizes {
    rct: &'static [usize],
    rct_count: usize,
    adder_bits: usize,
    comparator_bits: usize,
    grcs: (usize, usize, usize),
    grcs_count: usize,
    bv: &'static [usize],
    ent: &'static [usize],
}

const FULL: Sizes = Sizes {
    rct: &[16, 17, 18],
    rct_count: 96,
    adder_bits: 16,
    comparator_bits: 12,
    grcs: (4, 5, 5),
    grcs_count: 6,
    bv: &[1000, 1000],
    ent: &[1000, 1500, 2000],
};

const SHORT: Sizes = Sizes {
    rct: &[8, 9],
    rct_count: 4,
    adder_bits: 4,
    comparator_bits: 3,
    grcs: (3, 3, 4),
    grcs_count: 1,
    bv: &[40],
    ent: &[30, 60],
};

/// How a job's answer is checked (outside the timed region).
enum Check {
    /// Basis-state probabilities computed by the dense backend.
    Dense(Vec<(Vec<bool>, f64)>),
    /// BV: the data register holds the secret with certainty; the ancilla
    /// is |−⟩.
    Secret(Vec<bool>),
    /// GHZ: |0…0⟩ and |1…1⟩ with probability ½ each.
    Ghz,
    /// A reversible circuit on superposed inputs: this basis state has
    /// probability `2^-free`.
    Classical(Vec<bool>, f64),
}

struct Job {
    id: u64,
    family: &'static str,
    label: String,
    circuit: Circuit,
    qasm: String,
    check: Check,
}

/// The dense backend's probabilities of three basis states: |0…0⟩, the
/// most likely state and one drawn from the seed.  The dense state is
/// freed before the function returns; only the three values are kept.
/// (Each probe costs up to 0.4 s on a GRCS state, so three, not more.)
fn dense_check(circuit: &Circuit, rng: &mut Rng) -> Result<Check, String> {
    let mut session =
        Session::for_circuit(circuit, SessionConfig::with_backend(BackendKind::Dense))
            .map_err(|e| e.to_string())?;
    session.run(circuit).map_err(|e| e.to_string())?;
    let probabilities = session.dense_mut().expect("dense session").probabilities();
    let n = circuit.num_qubits();
    let argmax = (0..probabilities.len())
        .max_by(|&a, &b| probabilities[a].total_cmp(&probabilities[b]))
        .unwrap_or(0);
    let drawn = rng.below(probabilities.len());
    Ok(Check::Dense(
        [0, argmax, drawn]
            .into_iter()
            .map(|i| ((0..n).map(|q| i >> q & 1 == 1).collect(), probabilities[i]))
            .collect(),
    ))
}

/// Applies a classical reversible circuit to a basis state; `None` when a
/// gate is not a permutation.
fn classical(circuit: &Circuit, bits: &[bool]) -> Option<Vec<bool>> {
    let mut bits = bits.to_vec();
    for gate in circuit.iter() {
        match gate {
            Gate::X(q) => bits[*q] ^= true,
            Gate::Cnot { control, target } => bits[*target] ^= bits[*control],
            Gate::Toffoli { controls, target } => {
                bits[*target] ^= controls.iter().all(|&c| bits[c]);
            }
            Gate::Fredkin {
                controls,
                target1,
                target2,
            } => {
                if controls.iter().all(|&c| bits[c]) {
                    bits.swap(*target1, *target2);
                }
            }
            _ => return None,
        }
    }
    Some(bits)
}

fn reversible_job(bench: &ReversibleBenchmark, rng: &mut Rng) -> Result<(Circuit, Check), String> {
    let input: Vec<bool> = bench
        .metadata
        .constants
        .iter()
        .map(|constant| constant.unwrap_or_else(|| rng.bit()))
        .collect();
    let output = classical(&bench.circuit, &input)
        .ok_or_else(|| format!("{} is not a classical reversible circuit", bench.name))?;
    let free = bench.metadata.free_inputs().len() as i32;
    Ok((
        bench.with_superposition_inputs(),
        Check::Classical(output, 0.5f64.powi(free)),
    ))
}

/// Builds one pass: random circuits from the pool, BV secrets and RevLib
/// inputs from the seed.
fn build_pass(sizes: &Sizes, settings: &Settings) -> Result<Vec<Job>, String> {
    let mut rng = Rng::new(settings.seed, 0x5700);
    let mut jobs = Vec::new();
    let mut push = |family: &'static str, label: String, circuit: Circuit, check: Check| {
        let qasm = qasm::emit(&circuit);
        jobs.push(Job {
            id: jobs.len() as u64 + 1,
            family,
            label,
            circuit,
            qasm,
            check,
        });
    };
    for i in 0..sizes.rct_count {
        let n = sizes.rct[i % sizes.rct.len()];
        let circuit = random_clifford_t(n, pool_seed(settings.pool, 1, i));
        let check = dense_check(&circuit, &mut rng)?;
        push("rct", format!("rct{n}"), circuit, check);
    }
    for bench in [
        revlib_like::ripple_carry_adder(sizes.adder_bits),
        revlib_like::equality_comparator(sizes.comparator_bits),
    ] {
        let (circuit, check) = reversible_job(&bench, &mut rng)?;
        push("rev", bench.name.clone(), circuit, check);
    }
    let (rows, cols, depth) = sizes.grcs;
    for i in 0..sizes.grcs_count {
        let circuit = supremacy_circuit(
            Lattice::new(rows, cols),
            depth,
            pool_seed(settings.pool, 2, i),
        );
        let check = if circuit.num_qubits() <= DENSE_MAX_QUBITS {
            dense_check(&circuit, &mut rng)?
        } else {
            return Err("GRCS lattice too large for its dense check".into());
        };
        push("grcs", format!("grcs{rows}x{cols}d{depth}"), circuit, check);
    }
    for &n in sizes.bv {
        let secret: Vec<bool> = (0..n - 1).map(|_| rng.bit()).collect();
        let circuit = algorithms::bernstein_vazirani(&secret);
        push("bv", format!("bv{n}"), circuit, Check::Secret(secret));
    }
    for &n in sizes.ent {
        push(
            "ent",
            format!("ent{n}"),
            algorithms::entanglement(n),
            Check::Ghz,
        );
    }
    Ok(interleave(jobs))
}

/// Spreads each family's jobs evenly over the pass, in an order that is
/// the same for every seed, so a burst of host noise touches a few jobs of
/// every family instead of every job of one.
fn interleave(jobs: Vec<Job>) -> Vec<Job> {
    let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
    for job in &jobs {
        *totals.entry(job.family).or_default() += 1;
    }
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let mut keyed: Vec<(f64, Job)> = jobs
        .into_iter()
        .map(|job| {
            let k = seen.entry(job.family).or_default();
            let key = (*k as f64 + 0.5) / totals[job.family] as f64;
            *k += 1;
            (key, job)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, job)| job).collect()
}

fn close(p: f64, q: f64, tolerance: f64) -> bool {
    (p - q).abs() <= tolerance
}

/// Verifies a finished job's state.
fn check(job: &Job, session: &mut Session) -> Result<(), String> {
    let normalized = session
        .bitslice_mut()
        .ok_or("the job did not run on the bit-sliced backend")?
        .is_exactly_normalized();
    if !normalized {
        return Err("state is not exactly normalized".into());
    }
    let n = job.circuit.num_qubits();
    let expect = |session: &mut Session, bits: &[bool], p: f64, tolerance: f64| {
        let got = session.probability_of_basis_state(bits);
        if close(got, p, tolerance) {
            Ok(())
        } else {
            Err(format!("P(basis) = {got}, expected {p}"))
        }
    };
    match &job.check {
        Check::Dense(probes) => {
            for (bits, p) in probes {
                expect(session, bits, *p, 1e-9)?;
            }
        }
        Check::Secret(secret) => {
            for ancilla in [false, true] {
                let mut bits = secret.clone();
                bits.push(ancilla);
                expect(session, &bits, 0.5, 1e-12)?;
            }
        }
        Check::Ghz => {
            expect(session, &vec![false; n], 0.5, 1e-12)?;
            expect(session, &vec![true; n], 0.5, 1e-12)?;
        }
        Check::Classical(bits, p) => expect(session, bits, *p, p * 1e-9)?,
    }
    Ok(())
}

fn over_limit(label: &str, elapsed: Duration) -> Result<(), String> {
    if elapsed > JOB_LIMIT {
        Err(format!(
            "job {label} took {:.1} s, over the {} s job limit",
            elapsed.as_secs_f64(),
            JOB_LIMIT.as_secs()
        ))
    } else {
        Ok(())
    }
}

/// Runs one job untraced: returns its latency (open + run + drop) and
/// whether its answer checked out.
fn untraced_job(
    job: &Job,
    outcome: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> Result<Duration, String> {
    outcome.attempted += 1;
    let start = Instant::now();
    let mut session = match Session::for_circuit(&job.circuit, bitslice_config()) {
        Ok(session) => session,
        Err(error) => {
            fail(outcome, format!("{}: open: {error}", job.label));
            return Ok(start.elapsed());
        }
    };
    let run = session.run(&job.circuit);
    let busy = start.elapsed();
    match run {
        Err(error) => fail(outcome, format!("{}: run: {error}", job.label)),
        Ok(_) => {
            if let Err(error) = check(job, &mut session) {
                fail(outcome, format!("{}: {error}", job.label));
            }
            if let Some(tracer) = tracer {
                tracer.time("core.total_probability", job.id, || {
                    session.total_probability()
                });
            }
        }
    }
    let dropped = Instant::now();
    drop(session);
    let latency = busy + dropped.elapsed();
    over_limit(&job.label, latency)?;
    Ok(latency)
}

/// Runs one job inside spans: `job` { `exec.open`, `exec.run`, `exec.drop` }.
fn traced_job(job: &Job, tracer: &mut Tracer, bdd: &mut BddTotals) -> Result<Duration, String> {
    let start = Instant::now();
    let span = tracer.begin("job", job.id);
    let mut session = tracer
        .time("exec.open", job.id, || {
            Session::for_circuit(&job.circuit, bitslice_config())
        })
        .map_err(|e| format!("{}: open: {e}", job.label))?;
    let result = tracer
        .time("exec.run", job.id, || session.run(&job.circuit))
        .map_err(|e| format!("{}: run: {e}", job.label))?;
    tracer.time("exec.drop", job.id, || drop(session));
    tracer.end(span);
    let latency = start.elapsed();
    over_limit(&job.label, latency)?;
    if let Some(stats) = &result.stats.bdd {
        bdd.add(stats, None);
    }
    Ok(latency)
}

/// The `strong` workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let sizes = if settings.short { &SHORT } else { &FULL };
    let reps = if settings.short { 1 } else { SETUP_REPS };
    let (pass, setup_s) = timed_setup(reps, || build_pass(sizes, settings))?;
    let mut outcome = Outcome::default();
    if settings.trace {
        trace(&pass, settings, &mut outcome)?;
        return Ok(outcome);
    }
    let mut latencies_ms = Vec::new();
    let mut measured = 0.0;
    let mut family_time: BTreeMap<&str, f64> = BTreeMap::new();
    for _ in 0..settings.passes() {
        for job in &pass {
            let latency = untraced_job(job, &mut outcome, None)?.as_secs_f64();
            latencies_ms.push(latency * 1e3);
            measured += latency;
            *family_time.entry(job.family).or_default() += latency;
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
    for (family, secs) in family_time {
        outcome.note(format!("share.{family}"), format!("{:.3}", secs / measured));
    }
    Ok(outcome)
}

/// One traced pass: every job runs untraced (checked) and traced,
/// alternating which goes first, then through the circuit and per-gate
/// probes.
fn trace(pass: &[Job], settings: &Settings, outcome: &mut Outcome) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut bdd = BddTotals::default();
    let mut circuit_layer = CircuitLayer::default();
    let mut gates = GateProfile::default();
    let mut overhead = TraceOverhead::default();
    for (i, job) in pass.iter().enumerate() {
        let (traced, untraced) = if i % 2 == 0 {
            let t = traced_job(job, &mut tracer, &mut bdd)?;
            (t, untraced_job(job, outcome, Some(&mut tracer))?)
        } else {
            let u = untraced_job(job, outcome, Some(&mut tracer))?;
            (traced_job(job, &mut tracer, &mut bdd)?, u)
        };
        overhead.add(traced.as_secs_f64(), untraced.as_secs_f64());
        if !circuit_layer.probe(&mut tracer, job.id, &job.qasm, &job.circuit) {
            note_round_trip(outcome, &job.label);
        }
        gates.stream(&mut tracer, job.id, job.family, &job.circuit)?;
    }
    emit_span_means(
        outcome,
        &tracer,
        &[
            ("exec.open_ms", "exec.open"),
            ("exec.run_ms", "exec.run"),
            ("exec.drop_ms", "exec.drop"),
            ("core.total_probability_ms", "core.total_probability"),
        ],
    );
    circuit_layer.emit(outcome, &tracer);
    gates.emit(outcome)?;
    bdd.emit(outcome, "bdd", true);
    overhead.emit(outcome);
    check_coverage(outcome, &tracer, overhead.untraced_s());
    if !settings.short {
        record::save_spans("strong", settings.seed, &tracer);
    }
    Ok(())
}
