//! Traced probes shared by the workloads: the circuit layer (parse,
//! optimize, fingerprint), per-gate-kind timing through
//! `Session::apply_gate`, and BDD kernel counters from `ExecStats`.

use crate::layers::{BDD_CACHES, FAMILIES, GATE_KINDS};
use crate::trace::Tracer;
use crate::Outcome;
use sliq_bdd::ManagerStats;
use sliq_circuit::{optimize, qasm, Circuit};
use sliq_exec::{circuit_fingerprint, BackendKind, Session, SessionConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The session configuration every in-process job uses: bit-sliced
/// backend, one kernel thread, no result cache.
pub fn bitslice_config() -> SessionConfig {
    SessionConfig::with_backend(BackendKind::BitSlice).threads(1)
}

/// Circuit-layer probes over a traced pass.
#[derive(Debug, Default)]
pub struct CircuitLayer {
    gates_removed: u64,
}

impl CircuitLayer {
    /// Parses `source`, optimizes and fingerprints the result, each in its
    /// own span.  Returns false when `source` does not parse back to
    /// `circuit`; only the parse is traced then.
    pub fn probe(
        &mut self,
        tracer: &mut Tracer,
        job: u64,
        source: &str,
        circuit: &Circuit,
    ) -> bool {
        let parsed = match tracer.time("circuit.parse", job, || qasm::parse(source)) {
            Ok(parsed)
                if parsed.num_qubits() == circuit.num_qubits()
                    && parsed.gates() == circuit.gates() =>
            {
                parsed
            }
            _ => return false,
        };
        let (optimized, _) = tracer.time("circuit.optimize", job, || optimize(&parsed));
        self.gates_removed += (parsed.len() - optimized.len()) as u64;
        std::hint::black_box(tracer.time("exec.fingerprint", job, || circuit_fingerprint(&parsed)));
        true
    }

    /// Mean time per call of each probe, in ms, and the gates removed.
    pub fn emit(&self, outcome: &mut Outcome, tracer: &Tracer) {
        emit_span_means(
            outcome,
            tracer,
            &[
                ("circuit.parse_ms", "circuit.parse"),
                ("circuit.optimize_ms", "circuit.optimize"),
                ("exec.fingerprint_ms", "exec.fingerprint"),
            ],
        );
        outcome.set("circuit.gates_removed", self.gates_removed as f64);
    }
}

/// Sets each `(metric, span)` that ran to the span's mean self time per
/// call, in ms.  A span that never ran leaves its metric unset, so the
/// run fails if the catalogue says this workload measures it.
pub fn emit_span_means(outcome: &mut Outcome, tracer: &Tracer, pairs: &[(&str, &str)]) {
    let by_name = tracer.by_name();
    for &(metric, span) in pairs {
        if let Some(&(calls, secs)) = by_name.get(span) {
            outcome.set(metric, secs / calls as f64 * 1e3);
        }
    }
}

/// Sets `bench.span_coverage`: the time inside the child spans of every
/// `job` span (open, run, sample, drop) over the untraced latency of the
/// same jobs, `untraced_s` seconds in all.  Counts a failure when it is
/// under 95%: then the per-layer times no longer explain the job.
pub fn check_coverage(outcome: &mut Outcome, tracer: &Tracer, untraced_s: f64) {
    let coverage = if untraced_s > 0.0 {
        tracer.child_time("job") / untraced_s
    } else {
        0.0
    };
    outcome.set("bench.span_coverage", coverage);
    if coverage < 0.95 {
        crate::fail(
            outcome,
            format!("spans cover only {:.1}% of job time", coverage * 100.0),
        );
    }
}

/// Records a circuit whose `qasm::emit` output does not parse back.  The
/// strong and sample workloads never send QASM, so this is a finding about
/// the QASM writer, not a failed job.
pub fn note_round_trip(outcome: &mut Outcome, label: &str) {
    eprintln!("perfbench: {label}: qasm::emit output does not parse back");
    outcome.note(
        format!("qasm_round_trip_broken.{label}"),
        "emit/parse mismatch",
    );
}

/// Per-gate-kind and per-family timing from streaming circuits gate by
/// gate through `Session::apply_gate` on the bit-sliced backend.
#[derive(Debug, Default)]
pub struct GateProfile {
    kinds: BTreeMap<&'static str, (u64, f64)>,
    families: BTreeMap<&'static str, (u64, f64)>,
    width_max: usize,
    peak_nodes: usize,
}

impl GateProfile {
    /// Streams `circuit` (family `family`) through a fresh session inside a
    /// `core.stream` span.
    pub fn stream(
        &mut self,
        tracer: &mut Tracer,
        job: u64,
        family: &'static str,
        circuit: &Circuit,
    ) -> Result<(), String> {
        let span = tracer.begin("core.stream", job);
        let mut session =
            Session::for_circuit(circuit, bitslice_config()).map_err(|e| e.to_string())?;
        for gate in circuit.iter() {
            let start = Instant::now();
            session.apply_gate(gate).map_err(|e| e.to_string())?;
            let secs = start.elapsed().as_secs_f64();
            let kind = self.kinds.entry(gate.name()).or_default();
            kind.0 += 1;
            kind.1 += secs;
            let fam = self.families.entry(family).or_default();
            fam.0 += 1;
            fam.1 += secs;
            if let Some(sim) = session.bitslice_mut() {
                self.width_max = self.width_max.max(sim.width());
            }
        }
        self.peak_nodes = self.peak_nodes.max(session.stats().peak_nodes.unwrap_or(0));
        drop(session);
        tracer.end(span);
        Ok(())
    }

    /// Emits `core.gate.*` and `core.gate_mean_us.*` for the kinds and
    /// families streamed, `core.width_r_max` and `core.peak_nodes`.
    pub fn emit(&self, outcome: &mut Outcome) -> Result<(), String> {
        if let Some(kind) = self.kinds.keys().find(|k| !GATE_KINDS.contains(k)) {
            return Err(format!("gate kind {kind} is not in the metric catalogue"));
        }
        for (kind, (count, secs)) in &self.kinds {
            outcome.set(format!("core.gate.{kind}.count"), *count as f64);
            outcome.set(format!("core.gate.{kind}.ms"), secs * 1e3);
        }
        for (family, (count, secs)) in &self.families {
            if !FAMILIES.contains(family) {
                return Err(format!("family {family} is not in the metric catalogue"));
            }
            outcome.set(
                format!("core.gate_mean_us.{family}"),
                secs / *count as f64 * 1e6,
            );
        }
        outcome.set("core.width_r_max", self.width_max as f64);
        outcome.set("core.peak_nodes", self.peak_nodes as f64);
        Ok(())
    }
}

/// BDD kernel counters summed over sessions (peak bytes as a maximum).
#[derive(Debug, Default)]
pub struct BddTotals {
    caches: [(u64, u64); 8],
    created_nodes: u64,
    peak_bytes: u64,
    gc_runs: u64,
    chunks_reclaimed: u64,
    unique_resizes: u64,
    cache_cap_raises: u64,
}

impl BddTotals {
    /// Adds `after − before` (`before = None` counts from zero).
    pub fn add(&mut self, after: &ManagerStats, before: Option<&ManagerStats>) {
        let zero = ManagerStats::default();
        let before = before.unwrap_or(&zero);
        for (slot, ((_, a), (_, b))) in self
            .caches
            .iter_mut()
            .zip(after.caches().into_iter().zip(before.caches()))
        {
            slot.0 += a.hits - b.hits;
            slot.1 += a.misses - b.misses;
        }
        self.created_nodes += (after.created_nodes - before.created_nodes) as u64;
        self.peak_bytes = self.peak_bytes.max(after.peak_bytes as u64);
        self.gc_runs += (after.gc_runs - before.gc_runs) as u64;
        self.chunks_reclaimed += after.chunks_reclaimed - before.chunks_reclaimed;
        self.unique_resizes += (after.unique_resizes - before.unique_resizes) as u64;
        self.cache_cap_raises += u64::from(after.cache_cap_raises - before.cache_cap_raises);
    }

    /// Emits `<prefix>.<cache>.lookups` / `.hit_ratio` for every cache, and
    /// with `full` the node, byte, GC and table counters too.
    pub fn emit(&self, outcome: &mut Outcome, prefix: &str, full: bool) {
        for (name, (hits, misses)) in BDD_CACHES.iter().zip(self.caches) {
            let lookups = hits + misses;
            outcome.set(format!("{prefix}.{name}.lookups"), lookups as f64);
            let ratio = if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            };
            outcome.set(format!("{prefix}.{name}.hit_ratio"), ratio);
        }
        outcome.set(format!("{prefix}.created_nodes"), self.created_nodes as f64);
        if full {
            outcome.set("bdd.peak_bytes", self.peak_bytes as f64);
            outcome.set("bdd.gc_runs", self.gc_runs as f64);
            outcome.set("bdd.chunks_reclaimed", self.chunks_reclaimed as f64);
            outcome.set("bdd.unique_resizes", self.unique_resizes as f64);
            outcome.set("bdd.cache_cap_raises", self.cache_cap_raises as f64);
        }
    }
}

/// The sum of several traced jobs' wall time against the same jobs run
/// untraced, interleaved: `untraced jobs_per_s ÷ traced jobs_per_s`.
#[derive(Debug, Default)]
pub struct TraceOverhead {
    traced: f64,
    untraced: f64,
}

impl TraceOverhead {
    /// Seconds the untraced runs took in all.
    pub fn untraced_s(&self) -> f64 {
        self.untraced
    }

    /// Adds one job's two timings (seconds).
    pub fn add(&mut self, traced: f64, untraced: f64) {
        self.traced += traced;
        self.untraced += untraced;
    }

    /// Emits `bench.trace_overhead_ratio`.
    pub fn emit(&self, outcome: &mut Outcome) {
        let ratio = if self.untraced > 0.0 {
            self.traced / self.untraced
        } else {
            0.0
        };
        outcome.set("bench.trace_overhead_ratio", ratio);
    }
}
