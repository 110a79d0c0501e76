//! `serve`: an open loop over TCP against a server child process (one
//! worker, one kernel thread) fed QASM requests with `Auto` backend
//! selection.  The popular population and its skew are those of the
//! repository's own serving benchmark (`crates/bench/src/serve.rs`): four
//! rc_t(12) circuits, GHZ(16) and BV(14), rank `r` requested with weight
//! `1/(r+1)`, 1024 shots a request.  After warm-up these are result-cache
//! hits.  Every 33rd request is a never-seen rc_t(12) (a cache miss and an
//! insertion): 3%, the share of first sightings in that benchmark's
//! warming pass at its quick scale (6 distinct circuits in 200 requests).
//! Requests go out on one pipelined connection from a sender that keeps a
//! fixed schedule, and a reader thread takes the answers; latency runs
//! from each request's due time.
//!
//! Batches of requests sent one at a time give `job_p50_ms`; batches with
//! a fixed window of requests in flight give `jobs_per_s` (the capacity on
//! this mix).  Between them the loop runs at two fixed rates, `light` and
//! `heavy`; last it climbs a fixed ladder of rates: `max_rate_rps` is the
//! highest rung whose tail stays within [`TAIL_LIMIT_MS`] with no refusals
//! and no growing backlog.  Rates, window, ladder and limit were set once
//! from this service's capacity on the machine named in `README.md`; they
//! are never recomputed per run.

use crate::probe::{bitslice_config, emit_span_means, BddTotals, CircuitLayer, GateProfile};
use crate::stats::{self, pool_seed, Rng, Zipf};
use crate::trace::Tracer;
use crate::{fail, machine, record, timed_setup, Outcome, Settings};
use sliq_circuit::{qasm, Circuit};
use sliq_exec::{BackendKind, Session, SessionConfig};
use sliq_serve::protocol::{self, Request, Response, RunOptions, RunOutcome};
use sliq_serve::{Client, Server, ServerConfig};
use sliq_workloads::{algorithms, random_clifford_t};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tail latency (ms) a ladder rung must meet: about ten never-seen
/// requests' service time, so a rung passes while misses queue briefly
/// and fails once the backlog grows.
pub const TAIL_LIMIT_MS: f64 = 500.0;

/// Set-up repetitions whose median is `setup_s`.  A set-up takes about a
/// quarter second, much of it spawning the server, whose cost swings with
/// the host; nine keep the median steady where the other workloads' three
/// would not.
const SETUP_REPS: usize = 9;

/// Popular circuits: the population of [`popular_circuit`].
const POPULATION: usize = 6;

/// Rank `r` of the population is requested with weight `1/(r+1)`, the
/// skew of the repository's own serving benchmark.
const ZIPF_EXPONENT: f64 = 1.0;

struct Plan {
    /// Every `miss_every`-th request is a never-seen circuit.
    miss_every: usize,
    shots: u64,
    light_rps: f64,
    heavy_rps: f64,
    /// Seconds at each fixed rate.
    fixed_s: f64,
    /// Requests of the one-at-a-time pass that gives the latency metrics.
    probe_requests: usize,
    /// Requests of the closed-loop saturation pass.
    saturate_requests: usize,
    /// Requests the saturation pass keeps in flight.
    window: usize,
    /// Batches the one-at-a-time and saturation passes are split into,
    /// spaced out over the run so one burst of host noise moves one batch.
    chunks: usize,
    ladder_rps: &'static [f64],
    /// Seconds per ladder rung.
    rung_s: f64,
}

const FULL: Plan = Plan {
    miss_every: 33,
    shots: 1024,
    light_rps: 80.0,
    heavy_rps: 250.0,
    fixed_s: 2.0,
    probe_requests: 1_500,
    saturate_requests: 3_500,
    window: 32,
    chunks: 10,
    ladder_rps: &[300.0, 400.0, 500.0, 600.0],
    rung_s: 1.0,
};

const SHORT: Plan = Plan {
    miss_every: 5,
    shots: 32,
    light_rps: 20.0,
    heavy_rps: 40.0,
    fixed_s: 0.5,
    probe_requests: 20,
    saturate_requests: 40,
    window: 4,
    chunks: 2,
    ladder_rps: &[20.0, 40.0],
    rung_s: 0.5,
};

/// The server child, registered so the watchdog can stop it.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// Fails the whole run loudly if it outlives `limit`: stops the server
/// child, waits for it, and exits with code 3.  The thread lives for the
/// rest of the process.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s; stopping", limit.as_secs());
        if let Ok(mut slot) = CHILD.lock() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        std::process::exit(3);
    });
}

/// `perfbench serve-child`: binds an ephemeral port, prints
/// `listening <addr>` on standard output, and serves until its standard
/// input closes (so it never outlives the benchmark).  One worker, one
/// kernel thread per session, and a queue deep enough that the open loop
/// is never refused below capacity.
pub fn child_main() -> ExitCode {
    let config = ServerConfig::default()
        .workers(1)
        .session_threads(1)
        .queue_depth(4096);
    let server = match Server::bind("127.0.0.1:0", config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("perfbench serve-child: bind: {error}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match server.spawn() {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("perfbench serve-child: spawn: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", handle.addr());
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
    ExitCode::SUCCESS
}

/// A running server child (registered in [`CHILD`]).
struct ServerProcess {
    addr: SocketAddr,
    pid: u32,
}

impl ServerProcess {
    fn spawn() -> Result<Self, String> {
        stop_registered();
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let pid = child.id();
        *CHILD.lock().map_err(|_| "child registry poisoned")? = Some(child);
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server address: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server printed {line:?}, not its address"))?;
        Ok(Self { addr, pid })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        stop_registered();
    }
}

/// Stops the registered server child, if any: closes its standard input,
/// waits for it to exit, and kills it if it lingers.
pub fn stop_registered() {
    let Some(mut child) = CHILD.lock().ok().and_then(|mut slot| slot.take()) else {
        return;
    };
    drop(child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}

/// What a request must come back with: an in-process `Session` result.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    backend: BackendKind,
    gates_applied: u64,
    total_probability: u64,
    counts: Vec<(u64, u64)>,
}

/// One distinct request body.
struct Body {
    circuit: Circuit,
    source: String,
    seed: u64,
    /// Filled in set-up for the popular population, after the pass for
    /// misses.
    expected: Option<Expected>,
}

/// The in-process answer for a body, with the server's session settings.
fn reference(
    body: &Body,
    shots: u64,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<Expected, String> {
    let config = SessionConfig::default()
        .threads(1)
        .measurement_seed(body.seed);
    let err = |e: sliq_exec::ExecError| e.to_string();
    let (run, sample) = match tracer {
        None => {
            let mut session = Session::for_circuit(&body.circuit, config).map_err(err)?;
            let run = session.run(&body.circuit).map_err(err)?;
            (run, session.sample(shots, body.seed).map_err(err)?)
        }
        Some((tracer, job)) => {
            let span = tracer.begin("job", job);
            let mut session = tracer
                .time("exec.open", job, || {
                    Session::for_circuit(&body.circuit, config)
                })
                .map_err(err)?;
            let run = tracer
                .time("exec.run", job, || session.run(&body.circuit))
                .map_err(err)?;
            let sample = tracer
                .time("exec.sample_first", job, || {
                    session.sample(shots, body.seed)
                })
                .map_err(err)?;
            tracer.time("exec.drop", job, || drop(session));
            tracer.end(span);
            (run, sample)
        }
    };
    Ok(Expected {
        backend: run.backend,
        gates_applied: run.gates_applied as u64,
        total_probability: run.total_probability.to_bits(),
        counts: sample
            .histogram
            .counts()
            .iter()
            .map(|(&o, &c)| (o, c))
            .collect(),
    })
}

fn answer_of(outcome: &RunOutcome) -> Expected {
    Expected {
        backend: outcome.backend,
        gates_applied: outcome.gates_applied,
        total_probability: outcome.total_probability.to_bits(),
        counts: outcome
            .histogram
            .as_ref()
            .map(|h| h.counts.clone())
            .unwrap_or_default(),
    }
}

/// One scheduled request: which body, and its encoded frame.
struct Scheduled {
    body: usize,
    frame: Vec<u8>,
}

/// A phase: requests with their due offsets.
struct Phase {
    name: String,
    /// Offered rate of an open-loop phase (unused by closed loops).
    rate: f64,
    requests: Vec<Scheduled>,
}

struct Workload {
    plan: &'static Plan,
    bodies: Vec<Body>,
    light: Phase,
    heavy: Phase,
    /// The one-at-a-time pass, in [`Plan::chunks`] spaced batches.
    probes: Vec<Phase>,
    /// The saturation pass, in [`Plan::chunks`] spaced batches.
    saturates: Vec<Phase>,
    ladder: Vec<Phase>,
    server: ServerProcess,
    conn: TcpStream,
    /// The server's peak RSS after the fixed-size passes.
    peak_rss_mib: Option<f64>,
}

/// Popular circuit `rank` of circuit pool `pool`: the circuit population
/// of the repository's own serving and result-cache benchmarks
/// (`crates/bench`), in their popularity order.  Pool `p` moves the rc_t
/// seeds by `4p`, so pool 0 is that population exactly.
fn popular_circuit(pool: u64, rank: usize) -> Circuit {
    let rct = |k: u64| random_clifford_t(12, 4 * pool + k);
    match rank {
        0 => rct(1),
        1 => rct(2),
        2 => algorithms::ghz(16),
        3 => algorithms::bernstein_vazirani_all_ones(14),
        4 => rct(3),
        _ => rct(4),
    }
}

fn new_body(circuit: Circuit, rng: &mut Rng) -> Body {
    Body {
        source: qasm::emit(&circuit),
        circuit,
        seed: rng.next_u64() >> 1,
        expected: None,
    }
}

fn frame(body: &Body, request_id: u32, shots: u64) -> Result<Vec<u8>, String> {
    protocol::encode_request(
        request_id,
        &Request::RunQasm {
            options: RunOptions {
                backend: BackendKind::Auto,
                shots,
                seed: body.seed,
                tenant: String::new(),
            },
            source: body.source.clone(),
        },
    )
    .map_err(|e| e.to_string())
}

/// Never-seen circuit `index` of circuit pool `pool`: an rc_t(12) like
/// most of the population, with a seed no popular circuit uses.
fn miss_circuit(pool: u64, index: usize) -> Circuit {
    random_clifford_t(12, pool_seed(pool, 5, index))
}

/// Builds the request schedule (circuits from the pool, request seeds and
/// the popularity draw from the seed), starts the server and warms its
/// cache with the popular population.
fn setup(plan: &'static Plan, settings: &Settings) -> Result<Workload, String> {
    let traced = settings.trace;
    let mut rng = Rng::new(settings.seed, 0x5e7);
    let mut bodies: Vec<Body> = (0..POPULATION)
        .map(|k| new_body(popular_circuit(settings.pool, k), &mut rng))
        .collect();
    for body in &mut bodies {
        body.expected = Some(reference(body, plan.shots, None)?);
    }
    let zipf = Zipf::new(POPULATION, ZIPF_EXPONENT);
    let mut next_id = 1u32;
    let count = |rate: f64, seconds: f64| (rate * seconds).round() as usize;
    let mut make_phase = |name: String, rate: f64, count: usize, bodies: &mut Vec<Body>| {
        let mut requests = Vec::with_capacity(count);
        for i in 0..count {
            let body = if i % plan.miss_every == plan.miss_every - 1 {
                let circuit = miss_circuit(settings.pool, bodies.len() - POPULATION);
                bodies.push(new_body(circuit, &mut rng));
                bodies.len() - 1
            } else {
                zipf.draw(&mut rng)
            };
            requests.push(Scheduled {
                body,
                frame: frame(&bodies[body], next_id, plan.shots)?,
            });
            next_id += 1;
        }
        Ok::<_, String>(Phase {
            name,
            rate,
            requests,
        })
    };
    let light = make_phase(
        "light".into(),
        plan.light_rps,
        count(plan.light_rps, plan.fixed_s),
        &mut bodies,
    )?;
    // A traced run sends a second light-rate pass with its own never-seen
    // circuits in place of the heavy pass and the ladder.
    let (heavy, rungs) = if traced {
        ("light-traced", &[][..])
    } else {
        ("heavy", plan.ladder_rps)
    };
    let heavy_rps = if traced {
        plan.light_rps
    } else {
        plan.heavy_rps
    };
    let heavy = make_phase(
        heavy.into(),
        heavy_rps,
        count(heavy_rps, plan.fixed_s),
        &mut bodies,
    )?;
    let chunks = if traced { 0 } else { plan.chunks };
    let mut probes = Vec::new();
    let mut saturates = Vec::new();
    for i in 0..chunks {
        let probe = plan.probe_requests / plan.chunks;
        probes.push(make_phase(format!("probe{i}"), 0.0, probe, &mut bodies)?);
        let saturate = plan.saturate_requests / plan.chunks;
        saturates.push(make_phase(
            format!("saturate{i}"),
            0.0,
            saturate,
            &mut bodies,
        )?);
    }
    let ladder = rungs
        .iter()
        .map(|&rate| {
            make_phase(
                format!("ladder{rate}"),
                rate,
                count(rate, plan.rung_s),
                &mut bodies,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;

    let server = ServerProcess::spawn()?;
    let conn = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    // Warm-up: every popular body once, so the cache holds the population
    // and the server's lazy set-up is done before timing starts.
    let mut client = Client::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for body in &bodies[..POPULATION] {
        client
            .run_qasm(
                &body.source,
                RunOptions {
                    backend: BackendKind::Auto,
                    shots: plan.shots,
                    seed: body.seed,
                    tenant: String::new(),
                },
            )
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Workload {
        plan,
        bodies,
        light,
        heavy,
        probes,
        saturates,
        ladder,
        server,
        conn,
        peak_rss_mib: None,
    })
}

/// One request's measured life, seconds from the pass origin.
struct Timed {
    due: f64,
    sent: f64,
    done: f64,
    response: Option<Response>,
}

/// Sends `phase` on its schedule while a reader thread takes the answers.
fn open_loop(conn: &TcpStream, phase: &Phase) -> Result<Vec<Timed>, String> {
    let due = stats::due_offsets(phase.rate, phase.requests.len());
    let first_id = match phase.requests.first() {
        Some(first) => u32::from_be_bytes(first.frame[6..10].try_into().expect("frame header")),
        None => return Ok(Vec::new()),
    };
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let origin = Instant::now() + Duration::from_millis(5);
    let count = phase.requests.len();
    let (sent, answers) = std::thread::scope(|scope| {
        let reading = scope.spawn(move || {
            let mut answers: Vec<(f64, Option<Response>)> = vec![(0.0, None); count];
            for _ in 0..count {
                match protocol::read_response(&mut reader, protocol::MAX_FRAME_BYTES) {
                    Ok((id, response)) => {
                        let at = Instant::now()
                            .saturating_duration_since(origin)
                            .as_secs_f64();
                        let index = id.wrapping_sub(first_id) as usize;
                        if index < count {
                            answers[index] = (at, Some(response));
                        }
                    }
                    Err(error) => {
                        eprintln!("perfbench: {} reader stopped: {error}", phase.name);
                        break;
                    }
                }
            }
            answers
        });
        let mut sent = Vec::with_capacity(count);
        for (request, &offset) in phase.requests.iter().zip(&due) {
            let target = origin + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            sent.push(
                Instant::now()
                    .saturating_duration_since(origin)
                    .as_secs_f64(),
            );
            if let Err(error) = protocol::write_all(&mut writer, &request.frame) {
                eprintln!("perfbench: {} send failed: {error}", phase.name);
                break;
            }
        }
        (sent, reading.join().expect("reader thread panicked"))
    });
    Ok(due
        .into_iter()
        .zip(answers)
        .enumerate()
        .map(|(i, (due, (done, response)))| Timed {
            due,
            sent: sent.get(i).copied().unwrap_or(f64::NAN),
            done,
            response,
        })
        .collect())
}

/// A pass's verdict.
#[derive(Default)]
struct PassStats {
    latencies_ms: Vec<f64>,
    /// Completion time of each answered request.
    done: Vec<f64>,
    late_ms: Vec<f64>,
    ok: u64,
    overloaded: u64,
    errors: u64,
    wrong: u64,
    drain_ms: f64,
    /// Server-reported run + sample time (µs) of requests for popular
    /// circuits (cache hits after warm-up) and for never-seen ones.
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
}

/// Checks every answer of a pass (computing references for misses, outside
/// the timed region) and summarises it.
fn judge(
    work: &mut Workload,
    phase: &Phase,
    timed: &[Timed],
    mut tracer: Option<&mut Tracer>,
) -> Result<PassStats, String> {
    let mut pass = PassStats::default();
    let due: Vec<f64> = timed.iter().map(|t| t.due).collect();
    let sent: Vec<f64> = timed.iter().map(|t| t.sent).collect();
    let done: Vec<f64> = timed.iter().map(|t| t.done).collect();
    let (latency, late) = stats::latency_from_due(&due, &sent, &done);
    for ((request, t), (latency, late)) in phase
        .requests
        .iter()
        .zip(timed)
        .zip(latency.iter().zip(late))
    {
        pass.late_ms.push(late * 1e3);
        match &t.response {
            Some(Response::Run(outcome)) => {
                pass.ok += 1;
                pass.latencies_ms.push(latency * 1e3);
                pass.done.push(t.done);
                let sample_us = outcome.histogram.as_ref().map_or(0, |h| h.sample_micros);
                let service_us = (outcome.run_micros + sample_us) as f64;
                if request.body < POPULATION {
                    pass.hit_us.push(service_us);
                } else {
                    pass.miss_us.push(service_us);
                }
                let body = &mut work.bodies[request.body];
                if body.expected.is_none() {
                    let traced = tracer.as_deref_mut().map(|tr| (tr, request.body as u64));
                    body.expected = Some(reference(body, work.plan.shots, traced)?);
                }
                if body.expected.as_ref() != Some(&answer_of(outcome)) {
                    pass.wrong += 1;
                    eprintln!(
                        "perfbench: {} request {} answered wrongly",
                        phase.name, request.body
                    );
                }
            }
            Some(Response::Overloaded { .. }) => pass.overloaded += 1,
            _ => pass.errors += 1,
        }
    }
    pass.drain_ms = timed.last().map_or(0.0, |t| {
        if t.response.is_some() {
            (t.done - t.due) * 1e3
        } else {
            f64::INFINITY
        }
    });
    Ok(pass)
}

fn note_pass(outcome: &mut Outcome, name: &str, pass: &PassStats) {
    let tail = stats::tail(&pass.latencies_ms);
    outcome.note(
        format!("{name}.latency"),
        format!(
            "p50 {:.3} ms, tail {:.3} ms (p{:.2} of {}, {} beyond), late p50 {:.3} ms, ok {} overloaded {} errors {} wrong {}",
            stats::median(&pass.latencies_ms),
            tail.value,
            tail.percentile,
            tail.samples,
            tail.beyond,
            stats::median(&pass.late_ms),
            pass.ok,
            pass.overloaded,
            pass.errors,
            pass.wrong
        ),
    );
}

/// The `serve` workload.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let plan = if settings.short { &SHORT } else { &FULL };
    let reps = if settings.short { 1 } else { SETUP_REPS };
    let (mut work, setup_s) = timed_setup(reps, || setup(plan, settings))?;
    let mut outcome = Outcome::default();
    let result = if settings.trace {
        trace(&mut work, settings, &mut outcome)
    } else {
        measure(&mut work, &mut outcome).map(|()| outcome.set("setup_s", setup_s))
    };
    stop_registered();
    result?;
    if !settings.trace {
        let peak = work
            .peak_rss_mib
            .ok_or("cannot read the server's peak RSS")?;
        outcome.set("peak_rss_mib", peak);
    }
    Ok(outcome)
}

/// Keeps `window` requests in flight on one connection until every request
/// of `phase` is answered; `due` is the send time (a closed loop has no
/// schedule).
fn closed_loop(conn: &TcpStream, phase: &Phase, window: usize) -> Result<Vec<Timed>, String> {
    let count = phase.requests.len();
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let first_id = match phase.requests.first() {
        Some(first) => u32::from_be_bytes(first.frame[6..10].try_into().expect("frame header")),
        None => return Ok(Vec::new()),
    };
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();
    let mut timed: Vec<Timed> = (0..count)
        .map(|_| Timed {
            due: 0.0,
            sent: 0.0,
            done: 0.0,
            response: None,
        })
        .collect();
    let mut next = 0;
    let mut send = |next: &mut usize, timed: &mut Vec<Timed>| -> Result<(), String> {
        let at = now();
        timed[*next].due = at;
        timed[*next].sent = at;
        protocol::write_all(&mut writer, &phase.requests[*next].frame)
            .map_err(|e| format!("{} send failed: {e}", phase.name))?;
        *next += 1;
        Ok(())
    };
    while next < window.min(count) {
        send(&mut next, &mut timed)?;
    }
    for _ in 0..count {
        let (id, response) = protocol::read_response(&mut reader, protocol::MAX_FRAME_BYTES)
            .map_err(|e| format!("{} reader stopped: {e}", phase.name))?;
        let index = id.wrapping_sub(first_id) as usize;
        if index < count {
            timed[index].done = now();
            timed[index].response = Some(response);
        }
        if next < count {
            send(&mut next, &mut timed)?;
        }
    }
    Ok(timed)
}

/// Seconds from a closed-loop batch's first send to its last answer.
fn batch_span(pass: &PassStats) -> f64 {
    pass.done.iter().copied().fold(0.0, f64::max)
}

/// Runs `phase` through `judge` and adds it to the run's counts.
fn run_closed(
    work: &mut Workload,
    outcome: &mut Outcome,
    phase: &Phase,
    window: usize,
) -> Result<PassStats, String> {
    let timed = closed_loop(&work.conn, phase, window)?;
    let pass = judge(work, phase, &timed, None)?;
    outcome.attempted += phase.requests.len() as u64;
    outcome.failed += phase.requests.len() as u64 - pass.ok + pass.wrong;
    note_pass(outcome, &phase.name, &pass);
    Ok(pass)
}

fn measure(work: &mut Workload, outcome: &mut Outcome) -> Result<(), String> {
    // Batches of the one-at-a-time pass (the latency a lone client sees,
    // free of the queueing and idle-CPU wake-ups that make open-loop
    // latency on a shared 2-core VM swing several-fold between runs) and
    // of the saturation pass alternate, with the open-loop passes between.
    let probes = std::mem::take(&mut work.probes);
    let saturates = std::mem::take(&mut work.saturates);
    let light = std::mem::replace(&mut work.light, empty_phase());
    let heavy = std::mem::replace(&mut work.heavy, empty_phase());
    let mut probe_p50s = Vec::new();
    let mut probe_all = Vec::new();
    let (mut answered, mut busy_s, mut rates) = (0u64, 0.0, Vec::new());
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    let mut stats_client = Client::connect(work.server.addr).map_err(|e| e.to_string())?;
    let before = stats_client.server_stats().map_err(|e| e.to_string())?;
    for (i, (probe, saturate)) in probes.iter().zip(&saturates).enumerate() {
        let pass = run_closed(work, outcome, probe, 1)?;
        probe_p50s.push(stats::median(&pass.latencies_ms));
        probe_all.extend(pass.latencies_ms);
        hit_us.extend(pass.hit_us);
        miss_us.extend(pass.miss_us);
        let pass = run_closed(work, outcome, saturate, work.plan.window)?;
        answered += pass.ok;
        busy_s += batch_span(&pass);
        rates.push(pass.ok as f64 / batch_span(&pass));
        hit_us.extend(pass.hit_us);
        miss_us.extend(pass.miss_us);
        let open = match i {
            0 => &light,
            1 => &heavy,
            _ => continue,
        };
        let timed = open_loop(&work.conn, open)?;
        let pass = judge(work, open, &timed, None)?;
        outcome.attempted += open.requests.len() as u64;
        outcome.failed += open.requests.len() as u64 - pass.ok + pass.wrong;
        note_pass(outcome, &open.name, &pass);
    }
    outcome.set("job_p50_ms", stats::median(&probe_p50s));
    outcome.note_tail(&probe_all);
    // The batches differ in which never-seen circuits they carry (each run
    // carries the same ones), so the rate is over all of them together.
    outcome.set("jobs_per_s", answered as f64 / busy_s);
    let rates_text: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    outcome.note("saturate.batch_rates", rates_text.join(" "));
    let after = stats_client.server_stats().map_err(|e| e.to_string())?;
    drop(stats_client);
    let delta = |field: &str| {
        after
            .get(field)
            .unwrap_or(0)
            .saturating_sub(before.get(field).unwrap_or(0)) as f64
    };
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    outcome.note(
        "cache.hit_share",
        format!(
            "{:.4} of result-cache lookups ({hits} hits, {misses} misses, every pass before the ladder)",
            hits / (hits + misses).max(1.0)
        ),
    );
    outcome.note(
        "service_us",
        format!(
            "hit p50 {:.0}, miss p50 {:.0} (server run + sample; {} hits, {} misses)",
            stats::median(&hit_us),
            stats::median(&miss_us),
            hit_us.len(),
            miss_us.len()
        ),
    );
    // Read before the ladder, whose length varies with capacity.
    work.peak_rss_mib = machine::peak_rss_mib(Some(work.server.pid));

    let ladder = std::mem::take(&mut work.ladder);
    let mut max_rate = None;
    for rung in &ladder {
        let timed = open_loop(&work.conn, rung)?;
        let pass = judge(work, rung, &timed, None)?;
        // Refusals above capacity are what the ladder looks for; only
        // wrong answers and errors count as failures.
        outcome.attempted += rung.requests.len() as u64;
        outcome.failed += pass.wrong + pass.errors;
        note_pass(outcome, &rung.name, &pass);
        let tail = stats::tail(&pass.latencies_ms).value;
        let holds = pass.overloaded == 0
            && pass.errors == 0
            && pass.wrong == 0
            && tail <= TAIL_LIMIT_MS
            && pass.drain_ms <= TAIL_LIMIT_MS;
        if !holds {
            break;
        }
        max_rate = Some(rung.rate);
    }
    match max_rate {
        Some(rate) => outcome.note("max_rate_rps", rate),
        None => outcome.note("max_rate_rps", format!("below {}", work.plan.ladder_rps[0])),
    }
    Ok(())
}

fn empty_phase() -> Phase {
    Phase {
        name: String::new(),
        rate: 1.0,
        requests: Vec::new(),
    }
}

/// Traced run: two light-rate passes (untraced, then traced), per-request
/// spans built from the server's reported run and sample times, server
/// cache counters across the traced pass, and the in-process layer probes
/// over every body the pass sent.
fn trace(work: &mut Workload, settings: &Settings, outcome: &mut Outcome) -> Result<(), String> {
    let first = std::mem::replace(&mut work.light, empty_phase());
    let untraced = open_loop(&work.conn, &first)?;
    let untraced = judge(work, &first, &untraced, None)?;
    let light = std::mem::replace(&mut work.heavy, empty_phase());

    let mut stats_client = Client::connect(work.server.addr).map_err(|e| e.to_string())?;
    let before = stats_client.server_stats().map_err(|e| e.to_string())?;
    let timed = open_loop(&work.conn, &light)?;
    let after = stats_client.server_stats().map_err(|e| e.to_string())?;
    drop(stats_client);

    let mut tracer = Tracer::new();
    let pass = judge(work, &light, &timed, Some(&mut tracer))?;
    for (phase, p) in [(&first, &untraced), (&light, &pass)] {
        outcome.attempted += phase.requests.len() as u64;
        outcome.failed += phase.requests.len() as u64 - p.ok + p.wrong;
    }

    let mut rtt = Vec::new();
    let mut run_us = Vec::new();
    let mut sample_us = Vec::new();
    let mut overhead = Vec::new();
    let mut backends = [0u64; 2];
    for (request, t) in light.requests.iter().zip(&timed) {
        let Some(Response::Run(answer)) = &t.response else {
            continue;
        };
        let sample = answer.histogram.as_ref().map_or(0, |h| h.sample_micros);
        let (run_s, sample_s) = (answer.run_micros as f64 * 1e-6, sample as f64 * 1e-6);
        let job = request.body as u64;
        let span = tracer.record("serve.rtt", job, t.sent, t.done, None);
        tracer.record(
            "serve.server_run",
            job,
            t.done - sample_s - run_s,
            t.done - sample_s,
            Some(span),
        );
        tracer.record(
            "serve.server_sample",
            job,
            t.done - sample_s,
            t.done,
            Some(span),
        );
        let rtt_s = t.done - t.sent;
        if run_s + sample_s > rtt_s {
            fail(
                outcome,
                format!("request {job}: server time exceeds its round trip"),
            );
        }
        rtt.push(rtt_s * 1e3);
        run_us.push(answer.run_micros as f64);
        sample_us.push(sample as f64);
        overhead.push((rtt_s - run_s - sample_s) * 1e3);
        match answer.backend {
            BackendKind::BitSlice => backends[0] += 1,
            BackendKind::Stabilizer => backends[1] += 1,
            other => fail(outcome, format!("Auto chose {other} for request {job}")),
        }
    }
    outcome.set("serve.rtt_ms", stats::median(&rtt));
    outcome.set("serve.server_run_us", stats::median(&run_us));
    outcome.set("serve.server_sample_us", stats::median(&sample_us));
    outcome.set("serve.overhead_ms", stats::median(&overhead));
    outcome.set("serve.late_ms", stats::median(&pass.late_ms));
    outcome.set("serve.overloaded", pass.overloaded as f64);
    outcome.set("serve.errors", pass.errors as f64);
    outcome.set("serve.backend.bitslice", backends[0] as f64);
    outcome.set("serve.backend.stabilizer", backends[1] as f64);
    let delta = |field: &str| {
        after
            .get(field)
            .unwrap_or(0)
            .saturating_sub(before.get(field).unwrap_or(0)) as f64
    };
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    outcome.set("exec.cache.hits", hits);
    outcome.set("exec.cache.misses", misses);
    outcome.set("exec.cache.insertions", delta("cache_insertions"));
    outcome.set("exec.cache.evictions", delta("cache_evictions"));
    outcome.set(
        "exec.cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    outcome.set(
        "bench.trace_overhead_ratio",
        stats::median(&pass.latencies_ms) / stats::median(&untraced.latencies_ms),
    );

    // In-process probes over each distinct body the traced pass sent.
    let mut circuit_layer = CircuitLayer::default();
    let mut gates = GateProfile::default();
    let mut bdd = BddTotals::default();
    let mut seen = std::collections::BTreeSet::new();
    for request in &light.requests {
        if !seen.insert(request.body) {
            continue;
        }
        let body = &work.bodies[request.body];
        let job = request.body as u64;
        if !circuit_layer.probe(&mut tracer, job, &body.source, &body.circuit) {
            fail(
                outcome,
                format!("body {job}: QASM round trip changed the circuit"),
            );
        }
        if !body.circuit.is_clifford() {
            gates.stream(&mut tracer, job, "rct", &body.circuit)?;
            let mut session = Session::for_circuit(&body.circuit, bitslice_config())
                .map_err(|e| e.to_string())?;
            let run = session.run(&body.circuit).map_err(|e| e.to_string())?;
            if let Some(stats) = &run.stats.bdd {
                bdd.add(stats, None);
            }
        }
    }
    emit_span_means(
        outcome,
        &tracer,
        &[
            ("exec.open_ms", "exec.open"),
            ("exec.run_ms", "exec.run"),
            ("exec.drop_ms", "exec.drop"),
            ("exec.sample_first_ms", "exec.sample_first"),
        ],
    );
    circuit_layer.emit(outcome, &tracer);
    gates.emit(outcome)?;
    bdd.emit(outcome, "bdd", true);
    let coverage = tracer.coverage("serve.rtt");
    outcome.set("bench.span_coverage", coverage);
    if !settings.short {
        record::save_spans("serve", settings.seed, &tracer);
    }
    Ok(())
}
