//! The TCP edge legs: a server process hosting a `Router` (one worker per
//! model) behind a `TcpServer` (one poller), and this process offering a
//! seeded `cdl-load` schedule to it open-loop over two `TcpClient`s.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use cdl_core::network::{CdlNetwork, CdlOutput};
use cdl_hw::{EnergyModel, OpCount};
use cdl_load::Arrival;
use cdl_serve::{
    BatchPolicy, EdgeConfig, ErrorCode, ErrorReply, EventKind, Priority, Router, ServerConfig,
    ShardSpec, TcpClient, TcpServer, TelemetryConfig, TraceId,
};
use cdl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::report::{self, ratio, Metrics, Outcome};
use crate::setup::{self, Scale, SetupTimes, MODELS};
use crate::verify::Oracle;
use crate::workload::{input_of, model_of, Workload, LATENCY_LIMIT};
use crate::{Error, RunOpts};

/// Serving configuration of every edge workload: batches of up to 128
/// sealed after 2 ms, and a gate of 192 in-flight requests per model, so
/// that bursts fill it (Normal priority is shed above 128, Low above 64).
fn shard_specs(models: &[Arc<CdlNetwork>], telemetry: bool) -> Vec<ShardSpec> {
    MODELS
        .iter()
        .zip(models)
        .map(|(&(name, _, _), net)| {
            ShardSpec::new(
                name,
                Arc::clone(net),
                ServerConfig {
                    policy: BatchPolicy::new(128, Duration::from_millis(2)),
                    queue_capacity: 192,
                    workers: 1,
                    telemetry: if telemetry {
                        TelemetryConfig::enabled()
                    } else {
                        TelemetryConfig::default()
                    },
                    ..ServerConfig::default()
                },
            )
        })
        .collect()
}

/// One model's ledger, read from `Router::metrics()` at the end of a leg.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardReport {
    pub model: String,
    pub routed: u64,
    pub submitted: u64,
    pub completed: u64,
    pub expired: u64,
    pub shed: u64,
    pub total_ops: OpCount,
    pub expired_partial_ops: OpCount,
    pub batches: u64,
    pub batches_full: u64,
    pub batches_deadline: u64,
    pub batches_flushed: u64,
    pub batch_size_sum: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerReport {
    pub rss_peak_mb: f64,
    pub shards: Vec<ShardReport>,
}

/// One lifecycle span of the server: (trace, kind, stage, ns).
pub type Span = (u64, u8, u32, u64);

pub const ADMIT: u8 = 0;
pub const ENQUEUE: u8 = 1;
pub const SEAL: u8 = 2;
pub const DISPATCH: u8 = 3;
pub const STAGE: u8 = 4;
pub const EXIT: u8 = 5;
pub const REPLY: u8 = 6;

fn span_code(kind: EventKind) -> Option<(u8, u32)> {
    Some(match kind {
        EventKind::Admit => (ADMIT, 0),
        EventKind::Enqueue => (ENQUEUE, 0),
        EventKind::BatchSeal => (SEAL, 0),
        EventKind::Dispatch => (DISPATCH, 0),
        EventKind::Stage(k) => (STAGE, k),
        EventKind::Exit(k) => (EXIT, k),
        EventKind::Reply => (REPLY, 0),
        EventKind::Health { .. } => return None,
    })
}

fn arg<'a>(args: &'a [String], name: &str) -> Result<&'a str, Error> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}").into())
}

/// The server process: `serve --telemetry <0|1> --reps <n> --scale <s>`.
///
/// Sets up `reps` times (training data, both models, router and edge),
/// keeps the last, prints `ready <port> <set-ups>`, and serves until a
/// `report` line arrives on standard input. It then prints its spans (one
/// `span` line each; they stay in memory until then) and a `report` line
/// with the router's ledger, and shuts down.
pub fn serve_main(args: &[String]) -> Result<(), Error> {
    let telemetry = arg(args, "--telemetry")? == "1";
    let reps: usize = arg(args, "--reps")?.parse()?;
    let scale = Scale::parse(arg(args, "--scale")?)?;
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..reps.max(1) {
        let (models, mut times) = setup::timed_models(scale)?;
        let t = Instant::now();
        let router = Arc::new(Router::start(shard_specs(&models, telemetry))?);
        let edge = TcpServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&router),
            EdgeConfig {
                pollers: 1,
                ..EdgeConfig::default()
            },
        )?;
        times.start_s = t.elapsed().as_secs_f64();
        setups.push(times);
        if rep + 1 < reps {
            edge.shutdown();
            shutdown_router(router);
        } else {
            live = Some((router, edge));
        }
    }
    let (router, edge) = live.expect("at least one set-up");
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "ready {} {}",
        edge.local_addr().port(),
        serde_json::to_string(&setups)?
    )?;
    out.flush()?;

    // span rings hold 4096 events per thread: drain them while serving
    let spans = Mutex::new(Vec::<Span>::new());
    let stop = (Mutex::new(false), Condvar::new());
    let drain = || {
        let mut spans = spans.lock().expect("span buffer lock");
        spans.extend(
            router
                .drain_spans()
                .into_iter()
                .filter_map(|e| span_code(e.kind).map(|(k, s)| (e.trace.raw(), k, s, e.at_ns))),
        );
    };
    std::thread::scope(|scope| -> Result<(), Error> {
        if telemetry {
            scope.spawn(|| {
                let mut stopped = stop.0.lock().expect("stop flag lock");
                while !*stopped {
                    drain();
                    stopped = stop
                        .1
                        .wait_timeout(stopped, Duration::from_millis(20))
                        .expect("stop flag lock")
                        .0;
                }
            });
        }
        let mut line = String::new();
        let read = std::io::stdin().read_line(&mut line);
        *stop.0.lock().expect("stop flag lock") = true;
        stop.1.notify_all();
        read?;
        Ok(())
    })?;
    drain();

    let metrics = router.metrics();
    let report = ServerReport {
        rss_peak_mb: report::rss_peak_mb(),
        shards: metrics
            .shards
            .iter()
            .map(|s| ShardReport {
                model: s.model.clone(),
                routed: s.routed(),
                submitted: s.submitted(),
                completed: s.completed(),
                expired: s.expired(),
                shed: s.shed(),
                total_ops: s.total_ops(),
                expired_partial_ops: s.expired_partial_ops(),
                batches: s.batches(),
                batches_full: s.replicas.iter().map(|r| r.metrics.batches_full).sum(),
                batches_deadline: s.replicas.iter().map(|r| r.metrics.batches_deadline).sum(),
                batches_flushed: s.replicas.iter().map(|r| r.metrics.batches_flushed).sum(),
                batch_size_sum: s
                    .replicas
                    .iter()
                    .map(|r| r.metrics.mean_batch_size * r.metrics.batches as f64)
                    .sum(),
            })
            .collect(),
    };
    for (trace, kind, stage, at) in spans.into_inner().expect("span buffer lock") {
        writeln!(out, "span {trace} {kind} {stage} {at}")?;
    }
    writeln!(out, "report {}", serde_json::to_string(&report)?)?;
    out.flush()?;
    edge.shutdown();
    shutdown_router(router);
    Ok(())
}

fn shutdown_router(router: Arc<Router>) {
    match Arc::try_unwrap(router) {
        Ok(router) => {
            router.shutdown();
        }
        Err(_) => unreachable!("the edge released its router handle at shutdown"),
    }
}

/// The server process, killed and reaped on drop whatever happens.
struct ServerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    setups: Vec<SetupTimes>,
}

impl ServerProc {
    fn spawn(scale: Scale, telemetry: bool, reps: usize) -> Result<ServerProc, Error> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["serve", "--telemetry", if telemetry { "1" } else { "0" }])
            .args(["--reps", &reps.to_string(), "--scale", scale.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServerProc {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setups: Vec::new(),
        };
        let line = server.read_line()?;
        let rest = line
            .strip_prefix("ready ")
            .ok_or_else(|| format!("server said {line:?}"))?;
        let (port, setups) = rest.split_once(' ').ok_or("malformed ready line")?;
        server.addr.set_port(port.parse()?);
        server.setups = serde_json::from_str(setups)?;
        Ok(server)
    }

    fn read_line(&mut self) -> Result<String, Error> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err("the server process exited early".into());
        }
        Ok(line.trim_end().to_string())
    }

    /// Asks for the ledger and spans, then waits for a clean exit.
    fn finish(mut self) -> Result<(ServerReport, Vec<Span>, Vec<SetupTimes>), Error> {
        writeln!(self.stdin, "report")?;
        self.stdin.flush()?;
        let mut spans = Vec::new();
        let report = loop {
            let line = self.read_line()?;
            if let Some(rest) = line.strip_prefix("span ") {
                let f: Vec<u64> = rest.split(' ').map(str::parse).collect::<Result<_, _>>()?;
                let [trace, kind, stage, at] = f[..] else {
                    return Err(format!("malformed span line {line:?}").into());
                };
                spans.push((trace, kind as u8, stage as u32, at));
            } else if let Some(rest) = line.strip_prefix("report ") {
                break serde_json::from_str::<ServerReport>(rest)?;
            } else {
                return Err(format!("unexpected server line {line:?}").into());
            }
        };
        let status = self.child.wait()?;
        if !status.success() {
            return Err(format!("server process exited with {status}").into());
        }
        Ok((report, spans, std::mem::take(&mut self.setups)))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Client-side record of one request.
#[derive(Debug, Clone)]
pub struct Sent {
    pub scheduled: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
}

#[derive(Debug, Clone)]
pub struct Received {
    pub at: Instant,
    pub result: Result<CdlOutput, ErrorReply>,
}

struct Book {
    /// Unanswered request indices per connection.
    outstanding: [BTreeSet<usize>; 2],
    /// Wire id → request index, per connection.
    wire: [HashMap<u64, usize>; 2],
    done: bool,
}

/// Takes whichever connection is free, preferring `prefer`. The receiver
/// holds at most one connection at a time, so one is always free within
/// a few instructions.
fn lock_free(clients: &[Mutex<TcpClient>; 2], prefer: usize) -> (usize, MutexGuard<'_, TcpClient>) {
    loop {
        for c in [prefer, 1 - prefer] {
            match clients[c].try_lock() {
                Ok(guard) => return (c, guard),
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(_)) => panic!("the receiver thread panicked"),
            }
        }
        std::thread::yield_now();
    }
}

pub struct LoadRun {
    pub sent: Vec<Sent>,
    pub received: Vec<Option<Received>>,
    pub max_lag: Duration,
    pub errors: Vec<String>,
}

/// Replays `schedule` open-loop: this thread sends (via
/// `cdl_load::run_open_loop`), one more thread receives, over two
/// connections. Latency counts from each request's scheduled instant, so
/// a stalled sender is charged to the requests it delayed. The receiver
/// always waits on the connection holding the oldest unanswered request.
/// If replies stop coming, `stuck` is called (it kills the server, which
/// ends the receiver's wait).
fn run_load(
    addr: SocketAddr,
    schedule: &[Arrival],
    inputs: &[Tensor],
    trace: bool,
    stuck: &mut dyn FnMut(),
) -> Result<LoadRun, Error> {
    let clients = [
        Mutex::new(TcpClient::connect(addr)?),
        Mutex::new(TcpClient::connect(addr)?),
    ];
    let book = Mutex::new(Book {
        outstanding: [BTreeSet::new(), BTreeSet::new()],
        wire: [HashMap::new(), HashMap::new()],
        done: false,
    });
    let wake = Condvar::new();
    let n = schedule.len();
    let mut sent = Vec::with_capacity(n);
    let mut errors = Vec::new();
    let start = Instant::now();

    let (max_lag, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> (Vec<Option<Received>>, Option<String>) {
            let mut received: Vec<Option<Received>> = vec![None; n];
            loop {
                let c = {
                    let mut b = book.lock().expect("book lock");
                    loop {
                        let oldest = (0..2)
                            .filter_map(|c| b.outstanding[c].first().map(|&i| (i, c)))
                            .min();
                        if let Some((_, c)) = oldest {
                            break c;
                        }
                        if b.done {
                            return (received, None);
                        }
                        b = wake.wait(b).expect("book lock");
                    }
                };
                let reply = clients[c].lock().expect("client lock").recv();
                let at = Instant::now();
                let (id, result) = match reply {
                    Ok(r) => r,
                    Err(e) => return (received, Some(format!("receive failed: {e}"))),
                };
                let mut b = book.lock().expect("book lock");
                let Some(i) = b.wire[c].remove(&id) else {
                    return (received, Some(format!("reply to unknown request {id}")));
                };
                b.outstanding[c].remove(&i);
                received[i] = Some(Received { at, result });
            }
        });

        let mut i = 0;
        let stats = cdl_load::run_open_loop(schedule, |arrival| {
            let scheduled = start + arrival.at;
            let model = MODELS[model_of(i)].0;
            let input = &inputs[input_of(i, inputs.len())];
            let (c, mut client) = lock_free(&clients, i % 2);
            let submit_start = Instant::now();
            let id = if trace {
                let t = TraceId::from_raw(i as u64 + 1).expect("non-zero");
                client.submit_with_trace(model, input, arrival.options, t)
            } else {
                client.submit(model, input, arrival.options)
            };
            let submit_end = Instant::now();
            match id {
                Ok(id) => {
                    let mut b = book.lock().expect("book lock");
                    b.wire[c].insert(id, i);
                    b.outstanding[c].insert(i);
                }
                Err(e) => errors.push(format!("request {i}: submit failed: {e}")),
            }
            drop(client);
            wake.notify_one();
            sent.push(Sent {
                scheduled,
                submit_start,
                submit_end,
            });
            i += 1;
        });
        book.lock().expect("book lock").done = true;
        wake.notify_one();

        let patience = Instant::now() + Duration::from_secs(60);
        while !receiver.is_finished() {
            if Instant::now() > patience {
                stuck();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let (received, error) = receiver.join().expect("receiver thread panicked");
        errors.extend(error);
        (stats.max_lag, received)
    });
    Ok(LoadRun {
        sent,
        received,
        max_lag,
        errors,
    })
}

/// One edge leg: a fresh server process, the schedule, the ledger.
pub struct Leg {
    pub load: LoadRun,
    pub server: ServerReport,
    pub spans: Vec<Span>,
    pub setups: Vec<SetupTimes>,
}

pub fn run_leg(
    scale: Scale,
    schedule: &[Arrival],
    inputs: &[Tensor],
    telemetry: bool,
    reps: usize,
) -> Result<Leg, Error> {
    let mut server = ServerProc::spawn(scale, telemetry, reps)?;
    let load = run_load(server.addr, schedule, inputs, telemetry, &mut || {
        let _ = server.child.kill();
    })?;
    let (server, spans, setups) = server.finish()?;
    Ok(Leg {
        load,
        server,
        spans,
        setups,
    })
}

/// Wire bytes of one request and its reply, from the frame layout.
fn frame_bytes(
    model: &str,
    input: &Tensor,
    arrival: &Arrival,
    trace: bool,
    reply: &Received,
) -> usize {
    let o = &arrival.options;
    let request = 4
        + 8
        + 2
        + model.len()
        + 1
        + 4 * usize::from(o.delta.is_some())
        + 4 * usize::from(o.max_stage.is_some())
        + 8 * usize::from(trace)
        + 8 * usize::from(o.deadline.is_some())
        + usize::from(o.priority != Priority::High)
        + 4 * usize::from(o.tenant.is_some())
        + 1
        + 4 * input.dims().len()
        + 4 * input.len();
    let response = 4
        + 8
        + 1
        + match &reply.result {
            Ok(_) => 4 + 4 + 4 + 6 * 8 + 8 + 1,
            Err(e) => 2 + e.message.len(),
        };
    request + response
}

/// What a leg's replies say, checked against the oracle and the ledger.
pub struct LegSummary {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Latency of each ok reply, in schedule order.
    pub latency_ms: Vec<f64>,
    pub ok_outputs: Vec<CdlOutput>,
    pub correct_labels: u64,
    pub within_limit: u64,
    pub lag_ms: Vec<f64>,
    pub bytes: u64,
    pub error_kinds: Vec<(String, u64)>,
    pub check_failures: Vec<String>,
}

pub fn summarize(
    leg: &Leg,
    schedule: &[Arrival],
    inputs: &[Tensor],
    labels: &[usize],
    oracle: &mut Oracle<'_>,
    trace: bool,
) -> Result<LegSummary, Error> {
    let mut s = LegSummary {
        sent: schedule.len() as u64,
        ok: 0,
        failed: 0,
        latency_ms: Vec::new(),
        ok_outputs: Vec::new(),
        correct_labels: 0,
        within_limit: 0,
        lag_ms: Vec::new(),
        bytes: 0,
        error_kinds: Vec::new(),
        check_failures: leg.load.errors.clone(),
    };
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let (mut lost, mut mismatched) = (0u64, 0u64);
    let mut ok_ops = vec![OpCount::ZERO; MODELS.len()];
    for (i, (arrival, sent)) in schedule.iter().zip(&leg.load.sent).enumerate() {
        s.lag_ms
            .push((sent.submit_start - sent.scheduled).as_secs_f64() * 1e3);
        let Some(reply) = &leg.load.received[i] else {
            lost += 1;
            continue;
        };
        let (model, input) = (model_of(i), input_of(i, inputs.len()));
        s.bytes += frame_bytes(MODELS[model].0, &inputs[input], arrival, trace, reply) as u64;
        match &reply.result {
            Ok(out) => {
                s.ok += 1;
                if !oracle.check(model, input, arrival.options.exit_override(), out)? {
                    mismatched += 1;
                }
                let latency = reply.at - sent.scheduled;
                s.latency_ms.push(latency.as_secs_f64() * 1e3);
                s.within_limit += u64::from(latency <= LATENCY_LIMIT);
                s.correct_labels += u64::from(out.label == labels[input]);
                ok_ops[model] += out.ops;
                s.ok_outputs.push(out.clone());
            }
            Err(e) => *kinds.entry(format!("{:?}", e.code)).or_default() += 1,
        }
    }
    // expiry and shedding are how the server is meant to answer overload;
    // any other error reply is a failure
    let refusals = |code: ErrorCode| kinds.get(&format!("{code:?}")).copied().unwrap_or(0);
    let (expired, shed) = (refusals(ErrorCode::Expired), refusals(ErrorCode::Shed));
    let unexpected: u64 = kinds.values().sum::<u64>() - expired - shed;
    s.failed = lost + mismatched + unexpected;
    s.error_kinds = kinds.into_iter().collect();

    let fail = &mut s.check_failures;
    if mismatched > 0 {
        fail.push(format!(
            "{mismatched} replies differ from classify_with_override"
        ));
    }
    if unexpected > 0 {
        fail.push(format!(
            "{unexpected} unexpected error replies: {:?}",
            s.error_kinds
        ));
    }
    let replies = s.ok + kinds_total(&s.error_kinds);
    if replies + lost != s.sent || lost > 0 {
        fail.push(format!(
            "sent = ok + each error kind: {} sent, {} ok, {:?}, {lost} unanswered",
            s.sent, s.ok, s.error_kinds
        ));
    }
    let server = &leg.server;
    for (m, shard) in server.shards.iter().enumerate() {
        if shard.routed != shard.submitted {
            fail.push(format!(
                "{}: routed {} != submitted {}",
                shard.model, shard.routed, shard.submitted
            ));
        }
        if shard.total_ops != ok_ops[m] + shard.expired_partial_ops {
            fail.push(format!(
                "{}: total_ops - expired_partial_ops != ops of the ok replies ({:?} vs {:?} + {:?})",
                shard.model, shard.total_ops, ok_ops[m], shard.expired_partial_ops
            ));
        }
    }
    let total = |f: fn(&ShardReport) -> u64| server.shards.iter().map(f).sum::<u64>();
    if total(|s| s.completed) != s.ok {
        fail.push(format!(
            "server completed {} != ok replies {}",
            total(|s| s.completed),
            s.ok
        ));
    }
    if total(|s| s.expired) != expired || total(|s| s.shed) != shed {
        fail.push(format!(
            "server expired/shed {}/{} != replies {expired}/{shed}",
            total(|s| s.expired),
            total(|s| s.shed)
        ));
    }
    // a generator that fell further behind than the latency limit by the
    // end of the schedule measured itself, not the server
    let tail_lag = report::median(&s.lag_ms[s.lag_ms.len() * 9 / 10..]);
    if tail_lag > LATENCY_LIMIT.as_secs_f64() * 1e3 {
        fail.push(format!(
            "the load generator fell {tail_lag:.1} ms behind its schedule"
        ));
    }
    Ok(s)
}

fn kinds_total(kinds: &[(String, u64)]) -> u64 {
    kinds.iter().map(|(_, n)| n).sum()
}

/// Mean compute ops (kops, the paper's unit) and 45 nm energy (pJ) per
/// completed input.
fn ops_and_energy<'a>(outputs: impl Iterator<Item = &'a CdlOutput>) -> (f64, f64) {
    let model = EnergyModel::cmos_45nm();
    let (mut n, mut ops, mut pj) = (0usize, 0f64, 0f64);
    for o in outputs {
        n += 1;
        ops += o.ops.compute_ops() as f64;
        pj += model.total_pj(&o.ops, o.stages_activated);
    }
    (ratio(ops / 1e3, n as f64), ratio(pj, n as f64))
}

/// The end-to-end run of an edge workload.
pub fn run_e2e(opts: &RunOpts, workload: Workload) -> Result<Outcome, Error> {
    let schedule = crate::workload::schedule(workload, opts.seed, opts.seconds)?;
    let inputs = setup::inputs(opts.scale, opts.seed);
    let models = setup::train_models(&setup::training_set(opts.scale), opts.scale)?;
    let leg = run_leg(
        opts.scale,
        &schedule,
        &inputs.images,
        false,
        opts.scale.setup_reps(),
    )?;
    let mut oracle = Oracle::new(&models, &inputs.images);
    let s = summarize(
        &leg,
        &schedule,
        &inputs.images,
        &inputs.labels,
        &mut oracle,
        false,
    )?;

    let (ops_per_input, energy_pj_per_input) = ops_and_energy(s.ok_outputs.iter());
    let mut metrics = Metrics::default();
    let per_second = |n: u64| n as f64 / opts.seconds;
    let of_sent = |n: u64| ratio(n as f64, s.sent as f64);
    metrics.push("setup_s", setup::median_setup(&leg.setups).total(), "s");
    metrics.push("throughput_ips", per_second(s.ok), "images/s");
    metrics.push("ops_per_input", ops_per_input, "kops");
    metrics.push("energy_pj_per_input", energy_pj_per_input, "pJ");
    metrics.push(
        "accuracy",
        ratio(s.correct_labels as f64, s.ok as f64),
        "fraction",
    );
    metrics.push(
        "latency_p50_ms",
        report::windowed_quantile(&s.latency_ms, 0.5),
        "ms",
    );
    metrics.push(
        "latency_p99_ms",
        report::windowed_quantile(&s.latency_ms, 0.99),
        "ms",
    );
    metrics.push("slo_attainment", of_sent(s.within_limit), "fraction");
    metrics.push("goodput_rps", per_second(s.within_limit), "req/s");
    metrics.push("served_frac", of_sent(s.ok), "fraction");
    metrics.push("rss_peak_mb", leg.server.rss_peak_mb, "MB");
    let lag = report::sorted(s.lag_ms.clone());
    Ok(Outcome {
        metrics,
        attempted: s.sent,
        failed: s.failed,
        details: vec![
            ("latency_samples", serde::Content::U64(s.ok)),
            ("failed_frac", report::num(of_sent(s.sent - s.ok))),
            ("error_kinds", error_kinds_content(&s.error_kinds)),
            ("lag_p99_ms", report::num(report::quantile(&lag, 0.99))),
            (
                "lag_max_ms",
                report::num(leg.load.max_lag.as_secs_f64() * 1e3),
            ),
            ("setups", serde::Serialize::serialize(&leg.setups)),
        ],
        check_failures: s.check_failures,
    })
}

pub fn error_kinds_content(kinds: &[(String, u64)]) -> serde::Content {
    report::obj(
        kinds
            .iter()
            .map(|(k, n)| (k.as_str(), serde::Content::U64(*n)))
            .collect(),
    )
}
