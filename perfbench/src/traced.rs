//! The traced run (`--trace 1`): the per-layer numbers. No end-to-end
//! metric comes from it.
//!
//! Every workload's traced run measures every layer:
//! * two edge legs of half the run each on the workload's traffic, the
//!   first with the server's telemetry off and the second with it on; the
//!   second's spans are joined by `TraceId` with the client's send and
//!   receive stamps;
//! * the `core` stages on the workload's request mix, cut into
//!   override-uniform batches of the mean size the serving layer formed;
//! * the `tensor` kernels at each layer's shape and observed rows.

use std::io::Write;
use std::time::{Duration, Instant};

use cdl_load::Arrival;
use serde::Content;

use crate::edge::{self, Leg, ADMIT, DISPATCH, ENQUEUE, REPLY, SEAL, STAGE};
use crate::layers::{self, Group};
use crate::report::{self, num, ratio, Metrics, Outcome};
use crate::setup::{self, Scale, MODELS};
use crate::verify::Oracle;
use crate::workload::{self, input_of, model_of, Workload};
use crate::{Error, RunOpts};

/// Directory, relative to the checkout, that receives per-request traces.
pub const OUT_DIR: &str = ".perfbench_out";

/// One ok request's path through the stack, in microseconds.
struct Phases {
    submit: f64,
    edge: f64,
    admit_to_enqueue: f64,
    enqueue_to_seal: f64,
    seal_to_dispatch: f64,
    stages: Vec<f64>,
    stage_to_reply: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Joins the server's spans with the client's stamps. Returns each ok
/// request's phases (None when a span is missing) and each model's
/// worker-busy time in seconds.
fn join(leg: &Leg, n: usize) -> (Vec<Option<Phases>>, Vec<f64>) {
    let mut per: Vec<Vec<(u8, u32, u64)>> = vec![Vec::new(); n];
    for &(trace, kind, stage, at) in &leg.spans {
        if let Some(spans) = (trace as usize).checked_sub(1).and_then(|i| per.get_mut(i)) {
            spans.push((kind, stage, at));
        }
    }
    let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); MODELS.len()];
    let phases = per
        .iter()
        .enumerate()
        .map(|(i, spans)| {
            let first = |k: u8| spans.iter().find(|s| s.0 == k).map(|s| s.2);
            if let (Some(d), Some(last)) = (first(DISPATCH), spans.iter().map(|s| s.2).max()) {
                busy[model_of(i)].push((d, last));
            }
            let reply = leg.load.received[i].as_ref()?;
            reply.result.as_ref().ok()?;
            let sent = &leg.load.sent[i];
            let (admit, enqueue, seal, dispatch, done) = (
                first(ADMIT)?,
                first(ENQUEUE)?,
                first(SEAL)?,
                first(DISPATCH)?,
                first(REPLY)?,
            );
            let mut stages: Vec<(u32, u64)> = spans
                .iter()
                .filter(|s| s.0 == STAGE)
                .map(|s| (s.1, s.2))
                .collect();
            stages.sort_unstable();
            let mut prev = dispatch;
            let stage_us = stages
                .iter()
                .map(|&(_, at)| {
                    let d = us(at.saturating_sub(prev));
                    prev = at;
                    d
                })
                .collect();
            let rtt = (reply.at - sent.submit_start).as_nanos() as f64 / 1e3;
            Some(Phases {
                submit: (sent.submit_end - sent.submit_start).as_nanos() as f64 / 1e3,
                edge: rtt - us(done - admit),
                admit_to_enqueue: us(enqueue - admit),
                enqueue_to_seal: us(seal - enqueue),
                seal_to_dispatch: us(dispatch - seal),
                stages: stage_us,
                stage_to_reply: us(done.saturating_sub(prev)),
            })
        })
        .collect();
    let busy_s = busy
        .into_iter()
        .map(|mut spans| {
            spans.sort_unstable();
            let (mut total, mut end) = (0u64, 0u64);
            for (s, e) in spans {
                let s = s.max(end);
                if e > s {
                    total += e - s;
                    end = e;
                }
            }
            total as f64 / 1e9
        })
        .collect();
    (phases, busy_s)
}

fn write_requests(
    path: &str,
    schedule: &[Arrival],
    leg: &Leg,
    phases: &[Option<Phases>],
) -> Result<(), Error> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (arrival, p)) in schedule.iter().zip(phases).enumerate() {
        let outcome = match leg.load.received[i].as_ref().map(|r| &r.result) {
            Some(Ok(_)) => "ok".to_string(),
            Some(Err(e)) => format!("{:?}", e.code),
            None => "unanswered".to_string(),
        };
        write!(
            f,
            "{{\"i\":{i},\"model\":\"{}\",\"at_s\":{},\"options\":\"{}\",\"outcome\":\"{outcome}\"",
            MODELS[model_of(i)].0,
            arrival.at.as_secs_f64(),
            arrival.options.exit_override()
        )?;
        if let Some(p) = p {
            let stages: Vec<String> = p.stages.iter().map(f64::to_string).collect();
            write!(
                f,
                ",\"submit_us\":{},\"edge_us\":{},\"admit_to_enqueue_us\":{},\"enqueue_to_seal_us\":{},\
                 \"seal_to_dispatch_us\":{},\"stage_us\":[{}],\"stage_to_reply_us\":{}",
                p.submit,
                p.edge,
                p.admit_to_enqueue,
                p.enqueue_to_seal,
                p.seal_to_dispatch,
                stages.join(","),
                p.stage_to_reply
            )?;
        }
        writeln!(f, "}}")?;
    }
    f.flush()?;
    Ok(())
}

/// The batches the `core` profile runs.
fn core_groups(schedule: &[Arrival], inputs: &[cdl_tensor::Tensor], batch: usize) -> Vec<Group> {
    let mut open: Vec<Group> = Vec::new();
    let mut done = Vec::new();
    for (i, arrival) in schedule.iter().enumerate().take(4096) {
        let (model, ovr) = (model_of(i), arrival.options.exit_override());
        let input = inputs[input_of(i, inputs.len())].clone();
        let g = match open.iter().position(|g| g.model == model && g.ovr == ovr) {
            Some(g) => g,
            None => {
                open.push(Group {
                    model,
                    ovr,
                    inputs: Vec::with_capacity(batch),
                });
                open.len() - 1
            }
        };
        open[g].inputs.push(input);
        if open[g].inputs.len() == batch {
            done.push(open.swap_remove(g));
        }
    }
    done.extend(open);
    done
}

pub fn run(opts: &RunOpts, workload: Workload) -> Result<Outcome, Error> {
    let half = opts.seconds / 2.0;
    let t = Instant::now();
    let schedule = workload::schedule(workload, opts.seed, half)?;
    let schedule_ms = t.elapsed().as_secs_f64() * 1e3;
    let inputs = setup::inputs(opts.scale, opts.seed);
    let models = setup::train_models(&setup::training_set(opts.scale), opts.scale)?;
    let plain = edge::run_leg(opts.scale, &schedule, &inputs.images, false, 1)?;
    let traced = edge::run_leg(opts.scale, &schedule, &inputs.images, true, 1)?;
    let mut oracle = Oracle::new(&models, &inputs.images);
    let summarize = |leg: &Leg, oracle: &mut Oracle<'_>, trace: bool| {
        edge::summarize(
            leg,
            &schedule,
            &inputs.images,
            &inputs.labels,
            oracle,
            trace,
        )
    };
    let sp = summarize(&plain, &mut oracle, false)?;
    let st = summarize(&traced, &mut oracle, true)?;

    let (phases, busy_s) = join(&traced, schedule.len());
    let path = format!(
        "{OUT_DIR}/{}-seed{}-requests.jsonl",
        workload.name(),
        opts.seed
    );
    write_requests(&path, &schedule, &traced, &phases)?;
    let ok: Vec<&Phases> = phases.iter().flatten().collect();
    let col = |f: fn(&Phases) -> f64| report::sorted(ok.iter().map(|p| f(p)).collect());
    let (submit, edge_us) = (col(|p| p.submit), col(|p| p.edge));
    let queue = col(|p| p.enqueue_to_seal + p.seal_to_dispatch);
    let lag = report::sorted(st.lag_ms.clone());
    let shards = &traced.server.shards;
    let sum = |f: fn(&edge::ShardReport) -> f64| shards.iter().map(f).sum::<f64>();
    let batches = sum(|s| s.batches as f64);
    let dispatches = sum(|s| (s.batches_full + s.batches_deadline + s.batches_flushed) as f64);
    let total_ops = sum(|s| s.total_ops.compute_ops() as f64);
    let wasted_ops = sum(|s| s.expired_partial_ops.compute_ops() as f64);
    let mean_batch = ratio(sum(|s| s.batch_size_sum), batches);
    let p50 = |v: &[f64]| report::quantile(&report::sorted(v.to_vec()), 0.5);

    let mut m = Metrics::default();
    m.push("load.schedule_ms", schedule_ms, "ms");
    m.push("load.lag_p99_ms", report::quantile(&lag, 0.99), "ms");
    m.push(
        "load.lag_max_ms",
        traced.load.max_lag.as_secs_f64() * 1e3,
        "ms",
    );
    m.push("net.submit_us_p50", report::quantile(&submit, 0.5), "us");
    m.push("net.submit_us_p99", report::quantile(&submit, 0.99), "us");
    m.push(
        "net.edge_overhead_us_p50",
        report::quantile(&edge_us, 0.5),
        "us",
    );
    m.push(
        "net.edge_overhead_us_p99",
        report::quantile(&edge_us, 0.99),
        "us",
    );
    m.push(
        "net.bytes_per_request",
        ratio(st.bytes as f64, st.sent as f64),
        "B",
    );
    m.push(
        "serve.queue_wait_us_p50",
        report::quantile(&queue, 0.5),
        "us",
    );
    m.push(
        "serve.queue_wait_us_p99",
        report::quantile(&queue, 0.99),
        "us",
    );
    m.push("serve.batch_size_mean", mean_batch, "requests");
    m.push(
        "serve.batches_deadline_frac",
        ratio(sum(|s| s.batches_deadline as f64), dispatches),
        "fraction",
    );
    m.push(
        "serve.worker_busy_frac",
        busy_s.iter().sum::<f64>() / (half * busy_s.len() as f64),
        "fraction",
    );
    m.push("serve.shed", sum(|s| s.shed as f64), "count");
    m.push("serve.expired", sum(|s| s.expired as f64), "count");
    m.push(
        "serve.useful_ops_frac",
        ratio(total_ops - wasted_ops, total_ops),
        "fraction",
    );

    let tiny = opts.scale == Scale::Tiny;
    let budget = |full_ms: u64| Duration::from_millis(if tiny { full_ms / 30 } else { full_ms });
    let batch = (mean_batch.round() as usize).max(1);
    let groups = core_groups(&schedule, &inputs.images, batch);
    let profile = layers::profile_core(&models, &groups, budget(3000))?;
    let names: Vec<String> = MODELS.iter().map(|(n, _, _)| n.to_lowercase()).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    layers::core_metrics(&mut m, &names, &models, &profile);
    for (i, (_, arch, _)) in MODELS.iter().enumerate() {
        layers::tensor_metrics(
            &mut m,
            names[i],
            &arch(),
            &profile.rows_per_batch(i),
            budget(60),
        )?;
    }

    let (lp, lt) = (
        report::windowed_quantile(&sp.latency_ms, 0.5),
        report::windowed_quantile(&st.latency_ms, 0.5),
    );
    m.push(
        "telemetry.overhead_frac_latency",
        ratio(lt, lp) - 1.0,
        "fraction",
    );
    m.push(
        "telemetry.overhead_frac_throughput",
        profile.observer_overhead_frac,
        "fraction",
    );
    let s = setup::median_setup(&traced.setups);
    m.push("setup.data_s", s.data_s, "s");
    m.push("setup.train_s", s.train_s, "s");
    m.push("setup.start_s", s.start_s, "s");

    let phase_medians = vec![
        ("client_submit_us", num(p50(&submit))),
        ("edge_in_out_us", num(p50(&edge_us))),
        (
            "admit_to_enqueue_us",
            num(p50(&ok
                .iter()
                .map(|p| p.admit_to_enqueue)
                .collect::<Vec<_>>())),
        ),
        (
            "enqueue_to_seal_us",
            num(p50(&ok
                .iter()
                .map(|p| p.enqueue_to_seal)
                .collect::<Vec<_>>())),
        ),
        (
            "seal_to_dispatch_us",
            num(p50(&ok
                .iter()
                .map(|p| p.seal_to_dispatch)
                .collect::<Vec<_>>())),
        ),
        (
            "stage_to_reply_us",
            num(p50(&ok
                .iter()
                .map(|p| p.stage_to_reply)
                .collect::<Vec<_>>())),
        ),
    ];
    let mut check_failures = sp.check_failures;
    check_failures.extend(st.check_failures);
    Ok(Outcome {
        metrics: m,
        attempted: sp.sent + st.sent,
        failed: sp.failed + st.failed,
        check_failures,
        details: vec![
            ("traced_requests", Content::U64(ok.len() as u64)),
            (
                "requests_not_joined",
                Content::U64(phases.len() as u64 - ok.len() as u64),
            ),
            ("phase_medians", report::obj(phase_medians)),
            ("requests_file", Content::Str(path)),
            ("error_kinds", edge::error_kinds_content(&st.error_kinds)),
        ],
    })
}
