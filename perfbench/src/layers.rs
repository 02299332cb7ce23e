//! Per-layer timings of the compute path, taken from outside the program:
//! `core` stage rows timed between observer calls of
//! `BatchEvaluator::classify_batch_with_override_observed`, and `tensor`
//! kernels timed by calling `conv2d_valid_batch`, `maxpool2d` and
//! `gemm_nn` directly at each layer's shape.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl_core::arch::CdlArchitecture;
use cdl_core::batch::BatchEvaluator;
use cdl_core::confidence::ExitOverride;
use cdl_core::network::CdlNetwork;
use cdl_nn::spec::LayerSpec;
use cdl_tensor::conv::conv2d_macs;
use cdl_tensor::gemm::{gemm_nn, GemmKernel};
use cdl_tensor::im2col::{conv2d_valid_batch, ConvScratch};
use cdl_tensor::pool::{maxpool2d, pool_ops};
use cdl_tensor::Tensor;

use crate::report::{ratio, Metrics};
use crate::Error;

/// One override-uniform batch of one model's requests, as the serving
/// layer would evaluate it.
pub struct Group {
    pub model: usize,
    pub ovr: ExitOverride,
    pub inputs: Vec<Tensor>,
}

#[derive(Debug, Clone, Copy, Default)]
struct StageStat {
    rows: u64,
    ns: u128,
}

pub struct CoreProfile {
    /// Per model, per stage (the final segment last).
    stages: Vec<Vec<StageStat>>,
    batches: Vec<u64>,
    /// Observed passes' time over plain passes' time, minus one.
    pub observer_overhead_frac: f64,
}

impl CoreProfile {
    /// Mean rows per batch reaching each stage of `model`.
    pub fn rows_per_batch(&self, model: usize) -> Vec<f64> {
        self.stages[model]
            .iter()
            .map(|s| ratio(s.rows as f64, self.batches[model] as f64))
            .collect()
    }
}

/// Runs `groups` round after round for at least one round and `budget`,
/// each group once plain and once observed (alternating which goes
/// first). Stage k's time runs from the previous observer call (or the
/// call's start) to observer call k; the tail after the last observer
/// call goes to the last stage reached.
pub fn profile_core(
    models: &[Arc<CdlNetwork>],
    groups: &[Group],
    budget: Duration,
) -> Result<CoreProfile, Error> {
    let mut evals: Vec<BatchEvaluator<'_>> =
        models.iter().map(|m| BatchEvaluator::new(m)).collect();
    let mut stages: Vec<Vec<StageStat>> = models
        .iter()
        .map(|m| vec![StageStat::default(); m.stage_count() + 1])
        .collect();
    let mut batches = vec![0u64; models.len()];
    let (mut plain, mut observed) = (Duration::ZERO, Duration::ZERO);
    let deadline = Instant::now() + budget;
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline {
        for g in groups {
            let eval = &mut evals[g.model];
            for pass in 0..2 {
                if (pass + round).is_multiple_of(2) {
                    let t = Instant::now();
                    black_box(eval.classify_batch_with_override(&g.inputs, g.ovr)?);
                    plain += t.elapsed();
                    continue;
                }
                let stats = &mut stages[g.model];
                let start = Instant::now();
                let mut last = start;
                let mut last_stage = 0;
                black_box(eval.classify_batch_with_override_observed(
                    &g.inputs,
                    g.ovr,
                    &mut |stage, active| {
                        let now = Instant::now();
                        stats[stage].ns += (now - last).as_nanos();
                        stats[stage].rows += active.len() as u64;
                        last = now;
                        last_stage = stage;
                    },
                )?);
                let end = Instant::now();
                stats[last_stage].ns += (end - last).as_nanos();
                observed += end - start;
                batches[g.model] += 1;
            }
        }
        round += 1;
    }
    Ok(CoreProfile {
        stages,
        batches,
        observer_overhead_frac: ratio(observed.as_secs_f64(), plain.as_secs_f64()) - 1.0,
    })
}

/// `core.<model>.s<k>.*` rows.
pub fn core_metrics(
    out: &mut Metrics,
    names: &[&str],
    models: &[Arc<CdlNetwork>],
    p: &CoreProfile,
) {
    for (m, net) in models.iter().enumerate() {
        let stats = &p.stages[m];
        for (k, s) in stats.iter().enumerate() {
            let kops = if k < net.stage_count() {
                let stage = &net.stages()[k];
                (stage.ops_from_prev + stage.head_ops).compute_ops()
            } else {
                net.final_ops().compute_ops()
            } as f64
                / 1e3;
            let exits = s.rows - stats.get(k + 1).map_or(0, |next| next.rows);
            let ns_per_row = ratio(s.ns as f64, s.rows as f64);
            let prefix = format!("core.{}.s{k}", names[m]);
            out.push(
                format!("{prefix}.rows"),
                ratio(s.rows as f64, p.batches[m] as f64),
                "rows/batch",
            );
            out.push(format!("{prefix}.ns_per_row"), ns_per_row, "ns");
            out.push(format!("{prefix}.kops_per_row"), kops, "kops");
            out.push(
                format!("{prefix}.ns_per_kop"),
                ratio(ns_per_row, kops),
                "ns/kop",
            );
            out.push(
                format!("{prefix}.exit_yield"),
                ratio(exits as f64, s.rows as f64),
                "fraction",
            );
        }
    }
}

/// Deterministic filler in [0, 1): the kernels' speed does not depend on
/// the values, only on the shapes.
fn filler(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i.wrapping_mul(2_654_435_761).wrapping_add(salt)) % 1000) as f32 / 1000.0)
        .collect()
}

/// Calls `f` until `budget` has passed (at least three times) and returns
/// the mean nanoseconds per call.
fn time_calls(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// `tensor.<model>.<layer>.gflops` and `.bytes_per_op` for every conv,
/// pool and dense layer, at the mean rows per batch that reached the
/// layer's stage. Bytes are computed from tensor sizes (inputs, weights,
/// outputs), not measured.
pub fn tensor_metrics(
    out: &mut Metrics,
    name: &str,
    arch: &CdlArchitecture,
    rows_per_stage: &[f64],
    budget: Duration,
) -> Result<(), Error> {
    let kernel = GemmKernel::detect();
    let spec = &arch.spec;
    let chain = spec.shape_chain()?;
    let (mut convs, mut pools) = (0, 0);
    for (li, layer) in spec.layers.iter().enumerate() {
        let stage = arch
            .taps
            .iter()
            .position(|t| li <= t.spec_layer)
            .unwrap_or(arch.taps.len());
        let rows = rows_per_stage[stage].round().max(1.0) as usize;
        let in_shape = if li == 0 {
            &spec.input_shape
        } else {
            &chain[li - 1]
        };
        let in_vol: usize = in_shape.iter().product();
        let out_vol: usize = chain[li].iter().product();
        let inputs = || -> Result<Vec<Tensor>, Error> {
            (0..rows)
                .map(|r| Ok(Tensor::from_vec(filler(in_vol, r), in_shape)?))
                .collect()
        };
        let (label, ops, bytes, ns) = match *layer {
            LayerSpec::Conv {
                in_channels,
                out_channels,
                kernel: k,
                ..
            } => {
                convs += 1;
                let xs = inputs()?;
                let w = Tensor::from_vec(
                    filler(out_channels * in_channels * k * k, 7),
                    &[out_channels, in_channels, k, k],
                )?;
                let bias = vec![0.1f32; out_channels];
                let mut scratch = ConvScratch::default();
                let macs = conv2d_macs(in_channels, in_shape[1], in_shape[2], out_channels, k, k);
                let ns = time_calls(budget, || {
                    black_box(
                        conv2d_valid_batch(&xs, &w, &bias, &mut scratch, kernel)
                            .expect("conv shapes come from a validated spec"),
                    );
                });
                let bytes = rows * (in_vol + out_vol) + w.len() + out_channels;
                (format!("c{convs}"), 2 * macs * rows as u64, bytes, ns)
            }
            LayerSpec::MaxPool { window } => {
                pools += 1;
                let xs = inputs()?;
                let ns = time_calls(budget, || {
                    for x in &xs {
                        black_box(
                            maxpool2d(x, window).expect("pool shapes come from a validated spec"),
                        );
                    }
                });
                let ops = pool_ops(in_shape[0], in_shape[1], in_shape[2], window) * rows as u64;
                (format!("p{pools}"), ops, rows * (in_vol + out_vol), ns)
            }
            LayerSpec::Dense {
                in_features,
                out_features,
                ..
            } => {
                let a = filler(out_features * in_features, 3);
                let b = filler(in_features * rows, 5);
                let bias = vec![0.1f32; out_features];
                let mut c = vec![0.0f32; out_features * rows];
                let ns = time_calls(budget, || {
                    gemm_nn(
                        kernel,
                        out_features,
                        in_features,
                        rows,
                        &a,
                        &b,
                        &bias,
                        &mut c,
                    );
                    black_box(&c);
                });
                let bytes = a.len() + b.len() + bias.len() + c.len();
                (
                    "fc".to_string(),
                    2 * (in_features * out_features * rows) as u64,
                    bytes,
                    ns,
                )
            }
            LayerSpec::MeanPool { .. } | LayerSpec::Flatten => continue,
        };
        let prefix = format!("tensor.{name}.{label}");
        out.push(format!("{prefix}.gflops"), ratio(ops as f64, ns), "GFLOP/s");
        out.push(
            format!("{prefix}.bytes_per_op"),
            ratio(4.0 * bytes as f64, ops as f64),
            "B/op",
        );
    }
    Ok(())
}
