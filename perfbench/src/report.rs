//! Result output: metric lists, the host fingerprint, the result lines a
//! run prints, and the `compare` mode that refuses to compare results
//! from different hosts.

use std::path::Path;

use cdl_serve::GemmKernel;
use serde::{Content, Deserialize, Serialize};

use crate::Error;

/// Prefix of the full-report line printed before the final result line.
pub const REPORT_PREFIX: &str = "perfbench-report ";

/// A JSON value built by hand (the vendored `serde` has no `Value`).
#[derive(Debug, Clone)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn serialize(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize(v: &Content) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

pub fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Content {
    Content::F64(v)
}

pub fn field<'a>(c: &'a Content, name: &str) -> Option<&'a Content> {
    c.as_map()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Metrics in the order they are printed.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_content(&self) -> Content {
        Content::Map(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        obj(vec![
                            ("value", num(*value)),
                            ("unit", Content::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    fn non_finite(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Each failed output or ledger check, by name.
    pub check_failures: Vec<String>,
    /// Everything else worth keeping: sample counts, error kinds, trace
    /// summaries.
    pub details: Vec<(&'static str, Content)>,
}

/// `a / b`, or 0 when `b` is 0 (an empty sample has no rate).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of samples in the order they were taken, as the
/// median over consecutive windows just large enough to leave ten samples
/// beyond the quantile (the pooled quantile when there are fewer). A
/// stall or a slow stretch of the host then moves a few windows, not the
/// reported figure.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    let window = (10.0 / (1.0 - q)).ceil() as usize;
    if samples.len() < window {
        return quantile(&sorted(samples.to_vec()), q);
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| quantile(&sorted(w.to_vec()), q))
        .collect();
    median(&per_window)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and build a result was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub avx2: bool,
    pub avx512f: bool,
    pub nproc: usize,
    pub profile: String,
    pub gemm_kernel: String,
    /// Commit of the checkout, when it is a git work tree.
    pub git_rev: String,
    /// FNV-1a digest of the sources the benchmark builds.
    pub source_digest: String,
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        Fingerprint {
            cpu_model,
            avx2,
            avx512f,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            gemm_kernel: GemmKernel::detect().to_string(),
            git_rev: git_rev(),
            source_digest: source_digest(),
        }
    }

    /// The fields that must match for two results to be comparable (the
    /// revision and sources are what a comparison compares).
    fn host_mismatches(&self, other: &Fingerprint) -> Vec<String> {
        let pairs = [
            ("cpu_model", self.cpu_model.clone(), other.cpu_model.clone()),
            ("avx2", self.avx2.to_string(), other.avx2.to_string()),
            (
                "avx512f",
                self.avx512f.to_string(),
                other.avx512f.to_string(),
            ),
            ("nproc", self.nproc.to_string(), other.nproc.to_string()),
            ("profile", self.profile.clone(), other.profile.clone()),
            (
                "gemm_kernel",
                self.gemm_kernel.clone(),
                other.gemm_kernel.clone(),
            ),
        ];
        pairs
            .into_iter()
            .filter(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name}: {a:?} vs {b:?}"))
            .collect()
    }
}

/// Reads `.git/HEAD` of the current directory without asking git, so the
/// run reads nothing outside its checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Prints the full report line and then the result line a harness reads
/// (which must be the last line of standard output).
pub fn print(outcome: &Outcome, header: Vec<(&str, Content)>) -> Result<bool, Error> {
    let bad = outcome.metrics.non_finite();
    let mut failures = outcome.check_failures.clone();
    if !bad.is_empty() {
        failures.push(format!("non-finite metrics: {}", bad.join(", ")));
    }
    let correct = failures.is_empty();
    let mut report = header;
    report.push(("correct", Content::Bool(correct)));
    report.push(("attempted", Content::U64(outcome.attempted)));
    report.push(("failed", Content::U64(outcome.failed)));
    report.push((
        "check_failures",
        Content::Seq(failures.iter().map(|f| Content::Str(f.clone())).collect()),
    ));
    report.push(("metrics", outcome.metrics.to_content()));
    report.extend(outcome.details.iter().cloned());
    println!(
        "{REPORT_PREFIX}{}",
        serde_json::to_string(&Json(obj(report)))?
    );
    let result = obj(vec![
        ("correct", Content::Bool(correct)),
        ("attempted", Content::U64(outcome.attempted)),
        ("failed", Content::U64(outcome.failed)),
        ("metrics", outcome.metrics.to_content()),
    ]);
    println!("{}", serde_json::to_string(&Json(result))?);
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Ok(correct)
}

/// The last report line of a saved run output.
fn load_report(path: &str) -> Result<Content, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(REPORT_PREFIX))
        .ok_or_else(|| format!("{path}: no `{}` line", REPORT_PREFIX.trim()))?;
    Ok(serde_json::from_str::<Json>(line)?.0)
}

/// `compare <base> <new>`: prints each metric of two saved run outputs
/// side by side, after checking that both ran the same workload on the
/// same host and build profile.
pub fn compare_main(args: &[String]) -> Result<(), Error> {
    let [base, new] = args else {
        return Err("usage: perfbench compare <base-output> <new-output>".into());
    };
    let (a, b) = (load_report(base)?, load_report(new)?);
    let fingerprint = |c: &Content| -> Result<Fingerprint, Error> {
        Ok(Fingerprint::deserialize(
            field(c, "fingerprint").ok_or("report has no fingerprint")?,
        )?)
    };
    let mismatches = fingerprint(&a)?.host_mismatches(&fingerprint(&b)?);
    if !mismatches.is_empty() {
        return Err(format!(
            "refusing to compare results from different hosts: {}",
            mismatches.join("; ")
        )
        .into());
    }
    for key in ["workload", "trace", "seconds", "scale"] {
        if field(&a, key) != field(&b, key) {
            return Err(format!("refusing to compare: `{key}` differs").into());
        }
    }
    let metrics = |c: &Content| -> Vec<(String, f64)> {
        field(c, "metrics")
            .and_then(Content::as_map)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| match field(m, "value") {
                Some(Content::F64(v)) => Some((name.clone(), *v)),
                Some(Content::U64(v)) => Some((name.clone(), *v as f64)),
                Some(Content::I64(v)) => Some((name.clone(), *v as f64)),
                _ => None,
            })
            .collect()
    };
    let new_metrics = metrics(&b);
    println!(
        "{:<40} {:>14} {:>14} {:>8}",
        "metric", "base", "new", "new/base"
    );
    for (name, va) in metrics(&a) {
        if let Some((_, vb)) = new_metrics.iter().find(|(n, _)| *n == name) {
            println!("{name:<40} {va:>14.4} {vb:>14.4} {:>8.3}", ratio(*vb, va));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            cpu_model: "cpu".into(),
            avx2: true,
            avx512f: false,
            nproc: 2,
            profile: "release".into(),
            gemm_kernel: "simd".into(),
            git_rev: "a".into(),
            source_digest: "1".into(),
        }
    }

    #[test]
    fn only_host_fields_block_a_comparison() {
        let base = fp();
        let other_rev = Fingerprint {
            git_rev: "b".into(),
            source_digest: "2".into(),
            ..fp()
        };
        assert!(base.host_mismatches(&other_rev).is_empty());
        let other_host = Fingerprint {
            nproc: 4,
            gemm_kernel: "tiled".into(),
            ..fp()
        };
        assert_eq!(base.host_mismatches(&other_host).len(), 2);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_slow_stretch_moves_few_windows() {
        // 5000 samples of 1.0 with one slow stretch of 1500 at 9.0: the
        // pooled p99 is the slow value, the windowed p99 is not
        let mut v = vec![1.0; 5000];
        v[1000..2500].fill(9.0);
        assert_eq!(quantile(&sorted(v.clone()), 0.99), 9.0);
        assert_eq!(windowed_quantile(&v, 0.99), 1.0);
        assert_eq!(windowed_quantile(&v[..50], 0.99), 1.0);
    }
}
