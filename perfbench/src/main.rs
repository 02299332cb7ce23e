//! The repository benchmark: end-to-end and per-layer numbers for the CDL
//! stack, served through its TCP edge under seeded open-loop load.
//!
//! ```text
//! perfbench --workload <edge_steady|edge_burst_deep>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! perfbench compare <base-output> <new-output>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `traced`). Every output is checked against
//! `CdlNetwork::classify_with_override`, and every edge leg against the
//! router's ledger; the run exits nonzero if a check fails. The last line
//! of standard output is the result; the line before it is the full
//! report, with the host fingerprint.

mod edge;
mod layers;
mod report;
mod setup;
mod traced;
mod verify;
mod workload;

use std::process::ExitCode;

use serde::Content;

use crate::report::Outcome;
use crate::setup::Scale;
use crate::workload::Workload;

pub type Error = Box<dyn std::error::Error + Send + Sync>;

#[derive(Debug)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl RunOpts {
    fn parse(args: &[String]) -> Result<RunOpts, Error> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut scale = Scale::Full;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(value)?),
                "--seed" => seed = Some(value.parse()?),
                "--seconds" => seconds = Some(value.parse::<f64>()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--scale" => scale = Scale::parse(value)?,
                other => return Err(format!("unknown argument {other}").into()),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(RunOpts {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            scale,
        })
    }
}

fn run_main(args: &[String]) -> Result<bool, Error> {
    let opts = RunOpts::parse(args)?;
    let fingerprint = report::Fingerprint::detect();
    let outcome: Outcome = if opts.trace {
        traced::run(&opts, opts.workload)?
    } else {
        edge::run_e2e(&opts, opts.workload)?
    };
    report::print(
        &outcome,
        vec![
            ("workload", Content::Str(opts.workload.name().into())),
            ("seed", Content::U64(opts.seed)),
            ("seconds", Content::F64(opts.seconds)),
            ("trace", Content::Bool(opts.trace)),
            ("scale", Content::Str(opts.scale.name().into())),
            ("fingerprint", serde::Serialize::serialize(&fingerprint)),
        ],
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => edge::serve_main(&args[1..]).map(|()| true),
        Some("compare") => report::compare_main(&args[1..]).map(|()| true),
        _ => run_main(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
