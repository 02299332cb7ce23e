//! Set-up shared by every workload: the seeded training data, the two
//! paper models trained with the demo recipe, and the seeded request
//! inputs. The models never depend on `--seed`; only the inputs do.

use std::sync::Arc;
use std::time::Instant;

use cdl_core::arch::{self, CdlArchitecture};
use cdl_core::network::CdlNetwork;
use cdl_dataset::SyntheticMnist;
use cdl_nn::trainer::LabelledSet;
use serde::{Deserialize, Serialize};

use crate::Error;

/// A served model: registered name, architecture, training seed.
pub type ModelSpec = (&'static str, fn() -> CdlArchitecture, u64);

pub const MODELS: [ModelSpec; 2] = [
    ("MNIST_2C", arch::mnist_2c, 7),
    ("MNIST_3C", arch::mnist_3c, 11),
];

/// Seed of the training set (fixed: the models are part of the program
/// under test, not of the workload).
const TRAIN_SEED: u64 = 23;

/// Run size. `Full` is what the benchmark measures; `Tiny` only keeps the
/// self-test fast and is never used for a reported number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Result<Scale, Error> {
        match s {
            "full" => Ok(Scale::Full),
            "tiny" => Ok(Scale::Tiny),
            other => Err(format!("unknown scale {other:?} (expected full or tiny)").into()),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    fn train_n(self) -> usize {
        match self {
            Scale::Full => 800,
            Scale::Tiny => 200,
        }
    }

    fn epochs(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Tiny => 1,
        }
    }

    /// Set-ups per run whose median is reported as `setup_s`: training
    /// time on a shared 2-vCPU host varies by a third between set-ups, so
    /// the median needs five.
    pub fn setup_reps(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Tiny => 1,
        }
    }

    /// Distinct request inputs.
    pub fn inputs(self) -> usize {
        match self {
            Scale::Full => 4096,
            Scale::Tiny => 256,
        }
    }
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SetupTimes {
    pub data_s: f64,
    pub train_s: f64,
    pub start_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.data_s + self.train_s + self.start_s
    }
}

/// The median total of several set-ups, and the phase split of the
/// set-up closest to it.
pub fn median_setup(setups: &[SetupTimes]) -> SetupTimes {
    let mut sorted = setups.to_vec();
    sorted.sort_by(|a, b| a.total().total_cmp(&b.total()));
    sorted[sorted.len() / 2]
}

pub fn training_set(scale: Scale) -> LabelledSet {
    SyntheticMnist::default().generate(scale.train_n(), TRAIN_SEED)
}

/// The seeded request inputs of a run, disjoint from the training stream.
pub fn inputs(scale: Scale, seed: u64) -> LabelledSet {
    SyntheticMnist::default().generate(scale.inputs(), seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Trains both paper models with `cdl_bench::pipeline::train_demo_model`.
pub fn train_models(train: &LabelledSet, scale: Scale) -> Result<Vec<Arc<CdlNetwork>>, Error> {
    MODELS
        .iter()
        .map(|&(_, arch, seed)| {
            cdl_bench::pipeline::train_demo_model(arch(), train, scale.epochs(), seed).map(Arc::new)
        })
        .collect()
}

/// Data generation plus training, timed: the shared part of every set-up.
pub fn timed_models(scale: Scale) -> Result<(Vec<Arc<CdlNetwork>>, SetupTimes), Error> {
    let t0 = Instant::now();
    let train = training_set(scale);
    let t1 = Instant::now();
    let models = train_models(&train, scale)?;
    let t2 = Instant::now();
    Ok((
        models,
        SetupTimes {
            data_s: (t1 - t0).as_secs_f64(),
            train_s: (t2 - t1).as_secs_f64(),
            start_s: 0.0,
        },
    ))
}
