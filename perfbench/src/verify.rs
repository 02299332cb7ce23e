//! The output check: every output the benchmark receives must be
//! bit-identical to `CdlNetwork::classify_with_override` on identically
//! seeded models.

use std::collections::HashMap;
use std::sync::Arc;

use cdl_core::confidence::ExitOverride;
use cdl_core::network::{CdlNetwork, CdlOutput};
use cdl_tensor::Tensor;

use crate::Error;

/// Field-by-field equality with `f32`s compared as bit patterns.
pub fn bit_identical(a: &CdlOutput, b: &CdlOutput) -> bool {
    a.label == b.label
        && a.exit_stage == b.exit_stage
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.ops == b.ops
        && a.stages_activated == b.stages_activated
        && a.exited_early == b.exited_early
}

type Key = (usize, usize, Option<u32>, Option<usize>);

/// Per-image reference outputs, computed once per (model, input,
/// override) and reused for every repeat of that request.
pub struct Oracle<'a> {
    models: &'a [Arc<CdlNetwork>],
    inputs: &'a [Tensor],
    memo: HashMap<Key, CdlOutput>,
}

impl<'a> Oracle<'a> {
    pub fn new(models: &'a [Arc<CdlNetwork>], inputs: &'a [Tensor]) -> Self {
        Oracle {
            models,
            inputs,
            memo: HashMap::new(),
        }
    }

    pub fn expected(
        &mut self,
        model: usize,
        input: usize,
        ovr: ExitOverride,
    ) -> Result<&CdlOutput, Error> {
        let key = (model, input, ovr.delta.map(f32::to_bits), ovr.max_stage);
        if !self.memo.contains_key(&key) {
            let out = self.models[model].classify_with_override(&self.inputs[input], ovr)?;
            self.memo.insert(key, out);
        }
        Ok(&self.memo[&key])
    }

    /// Checks one received output; `Ok(false)` is a mismatch.
    pub fn check(
        &mut self,
        model: usize,
        input: usize,
        ovr: ExitOverride,
        got: &CdlOutput,
    ) -> Result<bool, Error> {
        Ok(bit_identical(self.expected(model, input, ovr)?, got))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{self, Scale};

    #[test]
    fn a_corrupted_reply_trips_the_output_check() {
        let train = setup::training_set(Scale::Tiny);
        let models = setup::train_models(&train, Scale::Tiny).unwrap();
        let inputs = setup::inputs(Scale::Tiny, 3).images;
        let mut oracle = Oracle::new(&models, &inputs);
        let ovr = ExitOverride::with_delta(0.99);
        let good = models[1].classify_with_override(&inputs[4], ovr).unwrap();
        assert!(oracle.check(1, 4, ovr, &good).unwrap());

        let mut corrupted = vec![good.clone(); 4];
        corrupted[0].label = (good.label + 1) % 10;
        corrupted[1].confidence = f32::from_bits(good.confidence.to_bits() ^ 1);
        corrupted[2].ops.macs += 1;
        corrupted[3].stages_activated += 1;
        for bad in &corrupted {
            assert!(!oracle.check(1, 4, ovr, bad).unwrap(), "{bad:?} passed");
        }
    }
}
