//! The workloads: seeded open-loop schedules of edge traffic. Why each
//! workload exists is recorded in `BENCHMARK.json`.

use std::time::Duration;

use cdl_load::{Arrival, ArrivalProcess, LoadSpec, TenantProfile};
use cdl_serve::Priority;

use crate::Error;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EdgeSteady,
    EdgeBurstDeep,
}

/// Offered steady rate: both demo models serve well over 10k req/s
/// through the edge on a 2-core host, so batches stay small and seal on
/// `max_wait`.
const STEADY_RPS: f64 = 2000.0;

/// Burst peak and trough. Each burst briefly offers more than the two
/// workers serve on a 2-core host, so the low-priority gate limit sheds;
/// deeper overload makes the shed share swing with the host's speed. The
/// phases have fixed lengths, so the offered total varies from seed to
/// seed only as much as Poisson counts do.
const BURST_ON_RPS: f64 = 20_000.0;
const BURST_OFF_RPS: f64 = 1_000.0;
const BURST_ON: Duration = Duration::from_millis(25);
const BURST_OFF: Duration = Duration::from_millis(100);

/// Every burst tenant's deadline, counted by the server from admission.
const BURST_DEADLINE: Duration = Duration::from_millis(25);

/// The latency limit of `slo_attainment` and `goodput_rps`, per request
/// from its scheduled send. It
/// sits well above today's edge p99 (about 50 ms, most of it the delayed
/// acknowledgements of a socket without `TCP_NODELAY`), so that the share
/// within it is steady and a regression past it shows.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::EdgeSteady, Workload::EdgeBurstDeep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeSteady => "edge_steady",
            Workload::EdgeBurstDeep => "edge_burst_deep",
        }
    }

    pub fn from_name(name: &str) -> Result<Workload, Error> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}").into())
    }
}

fn burst_tenants() -> Vec<TenantProfile> {
    let tenant = |id, weight, priority| {
        TenantProfile::new()
            .tenant(id)
            .weight(weight)
            .priority(priority)
            .deadline(BURST_DEADLINE)
    };
    // no tenant is High priority: a full gate then sheds instead of
    // parking the connection, so the generator never blocks on TCP
    // backpressure
    vec![
        tenant(1, 2.0, Priority::Normal).delta_choices(vec![Some(0.99)]),
        // full depth: a cap at the deepest stage either model has, so rows
        // may run every stage
        tenant(2, 1.0, Priority::Normal).max_stage_choices(vec![Some(2)]),
        tenant(3, 2.0, Priority::Low),
    ]
}

/// `cdl-load` Poisson arrivals at `rate_rps` over `[from, from + len)`.
fn phase(
    rate_rps: f64,
    from: Duration,
    len: Duration,
    tenants: Vec<TenantProfile>,
    seed: u64,
) -> Result<Vec<Arrival>, Error> {
    let spec = LoadSpec {
        arrival: ArrivalProcess::Poisson { rate_rps },
        tenants,
        requests: (rate_rps * len.as_secs_f64() * 1.5) as usize + 16,
        seed,
    };
    let mut arrivals = spec.schedule()?;
    arrivals.retain(|a| a.at < len);
    for a in &mut arrivals {
        a.at += from;
    }
    Ok(arrivals)
}

/// The seeded open-loop schedule of `seconds` of a workload's traffic.
pub fn schedule(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<Arrival>, Error> {
    let horizon = Duration::from_secs_f64(seconds);
    match workload {
        Workload::EdgeSteady => phase(
            STEADY_RPS,
            Duration::ZERO,
            horizon,
            vec![TenantProfile::new()],
            seed,
        ),
        Workload::EdgeBurstDeep => {
            let mut arrivals = Vec::new();
            let mut at = Duration::ZERO;
            let mut k = 0u64;
            while at < horizon {
                for (rate, len) in [(BURST_ON_RPS, BURST_ON), (BURST_OFF_RPS, BURST_OFF)] {
                    let len = len.min(horizon - at);
                    let phase_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
                    arrivals.extend(phase(rate, at, len, burst_tenants(), phase_seed)?);
                    at += len;
                    k += 1;
                    if at >= horizon {
                        break;
                    }
                }
            }
            Ok(arrivals)
        }
    }
}

/// Request `i` of a schedule goes to model `i % 2` …
pub fn model_of(i: usize) -> usize {
    i % 2
}

/// … and carries input `(i / 2) % inputs`, so both models see every input.
pub fn input_of(i: usize, inputs: usize) -> usize {
    (i / 2) % inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_schedule_and_another_seed_changes_it() {
        for w in Workload::ALL {
            let a = schedule(w, 5, 2.0).unwrap();
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, schedule(w, 5, 2.0).unwrap(), "{}", w.name());
            assert_ne!(a, schedule(w, 6, 2.0).unwrap(), "{}", w.name());
            assert!(a.last().unwrap().at < Duration::from_secs(2));
        }
    }

    #[test]
    fn every_burst_request_carries_a_deadline() {
        let s = schedule(Workload::EdgeBurstDeep, 1, 2.0).unwrap();
        assert!(s.iter().all(|a| a.options.deadline == Some(BURST_DEADLINE)));
        assert!(s.iter().any(|a| a.options.delta == Some(0.99)));
        assert!(s.iter().any(|a| a.options.max_stage == Some(2)));
    }
}
