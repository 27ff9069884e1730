//! The vg layer seen from outside: every bundled model behind a thin
//! [`VgFunction`] wrapper that forwards each trait method unchanged and
//! charges its wall time to a shared [`VgClock`]. Registering the wrapped
//! catalog with a `Prophet` measures model time inside the real `submit`
//! run without touching the engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use prophet_data::{DataResult, Schema, Table, Value};
use prophet_vg::{Rng64, VgCall, VgCallF64, VgFunction, VgRegistry};

/// Busy time and raw-`f64`-lane accounting, summed over every wrapped
/// model of one registry and every thread that calls them.
#[derive(Debug, Default)]
pub struct VgClock {
    busy_nanos: AtomicU64,
    f64_worlds: AtomicU64,
}

impl VgClock {
    /// Wall time spent inside model code, summed across threads.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }

    /// Logical invocations served through the raw `f64` lane.
    pub fn f64_worlds(&self) -> u64 {
        self.f64_worlds.load(Ordering::Relaxed)
    }

    fn charge(&self, start: Instant) {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

struct TimedVg {
    inner: Arc<dyn VgFunction>,
    clock: Arc<VgClock>,
}

impl VgFunction for TimedVg {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn output_schema(&self) -> Schema {
        self.inner.output_schema()
    }

    fn invoke(&self, params: &[Value], rng: &mut dyn Rng64) -> DataResult<Table> {
        let start = Instant::now();
        let out = self.inner.invoke(params, rng);
        self.clock.charge(start);
        out
    }

    fn invoke_batch(&self, calls: &mut [VgCall<'_>]) -> DataResult<Vec<Table>> {
        let start = Instant::now();
        let out = self.inner.invoke_batch(calls);
        self.clock.charge(start);
        out
    }

    fn invoke_batch_scalar(&self, calls: &mut [VgCall<'_>]) -> DataResult<Vec<Value>> {
        let start = Instant::now();
        let out = self.inner.invoke_batch_scalar(calls);
        self.clock.charge(start);
        out
    }

    fn invoke_batch_f64(&self, calls: &mut [VgCallF64<'_>]) -> DataResult<Option<Vec<f64>>> {
        let start = Instant::now();
        let out = self.inner.invoke_batch_f64(calls);
        self.clock.charge(start);
        if let Ok(Some(samples)) = &out {
            self.clock
                .f64_worlds
                .fetch_add(samples.len() as u64, Ordering::Relaxed);
        }
        out
    }
}

/// `prophet_models::full_registry()` — the service's default catalog —
/// with every model wrapped to charge `clock`.
pub fn timed_registry(clock: &Arc<VgClock>) -> VgRegistry {
    let base = prophet_models::full_registry();
    let mut timed = VgRegistry::new();
    for name in base.names() {
        let inner = Arc::clone(
            base.get(&name)
                .expect("invariant: every listed name resolves in its own registry"),
        );
        timed.register(Arc::new(TimedVg {
            inner,
            clock: Arc::clone(clock),
        }));
    }
    timed
}

/// Physical batch calls across the whole catalog.
pub fn batch_calls(registry: &VgRegistry) -> u64 {
    registry
        .names()
        .iter()
        .filter_map(|name| registry.stats(name))
        .map(|s| s.batched_calls)
        .sum()
}

#[cfg(test)]
mod tests {
    use fuzzy_prophet::{JobSpec, OfflineReport};
    use prophet_mc::{ParamPoint, SampleSet};

    use super::*;
    use crate::replay::tests::small_service;

    /// A points job, then the sweep, on one service over `registry`.
    fn run(registry: VgRegistry) -> (Vec<(SampleSet, fuzzy_prophet::EvalOutcome)>, OfflineReport) {
        let prophet = small_service(registry);
        let points: Vec<ParamPoint> = (0..=52)
            .step_by(4)
            .flat_map(|week| {
                [(0, 12), (16, 12), (32, 36)].map(|(p1, feature)| {
                    ParamPoint::from_pairs([
                        ("current", week),
                        ("purchase1", p1),
                        ("purchase2", 16),
                        ("feature", feature),
                    ])
                })
            })
            .collect();
        let results = prophet
            .submit(JobSpec::points("small", points))
            .unwrap()
            .wait()
            .unwrap()
            .into_points()
            .unwrap();
        let report = prophet
            .submit(JobSpec::sweep("small"))
            .unwrap()
            .wait()
            .unwrap()
            .into_sweep()
            .unwrap();
        (results, report)
    }

    #[test]
    fn wrapper_is_transparent() {
        let (plain_points, plain) = run(prophet_models::full_registry());
        let clock = Arc::new(VgClock::default());
        let (timed_points, timed) = run(timed_registry(&clock));

        assert_eq!(plain_points.len(), timed_points.len());
        for ((a, oa), (b, ob)) in plain_points.iter().zip(&timed_points) {
            assert_eq!(oa, ob, "outcome at {}", a.point());
            assert_eq!(a.columns(), b.columns());
            for column in a.columns() {
                let (xs, ys) = (a.samples(column).unwrap(), b.samples(column).unwrap());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(xs), bits(ys), "{column} at {}", a.point());
            }
        }
        assert_eq!(plain.best, timed.best);
        assert_eq!(plain.answers, timed.answers);
        let counts = |m: &fuzzy_prophet::EngineMetrics| {
            (
                m.points_cached,
                m.points_mapped,
                m.points_simulated,
                m.worlds_simulated,
            )
        };
        assert_eq!(counts(&plain.metrics), counts(&timed.metrics));
        assert!(clock.busy_nanos() > 0);
        assert!(clock.f64_worlds() > 0);
    }
}
