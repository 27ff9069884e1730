//! Single-point evaluation: the Figure-1 claim cycle for one point.
//!
//! A *batch* of points — a sweep group, a graph refresh, a prefetch — runs
//! through the scheduler's batch pipeline ([`crate::scheduler`]), which is
//! the only code that plans, matches and publishes many points at once.
//! [`Engine::evaluate`] is the one-point path beside it: claim the point
//! in the shared store, then
//!
//! * [`TryClaim::Ready`] — serve the stored samples (exact cache hit);
//! * [`TryClaim::Pending`] — another session owns the simulation: block
//!   on its [`WaitHandle`] and reuse what it publishes;
//! * [`TryClaim::Owner`] — run the cycle here (`Engine::run_owner`):
//!   probe, match against the store, remap a hit or simulate a miss, and
//!   publish through the claim guard.
//!
//! The loop (`Engine::resolve_claim`) is also the batch pipeline's wait
//! phase: a batch point another session owns resolves through it.
//!
//! The tests below pin the batch semantics every caller of the pipeline
//! relies on — empty batches, duplicate collapse, input order, phase
//! clocks — on a private pool.
//!
//! [`TryClaim::Ready`]: prophet_mc::TryClaim::Ready
//! [`TryClaim::Pending`]: prophet_mc::TryClaim::Pending
//! [`TryClaim::Owner`]: prophet_mc::TryClaim::Owner
//! [`WaitHandle`]: prophet_mc::WaitHandle

use std::collections::HashMap;
use std::sync::Arc;

use prophet_fingerprint::{Fingerprint, Mapping};
use prophet_mc::{BasisHit, InflightGuard, ParamPoint, SampleSet, TryClaim, WaitHandle};

use crate::engine::{Engine, EvalOutcome};
use crate::error::ProphetResult;
use crate::metrics::Stopwatch;

impl Engine {
    /// Evaluate the scenario at one parameter point, returning the sample
    /// set and how it was obtained. A point already being simulated by a
    /// concurrent session is not duplicated: this call blocks on the
    /// in-flight owner and reuses its result (outcome
    /// [`EvalOutcome::Cached`], counted in `EngineMetrics::inflight_waits`).
    pub fn evaluate(&self, point: &ParamPoint) -> ProphetResult<(SampleSet, EvalOutcome)> {
        self.resolve_claim(point, None)
    }

    /// The claim cycle for one point. With `pending` set (the batch
    /// pipeline's wait phase passes the handle its batch claim returned),
    /// first block on that in-flight simulation; then claim the point:
    /// `Ready` serves the stored samples, `Pending` waits again, `Owner`
    /// runs the cycle here. If an owner abandons its simulation (error, or
    /// a store clear mid-flight), or publishes fewer worlds than this
    /// engine requires (shared store, differing `worlds_per_point`), the
    /// loop re-claims: becoming the owner means re-simulating at this
    /// engine's own depth.
    pub(crate) fn resolve_claim(
        &self,
        point: &ParamPoint,
        mut pending: Option<WaitHandle>,
    ) -> ProphetResult<(SampleSet, EvalOutcome)> {
        loop {
            if let Some(h) = pending.take() {
                if let Some((samples, worlds)) = h.wait() {
                    if worlds >= self.config().worlds_per_point {
                        self.bump(|m| {
                            m.points_cached += 1;
                            m.inflight_waits += 1;
                        });
                        return Ok((
                            self.to_sample_set(point, (*samples).clone()),
                            EvalOutcome::Cached,
                        ));
                    }
                    // Under-provisioned publish: fall through and re-claim,
                    // exactly as the Ready path's min-worlds filter would.
                }
            }
            match self
                .basis_store()
                .try_claim(point, self.config().worlds_per_point)
            {
                TryClaim::Ready { samples, .. } => {
                    self.bump(|m| m.points_cached += 1);
                    return Ok((
                        self.to_sample_set(point, (*samples).clone()),
                        EvalOutcome::Cached,
                    ));
                }
                TryClaim::Pending(h) => pending = Some(h),
                TryClaim::Owner(guard) => return self.run_owner(point, guard),
            }
        }
    }

    /// Probe one point's fingerprints and run the (single-probe) match
    /// scan, with the same metric accounting as the batch pipeline's match
    /// phase. Shared by [`Engine::run_owner`] and the progressive estimator
    /// in [`crate::session`].
    pub(crate) fn probe_and_match_one(
        &self,
        point: &ParamPoint,
    ) -> ProphetResult<(HashMap<String, Fingerprint>, Option<BasisHit>)> {
        let probes = self.probe_fingerprints(point)?;
        let match_start = Stopwatch::start();
        let (mut hits, scan) = self.basis_store().find_correlated_batch_scan(
            std::slice::from_ref(&probes),
            self.stochastic_columns(),
            &self.config().detector,
            self.config().threads.max(1),
            self.config().match_index,
        );
        let hit = hits.pop().flatten();
        let match_elapsed = match_start.elapsed();
        self.bump(|m| {
            m.fingerprint_time += match_elapsed;
            m.match_scan_nanos += match_elapsed.as_nanos() as u64;
            m.candidates_scanned += scan.candidates_scanned;
            m.candidates_pruned += scan.candidates_pruned;
        });
        Ok((probes, hit))
    }

    /// Sequential Figure-1 cycle for one owned point.
    fn run_owner(
        &self,
        point: &ParamPoint,
        guard: InflightGuard,
    ) -> ProphetResult<(SampleSet, EvalOutcome)> {
        let use_fingerprints =
            self.config().fingerprints_enabled && !self.stochastic_columns().is_empty();
        let mut probes = HashMap::new();
        if use_fingerprints {
            let phase = Stopwatch::start();
            let (point_probes, hit) = self.probe_and_match_one(point)?;
            probes = point_probes;
            if let Some(hit) = hit {
                let mapped = self.remap_samples(point, &hit.samples, &hit.mappings, hit.worlds)?;
                let exact = hit.mappings.values().all(Mapping::is_exact);
                guard.complete(probes, Arc::new(mapped.clone()), hit.worlds, false);
                self.bump(|m| {
                    m.points_mapped += 1;
                    m.probe_nanos += phase.elapsed_nanos();
                });
                return Ok((
                    self.to_sample_set(point, mapped),
                    EvalOutcome::Mapped {
                        from: hit.source,
                        exact,
                    },
                ));
            }
            self.bump(|m| m.probe_nanos += phase.elapsed_nanos());
        }
        let phase = Stopwatch::start();
        let samples = self.simulate_full(point, true)?;
        guard.complete(
            probes,
            Arc::new(samples.clone()),
            self.config().worlds_per_point,
            true,
        );
        self.bump(|m| {
            m.points_simulated += 1;
            m.sim_nanos += phase.elapsed_nanos();
        });
        Ok((self.to_sample_set(point, samples), EvalOutcome::Simulated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::job::Priority;
    use crate::scenario::Scenario;
    use crate::scheduler::Scheduler;
    use prophet_models::demo_registry;

    fn engine(config: EngineConfig) -> Arc<Engine> {
        let scenario = Scenario::figure2().unwrap();
        Arc::new(Engine::new(&scenario, demo_registry(), config).unwrap())
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            worlds_per_point: 60,
            ..EngineConfig::default()
        }
    }

    fn demo_point(current: i64, p1: i64, p2: i64, feature: i64) -> ParamPoint {
        ParamPoint::from_pairs([
            ("current", current),
            ("purchase1", p1),
            ("purchase2", p2),
            ("feature", feature),
        ])
    }

    /// Run `points` as one batch job on a private pool.
    fn evaluate_batch(e: &Arc<Engine>, points: &[ParamPoint]) -> Vec<(SampleSet, EvalOutcome)> {
        Scheduler::private(e.config().threads)
            .submit_batch(Arc::clone(e), points.to_vec(), Priority::Normal)
            .wait()
            .unwrap()
            .into_points()
            .unwrap()
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let e = engine(small_config());
        assert!(evaluate_batch(&e, &[]).is_empty());
        assert_eq!(e.metrics().points_total(), 0);
    }

    #[test]
    fn duplicate_points_in_one_batch_are_evaluated_once() {
        let e = engine(small_config());
        let p = demo_point(10, 16, 36, 12);
        let results = evaluate_batch(&e, &[p.clone(), p.clone(), p]);
        assert_eq!(results.len(), 3);
        for (samples, outcome) in &results {
            assert_eq!(*outcome, EvalOutcome::Simulated);
            assert_eq!(samples.samples("demand"), results[0].0.samples("demand"));
        }
        let m = e.metrics();
        assert_eq!(m.points_simulated, 1, "duplicates collapse to one");
        assert_eq!(m.points_total(), 1);
        assert_eq!(m.worlds_simulated, 60);
    }

    #[test]
    fn batch_results_keep_input_order() {
        let e = engine(small_config());
        let a = demo_point(5, 16, 36, 12);
        let b = demo_point(50, 0, 4, 44);
        let results = evaluate_batch(&e, &[a.clone(), b.clone(), a.clone()]);
        assert_eq!(results[0].0.point(), &a);
        assert_eq!(results[1].0.point(), &b);
        assert_eq!(results[2].0.point(), &a);
    }

    #[test]
    fn batch_phase_clocks_are_recorded() {
        let e = engine(small_config());
        let results = evaluate_batch(&e, &[demo_point(5, 16, 36, 12), demo_point(5, 16, 36, 36)]);
        assert_eq!(results.len(), 2);
        let m = e.metrics();
        assert_eq!(m.batch_probes, 2, "both cold points probed in batch");
        assert!(m.probe_nanos > 0, "probe phase wall-clock recorded");
        assert!(m.sim_nanos > 0, "simulate phase wall-clock recorded");
    }
}
