//! Chaos-mode schedule sweep (tier 2).
//!
//! [`SchedulerConfig::perturb`] arms seeded yields and chunk-pop shuffles
//! at the scheduler's preemption points, so each seed drives the pool
//! through a different interleaving of the same job. The scheduler's
//! determinism contract (`docs/CONCURRENCY.md`) says interleaving carries
//! no semantic weight: answers, chosen mapping sources, and work counters
//! must be bit-identical to a quiet reference run under *every* schedule.
//!
//! This file sweeps ≥32 chaos seeds at 1 and 8 workers and asserts exactly
//! that. Run under `--features check` (the CI lane does), every lock
//! acquisition and claim transition is additionally verified against the
//! rank table and the claim ledger — a single checker firing panics the
//! worker and fails the sweep, so "passes under check" *is* the
//! zero-firings assertion.

use std::collections::HashMap;

use fuzzy_prophet::prelude::*;
use prophet_models::full_registry;
use prophet_models::scenarios::PRICING_WHATIF;

fn config() -> EngineConfig {
    EngineConfig {
        worlds_per_point: 8,
        threads: 2,
        ..EngineConfig::default()
    }
}

type SweepResult = (OfflineReport, HashMap<ParamPoint, EvalOutcome>);

/// Quiet reference: the same sweep on a bare optimizer's private pool —
/// default chunking, no tracer, no chaos.
fn quiet_reference() -> SweepResult {
    let engine = Engine::new(
        &Scenario::parse(PRICING_WHATIF).unwrap(),
        full_registry(),
        config(),
    )
    .unwrap();
    let optimizer = OfflineOptimizer::open(engine).unwrap();
    let mut outcomes = HashMap::new();
    let report = optimizer
        .run_with_observer(|_, full, outcome| {
            outcomes.insert(full.clone(), outcome.clone());
        })
        .unwrap();
    (report, outcomes)
}

fn chaotic_service(workers: usize, seed: u64, trace: TraceConfig) -> Prophet {
    Prophet::builder()
        .scenario_sql("pricing", PRICING_WHATIF)
        .unwrap()
        .registry(full_registry())
        .config(config())
        .scheduler(
            SchedulerConfig {
                workers,
                // Tiny chunks: the most scheduling decisions per job, so
                // each seed has the most opportunities to reorder.
                chunk_points: 2,
                trace,
                ..SchedulerConfig::default()
            }
            .perturb(seed),
        )
        .build()
        .unwrap()
}

fn run_perturbed_sweep(prophet: &Prophet) -> SweepResult {
    let handle = prophet.submit(JobSpec::sweep("pricing")).unwrap();
    let mut outcomes = HashMap::new();
    let mut report = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                for (point, outcome) in update.results {
                    outcomes.insert(point, outcome);
                }
            }
            JobEvent::Final(output) => report = Some(output.into_sweep().unwrap()),
            other => panic!("unexpected event {other:?}"),
        }
    }
    (report.expect("sweep must finish"), outcomes)
}

fn assert_bit_identical(label: &str, perturbed: &SweepResult, reference: &SweepResult) {
    let (sweep, outcomes) = perturbed;
    let (quiet, quiet_outcomes) = reference;
    assert_eq!(sweep.answers, quiet.answers, "{label}: answers");
    assert_eq!(sweep.best, quiet.best, "{label}: optimum");
    assert_eq!(
        outcomes, quiet_outcomes,
        "{label}: chosen mapping sources per point"
    );
    let (a, b) = (&sweep.metrics, &quiet.metrics);
    assert_eq!(a.points_simulated, b.points_simulated, "{label}: sim count");
    assert_eq!(a.points_mapped, b.points_mapped, "{label}: map count");
    assert_eq!(a.points_cached, b.points_cached, "{label}: cache count");
    assert_eq!(a.worlds_simulated, b.worlds_simulated, "{label}: worlds");
    assert_eq!(a.probe_evaluations, b.probe_evaluations, "{label}: probes");
    assert_eq!(
        a.candidates_scanned, b.candidates_scanned,
        "{label}: match scan"
    );
    assert_eq!(
        a.candidates_pruned, b.candidates_pruned,
        "{label}: match pruning"
    );
    assert_eq!(a.batch_probes, b.batch_probes, "{label}: batch probes");
}

/// ≥32 seeds × {1, 8} workers, **with the flight recorder armed** (ring
/// tracing, the service default): every perturbed schedule reproduces
/// the quiet reference sweep bit-for-bit, with zero lock-rank or claim-ledger
/// firings (any firing panics and fails this test under `check`). The
/// recorder observing every queue pop, chunk run, and store publish must
/// not perturb a single answer, source choice, or counter — tracing
/// observes, never decides (`docs/OBSERVABILITY.md`).
#[test]
fn chaos_sweep_is_bit_identical_across_32_seeds_and_worker_counts() {
    let reference = quiet_reference();
    for seed in 0..32u64 {
        for workers in [1usize, 8] {
            let prophet = chaotic_service(workers, seed, TraceConfig::ring());
            let perturbed = run_perturbed_sweep(&prophet);
            assert_bit_identical(
                &format!("seed {seed}, {workers} workers"),
                &perturbed,
                &reference,
            );
            assert!(
                !prophet.trace_events().is_empty(),
                "seed {seed}, {workers} workers: the lane must actually trace"
            );
        }
    }
}

/// The `Off` side of the tracing differential: a sample of perturbed
/// schedules with the recorder disabled still matches the quiet
/// reference bit-for-bit, and the disabled recorder is truly inert —
/// zero events, zero histogram observations, zero ring accounting. (That
/// `Off` also allocates no ring at all is pinned by the unit test in
/// `prophet_mc::trace`.)
#[test]
fn chaos_sweep_with_tracing_off_is_identical_and_records_nothing() {
    let reference = quiet_reference();
    for seed in [0u64, 7, 13, 21] {
        for workers in [1usize, 8] {
            let prophet = chaotic_service(workers, seed, TraceConfig::Off);
            let perturbed = run_perturbed_sweep(&prophet);
            assert_bit_identical(
                &format!("off, seed {seed}, {workers} workers"),
                &perturbed,
                &reference,
            );
            assert!(prophet.trace_events().is_empty(), "seed {seed}: no events");
            let telemetry = prophet.telemetry();
            assert_eq!(telemetry.trace.events_recorded, 0, "seed {seed}");
            assert_eq!(telemetry.trace.events_dropped, 0, "seed {seed}");
            assert_eq!(telemetry.trace.chunk_service.count(), 0, "seed {seed}");
            assert_eq!(telemetry.trace.max_queue_depth, 0, "seed {seed}");
        }
    }
}

/// Chaos under contention: two jobs of the same scenario share one store
/// while the scheduler is perturbed, so claims, waits and publishes all
/// interleave differently per seed. Both jobs must still land on answers
/// identical to the quiet reference, and the *pair's* combined work
/// must show the second job reusing the first's published bases (the
/// claim protocol guarantees at-most-once simulation per point).
#[test]
fn chaos_concurrent_jobs_share_the_store_correctly() {
    let reference = quiet_reference();
    for seed in [3u64, 17, 29, 31, 40, 41, 54, 63] {
        let prophet = chaotic_service(8, seed, TraceConfig::ring());
        let first = prophet
            .submit(JobSpec::sweep("pricing").with_priority(Priority::Low))
            .unwrap();
        let second = prophet
            .submit(JobSpec::sweep("pricing").with_priority(Priority::High))
            .unwrap();
        let a = first.wait().unwrap().into_sweep().unwrap();
        let b = second.wait().unwrap().into_sweep().unwrap();
        assert_eq!(a.answers, reference.0.answers, "seed {seed}: first job");
        assert_eq!(a.best, reference.0.best, "seed {seed}: first optimum");
        assert_eq!(b.answers, reference.0.answers, "seed {seed}: second job");
        assert_eq!(b.best, reference.0.best, "seed {seed}: second optimum");
        // Between them the two jobs computed each unique point at most
        // once (the claim protocol): the shared store holds exactly one
        // entry per unique point of a single sweep, never duplicates.
        let unique =
            (reference.0.metrics.points_simulated + reference.0.metrics.points_mapped) as usize;
        assert_eq!(
            prophet.basis_len("pricing").unwrap(),
            unique,
            "seed {seed}: store holds exactly one entry per unique point"
        );
    }
}
