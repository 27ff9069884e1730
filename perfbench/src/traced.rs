//! The traced run: the per-layer metrics.
//!
//! Three measurements per workload, all from outside the program:
//!
//! 1. an untraced reference run (plain registry) for `trace.overhead_frac`
//!    and the reuse-quality line;
//! 2. the real run's instrumented twin through `Prophet::submit` /
//!    `set_param`, with every model behind the timed VG wrapper, plus the
//!    service's own telemetry, flight-recorder ring and store counters;
//! 3. the layer replay ([`crate::replay`]) of the same batch sequence,
//!    whose work counts and answer must equal the real run's exactly.
//!
//! Layer self times come from the replay, VG time from the wrapper inside
//! the real run. `core.residue_ms` is the real run's worker time (threads
//! × wall) not covered by any layer: scheduler and engine glue plus worker
//! idle time at phase barriers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzy_prophet::scenario::FIGURE2_SQL;
use fuzzy_prophet::trace::{TraceEvent, TraceEventKind};
use fuzzy_prophet::{EngineMetrics, Prophet};
use prophet_sql::parse_script;

use crate::replay::{replay_sweep, replay_walk, LayerTimes, Replay, WorkCounts};
use crate::report::{median, percentile, Digest, RunResult};
use crate::timed_vg::{batch_calls, timed_registry, VgClock};
use crate::workloads::{
    check_graph, config, generate_walk, open_figure2_session, run_walk, start_background,
    stop_background, sweep_service, timed_sweep, Opened, Workload, THREADS, WALK_MOVES,
};
use crate::Args;

/// Every per-layer metric, in print order, with its unit. A metric that a
/// workload does not exercise reads 0 (see BENCHMARK.md for which apply).
const PER_LAYER: [(&str, &str); 31] = [
    ("sql.parse_us", "us"),
    ("sql.probe_walk_ms", "ms"),
    ("sql.probe_walks", "count"),
    ("sql.column_fallbacks", "count"),
    ("vg.busy_ms", "ms"),
    ("vg.worlds", "count"),
    ("vg.batch_calls", "count"),
    ("vg.f64_lane_share", "ratio"),
    ("fingerprint.build_ms", "ms"),
    ("fingerprint.remap_ms", "ms"),
    ("fingerprint.mapped_share", "ratio"),
    ("fingerprint.reuse_speedup", "ratio"),
    ("fingerprint.reuse_ideal", "ratio"),
    ("mc.match_scan_ms", "ms"),
    ("mc.candidates_scanned", "count"),
    ("mc.prune_rate", "ratio"),
    ("mc.simulate_ms", "ms"),
    ("mc.worlds_simulated", "count"),
    ("mc.publish_ms", "ms"),
    ("mc.store_hits", "count"),
    ("mc.store_misses", "count"),
    ("mc.evictions", "count"),
    ("mc.inflight_waits", "count"),
    ("core.queue_wait_p95_us.high", "us"),
    ("core.queue_wait_p95_us.low", "us"),
    ("core.chunks", "count"),
    ("core.max_queue_depth", "count"),
    ("core.residue_ms", "ms"),
    ("core.trace_events_dropped", "count"),
    ("core.bg_sweep_pts_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Parses per `sql.parse_us` sample; the metric is their median.
const PARSE_REPS: usize = 51;
/// Untraced/instrumented pairs behind `trace.overhead_frac`.
const OVERHEAD_REPS: usize = 2;

#[derive(Default)]
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn emit(&self, result: &mut RunResult) {
        for (name, unit) in PER_LAYER {
            result.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median time of one `parse_script` over every scenario text `sqls`.
fn parse_us(sqls: &[&str]) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(PARSE_REPS);
    for _ in 0..PARSE_REPS {
        let start = Instant::now();
        for sql in sqls {
            std::hint::black_box(
                parse_script(std::hint::black_box(sql)).map_err(|e| e.to_string())?,
            );
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

/// Numbers read off the instrumented service after its run. `lanes` is
/// `None` for sweep workloads, which submit only Normal-priority jobs, and
/// otherwise names the Low-priority background job, if any.
fn service_layers(
    prophet: &Prophet,
    clock: &VgClock,
    metrics: &EngineMetrics,
    lanes: Option<Option<u64>>,
    layers: &mut Layers,
) {
    let registry = prophet.registry();
    let worlds = registry.total_invocations();
    layers.set("vg.busy_ms", clock.busy_nanos() as f64 / 1e6);
    layers.set("vg.worlds", worlds as f64);
    layers.set("vg.batch_calls", batch_calls(registry) as f64);
    layers.set(
        "vg.f64_lane_share",
        clock.f64_worlds() as f64 / worlds.max(1) as f64,
    );
    layers.set("sql.probe_walks", metrics.vector_walks as f64);
    layers.set("sql.column_fallbacks", metrics.column_fallbacks as f64);
    let non_cached = metrics.points_mapped + metrics.points_simulated;
    layers.set(
        "fingerprint.mapped_share",
        metrics.points_mapped as f64 / non_cached.max(1) as f64,
    );
    layers.set("mc.candidates_scanned", metrics.candidates_scanned as f64);
    let compared = metrics.candidates_scanned + metrics.candidates_pruned;
    layers.set(
        "mc.prune_rate",
        metrics.candidates_pruned as f64 / compared.max(1) as f64,
    );
    layers.set("mc.worlds_simulated", metrics.worlds_simulated as f64);
    let (mut hits, mut misses, mut evictions, mut waits) = (0, 0, 0, 0);
    for (_, s) in prophet.basis_stats_all() {
        hits += s.hits;
        misses += s.misses;
        evictions += s.evictions;
        waits += s.inflight_waits;
    }
    layers.set("mc.store_hits", hits as f64);
    layers.set("mc.store_misses", misses as f64);
    layers.set("mc.evictions", evictions as f64);
    layers.set("mc.inflight_waits", waits as f64);
    let telemetry = prophet.telemetry().trace;
    layers.set("core.chunks", telemetry.chunk_service.count() as f64);
    layers.set("core.max_queue_depth", telemetry.max_queue_depth as f64);
    layers.set("core.trace_events_dropped", telemetry.events_dropped as f64);
    if let Some(low_job) = lanes {
        let (high, low) = queue_waits_us(&prophet.trace_events(), low_job);
        layers.set("core.queue_wait_p95_us.high", percentile(&high, 0.95));
        layers.set("core.queue_wait_p95_us.low", percentile(&low, 0.95));
    }
}

/// Per-chunk queue waits (dequeue − enqueue) from the flight recorder,
/// split into the High lane (every job of a refresh workload but the
/// background sweep) and the Low lane (`low_job`). The recorder's
/// histograms bucket by powers of two; pairing the raw events gives the
/// exact waits.
fn queue_waits_us(events: &[TraceEvent], low_job: Option<u64>) -> (Vec<f64>, Vec<f64>) {
    let mut enqueued: HashMap<(u64, u64), u64> = HashMap::new();
    let (mut high, mut low) = (Vec::new(), Vec::new());
    for e in events {
        match e.kind {
            TraceEventKind::ChunkEnqueue => {
                enqueued.insert((e.job, e.chunk), e.nanos);
            }
            TraceEventKind::ChunkDequeue => {
                if let Some(at) = enqueued.get(&(e.job, e.chunk)) {
                    let wait = e.nanos.saturating_sub(*at) as f64 / 1e3;
                    if Some(e.job) == low_job {
                        low.push(wait);
                    } else {
                        high.push(wait);
                    }
                }
            }
            _ => {}
        }
    }
    (high, low)
}

/// Compare the replay with the real run; any difference fails the run.
fn check_replay(result: &mut RunResult, what: &str, real: &EngineMetrics, replay: WorkCounts) {
    let real = WorkCounts::of(real);
    result.check(real == replay, || {
        format!("{what}: replay counts {replay:?} != real run {real:?}")
    });
}

/// Layer self times (replay) plus VG time (real run) against the real
/// run's worker time; prints the attribution table.
fn attribute(
    result: &mut RunResult,
    layers: &mut Layers,
    times: &LayerTimes,
    vg_busy: Duration,
    wall: Duration,
) {
    let rows = [
        ("sql.probe_walk", times.probe_walk),
        ("vg.busy", vg_busy),
        ("fingerprint.build", times.fingerprint_build),
        ("fingerprint.remap", times.remap),
        ("mc.match_scan", times.match_scan),
        ("mc.simulate", times.simulate),
        ("mc.publish", times.publish),
    ];
    let worker_ms = THREADS as f64 * ms(wall);
    let covered: f64 = rows.iter().map(|(_, d)| ms(*d)).sum();
    let residue = worker_ms - covered;
    layers.set("sql.probe_walk_ms", ms(times.probe_walk));
    layers.set("fingerprint.build_ms", ms(times.fingerprint_build));
    layers.set("fingerprint.remap_ms", ms(times.remap));
    layers.set("mc.match_scan_ms", ms(times.match_scan));
    layers.set("mc.simulate_ms", ms(times.simulate));
    layers.set("mc.publish_ms", ms(times.publish));
    layers.set("core.residue_ms", residue);
    result.note(format!(
        "layer table: {THREADS} workers x {:.1} ms wall = {worker_ms:.1} ms worker time",
        ms(wall)
    ));
    for (name, d) in rows {
        result.note(format!(
            "  {name:<20} {:>10.1} ms {:>6.1}%",
            ms(d),
            100.0 * ms(d) / worker_ms
        ));
    }
    result.note(format!(
        "  {:<20} {residue:>10.1} ms {:>6.1}%",
        "core.residue",
        100.0 * residue / worker_ms
    ));
    result.note(format!(
        "  (replay on one thread: {:.1} ms, of which VG {:.1} ms)",
        ms(times.total),
        ms(times.probe_vg + times.simulate_vg)
    ));
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut layers = Layers::default();
    match args.workload {
        Workload::SweepReuse | Workload::SweepSim => {
            traced_sweeps(args.workload, &mut result, &mut layers)?
        }
        Workload::RefreshWalk | Workload::RefreshUnderSweep => {
            traced_walk(args, &mut result, &mut layers)?
        }
    }
    layers.emit(&mut result);
    Ok(result)
}

fn traced_sweeps(
    workload: Workload,
    result: &mut RunResult,
    layers: &mut Layers,
) -> Result<(), String> {
    let cases = workload.sweeps();
    let sqls: Vec<&str> = cases.iter().map(|c| c.sql.as_str()).collect();
    layers.set("sql.parse_us", parse_us(&sqls)?);
    let mut group_ms = Vec::new();
    // Every sweep of `cases` on one fresh service, answers checked.
    let mut sweep_all = |registry, fingerprints: bool, result: &mut RunResult| {
        let prophet = sweep_service(&cases, registry, fingerprints)?;
        let mut wall = Duration::ZERO;
        let mut reports = Vec::new();
        for case in &cases {
            let (report, elapsed) = timed_sweep(&prophet, case, &mut group_ms)?;
            result.check(case.answer_ok(&report), || {
                format!("{} (fingerprints {fingerprints}): wrong answer", case.name)
            });
            wall += elapsed;
            reports.push(report);
        }
        Ok::<_, String>((prophet, wall, reports))
    };
    let merged = |reports: &[fuzzy_prophet::OfflineReport]| {
        let mut total = EngineMetrics::default();
        for r in reports {
            total.merge(&r.metrics);
        }
        total
    };

    // Untraced and instrumented runs alternate so neither side always
    // pays the process's first-run costs; the layer numbers come from the
    // last instrumented run.
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut on = EngineMetrics::default();
    let mut last = None;
    for _ in 0..OVERHEAD_REPS {
        let (_, wall, reports) = sweep_all(None, true, result)?;
        untraced += wall;
        on = merged(&reports);
        let clock = Arc::new(VgClock::default());
        let (prophet, wall, reports) = sweep_all(Some(timed_registry(&clock)), true, result)?;
        traced += wall;
        last = Some((prophet, clock, wall, reports));
    }
    let (prophet, clock, wall, reports) = last.ok_or("no instrumented run")?;
    service_layers(&prophet, &clock, &merged(&reports), None, layers);
    // Reuse off: the pinned answers re-derived by direct simulation.
    let (_, reuse_off, off_reports) = sweep_all(None, false, result)?;
    let off_worlds = merged(&off_reports).worlds_simulated;

    // The replay, scenario by scenario.
    let replay_clock = Arc::new(VgClock::default());
    let replay_registry = timed_registry(&replay_clock);
    let mut times = LayerTimes::default();
    for (case, report) in cases.iter().zip(&reports) {
        let script = parse_script(&case.sql).map_err(|e| e.to_string())?;
        let mut replay = Replay::new(&script, &replay_registry, &replay_clock, config(true));
        let answer = replay_sweep(&mut replay)?;
        check_replay(result, case.name, &report.metrics, replay.counts);
        let feasible = report.feasible().count();
        result.check(
            answer.best == report.best && answer.feasible == feasible,
            || {
                format!(
                    "{}: replay answer {:?} ({} feasible) != real {:?} ({feasible} feasible)",
                    case.name, answer.best, answer.feasible, report.best
                )
            },
        );
        times = times.plus(&replay.times);
    }
    attribute(
        result,
        layers,
        &times,
        Duration::from_nanos(clock.busy_nanos()),
        wall,
    );

    let reuse_on = untraced / OVERHEAD_REPS as u32;
    let speedup = reuse_off.as_secs_f64() / reuse_on.as_secs_f64();
    let ideal = off_worlds as f64 / (on.probe_evaluations + on.worlds_simulated).max(1) as f64;
    layers.set("fingerprint.reuse_speedup", speedup);
    layers.set("fingerprint.reuse_ideal", ideal);
    layers.set(
        "trace.overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    result.note(format!(
        "reuse quality: wall {:.0} ms off / {:.0} ms on = {speedup:.2}x; ideal by worlds \
         {off_worlds} / ({} probe + {} simulated) = {ideal:.2}x",
        ms(reuse_off),
        ms(reuse_on),
        on.probe_evaluations,
        on.worlds_simulated
    ));
    Ok(())
}

fn traced_walk(args: &Args, result: &mut RunResult, layers: &mut Layers) -> Result<(), String> {
    layers.set("sql.parse_us", parse_us(&[FIGURE2_SQL])?);
    let walk = generate_walk(args.seed, 0, WALK_MOVES)?;
    let background = args.workload == Workload::RefreshUnderSweep;

    // One walk on a fresh service: returns the walk's wall time (cold
    // render included), its graph digest, the session's metrics (plus the
    // background sweep's) and the background sweep's rate. With a clock,
    // the service's layer numbers are read too.
    let mut walk_once = |opened: Opened, clock: Option<&VgClock>| -> Result<_, String> {
        let Opened {
            prophet,
            mut session,
            cold,
            ..
        } = opened;
        let mut digest = Digest::default();
        let rendered = check_graph(&session, &mut digest);
        result.check(rendered.is_ok(), || {
            format!("cold render: {}", rendered.unwrap_err())
        });
        let bg = if background {
            Some((start_background(&prophet)?, Instant::now()))
        } else {
            None
        };
        let mut latency_ms = Vec::new();
        run_walk(&mut session, &walk, &mut latency_ms, result, &mut digest);
        let wall = cold + Duration::from_secs_f64(latency_ms.iter().sum::<f64>() / 1e3);
        let mut metrics = session.metrics();
        let mut low_job = None;
        let mut bg_rate = 0.0;
        if let Some((handle, since)) = bg {
            let progress = handle.progress();
            bg_rate = progress.points_done as f64 / since.elapsed().as_secs_f64();
            metrics.merge(&progress.metrics);
            low_job = Some(handle.id());
            let stopped = stop_background(handle);
            result.check(stopped.is_ok(), || stopped.unwrap_err());
        }
        if let Some(clock) = clock {
            service_layers(&prophet, clock, &metrics, Some(low_job), layers);
        }
        Ok((wall, digest, metrics, bg_rate))
    };

    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut last = None;
    for _ in 0..OVERHEAD_REPS {
        let (wall, plain_digest, _, bg_rate) = walk_once(open_figure2_session(None)?, None)?;
        untraced += wall;
        let clock = Arc::new(VgClock::default());
        let opened = open_figure2_session(Some(timed_registry(&clock)))?;
        let (wall, digest, metrics, _) = walk_once(opened, Some(&clock))?;
        traced += wall;
        last = Some((clock, wall, plain_digest, digest, metrics, bg_rate));
    }
    let (clock, wall, plain_digest, digest, metrics, bg_rate) =
        last.ok_or("no instrumented run")?;
    layers.set(
        "trace.overhead_frac",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
    if background {
        layers.set("core.bg_sweep_pts_per_s", bg_rate);
        result.note("refresh_under_sweep depends on timing: no replay, no layer table");
        return Ok(());
    }
    result.check(digest == plain_digest, || {
        format!(
            "traced digest {:016x} != untraced {:016x}",
            digest.0, plain_digest.0
        )
    });

    let script = parse_script(FIGURE2_SQL).map_err(|e| e.to_string())?;
    let replay_clock = Arc::new(VgClock::default());
    let replay_registry = timed_registry(&replay_clock);
    let mut replay = Replay::new(&script, &replay_registry, &replay_clock, config(true));
    let replayed = replay_walk(&mut replay, &walk)?;
    check_replay(result, "refresh walk", &metrics, replay.counts);
    result.check(replayed == digest, || {
        format!(
            "replay digest {:016x} != real {:016x}",
            replayed.0, digest.0
        )
    });
    result.note(format!("refresh_walk graph digest {:016x}", digest.0));
    attribute(
        result,
        layers,
        &replay.times,
        Duration::from_nanos(clock.busy_nanos()),
        wall,
    );
    Ok(())
}
