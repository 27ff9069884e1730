//! The four workloads, the service configuration they share, the answer
//! gate, and the untraced run that produces the end-to-end metrics.

use std::time::{Duration, Instant};

use fuzzy_prophet::scenario::FIGURE2_SQL;
use fuzzy_prophet::{
    EngineConfig, JobEvent, JobSpec, OfflineReport, OnlineSession, Priority, Prophet, ProphetError,
    Scenario,
};
use prophet_mc::ParamPoint;
use prophet_models::scenarios::{figure2_coarse_sql, INVENTORY_POLICY, SUPPORT_STAFFING};
use prophet_sql::ast::AggMetric;
use prophet_vg::VgRegistry;

use crate::report::{median, peak_rss_mb, percentile, samples_beyond, Digest, RunResult};
use crate::Args;

/// Worker threads: the host this benchmark was defined on has two cores,
/// and the service runs everything in one process on at most two workers.
pub const THREADS: usize = 2;
/// The paper's Monte Carlo worlds per parameter point.
pub const WORLDS: usize = 400;
/// Slider moves in one generated walk (one session). Long enough that the
/// walk's distinct settings (× 53 weeks) outgrow `basis_capacity` (8,192),
/// so store eviction is exercised, and that one walk alone leaves more
/// than ten latency samples beyond p95; short enough that the background
/// sweep of `refresh_under_sweep` never finishes before the walk does.
pub const WALK_MOVES: usize = 300;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS_SWEEP: usize = 101;
const SETUP_REPS_REFRESH: usize = 9;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The coarse Figure-2 OPTIMIZE sweep (3,969 points, L = 32) on a fresh
    /// service each time. Nearly every point is mapped, so probe walk, VG
    /// sampling at the probe seeds, fingerprint build and match scan do
    /// almost all the work: every reuse-path optimisation shows here.
    SweepReuse,
    /// Back-to-back INVENTORY_POLICY and SUPPORT_STAFFING sweeps (468
    /// points), most of which miss and simulate all 400 worlds.
    /// Simulation and VG sampling dominate and probing is overhead, so a
    /// reuse-path change should barely move it — and one that makes
    /// probes dearer shows here.
    SweepSim,
    /// One closed-loop user on the full Figure-2 session walking the
    /// `purchase1` / `purchase2` / `feature` sliders; every move is a
    /// 53-week High-priority refresh. Small, latency-bound batches mixing
    /// store hits, mappings and a few misses, walking far enough to reach
    /// store eviction.
    RefreshWalk,
    /// The same walk while a Low-priority full Figure-2 sweep (31,164
    /// points) writes into the same scenario's store, cancelled when the
    /// walk ends. The only mix in which High chunks must overtake Low ones
    /// and store reads share it with a concurrent writer, so it alone
    /// measures queue waits and in-flight waits.
    RefreshUnderSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepReuse,
        Workload::SweepSim,
        Workload::RefreshWalk,
        Workload::RefreshUnderSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepReuse => "sweep_reuse",
            Workload::SweepSim => "sweep_sim",
            Workload::RefreshWalk => "refresh_walk",
            Workload::RefreshUnderSweep => "refresh_under_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The OPTIMIZE sweeps one iteration of a sweep workload runs, in order.
    pub fn sweeps(self) -> Vec<SweepCase> {
        match self {
            Workload::SweepReuse => vec![SweepCase::figure2_coarse()],
            Workload::SweepSim => vec![SweepCase::inventory(), SweepCase::staffing()],
            Workload::RefreshWalk | Workload::RefreshUnderSweep => Vec::new(),
        }
    }
}

/// The service configuration every workload runs: the default columnar
/// tier and store, 400 worlds, two threads.
pub fn config(fingerprints_enabled: bool) -> EngineConfig {
    EngineConfig {
        worlds_per_point: WORLDS,
        threads: THREADS,
        fingerprints_enabled,
        ..EngineConfig::default()
    }
}

/// Parse and register `scenarios`, then build the service. `registry`
/// `None` keeps the service default (`full_registry()`).
pub fn build_service(
    scenarios: &[(&str, &str)],
    registry: Option<VgRegistry>,
    fingerprints_enabled: bool,
) -> Result<Prophet, String> {
    let mut builder = Prophet::builder().config(config(fingerprints_enabled));
    for (name, sql) in scenarios {
        let scenario = Scenario::parse(sql).map_err(|e| format!("parse {name}: {e}"))?;
        builder = builder.scenario(*name, scenario);
    }
    if let Some(registry) = registry {
        builder = builder.registry(registry);
    }
    builder.build().map_err(|e| format!("build: {e}"))
}

/// One OPTIMIZE sweep with its pinned answer.
#[derive(Debug, Clone)]
pub struct SweepCase {
    pub name: &'static str,
    pub sql: String,
    pub expected: Vec<(&'static str, i64)>,
}

impl SweepCase {
    pub fn figure2_coarse() -> SweepCase {
        SweepCase {
            name: "figure2_coarse",
            sql: figure2_coarse_sql(0.05),
            expected: vec![("feature", 36), ("purchase1", 32), ("purchase2", 0)],
        }
    }

    pub fn inventory() -> SweepCase {
        SweepCase {
            name: "inventory",
            sql: INVENTORY_POLICY.to_owned(),
            expected: vec![("reorder_point", 200), ("reorder_qty", 200)],
        }
    }

    pub fn staffing() -> SweepCase {
        SweepCase {
            name: "staffing",
            sql: SUPPORT_STAFFING.to_owned(),
            expected: vec![("agents", 15)],
        }
    }

    pub fn expected_point(&self) -> ParamPoint {
        ParamPoint::from_pairs(self.expected.iter().copied())
    }

    /// Whether a sweep's best answer is the pinned one.
    pub fn answer_ok(&self, report: &OfflineReport) -> bool {
        report.best.as_ref().map(|b| &b.point) == Some(&self.expected_point())
    }
}

/// Services for one iteration of a sweep workload: every sweep scenario
/// registered under its case name.
pub fn sweep_service(
    cases: &[SweepCase],
    registry: Option<VgRegistry>,
    fingerprints_enabled: bool,
) -> Result<Prophet, String> {
    let scenarios: Vec<(&str, &str)> = cases.iter().map(|c| (c.name, c.sql.as_str())).collect();
    build_service(&scenarios, registry, fingerprints_enabled)
}

/// Submit one sweep and stream it to completion. Each OPTIMIZE group's
/// results arrive as one burst of chunk events; the gap between bursts is
/// the latency of one group batch as a streaming client sees it, pushed
/// onto `group_ms`. Returns the report and the submit→final wall time.
pub fn timed_sweep(
    prophet: &Prophet,
    case: &SweepCase,
    group_ms: &mut Vec<f64>,
) -> Result<(OfflineReport, Duration), String> {
    let select: Vec<String> = prophet
        .scenario(case.name)
        .map_err(|e| e.to_string())?
        .script()
        .optimize
        .as_ref()
        .ok_or("sweep scenario lacks OPTIMIZE")?
        .select_params
        .clone();
    let select: Vec<&str> = select.iter().map(String::as_str).collect();
    let start = Instant::now();
    let handle = prophet
        .submit(JobSpec::sweep(case.name))
        .map_err(|e| format!("submit {}: {e}", case.name))?;
    let mut last_burst = start;
    let mut last_group: Option<ParamPoint> = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                let now = Instant::now();
                let Some((point, _)) = update.results.first() else {
                    continue;
                };
                let group = point.restrict(&select);
                if last_group.as_ref() != Some(&group) {
                    group_ms.push(now.duration_since(last_burst).as_secs_f64() * 1e3);
                    last_burst = now;
                    last_group = Some(group);
                }
            }
            JobEvent::Final(output) => {
                let wall = start.elapsed();
                let report = output.into_sweep().map_err(|e| e.to_string())?;
                return Ok((report, wall));
            }
            JobEvent::Cancelled => return Err(format!("sweep {} cancelled", case.name)),
            JobEvent::Failed(e) => return Err(format!("sweep {} failed: {e}", case.name)),
        }
    }
    Err(format!("sweep {} ended without a final event", case.name))
}

// ------------------------------------------------------------ slider walks

/// A generated slider move: `(slider, value)`.
pub type Move = (String, i64);

/// SplitMix64: the walk generator is defined here, not borrowed from the
/// engine, so a change to the engine's generators cannot change the walk.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The seeded slider walk on the full Figure-2 scenario: each move picks
/// one of `purchase1`, `purchase2`, `feature`; a purchase slider either
/// steps one notch (half the time, reflecting at the ends) or jumps to a
/// uniformly chosen other value, `feature` jumps to another release week.
/// Every move changes the slider's value. The service receives only these
/// moves. Walk `index` of a seed is drawn from the seed's `index`-th
/// output, so the walks of one run are independent of each other.
pub fn generate_walk(seed: u64, index: usize, moves: usize) -> Result<Vec<Move>, String> {
    let scenario = Scenario::parse(FIGURE2_SQL).map_err(|e| e.to_string())?;
    let domains: Vec<(String, Vec<i64>)> = ["purchase1", "purchase2", "feature"]
        .iter()
        .map(|name| {
            scenario
                .script()
                .param(name)
                .map(|d| (d.name.clone(), d.domain.values()))
                .ok_or_else(|| format!("Figure 2 lacks @{name}"))
        })
        .collect::<Result<_, _>>()?;
    let mut current: Vec<usize> = vec![0; domains.len()];
    let mut rng = SplitMix(seed);
    for _ in 0..=index {
        rng = SplitMix(rng.next());
    }
    let mut walk = Vec::with_capacity(moves);
    for _ in 0..moves {
        let slider = rng.below(domains.len());
        let (name, values) = &domains[slider];
        let n = values.len();
        let at = current[slider];
        let next = if name != "feature" && rng.below(2) == 0 {
            match (at, rng.below(2)) {
                (0, _) => 1,
                (i, _) if i + 1 == n => i - 1,
                (i, 0) => i - 1,
                (i, _) => i + 1,
            }
        } else {
            (at + 1 + rng.below(n - 1)) % n
        };
        current[slider] = next;
        walk.push((name.clone(), values[next]));
    }
    Ok(walk)
}

/// A freshly opened Figure-2 session with its cold graph rendered.
pub struct Opened {
    pub prophet: Prophet,
    pub session: OnlineSession,
    /// Parse + build + `online()` + the cold render: the refresh set-up.
    pub setup: Duration,
    /// The cold render alone.
    pub cold: Duration,
}

/// Parse and build a Figure-2 service, open a session and render its cold
/// graph.
pub fn open_figure2_session(registry: Option<VgRegistry>) -> Result<Opened, String> {
    let start = Instant::now();
    let prophet = build_service(&[("figure2", FIGURE2_SQL)], registry, true)?;
    let mut session = prophet.online("figure2").map_err(|e| e.to_string())?;
    let render = Instant::now();
    session.refresh().map_err(|e| format!("cold render: {e}"))?;
    let cold = render.elapsed();
    Ok(Opened {
        prophet,
        session,
        setup: start.elapsed(),
        cold,
    })
}

/// Check one rendered graph and fold it into `digest`: every series holds
/// all 53 weeks with finite values, and E[overload] lies in [0, 1].
pub fn check_graph(session: &OnlineSession, digest: &mut Digest) -> Result<(), String> {
    for series in session.graph() {
        if series.points.len() != 53 {
            return Err(format!(
                "series {} has {} weeks, expected 53",
                series.column,
                series.points.len()
            ));
        }
        let probability = series.column == "overload" && series.metric == AggMetric::Expect;
        for p in &series.points {
            if !p.y.is_finite() || (probability && !(0.0..=1.0).contains(&p.y)) {
                return Err(format!(
                    "series {} week {} has value {}",
                    series.column, p.x, p.y
                ));
            }
        }
    }
    digest.fold(session.graph());
    Ok(())
}

/// Walk `moves` on `session`, timing each `set_param` into `latency_ms`,
/// checking every rendered graph and folding it into `digest`.
pub fn run_walk(
    session: &mut OnlineSession,
    moves: &[Move],
    latency_ms: &mut Vec<f64>,
    result: &mut RunResult,
    digest: &mut Digest,
) {
    for (slider, value) in moves {
        let start = Instant::now();
        let report = session.set_param(slider, *value);
        let elapsed = start.elapsed();
        let outcome = report.map_err(|e| e.to_string()).and_then(|r| {
            let served = r.weeks_simulated + r.weeks_mapped + r.weeks_cached;
            if r.weeks_total != 53 || served != 53 {
                return Err(format!(
                    "refresh served {served} of {} weeks",
                    r.weeks_total
                ));
            }
            check_graph(session, digest)
        });
        let ok = outcome.is_ok();
        result.check(ok, || {
            format!("set_param({slider}, {value}): {}", outcome.unwrap_err())
        });
        if ok {
            latency_ms.push(elapsed.as_secs_f64() * 1e3);
        }
    }
}

/// Cancel a background sweep and wait for it to stop; it must end
/// cancelled (or, had it outrun the walk, finished).
pub fn stop_background(handle: fuzzy_prophet::JobHandle) -> Result<(), String> {
    handle.cancel();
    match handle.wait() {
        Ok(_) | Err(ProphetError::JobCancelled) => Ok(()),
        Err(e) => Err(format!("background sweep failed: {e}")),
    }
}

/// Submit the Low-priority full Figure-2 sweep that `refresh_under_sweep`
/// runs behind the walk.
pub fn start_background(prophet: &Prophet) -> Result<fuzzy_prophet::JobHandle, String> {
    prophet
        .submit(JobSpec::sweep("figure2").with_priority(Priority::Low))
        .map_err(|e| format!("background sweep: {e}"))
}

// ------------------------------------------------------------ untraced run

/// The untraced run: every end-to-end metric, tracing off.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let budget = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut batch_ms = Vec::new();
    let mut points_per_s = Vec::new();
    // Read after the first iteration: later iterations build fresh
    // services whose worker threads may allocate from other malloc arenas,
    // so the process high-water mark after them measures allocator
    // retention more than the workload's memory.
    let mut peak_rss = 0.0;
    match args.workload {
        Workload::SweepReuse | Workload::SweepSim => {
            let cases = args.workload.sweeps();
            for _ in 0..SETUP_REPS_SWEEP {
                let start = Instant::now();
                let service = sweep_service(&cases, None, true)?;
                setup_s.push(start.elapsed().as_secs_f64());
                drop(service);
            }
            let start = Instant::now();
            let mut iterations = 0;
            while iterations == 0 || start.elapsed() < budget {
                let prophet = sweep_service(&cases, None, true)?;
                let mut points = 0;
                let mut wall = Duration::ZERO;
                for case in &cases {
                    match timed_sweep(&prophet, case, &mut batch_ms) {
                        Ok((report, elapsed)) => {
                            let expected = prophet
                                .scenario(case.name)
                                .map_err(|e| e.to_string())?
                                .parameter_space_size()
                                as u64;
                            let evaluated = report.metrics.points_total();
                            result.check(case.answer_ok(&report) && evaluated == expected, || {
                                format!(
                                    "{}: best {:?} over {evaluated}/{expected} points",
                                    case.name,
                                    report.best.as_ref().map(|b| b.point.to_string())
                                )
                            });
                            points += evaluated;
                            wall += elapsed;
                        }
                        Err(e) => result.check(false, || e),
                    }
                }
                points_per_s.push(points as f64 / wall.as_secs_f64().max(1e-9));
                drop(prophet);
                if iterations == 0 {
                    peak_rss = peak_rss_mb()?;
                }
                iterations += 1;
            }
            result.note(format!(
                "{}: {iterations} iterations of {} sweep(s); {} group batches; points/s per iteration {:.0?}",
                args.workload.name(),
                cases.len(),
                batch_ms.len(),
                points_per_s
            ));
        }
        Workload::RefreshWalk | Workload::RefreshUnderSweep => {
            for _ in 0..SETUP_REPS_REFRESH {
                setup_s.push(open_figure2_session(None)?.setup.as_secs_f64());
            }
            let background = args.workload == Workload::RefreshUnderSweep;
            let mut first_digest = None;
            let mut bg_rates = Vec::new();
            let mut walk_secs = 0.0;
            let mut walks = 0;
            let start = Instant::now();
            // A fresh session per walk, each walk its own draw from the
            // seed, until the time is up: the run averages over several
            // walks, so its figures depend little on which walks the seed
            // drew.
            while walks == 0 || start.elapsed() < budget {
                let walk = generate_walk(args.seed, walks, WALK_MOVES)?;
                let Opened {
                    prophet,
                    mut session,
                    setup,
                    ..
                } = open_figure2_session(None)?;
                setup_s.push(setup.as_secs_f64());
                let mut digest = Digest::default();
                let cold = check_graph(&session, &mut digest);
                result.check(cold.is_ok(), || {
                    format!("cold render: {}", cold.unwrap_err())
                });
                let bg = if background {
                    Some((start_background(&prophet)?, Instant::now()))
                } else {
                    None
                };
                let before = batch_ms.len();
                run_walk(&mut session, &walk, &mut batch_ms, &mut result, &mut digest);
                walk_secs += batch_ms[before..].iter().sum::<f64>() / 1e3;
                if let Some((handle, since)) = bg {
                    let done = handle.progress().points_done;
                    bg_rates.push(done as f64 / since.elapsed().as_secs_f64());
                    let stopped = stop_background(handle);
                    result.check(stopped.is_ok(), || stopped.unwrap_err());
                }
                first_digest.get_or_insert(digest);
                drop(prophet);
                if walks == 0 {
                    peak_rss = peak_rss_mb()?;
                }
                walks += 1;
            }
            let moves = batch_ms.len();
            points_per_s.push(53.0 * moves as f64 / walk_secs.max(1e-9));
            result.note(format!(
                "{}: {walks} walk(s) of {WALK_MOVES} moves, seed {}; {moves} refresh samples, {} beyond p95",
                args.workload.name(),
                args.seed,
                samples_beyond(moves, 0.95)
            ));
            if let (Workload::RefreshWalk, Some(digest)) = (args.workload, first_digest) {
                result.note(format!("refresh_walk graph digest {:016x}", digest.0));
            }
            if background {
                result.note(format!(
                    "bg_sweep_pts_per_s (median of {}) {:.1}",
                    bg_rates.len(),
                    median(&bg_rates)
                ));
            }
        }
    }
    result.metric("points_per_s", median(&points_per_s), "1/s");
    result.metric("batch_p50_ms", percentile(&batch_ms, 0.5), "ms");
    result.metric("batch_p95_ms", percentile(&batch_ms, 0.95), "ms");
    result.metric("setup_s", median(&setup_s), "s");
    result.metric("peak_rss_mb", peak_rss, "MB");
    Ok(result)
}
