//! Layer replay: a workload's batch sequence re-executed on one thread
//! through the public layer functions, with a span around each call.
//!
//! The service's scheduled pipeline (`run_batch` in `crates/core`) runs
//! each batch as: exact-cache lookup → probe every owned point → one
//! match scan against the store as it stood at batch start → remap the
//! hits and publish them in batch order → simulate the misses and publish
//! them in batch order. Every decision in that pipeline depends only on
//! the store's contents and insertion order, never on threads or timing,
//! so replaying the same batches in the same order over a private store
//! reproduces the real run's work counts exactly — which is what lets the
//! replay's per-call spans stand for the real run's layer times. The
//! traced run fails if the counts or the answer ever differ.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuzzy_prophet::{EngineConfig, EngineMetrics, OptimizeAnswer};
use prophet_data::Value;
use prophet_fingerprint::Fingerprint;
use prophet_mc::guide::{GridGuide, Guide};
use prophet_mc::{BasisHit, ParamPoint, SampleSet, Series, SharedBasisStore};
use prophet_sql::ast::{AggMetric, ObjectiveDirection, OptimizeSpec, OuterAgg, ParameterDecl};
use prophet_sql::executor::{eval_expr, EvalContext};
use prophet_sql::{evaluate_select_columns, to_f64_samples, Script};
use prophet_vg::{Rng64, SeedManager, SeedSequence, VgRegistry};

use crate::report::Digest;
use crate::timed_vg::VgClock;
use crate::workloads::Move;

/// Self time per layer call site, summed over the replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    /// `evaluate_select_columns` on the probe seeds, VG time excluded.
    pub probe_walk: Duration,
    /// VG time inside the probe walks.
    pub probe_vg: Duration,
    /// `Fingerprint::compute_block_with_seeds`.
    pub fingerprint_build: Duration,
    /// `SharedBasisStore::find_correlated_batch_scan`.
    pub match_scan: Duration,
    /// `Mapping::apply_samples` plus recomputing the derived columns.
    pub remap: Duration,
    /// `simulate_point_columnar`, VG time excluded.
    pub simulate: Duration,
    /// VG time inside the simulations.
    pub simulate_vg: Duration,
    /// `SharedBasisStore::insert`.
    pub publish: Duration,
    /// The whole replay, spans and glue.
    pub total: Duration,
}

impl LayerTimes {
    pub fn plus(&self, o: &LayerTimes) -> LayerTimes {
        LayerTimes {
            probe_walk: self.probe_walk + o.probe_walk,
            probe_vg: self.probe_vg + o.probe_vg,
            fingerprint_build: self.fingerprint_build + o.fingerprint_build,
            match_scan: self.match_scan + o.match_scan,
            remap: self.remap + o.remap,
            simulate: self.simulate + o.simulate,
            simulate_vg: self.simulate_vg + o.simulate_vg,
            publish: self.publish + o.publish,
            total: self.total + o.total,
        }
    }
}

/// The work counts the real run's `EngineMetrics` also report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    pub points_cached: u64,
    pub points_mapped: u64,
    pub points_simulated: u64,
    pub worlds_simulated: u64,
    pub candidates_scanned: u64,
    pub probe_walks: u64,
}

impl WorkCounts {
    /// The same counts read off a real run's metrics.
    pub fn of(m: &EngineMetrics) -> WorkCounts {
        WorkCounts {
            points_cached: m.points_cached,
            points_mapped: m.points_mapped,
            points_simulated: m.points_simulated,
            worlds_simulated: m.worlds_simulated,
            candidates_scanned: m.candidates_scanned,
            probe_walks: m.vector_walks,
        }
    }
}

/// One scenario's replay state: the layer inputs the engine derives from
/// its configuration, and a private store.
pub struct Replay<'r> {
    script: Script,
    registry: &'r VgRegistry,
    clock: &'r VgClock,
    config: EngineConfig,
    seeds: SeedManager,
    probe_seeds: SeedSequence,
    worlds: Vec<u64>,
    stochastic: Vec<String>,
    outputs: Vec<String>,
    store: SharedBasisStore,
    pub times: LayerTimes,
    pub counts: WorkCounts,
}

/// Derived columns are deterministic; a draw from this is a replay bug.
struct NoRandomness;

impl Rng64 for NoRandomness {
    fn next_u64(&mut self) -> u64 {
        unreachable!("derived columns must not consume randomness")
    }
}

fn timed<T>(span: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *span += start.elapsed();
    out
}

impl<'r> Replay<'r> {
    /// `registry` must charge `clock` (see [`crate::timed_vg`]) so VG time
    /// can be split out of the SQL and simulation spans.
    pub fn new(
        script: &Script,
        registry: &'r VgRegistry,
        clock: &'r VgClock,
        config: EngineConfig,
    ) -> Self {
        let stochastic = script
            .select
            .items
            .iter()
            .filter(|item| {
                item.expr
                    .referenced_calls()
                    .iter()
                    .any(|(name, _)| registry.get(name).is_ok())
            })
            .map(|item| item.alias.clone())
            .collect();
        Replay {
            script: script.clone(),
            registry,
            clock,
            seeds: SeedManager::new(config.root_seed),
            probe_seeds: SeedSequence::fingerprint_default(config.fingerprint.length),
            worlds: (0..config.worlds_per_point as u64).collect(),
            stochastic,
            outputs: script
                .select
                .items
                .iter()
                .map(|i| i.alias.clone())
                .collect(),
            store: SharedBasisStore::with_shards(config.basis_capacity, config.store_shards),
            config,
            times: LayerTimes::default(),
            counts: WorkCounts::default(),
        }
    }

    fn vg_nanos(&self) -> Duration {
        Duration::from_nanos(self.clock.busy_nanos())
    }

    fn sample_set(&self, point: &ParamPoint, samples: HashMap<String, Vec<f64>>) -> SampleSet {
        SampleSet::from_samples(point.clone(), self.outputs.clone(), samples)
    }

    /// Evaluate one batch exactly as the service's pipeline does, returning
    /// one sample set per input point.
    pub fn batch(&mut self, points: &[ParamPoint]) -> Result<Vec<SampleSet>, String> {
        let start = Instant::now();
        let mut unique: Vec<ParamPoint> = Vec::new();
        let mut index_of: HashMap<&ParamPoint, usize> = HashMap::new();
        let slot_of: Vec<usize> = points
            .iter()
            .map(|p| {
                *index_of.entry(p).or_insert_with(|| {
                    unique.push(p.clone());
                    unique.len() - 1
                })
            })
            .collect();

        let mut results: Vec<Option<SampleSet>> = vec![None; unique.len()];
        let mut owned = Vec::new();
        for (i, point) in unique.iter().enumerate() {
            match self.store.get_exact(point, self.config.worlds_per_point) {
                Some(samples) => {
                    self.counts.points_cached += 1;
                    results[i] = Some(self.sample_set(point, (*samples).clone()));
                }
                None => owned.push(i),
            }
        }

        let mut probes: Vec<Option<HashMap<String, Fingerprint>>> = vec![None; unique.len()];
        let mut to_simulate = Vec::new();
        if self.config.fingerprints_enabled && !self.stochastic.is_empty() && !owned.is_empty() {
            let mut owned_probes = Vec::with_capacity(owned.len());
            for &i in &owned {
                owned_probes.push(self.probe(&unique[i])?);
            }
            let (hits, scan) = timed(&mut self.times.match_scan, || {
                self.store.find_correlated_batch_scan(
                    &owned_probes,
                    &self.stochastic,
                    &self.config.detector,
                    1,
                    self.config.match_index,
                )
            });
            self.counts.candidates_scanned += scan.candidates_scanned;
            for (pos, probe) in owned_probes.into_iter().enumerate() {
                probes[owned[pos]] = Some(probe);
            }
            let mut hit_items: Vec<(usize, BasisHit)> = Vec::new();
            for (pos, hit) in hits.into_iter().enumerate() {
                match hit {
                    Some(hit) => hit_items.push((owned[pos], hit)),
                    None => to_simulate.push(owned[pos]),
                }
            }
            let mut remapped = Vec::with_capacity(hit_items.len());
            for (i, hit) in &hit_items {
                remapped.push(self.remap(&unique[*i], hit)?);
            }
            for ((i, hit), mapped) in hit_items.into_iter().zip(remapped) {
                let fingerprints = probes[i].take().unwrap_or_default();
                let samples = Arc::new(mapped.clone());
                timed(&mut self.times.publish, || {
                    self.store
                        .insert(unique[i].clone(), fingerprints, samples, hit.worlds, false)
                });
                self.counts.points_mapped += 1;
                results[i] = Some(self.sample_set(&unique[i], mapped));
            }
        } else {
            to_simulate = owned;
        }

        let mut simulated = Vec::with_capacity(to_simulate.len());
        for &i in &to_simulate {
            simulated.push(self.simulate(&unique[i])?);
        }
        for (&i, samples) in to_simulate.iter().zip(simulated) {
            let fingerprints = probes[i].take().unwrap_or_default();
            let shared = Arc::new(samples.clone());
            let worlds = self.config.worlds_per_point;
            timed(&mut self.times.publish, || {
                self.store
                    .insert(unique[i].clone(), fingerprints, shared, worlds, true)
            });
            self.counts.points_simulated += 1;
            results[i] = Some(self.sample_set(&unique[i], samples));
        }

        self.times.total += start.elapsed();
        slot_of
            .into_iter()
            .map(|i| {
                results[i]
                    .clone()
                    .ok_or_else(|| "unresolved point".to_owned())
            })
            .collect()
    }

    fn probe(&mut self, point: &ParamPoint) -> Result<HashMap<String, Fingerprint>, String> {
        let params = point.to_value_map();
        let vg_before = self.vg_nanos();
        let start = Instant::now();
        let (columns, _) = evaluate_select_columns(
            &self.script.select,
            self.registry,
            &params,
            self.seeds,
            self.probe_seeds.seeds(),
        )
        .map_err(|e| format!("probe walk at {point}: {e}"))?;
        let mut named = Vec::with_capacity(self.stochastic.len());
        for (name, column) in columns {
            if self.stochastic.contains(&name) {
                named.push((name, to_f64_samples(&column).map_err(|e| e.to_string())?));
            }
        }
        let elapsed = start.elapsed();
        let vg = self.vg_nanos() - vg_before;
        self.times.probe_walk += elapsed.saturating_sub(vg);
        self.times.probe_vg += vg;
        self.counts.probe_walks += 1;
        let probe_seeds = &self.probe_seeds;
        Ok(timed(&mut self.times.fingerprint_build, || {
            named
                .into_iter()
                .map(|(name, values)| {
                    let fingerprint =
                        Fingerprint::compute_block_with_seeds(probe_seeds, |_| values);
                    (name, fingerprint)
                })
                .collect()
        }))
    }

    fn remap(
        &mut self,
        point: &ParamPoint,
        hit: &BasisHit,
    ) -> Result<HashMap<String, Vec<f64>>, String> {
        let start = Instant::now();
        let mut out: HashMap<String, Vec<f64>> = HashMap::with_capacity(self.outputs.len());
        for col in &self.stochastic {
            let source = hit.samples.get(col).ok_or("basis entry lacks a column")?;
            let mapping = hit.mappings.get(col).ok_or("hit lacks a mapping")?;
            out.insert(col.clone(), mapping.apply_samples(source));
        }
        let derived = self
            .script
            .select
            .items
            .iter()
            .any(|i| !self.stochastic.contains(&i.alias));
        if derived {
            let params = point.to_value_map();
            for item in &self.script.select.items {
                if !self.stochastic.contains(&item.alias) {
                    out.insert(item.alias.clone(), Vec::with_capacity(hit.worlds));
                }
            }
            for w in 0..hit.worlds {
                let mut rng = NoRandomness;
                let mut ctx = EvalContext::new(self.registry, &params, &mut rng);
                for item in &self.script.select.items {
                    if self.stochastic.contains(&item.alias) {
                        ctx.bind_alias(&item.alias, Value::Float(out[&item.alias][w]));
                    } else {
                        let v = eval_expr(&item.expr, &mut ctx).map_err(|e| e.to_string())?;
                        let x = match &v {
                            Value::Null => f64::NAN,
                            v => v.as_f64().map_err(|e| e.to_string())?,
                        };
                        ctx.bind_alias(&item.alias, v);
                        if let Some(column) = out.get_mut(&item.alias) {
                            column.push(x);
                        }
                    }
                }
            }
        }
        self.times.remap += start.elapsed();
        Ok(out)
    }

    fn simulate(&mut self, point: &ParamPoint) -> Result<HashMap<String, Vec<f64>>, String> {
        let vg_before = self.vg_nanos();
        let start = Instant::now();
        let (set, _) = prophet_mc::simulate_point_columnar(
            &self.script.select,
            self.registry,
            &self.seeds,
            point,
            &self.worlds,
            self.config.common_random_numbers,
        )
        .map_err(|e| format!("simulate {point}: {e}"))?;
        let samples: HashMap<String, Vec<f64>> = set
            .columns()
            .iter()
            .filter_map(|c| set.samples(c).map(|s| (c.clone(), s.to_vec())))
            .collect();
        let elapsed = start.elapsed();
        let vg = self.vg_nanos() - vg_before;
        self.times.simulate += elapsed.saturating_sub(vg);
        self.times.simulate_vg += vg;
        self.counts.worlds_simulated += self.worlds.len() as u64;
        Ok(samples)
    }
}

// ------------------------------------------------------------ sweep replay

/// The best OPTIMIZE answer and how many groups were feasible.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAnswer {
    pub best: Option<OptimizeAnswer>,
    pub feasible: usize,
}

fn grid(decls: &[ParameterDecl]) -> Vec<ParamPoint> {
    let mut guide = GridGuide::new(decls);
    std::iter::from_fn(|| guide.next_point()).collect()
}

fn outer_aggregate(spec: &OptimizeSpec, sets: &[SampleSet]) -> Result<Vec<f64>, String> {
    spec.constraints
        .iter()
        .map(|c| {
            let mut acc = match c.outer {
                OuterAgg::Max => f64::NEG_INFINITY,
                OuterAgg::Min => f64::INFINITY,
                OuterAgg::Avg => 0.0,
            };
            for set in sets {
                let x = match c.metric {
                    AggMetric::Expect => set.expect(&c.column),
                    AggMetric::ExpectStdDev => set.expect_std_dev(&c.column),
                }
                .ok_or_else(|| format!("no column {}", c.column))?;
                // NaN poisons the aggregate, as in the engine's sweep plan.
                acc = if acc.is_nan() || x.is_nan() {
                    f64::NAN
                } else {
                    match c.outer {
                        OuterAgg::Max => acc.max(x),
                        OuterAgg::Min => acc.min(x),
                        OuterAgg::Avg => acc + x,
                    }
                };
            }
            Ok(match c.outer {
                OuterAgg::Avg if sets.is_empty() => f64::NAN,
                OuterAgg::Avg => acc / sets.len() as f64,
                _ => acc,
            })
        })
        .collect()
}

fn objective_order(spec: &OptimizeSpec, a: &ParamPoint, b: &ParamPoint) -> std::cmp::Ordering {
    for obj in &spec.objectives {
        let va = a.get(&obj.param).unwrap_or(i64::MIN);
        let vb = b.get(&obj.param).unwrap_or(i64::MIN);
        let ord = match obj.direction {
            ObjectiveDirection::Max => vb.cmp(&va),
            ObjectiveDirection::Min => va.cmp(&vb),
        };
        if ord.is_ne() {
            return ord;
        }
    }
    a.cmp(b)
}

/// Replay a whole OPTIMIZE sweep: one batch per group, in the canonical
/// row-major group and axis order.
pub fn replay_sweep(replay: &mut Replay<'_>) -> Result<SweepAnswer, String> {
    let spec = replay
        .script
        .optimize
        .clone()
        .ok_or("scenario lacks OPTIMIZE")?;
    let (group_decls, axis_decls): (Vec<ParameterDecl>, Vec<ParameterDecl>) = replay
        .script
        .params
        .iter()
        .cloned()
        .partition(|p| spec.select_params.contains(&p.name));
    let axis = grid(&axis_decls);
    let mut answers = Vec::new();
    for group in grid(&group_decls) {
        let points: Vec<ParamPoint> = axis
            .iter()
            .map(|a| {
                let mut full = group.clone();
                for (name, value) in a.iter() {
                    full.set(name.to_owned(), value);
                }
                full
            })
            .collect();
        let sets = replay.batch(&points)?;
        let constraint_values = outer_aggregate(&spec, &sets)?;
        let feasible = spec
            .constraints
            .iter()
            .zip(&constraint_values)
            .all(|(c, &v)| v.is_finite() && c.op.test(v.partial_cmp(&c.threshold)));
        answers.push(OptimizeAnswer {
            point: group,
            constraint_values,
            feasible,
        });
    }
    let feasible = answers.iter().filter(|a| a.feasible).count();
    let best = answers
        .into_iter()
        .filter(|a| a.feasible)
        .min_by(|a, b| objective_order(&spec, &a.point, &b.point));
    Ok(SweepAnswer { best, feasible })
}

/// Replay a slider walk: the cold render at every slider's domain minimum,
/// then one 53-week batch per move. Returns the graph digest, folded in
/// the order `workloads::check_graph` folds the real session's graph.
pub fn replay_walk(replay: &mut Replay<'_>, moves: &[Move]) -> Result<Digest, String> {
    let graph = replay.script.graph.clone().ok_or("scenario lacks GRAPH")?;
    let x_values = replay
        .script
        .param(&graph.x_param)
        .ok_or("graph axis is not a parameter")?
        .domain
        .values();
    let mut sliders = ParamPoint::new();
    for p in &replay.script.params {
        if p.name != graph.x_param {
            sliders.set(p.name.clone(), p.domain.values()[0]);
        }
    }
    let mut series: Vec<Series> = graph.series.iter().map(Series::new).collect();
    let mut digest = Digest::default();
    for step in 0..=moves.len() {
        if step > 0 {
            let (name, value) = &moves[step - 1];
            sliders.set(name.clone(), *value);
        }
        let points: Vec<ParamPoint> = x_values
            .iter()
            .map(|&x| sliders.with(graph.x_param.clone(), x))
            .collect();
        let sets = replay.batch(&points)?;
        for (&x, set) in x_values.iter().zip(&sets) {
            for s in &mut series {
                s.update_from(x, set);
            }
        }
        digest.fold(&series);
    }
    Ok(digest)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use fuzzy_prophet::{EngineConfig, JobSpec, OnlineSession, Prophet};
    use prophet_vg::VgRegistry;

    use super::*;
    use crate::timed_vg::timed_registry;

    /// Figure 2 on a small grid (14 weeks × 4 × 4 × 2 = 448 points).
    pub(crate) const SMALL_GRID: &str = "\
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 16;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 16;
DECLARE PARAMETER @feature AS SET (12,36);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current
    EXPECT overload WITH bold red,
    EXPECT capacity WITH blue y2,
    EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.05
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2";

    /// Few worlds and a store small enough to evict during the tests.
    pub(crate) fn small_config() -> EngineConfig {
        EngineConfig {
            worlds_per_point: 64,
            threads: 2,
            basis_capacity: 96,
            ..EngineConfig::default()
        }
    }

    pub(crate) fn small_service(registry: VgRegistry) -> Prophet {
        Prophet::builder()
            .scenario_sql("small", SMALL_GRID)
            .unwrap()
            .registry(registry)
            .config(small_config())
            .build()
            .unwrap()
    }

    fn replay_of<'r>(registry: &'r VgRegistry, clock: &'r VgClock) -> Replay<'r> {
        let script = prophet_sql::parse_script(SMALL_GRID).unwrap();
        Replay::new(&script, registry, clock, small_config())
    }

    #[test]
    fn sweep_replay_equals_submit() {
        let clock = Arc::new(VgClock::default());
        let prophet = small_service(timed_registry(&clock));
        let report = prophet
            .submit(JobSpec::sweep("small"))
            .unwrap()
            .wait()
            .unwrap()
            .into_sweep()
            .unwrap();

        let replay_clock = Arc::new(VgClock::default());
        let registry = timed_registry(&replay_clock);
        let mut replay = replay_of(&registry, &replay_clock);
        let answer = replay_sweep(&mut replay).unwrap();

        assert_eq!(replay.counts, WorkCounts::of(&report.metrics));
        assert!(replay.counts.points_mapped > 0 && replay.counts.points_simulated > 0);
        assert!(report.best.is_some());
        assert_eq!(answer.best, report.best);
        assert_eq!(answer.feasible, report.feasible().count());
        assert!(replay.times.total > Duration::ZERO);
    }

    #[test]
    fn walk_replay_equals_set_param() {
        let moves: Vec<Move> = [
            ("purchase1", 16),
            ("feature", 36),
            ("purchase2", 48),
            ("purchase1", 32),
            ("feature", 12),
            ("purchase2", 0),
            ("purchase1", 16),
        ]
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
        let prophet = small_service(prophet_models::full_registry());
        let mut session: OnlineSession = prophet.online("small").unwrap();
        session.refresh().unwrap();
        let mut digest = Digest::default();
        digest.fold(session.graph());
        for (name, value) in &moves {
            session.set_param(name, *value).unwrap();
            digest.fold(session.graph());
        }

        let clock = Arc::new(VgClock::default());
        let registry = timed_registry(&clock);
        let mut replay = replay_of(&registry, &clock);
        let replayed = replay_walk(&mut replay, &moves).unwrap();

        assert_eq!(replay.counts, WorkCounts::of(&session.metrics()));
        assert!(prophet.basis_stats("small").unwrap().evictions > 0);
        assert_eq!(replayed, digest);
    }
}
