//! Tier differential suite: the typed columnar block tier is *defined* by
//! bit-identity with the scalar executor (the reference oracle), and this
//! file is the contract's enforcement.
//!
//! Coverage:
//!
//! * every bundled scenario (Figure 2 plus the four example scenarios),
//!   asserting bit-identical fingerprints *and* estimation samples across
//!   [`ExecTier::Columnar`] and [`ExecTier::Scalar`] engines walking the
//!   same evaluation sequence — and that the columnar tier never falls
//!   back to boxed values on any of them;
//! * a seeded property loop at the SQL layer over random world-block
//!   sizes — 1, 2, the fingerprint length `L`, and non-multiples of `L` —
//!   asserting per-world equality between one columnar block walk and
//!   per-world scalar walks;
//! * a second seeded property loop over *random expressions* — NULL
//!   literals, conditional VG calls inside CASE arms, three-valued
//!   AND/OR/NOT, CASE masks with and without ELSE, block sizes that are
//!   not multiples of the SIMD lane width — asserting bit-identical
//!   outputs and VG invocation accounting across both tiers; each round
//!   also feeds the remap walk random derived items over a pre-bound
//!   stochastic column of edge values (NaN, ±∞, −0.0, ±1e308), held to the
//!   per-world scalar re-derivation;
//! * thread-count independence of the columnar tier (samples and work
//!   counters of one batch job equal under `threads: 1` and `threads: 8`,
//!   both equal to the scalar tier at `threads: 1` on a one-worker pool).

use std::collections::HashMap;

use fuzzy_prophet::prelude::*;
use prophet_data::Value;
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_models::{demo_registry, full_registry};
use prophet_sql::columnar::{evaluate_derived_columns, evaluate_select_columns, Column};
use prophet_sql::executor::{eval_expr, evaluate_select_with, EvalContext, WorldRng};
use prophet_sql::parser::parse_script;
use prophet_sql::NullMask;
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::SeedManager;

/// The five bundled scenarios with a registry factory and a few probe
/// points spread across each parameter space.
fn bundled_scenarios() -> Vec<(&'static str, Scenario, VgRegistryKind, Vec<ParamPoint>)> {
    vec![
        (
            "figure2",
            Scenario::figure2().unwrap(),
            VgRegistryKind::Demo,
            vec![
                ParamPoint::from_pairs([
                    ("current", 5i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 5i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 36),
                ]),
                ParamPoint::from_pairs([
                    ("current", 50i64),
                    ("purchase1", 0),
                    ("purchase2", 4),
                    ("feature", 44),
                ]),
            ],
        ),
        (
            "figure2-coarse",
            Scenario::parse(&figure2_coarse_sql(0.05)).unwrap(),
            VgRegistryKind::Demo,
            vec![
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 8),
                    ("purchase2", 24),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 8),
                    ("purchase2", 24),
                    ("feature", 36),
                ]),
            ],
        ),
        (
            "inventory",
            Scenario::parse(INVENTORY_POLICY).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 200),
                    ("reorder_qty", 300),
                ]),
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 240),
                    ("reorder_qty", 300),
                ]),
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 200),
                    ("reorder_qty", 400),
                ]),
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 360),
                    ("reorder_qty", 400),
                ]),
            ],
        ),
        (
            "pricing",
            Scenario::parse(PRICING_WHATIF).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([("week", 24i64), ("price", 20)]),
                ParamPoint::from_pairs([("week", 24i64), ("price", 22)]),
            ],
        ),
        (
            "staffing",
            Scenario::parse(SUPPORT_STAFFING).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([("week", 24i64), ("agents", 10)]),
                ParamPoint::from_pairs([("week", 24i64), ("agents", 11)]),
                ParamPoint::from_pairs([("week", 0i64), ("agents", 10)]),
                ParamPoint::from_pairs([("week", 0i64), ("agents", 16)]),
            ],
        ),
    ]
}

enum VgRegistryKind {
    Demo,
    Full,
}

impl VgRegistryKind {
    fn build(&self) -> prophet_vg::VgRegistry {
        match self {
            VgRegistryKind::Demo => demo_registry(),
            VgRegistryKind::Full => full_registry(),
        }
    }
}

/// One engine per execution tier, identical otherwise.
fn engine_pair(scenario: &Scenario, kind: &VgRegistryKind) -> [Engine; 2] {
    let config = EngineConfig {
        worlds_per_point: 48,
        ..EngineConfig::default()
    };
    TIERS.map(|tier| Engine::new(scenario, kind.build(), EngineConfig { tier, ..config }).unwrap())
}

/// Tier order used throughout: columnar first (the default), then the
/// scalar reference.
const TIERS: [ExecTier; 2] = [ExecTier::Columnar, ExecTier::Scalar];

/// Every bundled scenario: same outcomes, bit-identical samples, and the
/// same store contents (the stored fingerprints drove identical matching)
/// across the columnar and scalar tiers — and the columnar tier
/// stays fully typed (`column_fallbacks == 0`) on all five. Each scenario
/// maps at least one point, so the remap walk that re-derives a mapped
/// point's derived columns is held to the scalar remap here too.
#[test]
fn all_bundled_scenarios_are_bit_identical_across_tiers() {
    for (name, scenario, kind, points) in bundled_scenarios() {
        let [columnar, scalar] = engine_pair(&scenario, &kind);
        let columns = columnar.output_columns();
        assert!(
            columns.len() > columnar.stochastic_columns().len(),
            "[{name}] has a derived column to re-derive"
        );
        for point in &points {
            let (sc, oc) = columnar.evaluate(point).unwrap();
            let (ss, os) = scalar.evaluate(point).unwrap();
            assert_eq!(oc, os, "[{name}] columnar outcome at {point}");
            for col in &columns {
                assert_eq!(
                    sc.samples(col),
                    ss.samples(col),
                    "[{name}] columnar column `{col}` at {point}"
                );
            }
        }
        let mc = columnar.metrics();
        let ms = scalar.metrics();
        assert_eq!(
            mc.probe_evaluations, ms.probe_evaluations,
            "[{name}] logical probe accounting must not depend on the tier"
        );
        assert_eq!(mc.points_simulated, ms.points_simulated, "[{name}]");
        assert_eq!(mc.worlds_simulated, ms.worlds_simulated, "[{name}]");
        assert!(mc.points_mapped > 0, "[{name}] exercises the remap step");
        assert!(
            mc.vector_walks > 0 && ms.vector_walks == 0,
            "[{name}] only the columnar tier block-walks"
        );
        assert!(
            mc.columnar_kernels > 0,
            "[{name}] the columnar engine ran typed kernels"
        );
        assert_eq!(
            mc.column_fallbacks, 0,
            "[{name}] every bundled scenario is fully typed — no boxed fallbacks"
        );
        assert_eq!(ms.columnar_kernels, 0, "[{name}]");
    }
}

/// Fingerprints are probed under the canonical seed block: force both
/// tiers through a *miss* (distinct stores) and compare what each
/// published to its basis store for matching.
#[test]
fn probed_fingerprints_are_bit_identical() {
    for (name, scenario, kind, points) in bundled_scenarios() {
        let [columnar, scalar] = engine_pair(&scenario, &kind);
        let point = &points[0];
        columnar.evaluate(point).unwrap();
        scalar.evaluate(point).unwrap();
        // The engines now map *from* the published entries: if the
        // stored fingerprints differed at all, matching (which compares
        // probe columns entry-by-entry) would disagree somewhere across
        // the remaining points.
        for p in &points[1..] {
            let (cs, co) = columnar.evaluate(p).unwrap();
            let (ss, so) = scalar.evaluate(p).unwrap();
            assert_eq!(co, so, "[{name}] columnar mapping decision at {p}");
            for col in columnar.output_columns() {
                assert_eq!(cs.samples(&col), ss.samples(&col), "[{name}] {col} at {p}");
            }
        }
    }
}

/// SQL-layer property loop: for random parameter points and random block
/// sizes (1, 2, the fingerprint length L, and non-multiples of L), one
/// columnar block walk equals per-world scalar walks bit for bit.
#[test]
fn random_world_blocks_match_scalar_walks() {
    let scenario = Scenario::figure2().unwrap();
    let select = &scenario.script().select;
    let registry = demo_registry();
    let fp_len = FingerprintLen::default().0;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB10C_5EED);

    // Deterministic seeded loop (the repo's proptest substitute).
    for round in 0..24 {
        let block_len = match round % 6 {
            0 => 1,
            1 => 2,
            2 => fp_len,                             // L
            3 => fp_len + 3,                         // non-multiple of L
            4 => 2 * fp_len - 1,                     // spans >1 "L block"
            _ => 1 + (rng.next_u64() % 97) as usize, // arbitrary
        };
        let worlds: Vec<u64> = (0..block_len).map(|_| rng.next_u64() >> 1).collect();
        let params: HashMap<String, Value> = HashMap::from([
            ("current".into(), Value::Int((rng.next_u64() % 53) as i64)),
            ("purchase1".into(), Value::Int((rng.next_u64() % 53) as i64)),
            ("purchase2".into(), Value::Int((rng.next_u64() % 53) as i64)),
            ("feature".into(), Value::Int(12)),
        ]);
        let seeds = SeedManager::new(rng.next_u64());

        let (typed, _) =
            evaluate_select_columns(select, &registry, &params, seeds, &worlds).unwrap();
        for (slot, &world) in worlds.iter().enumerate() {
            let row =
                evaluate_select_with(select, &registry, &params, WorldRng::per_call(seeds, world))
                    .unwrap();
            for ((typed_alias, typed_column), (scalar_alias, scalar_value)) in
                typed.iter().zip(&row)
            {
                assert_eq!(typed_alias, scalar_alias);
                assert!(
                    bit_eq(&typed_column.value_at(slot), scalar_value),
                    "round {round}, block_len {block_len}, world {world}, typed column {typed_alias}"
                );
            }
        }
    }
}

/// Bit-level `Value` equality: floats compare by representation so a NaN
/// lane (possible under generated expressions) still counts as equal to
/// itself across tiers.
fn bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Wrapper so the test reads "fingerprint length L" without reaching into
/// engine internals.
struct FingerprintLen(usize);

impl Default for FingerprintLen {
    fn default() -> Self {
        FingerprintLen(EngineConfig::default().fingerprint.length)
    }
}

/// The columnar tier must stay thread-count independent: same samples, same
/// work counters under 1 and 8 threads, all bit-identical to a
/// single-threaded scalar engine (the acceptance bar for the typed tier).
#[test]
fn block_tiers_are_thread_count_independent() {
    let scenario = Scenario::figure2().unwrap();
    let points: Vec<ParamPoint> = (0..6)
        .map(|i| {
            ParamPoint::from_pairs([
                ("current", 4 * i as i64),
                ("purchase1", 16),
                ("purchase2", 36),
                ("feature", 12),
            ])
        })
        .collect();
    // One batch job on a fresh service: results plus the job's counters.
    let run = |tier: ExecTier, threads: usize, workers: usize| {
        let handle = Prophet::builder()
            .scenario("figure2", scenario.clone())
            .registry(demo_registry())
            .config(EngineConfig {
                worlds_per_point: 64,
                threads,
                tier,
                ..EngineConfig::default()
            })
            .scheduler(SchedulerConfig {
                workers,
                ..SchedulerConfig::default()
            })
            .build()
            .unwrap()
            .submit(JobSpec::points("figure2", points.clone()))
            .unwrap();
        let mut results = Vec::new();
        for event in handle.events() {
            if let JobEvent::Final(output) = event {
                results = output.into_points().unwrap();
            }
        }
        (results, handle.progress().metrics)
    };
    let columns: Vec<&String> = scenario
        .script()
        .select
        .items
        .iter()
        .map(|it| &it.alias)
        .collect();
    let (expected, reference) = run(ExecTier::Scalar, 1, 1);
    for threads in [1usize, 8] {
        let (got, metrics) = run(ExecTier::Columnar, threads, 0);
        for (i, ((sa, oa), (sb, ob))) in expected.iter().zip(&got).enumerate() {
            assert_eq!(oa, ob, "columnar x{threads} point #{i}");
            for col in &columns {
                assert_eq!(
                    sa.samples(col),
                    sb.samples(col),
                    "columnar x{threads} point #{i} {col}"
                );
            }
        }
        assert_eq!(
            metrics.worlds_simulated, reference.worlds_simulated,
            "columnar x{threads}"
        );
        assert_eq!(
            metrics.probe_evaluations, reference.probe_evaluations,
            "columnar x{threads}"
        );
    }
}

/// The columnar tier's logical VG accounting matches the scalar tier's: a
/// batched call of `n` worlds counts `n` invocations in the catalog.
#[test]
fn vg_invocation_accounting_is_tier_independent() {
    let scenario = Scenario::figure2().unwrap();
    let point = ParamPoint::from_pairs([
        ("current", 10i64),
        ("purchase1", 16),
        ("purchase2", 36),
        ("feature", 12),
    ]);
    let run = |tier: ExecTier| {
        let registry = demo_registry();
        let engine = Engine::new(
            &scenario,
            registry,
            EngineConfig {
                worlds_per_point: 32,
                tier,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.evaluate(&point).unwrap();
        let reg = engine.registry();
        (
            reg.stats("DemandModel").unwrap(),
            reg.stats("CapacityModel").unwrap(),
        )
    };
    let (cd, cc) = run(ExecTier::Columnar);
    let (sd, sc) = run(ExecTier::Scalar);
    assert_eq!(cd.invocations, sd.invocations, "DemandModel logical count");
    assert_eq!(
        cc.invocations, sc.invocations,
        "CapacityModel logical count"
    );
    assert!(cd.batched_calls > 0, "columnar tier used the batch path");
    assert_eq!(sd.batched_calls, 0, "scalar tier never batches");
}

/// Deterministic random-expression generator for the cross-tier property
/// loop. Produces numeric select items mixing NULL literals, parameters,
/// integer/float literals, arithmetic (including `/` and `%`, whose
/// zero-divisor lanes go NULL), `CASE` masks with and without `ELSE`,
/// three-valued AND/OR/NOT conditions, and conditionally-reached VG calls
/// (`Normal`/`Poisson`/`Triangular` — always with valid, non-NULL
/// arguments, since distribution parameters reject NULL by contract).
/// With `columns` set, leaves may also read those aliases.
struct ExprGen {
    rng: Xoshiro256StarStar,
    vg_budget: u32,
    vg_emitted: u32,
    columns: Vec<String>,
}

impl ExprGen {
    fn roll(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn vg_call(&mut self) -> String {
        self.vg_budget -= 1;
        self.vg_emitted += 1;
        match self.roll(3) {
            0 => "Normal(@a, 2.5)".into(),
            1 => "Poisson(6.5)".into(),
            _ => "Triangular(0.0, 2.0, 10.0)".into(),
        }
    }

    fn numeric(&mut self, depth: u32) -> String {
        if depth == 0 || self.roll(100) < 25 {
            if !self.columns.is_empty() && self.roll(3) == 0 {
                let pick = self.roll(self.columns.len() as u64) as usize;
                return self.columns[pick].clone();
            }
            return match self.roll(6) {
                0 => format!("{}", self.roll(2001) as i64 - 1000),
                1 => format!("{}.5", self.roll(40)),
                2 => "@a".into(),
                3 => "@b".into(),
                4 => "NULL".into(),
                _ => format!("{}", self.roll(7)),
            };
        }
        if self.vg_budget > 0 && self.roll(100) < 25 {
            return self.vg_call();
        }
        if self.roll(100) < 35 {
            let cond = self.boolean(depth - 1);
            let then = self.numeric(depth - 1);
            return if self.roll(2) == 0 {
                let els = self.numeric(depth - 1);
                format!("CASE WHEN {cond} THEN {then} ELSE {els} END")
            } else {
                // No ELSE: unmatched lanes are NULL.
                format!("CASE WHEN {cond} THEN {then} END")
            };
        }
        let op = ["+", "-", "*", "/", "%"][self.roll(5) as usize];
        let lhs = self.numeric(depth - 1);
        let rhs = self.numeric(depth - 1);
        format!("({lhs} {op} {rhs})")
    }

    fn boolean(&mut self, depth: u32) -> String {
        if depth == 0 || self.roll(100) < 45 {
            let op = ["<", "<=", ">", ">=", "=", "<>"][self.roll(6) as usize];
            let lhs = self.numeric(0);
            let rhs = self.numeric(0);
            return format!("{lhs} {op} {rhs}");
        }
        match self.roll(3) {
            0 => format!(
                "({} AND {})",
                self.boolean(depth - 1),
                self.boolean(depth - 1)
            ),
            1 => format!(
                "({} OR {})",
                self.boolean(depth - 1),
                self.boolean(depth - 1)
            ),
            _ => format!("NOT ({})", self.boolean(depth - 1)),
        }
    }
}

/// Seeded property loop over random expressions: typed columnar and
/// per-world scalar evaluation must agree bit for bit — values
/// (NaN lanes included), NULL placement, and per-function VG invocation
/// accounting — across block sizes that are deliberately not multiples of
/// any SIMD lane width.
#[test]
fn random_expressions_are_bit_identical_across_tiers() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC01_FACE);
    let mut total_vg_calls = 0u32;
    for round in 0..40u32 {
        let mut gen = ExprGen {
            rng: Xoshiro256StarStar::seed_from_u64(rng.next_u64()),
            vg_budget: 4,
            vg_emitted: 0,
            columns: Vec::new(),
        };
        let n_cols = 1 + gen.roll(3);
        let items: Vec<String> = (0..n_cols)
            .map(|i| format!("{} AS c{i}", gen.numeric(3)))
            .collect();
        let src = format!(
            "DECLARE PARAMETER @a AS SET (0);\nDECLARE PARAMETER @b AS SET (0);\n\
             SELECT {} INTO out;",
            items.join(", ")
        );
        let script = parse_script(&src).unwrap();
        total_vg_calls += gen.vg_emitted;

        let block_len = [1usize, 2, 7, 9, 16, 31, 33, 100][(round % 8) as usize];
        let worlds: Vec<u64> = (0..block_len).map(|_| rng.next_u64() >> 1).collect();
        let params: HashMap<String, Value> = HashMap::from([
            ("a".into(), Value::Int((rng.next_u64() % 91) as i64 - 45)),
            ("b".into(), Value::Int((rng.next_u64() % 13) as i64)),
        ]);
        let seeds = SeedManager::new(rng.next_u64());

        // One fresh registry per tier so invocation stats stay separable.
        let (reg_c, reg_s) = (full_registry(), full_registry());
        let (typed, _) =
            evaluate_select_columns(&script.select, &reg_c, &params, seeds, &worlds).unwrap();
        for (slot, &world) in worlds.iter().enumerate() {
            let row = evaluate_select_with(
                &script.select,
                &reg_s,
                &params,
                WorldRng::per_call(seeds, world),
            )
            .unwrap();
            for ((alias, column), (_, scalar_value)) in typed.iter().zip(&row) {
                let typed_value = column.value_at(slot);
                assert!(
                    bit_eq(&typed_value, scalar_value),
                    "round {round} `{src}` world {world} column {alias}: \
                     typed {typed_value:?} != scalar {scalar_value:?}"
                );
            }
        }
        for dist in ["Normal", "Poisson", "Triangular"] {
            let (c, s) = (reg_c.stats(dist).unwrap(), reg_s.stats(dist).unwrap());
            assert_eq!(
                c.invocations, s.invocations,
                "round {round} `{src}`: columnar {dist} logical count"
            );
            assert_eq!(s.batched_calls, 0, "scalar walks never batch");
        }
        assert_remap_matches_scalar(round, block_len, &params);
    }
    assert!(
        total_vg_calls > 20,
        "the generator must actually exercise VG calls (got {total_vg_calls})"
    );
}

/// A non-drawing RNG for the scalar remap oracle: derived items never
/// consume randomness.
struct NoDraws;

impl Rng64 for NoDraws {
    fn next_u64(&mut self) -> u64 {
        panic!("a derived item drew randomness")
    }
}

/// The remap input of the random-expression loop: a stochastic item `s`
/// comes in bound with edge-value samples (NaN, ±∞, −0.0, ±1e308), and
/// random deterministic items reading `s` and each other are re-derived by
/// one block walk (`evaluate_derived_columns`) and, as the oracle, world by
/// world with `s` bound as `Value::Float` (the engine's scalar remap).
fn assert_remap_matches_scalar(round: u32, lanes: usize, params: &HashMap<String, Value>) {
    const EDGES: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e308,
        -1e308,
        0.0,
        3.0,
        -2.5,
    ];
    let mut gen = ExprGen {
        rng: Xoshiro256StarStar::seed_from_u64(0x5EED_0000 + u64::from(round)),
        vg_budget: 0,
        vg_emitted: 0,
        columns: vec!["s".into()],
    };
    let mut items = vec!["Normal(@a, 2.5) AS s".to_string()];
    for i in 0..1 + gen.roll(3) {
        items.push(format!("{} AS d{i}", gen.numeric(3)));
        gen.columns.push(format!("d{i}"));
    }
    let src = format!(
        "DECLARE PARAMETER @a AS SET (0);\nDECLARE PARAMETER @b AS SET (0);\n\
         SELECT {} INTO out;",
        items.join(", ")
    );
    let script = parse_script(&src).unwrap();
    let samples: Vec<f64> = (0..lanes)
        .map(|lane| match gen.roll(3) {
            0 => gen.roll(2001) as f64 / 8.0 - 125.0,
            _ => EDGES[lane % EDGES.len()],
        })
        .collect();
    let bound = Column::F64 {
        nulls: NullMask::none(lanes),
        data: samples.clone(),
    };
    let (derived, _) =
        evaluate_derived_columns(&script.select, params, vec![("s".into(), bound)], lanes).unwrap();
    assert_eq!(derived.len(), script.select.items.len() - 1, "`{src}`");
    let registry = full_registry();
    for (lane, &x) in samples.iter().enumerate() {
        let mut rng = NoDraws;
        let mut ctx = EvalContext::new(&registry, params, &mut rng);
        ctx.bind_alias("s", Value::Float(x));
        for (item, (alias, column)) in script.select.items[1..].iter().zip(&derived) {
            assert_eq!(&item.alias, alias);
            let want = eval_expr(&item.expr, &mut ctx).unwrap();
            let got = column.value_at(lane);
            assert!(
                bit_eq(&got, &want),
                "round {round} `{src}` lane {lane} (s = {x:?}) column {alias}: \
                 block {got:?} != scalar {want:?}"
            );
            ctx.bind_alias(alias, want);
        }
    }
}
