//! Typed columnar evaluation of the scenario SELECT: the block execution
//! tier (see `docs/VECTORIZATION.md` for the two-tier story).
//!
//! The scalar tier in [`crate::executor`] evaluates the SELECT once per
//! possible world, but fingerprint probing and Monte Carlo estimation
//! always evaluate the *same* query, under the *same* parameter valuation,
//! for a whole block of worlds (the canonical fingerprint seeds, or a
//! point's estimation worlds). This tier walks the AST once for the entire
//! block and carries a typed column per expression node — a [`Column`] is
//! a `Vec<f64>` / `Vec<i64>` / `Vec<bool>` plus a [`NullMask`] — lowering
//! each node to a straight-line kernel from [`crate::column`] over those
//! buffers: a length-`L` fingerprint probe costs one walk instead of `L`.
//! Mixed or string data drops to the [`Column::Boxed`] representation and
//! per-value evaluation for that node ([`ColumnarStats::fallbacks`]
//! counts how often), then re-sniffs back to a typed buffer so one odd
//! node does not unbox the rest of the walk.
//!
//! Two entry points share one select-item loop:
//!
//! * [`evaluate_select_columns`] walks the whole SELECT for a block of
//!   worlds — fingerprint probes and Monte Carlo simulation;
//! * [`evaluate_derived_columns`] is the remap walk: a mapped point's
//!   stochastic columns come in pre-bound, and only the deterministic
//!   items (Figure 2's `CASE WHEN capacity < demand …`) are re-derived,
//!   in one walk over all of the point's worlds, against an empty VG
//!   catalog so the walk cannot draw randomness.
//!
//! ## Bit-identity contract
//!
//! This tier is *defined* by bit-identity with the scalar walker: for
//! every world `w` of the block, lane `w` of every select item is what
//! [`evaluate_select_with`] produces for `w` alone under
//! [`WorldRng::PerCall`] — same outputs, same VG substream derivation
//! `(world, function, call index)`, same error classes and messages.
//! Three details make that hold:
//!
//! * **Per-world call counters.** The scalar tier's call index counts the
//!   VG calls *that world actually executed*, so the block walk keeps one
//!   counter per world slot and bumps only the worlds reaching a call
//!   site.
//! * **Selection vectors.** `CASE` arms and `AND`/`OR` right-hand sides
//!   are evaluated only for the worlds whose control flow reaches them,
//!   exactly as the per-world walk would.
//! * **Left-to-right alias scoping.** Select items evaluate in declaration
//!   order and later items see earlier aliases as whole columns.
//!
//! Two further consequences shape the kernels:
//!
//! * integer arithmetic must detect overflow, because the scalar tier
//!   promotes exactly the overflowing lane to float — the whole node then
//!   re-runs through per-value promotion (`apply_binop`);
//! * `Int`-vs-`Int` comparisons widen through `f64` (with its precision
//!   loss above 2^53) because `Value::sql_cmp` does.
//!
//! ## NULL lives in the mask
//!
//! Inside this tier SQL NULL is *only* ever mask state; data lanes of
//! NULL slots are meaningless (zeroed or stale) and never read. A NaN in
//! a valid data lane is a genuine sample, distinct from NULL, until
//! [`to_f64_samples`] — the tier's single NULL↔NaN conversion point.
//!
//! VG calls go through [`VgRegistry::invoke_batch_columnar`]: models with
//! an `invoke_batch_f64` lane fill a `Vec<f64>` directly (no per-world
//! boxing at all); models without one fall back to boxed scalars, which
//! counts as a column fallback.
//!
//! [`evaluate_select_with`]: crate::executor::evaluate_select_with
//! [`WorldRng::PerCall`]: crate::executor::WorldRng

use std::borrow::Cow;
use std::collections::HashMap;

use prophet_data::Value;
use prophet_vg::{BatchSamples, SeedManager, VgCallF64, VgRegistry};

use crate::ast::{BinOp, Expr, SelectInto};
use crate::column::{
    add_f64, add_i64, cmp_bool, cmp_f64, div_f64, div_i64, mask_to_nan, mul_f64, mul_i64, neg_f64,
    neg_i64, not_bool, rem_f64, rem_i64, sub_f64, sub_i64, truth_f64, truth_i64, widen_bool,
    widen_i64, NullMask,
};
use crate::error::{SqlError, SqlResult};
use crate::executor::scalar_builtin;

/// One block-length column in the typed tier.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Float lanes + null mask.
    F64 {
        /// Data lanes (meaningless where masked).
        data: Vec<f64>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Integer lanes + null mask.
    I64 {
        /// Data lanes (zero where masked).
        data: Vec<i64>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Boolean lanes + null mask.
    Bool {
        /// Data lanes (false where masked).
        data: Vec<bool>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Every lane is SQL NULL (untyped; `CASE` with no ELSE, literal NULL).
    Null(usize),
    /// Mixed or string data: the boxed fallback representation.
    Boxed(Vec<Value>),
}

impl Column {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            Column::F64 { data, .. } => data.len(),
            Column::I64 { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Null(len) => *len,
            Column::Boxed(values) => values.len(),
        }
    }

    /// True when the column has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct lane `i` as a boxed value (NULL from the mask).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::F64 { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            Column::I64 { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            Column::Bool { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            Column::Null(_) => Value::Null,
            Column::Boxed(values) => values[i].clone(),
        }
    }

    /// Reconstruct the whole column as boxed values.
    pub fn to_values(&self) -> Vec<Value> {
        match self {
            Column::Boxed(values) => values.clone(),
            _ => (0..self.len()).map(|i| self.value_at(i)).collect(),
        }
    }

    /// Sniff a boxed column back into the tightest typed representation:
    /// uniformly `Int`-or-NULL lanes become [`Column::I64`], and so on;
    /// anything mixed or stringly stays boxed.
    pub fn from_values(values: Vec<Value>) -> Column {
        let (mut ints, mut floats, mut bools, mut all_null) = (true, true, true, true);
        for v in &values {
            match v {
                Value::Null => {}
                Value::Int(_) => (floats, bools, all_null) = (false, false, false),
                Value::Float(_) => (ints, bools, all_null) = (false, false, false),
                Value::Bool(_) => (ints, floats, all_null) = (false, false, false),
                _ => (ints, floats, bools, all_null) = (false, false, false, false),
            }
        }
        if all_null {
            return Column::Null(values.len());
        }
        let mut nulls = NullMask::none(values.len());
        if ints {
            let mut data = vec![0i64; values.len()];
            for (i, v) in values.iter().enumerate() {
                match v {
                    Value::Int(x) => data[i] = *x,
                    _ => nulls.set_null(i),
                }
            }
            Column::I64 { data, nulls }
        } else if floats {
            let mut data = vec![0.0f64; values.len()];
            for (i, v) in values.iter().enumerate() {
                match v {
                    Value::Float(x) => data[i] = *x,
                    _ => nulls.set_null(i),
                }
            }
            Column::F64 { data, nulls }
        } else if bools {
            let mut data = vec![false; values.len()];
            for (i, v) in values.iter().enumerate() {
                match v {
                    Value::Bool(x) => data[i] = *x,
                    _ => nulls.set_null(i),
                }
            }
            Column::Bool { data, nulls }
        } else {
            Column::Boxed(values)
        }
    }

    /// Select lanes `idx` into a new column (`out[k] = self[idx[k]]`).
    fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::F64 { data, nulls } => Column::F64 {
                data: idx.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(idx),
            },
            Column::I64 { data, nulls } => Column::I64 {
                data: idx.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(idx),
            },
            Column::Bool { data, nulls } => Column::Bool {
                data: idx.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(idx),
            },
            Column::Null(_) => Column::Null(idx.len()),
            Column::Boxed(values) => {
                Column::Boxed(idx.iter().map(|&i| values[i].clone()).collect())
            }
        }
    }

    /// The single value every lane holds, if the column is constant over
    /// the block (floats compared by bit pattern, so a constant NaN still
    /// counts). VG argument columns are usually constant — one parameter
    /// valuation per block — letting the call site share one parameter
    /// row instead of materializing a row per world.
    fn const_value(&self) -> Option<Value> {
        if self.is_empty() {
            return None;
        }
        match self {
            Column::F64 { data, nulls } => {
                let first = data[0].to_bits();
                (!nulls.any() && data.iter().all(|x| x.to_bits() == first))
                    .then(|| Value::Float(data[0]))
            }
            Column::I64 { data, nulls } => {
                (!nulls.any() && data.iter().all(|&x| x == data[0])).then(|| Value::Int(data[0]))
            }
            Column::Bool { data, nulls } => {
                (!nulls.any() && data.iter().all(|&x| x == data[0])).then(|| Value::Bool(data[0]))
            }
            Column::Null(_) => Some(Value::Null),
            Column::Boxed(values) => {
                let bit_eq = |a: &Value, b: &Value| match (a, b) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => a == b,
                };
                values
                    .iter()
                    .all(|v| bit_eq(v, &values[0]))
                    .then(|| values[0].clone())
            }
        }
    }
}

/// Kernel-vs-fallback accounting for one columnar walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Expression nodes computed by a typed kernel.
    pub kernels: u64,
    /// Expression nodes routed through per-value (boxed) evaluation.
    pub fallbacks: u64,
}

/// Evaluate the scenario SELECT for a block of worlds through the typed
/// columnar tier, returning one `(alias, column)` pair per select item in
/// declaration order plus the walk's kernel/fallback accounting.
///
/// `worlds[i]` is the world id of slot `i`, every column has
/// `worlds.len()` lanes, and lane `i` is bit-identical to a scalar walk of
/// world `worlds[i]` under per-call substream derivation
/// ([`WorldRng::per_call`](crate::executor::WorldRng::per_call)).
pub fn evaluate_select_columns(
    select: &SelectInto,
    registry: &VgRegistry,
    params: &HashMap<String, Value>,
    seeds: SeedManager,
    worlds: &[u64],
) -> SqlResult<(Vec<(String, Column)>, ColumnarStats)> {
    let mut ctx = ColumnContext {
        registry,
        params,
        seeds,
        worlds,
        counters: vec![0; worlds.len()],
        aliases: HashMap::new(),
        stats: ColumnarStats::default(),
    };
    let out = eval_select_items(select, &mut ctx, worlds.len(), Vec::new())?;
    Ok((out, ctx.stats))
}

/// Re-derive the deterministic select items of a block whose stochastic
/// items are already known — the remap walk of the fingerprint cycle.
///
/// `bound` holds one block-length column per pre-bound alias (the mapped
/// stochastic samples, bound as [`Column::F64`] with an all-valid mask so a
/// NaN sample stays a valid NaN lane). Items whose alias is bound are not
/// evaluated: each binding becomes visible at its item's declaration
/// position, exactly as if the item had produced it. Every other item is
/// evaluated in declaration order over `lanes` lanes, and only those are
/// returned, `(alias, column)` in declaration order.
///
/// The walk cannot draw randomness: items are evaluated against an empty
/// VG catalog, so a VG call in an unbound item resolves as an (unknown)
/// scalar builtin and fails with a typed error instead of sampling.
pub fn evaluate_derived_columns(
    select: &SelectInto,
    params: &HashMap<String, Value>,
    bound: Vec<(String, Column)>,
    lanes: usize,
) -> SqlResult<(Vec<(String, Column)>, ColumnarStats)> {
    if let Some((alias, column)) = bound.iter().find(|(_, column)| column.len() != lanes) {
        return Err(SqlError::Eval(format!(
            "bound column `{alias}` has {} lanes, expected {lanes}",
            column.len()
        )));
    }
    let no_vg = VgRegistry::new();
    let mut ctx = ColumnContext {
        registry: &no_vg,
        params,
        // Never consulted: with no catalog entries no call site reaches
        // the VG path that derives substreams from seeds and world ids.
        seeds: SeedManager::new(0),
        worlds: &[],
        counters: Vec::new(),
        aliases: HashMap::new(),
        stats: ColumnarStats::default(),
    };
    let out = eval_select_items(select, &mut ctx, lanes, bound)?;
    Ok((out, ctx.stats))
}

/// The block tier's one select-item loop: walk the items in declaration
/// order, binding each item's alias for the items after it. An item whose
/// alias appears in `bound` takes that column instead of being evaluated
/// and is left out of the returned list.
fn eval_select_items(
    select: &SelectInto,
    ctx: &mut ColumnContext<'_>,
    lanes: usize,
    mut bound: Vec<(String, Column)>,
) -> SqlResult<Vec<(String, Column)>> {
    let everything: Vec<usize> = (0..lanes).collect();
    let mut out = Vec::with_capacity(select.items.len().saturating_sub(bound.len()));
    for item in &select.items {
        if let Some(pos) = bound.iter().position(|(alias, _)| *alias == item.alias) {
            let (alias, column) = bound.swap_remove(pos);
            ctx.aliases.insert(alias, column);
            continue;
        }
        let column = eval_col(&item.expr, ctx, &everything)?;
        ctx.aliases.insert(item.alias.clone(), column.clone());
        out.push((item.alias.clone(), column));
    }
    Ok(out)
}

/// Convert one typed column to the `f64` sample representation of the
/// estimation layers (fingerprint probes, Monte Carlo sample sets).
///
/// **This is the typed tier's single NULL↔NaN conversion point.** Inside
/// the tier, SQL NULL lives exclusively in the null mask: a NaN in the
/// data lanes of a *valid* slot is a genuine VG-produced sample and must
/// not be conflated with NULL — the two behave differently under
/// comparisons (`NULL = NULL` is NULL, `NaN = NaN` is false) and under
/// `CASE` masking. Only here, where the sample encoding represents both
/// as NaN (matching the scalar tier's per-value conversion), do they
/// collapse.
pub fn to_f64_samples(column: &Column) -> SqlResult<Vec<f64>> {
    match column {
        Column::F64 { data, nulls } => {
            let mut out = data.clone();
            mask_to_nan(&mut out, nulls);
            Ok(out)
        }
        Column::I64 { data, nulls } => {
            let mut out = widen_i64(data);
            mask_to_nan(&mut out, nulls);
            Ok(out)
        }
        Column::Bool { data, nulls } => {
            let mut out = widen_bool(data);
            mask_to_nan(&mut out, nulls);
            Ok(out)
        }
        Column::Null(len) => Ok(vec![f64::NAN; *len]),
        Column::Boxed(values) => column_to_f64(values),
    }
}

/// Convert boxed values to `f64` samples: `NULL` becomes `NaN`, everything
/// else goes through [`Value::as_f64`]. The [`Column::Boxed`] lane of
/// [`to_f64_samples`].
fn column_to_f64(column: &[Value]) -> SqlResult<Vec<f64>> {
    column
        .iter()
        .map(|v| match v {
            Value::Null => Ok(f64::NAN),
            v => v.as_f64().map_err(SqlError::from),
        })
        .collect()
}

/// Apply one non-logical binary operator to a single operand pair with the
/// scalar tier's exact semantics (NULL absorption, int→float promotion,
/// NULL-propagating comparisons): the per-value fallback path, so both
/// tiers report identical values and identical error messages.
fn apply_binop(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    Ok(match op {
        BinOp::Add => l.add(r)?,
        BinOp::Sub => l.sub(r)?,
        BinOp::Mul => l.mul(r)?,
        BinOp::Div => l.div(r)?,
        BinOp::Rem => l.rem(r)?,
        BinOp::Cmp(c) => {
            if l.is_null() || r.is_null() {
                Value::Null
            } else {
                Value::Bool(c.test(l.sql_cmp(r)?))
            }
        }
        BinOp::And | BinOp::Or => unreachable!("logical operators use the three-valued path"),
    })
}

/// Evaluation state for one columnar walk: per-slot VG call counters (the
/// scalar tier's `WorldRng::PerCall` counter, one per world) and the
/// columns of select items already evaluated.
struct ColumnContext<'a> {
    registry: &'a VgRegistry,
    params: &'a HashMap<String, Value>,
    seeds: SeedManager,
    worlds: &'a [u64],
    counters: Vec<u64>,
    aliases: HashMap<String, Column>,
    stats: ColumnarStats,
}

/// Broadcast one scalar to a block-length column.
fn broadcast(v: &Value, len: usize) -> Column {
    match v {
        Value::Null => Column::Null(len),
        Value::Int(x) => Column::I64 {
            data: vec![*x; len],
            nulls: NullMask::none(len),
        },
        Value::Float(x) => Column::F64 {
            data: vec![*x; len],
            nulls: NullMask::none(len),
        },
        Value::Bool(x) => Column::Bool {
            data: vec![*x; len],
            nulls: NullMask::none(len),
        },
        other => Column::Boxed(vec![other.clone(); len]),
    }
}

/// Evaluate `expr` for the world slots in `sel`, returning a column with
/// one lane per selected slot (`lane k` belongs to slot `sel[k]`).
fn eval_col(expr: &Expr, ctx: &mut ColumnContext<'_>, sel: &[usize]) -> SqlResult<Column> {
    match expr {
        Expr::Literal(v) => Ok(broadcast(v, sel.len())),
        Expr::Param(name) => {
            let v = ctx
                .params
                .get(name)
                .ok_or_else(|| SqlError::Eval(format!("unbound parameter @{name}")))?;
            Ok(broadcast(v, sel.len()))
        }
        Expr::Column(name) => {
            let column = ctx
                .aliases
                .get(name)
                .ok_or_else(|| SqlError::Eval(format!("unknown column or alias `{name}`")))?;
            Ok(column.gather(sel))
        }
        Expr::Neg(e) => {
            let c = eval_col(e, ctx, sel)?;
            neg_col(c, ctx)
        }
        Expr::Not(e) => {
            let c = eval_col(e, ctx, sel)?;
            not_col(c, ctx)
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => eval_logical_col(*op, lhs, rhs, ctx, sel),
            _ => {
                let l = eval_col(lhs, ctx, sel)?;
                let r = eval_col(rhs, ctx, sel)?;
                apply_binop_col(*op, &l, &r, ctx)
            }
        },
        Expr::Case { whens, otherwise } => eval_case_col(whens, otherwise.as_deref(), ctx, sel),
        Expr::Call { name, args } => {
            let mut arg_columns = Vec::with_capacity(args.len());
            for a in args {
                arg_columns.push(eval_col(a, ctx, sel)?);
            }
            call_function_col(name, &arg_columns, ctx, sel)
        }
    }
}

/// Per-value evaluation of one unary node, re-sniffed to a typed column.
fn fallback_unary(
    c: &Column,
    ctx: &mut ColumnContext<'_>,
    f: impl Fn(&Value) -> SqlResult<Value>,
) -> SqlResult<Column> {
    ctx.stats.fallbacks += 1;
    let values: SqlResult<Vec<Value>> = c.to_values().iter().map(f).collect();
    Ok(Column::from_values(values?))
}

fn neg_col(c: Column, ctx: &mut ColumnContext<'_>) -> SqlResult<Column> {
    match c {
        Column::F64 { data, nulls } => {
            ctx.stats.kernels += 1;
            Ok(Column::F64 {
                data: neg_f64(&data),
                nulls,
            })
        }
        Column::I64 { data, nulls } => {
            ctx.stats.kernels += 1;
            Ok(Column::I64 {
                data: neg_i64(&data, &nulls),
                nulls,
            })
        }
        Column::Null(len) => {
            ctx.stats.kernels += 1;
            Ok(Column::Null(len))
        }
        other => fallback_unary(&other, ctx, |v| v.neg().map_err(SqlError::from)),
    }
}

fn not_col(c: Column, ctx: &mut ColumnContext<'_>) -> SqlResult<Column> {
    match c {
        Column::F64 { data, nulls } => {
            ctx.stats.kernels += 1;
            Ok(Column::Bool {
                data: not_bool(&truth_f64(&data)),
                nulls,
            })
        }
        Column::I64 { data, nulls } => {
            ctx.stats.kernels += 1;
            Ok(Column::Bool {
                data: not_bool(&truth_i64(&data)),
                nulls,
            })
        }
        Column::Bool { data, nulls } => {
            ctx.stats.kernels += 1;
            Ok(Column::Bool {
                data: not_bool(&data),
                nulls,
            })
        }
        Column::Null(len) => {
            ctx.stats.kernels += 1;
            Ok(Column::Null(len))
        }
        other => fallback_unary(&other, ctx, |v| {
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.as_bool().map_err(SqlError::from)?))
            }
        }),
    }
}

/// Float lanes of a numeric column, widening integers through `as f64`
/// exactly as the scalar tier's promotion does. `None` for anything
/// non-numeric (booleans, NULL wildcard, boxed).
fn as_f64_lanes(col: &Column) -> Option<(Cow<'_, [f64]>, &NullMask)> {
    match col {
        Column::F64 { data, nulls } => Some((Cow::Borrowed(data), nulls)),
        Column::I64 { data, nulls } => Some((Cow::Owned(widen_i64(data)), nulls)),
        _ => None,
    }
}

/// Per-value evaluation of one binary node, re-sniffed to a typed column.
fn fallback_binop(
    op: BinOp,
    l: &Column,
    r: &Column,
    ctx: &mut ColumnContext<'_>,
) -> SqlResult<Column> {
    ctx.stats.fallbacks += 1;
    let values: SqlResult<Vec<Value>> = (0..l.len())
        .map(|i| apply_binop(op, &l.value_at(i), &r.value_at(i)))
        .collect();
    Ok(Column::from_values(values?))
}

fn apply_binop_col(
    op: BinOp,
    l: &Column,
    r: &Column,
    ctx: &mut ColumnContext<'_>,
) -> SqlResult<Column> {
    // A NULL operand absorbs before any type checking (`Value` semantics):
    // the node is all-NULL for arithmetic and division, and NULL-propagating
    // for comparisons — in every case, all-NULL output.
    if let (Column::Null(n), _) | (_, Column::Null(n)) = (l, r) {
        ctx.stats.kernels += 1;
        return Ok(Column::Null(*n));
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            if let (Column::I64 { data: a, nulls: na }, Column::I64 { data: b, nulls: nb }) = (l, r)
            {
                let nulls = na.union(nb);
                let kernel = match op {
                    BinOp::Add => add_i64,
                    BinOp::Sub => sub_i64,
                    _ => mul_i64,
                };
                return match kernel(a, b, &nulls) {
                    Some(data) => {
                        ctx.stats.kernels += 1;
                        Ok(Column::I64 { data, nulls })
                    }
                    // Overflow on a valid lane: the scalar tier promotes
                    // exactly that lane to float, so the node's column is
                    // mixed — re-run per value.
                    None => fallback_binop(op, l, r, ctx),
                };
            }
            match (as_f64_lanes(l), as_f64_lanes(r)) {
                (Some((a, na)), Some((b, nb))) => {
                    ctx.stats.kernels += 1;
                    let kernel = match op {
                        BinOp::Add => add_f64,
                        BinOp::Sub => sub_f64,
                        _ => mul_f64,
                    };
                    Ok(Column::F64 {
                        data: kernel(&a, &b),
                        nulls: na.union(nb),
                    })
                }
                _ => fallback_binop(op, l, r, ctx),
            }
        }
        BinOp::Div | BinOp::Rem => {
            if let (Column::I64 { data: a, nulls: na }, Column::I64 { data: b, nulls: nb }) = (l, r)
            {
                ctx.stats.kernels += 1;
                let mut nulls = na.union(nb);
                let data = match op {
                    BinOp::Div => div_i64(a, b, &mut nulls),
                    _ => rem_i64(a, b, &mut nulls),
                };
                return Ok(Column::I64 { data, nulls });
            }
            match (as_f64_lanes(l), as_f64_lanes(r)) {
                (Some((a, na)), Some((b, nb))) => {
                    ctx.stats.kernels += 1;
                    let mut nulls = na.union(nb);
                    let data = match op {
                        BinOp::Div => div_f64(&a, &b, &mut nulls),
                        _ => rem_f64(&a, &b, &mut nulls),
                    };
                    Ok(Column::F64 { data, nulls })
                }
                // Booleans coerce through `as_f64` in division but error in
                // the other arithmetic ops; the per-value path reproduces
                // both, so anything non-numeric falls back.
                _ => fallback_binop(op, l, r, ctx),
            }
        }
        BinOp::Cmp(c) => {
            if let (Column::Bool { data: a, nulls: na }, Column::Bool { data: b, nulls: nb }) =
                (l, r)
            {
                ctx.stats.kernels += 1;
                return Ok(Column::Bool {
                    data: cmp_bool(c, a, b),
                    nulls: na.union(nb),
                });
            }
            match (as_f64_lanes(l), as_f64_lanes(r)) {
                (Some((a, na)), Some((b, nb))) => {
                    ctx.stats.kernels += 1;
                    Ok(Column::Bool {
                        data: cmp_f64(c, &a, &b),
                        nulls: na.union(nb),
                    })
                }
                _ => fallback_binop(op, l, r, ctx),
            }
        }
        BinOp::And | BinOp::Or => unreachable!("logical operators use the three-valued path"),
    }
}

/// SQL truth value per lane: `None` is NULL (mask state), `Some(b)` the
/// scalar tier's boolean coercion. Errors on strings exactly where
/// `Value::as_bool` would.
fn truth_lanes(col: &Column) -> SqlResult<Vec<Option<bool>>> {
    Ok(match col {
        Column::F64 { data, nulls } => truth_f64(data)
            .into_iter()
            .enumerate()
            .map(|(i, b)| (!nulls.is_null(i)).then_some(b))
            .collect(),
        Column::I64 { data, nulls } => truth_i64(data)
            .into_iter()
            .enumerate()
            .map(|(i, b)| (!nulls.is_null(i)).then_some(b))
            .collect(),
        Column::Bool { data, nulls } => data
            .iter()
            .enumerate()
            .map(|(i, &b)| (!nulls.is_null(i)).then_some(b))
            .collect(),
        Column::Null(len) => vec![None; *len],
        Column::Boxed(values) => values
            .iter()
            .map(|v| {
                if v.is_null() {
                    Ok(None)
                } else {
                    v.as_bool().map(Some).map_err(SqlError::from)
                }
            })
            .collect::<SqlResult<_>>()?,
    })
}

/// Three-valued `AND`/`OR` with the scalar tier's exact short-circuit
/// discipline: the right-hand side is evaluated only for the slots the
/// scalar tier would not have short-circuited, preserving per-slot VG
/// call counters.
fn eval_logical_col(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    ctx: &mut ColumnContext<'_>,
    sel: &[usize],
) -> SqlResult<Column> {
    let lcol = eval_col(lhs, ctx, sel)?;
    let mut boxed = matches!(lcol, Column::Boxed(_));
    let ltruth = truth_lanes(&lcol)?;
    // The truth value an operand short-circuits to, if it does.
    let shorted = |t: Option<bool>| -> Option<bool> {
        match (op, t) {
            (BinOp::And, Some(false)) => Some(false),
            (BinOp::Or, Some(true)) => Some(true),
            _ => None,
        }
    };
    // Outer None = unresolved (needs rhs); Some(None) = NULL result.
    let mut out: Vec<Option<Option<bool>>> = vec![None; sel.len()];
    let mut rhs_pos: Vec<usize> = Vec::new();
    for (pos, &t) in ltruth.iter().enumerate() {
        match shorted(t) {
            Some(b) => out[pos] = Some(Some(b)),
            None => rhs_pos.push(pos),
        }
    }
    if !rhs_pos.is_empty() {
        let rhs_sel: Vec<usize> = rhs_pos.iter().map(|&pos| sel[pos]).collect();
        let rcol = eval_col(rhs, ctx, &rhs_sel)?;
        boxed |= matches!(rcol, Column::Boxed(_));
        let rtruth = truth_lanes(&rcol)?;
        for (k, &pos) in rhs_pos.iter().enumerate() {
            let (lt, rt) = (ltruth[pos], rtruth[k]);
            out[pos] = Some(match shorted(rt) {
                Some(b) => Some(b),
                None if lt.is_none() || rt.is_none() => None,
                // Neither operand short-circuited nor is NULL: AND is
                // true, OR is false.
                None => Some(matches!(op, BinOp::And)),
            });
        }
    }
    if boxed {
        ctx.stats.fallbacks += 1;
    } else {
        ctx.stats.kernels += 1;
    }
    let mut data = vec![false; sel.len()];
    let mut nulls = NullMask::none(sel.len());
    for (i, v) in out.iter().enumerate() {
        match v.expect("every slot resolved by short-circuit or rhs") {
            Some(b) => data[i] = b,
            None => nulls.set_null(i),
        }
    }
    Ok(Column::Bool { data, nulls })
}

/// `CASE` with the scalar tier's active/matched/remaining selection
/// discipline; arm results are evaluated only for the slots their
/// condition matched and scatter-merged into the output column.
fn eval_case_col(
    whens: &[(Expr, Expr)],
    otherwise: Option<&Expr>,
    ctx: &mut ColumnContext<'_>,
    sel: &[usize],
) -> SqlResult<Column> {
    // (positions into `sel`, lanes for those positions) per resolved arm.
    let mut pieces: Vec<(Vec<usize>, Column)> = Vec::new();
    let mut active: Vec<usize> = (0..sel.len()).collect();
    let mut boxed_condition = false;
    for (cond, result) in whens {
        if active.is_empty() {
            break;
        }
        let cond_sel: Vec<usize> = active.iter().map(|&pos| sel[pos]).collect();
        let cc = eval_col(cond, ctx, &cond_sel)?;
        boxed_condition |= matches!(cc, Column::Boxed(_));
        let ct = truth_lanes(&cc)?;
        let mut matched: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = Vec::new();
        for (k, &pos) in active.iter().enumerate() {
            // SQL: a NULL condition is not satisfied.
            if ct[k] == Some(true) {
                matched.push(pos);
            } else {
                remaining.push(pos);
            }
        }
        if !matched.is_empty() {
            let result_sel: Vec<usize> = matched.iter().map(|&pos| sel[pos]).collect();
            let rc = eval_col(result, ctx, &result_sel)?;
            pieces.push((matched, rc));
        }
        active = remaining;
    }
    if !active.is_empty() {
        match otherwise {
            Some(e) => {
                let else_sel: Vec<usize> = active.iter().map(|&pos| sel[pos]).collect();
                let ec = eval_col(e, ctx, &else_sel)?;
                pieces.push((active, ec));
            }
            None => {
                let len = active.len();
                pieces.push((active, Column::Null(len)));
            }
        }
    }
    merge_pieces(pieces, sel.len(), boxed_condition, ctx)
}

/// Scatter-merge per-arm result pieces into one block-length column. When
/// every piece shares one typed kind (the NULL wildcard unifies with any),
/// the merge stays typed; a kind clash means the scalar tier would have
/// produced a mixed column, so the merge drops to boxed values.
fn merge_pieces(
    pieces: Vec<(Vec<usize>, Column)>,
    len: usize,
    boxed_condition: bool,
    ctx: &mut ColumnContext<'_>,
) -> SqlResult<Column> {
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        F,
        I,
        B,
    }
    let mut kind: Option<Kind> = None;
    let mut unified = !boxed_condition;
    for (_, piece) in &pieces {
        let k = match piece {
            Column::F64 { .. } => Some(Kind::F),
            Column::I64 { .. } => Some(Kind::I),
            Column::Bool { .. } => Some(Kind::B),
            Column::Null(_) => None,
            Column::Boxed(_) => {
                unified = false;
                None
            }
        };
        match (kind, k) {
            (None, k) => kind = k,
            (Some(a), Some(b)) if a != b => unified = false,
            _ => {}
        }
    }
    if !unified {
        ctx.stats.fallbacks += 1;
        let mut out: Vec<Value> = vec![Value::Null; len];
        for (positions, piece) in &pieces {
            for (k, &pos) in positions.iter().enumerate() {
                out[pos] = piece.value_at(k);
            }
        }
        return Ok(Column::from_values(out));
    }
    ctx.stats.kernels += 1;
    let mut nulls = NullMask::none(len);
    let scatter_nulls = |nulls: &mut NullMask, positions: &[usize], piece: &NullMask| {
        for (k, &pos) in positions.iter().enumerate() {
            if piece.is_null(k) {
                nulls.set_null(pos);
            }
        }
    };
    match kind {
        None => Ok(Column::Null(len)),
        Some(Kind::F) => {
            let mut data = vec![0.0f64; len];
            for (positions, piece) in &pieces {
                match piece {
                    Column::F64 { data: d, nulls: n } => {
                        for (k, &pos) in positions.iter().enumerate() {
                            data[pos] = d[k];
                        }
                        scatter_nulls(&mut nulls, positions, n);
                    }
                    _ => {
                        for &pos in positions {
                            nulls.set_null(pos);
                        }
                    }
                }
            }
            Ok(Column::F64 { data, nulls })
        }
        Some(Kind::I) => {
            let mut data = vec![0i64; len];
            for (positions, piece) in &pieces {
                match piece {
                    Column::I64 { data: d, nulls: n } => {
                        for (k, &pos) in positions.iter().enumerate() {
                            data[pos] = d[k];
                        }
                        scatter_nulls(&mut nulls, positions, n);
                    }
                    _ => {
                        for &pos in positions {
                            nulls.set_null(pos);
                        }
                    }
                }
            }
            Ok(Column::I64 { data, nulls })
        }
        Some(Kind::B) => {
            let mut data = vec![false; len];
            for (positions, piece) in &pieces {
                match piece {
                    Column::Bool { data: d, nulls: n } => {
                        for (k, &pos) in positions.iter().enumerate() {
                            data[pos] = d[k];
                        }
                        scatter_nulls(&mut nulls, positions, n);
                    }
                    _ => {
                        for &pos in positions {
                            nulls.set_null(pos);
                        }
                    }
                }
            }
            Ok(Column::Bool { data, nulls })
        }
    }
}

/// Dispatch one call site for a block: VG catalog first (catalog wins over
/// builtins, as in the scalar tier), then scalar builtins per world.
fn call_function_col(
    name: &str,
    args: &[Column],
    ctx: &mut ColumnContext<'_>,
    sel: &[usize],
) -> SqlResult<Column> {
    if ctx.registry.get(name).is_err() {
        // Scalar builtin, world by world (boxed by nature).
        ctx.stats.fallbacks += 1;
        let values: SqlResult<Vec<Value>> = (0..sel.len())
            .map(|k| {
                let row: Vec<Value> = args.iter().map(|c| c.value_at(k)).collect();
                scalar_builtin(name, &row)
            })
            .collect();
        return Ok(Column::from_values(values?));
    }

    // One derived substream per selected world; the per-slot counter bumps
    // only for worlds reaching this call site (scalar tier's discipline).
    let mut rngs = Vec::with_capacity(sel.len());
    for &slot in sel {
        let counter = ctx.counters[slot];
        ctx.counters[slot] += 1;
        rngs.push(ctx.seeds.rng_for(ctx.worlds[slot], name, counter));
    }
    // Argument columns are usually constant over the block (one parameter
    // valuation per point): share a single parameter row instead of
    // materializing one per world.
    let const_row: Option<Vec<Value>> = args.iter().map(|c| c.const_value()).collect();
    let rows: Vec<Vec<Value>> = if const_row.is_some() {
        Vec::new()
    } else {
        (0..sel.len())
            .map(|k| args.iter().map(|c| c.value_at(k)).collect())
            .collect()
    };
    let mut calls: Vec<VgCallF64<'_>> = match &const_row {
        Some(row) => rngs
            .iter_mut()
            .map(|rng| VgCallF64 { params: row, rng })
            .collect(),
        None => rows
            .iter()
            .zip(rngs.iter_mut())
            .map(|(params, rng)| VgCallF64 { params, rng })
            .collect(),
    };
    match ctx.registry.invoke_batch_columnar(name, &mut calls)? {
        BatchSamples::F64(data) => {
            ctx.stats.kernels += 1;
            Ok(Column::F64 {
                nulls: NullMask::none(data.len()),
                data,
            })
        }
        BatchSamples::Values(values) => {
            ctx.stats.fallbacks += 1;
            Ok(Column::from_values(values))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{evaluate_select_with, WorldRng};
    use crate::parser::parse_script;
    use crate::test_vg::test_registry as registry;

    /// Bit-level `Value` equality: floats compare by representation so a
    /// NaN lane still counts as equal to itself.
    fn bit_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    /// Every lane of every columnar output must equal the scalar oracle —
    /// a per-world [`evaluate_select_with`] walk under
    /// [`WorldRng::per_call`] — bit for bit.
    fn assert_columns_match_scalar(
        src: &str,
        params: &[(&str, Value)],
        worlds: &[u64],
    ) -> ColumnarStats {
        let script = parse_script(src).unwrap();
        let registry = registry();
        let params: HashMap<String, Value> = params
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        let seeds = SeedManager::new(11);
        let (cols, stats) =
            evaluate_select_columns(&script.select, &registry, &params, seeds, worlds).unwrap();
        for (slot, &world) in worlds.iter().enumerate() {
            let row = evaluate_select_with(
                &script.select,
                &registry,
                &params,
                WorldRng::per_call(seeds, world),
            )
            .unwrap();
            assert_eq!(cols.len(), row.len());
            for ((alias, column), (scalar_alias, scalar_value)) in cols.iter().zip(&row) {
                assert_eq!(alias, scalar_alias);
                let lane = column.value_at(slot);
                assert!(
                    bit_eq(&lane, scalar_value),
                    "world {world} column `{alias}`: columnar {lane:?} != scalar {scalar_value:?}"
                );
            }
        }
        stats
    }

    #[test]
    fn typed_path_covers_numeric_scenarios_without_fallbacks() {
        let stats = assert_columns_match_scalar(
            "DECLARE PARAMETER @base AS SET (100);\n\
             SELECT Jitter(@base) AS demand,\n\
                    Jitter(@base + 10) AS capacity,\n\
                    CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload\n\
             INTO results;",
            &[("base", Value::Int(100))],
            &[0, 1, 5, 9, 1_000_003],
        );
        assert!(stats.kernels > 0);
        assert_eq!(
            stats.fallbacks, 0,
            "an all-numeric scenario must never unbox"
        );
    }

    #[test]
    fn conditional_vg_calls_keep_per_world_counters_aligned() {
        assert_columns_match_scalar(
            "SELECT Jitter(0) AS first,\n\
             CASE WHEN first < 0.5 THEN Jitter(100) ELSE -1 END AS maybe,\n\
             Jitter(200) AS last\n\
             INTO r;",
            &[],
            &(0..32u64).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn short_circuit_rhs_only_runs_for_unresolved_worlds() {
        assert_columns_match_scalar(
            "SELECT Jitter(0) AS first,\n\
             CASE WHEN first < 0.5 AND Jitter(0) < 0.5 THEN 1 ELSE 0 END AS both,\n\
             CASE WHEN first < 0.5 OR Jitter(0) < 0.5 THEN 1 ELSE 0 END AS either,\n\
             Jitter(9) AS last\n\
             INTO r;",
            &[],
            &(0..48u64).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn three_valued_logic_nulls_and_builtins_match() {
        let stats = assert_columns_match_scalar(
            "DECLARE PARAMETER @x AS SET (0);\n\
             SELECT NULL AND Jitter(0) > 0 AS null_and,\n\
                    NULL OR Jitter(1) > 0 AS null_or,\n\
                    COALESCE(NULL, @x) AS co,\n\
                    GREATEST(SQRT(ABS(@x - 4)), 1) AS g,\n\
                    1 / 0 AS div0,\n\
                    CASE WHEN 1/0 > 1 THEN 1 ELSE 0 END AS guarded,\n\
                    -Jitter(2) AS n,\n\
                    NOT (Jitter(3) > 0.5) AS inv,\n\
                    Jitter(4) % 0.25 AS wrapped\n\
             INTO r;",
            &[("x", Value::Int(7))],
            &(0..24u64).collect::<Vec<_>>(),
        );
        assert!(stats.fallbacks > 0, "builtins route through the fallback");
    }

    #[test]
    fn mixed_case_arms_fall_back_to_boxed_merge() {
        let stats = assert_columns_match_scalar(
            "SELECT Jitter(0) AS u,\n\
             CASE WHEN u < 0.5 THEN 1 ELSE 2.5 END AS mixed\n\
             INTO r;",
            &[],
            &(0..16u64).collect::<Vec<_>>(),
        );
        assert!(
            stats.fallbacks > 0,
            "an Int/Float arm mix cannot stay typed"
        );
    }

    #[test]
    fn integer_overflow_falls_back_to_lane_promotion() {
        let big = i64::MAX;
        let stats = assert_columns_match_scalar(
            &format!("SELECT {big} + 1 AS bumped, {big} * 2 AS dbl INTO r;"),
            &[],
            &[0, 1, 2],
        );
        assert!(stats.fallbacks >= 2);
    }

    #[test]
    fn errors_match_the_scalar_tier() {
        let registry = registry();
        let seeds = SeedManager::new(0);
        // Each misuse must fail with the scalar oracle's exact message.
        let run = |src: &str| {
            let script = parse_script(src).unwrap();
            let params = HashMap::new();
            let columnar =
                evaluate_select_columns(&script.select, &registry, &params, seeds, &[0, 1])
                    .unwrap_err()
                    .to_string();
            let scalar = evaluate_select_with(
                &script.select,
                &registry,
                &params,
                WorldRng::per_call(seeds, 0),
            )
            .unwrap_err()
            .to_string();
            assert_eq!(columnar, scalar, "`{src}`");
            columnar
        };
        assert!(
            run("DECLARE PARAMETER @missing AS SET (0);\nSELECT @missing AS v INTO r;")
                .contains("unbound parameter @missing")
        );
        assert!(run("SELECT nope + 1 AS v INTO r;").contains("unknown column or alias `nope`"));
        assert!(run("SELECT NoSuchFn(1) AS v INTO r;").contains("function `NoSuchFn`"));
        assert!(
            run("SELECT TwoRows() AS v INTO r;").contains("exactly one cell"),
            "scalar-position misuse must be reported per the scalar tier's contract"
        );
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let script = parse_script("SELECT Jitter(0) AS v INTO r;").unwrap();
        let registry = registry();
        let (out, _) = evaluate_select_columns(
            &script.select,
            &registry,
            &HashMap::new(),
            SeedManager::new(0),
            &[],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_empty());
        assert_eq!(registry.stats("Jitter").unwrap().invocations, 0);
    }

    #[test]
    fn block_counts_logical_invocations() {
        let script = parse_script("SELECT Jitter(0) AS a, Jitter(1) AS b INTO r;").unwrap();
        let registry = registry();
        let worlds: Vec<u64> = (0..16).collect();
        evaluate_select_columns(
            &script.select,
            &registry,
            &HashMap::new(),
            SeedManager::new(0),
            &worlds,
        )
        .unwrap();
        let stats = registry.stats("Jitter").unwrap();
        assert_eq!(stats.invocations, 32, "two call sites × 16 worlds");
        assert_eq!(stats.batched_calls, 2, "one physical call per site");
    }

    /// A mapped block: `a` comes in bound, `b` and `c` are derived from it.
    const DERIVED_SRC: &str = "DECLARE PARAMETER @k AS SET (3);\n\
         SELECT Jitter(0) AS a,\n\
                a * @k AS b,\n\
                CASE WHEN b > 1 THEN b - 1 END AS c\n\
         INTO r;";

    fn f64_column(data: Vec<f64>) -> Column {
        let nulls = NullMask::none(data.len());
        Column::F64 { data, nulls }
    }

    #[test]
    fn bound_column_passes_through_and_later_items_see_it() {
        let script = parse_script(DERIVED_SRC).unwrap();
        let params = HashMap::from([("k".to_string(), Value::Int(3))]);
        let a = vec![0.25, f64::NAN, -0.0, 1e308, f64::INFINITY];
        let (out, stats) = evaluate_derived_columns(
            &script.select,
            &params,
            vec![("a".into(), f64_column(a.clone()))],
            a.len(),
        )
        .unwrap();
        let aliases: Vec<&str> = out.iter().map(|(alias, _)| alias.as_str()).collect();
        assert_eq!(aliases, ["b", "c"], "bound items are not re-evaluated");
        for (lane, &x) in a.iter().enumerate() {
            // A NaN sample is a valid lane, never NULL.
            let b = x * 3.0;
            assert!(
                bit_eq(&out[0].1.value_at(lane), &Value::Float(b)),
                "b[{lane}]"
            );
            let c = if b > 1.0 {
                Value::Float(b - 1.0)
            } else {
                Value::Null
            };
            assert!(bit_eq(&out[1].1.value_at(lane), &c), "c[{lane}]");
        }
        assert!(stats.kernels > 0);
        assert_eq!(stats.fallbacks, 0, "an f64 binding stays typed");
    }

    #[test]
    fn bound_alias_draws_no_vg_invocation() {
        let script =
            parse_script("SELECT Jitter(0) AS a, Jitter(1) AS b, a + b AS c INTO r;").unwrap();
        let registry = registry();
        let worlds: Vec<u64> = (0..8).collect();
        let mut ctx = ColumnContext {
            registry: &registry,
            params: &HashMap::new(),
            seeds: SeedManager::new(0),
            worlds: &worlds,
            counters: vec![0; worlds.len()],
            aliases: HashMap::new(),
            stats: ColumnarStats::default(),
        };
        let a = vec![10.0; worlds.len()];
        let out = eval_select_items(
            &script.select,
            &mut ctx,
            worlds.len(),
            vec![("a".into(), f64_column(a))],
        )
        .unwrap();
        assert_eq!(
            registry.stats("Jitter").unwrap().invocations,
            worlds.len() as u64,
            "only the unbound call site `b` samples"
        );
        let b = to_f64_samples(&out[0].1).unwrap();
        let c = to_f64_samples(&out[1].1).unwrap();
        for lane in 0..worlds.len() {
            assert_eq!(c[lane].to_bits(), (10.0 + b[lane]).to_bits());
        }

        // The public remap walk has no catalog at all: an unbound VG call
        // is an error, not a draw.
        let err = evaluate_derived_columns(&script.select, &HashMap::new(), Vec::new(), 2)
            .unwrap_err()
            .to_string();
        assert!(err.contains("Jitter"), "{err}");
        assert_eq!(
            registry.stats("Jitter").unwrap().invocations,
            worlds.len() as u64
        );
    }

    #[test]
    fn empty_binding_equals_evaluate_select_columns() {
        let src = "DECLARE PARAMETER @k AS SET (3);\n\
             SELECT @k * 2 AS a,\n\
                    a / 4 AS b,\n\
                    CASE WHEN a > 5 THEN a % 4 END AS c,\n\
                    ABS(b - 7) AS d\n\
             INTO r;";
        let script = parse_script(src).unwrap();
        let params = HashMap::from([("k".to_string(), Value::Int(3))]);
        let worlds: Vec<u64> = (0..5).collect();
        let (want, want_stats) = evaluate_select_columns(
            &script.select,
            &registry(),
            &params,
            SeedManager::new(0),
            &worlds,
        )
        .unwrap();
        let (got, got_stats) =
            evaluate_derived_columns(&script.select, &params, Vec::new(), worlds.len()).unwrap();
        assert_eq!(got.len(), want.len());
        for ((ga, gc), (wa, wc)) in got.iter().zip(&want) {
            assert_eq!(ga, wa);
            for lane in 0..worlds.len() {
                assert!(
                    bit_eq(&gc.value_at(lane), &wc.value_at(lane)),
                    "{ga}[{lane}]"
                );
            }
        }
        assert_eq!(got_stats, want_stats);
    }

    #[test]
    fn bound_column_of_the_wrong_length_is_an_error() {
        let script = parse_script(DERIVED_SRC).unwrap();
        let params = HashMap::from([("k".to_string(), Value::Int(3))]);
        let err = evaluate_derived_columns(
            &script.select,
            &params,
            vec![("a".into(), f64_column(vec![1.0, 2.0]))],
            3,
        )
        .unwrap_err();
        assert!(err.to_string().contains("2 lanes, expected 3"), "{err}");
    }

    #[test]
    fn sniffing_round_trips_every_uniform_kind() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(-3)],
            vec![Value::Float(0.5), Value::Float(f64::NAN)],
            vec![Value::Bool(true), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Int(1), Value::Float(2.0)],
            vec![Value::Str("x".into()), Value::Int(1)],
        ];
        for values in cases {
            let col = Column::from_values(values.clone());
            assert_eq!(col.len(), values.len());
            // NaN lanes break Vec<Value> equality; compare per lane.
            for (i, v) in values.iter().enumerate() {
                match (&col.value_at(i), v) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits())
                    }
                    (got, want) => assert_eq!(got, want),
                }
            }
        }
        assert!(matches!(
            Column::from_values(vec![Value::Int(1), Value::Null]),
            Column::I64 { .. }
        ));
        assert!(matches!(
            Column::from_values(vec![Value::Int(1), Value::Float(1.0)]),
            Column::Boxed(_)
        ));
        assert!(matches!(
            Column::from_values(vec![Value::Null]),
            Column::Null(1)
        ));
    }

    #[test]
    fn to_f64_samples_matches_column_to_f64() {
        let values = vec![
            Value::Int(2),
            Value::Null,
            Value::Float(0.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
        ];
        // Per-value reference conversion...
        let want: Vec<u64> = column_to_f64(&values)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        // ...must agree with the typed-boundary conversion for every
        // representation the sniffer can pick.
        for col in [
            Column::Boxed(values.clone()),
            Column::from_values(vec![Value::Int(2), Value::Null]),
            Column::from_values(vec![Value::Float(0.5), Value::Float(f64::NAN), Value::Null]),
            Column::from_values(vec![Value::Bool(true), Value::Null, Value::Bool(false)]),
        ] {
            let got: Vec<u64> = to_f64_samples(&col)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let reference: Vec<u64> = column_to_f64(&col.to_values())
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, reference);
        }
        assert_eq!(
            to_f64_samples(&Column::Boxed(values)).unwrap().len(),
            want.len()
        );
        assert!(to_f64_samples(&Column::Boxed(vec![Value::Str("x".into())])).is_err());
    }

    #[test]
    fn column_to_f64_maps_null_to_nan() {
        let xs = column_to_f64(&[Value::Int(2), Value::Null, Value::Float(0.5)]).unwrap();
        assert_eq!(xs[0], 2.0);
        assert!(xs[1].is_nan());
        assert_eq!(xs[2], 0.5);
        assert!(column_to_f64(&[Value::Str("x".into())]).is_err());
    }

    #[test]
    fn const_detection_sees_uniform_columns_only() {
        let c = broadcast(&Value::Int(7), 4);
        assert_eq!(c.const_value(), Some(Value::Int(7)));
        let mixed = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(mixed.const_value(), None);
        let nan = broadcast(&Value::Float(f64::NAN), 3);
        assert!(matches!(nan.const_value(), Some(Value::Float(x)) if x.is_nan()));
        assert_eq!(Column::Null(2).const_value(), Some(Value::Null));
        assert_eq!(Column::Null(0).const_value(), None);
    }
}
