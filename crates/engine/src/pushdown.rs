//! Partial-aggregation and top-k pushdown: folding the final projection
//! inside the morsel pipeline.
//!
//! Before this module, every `RETURN`/`WITH` that aggregates, deduplicates
//! or sorts forced a full *pipeline breaker*: the morsel workers each
//! materialized their share of the match output, the partial tables were
//! merged into one, and grouping/sorting ran single-threaded over the
//! merged table. For the analytic queries Section 3 of the paper centers
//! on (implicit grouping keys, `count`, `collect`, ordered projections)
//! that merged table *is* the cost — it scales with the pre-aggregation
//! row count and serializes the most expensive clause.
//!
//! Here, when the **final** clause of a query is a plannable `MATCH` and
//! the `RETURN` qualifies, each worker instead folds its morsels directly
//! into a partial state:
//!
//! * aggregating projections (and `DISTINCT`) fold into a
//!   [`GroupedAggState`] — the *same* type the sequential reference
//!   semantics use, so there is exactly one grouping implementation;
//! * `ORDER BY … LIMIT k` (no aggregation) folds into a bounded
//!   [`TopKState`] of `skip + limit` rows per morsel.
//!
//! Partial states are merged **in morsel order**. Every constituent is
//! designed to make that merge reproduce the sequential row-order fold
//! bit-for-bit — group creation order, distinct first-occurrence order,
//! `min`/`max` tie-breaking, stable-sort tie-breaking, and (via exact
//! float summation) `sum`/`avg` bits — so thread count and morsel size
//! remain unobservable, the determinism contract the executor has had
//! since the morsel refactor.
//!
//! Any error inside the fused path makes the caller fall back to the
//! classic materialize-then-project execution, which reports the
//! canonical (scheduling-independent) error.

use crate::exec::{EngineConfig, PartialAggMode};
use crate::ops::{
    build_prepared, parallel_morsels, prepare_sources, record_run, ExecMetrics, Operator,
    PreparedSource,
};
use crate::plan::PlanStep;
use crate::planner::PlannedMatch;
use cypher_ast::query::Return;
use cypher_core::clauses::{apply_order_by_scoped, eval_count};
use cypher_core::error::EvalError;
use cypher_core::project::{GroupedAggState, ProjectionPlan, TopKState};
use cypher_core::table::{Record, Schema, Table};
use cypher_core::EvalContext;
use std::sync::Arc;

/// What a qualifying final projection folds into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PushdownKind {
    /// Grouped aggregation (implicit grouping keys + aggregate calls).
    Aggregate,
    /// `DISTINCT` with no aggregates: ordered duplicate elimination.
    Distinct,
    /// `ORDER BY … LIMIT` with neither aggregates nor `DISTINCT`.
    TopK,
}

/// Classifies a `RETURN` body, independent of schema or data. `None`
/// means the projection needs the full materialized input (e.g. a bare
/// `ORDER BY` without `LIMIT`).
pub(crate) fn ret_pushdown(ret: &Return) -> Option<PushdownKind> {
    let any_agg = ret.items.iter().any(|i| i.expr.contains_aggregate());
    if any_agg {
        Some(PushdownKind::Aggregate)
    } else if ret.distinct {
        Some(PushdownKind::Distinct)
    } else if !ret.order_by.is_empty() && ret.limit.is_some() {
        Some(PushdownKind::TopK)
    } else {
        None
    }
}

/// Result of attempting the fused path: either the final table of the
/// query (projection applied), or the untouched driving table for the
/// caller's classic execution.
pub(crate) enum FusedOutcome {
    /// The fused pipeline produced the query's final table.
    Done(Table),
    /// Not applicable (or an error occurred): run the classic path.
    Skipped(Table),
}

/// One morsel's partial state.
enum FoldState {
    Agg(GroupedAggState),
    TopK(TopKState),
}

/// Everything the per-morsel fold needs, compiled once.
struct FusedSpec<'a> {
    plan: ProjectionPlan,
    ret: &'a Return,
    kind: PushdownKind,
    /// `SKIP`/`LIMIT` bounds (evaluated up front; only used by `TopK`).
    skip: usize,
    limit: usize,
}

impl FusedSpec<'_> {
    fn new_state(&self) -> FoldState {
        match self.kind {
            PushdownKind::Aggregate => FoldState::Agg(GroupedAggState::new(true)),
            PushdownKind::Distinct => FoldState::Agg(GroupedAggState::new(false)),
            PushdownKind::TopK => FoldState::TopK(TopKState::new(
                self.skip.saturating_add(self.limit),
                &self.ret.order_by,
            )),
        }
    }

    fn feed(
        &self,
        state: &mut FoldState,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        row: &Record,
    ) -> Result<(), EvalError> {
        match state {
            FoldState::Agg(st) => st.feed(ctx, &self.plan, schema, row),
            FoldState::TopK(st) => {
                let out_row = self.plan.project_row(ctx, schema, row)?;
                st.feed(
                    ctx,
                    &self.ret.order_by,
                    self.plan.out_schema(),
                    out_row,
                    schema,
                    Some(row),
                )
            }
        }
    }

    /// Folds every row `op` produces into `state`; returns the row count.
    fn drain(
        &self,
        state: &mut FoldState,
        ctx: &EvalContext<'_>,
        schema: &Schema,
        op: &mut dyn Operator,
    ) -> Result<usize, EvalError> {
        let mut rows = 0;
        while let Some(batch) = op.next_batch()? {
            rows += batch.len();
            for row in batch.rows() {
                self.feed(state, ctx, schema, row)?;
            }
        }
        Ok(rows)
    }

    /// Merges the per-morsel states in order and applies the tail of the
    /// projection (`DISTINCT` over groups, `ORDER BY`, `SKIP`/`LIMIT`).
    fn finalize(
        &self,
        states: Vec<FoldState>,
        ctx: &EvalContext<'_>,
        raw_schema: &Arc<Schema>,
    ) -> Result<Table, EvalError> {
        match self.kind {
            PushdownKind::TopK => {
                let topk: Vec<TopKState> = states
                    .into_iter()
                    .map(|s| match s {
                        FoldState::TopK(t) => t,
                        FoldState::Agg(_) => unreachable!("kind mismatch"),
                    })
                    .collect();
                Ok(TopKState::merge_sorted(
                    topk,
                    &self.ret.order_by,
                    self.skip,
                    self.limit,
                    self.plan.out_schema().clone(),
                ))
            }
            PushdownKind::Aggregate | PushdownKind::Distinct => {
                let mut iter = states.into_iter().map(|s| match s {
                    FoldState::Agg(a) => a,
                    FoldState::TopK(_) => unreachable!("kind mismatch"),
                });
                let mut acc = iter.next().unwrap_or_else(|| match self.new_state() {
                    FoldState::Agg(a) => a,
                    _ => unreachable!(),
                });
                for st in iter {
                    acc.merge(st, &self.plan);
                }
                let (mut out, mut sources) = acc.finalize(ctx, &self.plan, raw_schema)?;
                if self.ret.distinct && self.plan.is_aggregating() {
                    out = out.dedup();
                    sources.clear();
                }
                if !self.ret.order_by.is_empty() {
                    let src = if sources.is_empty() {
                        None
                    } else {
                        Some((raw_schema.clone(), sources))
                    };
                    out = apply_order_by_scoped(ctx, &self.ret.order_by, out, src)?;
                }
                if self.skip > 0 || self.ret.limit.is_some() {
                    out = out.slice(self.skip, self.ret.limit.as_ref().map(|_| self.limit));
                }
                Ok(out)
            }
        }
    }
}

/// Attempts to run `MATCH … [WHERE …] RETURN <qualifying projection>` as
/// one fused pipeline (the planned match holds the `WHERE`). On any
/// internal error the original driving table is handed back and the
/// caller re-runs the classic path, which surfaces the canonical error.
pub(crate) fn try_fused_match_projection(
    ctx: &EvalContext<'_>,
    cfg: &EngineConfig,
    planned: &PlannedMatch,
    ret: &Return,
    table: Table,
) -> FusedOutcome {
    let Some(kind) = ret_pushdown(ret) else {
        return FusedOutcome::Skipped(table);
    };
    let steps = &planned.plan.steps;
    // The schema visible to the projection: driving fields plus the new
    // match variables. (The pipeline's raw schema is a superset with
    // hidden columns; expressions resolve by name, so feeding raw rows is
    // equivalent — and saves the per-row projection to visible columns.)
    let mut vis = table.schema().clone();
    for v in &planned.new_vars {
        vis = vis.with_field(v.clone());
    }
    let plan = match ProjectionPlan::compile(ret, &vis) {
        Ok(p) => p,
        Err(_) => return FusedOutcome::Skipped(table),
    };
    let (skip, limit) = match (
        eval_count(ctx, ret.skip.as_ref(), "SKIP"),
        match &ret.limit {
            Some(_) => eval_count(ctx, ret.limit.as_ref(), "LIMIT").map(Some),
            None => Ok(None),
        },
    ) {
        (Ok(s), Ok(l)) => (s, l.unwrap_or(0)),
        _ => return FusedOutcome::Skipped(table),
    };
    let spec = FusedSpec {
        plan,
        ret,
        kind,
        skip,
        limit,
    };

    let morsel = cfg.morsel_size.max(1);
    let threads = cfg.num_threads.max(1);
    let prepared = match prepare_sources(ctx, steps) {
        Ok(p) => p,
        Err(_) => return FusedOutcome::Skipped(table),
    };

    // Parallel dispatch mirrors `run_plan`'s gate: a source-anchored plan
    // with more than one morsel of work (`Force` drops the size gate so CI
    // can exercise the merge path on arbitrarily small inputs).
    if threads > 1 && steps.first().is_some_and(|s| s.is_source()) {
        let (var, items) = prepared[0].as_ref().expect("is_source").clone();
        let total = table.len().saturating_mul(items.len());
        let engage = total > 0 && (cfg.partial_agg == PartialAggMode::Force || total > morsel);
        if engage {
            match run_parallel_fused(
                ctx,
                &spec,
                &steps[1..],
                &prepared[1..],
                &table,
                &var,
                &items,
                morsel,
                threads,
                cfg.exec_metrics.as_deref(),
            ) {
                Ok(t) => return FusedOutcome::Done(t),
                Err(_) => return FusedOutcome::Skipped(table),
            }
        }
    }

    // Sequential fused fold: stream the pipeline into one state — same
    // results, but the match output is never materialized as a table.
    // (The driving table is cloned so the classic path can still run if
    // the fold errors; driving tables at this point are the usually-tiny
    // pre-match context, not the scan output.)
    match run_sequential_fused(
        ctx,
        &spec,
        steps,
        &prepared,
        table.clone(),
        morsel,
        cfg.exec_metrics.as_deref(),
    ) {
        Ok(t) => FusedOutcome::Done(t),
        Err(_) => FusedOutcome::Skipped(table),
    }
}

fn run_sequential_fused<'a>(
    ctx: &'a EvalContext<'a>,
    spec: &FusedSpec<'_>,
    steps: &[PlanStep],
    prepared: &[PreparedSource],
    input: Table,
    morsel: usize,
    metrics: Option<&'a ExecMetrics>,
) -> Result<Table, EvalError> {
    let mut op = build_prepared(ctx, steps, prepared, input, morsel, metrics)?;
    let raw_schema = op.schema().clone();
    let mut state = spec.new_state();
    let rows = spec.drain(&mut state, ctx, &raw_schema, &mut *op)?;
    drop(op);
    let out = spec.finalize(vec![state], ctx, &raw_schema)?;
    record_run(metrics, 1, rows, false);
    Ok(out)
}

/// The parallel fold: one partial state per morsel, merged in morsel
/// order. Mirrors `ops::run_parallel`'s work division exactly — morsel
/// `k` covers rows `[k·m, (k+1)·m)` of the row-major `driving × items`
/// product — so the concatenation of per-morsel row streams *is* the
/// sequential row order, and in-order merging reproduces the sequential
/// fold.
#[allow(clippy::too_many_arguments)]
fn run_parallel_fused<'a>(
    ctx: &'a EvalContext<'a>,
    spec: &FusedSpec<'_>,
    rest: &[PlanStep],
    rest_sources: &[PreparedSource],
    driving: &Table,
    var: &str,
    items: &[cypher_graph::Value],
    morsel: usize,
    threads: usize,
    metrics: Option<&'a ExecMetrics>,
) -> Result<Table, EvalError> {
    let total = driving.len() * items.len();
    let n_morsels = total.div_ceil(morsel);
    let src_schema = driving.schema().with_field(var.to_string());
    let per_row = items.len();

    // The raw schema is identical for every morsel (same steps over the
    // same source schema); capture it from the first build.
    let schema_slot: std::sync::Mutex<Option<Arc<Schema>>> = std::sync::Mutex::new(None);

    let slots = parallel_morsels(threads, n_morsels, |i| {
        let lo = i * morsel;
        let hi = ((i + 1) * morsel).min(total);
        let mut t = Table::empty(src_schema.clone());
        for idx in lo..hi {
            let mut r = driving.rows()[idx / per_row].cloned_with_extra(1);
            r.push(items[idx % per_row].clone());
            t.push(r);
        }
        let mut op = build_prepared(ctx, rest, rest_sources, t, morsel, metrics)?;
        let raw_schema = op.schema().clone();
        {
            let mut slot = schema_slot.lock().unwrap();
            if slot.is_none() {
                *slot = Some(raw_schema.clone());
            }
        }
        let mut state = spec.new_state();
        let rows = spec.drain(&mut state, ctx, &raw_schema, &mut *op)?;
        Ok((state, rows))
    })?;

    let (states, rows): (Vec<FoldState>, Vec<usize>) = slots.into_iter().flatten().unzip();
    let raw_schema = schema_slot
        .into_inner()
        .unwrap()
        .expect("at least one morsel ran");
    let out = spec.finalize(states, ctx, &raw_schema)?;
    record_run(metrics, n_morsels, rows.iter().sum(), true);
    Ok(out)
}
