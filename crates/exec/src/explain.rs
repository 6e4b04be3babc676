//! Query EXPLAIN and ANALYZE: render the plan, then audit the execution.
//!
//! [`Engine::explain`] answers *"what would the engine do for this
//! request?"* without executing anything: it renders the query's one
//! derived [`SegmentPlan`] (dimension order and warmup schedule) and, for
//! every segment, where in the visit order the segment runs and its
//! zone-map envelope bound toward the query.
//!
//! [`QueryOutcome::analyze`] answers *"what did the engine actually do?"*
//! by joining the rendered plan against the executed [`bond::PruneTrace`]s:
//! the cells each segment scanned and swept, the depth at which pruning
//! reached the query's `k`, which segments were skipped, and whether the
//! executed plan matched the rendered one (it does by construction — both
//! sides call the same derivation path).
//!
//! Both types are plain data with `Display` impls, so they print as
//! compact reports and remain programmatically inspectable.

use crate::batch::{MultiFeatureSpec, QueryKind, QueryOutcome, QuerySpec, ScanMode};
use crate::engine::Engine;
use crate::planner::PlannerKind;
use bond::{FeatureMetricKind, Kernel, Result, SegmentPlan};
use std::fmt;
use std::ops::Range;

/// One feature component of a multi-feature plan, as rendered by
/// [`Engine::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureExplain {
    /// The feature's position in the aggregate's argument order.
    pub feature: usize,
    /// The feature collection's dimensionality.
    pub dims: usize,
    /// The metric's label (`"histogram-intersection"` or `"euclidean"`).
    pub metric: &'static str,
    /// Whether the feature runs against a sibling collection rather than
    /// the engine's own table.
    pub external: bool,
}

/// The rendered plan for one segment of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentExplain {
    /// The segment index, in row-range order.
    pub segment: usize,
    /// The table rows the segment covers.
    pub rows: Range<usize>,
    /// Position in the query's visit order at which this segment executes
    /// (adaptive planning and code-filtered scans visit
    /// most-promising-first when κ is shared; everyone else in row order).
    pub visit_position: usize,
    /// The segment's optimistic zone-map bound toward the query — the
    /// score the skip check compares against κ at run time. `None` for a
    /// segment with no envelope.
    pub envelope_bound: Option<f64>,
    /// The code bit-width the quantized sweep of this segment would use:
    /// [`vdstore::DEFAULT_CODE_BITS`] for a code scan, `None` for exact
    /// scans.
    pub code_bits: Option<u8>,
    /// Live rows eligible under the request's predicate filter; `None`
    /// when the request carries no filter.
    pub eligible_rows: Option<usize>,
    /// The segment's live-row count (the filter's denominator).
    pub live_rows: usize,
}

impl SegmentExplain {
    /// The filter's selectivity in this segment — eligible over live rows,
    /// in `[0, 1]`. `None` when the request carries no filter.
    pub fn filter_selectivity(&self) -> Option<f64> {
        self.eligible_rows.map(|e| e as f64 / (self.live_rows.max(1)) as f64)
    }
}

/// The rendered execution plan of one request — what [`Engine::execute`]
/// *would* do, derived without executing anything.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExplain {
    /// The number of neighbours requested.
    pub k: usize,
    /// The effective pruning rule's name (`"Hq"`, `"Ev"`, …).
    pub rule: &'static str,
    /// The effective planning policy.
    pub planner: PlannerKind,
    /// The effective scan mode (exact or quantized filter).
    pub scan: ScanMode,
    /// The table dimensionality.
    pub dims: usize,
    /// Whether κ-aware whole-segment skipping is armed for this request
    /// (stats-driven planner and shared κ).
    pub skipping: bool,
    /// The scan-kernel flavour this process dispatches hot loops to
    /// (`"scalar"`, `"avx2"`, `"neon"`) — process-wide, shown once.
    pub kernel: &'static str,
    /// The segment visit order: position `p` executes
    /// `visit_order[p]`.
    pub visit_order: Vec<usize>,
    /// The query's one fully derived plan, run by every searched segment:
    /// dimension order plus block schedule.
    pub plan: SegmentPlan,
    /// Per-segment renderings, in segment (row-range) order.
    pub segments: Vec<SegmentExplain>,
    /// The feature components of a multi-feature request, in aggregate
    /// order; empty for classic top-k requests.
    pub features: Vec<FeatureExplain>,
    /// The combining aggregate's label for a multi-feature request.
    pub aggregate: Option<&'static str>,
    /// Live rows eligible under the request's predicate filter, summed
    /// over all segments; `None` when the request carries no filter.
    pub eligible_rows: Option<usize>,
}

impl fmt::Display for QueryExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXPLAIN k={} rule={} planner={:?} scan={} dims={} skipping={} kernel={}",
            self.k,
            self.rule,
            self.planner,
            self.scan.label(),
            self.dims,
            if self.skipping { "on" } else { "off" },
            self.kernel,
        )?;
        if let Some(eligible) = self.eligible_rows {
            let live: usize = self.segments.iter().map(|s| s.live_rows).sum();
            writeln!(
                f,
                "  filter: {eligible} of {live} live rows eligible ({:.1}%)",
                eligible as f64 / (live.max(1)) as f64 * 100.0,
            )?;
        }
        if let Some(aggregate) = self.aggregate {
            // The synchronized scan interleaves the features' dimension
            // blocks, so the plan line shows the per-feature widths.
            let parts: Vec<String> = self
                .features
                .iter()
                .map(|ft| {
                    format!(
                        "f{} {} dims={}{}",
                        ft.feature,
                        ft.metric,
                        ft.dims,
                        if ft.external { " (external)" } else { "" }
                    )
                })
                .collect();
            writeln!(f, "  multi-feature: {} over [{}]", aggregate, parts.join(" | "))?;
        }
        let order: Vec<String> = self.visit_order.iter().map(|s| s.to_string()).collect();
        writeln!(f, "  visit order: {}", order.join(" -> "))?;
        writeln!(f, "  plan: {}", plan_summary(&self.plan))?;
        for seg in &self.segments {
            let bound =
                seg.envelope_bound.map_or_else(|| "none".to_string(), |b| format!("{b:.4}"));
            let eligible = match (seg.eligible_rows, seg.filter_selectivity()) {
                (Some(rows), Some(sel)) => format!(" eligible={rows} ({:.1}%)", sel * 100.0),
                _ => String::new(),
            };
            let bits = seg.code_bits.map_or_else(String::new, |b| format!(" bits={b}"));
            writeln!(
                f,
                "  segment {} rows {}..{} visit#{} bound={}{}{}",
                seg.segment,
                seg.rows.start,
                seg.rows.end,
                seg.visit_position,
                bound,
                bits,
                eligible,
            )?;
        }
        Ok(())
    }
}

/// `schedule …, order …`: the plan's block schedule and the head of its
/// dimension order (the first eight dimensions).
fn plan_summary(plan: &SegmentPlan) -> String {
    let head: Vec<String> = plan.order.iter().take(8).map(|d| d.to_string()).collect();
    let ellipsis = if plan.order.len() > 8 { " …" } else { "" };
    format!("schedule {:?}, order {}{}", plan.schedule, head.join(" "), ellipsis)
}

/// One segment's executed scan joined against its rendered plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentAnalysis {
    /// The segment index, in row-range order.
    pub segment: usize,
    /// The `(candidate, dimension)` cells the scan actually evaluated —
    /// [`bond::PruneTrace::contributions_evaluated`], exactly.
    pub scanned_cells: u64,
    /// Quantized code cells the first-pass filter actually swept; `0` for
    /// exact scans.
    pub filter_cells: u64,
    /// Code columns the filter's progressive sweep got through before at
    /// most `k` candidates remained or the dimensions ran out; `0` when no
    /// filter swept.
    pub filter_dims: usize,
    /// Row blocks the filter dropped by their code envelopes before its
    /// first block, without reading a cell of them.
    pub filter_blocks_skipped: usize,
    /// Pruning steps the filter's sweep took over its `filter_dims`
    /// columns; `0` when no filter swept.
    pub filter_steps: u32,
    /// κ probes the filter ran: two at most, and at most one in a segment
    /// that carried a sibling's κ in; `0` when no filter swept.
    pub filter_probes: u32,
    /// Rows the quantized filter let through to exact refinement; `0` when
    /// no filter ran.
    pub refine_rows: u64,
    /// The code bit-width the quantized sweep actually used (from the
    /// executed trace); `0` when the scan ran without codes.
    pub filter_bits: u8,
    /// The scan-kernel flavour the segment's hot loops actually dispatched
    /// to; `None` for skipped segments (nothing ran).
    pub kernel: Option<&'static str>,
    /// Whether the segment was skipped outright via its zone-map bound.
    pub skipped: bool,
    /// The pruning rule that produced the trace, as stamped by the engine.
    pub rule: Option<&'static str>,
    /// The number of dimensions after which the candidate set first shrank
    /// to at most `k` — the query's effective prune depth in this segment:
    /// the code sweep's `filter_dims` when the filter ran and left at most
    /// `k` rows, else the exact loop's first checkpoint at `k` or fewer.
    /// `None` when pruning never got that far (or the segment was skipped).
    pub prune_depth: Option<usize>,
}

/// The post-execution audit of one request: the rendered plan joined with
/// what actually ran. Built by [`QueryOutcome::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnalysis {
    /// The number of neighbours the request asked for.
    pub k: usize,
    /// The effective pruning rule's name (from the EXPLAIN).
    pub rule: &'static str,
    /// Whether the executed plan equals the rendered one. `None` for a
    /// scan that ran no dimension plan (multi-feature scans).
    pub plan_match: Option<bool>,
    /// Per-segment audits, in segment (row-range) order.
    pub segments: Vec<SegmentAnalysis>,
}

impl QueryAnalysis {
    /// Total cells actually scanned — matches
    /// [`QueryOutcome::contributions_evaluated`] exactly.
    pub fn scanned_cells(&self) -> u64 {
        self.segments.iter().map(|s| s.scanned_cells).sum()
    }

    /// Total quantized code cells swept — matches
    /// [`QueryOutcome::quant_filter_cells`] exactly.
    pub fn filter_cells(&self) -> u64 {
        self.segments.iter().map(|s| s.filter_cells).sum()
    }

    /// Number of segments skipped outright.
    pub fn segments_skipped(&self) -> usize {
        self.segments.iter().filter(|s| s.skipped).count()
    }

    /// Whether the executed plan matched the rendered plan (a scan that
    /// ran no dimension plan does not count against a match).
    pub fn plans_match(&self) -> bool {
        self.plan_match != Some(false)
    }
}

impl fmt::Display for QueryAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ANALYZE k={} rule={} scanned={} plans_match={}",
            self.k,
            self.rule,
            self.scanned_cells(),
            self.plans_match(),
        )?;
        for seg in &self.segments {
            if seg.skipped {
                writeln!(f, "  segment {}: skipped (zone-map bound beat κ)", seg.segment)?;
                continue;
            }
            let depth = seg.prune_depth.map_or_else(|| "never".to_string(), |d| d.to_string());
            let filter = if seg.filter_cells > 0 || seg.filter_blocks_skipped > 0 {
                format!(
                    " filter_cells={} filter_dims={} filter_blocks_skipped={} filter_steps={} \
                     filter_probes={} refine_rows={} bits={}",
                    seg.filter_cells,
                    seg.filter_dims,
                    seg.filter_blocks_skipped,
                    seg.filter_steps,
                    seg.filter_probes,
                    seg.refine_rows,
                    seg.filter_bits
                )
            } else {
                String::new()
            };
            let kernel = seg.kernel.map_or_else(String::new, |k| format!(" kernel={k}"));
            writeln!(
                f,
                "  segment {}: scanned {}{} prune_depth@k={} rule={}{}",
                seg.segment,
                seg.scanned_cells,
                filter,
                depth,
                seg.rule.unwrap_or("?"),
                kernel,
            )?;
        }
        Ok(())
    }
}

impl Engine {
    /// Renders the execution plan this engine would choose for `spec`,
    /// without executing it: the query's derived [`SegmentPlan`]
    /// (dimension order, warmup schedule) and, per segment, the visit-order
    /// position and the zone-map envelope bound toward the query.
    ///
    /// EXPLAIN and [`Engine::execute`] share the same resolution code
    /// path, so the rendered plan is the executed plan, which
    /// [`QueryOutcome::analyze`] verifies.
    ///
    /// # Errors
    ///
    /// The same validation errors [`Engine::execute`] would return for
    /// this spec; explaining never touches column data.
    pub fn explain(&self, spec: &QuerySpec) -> Result<QueryExplain> {
        let counts = self.admit(spec)?;
        if let QueryKind::MultiFeature(mf) = spec.kind() {
            return Ok(self.explain_multifeature(spec, mf, counts));
        }
        let rq = self.resolve_topk(spec);
        let query = spec.vector();
        let visit_order =
            rq.visit_order.clone().unwrap_or_else(|| (0..self.partitions()).collect());
        let mut visit_position = vec![0usize; self.partitions()];
        for (pos, &si) in visit_order.iter().enumerate() {
            visit_position[si] = pos;
        }
        let stats = self.segment_stats();
        // the width of the companion `execute` resolves for a code scan
        let code_bits = rq.scan.uses_codes().then_some(vdstore::DEFAULT_CODE_BITS);
        let segments = self
            .segment_specs()
            .iter()
            .enumerate()
            .map(|(si, seg_spec)| {
                let envelope_bound = self.optimistic_bound(
                    si,
                    rq.metric.as_ref(),
                    rq.objective,
                    query,
                    rq.query_sum,
                );
                SegmentExplain {
                    segment: si,
                    rows: seg_spec.range(),
                    visit_position: visit_position[si],
                    envelope_bound,
                    code_bits,
                    eligible_rows: counts.as_ref().map(|c| c[si]),
                    live_rows: stats[si].live_rows,
                }
            })
            .collect();
        Ok(QueryExplain {
            k: spec.k(),
            rule: rq.rule.name(),
            planner: rq.planner,
            scan: rq.scan,
            dims: self.table().dims(),
            skipping: rq.skipping,
            kernel: Kernel::active().label(),
            visit_order,
            plan: rq.plan,
            segments,
            features: Vec::new(),
            aggregate: None,
            eligible_rows: counts.map(|c| c.iter().sum()),
        })
    }

    /// Renders the plan for a multi-feature request: the synchronized scan
    /// visits every segment in row order, interleaving the features'
    /// dimension blocks, so the rendered "plan" is the concatenated
    /// dimension space under the engine's block schedule.
    fn explain_multifeature(
        &self,
        spec: &QuerySpec,
        mf: &MultiFeatureSpec,
        counts: Option<Vec<usize>>,
    ) -> QueryExplain {
        let features: Vec<FeatureExplain> = mf
            .features()
            .iter()
            .enumerate()
            .map(|(i, ft)| FeatureExplain {
                feature: i,
                dims: ft.query().len(),
                metric: match ft.metric() {
                    FeatureMetricKind::HistogramIntersection => "histogram-intersection",
                    FeatureMetricKind::Euclidean => "euclidean",
                },
                external: ft.table().is_some(),
            })
            .collect();
        let total_dims: usize = features.iter().map(|ft| ft.dims).sum();
        let stats = self.segment_stats();
        let segments = self
            .segment_specs()
            .iter()
            .enumerate()
            .map(|(si, seg_spec)| SegmentExplain {
                segment: si,
                rows: seg_spec.range(),
                visit_position: si,
                envelope_bound: None,
                code_bits: None,
                eligible_rows: counts.as_ref().map(|c| c[si]),
                live_rows: stats[si].live_rows,
            })
            .collect();
        QueryExplain {
            k: spec.k(),
            rule: "multi-feature",
            planner: PlannerKind::Uniform,
            scan: ScanMode::Exact,
            dims: total_dims,
            skipping: false,
            kernel: Kernel::active().label(),
            visit_order: (0..self.partitions()).collect(),
            plan: SegmentPlan {
                order: (0..total_dims).collect(),
                schedule: self.params().schedule,
            },
            segments,
            features,
            aggregate: Some(mf.aggregate().label()),
            eligible_rows: counts.map(|c| c.iter().sum()),
        }
    }
}

impl QueryOutcome {
    /// Joins this executed outcome against the plan `explain` rendered for
    /// the same request: whether the executed plan matches the rendered
    /// one and, per segment, the cells scanned, the prune depth at which
    /// the candidate set reached `k` and skip status.
    ///
    /// The per-segment `scanned_cells` are exactly the summed
    /// [`bond::PruneTrace`] work counters, so
    /// [`QueryAnalysis::scanned_cells`] equals
    /// [`QueryOutcome::contributions_evaluated`].
    pub fn analyze(&self, explain: &QueryExplain) -> QueryAnalysis {
        let segments = self
            .segments
            .iter()
            .enumerate()
            .map(|(si, run)| SegmentAnalysis {
                segment: si,
                scanned_cells: run.trace.contributions_evaluated,
                filter_cells: run.trace.filter_cells,
                filter_dims: run.trace.filter_dims,
                filter_blocks_skipped: run.trace.filter_blocks_skipped,
                filter_steps: run.trace.filter_steps,
                filter_probes: run.trace.filter_probes,
                refine_rows: run.trace.refine_rows,
                filter_bits: run.trace.filter_bits,
                kernel: run.trace.kernel,
                skipped: run.trace.segment_skipped,
                rule: run.trace.rule,
                // a quantized segment records no exact checkpoints once its
                // survivors are refined in bound order
                prune_depth: if run.trace.filter_ran() && run.trace.refine_rows <= explain.k as u64
                {
                    Some(run.trace.filter_dims)
                } else {
                    run.trace.dims_to_reach(explain.k)
                },
            })
            .collect();
        let plan_match = self.plan.as_ref().map(|executed| *executed == explain.plan);
        QueryAnalysis { k: explain.k, rule: explain.rule, plan_match, segments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlannerKind, RequestBatch, RuleKind};
    use vdstore::DecomposedTable;

    fn table(rows: usize, dims: usize) -> DecomposedTable {
        let vectors: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                let mut v: Vec<f64> =
                    (0..dims).map(|d| ((r * 13 + d * 29) % 83) as f64 + 1.0).collect();
                let total: f64 = v.iter().sum();
                v.iter_mut().for_each(|x| *x /= total);
                v
            })
            .collect();
        DecomposedTable::from_vectors("explain", &vectors).unwrap()
    }

    #[test]
    fn explain_renders_without_executing() {
        let engine = Engine::builder(table(200, 8)).partitions(4).threads(1).build().unwrap();
        let spec = QuerySpec::new(engine.table().row(17).unwrap(), 5);
        let explain = engine.explain(&spec).unwrap();
        assert_eq!(explain.k, 5);
        assert_eq!(explain.rule, "Hq");
        assert_eq!(explain.planner, PlannerKind::Uniform);
        assert_eq!(explain.segments.len(), engine.partitions());
        assert_eq!(explain.visit_order, vec![0, 1, 2, 3]);
        assert!(!explain.skipping, "uniform planning never skips");
        assert!(explain.plan.is_valid(8));
        for seg in &explain.segments {
            assert!(seg.envelope_bound.is_some());
        }
        // rendering is purely observational: nothing was searched
        assert_eq!(engine.metrics().counter_value(bond_obs::names::ENGINE_QUERY_COUNT), Some(0));
        let text = explain.to_string();
        assert!(text.contains("EXPLAIN k=5 rule=Hq"));
        assert!(text.contains("visit order: 0 -> 1 -> 2 -> 3"));
        assert_eq!(text.matches("\n  plan: schedule ").count(), 1, "one plan line: {text}");
    }

    #[test]
    fn explain_rejects_what_execute_rejects() {
        let engine = Engine::builder(table(50, 4)).partitions(2).threads(1).build().unwrap();
        assert!(engine.explain(&QuerySpec::new(vec![0.5; 3], 1)).is_err());
        assert!(engine.explain(&QuerySpec::new(vec![0.25; 4], 0)).is_err());
    }

    #[test]
    fn analyze_joins_plan_with_trace() {
        let engine = Engine::builder(table(300, 8))
            .partitions(3)
            .threads(1)
            .planner(PlannerKind::Adaptive)
            .build()
            .unwrap();
        let spec = QuerySpec::new(engine.table().row(42).unwrap(), 5);
        let explain = engine.explain(&spec).unwrap();
        let outcome = engine.execute(&RequestBatch::single(spec)).unwrap().queries.remove(0);
        let analysis = outcome.analyze(&explain);
        assert_eq!(analysis.scanned_cells(), outcome.contributions_evaluated());
        assert_eq!(analysis.segments_skipped(), outcome.segments_skipped());
        assert_eq!(analysis.plan_match, Some(true), "{analysis}");
        assert!(analysis.plans_match());
        for (seg, run) in analysis.segments.iter().zip(&outcome.segments) {
            assert_eq!(seg.scanned_cells, run.trace.contributions_evaluated);
            if !seg.skipped {
                assert_eq!(seg.rule, Some("Hq"));
            }
        }
        let text = analysis.to_string();
        assert!(text.contains("ANALYZE k=5 rule=Hq"));
    }

    #[test]
    fn filtered_requests_explain_their_selectivity() {
        use std::sync::Arc;
        use vdstore::Bitmap;
        let engine = Engine::builder(table(200, 8)).partitions(4).threads(1).build().unwrap();
        let filter = Arc::new(Bitmap::from_rows(200, (0..50).collect::<Vec<_>>().as_slice()));
        let spec = QuerySpec::new(engine.table().row(17).unwrap(), 5).filter_shared(filter);
        let explain = engine.explain(&spec).unwrap();
        assert_eq!(explain.eligible_rows, Some(50));
        // rows 0..50 live entirely in segment 0 of 4 × 50-row segments
        assert_eq!(explain.segments[0].eligible_rows, Some(50));
        assert_eq!(explain.segments[0].filter_selectivity(), Some(1.0));
        assert_eq!(explain.segments[1].eligible_rows, Some(0));
        // the estimate prices eligible rows only: segment 0's 50 × 8 cells
        assert_eq!(engine.estimate_cost(&spec), 400.0);
        let text = explain.to_string();
        assert!(text.contains("filter: 50 of 200 live rows eligible (25.0%)"), "{text}");
        assert!(text.contains("eligible=50 (100.0%)"), "{text}");
    }

    #[test]
    fn multi_feature_requests_explain_the_feature_interleave() {
        use crate::batch::{AggregateSpec, FeatureSpec, MultiFeatureSpec};
        use bond::FeatureMetricKind;
        let engine = Engine::builder(table(120, 6)).partitions(3).threads(1).build().unwrap();
        let q = engine.table().row(7).unwrap();
        let mf = MultiFeatureSpec::new(
            vec![
                FeatureSpec::new(q.clone(), FeatureMetricKind::HistogramIntersection),
                FeatureSpec::new(q, FeatureMetricKind::Euclidean),
            ],
            AggregateSpec::WeightedAverage(vec![0.7, 0.3]),
        );
        let spec = QuerySpec::multi_feature(mf, 4);
        let explain = engine.explain(&spec).unwrap();
        assert_eq!(explain.rule, "multi-feature");
        assert_eq!(explain.aggregate, Some("weighted_average"));
        assert_eq!(explain.features.len(), 2);
        assert_eq!(explain.features[0].metric, "histogram-intersection");
        assert_eq!(explain.features[1].metric, "euclidean");
        assert_eq!(explain.dims, 12, "concatenated feature dimension space");
        assert_eq!(explain.segments.len(), 3);
        // full synchronized sweep: live rows × total dims per segment
        assert_eq!(engine.estimate_cost(&spec), (120 * 12) as f64);
        let text = explain.to_string();
        assert!(
            text.contains(
                "multi-feature: weighted_average over \
                 [f0 histogram-intersection dims=6 | f1 euclidean dims=6]"
            ),
            "{text}"
        );
    }

    #[test]
    fn weighted_rules_explain_with_their_own_name() {
        let engine = Engine::builder(table(100, 4)).partitions(2).threads(1).build().unwrap();
        let spec = QuerySpec::new(vec![0.25; 4], 3)
            .rule(RuleKind::weighted_euclidean(vec![1.0, 2.0, 0.5, 1.0]).unwrap());
        let explain = engine.explain(&spec).unwrap();
        assert_eq!(explain.rule, "WEv");
    }
}
