//! The iterative BOND-Hq plan, executed through the BAT operators only.
//!
//! [`BondHqProgram::execute`] runs Algorithm 2 for histogram intersection
//! with criterion Hq exactly the way the Monet implementation of Section 6.1
//! does: it never touches the data except through the algebraic operators of
//! [`crate::ops`], and it logs every MIL statement it issues, so the
//! generated "script" can be inspected (and asserted on) by callers. The
//! only piece of logic outside the operators is scalar arithmetic on bounds
//! and the composition of candidate lists across iterations, both of which
//! MIL performs with ordinary scalar expressions.

use vdstore::bat::{Bat, OidBat};
use vdstore::topk::Scored;
use vdstore::{descending_nan_last, DecomposedTable, Result, RowId, TopKLargest, VdError};

use crate::ops;

/// The result of running the algebraic BOND-Hq plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MilRun {
    /// The k best rows (original OIDs) with their exact similarities, best
    /// first.
    pub hits: Vec<Scored>,
    /// The MIL statements executed, in order.
    pub script: Vec<String>,
    /// Surviving candidates after each pruning step.
    pub candidates_per_step: Vec<usize>,
}

/// The BOND-Hq plan: k nearest neighbours under histogram intersection,
/// pruning every `m` dimensions with the query-only criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BondHqProgram {
    /// Number of results requested.
    pub k: usize,
    /// Dimensions scanned between pruning steps.
    pub m: usize,
}

impl BondHqProgram {
    /// Creates the plan. `k` and `m` must be positive.
    pub fn new(k: usize, m: usize) -> Result<Self> {
        if k == 0 {
            return Err(VdError::InvalidK { k, rows: 0 });
        }
        if m == 0 {
            return Err(VdError::InvalidArgument("m must be positive".into()));
        }
        Ok(BondHqProgram { k, m })
    }

    /// Executes the plan against the dimensional fragments of `table`,
    /// processing the dimensions in decreasing order of the query values
    /// (the paper's default ordering).
    pub fn execute(&self, table: &DecomposedTable, query: &[f64]) -> Result<MilRun> {
        let dims = table.dims();
        let rows = table.rows();
        if query.len() != dims {
            return Err(VdError::DimensionMismatch { expected: dims, actual: query.len() });
        }
        if self.k > rows {
            return Err(VdError::InvalidK { k: self.k, rows });
        }

        // Dimension order: decreasing query value.
        let mut order: Vec<usize> = (0..dims).collect();
        order.sort_by(|&a, &b| descending_nan_last(query[a], query[b]));

        let mut script = Vec::new();
        let mut candidates_per_step = Vec::new();

        // The base fragments as dense BATs (Figure 3a).
        let mut fragments: Vec<Bat> =
            table.columns().iter().map(|c| Bat::dense(c.values().to_vec())).collect();
        // Candidate list: dense result position -> original OID.
        let mut candidates = OidBat::dense((0..rows as RowId).collect());
        // Accumulated partial similarity, aligned with the candidate list.
        let mut smin = Bat::dense(vec![0.0; rows]);

        let mut processed = 0usize;
        while processed < dims {
            let block: Vec<usize> = order[processed..(processed + self.m).min(dims)].to_vec();
            // Step 1: Di := [min](Hi, const Qi);  Smin := [+](Smin, D1, ..., Dm)
            let mut summands: Vec<Bat> = Vec::with_capacity(block.len());
            for &d in &block {
                script.push(format!("D{d} := [min](H{d}, const {:.6});", query[d]));
                summands.push(ops::map_min_const(&fragments[d], query[d]));
            }
            let mut inputs: Vec<&Bat> = vec![&smin];
            inputs.extend(summands.iter());
            script.push(format!(
                "Smin := [+](Smin, {});",
                block.iter().map(|d| format!("D{d}")).collect::<Vec<_>>().join(", ")
            ));
            smin = ops::map_add(&inputs)?;
            processed += block.len();

            if candidates.len() <= self.k || processed >= dims {
                break;
            }

            // Step 2: sk := Smin.kfetch(k); maxbound := sk - T(q+);
            //         C := Smin.uselect(maxbound, 1.0);
            // (For a normalized query, T(q+) = 1 - sumQ, so maxbound is the
            //  paper's `sk + sumQ - 1`.)
            let sk = ops::kfetch_largest(&smin, self.k)?;
            let remaining_query: f64 = order[processed..].iter().map(|&d| query[d]).sum();
            let maxbound = sk - remaining_query;
            script.push(format!("sk := Smin.kfetch({});", self.k));
            script.push(format!("maxbound := sk - {remaining_query:.6};"));
            script.push("C := Smin.uselect(maxbound, 1.0);".to_string());
            let selected = ops::uselect_range(&smin, maxbound, f64::INFINITY);

            // Compose the selection (positions within the current candidate
            // list) with the existing candidate list to recover original OIDs.
            let new_oids: Vec<RowId> =
                selected.tail().iter().map(|&pos| candidates.tail()[pos as usize]).collect();
            candidates = OidBat::dense(new_oids);
            candidates_per_step.push(candidates.len());

            // Step 3: Hi := C.reverse.join(Hi) for the remaining fragments,
            // and the same reduction for the accumulated Smin.
            script.push("Smin := C.reverse.join(Smin);".to_string());
            smin = ops::positional_join(&selected, &smin)?;
            for &d in &order[processed..] {
                script.push(format!("H{d} := C.reverse.join(H{d});"));
                fragments[d] = ops::positional_join(&selected, &fragments[d])?;
            }
            if candidates.len() <= self.k {
                break;
            }
        }

        // Finish: complete the exact similarity of the surviving candidates
        // over any unprocessed dimensions, then rank.
        if processed < dims {
            let mut inputs: Vec<Bat> = Vec::new();
            for &d in &order[processed..] {
                script.push(format!("D{d} := [min](H{d}, const {:.6});", query[d]));
                inputs.push(ops::map_min_const(&fragments[d], query[d]));
            }
            let mut refs: Vec<&Bat> = vec![&smin];
            refs.extend(inputs.iter());
            script.push("Smin := [+](Smin, ...);".to_string());
            smin = ops::map_add(&refs)?;
        }

        let mut heap = TopKLargest::new(self.k);
        for (pos, &score) in smin.tail().iter().enumerate() {
            heap.push(candidates.tail()[pos], score);
        }
        Ok(MilRun { hits: heap.into_sorted_vec(), script, candidates_per_step })
    }
}

/// Convenience wrapper: run the algebraic BOND-Hq plan with the paper's
/// default block size (`m = 8`).
pub fn run_bond_hq(table: &DecomposedTable, query: &[f64], k: usize) -> Result<MilRun> {
    BondHqProgram::new(k, 8)?.execute(table, query)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_table() -> DecomposedTable {
        DecomposedTable::from_vectors(
            "table2",
            &[
                vec![0.1, 0.3, 0.4, 0.2],
                vec![0.05, 0.05, 0.9, 0.0],
                vec![0.8, 0.1, 0.05, 0.05],
                vec![0.2, 0.6, 0.1, 0.1],
                vec![0.7, 0.15, 0.15, 0.0],
                vec![0.925, 0.0, 0.0, 0.025],
                vec![0.55, 0.2, 0.15, 0.1],
                vec![0.05, 0.1, 0.05, 0.8],
                vec![0.45, 0.5, 0.05, 0.05],
            ],
        )
        .unwrap()
    }

    #[test]
    fn plan_finds_the_paper_example_answer() {
        let table = example_table();
        let query = vec![0.7, 0.15, 0.1, 0.05];
        let program = BondHqProgram::new(3, 2).unwrap();
        let run = program.execute(&table, &query).unwrap();
        let mut rows: Vec<RowId> = run.hits.iter().map(|h| h.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![2, 4, 6]);
        // the first pruning step leaves 5 candidates (Section 4.2, rule Hq)
        assert_eq!(run.candidates_per_step.first().copied(), Some(5));
    }

    #[test]
    fn script_contains_the_mil_statements_of_section_6_1() {
        let table = example_table();
        let query = vec![0.7, 0.15, 0.1, 0.05];
        let run = BondHqProgram::new(3, 2).unwrap().execute(&table, &query).unwrap();
        let script = run.script.join("\n");
        assert!(script.contains("[min](H0, const 0.700000)"));
        assert!(script.contains("Smin := [+]"));
        assert!(script.contains("Smin.kfetch(3)"));
        assert!(script.contains("C := Smin.uselect(maxbound, 1.0);"));
        assert!(script.contains("C.reverse.join(H"));
    }

    #[test]
    fn validation() {
        let table = example_table();
        assert!(BondHqProgram::new(0, 2).is_err());
        assert!(BondHqProgram::new(2, 0).is_err());
        let p = BondHqProgram::new(3, 2).unwrap();
        assert!(p.execute(&table, &[0.5; 3]).is_err());
        let p = BondHqProgram::new(99, 2).unwrap();
        assert!(p.execute(&table, &[0.25; 4]).is_err());
    }

    #[test]
    fn run_bond_hq_defaults_work_on_single_block() {
        let table = example_table();
        let query = vec![0.7, 0.15, 0.1, 0.05];
        // m = 8 > 4 dims: degenerates into one full scan, still correct
        let run = run_bond_hq(&table, &query, 1).unwrap();
        assert_eq!(run.hits[0].row, 4);
        assert!((run.hits[0].score - 0.95).abs() < 1e-12);
    }
}
