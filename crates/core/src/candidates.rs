//! Candidate-set representations.
//!
//! Section 6.1: while selectivity is still low, materialising the surviving
//! candidates into new base tables would copy most of the collection, so the
//! early iterations represent the candidate set as a *bitmap* over the dense
//! row ids; once the set has shrunk enough, the engine switches to an
//! explicit row-id list ("the 'standard' positional joins approach,
//! resulting in much smaller base tables for the subsequent iterations").
//! [`CandidateSet`] encapsulates both phases behind one interface and
//! performs the switch automatically.

use vdstore::{Bitmap, RowId};

use crate::kernels::{self, Kernel, SurviveTest};

/// Rows per candidate-bitmap word — the granularity at which the word-wise
/// passes (this module's, the quantized filter's sweep) skip dead rows and
/// one survive mask tests.
pub(crate) const WORD_ROWS: usize = kernels::MASK_ROWS;

/// The evolving candidate set of a BOND search.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateSet {
    /// Early phase: a bitmap over all row ids.
    Bits(Bitmap),
    /// Late phase: an explicit, ascending list of surviving row ids.
    List(Vec<RowId>),
}

impl CandidateSet {
    /// Starts from the given live-row bitmap (all non-deleted rows, possibly
    /// pre-filtered by another predicate as Section 6.1 suggests).
    pub fn from_bitmap(live: Bitmap) -> Self {
        CandidateSet::Bits(live)
    }

    /// Starts with every row of an `rows`-row table alive.
    pub fn all(rows: usize) -> Self {
        CandidateSet::Bits(Bitmap::full(rows))
    }

    /// Number of surviving candidates.
    pub fn len(&self) -> usize {
        match self {
            CandidateSet::Bits(b) => b.count(),
            CandidateSet::List(l) => l.len(),
        }
    }

    /// Whether no candidates survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set is still in the bitmap phase.
    pub fn is_bitmap(&self) -> bool {
        matches!(self, CandidateSet::Bits(_))
    }

    /// Calls `f` for every surviving row id, in ascending order.
    pub fn for_each(&self, mut f: impl FnMut(RowId)) {
        match self {
            CandidateSet::Bits(b) => {
                for row in b.iter() {
                    f(row);
                }
            }
            CandidateSet::List(l) => {
                for &row in l {
                    f(row);
                }
            }
        }
    }

    /// Calls `f(slot, row)`, in ascending order, for the candidates whose
    /// value `sign · values[slot]` is above the bar `f` returned last
    /// (every candidate until `f` first returns `Some`) — the κ-entry
    /// test: `f` offers the row to a k-heap and returns the heap's k-th
    /// score, and a value that merely ties it could not raise it.
    ///
    /// A candidate's *slot* is where per-candidate scratch for it lives: its
    /// row id while the set is a bitmap (`values` covers the whole
    /// segment), its position once the set is a list (`values` covers the
    /// list only).
    ///
    /// In the bitmap phase the test is one [`kernels::survive_mask`] per
    /// 64-row word, taken before `f` sees any row of it: values of rows
    /// that are not candidates may be garbage (the answer is ignored), and
    /// a bar `f` raises reaches the test a word late — fine for a filter
    /// that only spares `f` work it would itself reject. In the list phase
    /// the same predicate runs per position, against the latest bar.
    ///
    /// # Panics
    /// Panics if `values` does not cover exactly the set's slots.
    pub fn for_each_slot_above(
        &self,
        kernel: Kernel,
        values: &[f64],
        sign: f64,
        mut f: impl FnMut(usize, RowId) -> Option<f64>,
    ) {
        let above = |bar| SurviveTest { sign, add: 0.0, bar, inclusive: true };
        let mut bar: Option<f64> = None;
        match self {
            CandidateSet::Bits(b) => {
                assert_eq!(values.len(), b.len(), "values must cover every row of the bitmap");
                for (index, &word) in b.words().iter().enumerate() {
                    if word == 0 {
                        continue;
                    }
                    let mut hits = match bar {
                        Some(bar) => {
                            let x = word_values(values, index);
                            word & kernels::survive_mask(kernel, above(bar), x, 1, 0)
                        }
                        None => word,
                    };
                    while hits != 0 {
                        let row = index * WORD_ROWS + hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        bar = f(row, row as RowId);
                    }
                }
            }
            CandidateSet::List(l) => {
                assert_eq!(values.len(), l.len(), "values must cover every listed row");
                for (pos, (&row, &value)) in l.iter().zip(values).enumerate() {
                    if bar.is_none_or(|bar| above(bar).survives(value)) {
                        bar = f(pos, row);
                    }
                }
            }
        }
    }

    /// Retains only the candidates whose value `values[slot]` (slots as in
    /// [`CandidateSet::for_each_slot_above`]) passes `test`; returns the
    /// number of rows removed. In the bitmap phase each word is AND-ed
    /// with its [`kernels::survive_mask`], so values of rows that are not
    /// candidates are tested too and the answer for them is ignored; in
    /// the list phase the same predicate runs per position.
    ///
    /// # Panics
    /// Panics if `values` does not cover exactly the set's slots.
    pub fn retain(&mut self, kernel: Kernel, values: &[f64], test: SurviveTest) -> usize {
        match self {
            CandidateSet::Bits(b) => {
                assert_eq!(values.len(), b.len(), "values must cover every row of the bitmap");
                b.retain_words(|index| {
                    kernels::survive_mask(kernel, test, word_values(values, index), 1, 0)
                })
            }
            CandidateSet::List(l) => {
                assert_eq!(values.len(), l.len(), "values must cover every listed row");
                let before = l.len();
                let mut values = values.iter();
                l.retain(|_| values.next().is_some_and(|&value| test.survives(value)));
                before - l.len()
            }
        }
    }

    /// Materialises the bitmap into an explicit row list if the surviving
    /// fraction has dropped below `threshold` (a no-op in the list phase).
    /// Returns `true` if a switch happened.
    pub fn maybe_materialize(&mut self, threshold: f64) -> bool {
        if let CandidateSet::Bits(b) = self {
            if b.density() <= threshold {
                let list = b.to_rows();
                *self = CandidateSet::List(list);
                return true;
            }
        }
        false
    }

    /// The explicit row list, when the set has been materialised — the
    /// gathered scan kernels read it directly instead of re-collecting.
    pub fn as_list(&self) -> Option<&[RowId]> {
        match self {
            CandidateSet::Bits(_) => None,
            CandidateSet::List(l) => Some(l),
        }
    }

    /// The surviving row ids as a vector (ascending).
    pub fn to_rows(&self) -> Vec<RowId> {
        match self {
            CandidateSet::Bits(b) => b.to_rows(),
            CandidateSet::List(l) => l.clone(),
        }
    }
}

/// The values of bitmap word `index`'s rows — the last word's may be
/// fewer than 64.
fn word_values(values: &[f64], index: usize) -> &[f64] {
    let start = index * WORD_ROWS;
    &values[start..(start + WORD_ROWS).min(values.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_len() {
        let c = CandidateSet::all(100);
        assert_eq!(c.len(), 100);
        assert!(c.is_bitmap());
        assert!(!c.is_empty());
        assert!(CandidateSet::List(vec![]).is_empty());
    }

    #[test]
    fn from_bitmap_respects_prior_predicate() {
        let live = Bitmap::from_rows(10, &[1, 3, 5]);
        let c = CandidateSet::from_bitmap(live);
        assert_eq!(c.to_rows(), vec![1, 3, 5]);
    }

    fn kernels() -> Vec<Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect()
    }

    /// Keeps a value of at least `bar`.
    fn at_least(bar: f64) -> SurviveTest {
        SurviveTest { sign: 1.0, add: 0.0, bar, inclusive: false }
    }

    #[test]
    fn retain_in_both_phases() {
        for kernel in kernels() {
            let mut c = CandidateSet::all(10);
            let even: Vec<f64> = (0..10).map(|r| f64::from(r % 2 == 0)).collect();
            let removed = c.retain(kernel, &even, at_least(1.0));
            assert_eq!(removed, 5);
            assert_eq!(c.to_rows(), vec![0, 2, 4, 6, 8]);

            // list phase: the slot is the position, not the row id
            let mut l = CandidateSet::List(vec![0, 2, 4, 6, 8]);
            let removed = l.retain(kernel, &[0.0, 1.0, 2.0, 3.0, 4.0], at_least(2.0));
            assert_eq!(removed, 2);
            assert_eq!(l.to_rows(), vec![4, 6, 8]);
        }
    }

    #[test]
    fn for_each_visits_ascending() {
        let c = CandidateSet::List(vec![2, 5, 9]);
        let mut seen = Vec::new();
        c.for_each(|r| seen.push(r));
        assert_eq!(seen, vec![2, 5, 9]);
    }

    #[test]
    fn slots_are_rows_in_a_bitmap_and_positions_in_a_list() {
        let rows = vec![2, 70, 129];
        for kernel in kernels() {
            let mut seen = Vec::new();
            CandidateSet::from_bitmap(Bitmap::from_rows(130, &rows)).for_each_slot_above(
                kernel,
                &[0.0; 130],
                1.0,
                |slot, row| {
                    seen.push((slot, row));
                    None
                },
            );
            assert_eq!(seen, vec![(2, 2), (70, 70), (129, 129)]);
            seen.clear();
            CandidateSet::List(rows.clone()).for_each_slot_above(
                kernel,
                &[0.0; 3],
                1.0,
                |slot, row| {
                    seen.push((slot, row));
                    None
                },
            );
            assert_eq!(seen, vec![(0, 2), (1, 70), (2, 129)]);
        }
    }

    #[test]
    fn slot_filter_is_asked_a_word_ahead_in_a_bitmap_and_row_by_row_in_a_list() {
        // every slot's sign-folded value is its own index and `f` raises
        // the bar to each slot it sees plus 100: a list filters every later
        // slot out, a bitmap only learns of the new bar with the next word
        let rows = vec![1, 3, 64, 66, 129];
        for kernel in kernels() {
            for sign in [1.0, -1.0] {
                let visit = |set: &CandidateSet, values: &[f64]| {
                    let mut seen = Vec::new();
                    set.for_each_slot_above(kernel, values, sign, |slot, row| {
                        seen.push(row);
                        Some(slot as f64 + 100.0)
                    });
                    seen
                };
                let by_row: Vec<f64> = (0..130).map(|slot| sign * slot as f64).collect();
                let bitmap = CandidateSet::from_bitmap(Bitmap::from_rows(130, &rows));
                assert_eq!(visit(&bitmap, &by_row), [1, 3, 129]);
                let by_position: Vec<f64> = (0..rows.len()).map(|pos| sign * pos as f64).collect();
                assert_eq!(visit(&CandidateSet::List(rows.clone()), &by_position), [1]);
                // a value that only ties the bar does not pass
                let ties = vec![sign * 101.0; 130];
                let tied = CandidateSet::from_bitmap(Bitmap::from_rows(130, &[1, 64]));
                assert_eq!(visit(&tied, &ties), [1]);
            }
        }
    }

    #[test]
    fn bitmap_retain_ignores_answers_for_rows_that_are_not_candidates() {
        // 130 rows, candidates in the first and the trailing partial word;
        // every non-candidate fails the test, and NaN keeps its row
        for kernel in kernels() {
            let mut c = CandidateSet::from_bitmap(Bitmap::from_rows(130, &[0, 7, 63, 128, 129]));
            let mut values = vec![-1.0; 130];
            for (row, value) in [(0, 1.0), (7, -1.0), (63, f64::NAN), (128, 1.0), (129, -1.0)] {
                values[row] = value;
            }
            assert_eq!(c.retain(kernel, &values, at_least(0.0)), 2);
            assert_eq!(c.to_rows(), vec![0, 63, 128]);
        }
    }

    #[test]
    fn as_list_only_in_list_phase() {
        assert_eq!(CandidateSet::all(4).as_list(), None);
        assert_eq!(CandidateSet::List(vec![1, 2]).as_list(), Some(&[1u32, 2u32][..]));
    }

    #[test]
    fn materialization_switch() {
        let mut c = CandidateSet::all(100);
        // density 1.0: no switch at threshold 0.2
        assert!(!c.maybe_materialize(0.2));
        assert!(c.is_bitmap());
        let rows: Vec<f64> = (0..100).map(|r| -f64::from(r)).collect();
        c.retain(Kernel::Scalar, &rows, at_least(-9.0));
        // density 0.1 <= 0.2: switch
        assert!(c.maybe_materialize(0.2));
        assert!(!c.is_bitmap());
        assert_eq!(c.len(), 10);
        // second call is a no-op
        assert!(!c.maybe_materialize(0.2));
    }
}
