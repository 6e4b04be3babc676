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

/// Rows per candidate-bitmap word — the granularity at which the word-wise
/// passes (this module's, the quantized filter's sweep) skip dead rows.
pub(crate) const WORD_ROWS: usize = 64;

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

    /// Calls `f(slot, row)`, in ascending order, for the surviving rows
    /// whose slot passes `pass`.
    ///
    /// A candidate's *slot* is where per-candidate scratch for it lives: its
    /// row id while the set is a bitmap (scratch covers the whole segment),
    /// its position once the set is a list (scratch covers the list only).
    ///
    /// In the bitmap phase `pass` runs 64 rows at a time, before `f` sees
    /// any row of that word: it is also asked about rows that are not
    /// candidates (their scratch may be garbage; the answer is ignored),
    /// and state that `f` updates reaches it up to a word late — fine for
    /// a filter that only spares `f` work it would itself reject.
    pub fn for_each_slot_if(&self, pass: impl Fn(usize) -> bool, mut f: impl FnMut(usize, RowId)) {
        match self {
            CandidateSet::Bits(b) => {
                for (index, &word) in b.words().iter().enumerate() {
                    if word == 0 {
                        continue;
                    }
                    let mut hits = word & word_mask(index, b.len(), &pass);
                    while hits != 0 {
                        let row = index * WORD_ROWS + hits.trailing_zeros() as usize;
                        hits &= hits - 1;
                        f(row, row as RowId);
                    }
                }
            }
            CandidateSet::List(l) => {
                for (pos, &row) in l.iter().enumerate() {
                    if pass(pos) {
                        f(pos, row);
                    }
                }
            }
        }
    }

    /// Retains only the candidates whose slot (see
    /// [`CandidateSet::for_each_slot_if`]) passes `keep`; returns the
    /// number of rows removed. In the bitmap phase the test runs 64 rows at
    /// a time into a keep-mask that is AND-ed into the candidate word, so
    /// `keep` is also asked about rows that are not candidates and its
    /// answer for them is ignored.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) -> usize {
        match self {
            CandidateSet::Bits(b) => {
                let rows = b.len();
                b.retain_words(|index| word_mask(index, rows, &keep))
            }
            CandidateSet::List(l) => {
                let before = l.len();
                let mut pos = 0;
                l.retain(|_| {
                    pos += 1;
                    keep(pos - 1)
                });
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

/// Bit `b` of the result is `test(index * 64 + b)`, for the rows of word
/// `index` that exist in a `rows`-row bitmap — branch-free, whatever the
/// word holds.
fn word_mask(index: usize, rows: usize, test: impl Fn(usize) -> bool) -> u64 {
    let base = index * WORD_ROWS;
    let mut mask = 0u64;
    for bit in 0..(rows - base).min(WORD_ROWS) {
        mask |= u64::from(test(base + bit)) << bit;
    }
    mask
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

    #[test]
    fn retain_in_both_phases() {
        let mut c = CandidateSet::all(10);
        let removed = c.retain(|r| r % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(c.to_rows(), vec![0, 2, 4, 6, 8]);

        // list phase: the slot is the position, not the row id
        let mut l = CandidateSet::List(vec![0, 2, 4, 6, 8]);
        let removed = l.retain(|pos| pos >= 2);
        assert_eq!(removed, 2);
        assert_eq!(l.to_rows(), vec![4, 6, 8]);
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
        let mut seen = Vec::new();
        CandidateSet::from_bitmap(Bitmap::from_rows(130, &rows))
            .for_each_slot_if(|_| true, |slot, row| seen.push((slot, row)));
        assert_eq!(seen, vec![(2, 2), (70, 70), (129, 129)]);
        seen.clear();
        CandidateSet::List(rows).for_each_slot_if(|_| true, |slot, row| seen.push((slot, row)));
        assert_eq!(seen, vec![(0, 2), (1, 70), (2, 129)]);
    }

    #[test]
    fn slot_filter_is_asked_a_word_ahead_in_a_bitmap_and_row_by_row_in_a_list() {
        // `pass` admits slots above a bar that `f` raises to each slot it
        // sees: a list filters every later slot out, a bitmap only learns
        // of the new bar with the next 64-row word
        let rows = vec![1, 3, 64, 66, 129];
        let visit = |set: &CandidateSet| {
            let bar = std::cell::Cell::new(0usize);
            let mut seen = Vec::new();
            set.for_each_slot_if(
                |slot| {
                    assert!(slot < 130, "never asked past the last row");
                    slot >= bar.get()
                },
                |slot, row| {
                    bar.set(slot + 100);
                    seen.push(row);
                },
            );
            seen
        };
        assert_eq!(visit(&CandidateSet::from_bitmap(Bitmap::from_rows(130, &rows))), [1, 3, 129]);
        assert_eq!(visit(&CandidateSet::List(rows)), [1]);
    }

    #[test]
    fn bitmap_retain_ignores_answers_for_rows_that_are_not_candidates() {
        // 130 rows, candidates in the first and the trailing partial word;
        // `keep` says yes to every non-candidate and is never asked about
        // a slot past the last row
        let mut c = CandidateSet::from_bitmap(Bitmap::from_rows(130, &[0, 7, 63, 128, 129]));
        let removed = c.retain(|slot| {
            assert!(slot < 130);
            ![7, 129].contains(&slot)
        });
        assert_eq!(removed, 2);
        assert_eq!(c.to_rows(), vec![0, 63, 128]);
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
        c.retain(|r| r < 10);
        // density 0.1 <= 0.2: switch
        assert!(c.maybe_materialize(0.2));
        assert!(!c.is_bitmap());
        assert_eq!(c.len(), 10);
        // second call is a no-op
        assert!(!c.maybe_materialize(0.2));
    }
}
