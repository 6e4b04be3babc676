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
//!
//! It is the candidate set of both spaces BOND runs in — the quantized
//! code sweep, which stays in the bitmap phase, and the exact search — and
//! carries the one pruning pass their shared block loop runs between
//! blocks: drop what cannot reach κ, offer the rest to the κ heap, 64 rows
//! at a time while the set is a bitmap. The pass reads bounds stored per
//! slot (the code sweep's, a row list's) or, in the exact search's bitmap
//! steps, computes them as it goes: the rule's closed-form optimistic bound
//! of a word's rows straight from their partial scores and masses, and the
//! pessimistic bound of the keepers only, where the κ heap needs it.

use std::ops::Range;

use vdstore::{Bitmap, RowId, TopKLargest};

use crate::bond_loop::Bounds;
use crate::kernels::{self, Kernel, SurviveTest};

/// Rows per candidate-bitmap word — the granularity at which the word-wise
/// passes (the pruning pass, the code sweep's word runs) skip dead rows and
/// one survive mask tests.
pub(crate) const WORD_ROWS: usize = kernels::MASK_ROWS;

/// Candidates a bitmap word must hold for the pruning pass to test all its
/// 64 rows with one [`kernels::survive_mask`]; a thinner word tests its set
/// bits one by one. A per-word choice from what the pass observes: in
/// measured runs the full-word mask lost to the bit loop on words a random
/// 10 % filter leaves (about six candidates each) and won on dense ones.
pub(crate) const MASK_MIN_CANDIDATES: u32 = 16;

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

    /// One pruning pass over the candidates' *slots* — a candidate's slot
    /// is its row id while the set is a bitmap (`bounds` cover the whole
    /// segment), its position once the set is a list (`bounds` cover the
    /// list only). Clears every candidate whose optimistic bound fails
    /// `keep` (`None` keeps all) and, with `best`, empties it and offers it
    /// every keeper's sign-folded heap bound ([`Bounds::heap`]), in
    /// ascending slot order. Returns the number of candidates removed.
    ///
    /// In the bitmap phase a word holding at least [`MASK_MIN_CANDIDATES`]
    /// candidates is AND-ed with one survive mask of its 64 rows
    /// ([`Bounds::opt_mask`]: of the stored bounds, or of a rule's closed
    /// form straight from the rows' partial scores and masses), so rows
    /// that are not candidates are tested too and the answer for them
    /// ignored; a thinner word tests its set bits one by one with the same
    /// predicate. Each word offers `best` only the keepers whose heap bound
    /// is not below the heap's weakest entry *at the start of the word* —
    /// one survive mask of stored heap bounds, or a rule's pessimistic
    /// bound computed for each keeper — exact, because the weakest only
    /// rises while the heap is full, until a NaN bound enters it (NaN
    /// compares equal to every score, so the heap's order no longer holds)
    /// and every keeper is offered from then on. In the list phase every
    /// position runs the predicate and every keeper is offered.
    pub(crate) fn prune(
        &mut self,
        kernel: Kernel,
        keep: Option<SurviveTest>,
        bounds: &Bounds<'_>,
        best: Option<&mut TopKLargest>,
    ) -> usize {
        let mut offers = best.map(|best| {
            best.clear();
            Offers { best, sign: bounds.sign, offered_nan: false, computed: [0.0; WORD_ROWS] }
        });
        match self {
            CandidateSet::Bits(bits) => {
                let rows = bits.len();
                bits.retain_words(|index, word| {
                    let start = index * WORD_ROWS;
                    let window = start..(start + WORD_ROWS).min(rows);
                    let kept = match keep {
                        None => word,
                        Some(test) if word.count_ones() >= MASK_MIN_CANDIDATES => {
                            word & bounds.opt_mask(kernel, test, window.clone())
                        }
                        Some(test) => bounds.opt_bits(test, window.clone(), word),
                    };
                    if let Some(offers) = offers.as_mut() {
                        offers.word(kernel, bounds, window, kept);
                    }
                    kept
                })
            }
            CandidateSet::List(list) => {
                let before = list.len();
                let mut slot = 0;
                list.retain(|&row| {
                    let kept = keep.is_none_or(|test| test.survives(bounds.opt(slot)));
                    if let Some(offers) = offers.as_mut().filter(|_| kept) {
                        offers.push(row, bounds.heap(slot));
                    }
                    slot += 1;
                    kept
                });
                before - list.len()
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

/// The κ heap a pruning pass offers its keepers to.
struct Offers<'h> {
    best: &'h mut TopKLargest,
    sign: f64,
    /// Whether a NaN bound has been offered: from then on every keeper is.
    offered_nan: bool,
    /// A word's computed heap bounds ([`Bounds::heap_word`]).
    computed: [f64; WORD_ROWS],
}

impl Offers<'_> {
    /// Offers one keeper's heap bound, sign-folded.
    fn push(&mut self, row: RowId, heap: f64) {
        offer(self.best, self.sign, &mut self.offered_nan, row, heap);
    }

    /// Offers the keepers `kept` of the bitmap word over the rows `window`
    /// whose heap bound reaches the heap's weakest entry as the word
    /// starts (every keeper while the heap is not full, or after a NaN):
    /// one survive mask of the word's heap bounds — stored (a rule's
    /// partial scores too, under [`crate::bond_loop::Proof::Probe`]), or
    /// computed for its keepers only ([`Bounds::heap_word`]), where the
    /// mask's answers for the other rows are ignored — or, for fewer than
    /// [`MASK_MIN_CANDIDATES`] computed keepers, the same predicate keeper
    /// by keeper.
    fn word(&mut self, kernel: Kernel, bounds: &Bounds<'_>, window: Range<usize>, kept: u64) {
        if kept == 0 {
            return;
        }
        let Offers { best, sign, offered_nan, computed } = self;
        let start = window.start;
        let reaches = best.kth().filter(|_| !*offered_nan).map(|weakest| SurviveTest {
            sign: *sign,
            add: 0.0,
            bar: weakest,
        });
        let computes = bounds.computes_heap();
        let heap = bounds.heap_word(window, kept, computed);
        let offers = match reaches {
            None => kept,
            Some(test) if computes && kept.count_ones() < MASK_MIN_CANDIDATES => set_bits(kept)
                .fold(0, |mask, bit| mask | u64::from(test.survives(heap[bit])) << bit),
            Some(test) => kept & kernels::survive_mask(kernel, test, heap),
        };
        for bit in set_bits(offers) {
            offer(best, *sign, offered_nan, (start + bit) as RowId, heap[bit]);
        }
    }
}

/// Offers one keeper's heap bound to `best`, sign-folded, noting a NaN.
fn offer(best: &mut TopKLargest, sign: f64, offered_nan: &mut bool, row: RowId, heap: f64) {
    let score = sign * heap;
    *offered_nan |= score.is_nan();
    best.push(row, score);
}

/// The set bit positions of one bitmap word, lowest first.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// The row ranges covered by maximal runs of non-empty candidate words
/// (the last one clamped to `rows`).
pub(crate) fn word_runs(cand: &[u64], rows: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut w = 0usize;
    std::iter::from_fn(move || {
        while w < cand.len() && cand[w] == 0 {
            w += 1;
        }
        if w == cand.len() {
            return None;
        }
        let first = w;
        while w < cand.len() && cand[w] != 0 {
            w += 1;
        }
        Some(first * WORD_ROWS..(w * WORD_ROWS).min(rows))
    })
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
    fn at_least(bar: f64) -> Option<SurviveTest> {
        Some(SurviveTest { sign: 1.0, add: 0.0, bar })
    }

    /// One value per slot, as both the optimistic and the heap bound,
    /// larger is better.
    fn slot_bounds(values: &[f64]) -> Bounds<'_> {
        Bounds::stored(values, values, 1.0, 0.0)
    }

    /// A heap's entries as comparable bits, in row order.
    fn entries(best: &TopKLargest) -> Vec<(RowId, u64)> {
        let mut entries: Vec<(RowId, u64)> =
            best.iter().map(|entry| (entry.row, entry.score.to_bits())).collect();
        entries.sort_unstable();
        entries
    }

    #[test]
    fn retain_in_both_phases() {
        for kernel in kernels() {
            let mut c = CandidateSet::all(10);
            let even: Vec<f64> = (0..10).map(|r| f64::from(r % 2 == 0)).collect();
            let removed = c.prune(kernel, at_least(1.0), &slot_bounds(&even), None);
            assert_eq!(removed, 5);
            assert_eq!(c.to_rows(), vec![0, 2, 4, 6, 8]);

            // list phase: the slot is the position, not the row id
            let mut l = CandidateSet::List(vec![0, 2, 4, 6, 8]);
            let values = [0.0, 1.0, 2.0, 3.0, 4.0];
            let removed = l.prune(kernel, at_least(2.0), &slot_bounds(&values), None);
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
            let mut best = TopKLargest::new(3);
            let by_row: Vec<f64> = (0..130).map(f64::from).collect();
            let mut bitmap = CandidateSet::from_bitmap(Bitmap::from_rows(130, &rows));
            bitmap.prune(kernel, None, &slot_bounds(&by_row), Some(&mut best));
            let offered =
                |pairs: [(RowId, f64); 3]| pairs.map(|(row, s)| (row, s.to_bits())).to_vec();
            assert_eq!(entries(&best), offered([(2, 2.0), (70, 70.0), (129, 129.0)]));
            let by_position = [10.0, 20.0, 30.0];
            let mut list = CandidateSet::List(rows.clone());
            list.prune(kernel, None, &slot_bounds(&by_position), Some(&mut best));
            assert_eq!(entries(&best), offered([(2, 10.0), (70, 20.0), (129, 30.0)]));
        }
    }

    #[test]
    fn slot_filter_is_asked_a_word_ahead_in_a_bitmap_and_row_by_row_in_a_list() {
        // A bitmap word offers the heap only the keepers that reach its
        // weakest entry as the word starts, a list offers every keeper.
        // Either way the heap must end exactly as if every keeper had been
        // offered in slot order: values that rise inside a word (the bar a
        // word late), values that tie the bar (a tie with a higher row
        // replaces the weakest) and NaN (which stops the weakest rising).
        type Pattern = (&'static str, fn(usize) -> f64);
        let patterns: [Pattern; 4] = [
            ("rising", |slot| slot as f64),
            ("falling", |slot| -(slot as f64)),
            ("ties", |slot| (slot % 3) as f64),
            ("nan", |slot| if slot % 29 == 5 { f64::NAN } else { ((slot * 37) % 23) as f64 }),
        ];
        // two dense words, then two thin ones
        let rows: Vec<RowId> =
            (0..200).filter(|r| r % 7 != 3 && (*r < 128 || r % 5 == 0)).collect();
        for kernel in kernels() {
            for (name, value) in patterns {
                for k in [1, 3, 17] {
                    for sign in [1.0, -1.0] {
                        let by_row: Vec<f64> = (0..200).map(|slot| sign * value(slot)).collect();
                        let by_position: Vec<f64> =
                            (0..rows.len()).map(|slot| sign * value(slot)).collect();
                        for (mut set, values) in [
                            (CandidateSet::from_bitmap(Bitmap::from_rows(200, &rows)), &by_row),
                            (CandidateSet::List(rows.clone()), &by_position),
                        ] {
                            let bounds = Bounds { sign, ..slot_bounds(values) };
                            let mut best = TopKLargest::new(k);
                            set.prune(kernel, None, &bounds, Some(&mut best));
                            let mut every = TopKLargest::new(k);
                            let mut position = 0;
                            set.for_each(|row| {
                                let slot = if set.is_bitmap() { row as usize } else { position };
                                position += 1;
                                every.push(row, sign * values[slot]);
                            });
                            let ctx =
                                format!("{name} k={k} sign={sign} bitmap={}", set.is_bitmap());
                            assert_eq!(entries(&best), entries(&every), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// A rule's bounds computed where the pass reads them — the closed
    /// optimistic form a word at a time, and the pessimistic bound per
    /// keeper or, under the probe proof, the partial score — prune and
    /// offer exactly what the same bounds stored for every row do: the
    /// same rows kept, the same heap entries. All six rules, both proofs,
    /// NaN and ±∞ among the partial scores and masses, dense and thin
    /// words, no κ and three bars, three `k`.
    #[test]
    fn rule_bounds_prune_and_offer_as_their_stored_bounds_do() {
        use crate::bond_loop::{Proof, RuleState, Slots};
        use bond_metrics::{
            EqRule, EvRule, HhRule, HqRule, Objective, PruningRule, WeightedEvRule, WeightedHqRule,
        };

        const ROWS: usize = 200;
        let mut state = 0x0FF5_E7B0_D5EE_D048u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut value = |scale: f64| match next() % 16 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            r => scale * r as f64 / 16.0,
        };
        let partial: Vec<f64> = (0..ROWS).map(|_| value(1.0)).collect();
        let scanned: Vec<f64> = (0..ROWS).map(|_| value(0.5)).collect();
        let total: Vec<f64> = (0..ROWS).map(|_| value(1.5)).collect();
        // two dense words, then thin ones
        let rows: Vec<RowId> = (0..ROWS as RowId).filter(|r| *r < 128 || r % 7 == 2).collect();
        let query = [0.3, 0.0, 0.5, 0.2, 0.1];
        let weights = [1.0, 0.0, 2.0, 0.5, 1.5];
        let rules = || -> [Box<dyn PruningRule>; 6] {
            [
                Box::new(HqRule::new()),
                Box::new(HhRule::new()),
                Box::new(EqRule::new()),
                Box::new(EvRule::new()),
                Box::new(WeightedHqRule::new(weights.to_vec())),
                Box::new(WeightedEvRule::new(weights.to_vec())),
            ]
        };
        // (which NaN a NaN input yields is not pinned down)
        let canonical = |entries: Vec<(RowId, u64)>| -> Vec<(RowId, u64)> {
            let nan = f64::NAN.to_bits();
            entries
                .into_iter()
                .map(|(row, bits)| (row, if f64::from_bits(bits).is_nan() { nan } else { bits }))
                .collect()
        };
        let mut kept_somewhere = 0;
        for kernel in kernels() {
            for mut rule in rules() {
                rule.prepare(&query, &[1, 2, 4]);
                let rule = rule.as_ref();
                let (mut lower, mut upper) = (vec![0.0; ROWS], vec![0.0; ROWS]);
                rule.bounds_all(&partial, Some(&scanned), Some(&total), &mut lower, &mut upper);
                let (opt, heap, sign) = match rule.objective() {
                    Objective::Maximize => (&upper, &lower, 1.0),
                    Objective::Minimize => (&lower, &upper, -1.0),
                };
                let computed = |proof| {
                    let state = RuleState {
                        rule,
                        tail: rule.optimistic_tail(),
                        partial: &partial,
                        scanned_mass: Some(&scanned),
                        total_mass: Some(&total),
                        proof,
                    };
                    Bounds { slots: Slots::Rule(state), sign, opt_add: 0.0 }
                };
                let proofs = [
                    (Bounds::stored(opt, heap, sign, 0.0), computed(Proof::Heap)),
                    (
                        Bounds::stored(opt, &partial, sign, 0.0),
                        computed(Proof::Probe { after_last: false }),
                    ),
                ];
                for (stored, computed) in &proofs {
                    for bar in [None, Some(0.2), Some(0.6), Some(1.1)] {
                        let keep = bar.map(|bar| SurviveTest { sign, add: 0.0, bar: sign * bar });
                        for k in [1, 3, 17] {
                            let mut outcomes = Vec::new();
                            for bounds in [stored, computed] {
                                let rows = Bitmap::from_rows(ROWS, &rows);
                                let mut set = CandidateSet::from_bitmap(rows);
                                let mut best = TopKLargest::new(k);
                                let removed = set.prune(kernel, keep, bounds, Some(&mut best));
                                outcomes.push((removed, set.to_rows(), canonical(entries(&best))));
                            }
                            let ctx = format!(
                                "{} {} bar {bar:?} k {k} heap computed {}",
                                kernel.label(),
                                rule.name(),
                                computed.computes_heap()
                            );
                            assert_eq!(outcomes[1], outcomes[0], "{ctx}");
                            kept_somewhere += usize::from(outcomes[0].0 > 0);
                        }
                    }
                }
            }
        }
        assert!(kept_somewhere > 20, "only {kept_somewhere} passes removed a row");
    }

    #[test]
    fn bitmap_retain_ignores_answers_for_rows_that_are_not_candidates() {
        // 130 rows, candidates in the first and the trailing partial word;
        // every non-candidate fails the test, and NaN keeps its row — on a
        // thin word (bit by bit) and on a dense one (one survive mask)
        let dense: Vec<RowId> = (64..100).collect();
        for kernel in kernels() {
            for extra in [&[][..], &dense[..]] {
                let mut rows = vec![0, 7, 63, 128, 129];
                rows.extend_from_slice(extra);
                let mut c = CandidateSet::from_bitmap(Bitmap::from_rows(130, &rows));
                let mut values = vec![-1.0; 130];
                for (row, value) in [(0, 1.0), (7, -1.0), (63, f64::NAN), (128, 1.0), (129, -1.0)] {
                    values[row] = value;
                }
                for &row in extra {
                    values[row as usize] = if row % 2 == 0 { 1.0 } else { -1.0 };
                }
                let removed = c.prune(kernel, at_least(0.0), &slot_bounds(&values), None);
                assert_eq!(removed, 2 + extra.len() / 2);
                let mut kept = vec![0, 63];
                kept.extend(extra.iter().filter(|row| *row % 2 == 0));
                kept.push(128);
                assert_eq!(c.to_rows(), kept);
            }
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
        c.prune(Kernel::Scalar, at_least(-9.0), &slot_bounds(&rows), None);
        // density 0.1 <= 0.2: switch
        assert!(c.maybe_materialize(0.2));
        assert!(!c.is_bitmap());
        assert_eq!(c.len(), 10);
        // second call is a no-op
        assert!(!c.maybe_materialize(0.2));
    }
}
