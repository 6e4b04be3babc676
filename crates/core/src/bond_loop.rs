//! The one progressive BOND loop every search runs (Algorithm 2).
//!
//! Per block: sweep the next dimensions over the candidates, bound every
//! candidate, take κ as the k-th best safe bound, drop what cannot reach
//! it — until at most `k` candidates remain or the dimensions run out.
//! §7.4 runs that loop on VA-File-style codes; what is left after it is
//! refined exactly in bound order (`searcher`); the exact loop runs in
//! exact mode and after a code filter that proved no κ; §8.2 runs it over
//! the union of several feature collections' dimensions. What a block
//! sweeps, how a candidate is bounded and where κ is proven is a
//! [`BoundSource`]'s business, and there are three: the code intervals of
//! `quantfilter`, which carry only the optimistic bound; the exact partial
//! scores and pruning rule of `searcher` — while the candidates are a
//! bitmap the pass computes the bounds where it reads them
//! ([`Slots::Rule`]): the rule's closed-form optimistic bound a word at a
//! time, the pessimistic one only for the keepers the heap is offered; and
//! the synchronized multi-feature scan of `multifeature`, which drives one
//! exact-partials source per feature and bounds its candidates through the
//! query's aggregate.
//!
//! There are two ways to prove κ ([`Proof`]). The heap proves it at every
//! step from the `k` best pessimistic bounds of the candidates that pass
//! the κ the step carried in ([`Proof::Heap`]): the paper's Algorithm 2,
//! which an isolated exact search and the multi-feature scan run. A probe
//! proves it by completing `k` rows ([`Proof::Probe`]): after the first
//! block, only in a segment that carried no finite κ in (its own or the
//! shared cell's), and for the code source after its last block too;
//! every other step prunes with the κ it carried in and collects no heap.
//! The code source completes its `k` most promising rows' pessimistic code
//! bounds; an exact search that shares κ with its sibling segments
//! completes the exact scores of its `k` best partial scores, so its κ is
//! the weakest of `k` real final scores. The rest is written once, here:
//! the [`CandidateSet`] and its pruning pass, the sign-folded κ heap, the
//! block sizes ([`Blocks`]), κ sharing, and the per-thread [`Scratch`] the
//! single-table searches work in.
//!
//! Block sizes follow Corlay's rule (PAPERS.md) where the loop can observe
//! it: a pruning step must cost less than the work it removes. The code
//! source backs off — a step that removed nothing doubles the next block,
//! one that removed anything resets it — so a segment whose bounds are
//! still too loose pays `log₂(dims / 8)` steps for them, not `dims / 8`.
//! The exact source keeps its plan's schedule: the paper's `m`, which the
//! paper figures reproduce. The probe obeys the same rule, by
//! measurement rather than per step: after the first block it lifts a
//! cold segment's κ from nothing, but a κ carried in from a sibling
//! segment (visited first because it looked more promising) is usually
//! about as tight as it would prove, so a segment that carried one skips
//! it (`quantfilter`'s module docs give the numbers). For the same reason
//! a shared exact search does not prove κ again at every step: on the
//! benchmark's `serve_small`, the heap steps of segments that start with a
//! sibling's κ cost about 40 % of an engine query and prune almost
//! nothing more.
//!
//! All comparisons run in *goodness* space — scores and bounds multiplied
//! by `sign` (`+1` to maximize, `−1` to minimize) — where larger is better
//! under either objective. Negation is exact, so nothing is lost to it.

use std::cell::RefCell;
use std::ops::Range;

use vdstore::{Bitmap, TopKLargest};

use bond_metrics::{OptimisticTail, PruningRule};

use crate::candidates::{set_bits, CandidateSet, WORD_ROWS};
use crate::error::Result;
use crate::kappa::KappaCell;
use crate::kernels::{self, Kernel, SurviveTest};
use crate::quantfilter::QuantScratch;
use crate::schedule::BlockSchedule;
use crate::searcher::{prune_slack, RowState};

/// Every candidate's bounds after a block, at its slot (see
/// [`CandidateSet::prune`]).
pub(crate) struct Bounds<'a> {
    pub(crate) slots: Slots<'a>,
    /// `+1.0` under `Maximize`, `−1.0` under `Minimize`.
    pub(crate) sign: f64,
    /// Added to every optimistic bound before it is tested — the best the
    /// unswept dimensions can still add.
    pub(crate) opt_add: f64,
}

/// Where [`Bounds`] come from.
pub(crate) enum Slots<'a> {
    /// Both bounds stored at every slot.
    Stored {
        /// The optimistic bound the pruning pass tests against κ.
        opt: &'a [f64],
        /// What the κ heap collects of every keeper: its pessimistic bound
        /// where the heap proves κ ([`Proof::Heap`]); where a probe does
        /// ([`Proof::Probe`]), the code source's optimistic bound or an
        /// exact search's partial score — the heap then holds the `k` rows
        /// the probe completes.
        heap: &'a [f64],
    },
    /// A pruning rule's bounds of the rows' partial scores and masses,
    /// computed where they are read: the optimistic one from the rule's
    /// closed form, a word at a time ([`kernels::tail_mask`]), and under
    /// [`Proof::Heap`] the pessimistic one only for the keepers the κ heap
    /// is offered (under [`Proof::Probe`] the heap takes the stored partial
    /// scores). Only bitmap steps have them, whose slots are rows.
    Rule(RuleState<'a>),
}

/// The per-row state a [`PruningRule`] bounds, and the rule.
pub(crate) struct RuleState<'a> {
    pub(crate) rule: &'a dyn PruningRule,
    /// The rule's optimistic bound, under its current constants.
    pub(crate) tail: OptimisticTail,
    pub(crate) partial: &'a [f64],
    /// `T(x⁻)` and `T(x)`, where the rule keeps them (zeros otherwise).
    pub(crate) scanned_mass: Option<&'a [f64]>,
    pub(crate) total_mass: Option<&'a [f64]>,
    /// What the κ heap collects of a keeper: its pessimistic bound,
    /// computed per keeper ([`Proof::Heap`]), or its partial score as
    /// stored ([`Proof::Probe`], whose probe completes the `k` best).
    pub(crate) proof: Proof,
}

/// Masses of a word whose rule keeps none.
const NO_MASS: [f64; WORD_ROWS] = [0.0; WORD_ROWS];

impl RuleState<'_> {
    /// The masses of the rows `window` (at most one word), zeros where
    /// the rule keeps none.
    fn masses(&self, window: Range<usize>) -> (&[f64], &[f64]) {
        let none = &NO_MASS[..window.len()];
        let scanned = self.scanned_mass.map_or(none, |m| &m[window.clone()]);
        (scanned, self.total_mass.map_or(none, |t| &t[window]))
    }

    /// One row's state, for the per-candidate references of the tests.
    #[cfg(test)]
    fn candidate(&self, row: usize) -> bond_metrics::CandidateState {
        bond_metrics::CandidateState {
            partial: self.partial[row],
            scanned_mass: self.scanned_mass.map_or(0.0, |m| m[row]),
            total_mass: self.total_mass.map_or(0.0, |t| t[row]),
        }
    }
}

impl Bounds<'_> {
    /// Both bounds stored at every slot.
    pub(crate) fn stored<'a>(
        opt: &'a [f64],
        heap: &'a [f64],
        sign: f64,
        opt_add: f64,
    ) -> Bounds<'a> {
        Bounds { slots: Slots::Stored { opt, heap }, sign, opt_add }
    }

    /// The stored optimistic bound at `slot`, before `opt_add`. Only bitmap
    /// steps compute their bounds ([`Slots::Rule`]), and they read them a
    /// word at a time; a list step and the synchronized scan store theirs.
    pub(crate) fn opt(&self, slot: usize) -> f64 {
        match &self.slots {
            Slots::Stored { opt, .. } => opt[slot],
            Slots::Rule(_) => unreachable!("a rule's bounds are read a word at a time"),
        }
    }

    /// What the κ heap collects of the keeper at `slot` (see
    /// [`Slots::Stored`]); stored, as for [`Bounds::opt`].
    pub(crate) fn heap(&self, slot: usize) -> f64 {
        match &self.slots {
            Slots::Stored { heap, .. } => heap[slot],
            Slots::Rule(_) => unreachable!("a rule's bounds are read a word at a time"),
        }
    }

    /// Whether the heap bounds are computed per keeper ([`Bounds::heap_word`])
    /// rather than stored.
    pub(crate) fn computes_heap(&self) -> bool {
        matches!(&self.slots, Slots::Rule(state) if state.proof == Proof::Heap)
    }

    /// The heap bounds of the bitmap word over the slots `window`: the
    /// stored ones (a rule's partial scores under [`Proof::Probe`]), or a
    /// rule's pessimistic bounds of the rows set in `rows`, computed into
    /// `computed` (other entries are garbage).
    pub(crate) fn heap_word<'b>(
        &'b self,
        window: Range<usize>,
        rows: u64,
        computed: &'b mut [f64; WORD_ROWS],
    ) -> &'b [f64] {
        match &self.slots {
            Slots::Stored { heap, .. } => &heap[window],
            Slots::Rule(state) if state.proof != Proof::Heap => &state.partial[window],
            Slots::Rule(state) => {
                let computed = &mut computed[..window.len()];
                let scanned = state.scanned_mass.map(|m| &m[window.clone()]);
                let total = state.total_mass.map(|t| &t[window.clone()]);
                let partial = &state.partial[window];
                state.rule.pessimistic_word(rows, partial, scanned, total, computed);
                computed
            }
        }
    }

    /// The rows set in `rows` (bit `i` is the slot `window.start + i`) whose
    /// optimistic bound passes `test`, one row at a time.
    pub(crate) fn opt_bits(&self, test: SurviveTest, window: Range<usize>, rows: u64) -> u64 {
        let start = window.start;
        match &self.slots {
            Slots::Stored { opt, .. } => set_bits(rows)
                .filter(|&bit| test.survives(opt[start + bit]))
                .fold(0, |mask, bit| mask | 1 << bit),
            Slots::Rule(state) => {
                let (scanned, total) = state.masses(window.clone());
                kernels::tail_bits(state.tail, test, rows, &state.partial[window], scanned, total)
            }
        }
    }

    /// The survive mask of the optimistic bounds at the slots `window`
    /// (at most one word's).
    pub(crate) fn opt_mask(&self, kernel: Kernel, test: SurviveTest, window: Range<usize>) -> u64 {
        match &self.slots {
            Slots::Stored { opt, .. } => kernels::survive_mask(kernel, test, &opt[window]),
            Slots::Rule(state) => {
                let (scanned, total) = state.masses(window.clone());
                kernels::tail_mask(kernel, state.tail, test, &state.partial[window], scanned, total)
            }
        }
    }
}

/// Where a [`BoundSource`] proves κ, and so which steps collect the κ heap
/// and what they prune with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proof {
    /// The heap, at every step: a step first prunes with the κ it carried
    /// in — its own earlier κ or a sibling's, read from the shared cell —
    /// collects the `k` best pessimistic bounds of the keepers only, and
    /// prunes again when they prove a tighter κ. A row the first pass drops
    /// has both bounds below the carried κ, so the κ proven is the one a
    /// heap over every candidate would prove whenever it beats the carried
    /// one. In the list phase, whose bounds sit at list positions, a second
    /// pass after a first that removed any rows bounds the keepers again.
    Heap,
    /// The probe, after the first block when the segment carried no finite
    /// κ in, its own or the shared cell's (it is *cold*), and with
    /// `after_last` after the last block too: every step prunes with the κ
    /// it carried in — its own earlier κ or a sibling's, read from the
    /// shared cell — and on a probing step the heap collects the `k`
    /// keepers with the best heap bound (the code source's optimistic
    /// bound, an exact search's partial score), the probe completes them,
    /// and the step prunes again with the κ that proves. No other step
    /// collects the heap or makes a second pass.
    Probe {
        /// Whether the last block's step probes too.
        after_last: bool,
    },
}

/// What one search space contributes to the loop: how a block is swept
/// and how a candidate is bounded afterwards.
pub(crate) trait BoundSource {
    /// Where this source proves κ.
    fn proof(&self) -> Proof;

    /// The number of dimensions the loop can sweep.
    fn dims(&self) -> usize;

    /// Sweeps the dimensions at positions `block` of the sweep order over
    /// the candidates.
    fn sweep(&mut self, candidates: &CandidateSet, block: Range<usize>) -> Result<()>;

    /// Computes the candidates' bounds after `swept` dimensions, if the
    /// sweep did not leave them in place.
    fn bound(&mut self, _candidates: &CandidateSet, _swept: usize) {}

    /// The bounds [`BoundSource::bound`] left after `swept` dimensions.
    fn bounds(&self, swept: usize) -> Bounds<'_>;

    /// Under [`Proof::Probe`]: a κ proven by completing the `k` rows in
    /// `best` after `swept` dimensions (`None` when nothing is proven).
    fn probe(&mut self, _best: &TopKLargest, _swept: usize) -> Result<Option<f64>> {
        Ok(None)
    }

    /// Called after every step with the candidates left and how many it
    /// removed.
    fn stepped(&mut self, _candidates: &mut CandidateSet, _swept: usize, _removed: usize) {}
}

/// How the loop sizes its blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Blocks {
    /// The plan's schedule.
    Planned(BlockSchedule),
    /// `first` dimensions to start with and after a step that removed a
    /// candidate; twice the last block after a step that removed none.
    BackOff { first: usize },
}

impl Blocks {
    /// The next block's width — capped at the `dims − swept` dimensions
    /// left, `0` once there are none — after `steps` pruning steps, the
    /// last of which swept `last.0` dimensions and removed `last.1`
    /// candidates.
    fn next(self, swept: usize, dims: usize, steps: usize, last: Option<(usize, usize)>) -> usize {
        match self {
            Blocks::Planned(schedule) => schedule.next_block(swept, dims, steps),
            Blocks::BackOff { first } => {
                let wanted = match last {
                    Some((block, 0)) => block.saturating_mul(2),
                    _ => first.max(1),
                };
                wanted.min(dims.saturating_sub(swept))
            }
        }
    }
}

/// One segment's run of the loop: the parameters every step shares.
pub(crate) struct BondLoop<'a> {
    pub(crate) k: usize,
    pub(crate) kernel: Kernel,
    pub(crate) blocks: Blocks,
    /// The κ cell shared with the query's other segments.
    pub(crate) shared: Option<&'a dyn KappaCell>,
}

/// Where the loop stopped.
pub(crate) struct Progress {
    /// Dimensions swept.
    pub(crate) swept: usize,
    /// Pruning steps taken.
    pub(crate) steps: usize,
    /// The last κ the loop held, in goodness space (`−∞` for none).
    pub(crate) kappa: f64,
}

impl BondLoop<'_> {
    /// Runs the loop over `candidates` until at most `k` remain or the
    /// dimensions run out; the first block is swept whatever the count.
    /// `best` is the κ heap, kept across runs for its allocation.
    pub(crate) fn run<S: BoundSource>(
        &self,
        source: &mut S,
        candidates: &mut CandidateSet,
        best: &mut Option<TopKLargest>,
    ) -> Result<Progress> {
        let k = self.k;
        let best = best.get_or_insert_with(|| TopKLargest::new(k));
        best.reset(k);
        let dims = source.dims();
        let mut alive = candidates.len();
        let mut kappa = f64::NEG_INFINITY;
        let (mut swept, mut steps, mut last) = (0usize, 0usize, None);
        loop {
            let block = self.blocks.next(swept, dims, steps, last);
            if block == 0 {
                break;
            }
            source.sweep(candidates, swept..swept + block)?;
            swept += block;
            if alive <= k {
                // nothing can be pruned from a set that already is the answer
                break;
            }
            steps += 1;
            source.bound(candidates, swept);
            let (removed, held) = self.step(source, candidates, best, kappa, (steps, swept))?;
            kappa = held;
            alive -= removed;
            source.stepped(candidates, swept, removed);
            if alive <= k {
                break;
            }
            last = Some((block, removed));
        }
        Ok(Progress { swept, steps, kappa })
    }

    /// The `steps`-th pruning step, after `swept` dimensions, with the κ
    /// the segment held (`kappa`, goodness space): returns the candidates
    /// it removed and the κ it holds after.
    fn step<S: BoundSource>(
        &self,
        source: &mut S,
        candidates: &mut CandidateSet,
        best: &mut TopKLargest,
        kappa: f64,
        (steps, swept): (usize, usize),
    ) -> Result<(usize, f64)> {
        let bounds = source.bounds(swept);
        let sign = bounds.sign;
        let current =
            self.shared.and_then(|cell| cell.current()).map_or(f64::NEG_INFINITY, |c| sign * c);
        // A heap source proves κ at every step, a probe source after the
        // first block if it carried no κ in and, with `after_last`, after
        // the last: after the first the probe lifts κ from nothing to
        // nearly final and whole words die, and what is left after the
        // code source's last block is refined exactly. A κ carried into the
        // first step (a sibling's, on the shared cell) is already about as
        // tight as that probe would prove, so it is skipped.
        let carried = kappa.max(current);
        let proof = source.proof();
        let proves = match proof {
            Proof::Heap => true,
            Proof::Probe { after_last } => {
                (steps == 1 && !carried.is_finite()) || (after_last && swept == source.dims())
            }
        };
        // Prune with the carried κ and collect the heap over the keepers.
        // (A row dropped here could not have raised κ: both its bounds are
        // at most its optimistic one, which already missed κ; see
        // `Proof::Heap`.)
        let mut removed = self.pass(candidates, carried, &bounds, proves.then_some(&mut *best));
        let fresh = match best.kth().filter(|_| proves) {
            None => return Ok((removed, carried)),
            Some(kth) => match proof {
                Proof::Heap => Some(kth),
                Proof::Probe { .. } => source.probe(best, swept)?,
            },
        };
        // Publish what was proven — a vacuous (infinite) bound proves
        // nothing — and adopt the tightest κ any segment has proven.
        let kappa = match fresh {
            Some(proven) if proven.is_finite() && proven > carried => match self.shared {
                Some(cell) => sign * cell.tighten(sign * proven),
                None => proven,
            },
            _ => carried.max(current),
        };
        if kappa > carried {
            if removed > 0 && !candidates.is_bitmap() {
                // a list's bounds sit at list positions, which the first
                // pass shifted: bound the keepers again
                source.bound(candidates, swept);
            }
            removed += self.pass(candidates, kappa, &source.bounds(swept), None);
        }
        Ok((removed, kappa))
    }

    /// One pruning pass: drops every candidate whose optimistic bound
    /// misses `kappa` by more than the slack, offering the keepers to
    /// `best`. With no κ yet (`−∞`) nothing can miss it, and no bound is
    /// tested. (This crate's tests can put a reference step or a bound
    /// check in the pass's place.)
    fn pass(
        &self,
        candidates: &mut CandidateSet,
        kappa: f64,
        bounds: &Bounds<'_>,
        best: Option<&mut TopKLargest>,
    ) -> usize {
        let keep = (kappa > f64::NEG_INFINITY).then(|| SurviveTest {
            sign: bounds.sign,
            add: bounds.opt_add,
            bar: kappa - prune_slack(kappa),
        });
        #[cfg(test)]
        let best = match tests::seam(candidates, keep, bounds, best) {
            Ok(removed) => return removed,
            Err(best) => best,
        };
        candidates.prune(self.kernel, keep, bounds, best)
    }
}

/// A worker thread's working memory for both spaces: the code sweep's
/// accumulator and LUTs (and the survivors' bound order the exact refine
/// reads from them), the eligibility bitmap's words, the exact search's
/// per-row state, and the κ heap. Grown to the largest segment the thread
/// has searched and reused after that, so steady-state searches allocate
/// nothing that grows with their segment.
#[derive(Default)]
pub(crate) struct Scratch {
    pub(crate) codes: QuantScratch,
    pub(crate) eligible: Bitmap,
    pub(crate) exact: RowState,
    pub(crate) best: Option<TopKLargest>,
}

thread_local! {
    /// One scratch per worker thread: the engine runs each (query,
    /// segment) task on one worker, and neither loop is re-entered on a
    /// thread — a segment's code sweep runs before its exact refine.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on this thread's [`Scratch`].
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashSet;

    use bond_metrics::{
        DecomposableMetric, EqRule, EvRule, HhRule, HistogramIntersection, HqRule, Objective,
        PruningRule, SquaredEuclidean, WeightedEvRule, WeightedHistogramIntersection,
        WeightedHqRule, WeightedSquaredEuclidean,
    };
    use vdstore::{Bitmap, DecomposedTable, RowId, SegmentStats, StoreCodes};

    use crate::candidates::MASK_MIN_CANDIDATES;
    use crate::quantfilter::filter_segment_in_order;
    use crate::searcher::{search_segment_with, BondParams, SegmentContext};

    /// What can stand in for the loop's pruning pass.
    pub(crate) type Seam = Box<
        dyn FnMut(
            &mut CandidateSet,
            Option<SurviveTest>,
            &Bounds<'_>,
            Option<&mut TopKLargest>,
        ) -> usize,
    >;

    thread_local! {
        static SEAM: RefCell<Option<Seam>> = RefCell::new(None);
        static STEP_STATS: Cell<StepStats> = const { Cell::new(StepStats::ZERO) };
    }

    /// Runs the installed seam in the pass's place, or hands `best` back.
    pub(crate) fn seam<'b>(
        candidates: &mut CandidateSet,
        keep: Option<SurviveTest>,
        bounds: &Bounds<'_>,
        best: Option<&'b mut TopKLargest>,
    ) -> std::result::Result<usize, Option<&'b mut TopKLargest>> {
        SEAM.with(|seam| match seam.borrow_mut().as_mut() {
            Some(step) => Ok(step(candidates, keep, bounds, best)),
            None => Err(best),
        })
    }

    /// Runs `f` with every pruning pass on this thread replaced by `seam`.
    pub(crate) fn with_seam<R>(seam: Seam, f: impl FnOnce() -> R) -> R {
        let previous = SEAM.with(|slot| slot.borrow_mut().replace(seam));
        let result = f();
        SEAM.with(|slot| *slot.borrow_mut() = previous);
        result
    }

    /// What [`per_candidate_step`] has seen on this thread.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) struct StepStats {
        /// Bitmap words the word-wise pass tests with one survive mask.
        pub(crate) dense_words: usize,
        /// Bitmap words it tests bit by bit.
        pub(crate) thin_words: usize,
        /// Candidates removed from bitmaps and from lists.
        pub(crate) from_bitmaps: usize,
        pub(crate) from_lists: usize,
    }

    impl StepStats {
        const ZERO: StepStats =
            StepStats { dense_words: 0, thin_words: 0, from_bitmaps: 0, from_lists: 0 };

        /// Reads and resets this thread's counts.
        pub(crate) fn take() -> StepStats {
            STEP_STATS.with(|stats| stats.replace(StepStats::ZERO))
        }
    }

    /// Every candidate's slot and row, in slot order.
    fn slots(set: &CandidateSet) -> Vec<(usize, RowId)> {
        match set {
            CandidateSet::Bits(bits) => bits.iter().map(|row| (row as usize, row)).collect(),
            CandidateSet::List(list) => list.iter().copied().enumerate().collect(),
        }
    }

    /// The optimistic and the heap bound at `slot`, read the way the stored
    /// form stores them: a rule's from its `bounds`, row by row, so the
    /// reference below also checks the word-wise forms the pass reads —
    /// the heap's the pessimistic bound under [`Proof::Heap`], the partial
    /// score under [`Proof::Probe`].
    fn slot_bounds(bounds: &Bounds<'_>, slot: usize) -> (f64, f64) {
        match &bounds.slots {
            Slots::Stored { opt, heap } => (opt[slot], heap[slot]),
            Slots::Rule(state) => {
                let (lower, upper) = state.rule.bounds(&state.candidate(slot));
                let (opt, pessimistic) =
                    if bounds.sign > 0.0 { (upper, lower) } else { (lower, upper) };
                match state.proof {
                    Proof::Heap => (opt, pessimistic),
                    Proof::Probe { .. } => (opt, state.partial[slot]),
                }
            }
        }
    }

    /// The per-candidate pruning step, shared by both spaces as the
    /// reference [`CandidateSet::prune`] must reproduce decision for
    /// decision: one bound test per candidate, every keeper offered to the
    /// heap in slot order, the doomed rows through a `HashSet`. It also
    /// counts what it saw in [`StepStats`] — the same words and removals
    /// the word-wise pass handles, as long as the two agree.
    pub(crate) fn per_candidate_step(
        set: &mut CandidateSet,
        keep: Option<SurviveTest>,
        bounds: &Bounds<'_>,
        mut best: Option<&mut TopKLargest>,
    ) -> usize {
        let sign = bounds.sign;
        if let Some(best) = best.as_deref_mut() {
            best.clear();
        }
        let mut doomed = HashSet::new();
        for (slot, row) in slots(set) {
            let (optimistic, heap) = slot_bounds(bounds, slot);
            if keep.is_some_and(|test| !test.survives(optimistic)) {
                doomed.insert(row);
            } else if let Some(best) = best.as_deref_mut() {
                best.push(row, sign * heap);
            }
        }
        let mut stats = STEP_STATS.with(Cell::get);
        match set {
            CandidateSet::Bits(bits) => {
                let live = bits.words().iter().filter(|&&word| word != 0);
                let dense = live.clone().filter(|w| w.count_ones() >= MASK_MIN_CANDIDATES).count();
                stats.dense_words += dense;
                stats.thin_words += live.count() - dense;
                stats.from_bitmaps += doomed.len();
                doomed.iter().for_each(|&row| bits.clear(row));
            }
            CandidateSet::List(list) => {
                stats.from_lists += doomed.len();
                list.retain(|row| !doomed.contains(row));
            }
        }
        STEP_STATS.with(|cell| cell.set(stats));
        doomed.len()
    }

    /// A seam that checks, at every pruning pass, `exact ≤ optimistic` in
    /// goodness space for every candidate — the bound with its unswept part
    /// (`opt_add`) — and under [`Proof::Heap`] also `pessimistic ≤ exact`
    /// (the heap bound), then runs the real pass.
    /// `exact[row]` is the segment-local row's exact score; `checked`
    /// counts the candidates checked.
    fn checking_seam(
        exact: Vec<f64>,
        proof: Proof,
        kernel: Kernel,
        checked: std::rc::Rc<Cell<usize>>,
        ctx: String,
    ) -> Seam {
        Box::new(move |set, keep, bounds, best| {
            let &Bounds { sign, opt_add, .. } = bounds;
            for (slot, row) in slots(set) {
                let score = sign * exact[row as usize];
                let tol = 1e-9 * score.abs().max(1.0);
                let (optimistic, heap) = slot_bounds(bounds, slot);
                let optimistic = sign * (optimistic + opt_add);
                assert!(
                    score <= optimistic + tol,
                    "{ctx}: row {row} scores {score}, optimistic bound {optimistic}"
                );
                if proof == Proof::Heap {
                    let pessimistic = sign * heap;
                    assert!(
                        pessimistic <= score + tol,
                        "{ctx}: row {row} scores {score}, pessimistic bound {pessimistic}"
                    );
                }
            }
            checked.set(checked.get() + set.len());
            set.prune(kernel, keep, bounds, best)
        })
    }

    /// A κ cell that keeps every κ a segment offers it (score space) and
    /// shares none: each proof is checked on its own.
    #[derive(Default)]
    struct Proofs(std::sync::Mutex<Vec<f64>>);

    impl KappaCell for Proofs {
        fn tighten(&self, local: f64) -> f64 {
            self.0.lock().unwrap().push(local);
            local
        }

        fn current(&self) -> Option<f64> {
            None
        }
    }

    /// Normalized peaky histograms (values in `[0, 1]`, mass 1 — what Hh
    /// and Ev assume), around a few shared shapes so bounds prune over
    /// several steps; every 9th row repeats the one before it.
    fn histograms(rows: usize, dims: usize) -> DecomposedTable {
        let mut state = 0x50DD_B0DE_5EEDu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(rows);
        for r in 0..rows {
            if r % 9 == 8 {
                vectors.push(vectors[r - 1].clone());
                continue;
            }
            let shape = r % 5;
            let mut v: Vec<f64> = (0..dims)
                .map(|d| (((shape * 7 + d * 3) % 11) as f64 / 11.0).powi(3) + 0.2 * next().powi(4))
                .collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            vectors.push(v);
        }
        DecomposedTable::from_vectors("soundness", &vectors).unwrap()
    }

    /// The eligible rows of a `len`-row segment under a filter.
    fn eligible(live: &Bitmap, filter: &str) -> Bitmap {
        let len = live.len();
        let rows: Vec<RowId> = match filter {
            "none" => live.iter().collect(),
            "1 row" => live.iter().skip(live.count() / 2).take(1).collect(),
            _ => live.iter().filter(|row| row % 10 == 3).collect(),
        };
        Bitmap::from_rows(len, &rows)
    }

    /// A source whose bounds keep every candidate, except that after the
    /// steps ending at the dimensions in `drops_at` one more row gets a
    /// hopeless optimistic bound; it records every block it sweeps.
    struct Scripted {
        dims: usize,
        drops_at: Vec<usize>,
        opt: Vec<f64>,
        pes: Vec<f64>,
        victim: usize,
        widths: Vec<usize>,
    }

    impl Scripted {
        /// 64 rows; with `k = 1` row 0's pessimistic bound is κ = 1, and
        /// every other row's optimistic bound 2 reaches it.
        fn new(dims: usize, drops_at: Vec<usize>) -> Self {
            let mut pes = vec![0.0; 64];
            pes[0] = 1.0;
            Scripted { dims, drops_at, opt: vec![2.0; 64], pes, victim: 1, widths: Vec::new() }
        }
    }

    impl BoundSource for Scripted {
        fn proof(&self) -> Proof {
            Proof::Heap
        }

        fn dims(&self) -> usize {
            self.dims
        }

        fn sweep(&mut self, _: &CandidateSet, block: Range<usize>) -> Result<()> {
            self.widths.push(block.len());
            Ok(())
        }

        fn bound(&mut self, _: &CandidateSet, swept: usize) {
            if self.drops_at.contains(&swept) {
                self.opt[self.victim] = -1.0;
                self.victim += 1;
            }
        }

        fn bounds(&self, _: usize) -> Bounds<'_> {
            Bounds::stored(&self.opt, &self.pes, 1.0, 0.0)
        }
    }

    /// The blocks `blocks` makes the loop sweep over `dims` dimensions, and
    /// the steps it counted.
    fn widths(blocks: Blocks, dims: usize, drops_at: Vec<usize>) -> (Vec<usize>, usize) {
        let mut source = Scripted::new(dims, drops_at);
        let run = BondLoop { k: 1, kernel: Kernel::Scalar, blocks, shared: None };
        let progress = run.run(&mut source, &mut CandidateSet::all(64), &mut None).unwrap();
        assert_eq!(progress.swept, dims);
        (source.widths, progress.steps)
    }

    #[test]
    fn code_blocks_double_after_a_barren_step_and_reset_after_a_removal() {
        let back_off = Blocks::BackOff { first: 8 };
        // nothing removed until the last block: 8, 16, 32, … capped at the
        // dimensions left, ⌈log2(dims / 8)⌉ + 2 steps at most
        for (dims, expected) in [
            (128, vec![8, 16, 32, 64, 8]),
            (20, vec![8, 12]),
            (8, vec![8]),
            (5, vec![5]),
            (1000, vec![8, 16, 32, 64, 128, 256, 496]),
        ] {
            let (seen, steps) = widths(back_off, dims, Vec::new());
            assert_eq!(seen, expected, "{dims} dims");
            assert_eq!(steps, seen.len());
            let most = (dims as f64 / 8.0).log2().ceil().max(0.0) as usize + 2;
            assert!(steps <= most, "{dims} dims: {steps} steps");
        }
        // a step that removes a candidate resets the next block to 8
        let (seen, _) = widths(back_off, 128, vec![24]);
        assert_eq!(seen, vec![8, 16, 8, 16, 32, 48]);
        let (seen, _) = widths(back_off, 128, vec![8, 16, 24]);
        assert_eq!(seen, vec![8, 8, 8, 8, 16, 32, 48]);
        // the exact source's plan keeps its fixed m whatever a step removes
        let (seen, steps) = widths(Blocks::Planned(BlockSchedule::Fixed(8)), 128, Vec::new());
        assert_eq!((seen, steps), (vec![8; 16], 16));
    }

    /// The k-th best sign-folded exact score of the eligible rows, if
    /// there are `k`, and the sign.
    fn kth_best(
        metric: &dyn DecomposableMetric,
        exact: &[f64],
        eligible: &Bitmap,
        k: usize,
    ) -> (Option<f64>, f64) {
        let sign = match metric.objective() {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        let mut scores: Vec<f64> = eligible.iter().map(|row| sign * exact[row as usize]).collect();
        scores.sort_by(|a, b| b.total_cmp(a));
        (scores.get(k - 1).copied(), sign)
    }

    /// Checks that every κ `cell` recorded (score space) is no better than
    /// the k-th best exact score `kth` (sign-folded); returns how many.
    fn check_proofs(cell: Proofs, kth: Option<f64>, sign: f64, ctx: &str) -> usize {
        let proofs = cell.0.into_inner().unwrap();
        for &kappa in &proofs {
            let kth = kth.unwrap_or_else(|| panic!("{ctx}: κ {kappa} from < k rows"));
            let tol = 1e-9 * kth.abs().max(1.0);
            assert!(
                sign * kappa <= kth + tol,
                "{ctx}: proved κ {kappa}, the k-th best exact score is {}",
                sign * kth
            );
        }
        proofs.len()
    }

    /// Soundness in both spaces, at every pruning pass: every candidate's
    /// optimistic bound reaches its exact score; in exact space, whose heap
    /// proves κ in an isolated search, its pessimistic bound does not pass
    /// it; in code space, which proves κ by its probe, and in an exact
    /// search that shares κ, which does too, every κ proven is no better
    /// than the k-th best exact score of the eligible rows. All six rules,
    /// all four metrics, three filters, three `k`, both kernels.
    #[test]
    fn bounds_hold_at_every_step_in_both_spaces() {
        const ROWS: usize = 300;
        const DIMS: usize = 20;
        let mut table = histograms(ROWS, DIMS);
        for row in (4..ROWS).step_by(13) {
            table.delete(row as RowId).unwrap();
        }
        let weights: Vec<f64> = (0..DIMS).map(|d| [1.5, 0.0, 0.5, 1.0][d % 4]).collect();
        let whi = WeightedHistogramIntersection::new(weights.clone()).unwrap();
        let wse = WeightedSquaredEuclidean::new(weights.clone()).unwrap();
        let query = table.row(11).unwrap();
        let specs = table.partition_specs(1);
        let stats: Vec<SegmentStats> =
            specs.iter().map(|s| s.view(&table).unwrap().stats()).collect();
        let codes = StoreCodes::build(&table, &specs, &stats, 8).unwrap();
        let view = codes.segment_view(0).unwrap();
        let segment = table.segment(0..ROWS).unwrap();
        let live = table.live_bitmap();
        type NewRule<'a> = Box<dyn Fn() -> Box<dyn PruningRule> + 'a>;
        let rules: [(&dyn DecomposableMetric, NewRule<'_>); 6] = [
            (&HistogramIntersection, Box::new(|| Box::new(HqRule::new()))),
            (&HistogramIntersection, Box::new(|| Box::new(HhRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EqRule::new()))),
            (&SquaredEuclidean, Box::new(|| Box::new(EvRule::new()))),
            (&whi, Box::new(|| Box::new(WeightedHqRule::new(weights.clone())))),
            (&wse, Box::new(|| Box::new(WeightedEvRule::new(weights.clone())))),
        ];
        let params = BondParams {
            schedule: BlockSchedule::Fixed(3),
            materialize_threshold: 0.3,
            ..BondParams::default()
        };
        let checked = std::rc::Rc::new(Cell::new(0usize));
        let mut scratch = Scratch::default();
        let (mut cases, mut proofs, mut exact_proofs) = (0usize, 0usize, 0usize);
        for kernel in [Kernel::Scalar, Kernel::active()] {
            for filter in ["none", "1 row", "10 %"] {
                let eligible = eligible(&live, filter);
                for k in [1, 10, ROWS] {
                    // the exact source, all six rules, isolated (the heap)
                    // and sharing κ (the probe, its proofs recorded)
                    for (metric, new_rule) in &rules {
                        let exact: Vec<f64> = (0..ROWS)
                            .map(|r| metric.score(&table.row(r as u32).unwrap(), &query))
                            .collect();
                        let (kth, sign) = kth_best(*metric, &exact, &eligible, k);
                        let cell = Proofs::default();
                        for shared in [false, true] {
                            let mut rule = new_rule();
                            let ctx = format!(
                                "exact {} {filter} k={k} {} shared={shared}",
                                rule.name(),
                                kernel.label()
                            );
                            let context = SegmentContext {
                                kappa: shared.then_some(&cell as &dyn KappaCell),
                                filter: Some(&eligible),
                                ..SegmentContext::default()
                            };
                            let proof = if shared {
                                Proof::Probe { after_last: false }
                            } else {
                                Proof::Heap
                            };
                            let seam =
                                checking_seam(exact.clone(), proof, kernel, checked.clone(), ctx);
                            let outcome = with_seam(seam, || {
                                search_segment_with(
                                    &segment,
                                    &query,
                                    *metric,
                                    rule.as_mut(),
                                    k,
                                    None,
                                    &params,
                                    &context,
                                    kernel,
                                    &mut scratch,
                                )
                                .unwrap()
                            });
                            exact_proofs += outcome.trace.exact_probes as usize;
                            assert!(outcome.trace.exact_probes <= u32::from(shared));
                            cases += 1;
                        }
                        let ctx = format!("exact {filter} k={k} {}", kernel.label());
                        // the probes' κ and the finished segment's k-th
                        check_proofs(cell, kth, sign, &ctx);
                    }
                    // the code source, all four metrics: optimistic bounds at
                    // every pass, and every κ a probe proves
                    let metrics: [&dyn DecomposableMetric; 4] =
                        [&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
                    for metric in metrics {
                        let exact: Vec<f64> = (0..ROWS)
                            .map(|r| metric.score(&table.row(r as u32).unwrap(), &query))
                            .collect();
                        let (kth, sign) = kth_best(metric, &exact, &eligible, k);
                        let ctx =
                            format!("codes {} {filter} k={k} {}", metric.name(), kernel.label());
                        let seam = checking_seam(
                            exact,
                            Proof::Probe { after_last: true },
                            kernel,
                            checked.clone(),
                            ctx.clone(),
                        );
                        let cell = Proofs::default();
                        with_seam(seam, || {
                            filter_segment_in_order(
                                &view,
                                metric,
                                &query,
                                k,
                                &eligible,
                                Some(&cell),
                                kernel,
                                None,
                                None,
                                &mut scratch,
                            )
                            .unwrap()
                        });
                        proofs += check_proofs(cell, kth, sign, &ctx);
                        cases += 1;
                    }
                }
            }
        }
        println!("exact κ probe: {exact_proofs} proofs no better than the k-th best exact score");
        assert_eq!(cases, 2 * 3 * 3 * (6 * 2 + 4));
        assert!(checked.get() > 20_000, "only {} candidate bounds checked", checked.get());
        assert!(proofs >= 8, "only {proofs} probed κ checked");
        assert!(exact_proofs >= 8, "only {exact_proofs} exact probes checked");
    }
}
