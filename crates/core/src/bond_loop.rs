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
//! `quantfilter`, which carry only the optimistic bound and prove κ by a
//! probe after the last block, and after the first only where the
//! segment carried no κ in ([`Proof::Probe`]); the exact partial scores
//! and pruning rule of `searcher`, which prove κ at every step from the
//! heap of pessimistic bounds of the candidates that pass the κ the step
//! carried in ([`Proof::Heap`]); and the synchronized multi-feature scan
//! of `multifeature`, which drives one exact-partials source per feature
//! and proves κ the same way from their bounds combined through the
//! query's aggregate. The rest is written
//! once, here: the [`CandidateSet`] and its pruning pass, the sign-folded
//! κ heap, the block sizes ([`Blocks`]), κ sharing, and the per-thread
//! [`Scratch`] the single-table searches work in.
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
//! it (`quantfilter`'s module docs give the numbers).
//!
//! All comparisons run in *goodness* space — scores and bounds multiplied
//! by `sign` (`+1` to maximize, `−1` to minimize) — where larger is better
//! under either objective. Negation is exact, so nothing is lost to it.

use std::cell::RefCell;
use std::ops::Range;

use vdstore::{Bitmap, TopKLargest};

use crate::candidates::CandidateSet;
use crate::error::Result;
use crate::kappa::KappaCell;
use crate::kernels::{Kernel, SurviveTest};
use crate::quantfilter::QuantScratch;
use crate::schedule::BlockSchedule;
use crate::searcher::{prune_slack, RowState};

/// Every candidate's bounds after a block, at its slot (see
/// [`CandidateSet::prune`]).
pub(crate) struct Bounds<'a> {
    /// The optimistic bound the pruning pass tests against κ.
    pub(crate) opt: &'a [f64],
    /// What the κ heap collects of every keeper: its pessimistic bound
    /// where the heap proves κ ([`Proof::Heap`]), its optimistic bound
    /// where a probe does ([`Proof::Probe`]) — the heap then holds the `k`
    /// rows the probe completes.
    pub(crate) heap: &'a [f64],
    /// `+1.0` under `Maximize`, `−1.0` under `Minimize`.
    pub(crate) sign: f64,
    /// Added to every optimistic bound before it is tested — the best the
    /// unswept dimensions can still add.
    pub(crate) opt_add: f64,
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
    /// The probe, after the last block and — only when the segment carried
    /// no finite κ in, its own or the shared cell's — after the first:
    /// every step prunes with the κ it carried in — its own earlier κ or a
    /// sibling's, read from the shared cell — and on a probing step the
    /// heap collects the `k` keepers with the best optimistic bound, the
    /// probe completes their pessimistic bounds, and the step prunes again
    /// with the κ that proves.
    Probe,
}

/// What one search space contributes to the loop: how a block is swept
/// and how a candidate is bounded afterwards.
pub(crate) trait BoundSource {
    /// Where this source proves κ.
    const PROOF: Proof;

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

    /// Under [`Proof::Probe`]: a κ proven by completing the pessimistic
    /// bound of the `k` rows in `best` (`None` when nothing is proven).
    fn probe(&mut self, _best: &TopKLargest) -> Result<Option<f64>> {
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
            let bounds = source.bounds(swept);
            let sign = bounds.sign;
            let current =
                self.shared.and_then(|cell| cell.current()).map_or(f64::NEG_INFINITY, |c| sign * c);
            // A heap source proves κ at every step, a probe source after
            // the first block, if it carried no κ in, and after the last:
            // after the first the probe lifts κ from nothing to nearly
            // final and whole words die, and what is left after the last is
            // refined exactly. A κ carried into the first step (a sibling's,
            // on the shared cell) is already about as tight as that probe
            // would prove, so it is skipped.
            let carried = kappa.max(current);
            let proves = match S::PROOF {
                Proof::Heap => true,
                Proof::Probe => (steps == 1 && !carried.is_finite()) || swept == dims,
            };
            // Prune with the carried κ and collect the heap over the
            // keepers. (A row dropped here could not have raised κ: both
            // its bounds are at most its optimistic one, which already
            // missed κ; see `Proof::Heap`.)
            let mut removed = self.pass(candidates, carried, &bounds, proves.then_some(&mut *best));
            let fresh = match best.kth().filter(|_| proves) {
                None => None,
                Some(kth) => match S::PROOF {
                    Proof::Heap => Some(kth),
                    Proof::Probe => source.probe(best)?,
                },
            };
            // Publish what was proven — a vacuous (infinite) bound proves
            // nothing — and adopt the tightest κ any segment has proven.
            kappa = match fresh {
                Some(proven) if proven.is_finite() && proven > carried => match self.shared {
                    Some(cell) => sign * cell.tighten(sign * proven),
                    None => proven,
                },
                _ => carried.max(current),
            };
            if kappa > carried && proves {
                if removed > 0 && !candidates.is_bitmap() {
                    // a list's bounds sit at list positions, which the
                    // first pass shifted: bound the keepers again
                    source.bound(candidates, swept);
                }
                removed += self.pass(candidates, kappa, &source.bounds(swept), None);
            }
            alive -= removed;
            source.stepped(candidates, swept, removed);
            if alive <= k {
                break;
            }
            last = Some((block, removed));
        }
        Ok(Progress { swept, steps, kappa })
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
        let &Bounds { opt, heap, sign, .. } = bounds;
        if let Some(best) = best.as_deref_mut() {
            best.clear();
        }
        let mut doomed = HashSet::new();
        for (slot, row) in slots(set) {
            if keep.is_some_and(|test| !test.survives(opt[slot])) {
                doomed.insert(row);
            } else if let Some(best) = best.as_deref_mut() {
                best.push(row, sign * heap[slot]);
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
            let &Bounds { opt, heap, sign, opt_add } = bounds;
            for (slot, row) in slots(set) {
                let score = sign * exact[row as usize];
                let tol = 1e-9 * score.abs().max(1.0);
                let optimistic = sign * (opt[slot] + opt_add);
                assert!(
                    score <= optimistic + tol,
                    "{ctx}: row {row} scores {score}, optimistic bound {optimistic}"
                );
                if proof == Proof::Heap {
                    let pessimistic = sign * heap[slot];
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
        const PROOF: Proof = Proof::Heap;

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
            Bounds { opt: &self.opt, heap: &self.pes, sign: 1.0, opt_add: 0.0 }
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

    /// Soundness in both spaces, at every pruning pass: every candidate's
    /// optimistic bound reaches its exact score; in exact space, whose heap
    /// proves κ, its pessimistic bound does not pass it; in code space,
    /// which proves κ by its probe, every κ proven is no better than the
    /// k-th best exact score of the eligible rows. All six rules, all four
    /// metrics, three filters, three `k`, both kernels.
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
        let (mut cases, mut proofs) = (0usize, 0usize);
        for kernel in [Kernel::Scalar, Kernel::active()] {
            for filter in ["none", "1 row", "10 %"] {
                let eligible = eligible(&live, filter);
                for k in [1, 10, ROWS] {
                    // the exact source, all six rules
                    for (metric, new_rule) in &rules {
                        let exact: Vec<f64> = (0..ROWS)
                            .map(|r| metric.score(&table.row(r as u32).unwrap(), &query))
                            .collect();
                        let mut rule = new_rule();
                        let ctx =
                            format!("exact {} {filter} k={k} {}", rule.name(), kernel.label());
                        let context =
                            SegmentContext { filter: Some(&eligible), ..SegmentContext::default() };
                        let seam = checking_seam(exact, Proof::Heap, kernel, checked.clone(), ctx);
                        with_seam(seam, || {
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
                        cases += 1;
                    }
                    // the code source, all four metrics: optimistic bounds at
                    // every pass, and every κ a probe proves
                    let metrics: [&dyn DecomposableMetric; 4] =
                        [&HistogramIntersection, &SquaredEuclidean, &whi, &wse];
                    for metric in metrics {
                        let exact: Vec<f64> = (0..ROWS)
                            .map(|r| metric.score(&table.row(r as u32).unwrap(), &query))
                            .collect();
                        let sign = match metric.objective() {
                            Objective::Maximize => 1.0,
                            Objective::Minimize => -1.0,
                        };
                        let mut eligible_scores: Vec<f64> =
                            eligible.iter().map(|row| sign * exact[row as usize]).collect();
                        eligible_scores.sort_by(|a, b| b.total_cmp(a));
                        let kth = eligible_scores.get(k - 1).copied();
                        let ctx =
                            format!("codes {} {filter} k={k} {}", metric.name(), kernel.label());
                        let seam = checking_seam(
                            exact,
                            Proof::Probe,
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
                        for kappa in cell.0.into_inner().unwrap() {
                            let kth =
                                kth.unwrap_or_else(|| panic!("{ctx}: κ {kappa} from < k rows"));
                            let tol = 1e-9 * kth.abs().max(1.0);
                            assert!(
                                sign * kappa <= kth + tol,
                                "{ctx}: proved κ {kappa}, the k-th best exact score is {}",
                                sign * kth
                            );
                            proofs += 1;
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 3 * 3 * (6 + 4));
        assert!(checked.get() > 20_000, "only {} candidate bounds checked", checked.get());
        assert!(proofs >= 8, "only {proofs} probed κ checked");
    }
}
