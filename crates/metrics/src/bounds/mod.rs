//! Pruning bounds (Section 4 and Appendix A).
//!
//! After BOND has scanned the first `m` dimensional fragments, every
//! surviving candidate `x` has a known partial score `S(x⁻, q⁻)` and —
//! depending on the rule — the mass `T(x⁻)` it has shown so far and/or its
//! total mass `T(x)`. A [`PruningRule`] turns that per-candidate state into
//! a lower and an upper bound on the *final* score. The engine then
//! computes κ (the k-th best "safe" bound) and discards every candidate
//! whose "optimistic" bound cannot reach κ:
//!
//! * similarity metrics (maximize): κ_min = k-th largest `S_min`; prune
//!   candidates with `S_max < κ_min` (step 4 of Algorithm 2);
//! * distance metrics (minimize): κ_max = k-th smallest `S_max`; prune
//!   candidates with `S_min > κ_max`.
//!
//! The concrete rules live in [`histogram`] (Hq, Hh), [`euclid`] (Eq, Ev)
//! and [`weighted`] (weighted Euclidean / weighted histogram intersection).

pub mod euclid;
pub mod histogram;
pub mod weighted;

use crate::metric::Objective;

/// Descending order of two values that stays a total order when NaN is
/// present — what `sort_by` requires, or it may panic: larger values first,
/// NaN after every number, numbers in their `partial_cmp` order (so `-0.0`
/// and `0.0` still tie).
#[inline]
fn descending_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    b.partial_cmp(&a).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Per-candidate bookkeeping a rule may require from the engine.
///
/// Hq and Eq need nothing beyond the partial score (that is their selling
/// point: "computationally cheaper and requires less bookkeeping"); Hh needs
/// the scanned mass `T(x⁻)`; Ev additionally needs the total mass `T(x)`
/// which the engine materialises once per search (Section 4.3: "a simple
/// solution materializes and uses this extra table").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Requirements {
    /// The rule reads [`CandidateState::scanned_mass`].
    pub needs_scanned_mass: bool,
    /// The rule reads [`CandidateState::total_mass`].
    pub needs_total_mass: bool,
}

/// The per-candidate state available when bounds are evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateState {
    /// Partial score `S(x⁻, q⁻)` accumulated over the scanned dimensions.
    pub partial: f64,
    /// Scanned mass `T(x⁻) = Σ_{scanned} x_i` (0 if the rule does not need it).
    pub scanned_mass: f64,
    /// Total mass `T(x) = Σ_i x_i` (0 if the rule does not need it).
    pub total_mass: f64,
}

impl CandidateState {
    /// Convenience constructor for rules that only need the partial score.
    pub fn partial_only(partial: f64) -> Self {
        CandidateState { partial, scanned_mass: 0.0, total_mass: 0.0 }
    }

    /// Remaining (unseen) mass `T(x⁺) = T(x) − T(x⁻)`, clamped at zero to be
    /// robust against floating-point drift.
    #[inline]
    pub fn remaining_mass(&self) -> f64 {
        (self.total_mass - self.scanned_mass).max(0.0)
    }
}

/// The closed form of a rule's *optimistic* bound — the side a pruning pass
/// tests against κ: the upper bound of a similarity rule, the lower bound
/// of a distance rule — over a candidate's partial score `p` and its
/// remaining mass `rem = max(T(x) − T(x⁻), 0)`, with the constants of the
/// rule's last [`PruningRule::prepare`]. Every rule of this crate has one,
/// so a pruning pass can evaluate it for many rows at once in vector
/// registers instead of asking the rule row by row.
///
/// [`OptimisticTail::bound`] is its scalar reference: the same IEEE
/// operations, in the same operand order, as the optimistic side of the
/// rule's [`PruningRule::bounds`], so the two agree bit for bit (up to
/// which NaN a NaN input yields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimisticTail {
    /// `p` — `Eq`.
    Partial,
    /// `p + c` — `Hq` and `WHq` (`c` the best the remaining query can
    /// add), and `Ev` and `WEv` where their mass term is `0.0`.
    AddConst(f64),
    /// `p + min(rem, cap)` — `Hh` (`cap = T(q⁺)`).
    AddMassCapped(f64),
    /// `p + (rem − target)² / divisor` — `Ev` (`target = T(q⁺)`, the
    /// remaining dimension count as `divisor`) and `WEv` (`divisor =
    /// Σ 1/wᵢ` over the remaining dimensions).
    AddSquaredGap {
        /// Subtracted from the remaining mass.
        target: f64,
        /// Divides the squared gap.
        divisor: f64,
    },
}

impl OptimisticTail {
    /// The optimistic bound of one candidate.
    #[inline]
    pub fn bound(self, candidate: &CandidateState) -> f64 {
        let partial = candidate.partial;
        match self {
            OptimisticTail::Partial => partial,
            OptimisticTail::AddConst(c) => partial + c,
            OptimisticTail::AddMassCapped(cap) => partial + candidate.remaining_mass().min(cap),
            OptimisticTail::AddSquaredGap { target, divisor } => {
                let gap = candidate.remaining_mass() - target;
                partial + gap * gap / divisor
            }
        }
    }
}

/// A branch-and-bound pruning rule: bounds on the final score given the
/// partial state of a candidate.
pub trait PruningRule: Send + Sync {
    /// Whether the final ranking maximizes or minimizes the score.
    fn objective(&self) -> Objective;

    /// Which per-candidate bookkeeping this rule needs.
    fn requirements(&self) -> Requirements;

    /// Re-derives the query-side constants for the given set of *remaining*
    /// (not yet scanned) dimensions. Called once per pruning attempt, before
    /// any [`PruningRule::bounds`] calls for that attempt.
    fn prepare(&mut self, query: &[f64], remaining_dims: &[usize]);

    /// Lower and upper bounds `(S_min, S_max)` on the candidate's final
    /// score. Must satisfy `S_min ≤ S(x, q) ≤ S_max` for every vector `x`
    /// consistent with the candidate state.
    fn bounds(&self, candidate: &CandidateState) -> (f64, f64);

    /// The closed form of the optimistic side of [`PruningRule::bounds`]
    /// under the constants of the last [`PruningRule::prepare`]:
    /// `tail.bound(c)` equals the upper bound of a maximizing rule, the
    /// lower bound of a minimizing one, for every candidate state `c`.
    fn optimistic_tail(&self) -> OptimisticTail;

    /// [`PruningRule::bounds`] for every row of a segment at once:
    /// `lower[i]` / `upper[i]` receive exactly the pair `bounds` returns for
    /// the state `(partial[i], scanned_mass[i], total_mass[i])`, an absent
    /// mass slice standing for zeros. Rows the caller no longer tracks may
    /// hold arbitrary values (NaN, ±∞); their outputs are garbage that the
    /// caller must not read.
    ///
    /// This is **one** virtual call per pruning attempt instead of one per
    /// candidate: inside this provided body `self` is the concrete rule, so
    /// `bounds` inlines into the loop. Rules need not override it.
    ///
    /// # Panics
    /// Panics if any slice's length differs from `partial`'s.
    fn bounds_all(
        &self,
        partial: &[f64],
        scanned_mass: Option<&[f64]>,
        total_mass: Option<&[f64]>,
        lower: &mut [f64],
        upper: &mut [f64],
    ) {
        let rows = partial.len();
        assert_eq!(lower.len(), rows, "lower bounds cover a different row count");
        assert_eq!(upper.len(), rows, "upper bounds cover a different row count");
        for mass in [scanned_mass, total_mass].into_iter().flatten() {
            assert_eq!(mass.len(), rows, "mass slice covers a different row count");
        }
        // the two optional slices are matched once, here, so the row loop
        // tests no `Option` per row
        let zero = |_: usize| 0.0;
        match (scanned_mass, total_mass) {
            (None, None) => fill_bounds(self, partial, zero, zero, lower, upper),
            (Some(m), None) => fill_bounds(self, partial, |i| m[i], zero, lower, upper),
            (None, Some(t)) => fill_bounds(self, partial, zero, |i| t[i], lower, upper),
            (Some(m), Some(t)) => fill_bounds(self, partial, |i| m[i], |i| t[i], lower, upper),
        }
    }

    /// The pessimistic side of [`PruningRule::bounds`] — the lower bound of
    /// a maximizing rule, the upper bound of a minimizing one — for the rows
    /// of a window of at most 64 whose bit is set in `rows` (bit `i` is row
    /// `i`): `out[i]` receives exactly that bound of the state
    /// `(partial[i], scanned_mass[i], total_mass[i])`, an absent mass slice
    /// standing for zeros; entries of clear bits are left as they are.
    ///
    /// Like [`PruningRule::bounds_all`] this is one virtual call for many
    /// rows, with `bounds` inlined into the loop; a pruning pass asks it
    /// for the keepers of a bitmap word only. Rules need not override it.
    ///
    /// # Panics
    /// Panics if a set bit indexes past `out` or a given slice.
    fn pessimistic_word(
        &self,
        rows: u64,
        partial: &[f64],
        scanned_mass: Option<&[f64]>,
        total_mass: Option<&[f64]>,
        out: &mut [f64],
    ) {
        let mut bits = rows;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (lower, upper) = self.bounds(&CandidateState {
                partial: partial[i],
                scanned_mass: scanned_mass.map_or(0.0, |m| m[i]),
                total_mass: total_mass.map_or(0.0, |t| t[i]),
            });
            out[i] = match self.objective() {
                Objective::Maximize => lower,
                Objective::Minimize => upper,
            };
        }
    }

    /// A short name used in experiment reports ("Hq", "Ev", ...).
    fn name(&self) -> &'static str;
}

/// The row loop of [`PruningRule::bounds_all`], monomorphised per rule and
/// per pair of mass sources.
fn fill_bounds<R: PruningRule + ?Sized>(
    rule: &R,
    partial: &[f64],
    scanned_mass: impl Fn(usize) -> f64,
    total_mass: impl Fn(usize) -> f64,
    lower: &mut [f64],
    upper: &mut [f64],
) {
    for (row, (lo, hi)) in lower.iter_mut().zip(upper.iter_mut()).enumerate() {
        let state = CandidateState {
            partial: partial[row],
            scanned_mass: scanned_mass(row),
            total_mass: total_mass(row),
        };
        (*lo, *hi) = rule.bounds(&state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_mass_clamps_at_zero() {
        let c = CandidateState { partial: 0.1, scanned_mass: 1.0 + 1e-9, total_mass: 1.0 };
        assert_eq!(c.remaining_mass(), 0.0);
        let c = CandidateState { partial: 0.1, scanned_mass: 0.25, total_mass: 1.0 };
        assert!((c.remaining_mass() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn partial_only_state() {
        let c = CandidateState::partial_only(0.5);
        assert_eq!(c.partial, 0.5);
        assert_eq!(c.scanned_mass, 0.0);
        assert_eq!(c.total_mass, 0.0);
    }

    #[test]
    #[should_panic(expected = "mass slice covers a different row count")]
    fn bounds_all_rejects_a_short_mass_slice() {
        let rule = histogram::HhRule::new();
        let (mut lower, mut upper) = ([0.0; 3], [0.0; 3]);
        rule.bounds_all(&[0.1, 0.2, 0.3], Some(&[0.0; 2]), None, &mut lower, &mut upper);
    }

    #[test]
    fn requirements_default_is_none() {
        let r = Requirements::default();
        assert!(!r.needs_scanned_mass);
        assert!(!r.needs_total_mass);
    }
}
