//! The constrained parameter optimizer.
//!
//! Step 2 / Step 8 of Figure 4 call
//! `Optimize(user_profile, input_format, output_format, Sat_T[i],
//! user_budget, cost, available_bandwidth)`: for a candidate trans-coding
//! service, pick the QoS parameter values `xi` that maximize the combined
//! satisfaction (Equa. 1) subject to
//!
//! * `bandwidth_requirement(x1..xn) <= Bandwidth_AvailableBetween(Ti, Tprev)`
//!   (Equa. 2), and
//! * the remaining user budget.
//!
//! Monotonicity does the heavy lifting: satisfaction functions increase,
//! and bitrate models and the cost increase in every axis, so the feasible
//! set is *downward closed* and the unconstrained optimum is the domain's
//! top. When the top is infeasible we fall back to a deterministic grid
//! search followed by coordinate ascent: per axis, the largest feasible
//! value with the other axes fixed.
//!
//! On a continuous axis that value is the largest feasible *float* —
//! `feasible(x) && !feasible(x.next_up())` — which is what
//! [`OptimizeOptions::bisect_iters`] halvings of the bracket converge to.
//! Both constraints are linear along one axis for every
//! [`BitrateModel`] and for the selection algorithm's cost, so one secant
//! step lands within a few floats of it and a short walk with
//! [`Problem::is_feasible`] pins it down; the halvings themselves only
//! run where they would not have converged (a boundary tiny against the
//! bracket, or fewer than 58 of them) or where the secant misses (a cost
//! that is monotone but not linear). For single-axis
//! problems — like the paper's worked example — the result is exact. The
//! constrained path allocates nothing at the default grid.

#[cfg(test)]
mod reference;

use crate::profile::SatisfactionProfile;
use qosc_media::{Axis, AxisDomain, BitrateModel, DomainVector, ParamVector};

/// Tuning knobs for [`optimize`]. The defaults are deterministic and fast
/// enough for graphs with thousands of candidate evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Grid samples per axis in the fallback search.
    pub grid_per_axis: usize,
    /// Hard cap on the total number of grid points evaluated.
    pub max_grid_points: usize,
    /// Coordinate-ascent passes after the grid phase.
    pub refine_passes: usize,
    /// Halvings of the bracket `[current value, axis maximum]` that a
    /// continuous-axis refinement is worth: the result is the feasible
    /// end of the bracket after that many bisection steps. From 58 up
    /// that is the largest feasible float whenever it is at least
    /// `2^-(bisect_iters - 58)` of the bracket's width, and the
    /// optimizer then finds it directly; below, or for a smaller
    /// boundary, it runs the steps one by one.
    pub bisect_iters: usize,
}

impl Default for OptimizeOptions {
    fn default() -> OptimizeOptions {
        OptimizeOptions {
            grid_per_axis: 9,
            max_grid_points: 40_000,
            refine_passes: 3,
            bisect_iters: 60,
        }
    }
}

/// One constrained optimization instance.
pub struct Problem<'a> {
    /// The user's satisfaction preferences (objective).
    pub profile: &'a SatisfactionProfile,
    /// Feasible output configurations of the candidate service, already
    /// capped by the quality delivered upstream (quality monotonicity).
    pub domain: &'a DomainVector,
    /// Bandwidth-requirement model of the candidate's *output* format.
    pub bitrate: &'a BitrateModel,
    /// `Bandwidth_AvailableBetween(Ti, Tprev)` in bits per second;
    /// `f64::INFINITY` when the two services share a host (Section 4.3).
    pub bandwidth_limit: f64,
    /// Incremental monetary cost of delivering a configuration through
    /// this candidate (service price + transmission price). Must not
    /// decrease when a parameter value rises.
    pub cost: &'a dyn Fn(&ParamVector) -> f64,
    /// Remaining user budget; `f64::INFINITY` when unconstrained.
    pub budget: f64,
}

/// A limit with the tolerance both constraints are compared under.
fn ceiling(limit: f64) -> f64 {
    const REL_TOL: f64 = 1e-9;
    limit * (1.0 + REL_TOL) + REL_TOL
}

impl<'a> Problem<'a> {
    /// Whether `params` satisfies both constraints.
    pub fn is_feasible(&self, params: &ParamVector) -> bool {
        self.evaluate(params).is_some()
    }

    /// The rate and the cost of `params` when both fit their limits.
    fn evaluate(&self, params: &ParamVector) -> Option<(f64, f64)> {
        let rate = self.bitrate.bits_per_second(params);
        if rate > ceiling(self.bandwidth_limit) {
            return None;
        }
        let cost = (self.cost)(params);
        (cost <= ceiling(self.budget)).then_some((rate, cost))
    }
}

/// The result of a successful optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimum {
    /// The chosen configuration.
    pub params: ParamVector,
    /// Combined satisfaction of the configuration (Equa. 1).
    pub satisfaction: f64,
    /// Bandwidth the configuration requires, bits per second.
    pub bits_per_second: f64,
    /// Incremental cost of the configuration.
    pub cost: f64,
}

/// Grid samples per axis that fit the stack buffer; a caller-set
/// resolution above it takes one `Vec` for the whole grid.
const STACK_GRID: usize = 16;

/// Maximize combined satisfaction over `problem.domain` subject to the
/// bandwidth and budget constraints. Returns `None` when no configuration
/// in the domain is feasible — the candidate service cannot be used at
/// all from its tentative parent.
pub fn optimize(problem: &Problem<'_>, options: &OptimizeOptions) -> Option<Optimum> {
    // Fast path: the top of the domain is the unconstrained optimum.
    let top = problem.domain.top();
    if let Some((rate, cost)) = problem.evaluate(&top) {
        return Some(finish(problem, top, rate, cost));
    }
    // Under monotone models nothing is feasible when the bottom is not.
    let bottom = problem.domain.bottom();
    let (bottom_rate, bottom_cost) = problem.evaluate(&bottom)?;
    let axis_count = problem.domain.len();
    if axis_count == 0 {
        // Empty domain: the only configuration is the empty vector.
        return Some(finish(problem, bottom, bottom_rate, bottom_cost));
    }

    // Grid phase: deterministic cartesian sweep, capped in size. Slot
    // `s` of the odometer is the domain's `s`-th axis; its samples are
    // `samples[s * per_axis..][..lens[s]]`, ascending.
    let per_axis = grid_resolution(axis_count, options);
    let mut stack = [0.0; Axis::COUNT * STACK_GRID];
    let mut heap = Vec::new();
    let samples: &mut [f64] = if per_axis <= STACK_GRID {
        &mut stack
    } else {
        heap.resize(axis_count * per_axis, 0.0);
        &mut heap
    };
    let mut axes = [Axis::FrameRate; Axis::COUNT];
    let mut lens = [0usize; Axis::COUNT];
    for (slot, (axis, domain)) in problem.domain.iter().enumerate() {
        axes[slot] = axis;
        lens[slot] = domain.sample_into(per_axis, &mut samples[slot * per_axis..][..per_axis]);
    }
    let mut best: Option<(f64, f64, ParamVector)> = None; // (sat, -rate, params)
    let mut index = [0usize; Axis::COUNT];
    loop {
        let mut point = ParamVector::new();
        for slot in 0..axis_count {
            point.set(axes[slot], samples[slot * per_axis + index[slot]]);
        }
        let mut slot = match problem.evaluate(&point) {
            Some((rate, _)) => {
                consider(problem, &mut best, point, rate);
                0
            }
            None => {
                // Every point at or above an infeasible one on all axes
                // is infeasible too, and that is all the odometer has
                // left before it carries past the first slot that is
                // off its minimum: skip there.
                let raised = index[..axis_count].iter().position(|&i| i > 0);
                let carry = raised.map_or(axis_count, |slot| slot + 1);
                index[..carry].fill(0);
                carry
            }
        };
        // Odometer increment.
        while slot < axis_count {
            index[slot] += 1;
            if index[slot] < lens[slot] {
                break;
            }
            index[slot] = 0;
            slot += 1;
        }
        if slot == axis_count {
            break;
        }
    }

    let (_, _, mut current) = best?;

    // Refinement: per-axis exact maximization with the other axes fixed.
    for _ in 0..options.refine_passes {
        let mut improved = false;
        for (axis, domain) in problem.domain.iter() {
            // An axis whose grid sample was not finite carries no value
            // to lift.
            let Some(old) = current.get(axis) else {
                continue;
            };
            let lifted = max_feasible_on_axis(problem, &current, axis, domain, old, options);
            if lifted > old * (1.0 + 1e-12) + 1e-15 {
                let candidate = current.with(axis, lifted);
                // Lift only when it buys satisfaction — otherwise keep the
                // grid's lower-bitrate choice (don't waste bandwidth past
                // the user's ideal).
                if problem.profile.score(&candidate) > problem.profile.score(&current) + 1e-15 {
                    current = candidate;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let rate = problem.bitrate.bits_per_second(&current);
    let cost = (problem.cost)(&current);
    Some(finish(problem, current, rate, cost))
}

/// Choose the per-axis grid resolution so the cartesian product stays
/// under `max_grid_points`.
fn grid_resolution(axis_count: usize, options: &OptimizeOptions) -> usize {
    let fits = |per_axis: usize| {
        per_axis
            .checked_pow(axis_count as u32)
            .is_some_and(|points| points <= options.max_grid_points)
    };
    // Nothing above the cap itself can fit, whatever the caller set.
    let mut per_axis = options.grid_per_axis.min(options.max_grid_points).max(2);
    while per_axis > 2 && !fits(per_axis) {
        per_axis -= 1;
    }
    per_axis
}

fn consider(
    problem: &Problem<'_>,
    best: &mut Option<(f64, f64, ParamVector)>,
    point: ParamVector,
    rate: f64,
) {
    let sat = problem.profile.score(&point);
    let neg_rate = -rate;
    let better = match best {
        None => true,
        Some((bs, bnr, _)) => sat > *bs + 1e-15 || (sat >= *bs - 1e-15 && neg_rate > *bnr),
    };
    if better {
        *best = Some((sat, neg_rate, point));
    }
}

/// Largest feasible value on `axis` at or above `lo_value`, its value
/// in `current`, holding the other axes of `current` fixed. Feasibility
/// is monotone per axis and `current` is feasible.
fn max_feasible_on_axis(
    problem: &Problem<'_>,
    current: &ParamVector,
    axis: Axis,
    domain: &AxisDomain,
    lo_value: f64,
    options: &OptimizeOptions,
) -> f64 {
    let feasible_at = |v: f64| problem.is_feasible(&current.with(axis, v));
    match domain {
        AxisDomain::Continuous { max, .. } => {
            if feasible_at(*max) {
                return *max;
            }
            if let Some(boundary) =
                converged_boundary(problem, current, axis, lo_value, *max, options.bisect_iters)
            {
                return boundary;
            }
            let (mut lo, mut hi) = (lo_value, *max);
            for _ in 0..options.bisect_iters {
                let mid = 0.5 * (lo + hi);
                if feasible_at(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        }
        AxisDomain::Discrete(values) => values
            .iter()
            .rev()
            .copied()
            .find(|&v| v >= lo_value && feasible_at(v))
            .unwrap_or(lo_value),
        AxisDomain::Fixed(v) => *v,
    }
}

/// Bisection steps after which a bracket whose boundary — the largest
/// feasible float — is at least as large as the bracket is wide has
/// closed on the boundary and its successor; every step beyond pays for
/// one more halving of that ratio.
///
/// A step halves the bracket and adds at most half a float spacing of
/// rounding, so after `k` steps it is at most `width / 2^k` plus two
/// spacings wide. With `boundary >= width / 2^(n - 58)` the first term
/// is at most `boundary / 2^52`, two spacings, by step `n - 6`: the ends
/// are at most eight floats apart, even across a power of two. From
/// there a step strictly narrows a bracket that is not yet adjacent
/// (8, 5, 3, 2, 1 gaps at worst), which leaves two steps to spare.
/// Measured, the first disagreement with the halvings shows at 52.
const CONVERGED_ITERS: usize = 58;

/// Floats the interpolated boundary may be off by before the optimizer
/// gives up on it and bisects.
const ULP_WALK: usize = 4;

/// What `iters` halvings of the bracket `[lo, max]` on `axis` end on,
/// without running them: the largest feasible float. `None` when that
/// is not provably where they end (see [`CONVERGED_ITERS`]) or when the
/// secant estimate is more than [`ULP_WALK`] floats off. `lo` is
/// feasible and `max` is not.
fn converged_boundary(
    problem: &Problem<'_>,
    current: &ParamVector,
    axis: Axis,
    lo: f64,
    max: f64,
    iters: usize,
) -> Option<f64> {
    let spare = iters.checked_sub(CONVERGED_ITERS)?;
    let at = |v: f64| current.with(axis, v);
    let feasible_at = |v: f64| problem.is_feasible(&at(v));
    let width = max - lo;

    // Where a function linear on the bracket crosses `limit`.
    let crossing = |f_lo: f64, f_max: f64, limit: f64| {
        if f_max > f_lo {
            lo + width * ((limit - f_lo) / (f_max - f_lo))
        } else {
            f64::INFINITY
        }
    };
    let (bottom, top) = (at(lo), at(max));
    let by_rate = crossing(
        problem.bitrate.bits_per_second(&bottom),
        problem.bitrate.bits_per_second(&top),
        ceiling(problem.bandwidth_limit),
    );
    let by_cost = crossing(
        (problem.cost)(&bottom),
        (problem.cost)(&top),
        ceiling(problem.budget),
    );
    let estimate = by_rate.min(by_cost);
    // Into `[lo, max)`, whatever the arithmetic above made of it.
    let mut x = if estimate < max {
        estimate.max(lo)
    } else {
        max.next_down()
    };

    let mut boundary = None;
    if feasible_at(x) {
        for _ in 0..ULP_WALK {
            let up = x.next_up();
            if up >= max || !feasible_at(up) {
                boundary = Some(x);
                break;
            }
            x = up;
        }
    } else {
        for _ in 0..ULP_WALK {
            x = x.next_down();
            if x <= lo || feasible_at(x) {
                boundary = Some(x);
                break;
            }
        }
    }
    let boundary = boundary?;

    let converges = boundary >= width * 0.5f64.powi(spare.min(2_000) as i32);
    // The argument is about normal floats: halving must be exact and
    // `lo + hi` finite.
    let normal = boundary >= 1e-290 && max <= 1e290;
    (converges && normal).then_some(boundary)
}

fn finish(problem: &Problem<'_>, params: ParamVector, rate: f64, cost: f64) -> Optimum {
    Optimum {
        satisfaction: problem.profile.score(&params),
        bits_per_second: rate,
        cost,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::SatisfactionFn;
    use crate::profile::{AxisPreference, SatisfactionProfile};

    fn free_cost() -> impl Fn(&ParamVector) -> f64 {
        |_: &ParamVector| 0.0
    }

    fn frame_rate_problem<'a>(
        profile: &'a SatisfactionProfile,
        domain: &'a DomainVector,
        bitrate: &'a BitrateModel,
        cost: &'a dyn Fn(&ParamVector) -> f64,
        bandwidth: f64,
        budget: f64,
    ) -> Problem<'a> {
        Problem {
            profile,
            domain,
            bitrate,
            bandwidth_limit: bandwidth,
            cost,
            budget,
        }
    }

    #[test]
    fn unconstrained_picks_domain_top() {
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 0.0, 27.0).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = free_cost();
        let p = frame_rate_problem(
            &profile,
            &domain,
            &bitrate,
            &cost,
            f64::INFINITY,
            f64::INFINITY,
        );
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        assert_eq!(opt.params.get(Axis::FrameRate), Some(27.0));
        assert!((opt.satisfaction - 0.9).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_caps_single_axis_exactly() {
        // 1000 bits per fps; 18_000 bits/s available → exactly 18 fps.
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = free_cost();
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 18_000.0, f64::INFINITY);
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        let fps = opt.params.get(Axis::FrameRate).unwrap();
        assert!((fps - 18.0).abs() < 1e-6, "got {fps}");
        assert!((opt.satisfaction - 0.6).abs() < 1e-6);
    }

    #[test]
    fn budget_binds() {
        // Cost = 1 monetary unit per fps, budget 12 → 12 fps.
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = |p: &ParamVector| p.get(Axis::FrameRate).unwrap_or(0.0);
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, f64::INFINITY, 12.0);
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        let fps = opt.params.get(Axis::FrameRate).unwrap();
        assert!((fps - 12.0).abs() < 1e-6, "got {fps}");
        assert!(opt.cost <= 12.0 + 1e-6);
    }

    #[test]
    fn infeasible_returns_none() {
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 10.0, 30.0).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = free_cost();
        // Even 10 fps needs 10_000 bits/s; only 5_000 available.
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 5_000.0, f64::INFINITY);
        assert!(optimize(&p, &OptimizeOptions::default()).is_none());
    }

    #[test]
    fn discrete_domain_respects_membership() {
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::discrete(Axis::FrameRate, vec![5.0, 15.0, 25.0, 30.0]).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = free_cost();
        // 27_000 bits/s admits 25 but not 30.
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 27_000.0, f64::INFINITY);
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        assert_eq!(opt.params.get(Axis::FrameRate), Some(25.0));
    }

    #[test]
    fn two_axis_tradeoff_stays_feasible_and_beats_bottom() {
        // Video: rate = fps × pixels; both axes matter to the user.
        let profile = SatisfactionProfile::new()
            .with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 30.0,
                },
            ))
            .with(AxisPreference::new(
                Axis::PixelCount,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 307_200.0,
                },
            ));
        let domain = DomainVector::new()
            .with(
                Axis::FrameRate,
                AxisDomain::continuous(Axis::FrameRate, 1.0, 30.0).unwrap(),
            )
            .with(
                Axis::PixelCount,
                AxisDomain::continuous(Axis::PixelCount, 19_200.0, 307_200.0).unwrap(),
            );
        let bitrate = BitrateModel::CompressedVideo {
            compression_ratio: 100.0,
        };
        let cost = free_cost();
        // Top needs 30×307200×1/100 ≈ 92 kbit/s (no depth axis → ×1).
        // Give half of that.
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 46_080.0, f64::INFINITY);
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        assert!(p.is_feasible(&opt.params));
        let bottom_sat = profile.score(&domain.bottom());
        assert!(
            opt.satisfaction > bottom_sat + 0.05,
            "optimizer should beat the bottom: {} vs {bottom_sat}",
            opt.satisfaction
        );
    }

    #[test]
    fn tie_breaks_prefer_lower_bitrate() {
        // Satisfaction saturates at 20 fps; domain allows 30. The optimizer
        // should not waste bandwidth past the ideal when the top is
        // infeasible... but when the top IS feasible it returns the top
        // (documented fast path). Constrain so top is infeasible and the
        // grid sees equal-satisfaction points.
        let profile = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 20.0,
            },
        ));
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::discrete(Axis::FrameRate, vec![10.0, 20.0, 25.0, 30.0]).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = free_cost();
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 26_000.0, f64::INFINITY);
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        // 20 and 25 both give satisfaction 1.0; refinement lifts to the
        // max feasible (25) only if satisfaction improves — it does not,
        // so the grid's lower-bitrate preference stands at 20.
        assert_eq!(opt.params.get(Axis::FrameRate), Some(20.0));
        assert!((opt.satisfaction - 1.0).abs() < 1e-12);
    }

    /// Work gate: a budget-bound X15-shaped call (frame rate in
    /// `[0, 30]`, the budget binding at 12 fps, bandwidth unlimited so
    /// every feasibility check reaches the cost) evaluates the cost a
    /// fixed, small number of times — top, bottom, the grid up to its
    /// first infeasible point, and per refinement pass the axis maximum,
    /// the secant's two ends and the walk over the boundary — where two
    /// passes of 60 halvings made it 134.
    #[test]
    fn budget_bound_call_evaluates_the_cost_a_bounded_number_of_times() {
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let calls = std::cell::Cell::new(0u32);
        let cost = |p: &ParamVector| {
            calls.set(calls.get() + 1);
            p.get(Axis::FrameRate).unwrap_or(0.0)
        };
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, f64::INFINITY, 12.0);

        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        let evaluations = calls.get();
        assert_eq!(
            opt,
            reference::optimize(&p, &OptimizeOptions::default()).unwrap()
        );
        assert_eq!(calls.get() - evaluations, 134, "the reference's count");
        assert!(evaluations <= 40, "{evaluations} cost evaluations");
    }

    #[test]
    fn grid_resolution_is_bounded_by_the_point_cap() {
        let options = OptimizeOptions {
            grid_per_axis: usize::MAX,
            ..OptimizeOptions::default()
        };
        // One axis: the cap itself. Seven: 4^7 = 16 384 <= 40 000 < 5^7.
        assert_eq!(grid_resolution(1, &options), 40_000);
        assert_eq!(grid_resolution(7, &options), 4);
        let capped = OptimizeOptions {
            grid_per_axis: 40_000,
            ..options
        };
        assert_eq!(grid_resolution(1, &capped), 40_000);
        assert_eq!(grid_resolution(7, &capped), 4);
        // The public path: a huge caller-set grid on one axis takes the
        // one heap buffer and agrees with the reference at the cap.
        let tight = OptimizeOptions {
            max_grid_points: 100,
            ..options
        };
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new().with(
            Axis::FrameRate,
            AxisDomain::continuous(Axis::FrameRate, 0.0, 30.0).unwrap(),
        );
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = free_cost();
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 18_000.0, f64::INFINITY);
        let at_cap = OptimizeOptions {
            grid_per_axis: 100,
            ..tight
        };
        assert_eq!(optimize(&p, &tight), reference::optimize(&p, &at_cap));
    }

    #[test]
    fn empty_domain_scores_zero_but_succeeds_when_free() {
        let profile = SatisfactionProfile::paper_table1();
        let domain = DomainVector::new();
        let bitrate = BitrateModel::Constant {
            bits_per_second: 100.0,
        };
        let cost = free_cost();
        let p = frame_rate_problem(&profile, &domain, &bitrate, &cost, 200.0, f64::INFINITY);
        let opt = optimize(&p, &OptimizeOptions::default()).unwrap();
        assert_eq!(opt.satisfaction, 0.0);

        let p2 = frame_rate_problem(&profile, &domain, &bitrate, &cost, 50.0, f64::INFINITY);
        assert!(optimize(&p2, &OptimizeOptions::default()).is_none());
    }
}
