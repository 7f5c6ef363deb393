//! Test-only reference for the constrained optimizer.
//!
//! [`optimize`] here is the optimizer as it stood before its constrained
//! branch was rewritten, moved verbatim: allocating grid (`Vec` of axes,
//! one sample `Vec` per axis, a `Vec` odometer), every grid point checked,
//! and the per-axis boundary found by `bisect_iters` blind halvings per
//! refinement pass. The properties below hold the rewritten
//! [`super::optimize`] to it `f64::to_bits`-wise on every [`Optimum`]
//! field.

use super::{OptimizeOptions, Optimum, Problem};
use qosc_media::{Axis, AxisDomain, ParamVector};

/// Maximize combined satisfaction over `problem.domain` subject to the
/// bandwidth and budget constraints. Returns `None` when no configuration
/// in the domain is feasible — the candidate service cannot be used at
/// all from its tentative parent.
pub fn optimize(problem: &Problem<'_>, options: &OptimizeOptions) -> Option<Optimum> {
    // Fast path: the top of the domain is the unconstrained optimum.
    let top = problem.domain.top();
    if problem.is_feasible(&top) {
        return Some(finish(problem, top));
    }
    // If even the bottom is infeasible, bail early only when the domain is
    // fully degenerate (a single point); otherwise intermediate points may
    // still be feasible on some axes even though the bottom is not —
    // impossible under monotone models, so the bottom check is sound.
    let bottom = problem.domain.bottom();
    if !problem.is_feasible(&bottom) {
        return None;
    }

    let axes: Vec<Axis> = problem.domain.axes().collect();
    if axes.is_empty() {
        // Empty domain: the only configuration is the empty vector, whose
        // feasibility equals the bottom's (already checked).
        return Some(finish(problem, ParamVector::new()));
    }

    // Grid phase: deterministic cartesian sweep, capped in size.
    let per_axis = grid_resolution(axes.len(), options);
    let samples: Vec<Vec<f64>> = axes
        .iter()
        .map(|&axis| {
            problem
                .domain
                .get(axis)
                .expect("axis from domain")
                .sample(per_axis)
        })
        .collect();
    let mut best: Option<(f64, f64, ParamVector)> = None; // (sat, -rate, params)
    let mut index = vec![0usize; axes.len()];
    loop {
        let mut point = ParamVector::new();
        for (slot, &axis) in axes.iter().enumerate() {
            point.set(axis, samples[slot][index[slot]]);
        }
        if problem.is_feasible(&point) {
            consider(problem, &mut best, point);
        }
        // Odometer increment.
        let mut slot = 0;
        loop {
            if slot == axes.len() {
                break;
            }
            index[slot] += 1;
            if index[slot] < samples[slot].len() {
                break;
            }
            index[slot] = 0;
            slot += 1;
        }
        if slot == axes.len() {
            break;
        }
    }

    let (_, _, mut current) = best?;

    // Refinement: per-axis exact maximization with the other axes fixed.
    // Feasibility is monotone per axis, so bisection (continuous) or a
    // descending scan (discrete) finds the largest feasible value.
    for _ in 0..options.refine_passes {
        let mut improved = false;
        for &axis in &axes {
            let domain = problem.domain.get(axis).expect("axis from domain");
            let old = current.get(axis).expect("grid set all axes");
            let lifted = max_feasible_on_axis(problem, &current, axis, domain, options);
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

    Some(finish(problem, current))
}

/// Choose the per-axis grid resolution so the cartesian product stays
/// under `max_grid_points`.
fn grid_resolution(axis_count: usize, options: &OptimizeOptions) -> usize {
    let mut per_axis = options.grid_per_axis.max(2);
    while per_axis > 2 && per_axis.pow(axis_count as u32) > options.max_grid_points {
        per_axis -= 1;
    }
    per_axis
}

fn consider(problem: &Problem<'_>, best: &mut Option<(f64, f64, ParamVector)>, point: ParamVector) {
    let sat = problem.profile.score(&point);
    let neg_rate = -problem.bitrate.bits_per_second(&point);
    let better = match best {
        None => true,
        Some((bs, bnr, _)) => sat > *bs + 1e-15 || (sat >= *bs - 1e-15 && neg_rate > *bnr),
    };
    if better {
        *best = Some((sat, neg_rate, point));
    }
}

/// Largest feasible value on `axis` holding the other axes of `current`
/// fixed.
fn max_feasible_on_axis(
    problem: &Problem<'_>,
    current: &ParamVector,
    axis: Axis,
    domain: &AxisDomain,
    options: &OptimizeOptions,
) -> f64 {
    let feasible_at = |v: f64| {
        let mut p = *current;
        p.set(axis, v);
        problem.is_feasible(&p)
    };
    let lo_value = current.get(axis).expect("axis set");
    match domain {
        AxisDomain::Continuous { max, .. } => {
            if feasible_at(*max) {
                return *max;
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

fn finish(problem: &Problem<'_>, params: ParamVector) -> Optimum {
    Optimum {
        satisfaction: problem.profile.score(&params),
        bits_per_second: problem.bitrate.bits_per_second(&params),
        cost: (problem.cost)(&params),
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{optimize, OptimizeOptions, Optimum, Problem};
    use super::optimize as reference_optimize;
    use crate::function::SatisfactionFn;
    use crate::profile::{AxisPreference, SatisfactionProfile};
    use crate::Combiner;
    use proptest::prelude::*;
    use qosc_media::{Axis, AxisDomain, BitrateModel, DomainVector, ParamVector};

    /// Every field of an [`Optimum`], bit for bit.
    fn bits(optimum: &Option<Optimum>) -> Option<Vec<Option<u64>>> {
        optimum.as_ref().map(|o| {
            Axis::ALL
                .iter()
                .map(|&axis| o.params.get(axis).map(f64::to_bits))
                .chain([o.satisfaction, o.bits_per_second, o.cost].map(|x| Some(x.to_bits())))
                .collect()
        })
    }

    /// `optimize` and the reference agree on `problem`, bit for bit.
    fn assert_identical(problem: &Problem<'_>, options: &OptimizeOptions) {
        let new = optimize(problem, options);
        let old = reference_optimize(problem, options);
        assert_eq!(
            bits(&new),
            bits(&old),
            "optimize {new:?} vs reference {old:?} under {options:?} on {} / {:?} / limit {} / budget {}",
            problem.domain,
            problem.bitrate,
            problem.bandwidth_limit,
            problem.budget,
        );
    }

    /// The iteration counts the convergence guard cuts between, the ends
    /// of the range, and the default as often as the rest together.
    const BISECT_ITERS: [usize; 20] = [
        0, 8, 55, 56, 57, 58, 59, 60, 61, 200, 60, 60, 60, 60, 60, 60, 60, 60, 60, 60,
    ];

    /// Bitrate models, each with the three axes a domain under it draws
    /// from: the axes the rate depends on first, then ones it ignores.
    fn arb_model() -> impl Strategy<Value = (BitrateModel, [Axis; 3])> {
        let video = [Axis::FrameRate, Axis::PixelCount, Axis::ColorDepth];
        let audio = [Axis::SampleRate, Axis::Channels, Axis::SampleDepth];
        prop_oneof![
            Just((BitrateModel::RawVideo, video)),
            (1.0f64..200.0).prop_map(move |compression_ratio| (
                BitrateModel::CompressedVideo { compression_ratio },
                video
            )),
            Just((BitrateModel::RawAudio, audio)),
            (1.0f64..20.0).prop_map(move |compression_ratio| (
                BitrateModel::CompressedAudio { compression_ratio },
                audio
            )),
            (1.0f64..50.0, 0.5f64..10.0).prop_map(|(compression_ratio, per_view_seconds)| (
                BitrateModel::Image {
                    compression_ratio,
                    per_view_seconds
                },
                [Axis::PixelCount, Axis::ColorDepth, Axis::Fidelity]
            )),
            (1.0f64..5_000.0).prop_map(|bits_per_fidelity_point| (
                BitrateModel::Text {
                    bits_per_fidelity_point
                },
                [Axis::Fidelity, Axis::ColorDepth, Axis::FrameRate]
            )),
            (0.0f64..100_000.0).prop_map(move |bits_per_second| (
                BitrateModel::Constant { bits_per_second },
                video
            )),
            // The meshes' model: frame rate alone sets the rate.
            (1.0f64..2_000.0).prop_map(|slope| (
                BitrateModel::LinearOnAxis {
                    axis: Axis::FrameRate,
                    slope
                },
                [Axis::FrameRate, Axis::PixelCount, Axis::Fidelity]
            )),
        ]
    }

    /// A domain on one axis: intervals from zero and from a positive
    /// floor, degenerate and nearly degenerate ones, value sets (longer
    /// than the default grid too) and single points.
    fn arb_domain() -> impl Strategy<Value = AxisDomain> {
        let interval = |min: f64, span: f64| AxisDomain::Continuous {
            min,
            max: min + span,
        };
        prop_oneof![
            (1.0f64..400.0).prop_map(move |span| interval(0.0, span)),
            (1.0f64..400.0).prop_map(move |span| interval(0.0, span)),
            (0.5f64..100.0, 0.001f64..400.0).prop_map(move |(min, span)| interval(min, span)),
            (0.0f64..100.0).prop_map(move |min| interval(min, 0.0)),
            (0.0f64..100.0).prop_map(move |min| interval(min, 1e-13)),
            proptest::collection::vec(0.0f64..400.0, 1..14)
                .prop_map(|values| AxisDomain::discrete(Axis::FrameRate, values).expect("values")),
            (0.0f64..400.0).prop_map(AxisDomain::Fixed),
        ]
    }

    /// A preference whose shape is placed against the domain's range
    /// `[0, 400]`: ideals below the cap (the lower-bitrate tie-break
    /// decides), floors above the minimum, steps and plateaus.
    fn arb_function() -> impl Strategy<Value = SatisfactionFn> {
        prop_oneof![
            // The meshes' own: from zero, so the smallest lift scores.
            (1.0f64..500.0).prop_map(|ideal| SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal,
            }),
            (1.0f64..500.0).prop_map(|ideal| SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal,
            }),
            (0.0f64..100.0, 1.0f64..500.0).prop_map(|(min_acceptable, span)| {
                SatisfactionFn::Linear {
                    min_acceptable,
                    ideal: min_acceptable + span,
                }
            }),
            (0.0f64..50.0, 1.0f64..60.0).prop_map(|(min_acceptable, span)| {
                SatisfactionFn::Linear {
                    min_acceptable,
                    ideal: min_acceptable + span,
                }
            }),
            (0.0f64..100.0, 1.0f64..300.0, 0.5f64..100.0).prop_map(
                |(min_acceptable, span, scale)| SatisfactionFn::Saturating {
                    min_acceptable,
                    ideal: min_acceptable + span,
                    scale,
                }
            ),
            (0.0f64..300.0).prop_map(|threshold| SatisfactionFn::Step { threshold }),
            (0.0f64..200.0, 0.0f64..200.0, 0.0f64..0.5, 0.0f64..0.5).prop_map(
                |(x0, dx, s0, ds)| SatisfactionFn::Piecewise {
                    knots: vec![(x0, s0), (x0 + dx, s0 + ds), (x0 + dx + 50.0, 1.0)],
                }
            ),
            Just(SatisfactionFn::Indifferent),
        ]
    }

    fn arb_combiner() -> impl Strategy<Value = Option<Combiner>> {
        prop_oneof![
            Just(Some(Combiner::HarmonicMean)),
            Just(Some(Combiner::HarmonicMean)),
            // `None`: the weighted extension, from the profile's weights.
            Just(None),
            Just(Some(Combiner::Min)),
            Just(Some(Combiner::Product)),
            Just(Some(Combiner::GeometricMean)),
            Just(Some(Combiner::ArithmeticMean)),
        ]
    }

    /// How tight a constraint is, as the position of its limit between
    /// the constrained quantity at the domain's bottom and at its top.
    #[derive(Debug, Clone, Copy)]
    enum Tightness {
        /// No limit at all.
        Unlimited,
        /// A limit of exactly zero.
        Zero,
        /// The top fits.
        TopFits,
        /// Below the bottom: nothing fits.
        NothingFits,
        /// This share of the way from the bottom to the top.
        Share(f64),
        /// `2^-exponent` of the way: the boundary is tiny against the
        /// bracket, where the halvings of the reference do not converge.
        Tiny(i32),
        /// The bottom fits and the next float above it hardly does.
        FirstUlp,
    }

    fn arb_tightness() -> impl Strategy<Value = Tightness> {
        prop_oneof![
            Just(Tightness::Unlimited),
            Just(Tightness::Unlimited),
            Just(Tightness::Zero),
            Just(Tightness::TopFits),
            Just(Tightness::NothingFits),
            (0.0f64..1.0).prop_map(Tightness::Share),
            (0.0f64..1.0).prop_map(Tightness::Share),
            (0.0f64..1.0).prop_map(Tightness::Share),
            (0.0f64..1.0).prop_map(Tightness::Share),
            (0.0f64..1.0).prop_map(Tightness::Share),
            (1i32..70).prop_map(Tightness::Tiny),
            (1i32..70).prop_map(Tightness::Tiny),
            Just(Tightness::FirstUlp),
        ]
    }

    impl Tightness {
        fn limit(self, at_bottom: f64, at_top: f64) -> f64 {
            match self {
                Tightness::Unlimited => f64::INFINITY,
                Tightness::Zero => 0.0,
                Tightness::TopFits => at_top,
                Tightness::NothingFits => at_bottom * 0.5 - 1.0,
                Tightness::Share(share) => at_bottom + (at_top - at_bottom) * share,
                Tightness::Tiny(exponent) => {
                    at_bottom + (at_top - at_bottom) * 0.5f64.powi(exponent)
                }
                Tightness::FirstUlp => at_bottom,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8192, ..ProptestConfig::default() })]

        /// The rewritten optimizer returns what the reference returns,
        /// bit for bit, over every kind of domain, model, profile, cost
        /// and limit, at the iteration counts around the guard.
        #[test]
        fn optimize_matches_the_reference_bitwise(
            (bitrate, model_axes) in arb_model(),
            axis_count in 1usize..=3,
            domains in (arb_domain(), arb_domain(), arb_domain()),
            functions in (
                proptest::option::of(arb_function()),
                proptest::option::of(arb_function()),
                proptest::option::of(arb_function()),
            ),
            (weights, combiner) in ((0.0f64..4.0, 0.1f64..4.0, 0.1f64..4.0), arb_combiner()),
            (bandwidth, budget) in (arb_tightness(), arb_tightness()),
            (flat_price, price_per_mbit, axis_price, axis_price_squared) in (
                prop_oneof![Just(0.0f64), 0.0f64..5.0],
                0.0f64..50.0,
                0.0f64..0.1,
                prop_oneof![Just(0.0f64), Just(0.0f64), Just(0.0f64), 0.0f64..0.01],
            ),
            (iters, grid, passes) in (0usize..BISECT_ITERS.len(), 0usize..8, 0usize..6),
        ) {
            let axes = &model_axes[..axis_count];
            let mut domain = DomainVector::new();
            for (&axis, axis_domain) in axes.iter().zip([domains.0, domains.1, domains.2]) {
                domain.set(axis, axis_domain);
            }
            let mut profile = SatisfactionProfile::new();
            let functions = [functions.0, functions.1, functions.2];
            for ((&axis, function), weight) in
                axes.iter().zip(functions).zip([weights.0, weights.1, weights.2])
            {
                if let Some(function) = function {
                    profile.insert(AxisPreference::weighted(axis, function, weight));
                }
            }
            match combiner {
                Some(combiner) => profile.combiner = combiner,
                None => profile.use_weighted_combination(),
            }
            // `extend_into`'s cost — linear in the rate — plus a term
            // linear in the first axis, so a budget can bind where the
            // rate ignores that axis; one time in four a convex term on
            // top, which the secant misses.
            let cost = |p: &ParamVector| {
                let x = p.get(axes[0]).unwrap_or(0.0);
                flat_price
                    + price_per_mbit * bitrate.bits_per_second(p) / 1e6
                    + axis_price * x
                    + axis_price_squared * x * x
            };
            let (bottom, top) = (domain.bottom(), domain.top());
            let problem = Problem {
                profile: &profile,
                domain: &domain,
                bitrate: &bitrate,
                bandwidth_limit: bandwidth
                    .limit(bitrate.bits_per_second(&bottom), bitrate.bits_per_second(&top)),
                cost: &cost,
                budget: budget.limit(cost(&bottom), cost(&top)),
            };
            let defaults = OptimizeOptions::default();
            let options = OptimizeOptions {
                // Mostly the default grid; also the coarsest, one past
                // the stack buffer, and a cap that cuts the resolution.
                grid_per_axis: [9, 9, 9, 9, 2, 3, 17, 9][grid],
                max_grid_points: if grid == 7 { 50 } else { defaults.max_grid_points },
                refine_passes: [3, 3, 3, 0, 1, 5][passes],
                bisect_iters: BISECT_ITERS[iters],
            };
            assert_identical(&problem, &options);
        }

        /// One continuous axis `[min, max]` at any magnitude, the cost
        /// the axis value itself, the budget anywhere from the first
        /// float above `min` to `max`: the walk over the boundary's
        /// size against the bracket, and over the floats' own range.
        #[test]
        fn single_axis_boundaries_match_the_reference_bitwise(
            (min, span) in (prop_oneof![Just(0.0f64), 0.0f64..64.0], 1e-3f64..64.0),
            magnitude in prop_oneof![
                Just(0i32), Just(0i32), Just(-1040i32), Just(-1000i32), Just(-960i32),
                Just(-500i32), Just(500i32), Just(960i32), Just(1000i32), Just(1015i32)
            ],
            (exponent, mantissa) in (0i32..72, 1.0f64..2.0),
            saturate in 0.0f64..2.0,
            iters in 0usize..BISECT_ITERS.len(),
        ) {
            let scale = 2.0f64.powi(magnitude);
            let (min, max) = (min * scale, (min + span) * scale);
            let domain = DomainVector::new()
                .with(Axis::FrameRate, AxisDomain::Continuous { min, max });
            // The ideal below the cap half of the time.
            let profile = SatisfactionProfile::new().with(AxisPreference::new(
                Axis::FrameRate,
                SatisfactionFn::Linear { min_acceptable: 0.0, ideal: max * saturate.max(1e-3) },
            ));
            let bitrate = BitrateModel::Constant { bits_per_second: 0.0 };
            let cost = |p: &ParamVector| p.get(Axis::FrameRate).unwrap_or(0.0);
            let problem = Problem {
                profile: &profile,
                domain: &domain,
                bitrate: &bitrate,
                bandwidth_limit: f64::INFINITY,
                cost: &cost,
                budget: min + (max - min) * mantissa * 0.5f64.powi(exponent + 1),
            };
            let options = OptimizeOptions {
                bisect_iters: BISECT_ITERS[iters],
                ..OptimizeOptions::default()
            };
            assert_identical(&problem, &options);
        }
    }

    /// The X15 mesh's shape: frame rate in `[0, cap]`, 1 000 bit per
    /// frame, 15–60 kbit/s links, the profile's ideal at 30 fps.
    #[test]
    fn x15_shape_matches_the_reference_bitwise() {
        let profile = SatisfactionProfile::new().with(AxisPreference::new(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 30.0,
            },
        ));
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = |_: &ParamVector| 1.0;
        for cap_step in 0..=80 {
            let cap = 10.0 + 0.25 * cap_step as f64 + 1e-3 * (cap_step % 7) as f64;
            let domain = DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous { min: 0.0, max: cap },
            );
            for limit_step in 0..=90 {
                let problem = Problem {
                    profile: &profile,
                    domain: &domain,
                    bitrate: &bitrate,
                    bandwidth_limit: 15_000.0 + 500.0 * limit_step as f64 + 0.37 * cap_step as f64,
                    cost: &cost,
                    budget: f64::INFINITY,
                };
                assert_identical(&problem, &OptimizeOptions::default());
            }
        }
    }

    /// The strict mesh's shape: frame rate × pixel count, the rate
    /// independent of the pixels, a 12 fps floor in the profile, weights
    /// 3 : 1 — under Equa. 1 as the benchmark runs it, and under the
    /// weighted extension.
    #[test]
    fn strict_mesh_shape_matches_the_reference_bitwise() {
        let mut profile = SatisfactionProfile::new()
            .with(AxisPreference::weighted(
                Axis::FrameRate,
                SatisfactionFn::Linear {
                    min_acceptable: 12.0,
                    ideal: 30.0,
                },
                3.0,
            ))
            .with(AxisPreference::weighted(
                Axis::PixelCount,
                SatisfactionFn::Linear {
                    min_acceptable: 0.0,
                    ideal: 307_200.0,
                },
                1.0,
            ));
        let bitrate = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let cost = |_: &ParamVector| 1.0;
        for weighted in [false, true] {
            if weighted {
                profile.use_weighted_combination();
            }
            for cap_step in 0..=40 {
                let cap = 10.0 + 0.5 * cap_step as f64 + 1e-3 * (cap_step % 5) as f64;
                let domain = DomainVector::new()
                    .with(
                        Axis::FrameRate,
                        AxisDomain::Continuous { min: 0.0, max: cap },
                    )
                    .with(
                        Axis::PixelCount,
                        AxisDomain::Continuous {
                            min: 4_800.0,
                            max: 19_200.0 + 7_200.0 * cap_step as f64,
                        },
                    );
                for limit_step in 0..=45 {
                    let problem = Problem {
                        profile: &profile,
                        domain: &domain,
                        bitrate: &bitrate,
                        // From under the 12 fps floor up to the cap.
                        bandwidth_limit: 9_000.0
                            + 1_000.0 * limit_step as f64
                            + 0.61 * cap_step as f64,
                        cost: &cost,
                        budget: f64::INFINITY,
                    };
                    assert_identical(&problem, &OptimizeOptions::default());
                }
            }
        }
    }
}
