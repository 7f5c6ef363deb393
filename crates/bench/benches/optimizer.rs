//! The constrained parameter optimizer (Step 2/8 of Figure 4): fast path
//! vs constrained single-axis vs constrained multi-axis, then the two
//! constrained shapes the benchmark's meshes really run — the X15 mesh's
//! one link-bound axis and the strict mesh's frame rate × pixel count.

use criterion::{criterion_group, criterion_main, Criterion};
use qosc_bench::scorecard::strict_scenario;
use qosc_media::{Axis, AxisDomain, BitrateModel, DomainVector, ParamVector};
use qosc_satisfaction::{
    optimize, AxisPreference, OptimizeOptions, Problem, SatisfactionFn, SatisfactionProfile,
};

fn single_axis_profile() -> SatisfactionProfile {
    SatisfactionProfile::paper_table1()
}

fn multi_axis_profile() -> SatisfactionProfile {
    SatisfactionProfile::new()
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
        ))
        .with(AxisPreference::new(
            Axis::ColorDepth,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 24.0,
            },
        ))
}

fn bench_optimizer(c: &mut Criterion) {
    let options = OptimizeOptions::default();
    let free = |_: &ParamVector| 0.0;

    // Fast path: unconstrained top.
    let profile = single_axis_profile();
    let domain = DomainVector::new().with(
        Axis::FrameRate,
        AxisDomain::Continuous {
            min: 0.0,
            max: 30.0,
        },
    );
    let bitrate = BitrateModel::LinearOnAxis {
        axis: Axis::FrameRate,
        slope: 1000.0,
    };
    c.bench_function("optimizer/fast_path", |b| {
        let p = Problem {
            profile: &profile,
            domain: &domain,
            bitrate: &bitrate,
            bandwidth_limit: f64::INFINITY,
            cost: &free,
            budget: f64::INFINITY,
        };
        b.iter(|| optimize(&p, &options).expect("feasible"))
    });

    // Constrained single axis: the boundary is the largest feasible float.
    c.bench_function("optimizer/single_axis_constrained", |b| {
        let p = Problem {
            profile: &profile,
            domain: &domain,
            bitrate: &bitrate,
            bandwidth_limit: 18_000.0,
            cost: &free,
            budget: f64::INFINITY,
        };
        b.iter(|| optimize(&p, &options).expect("feasible"))
    });

    // Constrained three-axis video: grid + coordinate ascent.
    let profile3 = multi_axis_profile();
    let domain3 = DomainVector::new()
        .with(
            Axis::FrameRate,
            AxisDomain::Continuous {
                min: 1.0,
                max: 30.0,
            },
        )
        .with(
            Axis::PixelCount,
            AxisDomain::Continuous {
                min: 19_200.0,
                max: 307_200.0,
            },
        )
        .with(
            Axis::ColorDepth,
            AxisDomain::Continuous {
                min: 4.0,
                max: 24.0,
            },
        );
    let video = BitrateModel::CompressedVideo {
        compression_ratio: 100.0,
    };
    c.bench_function("optimizer/three_axis_constrained", |b| {
        let p = Problem {
            profile: &profile3,
            domain: &domain3,
            bitrate: &video,
            bandwidth_limit: 400_000.0,
            cost: &free,
            budget: f64::INFINITY,
        };
        b.iter(|| optimize(&p, &options).expect("feasible"))
    });

    // X15 (`compose_hot`): frame rate in [0, cap] with the cap drawn
    // from 10–30 fps, 1 000 bit per frame, a 15–60 kbit/s link below it.
    let capped = DomainVector::new().with(
        Axis::FrameRate,
        AxisDomain::Continuous {
            min: 0.0,
            max: 23.7,
        },
    );
    let flat = |_: &ParamVector| 1.0;
    c.bench_function("optimizer/x15_link_bound", |b| {
        let p = Problem {
            profile: &profile,
            domain: &capped,
            bitrate: &bitrate,
            bandwidth_limit: 17_340.0,
            cost: &flat,
            budget: f64::INFINITY,
        };
        b.iter(|| optimize(&p, &options).expect("feasible"))
    });

    // The strict mesh (`sessions_chaos`): frame rate × pixel count, the
    // rate set by the frames alone, a 12 fps floor, weights 3 : 1.
    let strict = strict_scenario().profiles.user.satisfaction;
    let frames_by_pixels = DomainVector::new()
        .with(
            Axis::FrameRate,
            AxisDomain::Continuous {
                min: 0.0,
                max: 23.7,
            },
        )
        .with(
            Axis::PixelCount,
            AxisDomain::Continuous {
                min: 4_800.0,
                max: 181_300.0,
            },
        );
    c.bench_function("optimizer/strict_two_axis_link_bound", |b| {
        let p = Problem {
            profile: &strict,
            domain: &frames_by_pixels,
            bitrate: &bitrate,
            bandwidth_limit: 17_340.0,
            cost: &flat,
            budget: f64::INFINITY,
        };
        b.iter(|| optimize(&p, &options).expect("feasible"))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_optimizer
}
criterion_main!(benches);
