//! White-box tests of the serving loop's side of the compose memo —
//! [`intern`] and the class id per (request id, rung) that
//! [`compose_rung`] keeps — for what no run shows. That every answer
//! equals a fresh compose is the whole-run memo-off property of
//! `tests/session_policy_matrix.rs`; but a natural run never collides
//! two requests' hashes, rarely serves two distinct requests from one
//! memo, and never composes an error at a stamp it composes again, so
//! the ids' exactness, the class per (id, rung), the sharing of one
//! class's answers and the Ok-only rule are pinned here.

use super::{
    compose_rung, degrade_profiles, intern, request_hash, CompositionRequest, DegradationRung,
};
use crate::compose_memo::{Answer, ComposeMemo};
use crate::select::SelectOptions;
use crate::test_world::World;
use crate::Result;
use proptest::{run_cases, ProptestConfig};
use qosc_media::MediaKind;
use qosc_netsim::SimTime;
use qosc_profiles::{
    AdaptationPolicy, ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet,
    UserProfile,
};
use rand::RngExt;
use std::sync::{Arc, OnceLock};

/// The demo user's request and Table 1's: two viewers who compose
/// differently.
fn requests(world: &World) -> [CompositionRequest; 2] {
    [UserProfile::demo("demo"), UserProfile::paper_table1()].map(|user| CompositionRequest {
        profiles: ProfileSet {
            user,
            content: ContentProfile::demo_video("clip"),
            device: DeviceProfile::demo_pda(),
            context: ContextProfile::default(),
            network: NetworkProfile::broadband(),
        },
        sender_host: world.server,
        receiver_host: world.client,
    })
}

/// `request` at `rung`, composed from scratch, memo-less.
fn fresh(world: &World, request: &CompositionRequest, rung: DegradationRung) -> Answer {
    let profiles = degrade_profiles(&request.profiles, rung);
    let options = SelectOptions::default();
    let composed = world.composer().compose(
        &profiles,
        request.sender_host,
        request.receiver_host,
        &options,
    );
    composed.expect("the world composes").plan.map(Arc::new)
}

/// One run's side of the memo: its requests interned as `run_sessions`
/// interns them, its memo, and the class id per (request id, rung).
struct Run {
    requests: Vec<CompositionRequest>,
    ids: Vec<u32>,
    memo: ComposeMemo,
    classes: Vec<OnceLock<u32>>,
}

impl Run {
    fn new(requests: Vec<CompositionRequest>) -> Run {
        let (ids, distinct) = intern(&requests, request_hash);
        let classes = distinct * DegradationRung::LADDER.len();
        Run {
            requests,
            ids,
            memo: ComposeMemo::default(),
            classes: (0..classes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Where the run keeps the class id of request `session` at `rung`.
    fn class(&self, session: usize, rung: DegradationRung) -> &OnceLock<u32> {
        &self.classes[self.ids[session] as usize * DegradationRung::LADDER.len() + rung as usize]
    }

    /// Request `session` at `rung`, as `serve_one` composes it.
    fn compose(&self, world: &World, session: usize, rung: DegradationRung) -> Result<Answer> {
        let (memo, class) = (&self.memo, self.class(session, rung));
        let options = SelectOptions::default();
        compose_rung(
            &world.composer(),
            memo,
            class,
            &self.requests[session],
            rung,
            &options,
        )
    }

    /// Kernel runs so far: the store's graph fetches, one per compose and
    /// none per stored answer (the process-wide kernel counter would
    /// count other tests' runs).
    fn kernels(&self) -> u64 {
        let stats = self.memo.store().stats();
        stats.rebuilds + stats.reuses
    }
}

/// The demo request and near-duplicates of it, each differing in one
/// field — the two hosts among them — plus one twin that differs only
/// in the sign of a zero, which `==` (and so interning) treats as equal.
fn near_duplicates(world: &World) -> Vec<CompositionRequest> {
    let [base, _] = requests(world);
    let proxy = world.proxy;
    let variant = |change: &dyn Fn(&mut CompositionRequest)| {
        let mut request = base.clone();
        change(&mut request);
        request
    };
    vec![
        base.clone(),
        variant(&|r| r.sender_host = proxy),
        variant(&|r| r.receiver_host = proxy),
        variant(&|r| std::mem::swap(&mut r.sender_host, &mut r.receiver_host)),
        variant(&|r| r.profiles.user.name.push('2')),
        variant(&|r| r.profiles.user.satisfaction.use_weighted_combination()),
        variant(&|r| r.profiles.user.budget = Some(1.0)),
        variant(&|r| {
            r.profiles.user.policy = AdaptationPolicy {
                degrade_first: vec![MediaKind::Audio],
            }
        }),
        variant(&|r| r.profiles.content = ContentProfile::demo_video("clip2")),
        variant(&|r| r.profiles.device.decoders.push("video/h261".to_string())),
        variant(&|r| r.profiles.device.hardware.cpu_mips += 1.0),
        variant(&|r| r.profiles.context.mobile = !r.profiles.context.mobile),
        variant(&|r| r.profiles.context.ambient_noise += 0.25),
        variant(&|r| r.profiles.network.delay_us += 1),
        variant(&|r| r.profiles.network.downlink_bps *= 2.0),
        // Equal under `==`, not bitwise: 0.0 and -0.0.
        variant(&|r| r.profiles.context.ambient_noise = -r.profiles.context.ambient_noise),
    ]
}

/// Ids are equal exactly when requests are `==`, and number the distinct
/// requests densely in order of first appearance — whatever the bucket
/// hash, down to one that sends every request to the same bucket, so
/// only `==` tells them apart.
#[test]
fn interned_ids_are_equal_exactly_when_requests_are() {
    let world = World::new();
    let pool = near_duplicates(&world);
    assert_eq!(pool[0].profiles.context.ambient_noise, 0.0);
    for (i, a) in pool.iter().enumerate() {
        for (j, b) in pool.iter().enumerate().skip(i + 1) {
            let twins = i == 0 && j == pool.len() - 1;
            assert_eq!(a == b, twins, "pool members {i} and {j}");
        }
    }
    let config = ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    };
    run_cases(config, "intern_exact", |rng| {
        // Runs of one member exercise the previous-request shortcut;
        // returns to an earlier member exercise the buckets.
        let mut sequence: Vec<&CompositionRequest> = Vec::new();
        for _ in 0..rng.random_range(0..=12usize) {
            let member = &pool[rng.random_range(0..pool.len())];
            for _ in 0..rng.random_range(1..=3usize) {
                sequence.push(member);
            }
        }
        let hashes: [&dyn Fn(&CompositionRequest) -> u64; 2] = [&request_hash, &|_| 7];
        for hash in hashes {
            let (ids, distinct) = intern(sequence.iter().copied(), hash);
            assert_eq!(ids.len(), sequence.len());
            let mut next = 0;
            for (k, request) in sequence.iter().enumerate() {
                let first = sequence.iter().position(|r| r == request).expect("present");
                if first == k {
                    assert_eq!(ids[k], next, "a new request takes the next id");
                    next += 1;
                } else {
                    assert_eq!(ids[k], ids[first], "an equal request takes its id");
                }
            }
            assert_eq!(distinct, next as usize);
        }
    });
}

/// Two requests at every rung in one run: each (id, rung) resolves its
/// own class and answers its own composition, both fresh and from the
/// memo, and the two requests never share a class.
#[test]
fn every_request_and_rung_has_its_own_slot() {
    let world = World::new();
    let run = Run::new(requests(&world).to_vec());
    let full = DegradationRung::Full;
    assert_ne!(
        fresh(&world, &run.requests[0], full),
        fresh(&world, &run.requests[1], full),
        "the two requests compose differently"
    );
    for _ in 0..2 {
        for (session, request) in run.requests.iter().enumerate() {
            for rung in DegradationRung::LADDER {
                let answer = run.compose(&world, session, rung).expect("composes");
                assert_eq!(answer, fresh(&world, request, rung), "{session} at {rung}");
            }
        }
    }
    for rung in DegradationRung::LADDER {
        let (a, b) = (run.class(0, rung).get(), run.class(1, rung).get());
        assert!(a.is_some() && b.is_some() && a != b, "{rung}");
    }
}

/// Errors are not stored: every attempt recomposes, so the retry loop
/// sees what it would see without the memo. A request whose profiles do
/// not resolve keeps no class id and interns nothing.
#[test]
fn only_successful_compositions_are_stored() {
    let world = World::new();
    let [mut undecodable, _] = requests(&world);
    undecodable.profiles.device.decoders = vec!["no-such-format".to_string()];
    let run = Run::new(vec![undecodable]);
    for _ in 0..2 {
        assert!(run.compose(&world, 0, DegradationRung::Full).is_err());
    }
    assert!(run.classes.iter().all(|class| class.get().is_none()));
    assert_eq!((run.memo.len(), run.kernels()), (0, 0));
}

/// What one compose memo for the cache and the sessions adds, in one
/// run: two requests that differ only in `user.name` are two request
/// ids but one class, so they run one kernel per world state; the demo
/// user's four rungs resolve to two classes, because its floors are
/// already 0 and its `degrade_first` is empty; and a quarantine followed
/// by a release is answered from the history, with the healthy world's
/// very answers and no kernel run.
#[test]
fn names_rungs_and_returning_worlds_share_one_class_answer() {
    use DegradationRung::*;
    let mut world = World::new();
    let [demo, _] = requests(&world);
    assert!(demo.profiles.user.policy.degrade_first.is_empty());
    let mut renamed = demo.clone();
    renamed.profiles.user.name.push('2');
    let run = Run::new(vec![demo.clone(), renamed]);
    assert_ne!(run.ids[0], run.ids[1]);
    let compose_all = |world: &World| {
        let before = run.kernels();
        let mut answers = Vec::new();
        for session in [0, 1] {
            for rung in DegradationRung::LADDER {
                let answer = run.compose(world, session, rung).expect("composes");
                assert_eq!(answer, fresh(world, &demo, rung), "{session} at {rung}");
                answers.push(answer);
            }
        }
        (answers, run.kernels() - before)
    };

    let (healthy, kernels) = compose_all(&world);
    assert_eq!((kernels, run.memo.len()), (2, 2), "one kernel per class");
    let class = |session, rung| run.class(session, rung).get().copied();
    for session in [0, 1] {
        assert_eq!(class(session, Full), class(0, RelaxedFloor));
        assert_eq!(class(session, WeightedCombiner), class(0, DropSecondary));
        assert_ne!(class(session, Full), class(0, DropSecondary));
    }

    let plan = healthy[0].as_ref().expect("solvable");
    let victim = plan.steps.iter().find_map(|step| step.service);
    let victim = victim.expect("has a transcoder");
    assert!(world.services.report_failure(victim, SimTime(10)).unwrap());
    assert_eq!(
        compose_all(&world).1,
        2,
        "a new world: one kernel per class"
    );
    let released = world.services.release_quarantines(SimTime(2_000_000));
    assert_eq!(released, [victim]);
    let (again, kernels) = compose_all(&world);
    assert_eq!(
        kernels, 0,
        "the healthy world again: answered from the history"
    );
    let same = |(a, b): (&Answer, &Answer)| match (a, b) {
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    };
    assert!(again.iter().zip(&healthy).all(same));
}
