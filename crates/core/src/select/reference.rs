//! Test-only reference for the Table-1 trace.
//!
//! [`reference_select`] is the allocating form of the Figure-4 search —
//! ordered maps for the settled and candidate sets, a linear-scan argmax,
//! VT and CS kept as display lists — and builds every [`TraceRow`] eagerly
//! with the row builder (`make_row` / `path_names`) that recorded traces
//! before they became an event log. The properties below hold the log's
//! materialised rows to its rows, `Debug`-bitwise, and the optimised
//! search's discovery and selection sequences to its own, state by
//! state — which is what pins the heap's key order to the maps'
//! `StateKey` order where a tie-break policy leaves the choice to it.

use crate::graph::model::VertexConversion;
use crate::graph::{AdaptationGraph, Edge, Vertex, VertexId, VertexKind};
use crate::select::greedy::{
    arena_slots, select_chain_with_penalties, SelectFailure, SelectOptions, SelectionOutcome,
    TieBreak,
};
use crate::select::label::{ExtendContext, Label, StateKey};
use crate::select::trace::TraceRow;
use crate::Result;
use proptest::prelude::*;
use qosc_media::{
    Axis, AxisDomain, BitrateModel, DomainVector, FormatId, FormatRegistry, FormatSpec, MediaKind,
};
use qosc_netsim::{Node, Topology};
use qosc_profiles::ServiceSpec;
use qosc_satisfaction::SatisfactionProfile;
use qosc_services::{ServiceId, ServiceRegistry, TranscoderDescriptor};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct Candidate {
    label: Label,
    seq: u64,
}

/// What the reference search returns: the eager rows plus the outcome
/// fields the optimised search must agree on.
struct ReferenceRun {
    rows: Vec<TraceRow>,
    /// Every state that ever entered CS, in discovery order.
    discovered: Vec<StateKey>,
    /// The state each round selected.
    selected: Vec<StateKey>,
    /// Rounds whose argmax the policy left tied — `ByVertexIndex`, two
    /// states of one vertex at the winning satisfaction — so that the
    /// map's iteration order chose.
    order_decided_rounds: usize,
    chain: Option<Vec<String>>,
    failure: Option<SelectFailure>,
    rounds: usize,
    optimizations: usize,
}

/// Figure 4 over ordered maps, recording each round with [`make_row`].
/// Honours `tie_break` and `max_rounds`.
fn reference_select(
    graph: &AdaptationGraph,
    formats: &FormatRegistry,
    profile: &SatisfactionProfile,
    budget: f64,
    options: &SelectOptions,
    penalties: &[(ServiceId, u64)],
) -> Result<ReferenceRun> {
    let context = ExtendContext {
        graph,
        formats,
        profile,
        budget,
        optimizer: options.optimizer,
        penalties,
    };
    let sender = graph.sender().expect("generated meshes have a sender");
    let receiver = graph.receiver().expect("generated meshes have a receiver");

    let mut settled: BTreeMap<StateKey, Label> = BTreeMap::new();
    let mut candidates: BTreeMap<StateKey, Candidate> = BTreeMap::new();
    let mut cs_discovery: Vec<StateKey> = Vec::new();
    let mut discovered: Vec<StateKey> = Vec::new();
    let mut vt: Vec<VertexId> = vec![sender];
    let mut next_seq = 0u64;
    let mut optimizations = 0usize;
    let mut rows = Vec::new();
    let mut rounds = 0usize;
    let mut selected = Vec::new();
    let mut order_decided_rounds = 0usize;

    let mut expand = |label: &Label,
                      settled: &BTreeMap<StateKey, Label>,
                      candidates: &mut BTreeMap<StateKey, Candidate>,
                      cs_discovery: &mut Vec<StateKey>|
     -> Result<()> {
        for &edge_id in graph.out_edges(label.state.vertex) {
            if graph.edge(edge_id)?.format != label.state.output_format {
                continue;
            }
            optimizations += 1;
            for candidate in context.extend(label, edge_id)? {
                if settled.contains_key(&candidate.state) {
                    continue;
                }
                let seq = next_seq;
                next_seq += 1;
                match candidates.get_mut(&candidate.state) {
                    Some(existing) => {
                        let better = candidate.satisfaction > existing.label.satisfaction
                            || (candidate.satisfaction == existing.label.satisfaction
                                && candidate.accumulated_cost < existing.label.accumulated_cost);
                        if better {
                            *existing = Candidate {
                                label: candidate,
                                seq,
                            };
                        }
                    }
                    None => {
                        candidates.insert(
                            candidate.state,
                            Candidate {
                                label: candidate,
                                seq,
                            },
                        );
                        cs_discovery.push(candidate.state);
                        discovered.push(candidate.state);
                    }
                }
            }
        }
        Ok(())
    };

    let sender_labels = context.sender_labels()?;
    for label in &sender_labels {
        settled.insert(label.state, *label);
    }
    for label in &sender_labels {
        expand(label, &settled, &mut candidates, &mut cs_discovery)?;
    }

    let (chain, failure) = loop {
        if candidates.is_empty() {
            break (None, Some(SelectFailure::CandidatesExhausted));
        }
        if rounds >= options.max_rounds {
            break (None, Some(SelectFailure::RoundLimit));
        }
        rounds += 1;

        let best = pick_best(&candidates, options.tie_break);
        let label = candidates.remove(&best).expect("picked from the map").label;
        selected.push(best);
        order_decided_rounds += usize::from(
            options.tie_break == TieBreak::ByVertexIndex
                && candidates.values().any(|other| {
                    other.label.state.vertex == best.vertex
                        && other.label.satisfaction == label.satisfaction
                }),
        );
        rows.push(make_row(
            graph,
            rounds,
            &vt,
            &cs_discovery,
            &candidates,
            &label,
            &settled,
            receiver,
        )?);

        let name = &graph.vertex(label.state.vertex)?.name;
        let mut seen = false;
        for &vertex in &vt {
            if &graph.vertex(vertex)?.name == name {
                seen = true;
                break;
            }
        }
        if !seen {
            vt.push(label.state.vertex);
        }
        settled.insert(label.state, label);
        cs_discovery.retain(|s| candidates.contains_key(s));

        if label.state.vertex == receiver {
            break (Some(path_names(graph, &settled, &label)?), None);
        }
        expand(&label, &settled, &mut candidates, &mut cs_discovery)?;
    };
    Ok(ReferenceRun {
        rows,
        discovered,
        selected,
        order_decided_rounds,
        chain,
        failure,
        rounds,
        optimizations,
    })
}

/// Step 4's argmax: highest satisfaction, ties by policy, scanning in
/// `StateKey` order.
fn pick_best(candidates: &BTreeMap<StateKey, Candidate>, tie_break: TieBreak) -> StateKey {
    let mut best: Option<&Candidate> = None;
    for candidate in candidates.values() {
        let better = match best {
            None => true,
            Some(current) => {
                let (sat, best_sat) = (candidate.label.satisfaction, current.label.satisfaction);
                let (cost, best_cost) = (
                    candidate.label.accumulated_cost,
                    current.label.accumulated_cost,
                );
                if sat != best_sat {
                    sat > best_sat
                } else {
                    match tie_break {
                        TieBreak::PaperOrder if cost != best_cost => cost < best_cost,
                        TieBreak::PaperOrder => candidate.seq > current.seq,
                        TieBreak::Fifo => candidate.seq < current.seq,
                        TieBreak::ByVertexIndex => {
                            candidate.label.state.vertex < current.label.state.vertex
                        }
                    }
                }
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("candidates not empty").label.state
}

/// Build one Table-1 row for the round that settles `selected`.
#[allow(clippy::too_many_arguments)]
fn make_row(
    graph: &AdaptationGraph,
    round: usize,
    vt: &[VertexId],
    cs_discovery: &[StateKey],
    remaining: &BTreeMap<StateKey, Candidate>,
    selected: &Label,
    settled: &BTreeMap<StateKey, Label>,
    receiver: VertexId,
) -> Result<TraceRow> {
    // CS display: discovery order, receiver pinned last, deduplicated,
    // including the about-to-be-selected candidate (the paper shows the
    // CS at the *start* of the round).
    let mut cs_names: Vec<String> = Vec::new();
    let mut receiver_present = false;
    let mut push_state = |state: &StateKey, names: &mut Vec<String>| -> Result<()> {
        if state.vertex == receiver {
            receiver_present = true;
            return Ok(());
        }
        let name = &graph.vertex(state.vertex)?.name;
        if !names.contains(name) {
            names.push(name.clone());
        }
        Ok(())
    };
    for state in cs_discovery {
        if *state == selected.state || remaining.contains_key(state) {
            push_state(state, &mut cs_names)?;
        }
    }
    if selected.state.vertex == receiver {
        receiver_present = true;
    }
    if receiver_present {
        cs_names.push(graph.vertex(receiver)?.name.clone());
    }

    let mut considered: Vec<String> = Vec::with_capacity(vt.len());
    for &vertex in vt {
        considered.push(graph.vertex(vertex)?.name.clone());
    }
    let path = path_names(graph, settled, selected)?;
    Ok(TraceRow {
        round,
        considered,
        candidates: cs_names,
        selected: graph.vertex(selected.state.vertex)?.name.clone(),
        selected_path: path,
        params: selected.params,
        satisfaction: selected.satisfaction,
        accumulated_cost: selected.accumulated_cost,
    })
}

/// Names of the chain from the sender to `label`, via parent links
/// (Step 10's reverse walk).
fn path_names(
    graph: &AdaptationGraph,
    settled: &BTreeMap<StateKey, Label>,
    label: &Label,
) -> Result<Vec<String>> {
    let mut names = vec![graph.vertex(label.state.vertex)?.name.clone()];
    let mut parent = label.parent;
    while let Some(state) = parent {
        names.push(graph.vertex(state.vertex)?.name.clone());
        parent = settled.get(&state).and_then(|l| l.parent);
    }
    names.reverse();
    Ok(names)
}

/// A seeded random adaptation graph, built vertex by vertex so the
/// generator controls what `graph::build` never produces: transcoders
/// that share a display name (even the sender's or the receiver's), a
/// thin direct sender → receiver edge that puts the receiver in CS from
/// round 1 while better chains are still being explored, and "fan"
/// transcoders that list their outputs in *descending* `FormatId` order
/// at one quality cap (their states tie wherever they are candidates
/// together) and reach one output from several inputs.
struct Mesh {
    formats: FormatRegistry,
    graph: AdaptationGraph,
    /// Probation penalties over a random subset of the transcoders,
    /// sorted by service id.
    penalties: Vec<(ServiceId, u64)>,
    budget: f64,
}

fn frame_rates(cap: f64) -> DomainVector {
    DomainVector::new().with(
        Axis::FrameRate,
        AxisDomain::Continuous { min: 0.0, max: cap },
    )
}

fn random_mesh(seed: u64) -> Mesh {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pick = |rng: &mut SmallRng, choices: &[f64]| choices[rng.random_range(0..choices.len())];

    let mut formats = FormatRegistry::new();
    let format_ids: Vec<FormatId> = (0..rng.random_range(2..=5usize))
        .map(|i| {
            let bitrate = BitrateModel::LinearOnAxis {
                axis: Axis::FrameRate,
                slope: 1000.0,
            };
            formats.register(FormatSpec::new(format!("F{i}"), MediaKind::Video, bitrate))
        })
        .collect();
    let any_format = |rng: &mut SmallRng| format_ids[rng.random_range(0..format_ids.len())];
    let host = Topology::new().add_node(Node::unconstrained("host"));
    let mut services = ServiceRegistry::new();
    let mut graph = AdaptationGraph::new();
    let vertex = |kind, name: String, conversions| Vertex {
        kind,
        name,
        host,
        conversions,
        price_per_second: 0.0,
        price_per_mbit: 0.0,
    };

    let variants: Vec<FormatId> = (0..rng.random_range(1..=2usize))
        .map(|_| any_format(&mut rng))
        .collect();
    let sender = graph.add_vertex(vertex(
        VertexKind::Sender,
        "sender".to_string(),
        variants
            .iter()
            .map(|&format| VertexConversion {
                input: format,
                output: format,
                output_domain: frame_rates(30.0),
            })
            .collect(),
    ));

    let transcoders = rng.random_range(3..=14usize);
    let mut penalties = Vec::new();
    let mut ids = vec![sender];
    for index in 0..transcoders {
        // A few frame-rate caps and few names: satisfaction ties and
        // shared display names are the common case, not the rare one.
        let input = any_format(&mut rng);
        let conversions = if rng.random_bool(0.3) {
            let low = rng.random_range(0..format_ids.len() - 1);
            let high = rng.random_range(low + 1..format_ids.len());
            let domain = frame_rates(pick(&mut rng, &[15.0, 24.0, 30.0]));
            [
                (input, format_ids[high]),
                (input, format_ids[low]),
                (any_format(&mut rng), format_ids[low]),
            ]
            .into_iter()
            .map(|(input, output)| VertexConversion {
                input,
                output,
                output_domain: domain.clone(),
            })
            .collect()
        } else {
            (0..rng.random_range(1..=3usize))
                .map(|_| VertexConversion {
                    input: if rng.random_bool(0.7) {
                        input
                    } else {
                        any_format(&mut rng)
                    },
                    output: any_format(&mut rng),
                    output_domain: frame_rates(pick(&mut rng, &[10.0, 15.0, 20.0, 24.0, 30.0])),
                })
                .collect()
        };
        let name = match rng.random_range(0..20u32) {
            0 => "sender".to_string(),
            1 => "receiver".to_string(),
            2..=8 => format!("T{}", rng.random_range(0..=index)),
            _ => format!("T{index}"),
        };
        let spec = ServiceSpec::new(name.clone(), vec![]);
        let descriptor = TranscoderDescriptor::resolve(&spec, &formats, host).unwrap();
        let service = services.register_static(descriptor);
        if rng.random_bool(0.3) {
            penalties.push((service, pick(&mut rng, &[500_000.0, 900_000.0]) as u64));
        }
        let mut transcoder = vertex(VertexKind::Transcoder(service), name, conversions);
        transcoder.price_per_second = pick(&mut rng, &[0.0, 0.0, 0.25]);
        ids.push(graph.add_vertex(transcoder));
    }

    let mut decoders = vec![any_format(&mut rng)];
    let direct = rng.random_bool(0.4);
    if direct {
        decoders.push(variants[0]);
    }
    decoders.dedup();
    let receiver = graph.add_vertex(vertex(
        VertexKind::Receiver,
        "receiver".to_string(),
        decoders
            .iter()
            .map(|&format| VertexConversion {
                input: format,
                output: format,
                output_domain: DomainVector::new(),
            })
            .collect(),
    ));

    let connect = |graph: &mut AdaptationGraph, from: VertexId, to: VertexId, bps: f64| {
        let outputs = graph.vertex(from).unwrap().output_formats();
        for format in outputs {
            if graph.vertex(to).unwrap().accepts(format) {
                let edge = Edge {
                    from,
                    to,
                    format,
                    available_bps: bps,
                    delay_us: 0,
                    price_flat: 0.0,
                    price_per_mbit: 0.0,
                };
                graph.add_edge(edge).unwrap();
            }
        }
    };
    let density = pick(&mut rng, &[0.3, 0.6, 0.9]);
    for &from in &ids {
        for &to in &ids[1..] {
            if from != to && rng.random_bool(density) {
                let bps = pick(&mut rng, &[12_000.0, 20_000.0, 24_000.0, 1e9]);
                connect(&mut graph, from, to, bps);
            }
        }
        if from != sender && rng.random_bool(0.5) {
            let bps = pick(&mut rng, &[20_000.0, 1e9]);
            connect(&mut graph, from, receiver, bps);
        }
    }
    if direct {
        connect(&mut graph, sender, receiver, 8_000.0);
    }

    Mesh {
        formats,
        graph,
        penalties,
        budget: pick(&mut rng, &[f64::INFINITY, f64::INFINITY, 0.5]),
    }
}

const TIE_BREAKS: [TieBreak; 3] = [
    TieBreak::PaperOrder,
    TieBreak::Fifo,
    TieBreak::ByVertexIndex,
];

fn run(mesh: &Mesh, options: &SelectOptions, penalties: &[(ServiceId, u64)]) -> SelectionOutcome {
    select_chain_with_penalties(
        &mesh.graph,
        &mesh.formats,
        &SatisfactionProfile::paper_table1(),
        mesh.budget,
        options,
        penalties,
    )
    .unwrap()
}

fn reference(mesh: &Mesh, options: &SelectOptions, penalties: &[(ServiceId, u64)]) -> ReferenceRun {
    reference_select(
        &mesh.graph,
        &mesh.formats,
        &SatisfactionProfile::paper_table1(),
        mesh.budget,
        options,
        penalties,
    )
    .unwrap()
}

/// The optimised run and the reference agree on everything they both
/// report; rows are compared through `{:?}` (exact floats).
fn assert_same(outcome: &SelectionOutcome, want: &ReferenceRun, context: &str) {
    assert_eq!(
        format!("{:?}", outcome.trace.rows),
        format!("{:?}", want.rows),
        "{context}: rows"
    );
    assert_eq!(
        outcome.trace.rows.discovered_state_keys(),
        want.discovered,
        "{context}: one log entry per discovered state, in discovery order"
    );
    assert_eq!(
        outcome.trace.rows.selected_state_keys(),
        want.selected,
        "{context}: one log entry per round, naming the state it selected"
    );
    assert_eq!(outcome.failure, want.failure, "{context}: failure");
    assert_eq!(outcome.rounds, want.rounds, "{context}: rounds");
    assert_eq!(
        outcome.optimizations, want.optimizations,
        "{context}: optimizations"
    );
    let chain = outcome
        .chain
        .as_ref()
        .map(|c| c.names().into_iter().map(String::from).collect::<Vec<_>>());
    assert_eq!(chain, want.chain, "{context}: chain");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every policy × penalties combination, run to completion (success
    /// or `CandidatesExhausted`, each with the rounds that ran).
    #[test]
    fn materialised_rows_equal_reference_rows(seed in 0u64..1 << 48) {
        let mesh = random_mesh(seed);
        for tie_break in TIE_BREAKS {
            for penalties in [&[][..], &mesh.penalties[..]] {
                let options = SelectOptions { tie_break, ..SelectOptions::default() };
                let context = format!("seed {seed} {tie_break:?} {} penalties", penalties.len());
                assert_same(&run(&mesh, &options, penalties), &reference(&mesh, &options, penalties), &context);
            }
        }
    }

    /// `RoundLimit` returns the rows of the rounds that ran: a prefix of
    /// the full run's rows.
    #[test]
    fn interrupted_runs_keep_their_partial_trace(seed in 0u64..1 << 48, cut in 0usize..6) {
        let mesh = random_mesh(seed);
        for tie_break in TIE_BREAKS {
            let limited = SelectOptions { tie_break, max_rounds: cut, ..SelectOptions::default() };
            let context = format!("seed {seed} {tie_break:?} max_rounds {cut}");
            assert_same(&run(&mesh, &limited, &mesh.penalties), &reference(&mesh, &limited, &mesh.penalties), &context);
        }
    }
}

/// The generator reaches the cases the row builder treats specially; a
/// differential test over meshes that never share a name or never see
/// the receiver early would prove little.
#[test]
fn generated_meshes_cover_the_special_cases() {
    let (mut shared_name, mut two_states, mut receiver_waits) = (0, 0, 0);
    let (mut exhausted_midway, mut reached) = (0, 0);
    for seed in 0..200 {
        let mesh = random_mesh(seed);
        let outcome = run(&mesh, &SelectOptions::default(), &[]);
        let rows = outcome.trace.rows.to_vec();
        let want = reference(&mesh, &SelectOptions::default(), &[]);
        let name = |state: &StateKey| &mesh.graph.vertex(state.vertex).unwrap().name;
        let pairs = || {
            let states = &want.discovered;
            (0..states.len()).flat_map(move |i| (0..i).map(move |j| (&states[i], &states[j])))
        };
        shared_name +=
            usize::from(pairs().any(|(a, b)| a.vertex != b.vertex && name(a) == name(b)));
        two_states += usize::from(pairs().any(|(a, b)| a.vertex == b.vertex));
        receiver_waits += usize::from(
            rows.iter()
                .filter(|row| {
                    row.candidates.last().map(String::as_str) == Some("receiver")
                        && row.selected != "receiver"
                })
                .count()
                >= 2,
        );
        exhausted_midway += usize::from(
            outcome.failure == Some(SelectFailure::CandidatesExhausted) && outcome.rounds > 0,
        );
        reached += usize::from(outcome.chain.is_some());
    }
    assert!(shared_name >= 50, "shared display names: {shared_name}");
    assert!(two_states >= 50, "multi-output vertices: {two_states}");
    assert!(
        receiver_waits >= 20,
        "receiver pinned last: {receiver_waits}"
    );
    assert!(
        exhausted_midway >= 10,
        "partial-trace failures: {exhausted_midway}"
    );
    assert!(reached >= 100, "receiver reached: {reached}");
}

/// The generator also reaches what the state table exists to get right:
/// a vertex whose listing order is not its `FormatId` order, an output
/// shared by conversions from different inputs, and — under
/// `ByVertexIndex`, the one policy that leaves ties to the reference's
/// map order — rounds that order actually decides.
#[test]
fn generated_meshes_cover_the_state_table_cases() {
    let options = SelectOptions {
        tie_break: TieBreak::ByVertexIndex,
        ..SelectOptions::default()
    };
    let (mut descending, mut shared_output, mut order_decided) = (0, 0, 0);
    for seed in 0..200 {
        let mesh = random_mesh(seed);
        let want = reference(&mesh, &options, &[]);
        let reached = |vertex: VertexId, output: FormatId| {
            want.discovered.contains(&StateKey {
                vertex,
                output_format: output,
            })
        };
        let vertices = || {
            mesh.graph
                .vertex_ids()
                .map(|id| (id, &mesh.graph.vertex(id).unwrap().conversions))
        };
        descending += usize::from(vertices().any(|(id, conversions)| {
            conversions.windows(2).any(|pair| {
                pair[0].output > pair[1].output
                    && reached(id, pair[0].output)
                    && reached(id, pair[1].output)
            })
        }));
        shared_output += usize::from(vertices().any(|(id, conversions)| {
            conversions.iter().any(|a| {
                reached(id, a.output)
                    && conversions
                        .iter()
                        .any(|b| b.output == a.output && b.input != a.input)
            })
        }));
        order_decided += usize::from(want.order_decided_rounds > 0);
    }
    assert!(
        descending >= 50,
        "descending listings reached: {descending}"
    );
    assert!(
        shared_output >= 50,
        "shared outputs reached: {shared_output}"
    );
    assert!(order_decided >= 50, "scan-order ties: {order_decided}");
}

/// The arena holds one slot per advertised `(vertex, output)` — neither
/// one per conversion nor one per registered format. Capacity is per
/// thread and only grows, so each mesh runs on a thread of its own.
#[test]
fn the_arena_holds_one_slot_per_advertised_output() {
    for seed in 0..64 {
        let mesh = random_mesh(seed);
        let states: usize = mesh
            .graph
            .vertex_ids()
            .map(|id| mesh.graph.vertex(id).unwrap().output_formats().len())
            .sum();
        let slots = std::thread::scope(|scope| {
            let run = || {
                run(&mesh, &SelectOptions::default(), &[]);
                arena_slots()
            };
            scope.spawn(run).join().expect("selection thread")
        });
        assert_eq!(slots, states, "seed {seed}");
    }
}
