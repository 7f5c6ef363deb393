//! The greedy QoS selection algorithm — Figure 4 of the paper.
//!
//! ```text
//! Step 1: VT = {sender}; CS = neighbor(sender)
//! Step 2: for each Ti in CS: Optimize(...)           → candidate labels
//! Step 3: if is_empty(CS): TERMINATE(FAILURE)
//! Step 4: select Ti with the highest Sat_T[i]; CS -= {Ti}
//! Step 5: VT += {Ti}
//! Step 6: Ti.previous = Tprev; accumulate cost
//! Step 7: if Ti = receiver: GOTO Step 10
//! Step 8: for each Tj in neighbors(Ti): Optimize(...); CS ∪= {Tj}
//! Step 9: GOTO Step 3
//! Step 10: print the reverse path from the receiver
//! ```
//!
//! The search runs over `(vertex, output format)` states (see
//! [`StateKey`]); each round settles the
//! candidate with the highest constrained-optimal satisfaction. Because
//! extension never increases satisfaction (quality monotonicity), the
//! first settled receiver state carries the maximum achievable
//! satisfaction — the Figure-5 optimality argument.
//!
//! ## The hot path: a reused arena and an O(Δ) trace log
//!
//! Every search structure lives in a per-thread scratch arena
//! (`SelectScratch`) reused across requests. A state's handle comes
//! from a per-request `StateTable`: each vertex's *advertised* outputs
//! (the distinct `output` formats of its conversions), sorted ascending
//! and laid end to end, so `handle(v, f) = base[v] + rank of f among v's
//! outputs`. The settled and candidate label stores are
//! generation-stamped slot arrays over those handles — Σ_v |outputs(v)|
//! slots, one per state the search can ever label, however many formats
//! the registry holds — and the lazy-deletion heap and all working
//! buffers keep their capacity between runs. Dominance pruning —
//! dropping a relaxed label that does not beat the incumbent of its
//! state — is one slot comparison. Step 4's argmax pops the heap, whose
//! key encodes the tie-break policy and, where the policy leaves a tie,
//! the [`StateKey`] itself, so plans, traces, and tie-breaks are bitwise
//! identical to the allocating search over `BTreeMap<StateKey, _>`
//! (`select/reference.rs` holds it to that).
//!
//! What a run allocates is what it returns: the chain, and — with
//! [`SelectOptions::record_trace`], which is on by default — the
//! [`TraceLog`]. The search keeps no VT or CS display list. It appends
//! one log entry when a state first enters CS and one when a round
//! selects, so recording costs O(states newly discovered + 1) per round,
//! compares no names and grows three buffers amortised; the Table-1 rows
//! are built from the log only when somebody reads them (see
//! [`trace`](crate::select::trace)).

use crate::graph::{AdaptationGraph, EdgeId};
use crate::select::label::{ExtendContext, Label, StateKey};
use crate::select::trace::{SelectionTrace, TraceLog};
use crate::select::{ChainStep, SelectedChain};
use crate::{CoreError, Result};
use qosc_media::{DomainVector, FormatId, FormatRegistry};
use qosc_satisfaction::{OptimizeOptions, SatisfactionProfile};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic tie-breaking among equally satisfying candidates.
///
/// The primary key is always satisfaction (descending). The policy picks
/// among exact ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Cheaper accumulated cost first, then the most recently discovered
    /// candidate (DFS-flavoured freshness). This is the unique policy
    /// consistent with all 15 rounds of the paper's Table 1.
    #[default]
    PaperOrder,
    /// First discovered first (BFS-flavoured).
    Fifo,
    /// Lowest vertex index first (arbitrary but stable).
    ByVertexIndex,
}

/// Options for [`select_chain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectOptions {
    /// Tie-breaking policy.
    pub tie_break: TieBreak,
    /// Parameter-optimizer tuning.
    pub optimizer: OptimizeOptions,
    /// Record the Table-1 trace: one log entry per state discovered and
    /// per round (rows are materialised when read, not when recorded).
    pub record_trace: bool,
    /// Safety valve on rounds (defaults to effectively unlimited) — the
    /// counted budget: a run's outcome never depends on host speed.
    pub max_rounds: usize,
}

impl Default for SelectOptions {
    fn default() -> SelectOptions {
        SelectOptions {
            tie_break: TieBreak::default(),
            optimizer: OptimizeOptions::default(),
            record_trace: true,
            max_rounds: usize::MAX,
        }
    }
}

/// A heap entry: the order-encoded key plus enough to validate against
/// the candidate store on pop (lazy deletion). `seq` is unique within a
/// request, so the derived order never reaches `handle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    key: [u64; 4],
    seq: u64,
    /// The [`StateTable`] handle of the entry's state.
    handle: usize,
}

/// Encode (label, policy) into a lexicographically max-ordered key:
/// highest satisfaction first, ties by `tie_break`, what the policy
/// leaves tied by ascending [`StateKey`] (`select/reference.rs` holds
/// the order to a scan over ordered maps). Satisfaction and cost are
/// non-negative finite floats, so `f64::to_bits` is monotone;
/// descending components are bit-complemented.
fn heap_key(tie_break: TieBreak, label: &Label, seq: u64) -> [u64; 4] {
    let sat = label.satisfaction.to_bits();
    let state_code =
        ((label.state.vertex.index() as u64) << 32) | label.state.output_format.index() as u64;
    match tie_break {
        TieBreak::PaperOrder => [sat, !label.accumulated_cost.to_bits(), seq, !state_code],
        TieBreak::Fifo => [sat, !seq, !state_code, 0],
        TieBreak::ByVertexIndex => [
            sat,
            !(label.state.vertex.index() as u64),
            !(label.state.output_format.index() as u64),
            !seq,
        ],
    }
}

/// Why a selection run returned no chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectFailure {
    /// Step 3: the candidate set ran empty before the receiver was
    /// reached — "TERMINATE(FAILURE)".
    CandidatesExhausted,
    /// The graph has no sender or no receiver vertex.
    MissingEndpoints,
    /// The round safety valve tripped.
    RoundLimit,
}

impl std::fmt::Display for SelectFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectFailure::CandidatesExhausted => {
                write!(
                    f,
                    "TERMINATE(FAILURE): candidate set exhausted before the receiver"
                )
            }
            SelectFailure::MissingEndpoints => write!(f, "graph lacks a sender or receiver"),
            SelectFailure::RoundLimit => write!(f, "round limit exceeded"),
        }
    }
}

/// The outcome of one selection run.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The selected chain, if the receiver was reached.
    pub chain: Option<SelectedChain>,
    /// Why no chain was produced (when `chain` is `None`).
    pub failure: Option<SelectFailure>,
    /// The round-by-round trace (empty unless `record_trace`).
    pub trace: SelectionTrace,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Number of candidate optimizations performed (Step 2/8 calls).
    pub optimizations: usize,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    label: Label,
    /// Global discovery sequence; later relaxations get a fresh number.
    seq: u64,
}

/// The states of one request's graph, and their dense handles.
///
/// A state is a `(vertex, output format)` pair the vertex *advertises*:
/// `output` of one of its conversions. The table is CSR-shaped — vertex
/// `v`'s distinct outputs, ascending by [`FormatId`], occupy
/// `outputs[base[v]..base[v + 1]]` — and a state's handle is its
/// position in `outputs`. Handles therefore ascend vertex-major and
/// format-ascending within a vertex, the derived `Ord` of [`StateKey`].
///
/// Rebuilt per request into buffers that keep their capacity
/// (O(Σ conversions), no steady-state allocation). It is not cached on
/// the graph: the graph store edits graphs in place, and a rebuild is
/// cheaper than the invalidation paths a cache would add.
struct StateTable {
    /// `base[v]` = handle of `v`'s first state; one trailing entry holds
    /// the state count.
    base: Vec<usize>,
    /// Every vertex's distinct outputs, ascending, back to back.
    outputs: Vec<FormatId>,
}

impl StateTable {
    fn new() -> StateTable {
        StateTable {
            base: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Index the states of `graph`.
    fn rebuild(&mut self, graph: &AdaptationGraph) -> Result<()> {
        self.base.clear();
        self.outputs.clear();
        for vertex in graph.vertex_ids() {
            let start = self.outputs.len();
            self.base.push(start);
            for conversion in &graph.vertex(vertex)?.conversions {
                // Sorted insert into the vertex's own (short) run: keeps
                // it ascending and free of repeats whatever the listing
                // order, and however many inputs share an output.
                if let Err(rank) = self.outputs[start..].binary_search(&conversion.output) {
                    self.outputs.insert(start + rank, conversion.output);
                }
            }
        }
        self.base.push(self.outputs.len());
        Ok(())
    }

    /// Number of states (= slots a store over this table needs).
    fn len(&self) -> usize {
        self.outputs.len()
    }

    /// The dense handle of `state`, or [`CoreError::StaleId`] when the
    /// vertex is not in the indexed graph or does not advertise the
    /// format — a label built by hand, or against another graph.
    fn index(&self, state: StateKey) -> Result<usize> {
        let vertex = state.vertex.index();
        let (Some(&start), Some(&end)) = (self.base.get(vertex), self.base.get(vertex + 1)) else {
            return Err(stale_state(state));
        };
        // A vertex advertises a handful of outputs: a linear probe beats
        // a binary search at that size.
        self.outputs[start..end]
            .iter()
            .position(|&format| format == state.output_format)
            .map(|rank| start + rank)
            .ok_or_else(|| stale_state(state))
    }
}

fn stale_state(state: StateKey) -> CoreError {
    CoreError::StaleId(format!(
        "state {:?} emitting {:?}: not advertised by the graph under selection",
        state.vertex, state.output_format
    ))
}

/// A slot store over [`StateTable`] handles with generation stamps: O(1)
/// insert/lookup/remove/dominance-check, O(1) clear (one counter bump).
/// Slots keep their capacity across requests.
struct StateSlots<T> {
    generation: u32,
    stamps: Vec<u32>,
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> StateSlots<T> {
    fn new() -> StateSlots<T> {
        StateSlots {
            generation: 0,
            stamps: Vec::new(),
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Start a fresh request over `states` dense handles: grow capacity
    /// if needed and invalidate every slot by bumping the generation.
    fn reset(&mut self, states: usize) {
        if self.stamps.len() < states {
            self.stamps.resize(states, 0);
            self.slots.resize_with(states, || None);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The 32-bit stamp space wrapped: rewrite every stamp so no
            // slot from 2^32 requests ago can masquerade as live.
            self.stamps.fill(0);
            self.generation = 1;
        }
        self.len = 0;
    }

    fn get(&self, index: usize) -> Option<&T> {
        if self.stamps[index] == self.generation {
            self.slots[index].as_ref()
        } else {
            None
        }
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if self.stamps[index] == self.generation {
            self.slots[index].as_mut()
        } else {
            None
        }
    }

    fn contains(&self, index: usize) -> bool {
        self.stamps[index] == self.generation && self.slots[index].is_some()
    }

    fn insert(&mut self, index: usize, value: T) {
        if !self.contains(index) {
            self.len += 1;
        }
        self.stamps[index] = self.generation;
        self.slots[index] = Some(value);
    }

    fn remove(&mut self, index: usize) -> Option<T> {
        if self.stamps[index] != self.generation {
            return None;
        }
        let taken = self.slots[index].take();
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-thread reusable scratch for [`select_chain`]: in steady state a
/// selection run allocates only what it returns (the chain and, when
/// recorded, the trace log).
struct SelectScratch {
    /// The states of the graph under selection and their handles.
    states: StateTable,
    /// Settled labels per state (Step 5).
    settled: StateSlots<Label>,
    /// Candidate set: best label per state (Steps 2/8, dominance-pruned
    /// on relaxation).
    candidates: StateSlots<Candidate>,
    /// Lazy-deletion heap over `candidates` for Step 4's argmax.
    heap: BinaryHeap<HeapEntry>,
    /// Out-edges of the settling vertex matching its committed format.
    matching: Vec<EdgeId>,
    /// Relaxation buffer for [`ExtendContext::extend_into`].
    extend_buf: Vec<Label>,
    /// The capped output domain each extension optimizes over.
    extend_domain: DomainVector,
    /// The sender's labels ([`ExtendContext::sender_labels_into`]).
    sender_buf: Vec<Label>,
    /// Requests served by this scratch (for the reuse telemetry).
    requests: u64,
}

impl SelectScratch {
    fn new() -> SelectScratch {
        SelectScratch {
            states: StateTable::new(),
            settled: StateSlots::new(),
            candidates: StateSlots::new(),
            heap: BinaryHeap::new(),
            matching: Vec::new(),
            extend_buf: Vec::new(),
            extend_domain: DomainVector::new(),
            sender_buf: Vec::new(),
            requests: 0,
        }
    }

    /// Start a request over `graph`: index its states and invalidate
    /// everything the previous request left behind.
    fn reset(&mut self, graph: &AdaptationGraph) -> Result<()> {
        self.states.rebuild(graph)?;
        self.settled.reset(self.states.len());
        self.candidates.reset(self.states.len());
        self.heap.clear();
        self.matching.clear();
        self.extend_buf.clear();
        Ok(())
    }
}

thread_local! {
    static SCRATCH: RefCell<SelectScratch> = RefCell::new(SelectScratch::new());
}

/// Process-wide count of selection runs that reused a warm per-thread
/// scratch arena instead of starting from a cold one.
static ARENA_REUSES: AtomicU64 = AtomicU64::new(0);

/// Total scratch-arena reuses across all threads since process start
/// (the payload of the `arena_reused` telemetry event; scorecard use
/// only — never emitted on a traced request path).
pub fn arena_reuse_total() -> u64 {
    ARENA_REUSES.load(Ordering::Relaxed)
}

/// Label slots the calling thread's scratch arena holds, per store: the
/// largest state count — Σ over vertices of distinct advertised outputs
/// — of any graph this thread has selected on. Read-only; for footprint
/// tests and scorecards.
pub fn arena_slots() -> usize {
    // Selection runs no caller-supplied code, so the arena is never
    // borrowed while this can be called.
    SCRATCH.with(|cell| cell.borrow().settled.stamps.len())
}

/// Run the QoS selection algorithm of Figure 4 on `graph`.
///
/// `budget` is "the amount of money the user is willing to pay" (Step 1);
/// pass `f64::INFINITY` when the user profile has none.
pub fn select_chain(
    graph: &AdaptationGraph,
    formats: &FormatRegistry,
    profile: &SatisfactionProfile,
    budget: f64,
    options: &SelectOptions,
) -> Result<SelectionOutcome> {
    select_chain_with_penalties(graph, formats, profile, budget, options, &[])
}

/// [`select_chain`] with probation penalties: each `(service,
/// effective_ppm)` pair scales that service's satisfaction score by
/// `effective_ppm / 1e6` during label extension, steering selection
/// around grey-failing services without excluding them. The slice must
/// be sorted by [`ServiceId`](qosc_services::ServiceId)
/// ([`ServiceRegistry::selection_penalties`](qosc_services::ServiceRegistry::selection_penalties)
/// maintains that invariant). An empty slice is bit-identical to
/// [`select_chain`].
pub fn select_chain_with_penalties(
    graph: &AdaptationGraph,
    formats: &FormatRegistry,
    profile: &SatisfactionProfile,
    budget: f64,
    options: &SelectOptions,
    penalties: &[(qosc_services::ServiceId, u64)],
) -> Result<SelectionOutcome> {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            if scratch.requests > 0 {
                ARENA_REUSES.fetch_add(1, Ordering::Relaxed);
            }
            scratch.requests += 1;
            select_with_scratch(
                graph,
                formats,
                profile,
                budget,
                options,
                penalties,
                &mut scratch,
            )
        }
        // Re-entrant call on this thread (defensive): run on a fresh,
        // throwaway arena rather than aliasing the live one.
        Err(_) => select_with_scratch(
            graph,
            formats,
            profile,
            budget,
            options,
            penalties,
            &mut SelectScratch::new(),
        ),
    })
}

fn select_with_scratch(
    graph: &AdaptationGraph,
    formats: &FormatRegistry,
    profile: &SatisfactionProfile,
    budget: f64,
    options: &SelectOptions,
    penalties: &[(qosc_services::ServiceId, u64)],
    scratch: &mut SelectScratch,
) -> Result<SelectionOutcome> {
    let context = ExtendContext {
        graph,
        formats,
        profile,
        budget,
        optimizer: options.optimizer,
        penalties,
    };

    let (sender, receiver) = match (graph.sender(), graph.receiver()) {
        (Some(s), Some(r)) => (s, r),
        _ => {
            return Ok(SelectionOutcome {
                chain: None,
                failure: Some(SelectFailure::MissingEndpoints),
                trace: SelectionTrace::default(),
                rounds: 0,
                optimizations: 0,
            })
        }
    };

    scratch.reset(graph)?;
    let mut next_seq: u64 = 0;
    let mut optimizations: usize = 0;
    let mut trace = SelectionTrace::default();
    let mut log = if options.record_trace {
        trace.rows = TraceLog::start(&graph.vertex(sender)?.name, receiver);
        Some(&mut trace.rows)
    } else {
        None
    };

    // Step 1: settle the sender states, seed CS with its neighbors.
    // (`expand` needs the whole scratch, so the buffer steps out of it
    // for the loop.)
    let mut sender_labels = std::mem::take(&mut scratch.sender_buf);
    context.sender_labels_into(&mut sender_labels)?;
    for label in &sender_labels {
        let handle = scratch.states.index(label.state)?;
        scratch.settled.insert(handle, *label);
    }
    for label in &sender_labels {
        expand(
            &context,
            options,
            label,
            scratch,
            &mut next_seq,
            &mut optimizations,
            log.as_deref_mut(),
        )?;
    }
    scratch.sender_buf = sender_labels;

    let mut rounds = 0usize;

    loop {
        // Step 3.
        if scratch.candidates.is_empty() {
            return Ok(SelectionOutcome {
                chain: None,
                failure: Some(SelectFailure::CandidatesExhausted),
                trace,
                rounds,
                optimizations,
            });
        }
        if rounds >= options.max_rounds {
            return Ok(SelectionOutcome {
                chain: None,
                failure: Some(SelectFailure::RoundLimit),
                trace,
                rounds,
                optimizations,
            });
        }
        rounds += 1;

        // Step 4: select the candidate with the highest satisfaction.
        let best = pick_best(&mut scratch.heap, &scratch.candidates);
        // The argmax returns the handle of a slot it just read as live,
        // and nothing ran in between.
        let Candidate { label, .. } = scratch
            .candidates
            .remove(best)
            .expect("the picked slot is live");

        if let Some(log) = log.as_deref_mut() {
            log.select(&label);
        }

        // Step 5 / Step 6.
        scratch.settled.insert(best, label);

        // Step 7.
        if label.state.vertex == receiver {
            let chain = reconstruct(graph, &scratch.states, &scratch.settled, &label)?;
            return Ok(SelectionOutcome {
                chain: Some(chain),
                failure: None,
                trace,
                rounds,
                optimizations,
            });
        }

        // Step 8.
        expand(
            &context,
            options,
            &label,
            scratch,
            &mut next_seq,
            &mut optimizations,
            log.as_deref_mut(),
        )?;
    }
}

/// Step 2 / Step 8: evaluate every neighbor of `label` and relax it into
/// the candidate set, logging each state that enters CS for the first
/// time.
fn expand(
    context: &ExtendContext<'_>,
    options: &SelectOptions,
    label: &Label,
    scratch: &mut SelectScratch,
    next_seq: &mut u64,
    optimizations: &mut usize,
    mut log: Option<&mut TraceLog>,
) -> Result<()> {
    let SelectScratch {
        states,
        settled,
        candidates,
        heap,
        matching,
        extend_buf,
        extend_domain,
        ..
    } = scratch;

    let graph = context.graph;
    matching.clear();
    for &edge_id in graph.out_edges(label.state.vertex) {
        let edge = graph.edge(edge_id)?;
        if edge.format != label.state.output_format {
            continue; // the vertex committed to a different output format
        }
        matching.push(edge_id);
    }

    for &edge_id in matching.iter() {
        context.extend_into_reusing(label, edge_id, extend_buf, extend_domain)?;
        *optimizations += 1;
        for &candidate in extend_buf.iter() {
            let discovered = relax(
                options, states, settled, candidates, heap, next_seq, candidate,
            )?;
            if let (true, Some(log)) = (discovered, log.as_deref_mut()) {
                let state = candidate.state;
                log.discover(state, &graph.vertex(state.vertex)?.name);
            }
        }
    }
    Ok(())
}

/// Relax one freshly optimized label into the candidate store: dropped
/// when its state is settled, dominance-pruned against the incumbent of
/// its state (better satisfaction, then lower cost, wins), admitted
/// otherwise. Every generated label draws a discovery sequence number
/// whether or not it survives — the tie-break policies depend on it.
/// Returns whether the label's state entered CS for the first time, or
/// [`CoreError::StaleId`] for a label whose state the graph does not
/// advertise.
fn relax(
    options: &SelectOptions,
    states: &StateTable,
    settled: &StateSlots<Label>,
    candidates: &mut StateSlots<Candidate>,
    heap: &mut BinaryHeap<HeapEntry>,
    next_seq: &mut u64,
    candidate: Label,
) -> Result<bool> {
    let index = states.index(candidate.state)?;
    if settled.contains(index) {
        return Ok(false);
    }
    let seq = *next_seq;
    *next_seq += 1;
    match candidates.get_mut(index) {
        Some(existing) => {
            let better = candidate.satisfaction > existing.label.satisfaction
                || (candidate.satisfaction == existing.label.satisfaction
                    && candidate.accumulated_cost < existing.label.accumulated_cost);
            if better {
                heap.push(HeapEntry {
                    key: heap_key(options.tie_break, &candidate, seq),
                    seq,
                    handle: index,
                });
                existing.label = candidate;
                existing.seq = seq;
            }
            Ok(false)
        }
        None => {
            heap.push(HeapEntry {
                key: heap_key(options.tie_break, &candidate, seq),
                seq,
                handle: index,
            });
            candidates.insert(
                index,
                Candidate {
                    label: candidate,
                    seq,
                },
            );
            Ok(true)
        }
    }
}

/// Step 4's argmax via the lazy-deletion heap: pop entries until one
/// still matches the candidate store's current generation for its state,
/// and return that state's handle. Call with a non-empty candidate set.
fn pick_best(heap: &mut BinaryHeap<HeapEntry>, candidates: &StateSlots<Candidate>) -> usize {
    while let Some(entry) = heap.pop() {
        if let Some(current) = candidates.get(entry.handle) {
            if current.seq == entry.seq {
                return entry.handle;
            }
        }
        // Stale: superseded by relaxation or already settled.
    }
    // `relax` pushes an entry with the slot's `seq` in the same call
    // that writes the slot, entries leave the heap only above, and the
    // one matching a live slot returns there: a live slot always has
    // its entry in the heap.
    unreachable!("heap drained while candidates remain")
}

/// Step 10: materialize the full chain from the receiver's label.
fn reconstruct(
    graph: &AdaptationGraph,
    states: &StateTable,
    settled: &StateSlots<Label>,
    receiver_label: &Label,
) -> Result<SelectedChain> {
    let mut steps: Vec<ChainStep> = Vec::new();
    let mut cursor: Option<&Label> = Some(receiver_label);
    while let Some(label) = cursor {
        steps.push(ChainStep {
            vertex: label.state.vertex,
            name: graph.vertex(label.state.vertex)?.name.clone(),
            output_format: label.state.output_format,
            params: label.params,
            satisfaction: label.satisfaction,
            accumulated_cost: label.accumulated_cost,
        });
        cursor = match label.parent {
            Some(parent) => settled.get(states.index(parent)?),
            None => None,
        };
    }
    steps.reverse();
    Ok(SelectedChain {
        satisfaction: receiver_label.satisfaction,
        total_cost: receiver_label.accumulated_cost,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build::build;
    use crate::graph::{BuildInput, VertexKind};
    use qosc_media::{
        Axis, AxisDomain, BitrateModel, ContentVariant, DomainVector, FormatSpec, MediaKind,
        ParamVector,
    };
    use qosc_netsim::{Network, Node, Topology};
    use qosc_profiles::{ConversionSpec, ServiceSpec};
    use qosc_services::{ServiceRegistry, TranscoderDescriptor};

    /// sender —A→ {T_fast(cap 30), T_slow(cap 20)} —B→ receiver.
    fn fork_fixture() -> (FormatRegistry, AdaptationGraph) {
        let mut formats = FormatRegistry::new();
        let linear = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let fa = formats.register(FormatSpec::new("A", MediaKind::Video, linear));
        let fb = formats.register(FormatSpec::new("B", MediaKind::Video, linear));

        let mut topo = Topology::new();
        let s = topo.add_node(Node::unconstrained("s"));
        let m1 = topo.add_node(Node::unconstrained("m1"));
        let m2 = topo.add_node(Node::unconstrained("m2"));
        let r = topo.add_node(Node::unconstrained("r"));
        topo.connect_simple(s, m1, 1e9).unwrap();
        topo.connect_simple(s, m2, 1e9).unwrap();
        topo.connect_simple(m1, r, 1e9).unwrap();
        topo.connect_simple(m2, r, 1e9).unwrap();
        let network = Network::new(topo);

        let mut services = ServiceRegistry::new();
        let cap_domain = |cap: f64| {
            DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous { min: 0.0, max: cap },
            )
        };
        let slow = ServiceSpec::new(
            "T_slow",
            vec![ConversionSpec::new("A", "B", cap_domain(20.0))],
        );
        let fast = ServiceSpec::new(
            "T_fast",
            vec![ConversionSpec::new("A", "B", cap_domain(30.0))],
        );
        services.register_static(TranscoderDescriptor::resolve(&slow, &formats, m1).unwrap());
        services.register_static(TranscoderDescriptor::resolve(&fast, &formats, m2).unwrap());

        let variants = vec![ContentVariant::new(fa, cap_domain(30.0))];
        let graph = build(&BuildInput {
            formats: &formats,
            services: &services,
            network: &network,
            variants: &variants,
            sender_host: s,
            receiver_host: r,
            decoders: &[fb],
            receiver_caps: ParamVector::new(),
        })
        .unwrap();
        (formats, graph)
    }

    #[test]
    fn picks_the_higher_satisfaction_branch() {
        let (formats, graph) = fork_fixture();
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();
        let outcome = select_chain(
            &graph,
            &formats,
            &profile,
            f64::INFINITY,
            &SelectOptions::default(),
        )
        .unwrap();
        let chain = outcome.chain.expect("receiver reachable");
        assert_eq!(chain.names(), vec!["sender", "T_fast", "receiver"]);
        assert!((chain.satisfaction - 1.0).abs() < 1e-9);
        assert_eq!(chain.transcoder_count(), 1);
        assert!(outcome.failure.is_none());
    }

    #[test]
    fn trace_records_rounds() {
        let (formats, graph) = fork_fixture();
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();
        let outcome = select_chain(
            &graph,
            &formats,
            &profile,
            f64::INFINITY,
            &SelectOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.trace.rows.len(), outcome.rounds);
        let first = &outcome.trace.rows.to_vec()[0];
        assert_eq!(first.considered, vec!["sender".to_string()]);
        assert_eq!(first.selected, "T_fast");
        assert!(first.candidates.contains(&"T_slow".to_string()));
        // Final row selects the receiver.
        let last = outcome.trace.last().unwrap();
        assert_eq!(last.selected, "receiver");
        assert_eq!(last.selected_path, vec!["sender", "T_fast", "receiver"]);
    }

    #[test]
    fn unreachable_receiver_terminates_failure() {
        let (formats, _) = fork_fixture();
        // A graph with only a sender and a receiver and no edges: the
        // candidate set starts empty.
        let graph = {
            let mut g = AdaptationGraph::new();
            g.add_vertex(crate::graph::Vertex {
                kind: VertexKind::Sender,
                name: "sender".to_string(),
                host: {
                    let mut t = Topology::new();
                    t.add_node(Node::unconstrained("x"))
                },
                conversions: vec![],
                price_per_second: 0.0,
                price_per_mbit: 0.0,
            });
            g.add_vertex(crate::graph::Vertex {
                kind: VertexKind::Receiver,
                name: "receiver".to_string(),
                host: {
                    let mut t = Topology::new();
                    t.add_node(Node::unconstrained("y"))
                },
                conversions: vec![],
                price_per_second: 0.0,
                price_per_mbit: 0.0,
            });
            g
        };
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();
        let outcome = select_chain(
            &graph,
            &formats,
            &profile,
            f64::INFINITY,
            &SelectOptions::default(),
        )
        .unwrap();
        assert!(outcome.chain.is_none());
        assert_eq!(outcome.failure, Some(SelectFailure::CandidatesExhausted));
    }

    #[test]
    fn budget_zero_with_paid_links_fails() {
        // Rebuild the fork fixture with paid links.
        let mut formats = FormatRegistry::new();
        let linear = BitrateModel::LinearOnAxis {
            axis: Axis::FrameRate,
            slope: 1000.0,
        };
        let fa = formats.register(FormatSpec::new("A", MediaKind::Video, linear));
        let fb = formats.register(FormatSpec::new("B", MediaKind::Video, linear));
        let mut topo = Topology::new();
        let s = topo.add_node(Node::unconstrained("s"));
        let m = topo.add_node(Node::unconstrained("m"));
        let r = topo.add_node(Node::unconstrained("r"));
        for (a, b) in [(s, m), (m, r)] {
            topo.connect(qosc_netsim::Link {
                a,
                b,
                capacity_bps: 1e9,
                delay_us: 1_000,
                loss: 0.0,
                price_per_mbit: 0.0,
                price_flat: 1.0,
            })
            .unwrap();
        }
        let network = Network::new(topo);
        let mut services = ServiceRegistry::new();
        let spec = ServiceSpec::new(
            "T",
            vec![ConversionSpec::new(
                "A",
                "B",
                DomainVector::new().with(
                    Axis::FrameRate,
                    AxisDomain::Continuous {
                        min: 0.0,
                        max: 30.0,
                    },
                ),
            )],
        );
        services.register_static(TranscoderDescriptor::resolve(&spec, &formats, m).unwrap());
        let variants = vec![ContentVariant::new(
            fa,
            DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 0.0,
                    max: 30.0,
                },
            ),
        )];
        let graph = build(&BuildInput {
            formats: &formats,
            services: &services,
            network: &network,
            variants: &variants,
            sender_host: s,
            receiver_host: r,
            decoders: &[fb],
            receiver_caps: ParamVector::new(),
        })
        .unwrap();
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();

        // Budget 2 covers both hops; budget 0.5 covers neither.
        let ok = select_chain(&graph, &formats, &profile, 2.0, &SelectOptions::default()).unwrap();
        assert!(ok.chain.is_some());
        assert!((ok.chain.unwrap().total_cost - 2.0).abs() < 1e-9);

        let broke =
            select_chain(&graph, &formats, &profile, 0.5, &SelectOptions::default()).unwrap();
        assert!(broke.chain.is_none());
        assert_eq!(broke.failure, Some(SelectFailure::CandidatesExhausted));
    }

    #[test]
    fn round_limit_trips() {
        let (formats, graph) = fork_fixture();
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();
        let options = SelectOptions {
            max_rounds: 1,
            ..SelectOptions::default()
        };
        let outcome = select_chain(&graph, &formats, &profile, f64::INFINITY, &options).unwrap();
        assert_eq!(outcome.failure, Some(SelectFailure::RoundLimit));
    }

    /// A transcoder-shaped vertex converting `pairs` (input, output).
    fn bare_vertex(kind: VertexKind, pairs: &[(FormatId, FormatId)]) -> crate::graph::Vertex {
        crate::graph::Vertex {
            kind,
            name: "v".to_string(),
            host: Topology::new().add_node(Node::unconstrained("h")),
            conversions: pairs
                .iter()
                .map(|&(input, output)| crate::graph::model::VertexConversion {
                    input,
                    output,
                    output_domain: DomainVector::new(),
                })
                .collect(),
            price_per_second: 0.0,
            price_per_mbit: 0.0,
        }
    }

    #[test]
    fn state_handles_ascend_in_state_key_order() {
        let mut formats = FormatRegistry::new();
        let f: Vec<FormatId> = (0..4)
            .map(|i| formats.register_abstract(format!("F{i}"), MediaKind::Video))
            .collect();
        let mut graph = AdaptationGraph::new();
        // Outputs listed descending, one of them from two inputs; then a
        // vertex with nothing to say; then a repeat-free ascending one.
        let a = graph.add_vertex(bare_vertex(
            VertexKind::Sender,
            &[(f[0], f[3]), (f[0], f[1]), (f[2], f[3]), (f[2], f[0])],
        ));
        let b = graph.add_vertex(bare_vertex(VertexKind::Receiver, &[]));
        let c = graph.add_vertex(bare_vertex(
            VertexKind::Receiver,
            &[(f[1], f[1]), (f[2], f[2])],
        ));

        let mut table = StateTable::new();
        table.rebuild(&graph).unwrap();
        let key = |vertex, output_format| StateKey {
            vertex,
            output_format,
        };
        let mut keys = [
            key(c, f[2]),
            key(a, f[3]),
            key(a, f[0]),
            key(c, f[1]),
            key(a, f[1]),
        ];
        assert_eq!(table.len(), keys.len(), "one slot per advertised output");
        keys.sort();
        let handles: Vec<usize> = keys.iter().map(|&k| table.index(k).unwrap()).collect();
        assert_eq!(
            handles,
            vec![0, 1, 2, 3, 4],
            "handle order is StateKey order"
        );

        // Rebuilding over a smaller graph forgets the larger one.
        let mut small = AdaptationGraph::new();
        small.add_vertex(bare_vertex(VertexKind::Sender, &[(f[0], f[2])]));
        table.rebuild(&small).unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(table.index(key(a, f[2])).unwrap(), 0);
        for stale in [key(a, f[3]), key(b, f[2]), key(c, f[2])] {
            assert!(matches!(table.index(stale), Err(CoreError::StaleId(_))));
        }
    }

    #[test]
    fn a_label_the_graph_does_not_advertise_is_a_stale_id() {
        let (formats, graph) = fork_fixture();
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();
        let context = ExtendContext {
            graph: &graph,
            formats: &formats,
            profile: &profile,
            budget: f64::INFINITY,
            optimizer: OptimizeOptions::default(),
            penalties: &[],
        };
        let sender = context.sender_labels().unwrap()[0];
        let mut scratch = SelectScratch::new();
        scratch.reset(&graph).unwrap();
        let mut next_seq = 0;
        let mut relax_label = |label: Label, scratch: &mut SelectScratch| {
            relax(
                &SelectOptions::default(),
                &scratch.states,
                &scratch.settled,
                &mut scratch.candidates,
                &mut scratch.heap,
                &mut next_seq,
                label,
            )
        };
        assert!(matches!(relax_label(sender, &mut scratch), Ok(true)));

        // The sender offers A, never B; and vertex 99 is another graph's.
        let receiver_format =
            graph.vertex(graph.receiver().unwrap()).unwrap().conversions[0].output;
        let mut wrong_format = sender;
        wrong_format.state.output_format = receiver_format;
        let mut wrong_vertex = sender;
        wrong_vertex.state.vertex = crate::graph::VertexId(99);
        for label in [wrong_format, wrong_vertex] {
            let error = relax_label(label, &mut scratch).unwrap_err();
            assert!(matches!(error, CoreError::StaleId(_)), "{error}");
        }
        assert_eq!(next_seq, 1, "a rejected label draws no sequence number");

        // A settled label whose parent is not a state of the graph fails
        // the Step-10 walk the same way.
        let mut orphan = sender;
        orphan.parent = Some(wrong_format.state);
        let error = reconstruct(&graph, &scratch.states, &scratch.settled, &orphan).unwrap_err();
        assert!(matches!(error, CoreError::StaleId(_)), "{error}");
    }

    #[test]
    fn scratch_arena_reuse_is_counted_and_invisible() {
        let (formats, graph) = fork_fixture();
        let profile = qosc_satisfaction::SatisfactionProfile::paper_table1();
        let options = SelectOptions::default();
        let first = select_chain(&graph, &formats, &profile, f64::INFINITY, &options).unwrap();
        let before = arena_reuse_total();
        let second = select_chain(&graph, &formats, &profile, f64::INFINITY, &options).unwrap();
        assert!(
            arena_reuse_total() > before,
            "second run on this thread reuses the warm arena"
        );
        // Reuse must be observationally invisible: identical outcome.
        assert_eq!(
            format!("{:?}", first.trace.rows),
            format!("{:?}", second.trace.rows)
        );
        assert_eq!(first.chain.unwrap().names(), second.chain.unwrap().names());
    }
}
