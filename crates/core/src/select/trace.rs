//! Round-by-round selection traces (the columns of the paper's Table 1).
//!
//! A run is *recorded* as a compact append-only event log
//! ([`TraceLog`]): one entry per discovered `(vertex, format)` state, in
//! discovery order, and one entry per round. Recording a round appends
//! the states its expansion discovered plus the round itself — no name
//! is compared, nothing is scanned and nothing is allocated per round.
//! The Table-1 rows ([`TraceRow`]: VT, CS, selected path as display
//! names) are *materialised* from the log on demand by [`Rows`], which
//! carries VT and the live candidate list from one row to the next.

use crate::graph::VertexId;
use crate::select::label::{Label, StateKey};
use qosc_media::{Axis, ParamVector};
use std::collections::HashMap;
use std::fmt;

/// One round of the selection algorithm: the paper's Table-1 columns.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Round number, 1-based.
    pub round: usize,
    /// "Considered Set (VT)" at the start of the round: display names in
    /// settlement order, starting with `sender`.
    pub considered: Vec<String>,
    /// "Candidate set (CS)" at the start of the round: display names in
    /// discovery order, `receiver` pinned last, deduplicated.
    pub candidates: Vec<String>,
    /// "Selected trans-coding service" of this round.
    pub selected: String,
    /// "Selected Path": sender → … → selected vertex.
    pub selected_path: Vec<String>,
    /// Configured parameters of the selected label.
    pub params: ParamVector,
    /// "User satisfaction" of the selected label.
    pub satisfaction: f64,
    /// Accumulated cost of the selected label (Figure 4, Step 6).
    pub accumulated_cost: f64,
}

impl TraceRow {
    /// "Delivered Frame Rate" column: the frame-rate parameter, if any.
    pub fn delivered_frame_rate(&self) -> Option<f64> {
        self.params.get(Axis::FrameRate)
    }
}

/// A state the search discovered (first admitted to CS).
#[derive(Debug, Clone, Copy)]
struct DiscoveredState {
    state: StateKey,
    /// End of this state's display name in [`TraceLog::names`]; it
    /// starts where the previous entry's name ends.
    name_end: usize,
}

/// A round: the label Step 4 selected, and how much of the discovery
/// log CS could show when the round started.
#[derive(Debug, Clone, Copy)]
struct Round {
    label: Label,
    /// States discovered before this round's selection: the prefix of
    /// [`TraceLog::states`] the round's CS is drawn from.
    visible: usize,
}

/// The event log one selection run records. It holds
/// [`discovered_states()`](TraceLog::discovered_states) +
/// [`len()`](TraceLog::len) entries, whatever the size of the candidate
/// set.
///
/// `{:?}` and `==` are those of the materialised rows, so two runs over
/// differently numbered graphs (flat vs scoped) compare equal exactly
/// when their Table-1 rows do.
#[derive(Clone, Default)]
pub struct TraceLog {
    /// Display names back to back: the sender's, then one per discovered
    /// state (one buffer, so recording a state allocates nothing).
    names: String,
    sender_name_len: usize,
    /// The receiver vertex, whose states CS pins last.
    receiver: Option<VertexId>,
    states: Vec<DiscoveredState>,
    rounds: Vec<Round>,
}

impl TraceLog {
    /// Start recording a run from the vertex named `sender_name` towards
    /// `receiver`.
    pub(crate) fn start(sender_name: &str, receiver: VertexId) -> TraceLog {
        TraceLog {
            names: sender_name.to_string(),
            sender_name_len: sender_name.len(),
            receiver: Some(receiver),
            states: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// Record that `state`, displayed as `name`, entered CS for the first
    /// time.
    pub(crate) fn discover(&mut self, state: StateKey, name: &str) {
        self.names.push_str(name);
        self.states.push(DiscoveredState {
            state,
            name_end: self.names.len(),
        });
    }

    /// Record that Step 4 selected `label`, ending the round's view of CS
    /// at the states discovered so far.
    pub(crate) fn select(&mut self, label: &Label) {
        self.rounds.push(Round {
            label: *label,
            visible: self.states.len(),
        });
    }

    /// Rounds recorded (the number of rows the log materialises to).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no round was recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Distinct `(vertex, format)` states the run admitted to CS.
    pub fn discovered_states(&self) -> usize {
        self.states.len()
    }

    /// The discovered states, in discovery order.
    #[cfg(test)]
    pub(crate) fn discovered_state_keys(&self) -> Vec<StateKey> {
        self.states.iter().map(|entry| entry.state).collect()
    }

    /// The state each round selected.
    #[cfg(test)]
    pub(crate) fn selected_state_keys(&self) -> Vec<StateKey> {
        self.rounds.iter().map(|round| round.label.state).collect()
    }

    /// Materialise the rows one at a time, first round first.
    pub fn iter(&self) -> Rows<'_> {
        Rows::new(self)
    }

    /// Materialise every row.
    pub fn to_vec(&self) -> Vec<TraceRow> {
        self.iter().collect()
    }

    fn sender_name(&self) -> &str {
        &self.names[..self.sender_name_len]
    }

    fn state_name(&self, entry: usize) -> &str {
        let start = match entry {
            0 => self.sender_name_len,
            _ => self.states[entry - 1].name_end,
        };
        &self.names[start..self.states[entry].name_end]
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for TraceLog {
    fn eq(&self, other: &TraceLog) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceRow;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// Materialises a [`TraceLog`] row by row. VT, the live candidate list
/// and the settled-state index are carried across rows, so a row costs
/// its own CS (the size of what it returns), not a replay of the log.
pub struct Rows<'a> {
    log: &'a TraceLog,
    /// Index of the next round to materialise.
    next_round: usize,
    /// First discovered state not yet moved into `live`.
    next_state: usize,
    /// VT at the start of the next round.
    considered: Vec<String>,
    /// Discovered, not yet selected states visible to the next round, in
    /// discovery order (indices into `log.states`).
    live: Vec<usize>,
    /// Display-name id per discovered state: VT and CS deduplicate by
    /// *name* (distinct vertices may share one), so names are interned
    /// once and compared as ids. Id 0 is the sender's name.
    name_of: Vec<usize>,
    /// Per name id: whether VT lists it.
    in_considered: Vec<bool>,
    /// Per name id: the last row (1-based) whose CS lists it.
    listed_in: Vec<usize>,
    /// Settled state → (round index, discovered-state index), for the
    /// parent walk of "Selected Path".
    settled: HashMap<StateKey, (usize, usize)>,
}

impl<'a> Rows<'a> {
    fn new(log: &'a TraceLog) -> Rows<'a> {
        let mut ids: HashMap<&str, usize> = HashMap::new();
        ids.insert(log.sender_name(), 0);
        let name_of: Vec<usize> = (0..log.states.len())
            .map(|entry| {
                let next = ids.len();
                *ids.entry(log.state_name(entry)).or_insert(next)
            })
            .collect();
        let mut in_considered = vec![false; ids.len()];
        in_considered[0] = true;
        Rows {
            log,
            next_round: 0,
            next_state: 0,
            considered: vec![log.sender_name().to_string()],
            live: Vec::new(),
            name_of,
            in_considered,
            listed_in: vec![0; ids.len()],
            settled: HashMap::new(),
        }
    }

    /// "Selected Path" of `label`, whose own state displays as
    /// `selected`: the parent walk of Figure 4, Step 10.
    fn selected_path(&self, label: &Label, selected: &str) -> Vec<String> {
        let mut names = vec![selected.to_string()];
        let mut parent = label.parent;
        while let Some(state) = parent {
            parent = match self.settled.get(&state) {
                Some(&(round, entry)) => {
                    names.push(self.log.state_name(entry).to_string());
                    self.log.rounds[round].label.parent
                }
                // Settled without a round: one of the sender's states,
                // which have no parent.
                None => {
                    names.push(self.log.sender_name().to_string());
                    None
                }
            };
        }
        names.reverse();
        names
    }
}

impl Iterator for Rows<'_> {
    type Item = TraceRow;

    fn next(&mut self) -> Option<TraceRow> {
        let log = self.log;
        let round = log.rounds.get(self.next_round)?;
        let number = self.next_round + 1;
        self.live.extend(self.next_state..round.visible);
        self.next_state = round.visible;

        // CS at the start of the round: live states in discovery order,
        // deduplicated by name, the receiver's pinned last; it still
        // holds the state this round selects.
        let mut candidates = Vec::new();
        let mut receiver_entry = None;
        let mut selected_at = None;
        for (position, &entry) in self.live.iter().enumerate() {
            let state = log.states[entry].state;
            if state == round.label.state {
                selected_at = Some(position);
            }
            if Some(state.vertex) == log.receiver {
                receiver_entry = Some(entry);
                continue;
            }
            let listed = &mut self.listed_in[self.name_of[entry]];
            if *listed != number {
                *listed = number;
                candidates.push(log.state_name(entry).to_string());
            }
        }
        if let Some(entry) = receiver_entry {
            candidates.push(log.state_name(entry).to_string());
        }

        let entry = self
            .live
            .remove(selected_at.expect("a selected state was discovered in an earlier round"));
        let selected = log.state_name(entry);
        let row = TraceRow {
            round: number,
            considered: self.considered.clone(),
            candidates,
            selected: selected.to_string(),
            selected_path: self.selected_path(&round.label, selected),
            params: round.label.params,
            satisfaction: round.label.satisfaction,
            accumulated_cost: round.label.accumulated_cost,
        };

        // Step 5: the selected state joins VT (by name) and is settled.
        let listed = &mut self.in_considered[self.name_of[entry]];
        if !*listed {
            *listed = true;
            self.considered.push(selected.to_string());
        }
        self.settled
            .insert(round.label.state, (self.next_round, entry));
        self.next_round += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.log.rounds.len() - self.next_round;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// The full trace of one selection run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelectionTrace {
    /// One row per round, in order — held as the [`TraceLog`] the run
    /// recorded. `{:?}` prints the rows; `len()` counts them; `iter()`,
    /// `to_vec()` and `for row in &trace.rows` materialise them.
    pub rows: TraceLog,
}

impl SelectionTrace {
    /// Truncate (not round) to two decimals — the paper prints 23/30 as
    /// `0.76` and 20/30 as `0.66`.
    pub fn truncate2(x: f64) -> f64 {
        (x * 100.0).floor() / 100.0
    }

    /// Render the trace in the shape of the paper's Table 1.
    pub fn to_table1_string(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Round | Considered Set (VT) | Candidate set (CS) | Selected | Selected Path | Delivered Frame Rate | User satisfaction\n",
        );
        for row in &self.rows {
            let fps = row
                .delivered_frame_rate()
                .map(|f| format!("{}", f.round() as i64))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{} | {{ {} }} | {{ {} }} | {} | {} | {} | {:.2}\n",
                row.round,
                row.considered.join(", "),
                row.candidates.join(", "),
                row.selected,
                row.selected_path.join(","),
                fps,
                SelectionTrace::truncate2(row.satisfaction),
            ));
        }
        out
    }

    /// The final row, if any round ran (materialises the rows before it
    /// on the way).
    pub fn last(&self) -> Option<TraceRow> {
        self.rows.iter().last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_media::{BitrateModel, FormatRegistry, FormatSpec, MediaKind};

    fn state(vertex: usize, format: usize) -> StateKey {
        let mut formats = FormatRegistry::new();
        let ids: Vec<_> = (0..=format)
            .map(|i| {
                let bitrate = BitrateModel::LinearOnAxis {
                    axis: Axis::FrameRate,
                    slope: 1.0,
                };
                formats.register(FormatSpec::new(format!("F{i}"), MediaKind::Video, bitrate))
            })
            .collect();
        StateKey {
            vertex: VertexId(vertex as u32),
            output_format: ids[format],
        }
    }

    fn label(state: StateKey, parent: StateKey, fps: f64) -> Label {
        Label {
            state,
            params: ParamVector::from_pairs([(Axis::FrameRate, fps)]),
            satisfaction: fps / 30.0,
            accumulated_cost: 1.0,
            via_edge: None,
            parent: Some(parent),
        }
    }

    #[test]
    fn truncation_matches_paper_rounding() {
        assert_eq!(SelectionTrace::truncate2(23.0 / 30.0), 0.76);
        assert_eq!(SelectionTrace::truncate2(20.0 / 30.0), 0.66);
        assert_eq!(SelectionTrace::truncate2(0.9), 0.90);
        assert_eq!(SelectionTrace::truncate2(1.0), 1.00);
    }

    #[test]
    fn table_rendering_contains_rows() {
        let sender = state(0, 0);
        let mut log = TraceLog::start("sender", VertexId(9));
        log.discover(state(1, 1), "T1");
        log.discover(state(2, 1), "T2");
        log.select(&label(state(1, 1), sender, 30.0));
        let trace = SelectionTrace { rows: log };
        let table = trace.to_table1_string();
        assert!(table.contains("1 | { sender } | { T1, T2 } | T1 | sender,T1 | 30 | 1.00"));
    }

    #[test]
    fn delivered_frame_rate_absent_for_non_video() {
        let row = TraceRow {
            round: 1,
            considered: vec![],
            candidates: vec![],
            selected: String::new(),
            selected_path: vec![],
            params: ParamVector::from_pairs([(Axis::Fidelity, 40.0)]),
            satisfaction: 0.5,
            accumulated_cost: 0.0,
        };
        assert_eq!(row.delivered_frame_rate(), None);
    }

    #[test]
    fn rows_dedup_by_name_and_pin_the_receiver_last() {
        let sender = state(0, 0);
        let receiver = VertexId(9);
        let mut log = TraceLog::start("sender", receiver);
        // Two vertices share the display name "T1"; the receiver is
        // discovered before T2; T3 emits two formats (two states).
        log.discover(state(1, 1), "T1");
        log.discover(state(9, 2), "receiver");
        log.discover(state(2, 1), "T1");
        log.discover(state(3, 1), "T3");
        log.discover(state(3, 2), "T3");
        log.select(&label(state(1, 1), sender, 30.0));
        log.discover(state(4, 1), "T2");
        log.select(&label(state(2, 1), state(1, 1), 24.0));
        log.select(&label(state(9, 2), state(2, 1), 24.0));
        log.discover(state(5, 1), "never shown");

        let trace = SelectionTrace { rows: log };
        assert_eq!(trace.rows.len(), 3);
        assert_eq!(trace.rows.discovered_states(), 7);
        let rows = trace.rows.to_vec();
        assert_eq!(rows[0].considered, ["sender"]);
        assert_eq!(rows[0].candidates, ["T1", "T3", "receiver"]);
        assert_eq!(rows[0].selected_path, ["sender", "T1"]);
        // The first "T1" is settled; the second keeps the name in CS, now
        // behind T3 — and out of VT, which already lists the name.
        assert_eq!(rows[1].considered, ["sender", "T1"]);
        assert_eq!(rows[1].candidates, ["T1", "T3", "T2", "receiver"]);
        assert_eq!(rows[1].selected_path, ["sender", "T1", "T1"]);
        assert_eq!(rows[2].considered, ["sender", "T1"]);
        assert_eq!(rows[2].candidates, ["T3", "T2", "receiver"]);
        assert_eq!(rows[2].selected_path, ["sender", "T1", "T1", "receiver"]);
        assert_eq!(trace.last(), rows.last().cloned());
        assert_eq!(format!("{:?}", trace.rows), format!("{:?}", rows));
        assert_eq!(trace.clone(), trace);
    }

    #[test]
    fn an_unrecorded_run_has_no_rows() {
        let trace = SelectionTrace::default();
        assert!(trace.rows.is_empty());
        assert_eq!(trace.rows.to_vec(), Vec::new());
        assert_eq!(trace.last(), None);
        assert_eq!(trace.rows.discovered_states(), 0);
        assert_eq!(format!("{:?}", trace), "SelectionTrace { rows: [] }");
    }
}
