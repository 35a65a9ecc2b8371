//! Complete State Coding repair by state-signal insertion (§2.3: "this
//! new signal can be added either in order to satisfy the CSC condition,
//! or to break up a complex gate").
//!
//! CSC conflicts are pairs of states with equal codes enabling different
//! non-input events; no cover over the existing signals can separate
//! them, so the insertion works on explicit state-set bipartitions
//! ([`crate::insertion::compute_insertion_from_block`]). Candidate blocks
//! are *event intervals*: the states reachable from the switching region
//! of one event without crossing another event — the region-flavoured
//! heuristic of the paper's companion work on state encoding.

use crate::insertion::{compute_insertion_from_block, insert_signal};
use simap_sg::{
    check_consistency, check_csc, regions_of, Event, PropertyViolation, SignalKind, StateGraph,
    StateId, StateSet,
};
use std::fmt;

/// A CSC conflict: two states with the same code enabling different
/// non-input event sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CscConflict {
    /// First state.
    pub a: StateId,
    /// Second state.
    pub b: StateId,
    /// The shared code.
    pub code: u64,
}

/// Finds all CSC conflicts of a state graph, in
/// [`simap_sg::check_csc`]'s order: by ascending code, then ascending
/// state id. Each conflict pairs the lowest state of its code with a
/// state that enables different non-input events.
pub fn csc_conflicts(sg: &StateGraph) -> Vec<CscConflict> {
    check_csc(sg)
        .into_iter()
        .filter_map(|v| match v {
            PropertyViolation::CscConflict { a, b, code } => Some(CscConflict { a, b, code }),
            _ => None,
        })
        .collect()
}

/// Why CSC repair failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CscRepairError {
    /// No candidate block yields a legal, conflict-reducing insertion —
    /// typically because every separation would delay an input (the
    /// conflict is not resolvable without changing the I/O interface).
    NoLegalInsertion {
        /// Conflicts that remain.
        remaining: usize,
    },
    /// The insertion budget was exhausted.
    TooManyInsertions {
        /// The configured cap.
        limit: usize,
    },
    /// The input graph is broken in a more basic way (inconsistent codes).
    Inconsistent,
}

impl fmt::Display for CscRepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CscRepairError::NoLegalInsertion { remaining } => {
                write!(f, "no legal insertion separates the {remaining} remaining conflict(s)")
            }
            CscRepairError::TooManyInsertions { limit } => {
                write!(f, "CSC repair exceeded {limit} insertions")
            }
            CscRepairError::Inconsistent => write!(f, "state graph is not consistent"),
        }
    }
}

impl std::error::Error for CscRepairError {}

/// Configuration for [`repair_csc`].
#[derive(Debug, Clone)]
pub struct CscRepairConfig {
    /// Maximum number of state signals inserted.
    pub max_insertions: usize,
}

impl Default for CscRepairConfig {
    fn default() -> Self {
        CscRepairConfig { max_insertions: 8 }
    }
}

/// Repairs Complete State Coding by inserting internal state signals.
/// Returns the extended graph and the names of the inserted signals.
///
/// # Errors
/// See [`CscRepairError`].
pub fn repair_csc(
    sg: &StateGraph,
    config: &CscRepairConfig,
) -> Result<(StateGraph, Vec<String>), CscRepairError> {
    if !check_consistency(sg).is_empty() {
        return Err(CscRepairError::Inconsistent);
    }
    let mut sg = sg.clone();
    let mut inserted = Vec::new();
    loop {
        let conflicts = csc_conflicts(&sg);
        if conflicts.is_empty() {
            return Ok((sg, inserted));
        }
        if inserted.len() >= config.max_insertions {
            return Err(CscRepairError::TooManyInsertions { limit: config.max_insertions });
        }

        // Rank candidate blocks by how many conflicts they separate.
        let mut best: Option<(usize, StateGraph)> = None;
        let name = format!("csc{}", inserted.len());
        for block in candidate_blocks(&sg) {
            let separated =
                conflicts.iter().filter(|c| block.contains(c.a) != block.contains(c.b)).count();
            if separated == 0 {
                continue;
            }
            let Ok(ins) = compute_insertion_from_block(&sg, block) else { continue };
            let Ok(candidate) = insert_signal(&sg, &ins, &name, SignalKind::Internal) else {
                continue;
            };
            let report = simap_sg::check_all(&candidate);
            let serious = report
                .violations
                .iter()
                .any(|v| !matches!(v, PropertyViolation::CscConflict { .. }));
            if serious {
                continue;
            }
            let after = csc_conflicts(&candidate).len();
            if after >= conflicts.len() {
                continue;
            }
            if best.as_ref().map(|(b, _)| after < *b).unwrap_or(true) {
                best = Some((after, candidate));
            }
        }

        match best {
            Some((_, candidate)) => {
                sg = candidate;
                inserted.push(name);
            }
            None => return Err(CscRepairError::NoLegalInsertion { remaining: conflicts.len() }),
        }
    }
}

/// Candidate `S1` blocks: for every ordered pair of events `(e1, e2)`, the
/// set of states reachable from `SR(e1)` without traversing an arc
/// labeled `e2`.
fn candidate_blocks(sg: &StateGraph) -> Vec<StateSet> {
    let n = sg.state_count();
    let mut events: Vec<Event> = Vec::new();
    for sig in 0..sg.signal_count() {
        let sig = simap_sg::SignalId(sig);
        for ev in [Event::rise(sig), Event::fall(sig)] {
            if sg.states().any(|s| sg.enabled(s, ev)) {
                events.push(ev);
            }
        }
    }
    let mut blocks = Vec::new();
    for &e1 in &events {
        let start: Vec<StateId> =
            regions_of(sg, e1).into_iter().flat_map(|r| r.sr.iter().collect::<Vec<_>>()).collect();
        for &e2 in &events {
            if e1 == e2 {
                continue;
            }
            let mut block = StateSet::new(n);
            let mut stack: Vec<StateId> = Vec::new();
            for &s in &start {
                if block.insert(s) {
                    stack.push(s);
                }
            }
            while let Some(s) = stack.pop() {
                for &(e, t) in sg.succ(s) {
                    if e == e2 {
                        continue;
                    }
                    if block.insert(t) {
                        stack.push(t);
                    }
                }
            }
            if !block.is_empty() && block.count() < n && !blocks.contains(&block) {
                blocks.push(block);
            }
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use simap_sg::{Signal, SignalId, StateGraphBuilder};

    /// The classic CSC conflict: a+ ; b+ ; b- ; a- over two output
    /// signals. States after `a+` and after `b-` share code 01 but enable
    /// different outputs.
    fn conflicted() -> StateGraph {
        let mut bd = StateGraphBuilder::new(
            "csc-demo",
            vec![Signal::new("a", SignalKind::Output), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        let s2 = bd.add_state(0b11);
        let s3 = bd.add_state(0b01);
        let (a, b) = (SignalId(0), SignalId(1));
        bd.add_arc(s0, Event::rise(a), s1);
        bd.add_arc(s1, Event::rise(b), s2);
        bd.add_arc(s2, Event::fall(b), s3);
        bd.add_arc(s3, Event::fall(a), s0);
        bd.build(s0).unwrap()
    }

    #[test]
    fn conflicts_are_detected() {
        let sg = conflicted();
        let conflicts = csc_conflicts(&sg);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].code, 0b01);
    }

    #[test]
    fn repair_inserts_a_state_signal() {
        let sg = conflicted();
        let (fixed, inserted) = repair_csc(&sg, &CscRepairConfig::default()).expect("repairable");
        assert_eq!(inserted.len(), 1);
        assert!(csc_conflicts(&fixed).is_empty());
        let report = simap_sg::check_all(&fixed);
        assert!(report.is_ok(), "{:?}", report.violations);
        // The repaired spec is now synthesizable.
        let mc = crate::mc::synthesize_mc(&fixed).expect("CSC now holds");
        assert!(mc.max_complexity() >= 1);
    }

    #[test]
    fn repaired_spec_flows_to_gates() {
        let sg = conflicted();
        let (fixed, _) = repair_csc(&sg, &CscRepairConfig::default()).expect("repairable");
        let report = crate::pipeline::Synthesis::from_state_graph(fixed)
            .config(&crate::Config::builder().literal_limit(2).build().unwrap())
            .run()
            .expect("flow succeeds");
        assert!(report.inserted.is_some());
        assert_eq!(report.verified, Some(true));
    }

    #[test]
    fn clean_spec_needs_nothing() {
        let mut bd = StateGraphBuilder::new(
            "clean",
            vec![Signal::new("a", SignalKind::Output), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        let s2 = bd.add_state(0b11);
        let s3 = bd.add_state(0b10);
        bd.add_arc(s0, Event::rise(SignalId(0)), s1);
        bd.add_arc(s1, Event::rise(SignalId(1)), s2);
        bd.add_arc(s2, Event::fall(SignalId(0)), s3);
        bd.add_arc(s3, Event::fall(SignalId(1)), s0);
        let sg = bd.build(s0).unwrap();
        let (fixed, inserted) = repair_csc(&sg, &CscRepairConfig::default()).expect("no-op");
        assert!(inserted.is_empty());
        assert_eq!(fixed.state_count(), sg.state_count());
    }

    #[test]
    fn all_input_spec_has_no_csc_obligation() {
        // CSC compares *non-input* events: a spec with only inputs has
        // nothing to implement and no conflicts to repair.
        let mut bd = StateGraphBuilder::new(
            "inputs-only",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Input)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        let s2 = bd.add_state(0b11);
        let s3 = bd.add_state(0b01);
        bd.add_arc(s0, Event::rise(SignalId(0)), s1);
        bd.add_arc(s1, Event::rise(SignalId(1)), s2);
        bd.add_arc(s2, Event::fall(SignalId(1)), s3);
        bd.add_arc(s3, Event::fall(SignalId(0)), s0);
        let sg = bd.build(s0).unwrap();
        assert!(csc_conflicts(&sg).is_empty());
        let (_, inserted) = repair_csc(&sg, &CscRepairConfig::default()).expect("nothing to do");
        assert!(inserted.is_empty());
    }

    #[test]
    fn input_blocked_conflict_is_reported() {
        // `a` is an input: the only place the state signal could toggle to
        // separate the conflict sits across input transitions that may not
        // be delayed, so repair must fail cleanly.
        let mut bd = StateGraphBuilder::new(
            "csc-input",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        let s2 = bd.add_state(0b11);
        let s3 = bd.add_state(0b01);
        bd.add_arc(s0, Event::rise(SignalId(0)), s1);
        bd.add_arc(s1, Event::rise(SignalId(1)), s2);
        bd.add_arc(s2, Event::fall(SignalId(1)), s3);
        bd.add_arc(s3, Event::fall(SignalId(0)), s0);
        let sg = bd.build(s0).unwrap();
        let err = repair_csc(&sg, &CscRepairConfig::default()).unwrap_err();
        assert!(matches!(err, CscRepairError::NoLegalInsertion { .. }));
    }
}
