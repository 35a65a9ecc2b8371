//! Implementability properties of state graphs (§2.1): consistency,
//! determinism, commutativity, output persistency and Complete State
//! Coding.
//!
//! # Event masks
//!
//! Output persistency and CSC read one precomputed `u128` per state: the
//! set of events enabled there. Event `e` owns bit `2·signal + rising`,
//! so `a-` sits just below `a+` and the bit order is [`Event`]'s order;
//! 64 signals fill the 128 bits exactly. [`check_all`] builds the masks
//! once for both; each `check_*` builds only what it needs.
//!
//! Commutativity (and [`crate::diamonds`]) index the same event positions
//! into a per-state table instead: each state's distinct events get
//! slots, one pass over each successor's arcs records where it fires
//! them, and a pair of events costs two table reads rather than two arc
//! scans.
//!
//! # Violation order
//!
//! The order is part of the contract. [`check_all`] reports one block per
//! check, in the order consistency, determinism, commutativity, output
//! persistency, CSC, reachability. Within a block, violations come by
//! ascending state id and then in the state's arc order (ascending
//! event). CSC conflicts come by ascending code; within a code, each
//! state that disagrees with the code's lowest state id comes in
//! ascending id.

use crate::graph::{StateGraph, StateId};
use crate::signal::{Event, SignalId};
use std::fmt;

/// A violation of one of the SG properties, with enough context to debug a
/// specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyViolation {
    /// An arc whose source/target codes are not a single-bit change of the
    /// right polarity on the fired signal.
    Inconsistent {
        /// Source state.
        src: StateId,
        /// Fired event.
        event: Event,
        /// Target state.
        dst: StateId,
    },
    /// Two arcs with the same label leave a state towards different targets.
    NonDeterministic {
        /// The branching state.
        state: StateId,
        /// The ambiguous event.
        event: Event,
    },
    /// A commuting pair of events does not reconverge.
    NonCommutative {
        /// The state where both events are enabled.
        state: StateId,
        /// First event.
        first: Event,
        /// Second event.
        second: Event,
    },
    /// An enabled non-input event is disabled by another event.
    NonPersistent {
        /// State where `event` was enabled.
        state: StateId,
        /// The event that lost its enabling.
        event: Event,
        /// The event whose firing disabled it.
        disabled_by: Event,
    },
    /// Two states share a code but enable different non-input events.
    CscConflict {
        /// First state.
        a: StateId,
        /// Second state.
        b: StateId,
        /// The shared code.
        code: u64,
    },
    /// A state is not reachable from the initial state.
    Unreachable {
        /// The orphaned state.
        state: StateId,
    },
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyViolation::Inconsistent { src, event, dst } => {
                write!(f, "inconsistent arc {}-{}->{}", src.0, event, dst.0)
            }
            PropertyViolation::NonDeterministic { state, event } => {
                write!(f, "non-deterministic event {event} at state {}", state.0)
            }
            PropertyViolation::NonCommutative { state, first, second } => {
                write!(f, "events {first},{second} do not commute from state {}", state.0)
            }
            PropertyViolation::NonPersistent { state, event, disabled_by } => {
                write!(f, "event {event} disabled by {disabled_by} at state {}", state.0)
            }
            PropertyViolation::CscConflict { a, b, code } => {
                write!(f, "CSC conflict between states {} and {} (code {code:b})", a.0, b.0)
            }
            PropertyViolation::Unreachable { state } => {
                write!(f, "state {} unreachable from the initial state", state.0)
            }
        }
    }
}

/// Summary of every property check (§2.1's implementability conditions).
#[derive(Debug, Clone, Default)]
pub struct PropertyReport {
    /// All detected violations.
    pub violations: Vec<PropertyViolation>,
}

impl PropertyReport {
    /// Whether the SG is consistent, deterministic, commutative,
    /// output-persistent, CSC-correct and fully reachable.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the SG is speed-independent (deterministic + commutative +
    /// output-persistent), disregarding CSC/reachability issues.
    pub fn is_speed_independent(&self) -> bool {
        !self.violations.iter().any(|v| {
            matches!(
                v,
                PropertyViolation::NonDeterministic { .. }
                    | PropertyViolation::NonCommutative { .. }
                    | PropertyViolation::NonPersistent { .. }
                    | PropertyViolation::Inconsistent { .. }
            )
        })
    }

    /// Whether CSC holds.
    pub fn has_csc(&self) -> bool {
        !self.violations.iter().any(|v| matches!(v, PropertyViolation::CscConflict { .. }))
    }
}

/// Position of `e` in an event mask: `2·signal + rising`.
fn event_index(e: Event) -> usize {
    2 * e.signal.0 + usize::from(e.rising)
}

/// Bit of `e` in an event mask.
fn event_bit(e: Event) -> u128 {
    1 << event_index(e)
}

/// Both event bits of `signal`.
fn signal_bits(signal: SignalId) -> u128 {
    0b11 << (2 * signal.0)
}

/// The events of `mask`, in ascending bit (= [`Event`]) order.
fn events_of(mut mask: u128) -> impl Iterator<Item = Event> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let bit = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(Event { signal: SignalId(bit / 2), rising: bit % 2 == 1 })
    })
}

/// The mask of events enabled at each state, indexed by state id.
fn event_masks(sg: &StateGraph) -> Vec<u128> {
    sg.states().map(|s| sg.succ(s).iter().fold(0, |m, &(e, _)| m | event_bit(e))).collect()
}

/// The event bits of every output and internal signal.
fn non_input_mask(sg: &StateGraph) -> u128 {
    sg.signals()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind.is_implementable())
        .fold(0, |m, (i, _)| m | signal_bits(SignalId(i)))
}

/// Walks every two-step interleaving of the graph: for each state `s` and
/// each pair of its arcs `s -a-> sa`, `s -b-> sb` (arc order, `a != b`)
/// where `b` is enabled at `sa` and `a` at `sb`, calls
/// `visit(s, (a, sa), (b, sb), fire(sa, b), fire(sb, a))`, `fire` being
/// [`StateGraph::fire`]. Commutativity and [`crate::diamonds`] are the
/// two readings of this one walk.
///
/// Per state, the distinct events of `s` get slots, and one pass over
/// each successor's arcs records that successor's first target for every
/// slotted event, so a pair costs two table reads.
pub(crate) fn for_each_two_step(
    sg: &StateGraph,
    mut visit: impl FnMut(StateId, (Event, StateId), (Event, StateId), StateId, StateId),
) {
    // Slot + 1 of each event of `s`, by event index; 0 when `s` lacks it.
    // At most 128 events, so a slot fits a byte.
    let mut slot_of_event = [0u8; 128];
    let mut arc_slot: Vec<usize> = Vec::new();
    // `fired[k * width + slot]`: the k-th successor's target for the
    // slot's event.
    let mut fired: Vec<Option<StateId>> = Vec::new();
    for s in sg.states() {
        let succ = sg.succ(s);
        if succ.len() < 2 {
            continue;
        }
        arc_slot.clear();
        let mut width = 0;
        for &(e, _) in succ {
            let slot = &mut slot_of_event[event_index(e)];
            if *slot == 0 {
                width += 1;
                *slot = width;
            }
            arc_slot.push(usize::from(*slot - 1));
        }
        let width = usize::from(width);
        fired.clear();
        fired.resize(succ.len() * width, None);
        for (row, &(_, next)) in fired.chunks_exact_mut(width).zip(succ) {
            for &(e, t) in sg.succ(next) {
                let slot = slot_of_event[event_index(e)];
                if slot != 0 {
                    row[usize::from(slot - 1)].get_or_insert(t);
                }
            }
        }
        for (i, &(a, sa)) in succ.iter().enumerate() {
            for (j, &(b, sb)) in succ.iter().enumerate().skip(i + 1) {
                if a == b {
                    continue;
                }
                let (ab, ba) = (fired[i * width + arc_slot[j]], fired[j * width + arc_slot[i]]);
                if let (Some(ab), Some(ba)) = (ab, ba) {
                    visit(s, (a, sa), (b, sb), ab, ba);
                }
            }
        }
        for &(e, _) in succ {
            slot_of_event[event_index(e)] = 0;
        }
    }
}

/// Checks labeling consistency: along every arc exactly the fired signal
/// toggles, with the polarity announced by the event.
pub fn check_consistency(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        for &(e, t) in sg.succ(s) {
            let bit = 1u64 << e.signal.0;
            let (cs, ct) = (sg.code(s), sg.code(t));
            let src_ok = (cs & bit != 0) == e.pre_value();
            let dst_ok = (ct & bit != 0) == e.post_value();
            let others_ok = cs & !bit == ct & !bit;
            if !(src_ok && dst_ok && others_ok) {
                out.push(PropertyViolation::Inconsistent { src: s, event: e, dst: t });
            }
        }
    }
    out
}

/// Checks determinism: at most one target per (state, event). Each arc
/// that repeats the previous arc's event is reported (arcs are sorted and
/// deduplicated, so repeats are adjacent and lead elsewhere).
pub fn check_determinism(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        for pair in sg.succ(s).windows(2) {
            if pair[0].0 == pair[1].0 {
                out.push(PropertyViolation::NonDeterministic { state: s, event: pair[1].0 });
            }
        }
    }
    out
}

/// Checks commutativity: if `a` then `b` and `b` then `a` are both
/// executable from a state, they must reach the same state.
pub fn check_commutativity(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for_each_two_step(sg, |state, (first, _), (second, _), ab, ba| {
        if ab != ba {
            out.push(PropertyViolation::NonCommutative { state, first, second });
        }
    });
    out
}

/// Checks output persistency: an enabled non-input event stays enabled
/// after any *other* event fires (one-step check suffices by induction).
pub fn check_output_persistency(sg: &StateGraph) -> Vec<PropertyViolation> {
    output_persistency(sg, &event_masks(sg), non_input_mask(sg))
}

fn output_persistency(sg: &StateGraph, masks: &[u128], non_input: u128) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        let enabled = masks[s.0] & non_input;
        let succ = sg.succ(s);
        // Events of other signals that some successor no longer enables.
        let lost = succ
            .iter()
            .fold(0, |lost, &(other, t)| lost | enabled & !masks[t.0] & !signal_bits(other.signal));
        for event in events_of(lost) {
            let bit = event_bit(event);
            for &(other, t) in succ {
                if other.signal != event.signal && masks[t.0] & bit == 0 {
                    out.push(PropertyViolation::NonPersistent {
                        state: s,
                        event,
                        disabled_by: other,
                    });
                }
            }
        }
    }
    out
}

/// Checks Complete State Coding: states with equal codes enable the same
/// set of non-input events. Each state that disagrees with the lowest
/// state of its code is reported, by ascending code and then state id.
pub fn check_csc(sg: &StateGraph) -> Vec<PropertyViolation> {
    csc(sg, &event_masks(sg), non_input_mask(sg))
}

fn csc(sg: &StateGraph, masks: &[u128], non_input: u128) -> Vec<PropertyViolation> {
    let mut by_code: Vec<(u64, usize)> = sg.states().map(|s| (sg.code(s), s.0)).collect();
    by_code.sort_unstable();
    let mut out = Vec::new();
    for run in by_code.chunk_by(|x, y| x.0 == y.0) {
        let (code, first) = run[0];
        let reference = masks[first] & non_input;
        for &(_, s) in &run[1..] {
            if masks[s] & non_input != reference {
                out.push(PropertyViolation::CscConflict { a: StateId(first), b: StateId(s), code });
            }
        }
    }
    out
}

/// Checks that every state is reachable from the initial state.
pub fn check_reachability(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut seen = vec![false; sg.state_count()];
    let mut stack = vec![sg.initial()];
    seen[sg.initial().0] = true;
    while let Some(s) = stack.pop() {
        for &(_, t) in sg.succ(s) {
            if !seen[t.0] {
                seen[t.0] = true;
                stack.push(t);
            }
        }
    }
    seen.iter()
        .enumerate()
        .filter(|&(_, &v)| !v)
        .map(|(i, _)| PropertyViolation::Unreachable { state: StateId(i) })
        .collect()
}

/// Runs every check over one set of event masks and aggregates the
/// violations, in the order the module documentation gives.
pub fn check_all(sg: &StateGraph) -> PropertyReport {
    let masks = event_masks(sg);
    let non_input = non_input_mask(sg);
    let mut violations = check_consistency(sg);
    violations.extend(check_determinism(sg));
    violations.extend(check_commutativity(sg));
    violations.extend(output_persistency(sg, &masks, non_input));
    violations.extend(csc(sg, &masks, non_input));
    violations.extend(check_reachability(sg));
    PropertyReport { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StateGraphBuilder;
    use crate::signal::{Signal, SignalId, SignalKind};

    fn sig(name: &str, kind: SignalKind) -> Signal {
        Signal::new(name, kind)
    }

    /// a+ ; b+ ; a- ; b- ring: all properties hold.
    fn good_ring() -> StateGraph {
        let mut b = StateGraphBuilder::new(
            "ring",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s = [b.add_state(0b00), b.add_state(0b01), b.add_state(0b11), b.add_state(0b10)];
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s[0], Event::rise(a), s[1]);
        b.add_arc(s[1], Event::rise(bb), s[2]);
        b.add_arc(s[2], Event::fall(a), s[3]);
        b.add_arc(s[3], Event::fall(bb), s[0]);
        b.build(s[0]).unwrap()
    }

    #[test]
    fn ring_is_clean() {
        let report = check_all(&good_ring());
        assert!(report.is_ok(), "violations: {:?}", report.violations);
        assert!(report.is_speed_independent());
        assert!(report.has_csc());
    }

    #[test]
    fn detects_inconsistency() {
        let mut b = StateGraphBuilder::new("bad", vec![sig("a", SignalKind::Output)]).unwrap();
        let s0 = b.add_state(0);
        let s1 = b.add_state(0); // a+ should lead to code 1
        b.add_arc(s0, Event::rise(SignalId(0)), s1);
        b.add_arc(s1, Event::fall(SignalId(0)), s0);
        let g = b.build(s0).unwrap();
        assert!(!check_consistency(&g).is_empty());
    }

    #[test]
    fn detects_nondeterminism() {
        let mut b = StateGraphBuilder::new("nd", vec![sig("a", SignalKind::Output)]).unwrap();
        let s0 = b.add_state(0);
        let s1 = b.add_state(1);
        let s2 = b.add_state(1);
        b.add_arc(s0, Event::rise(SignalId(0)), s1);
        b.add_arc(s0, Event::rise(SignalId(0)), s2);
        let g = b.build(s0).unwrap();
        assert!(!check_determinism(&g).is_empty());
    }

    #[test]
    fn detects_noncommutativity() {
        // Diamond where ab and ba diverge.
        let mut b = StateGraphBuilder::new(
            "nc",
            vec![
                sig("a", SignalKind::Input),
                sig("b", SignalKind::Input),
                sig("c", SignalKind::Input),
            ],
        )
        .unwrap();
        let s0 = b.add_state(0b000);
        let sa = b.add_state(0b001);
        let sb = b.add_state(0b010);
        let t1 = b.add_state(0b011);
        let t2 = b.add_state(0b111); // divergent: extra c bit (inconsistent too, but that's fine)
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s0, Event::rise(a), sa);
        b.add_arc(s0, Event::rise(bb), sb);
        b.add_arc(sa, Event::rise(bb), t1);
        b.add_arc(sb, Event::rise(a), t2);
        let g = b.build(s0).unwrap();
        assert!(!check_commutativity(&g).is_empty());
    }

    #[test]
    fn detects_nonpersistency() {
        // Output b+ enabled at s0, disabled after input a+ fires.
        let mut b = StateGraphBuilder::new(
            "np",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = b.add_state(0b00);
        let s1 = b.add_state(0b01);
        let s2 = b.add_state(0b10);
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s0, Event::rise(a), s1);
        b.add_arc(s0, Event::rise(bb), s2);
        // b+ not enabled at s1: persistency violation for b+.
        b.add_arc(s1, Event::fall(a), s0);
        let g = b.build(s0).unwrap();
        let v = check_output_persistency(&g);
        assert!(v.iter().any(|v| matches!(
            v,
            PropertyViolation::NonPersistent { event, .. } if *event == Event::rise(bb)
        )));
    }

    #[test]
    fn input_choice_is_allowed() {
        // Two inputs in choice: persistency only applies to outputs.
        let mut b = StateGraphBuilder::new(
            "choice",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Input)],
        )
        .unwrap();
        let s0 = b.add_state(0b00);
        let s1 = b.add_state(0b01);
        let s2 = b.add_state(0b10);
        b.add_arc(s0, Event::rise(SignalId(0)), s1);
        b.add_arc(s0, Event::rise(SignalId(1)), s2);
        b.add_arc(s1, Event::fall(SignalId(0)), s0);
        b.add_arc(s2, Event::fall(SignalId(1)), s0);
        let g = b.build(s0).unwrap();
        assert!(check_output_persistency(&g).is_empty());
    }

    #[test]
    fn detects_csc_conflict() {
        // Two distinct states share code 0 but enable different outputs.
        let mut b = StateGraphBuilder::new(
            "csc",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = b.add_state(0b00);
        let s1 = b.add_state(0b01);
        let s2 = b.add_state(0b00); // same code as s0
        let s3 = b.add_state(0b10);
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s0, Event::rise(a), s1);
        b.add_arc(s1, Event::fall(a), s2);
        b.add_arc(s2, Event::rise(bb), s3);
        b.add_arc(s3, Event::fall(bb), s0);
        let g = b.build(s0).unwrap();
        let v = check_csc(&g);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], PropertyViolation::CscConflict { code: 0, .. }));
    }

    #[test]
    fn csc_conflicts_come_by_code_then_state() {
        // Codes 3, 2, 1, 0 twice over, then code 1 twice more; the later
        // state of each code enables b-/b+ (its lowest state enables
        // nothing), except state 8, which agrees with state 2.
        let mut b = StateGraphBuilder::new(
            "order",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let codes = [3, 2, 1, 0, 3, 2, 1, 0, 1, 1];
        let s: Vec<StateId> = codes.iter().map(|&code| b.add_state(code)).collect();
        let bb = SignalId(1);
        for k in (4..codes.len()).filter(|&k| k != 8) {
            let event = if codes[k] & 0b10 == 0 { Event::rise(bb) } else { Event::fall(bb) };
            b.add_arc(s[k], event, s[0]);
        }
        let g = b.build(s[0]).unwrap();
        let got: Vec<(u64, usize, usize)> = check_csc(&g)
            .into_iter()
            .map(|v| match v {
                PropertyViolation::CscConflict { a, b, code } => (code, a.0, b.0),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, vec![(0, 3, 7), (1, 2, 6), (1, 2, 9), (2, 1, 5), (3, 0, 4)]);
    }

    #[test]
    fn detects_unreachable() {
        let mut b = StateGraphBuilder::new("unreach", vec![sig("a", SignalKind::Input)]).unwrap();
        let s0 = b.add_state(0);
        let _orphan = b.add_state(1);
        let g = b.build(s0).unwrap();
        assert_eq!(check_reachability(&g).len(), 1);
    }
}
