//! Reference oracle for the §2.1 property checks: every public `check_*`,
//! `check_all` and `diamonds` must equal, element for element and in
//! order, a straightforward per-state implementation that scans arcs and
//! allocates freely.
//!
//! The graphs are seeded xorshift random graphs of 1–64 signals; every
//! fourth one has 64, and the last signal always toggles, so signal 63
//! and mask bit 127 are exercised. They mix input, output and internal
//! signals and contain inconsistent arcs, duplicate-event
//! (non-deterministic) arcs, persistency violations, shared codes and
//! unreachable states.
//!
//! The case count is environment-tunable for a deeper sweep:
//! `SIMAP_PROP_CASES=50000 cargo test --release -p simap-sg --test properties_oracle`.

use simap_sg::{
    check_all, check_commutativity, check_consistency, check_csc, check_determinism,
    check_output_persistency, check_reachability, diamonds, Diamond, Event, PropertyViolation,
    Signal, SignalId, SignalKind, StateGraph, StateGraphBuilder, StateId,
};
use std::collections::{BTreeMap, HashMap};

fn cases() -> u64 {
    std::env::var("SIMAP_PROP_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(3000)
}

/// xorshift64: a fixed seed gives the same cases on every machine.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random graph. Codes vary only in a few toggling signals, so codes
/// repeat across states; most arcs are consistent and lead to a state
/// with the flipped code, the rest go anywhere.
fn random_graph(rng: &mut Rng, case: u64) -> StateGraph {
    let nsig = if case.is_multiple_of(4) { 64 } else { 1 + rng.below(64) };
    let kinds = [SignalKind::Input, SignalKind::Output, SignalKind::Internal];
    let signals =
        (0..nsig).map(|i| Signal::new(format!("s{i}"), kinds[rng.below(kinds.len())])).collect();
    let mut toggling = vec![nsig - 1];
    for _ in 0..rng.below(6) {
        toggling.push(rng.below(nsig));
    }
    toggling.sort_unstable();
    toggling.dedup();

    let width = if nsig == 64 { u64::MAX } else { (1 << nsig) - 1 };
    let base = rng.next() & width;
    let n = 1 + rng.below(40);
    let codes: Vec<u64> = (0..n)
        .map(|_| toggling.iter().filter(|_| rng.below(2) == 0).fold(base, |c, &x| c ^ 1 << x))
        .collect();

    let mut b = StateGraphBuilder::new(format!("case{case}"), signals).expect("valid signals");
    b.add_states(codes.iter().copied());
    for s in 0..n {
        for _ in 0..rng.below(5) {
            let x = toggling[rng.below(toggling.len())];
            let flipped = codes[s] ^ 1 << x;
            let rising =
                if rng.below(10) == 0 { rng.below(2) == 0 } else { codes[s] >> x & 1 == 0 };
            let event = Event { signal: SignalId(x), rising };
            let targets: Vec<usize> = (0..n).filter(|&t| codes[t] == flipped).collect();
            let dst = if !targets.is_empty() && rng.below(5) != 0 {
                targets[rng.below(targets.len())]
            } else {
                rng.below(n)
            };
            b.add_arc(StateId(s), event, StateId(dst));
            if rng.below(8) == 0 {
                b.add_arc(StateId(s), event, StateId(rng.below(n)));
            }
        }
    }
    b.build(StateId(rng.below(n))).expect("in-range states")
}

// ---- the reference implementations ----

fn ref_consistency(sg: &StateGraph) -> Vec<PropertyViolation> {
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

fn ref_determinism(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        let mut seen: HashMap<Event, StateId> = HashMap::new();
        for &(e, t) in sg.succ(s) {
            if let Some(&prev) = seen.get(&e) {
                if prev != t {
                    out.push(PropertyViolation::NonDeterministic { state: s, event: e });
                }
            } else {
                seen.insert(e, t);
            }
        }
    }
    out
}

/// Every `(s, a, sa, b, sb, fire(sa, b), fire(sb, a))` with both firings
/// defined, by linear `fire` scans.
fn ref_two_steps(
    sg: &StateGraph,
) -> Vec<(StateId, Event, StateId, Event, StateId, StateId, StateId)> {
    let mut out = Vec::new();
    for s in sg.states() {
        let succ = sg.succ(s);
        for (i, &(a, sa)) in succ.iter().enumerate() {
            for &(b, sb) in &succ[i + 1..] {
                if a == b {
                    continue;
                }
                if let (Some(t1), Some(t2)) = (sg.fire(sa, b), sg.fire(sb, a)) {
                    out.push((s, a, sa, b, sb, t1, t2));
                }
            }
        }
    }
    out
}

fn ref_commutativity(sg: &StateGraph) -> Vec<PropertyViolation> {
    ref_two_steps(sg)
        .into_iter()
        .filter(|&(.., t1, t2)| t1 != t2)
        .map(|(state, first, _, second, ..)| PropertyViolation::NonCommutative {
            state,
            first,
            second,
        })
        .collect()
}

fn ref_diamonds(sg: &StateGraph) -> Vec<Diamond> {
    ref_two_steps(sg)
        .into_iter()
        .filter(|&(.., t1, t2)| t1 == t2)
        .map(|(s, a, sa, b, sb, t, _)| Diamond { s, sa, sb, t, a, b })
        .collect()
}

/// Output/internal events enabled at `s`, sorted.
fn enabled_non_input_events(sg: &StateGraph, s: StateId) -> Vec<Event> {
    sg.enabled_events(s)
        .into_iter()
        .filter(|e| sg.signals()[e.signal.0].kind.is_implementable())
        .collect()
}

fn ref_output_persistency(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        for e in enabled_non_input_events(sg, s) {
            for &(other, t) in sg.succ(s) {
                if other == e || other.signal == e.signal {
                    continue;
                }
                if !sg.enabled(t, e) {
                    out.push(PropertyViolation::NonPersistent {
                        state: s,
                        event: e,
                        disabled_by: other,
                    });
                }
            }
        }
    }
    out
}

/// States grouped by code in a sorted map: conflicts by `(code, id)`.
fn ref_csc(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut by_code: BTreeMap<u64, Vec<StateId>> = BTreeMap::new();
    for s in sg.states() {
        by_code.entry(sg.code(s)).or_default().push(s);
    }
    let mut out = Vec::new();
    for (code, states) in by_code {
        let reference = enabled_non_input_events(sg, states[0]);
        for &s in &states[1..] {
            if enabled_non_input_events(sg, s) != reference {
                out.push(PropertyViolation::CscConflict { a: states[0], b: s, code });
            }
        }
    }
    out
}

fn ref_reachability(sg: &StateGraph) -> Vec<PropertyViolation> {
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
    (0..sg.state_count())
        .filter(|&i| !seen[i])
        .map(|i| PropertyViolation::Unreachable { state: StateId(i) })
        .collect()
}

/// Index of a violation kind in `check_all`'s block order.
fn kind(v: &PropertyViolation) -> usize {
    match v {
        PropertyViolation::Inconsistent { .. } => 0,
        PropertyViolation::NonDeterministic { .. } => 1,
        PropertyViolation::NonCommutative { .. } => 2,
        PropertyViolation::NonPersistent { .. } => 3,
        PropertyViolation::CscConflict { .. } => 4,
        PropertyViolation::Unreachable { .. } => 5,
    }
}

#[test]
fn property_checks_match_the_reference() {
    let mut rng = Rng(0x5eed_00a1_1c4e);
    let total = cases();
    let mut seen_kinds = [0usize; 6];
    let mut diamond_count = 0;
    let mut bit_127 = false;
    for case in 0..total {
        let sg = random_graph(&mut rng, case);
        let context =
            format!("case {case} ({} signals, {} states)", sg.signal_count(), sg.state_count());
        let blocks = [
            (check_consistency(&sg), ref_consistency(&sg), "consistency"),
            (check_determinism(&sg), ref_determinism(&sg), "determinism"),
            (check_commutativity(&sg), ref_commutativity(&sg), "commutativity"),
            (check_output_persistency(&sg), ref_output_persistency(&sg), "persistency"),
            (check_csc(&sg), ref_csc(&sg), "csc"),
            (check_reachability(&sg), ref_reachability(&sg), "reachability"),
        ];
        let mut expected = Vec::new();
        for (got, want, name) in blocks {
            assert_eq!(got, want, "{context}: {name}");
            expected.extend(want);
        }
        let all = check_all(&sg).violations;
        assert_eq!(all, expected, "{context}: check_all");
        for v in &all {
            seen_kinds[kind(v)] += 1;
        }
        let found = diamonds(&sg);
        assert_eq!(found, ref_diamonds(&sg), "{context}: diamonds");
        diamond_count += found.len();
        bit_127 |= sg.states().any(|s| sg.enabled(s, Event::rise(SignalId(63))));
    }
    eprintln!("{total} graphs: violations by kind {seen_kinds:?}, {diamond_count} diamonds");
    if total >= 100 {
        assert!(seen_kinds.iter().all(|&k| k > 0), "some violation kind never occurred");
        assert!(diamond_count > 0, "no diamond occurred");
        assert!(bit_127, "signal 63 never rose");
    }
}
