//! Excitation, switching and quiescent regions (§2.2), trigger events and
//! state diamonds.

use crate::graph::{StateGraph, StateId};
use crate::properties::for_each_two_step;
use crate::signal::Event;
use crate::stateset::StateSet;

/// An excitation region `ERj(a*)` together with its switching region
/// `SRj(a*)` and restricted quiescent region `QRj(a*)`.
#[derive(Debug, Clone)]
pub struct Region {
    /// The event this region excites.
    pub event: Event,
    /// Index `j` distinguishing connected occurrences of the event.
    pub index: usize,
    /// The excitation region: a maximal connected set of states where the
    /// event is enabled.
    pub er: StateSet,
    /// States entered immediately after the event fires from this region.
    pub sr: StateSet,
    /// The restricted quiescent region: states reachable from this region
    /// where the signal is stable at its post-transition value and that are
    /// not reachable from a different excitation region of the same event
    /// without passing through this one.
    pub qr: StateSet,
}

impl Region {
    /// The trigger events of this region: labels of arcs entering the ER
    /// from outside.
    pub fn trigger_events(&self, sg: &StateGraph) -> Vec<Event> {
        let mut triggers = Vec::new();
        for s in self.er.iter() {
            for &(e, p) in sg.pred(s) {
                if !self.er.contains(p) && !triggers.contains(&e) {
                    triggers.push(e);
                }
            }
        }
        triggers.sort();
        triggers
    }
}

/// Computes all excitation regions of `event` (connected components of the
/// set of states where it is enabled), each with its SR and restricted QR.
pub fn regions_of(sg: &StateGraph, event: Event) -> Vec<Region> {
    let n = sg.state_count();
    let mut excited = StateSet::new(n);
    for s in sg.states() {
        if sg.enabled(s, event) {
            excited.insert(s);
        }
    }
    let components = connected_components(sg, &excited);

    // Switching regions.
    let mut regions: Vec<Region> = components
        .into_iter()
        .enumerate()
        .map(|(index, er)| {
            let mut sr = StateSet::new(n);
            for s in er.iter() {
                if let Some(t) = sg.fire(s, event) {
                    sr.insert(t);
                }
            }
            Region { event, index, er, sr, qr: StateSet::new(n) }
        })
        .collect();

    // Quiescent regions: BFS from each SR through states where the signal
    // is stable at the post-transition value. Stability blocks the walk
    // from crossing any other excitation region of the same signal, so the
    // "without going through ERj" restriction reduces to removing overlaps
    // between the raw walks of different regions (restricted QR, §2.2
    // footnote 2).
    let post = event.post_value();
    let raw: Vec<StateSet> = regions
        .iter()
        .map(|r| {
            let mut qr = StateSet::new(n);
            let mut stack: Vec<StateId> = Vec::new();
            for s in r.sr.iter() {
                if sg.value(s, event.signal) == post && sg.stable(s, event.signal) && qr.insert(s) {
                    stack.push(s);
                }
            }
            while let Some(s) = stack.pop() {
                for &(_, t) in sg.succ(s) {
                    if sg.value(t, event.signal) == post
                        && sg.stable(t, event.signal)
                        && qr.insert(t)
                    {
                        stack.push(t);
                    }
                }
            }
            qr
        })
        .collect();
    for (i, region) in regions.iter_mut().enumerate() {
        let mut qr = raw[i].clone();
        for (j, other) in raw.iter().enumerate() {
            if i != j {
                qr.difference_with(other);
            }
        }
        region.qr = qr;
    }
    regions
}

/// All regions of every transition of `signal` (both polarities).
pub fn signal_regions(sg: &StateGraph, signal: crate::signal::SignalId) -> Vec<Region> {
    let mut out = regions_of(sg, Event::rise(signal));
    out.extend(regions_of(sg, Event::fall(signal)));
    out
}

/// Weakly-connected components of `set` under the SG adjacency restricted
/// to `set`.
pub fn connected_components(sg: &StateGraph, set: &StateSet) -> Vec<StateSet> {
    let n = sg.state_count();
    let mut visited = StateSet::new(n);
    let mut components = Vec::new();
    for seed in set.iter() {
        if visited.contains(seed) {
            continue;
        }
        let mut comp = StateSet::new(n);
        let mut stack = vec![seed];
        visited.insert(seed);
        comp.insert(seed);
        while let Some(s) = stack.pop() {
            let neighbours =
                sg.succ(s).iter().map(|&(_, t)| t).chain(sg.pred(s).iter().map(|&(_, t)| t));
            for t in neighbours {
                if set.contains(t) && !visited.contains(t) {
                    visited.insert(t);
                    comp.insert(t);
                    stack.push(t);
                }
            }
        }
        components.push(comp);
    }
    components
}

/// A commuting square: `s -a-> sa -b-> t` and `s -b-> sb -a-> t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diamond {
    /// Bottom state (both events enabled).
    pub s: StateId,
    /// After firing `a`.
    pub sa: StateId,
    /// After firing `b`.
    pub sb: StateId,
    /// Top state (both fired).
    pub t: StateId,
    /// First event.
    pub a: Event,
    /// Second event.
    pub b: Event,
}

/// Enumerates all state diamonds of the graph. Each unordered event pair is
/// reported once per bottom state.
pub fn diamonds(sg: &StateGraph) -> Vec<Diamond> {
    let mut out = Vec::new();
    for_each_two_step(sg, |s, (a, sa), (b, sb), ab, ba| {
        if ab == ba {
            out.push(Diamond { s, sa, sb, t: ab, a, b });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StateGraphBuilder;
    use crate::signal::{Signal, SignalId, SignalKind};

    /// Fork/join: a+ then (b+ || c+) then d+ then everything falls.
    /// Signals: a(in) b(out) c(out) d(out). Codes: bit0=a bit1=b bit2=c bit3=d.
    fn fork_join() -> StateGraph {
        let mut bd = StateGraphBuilder::new(
            "fj",
            vec![
                Signal::new("a", SignalKind::Input),
                Signal::new("b", SignalKind::Output),
                Signal::new("c", SignalKind::Output),
                Signal::new("d", SignalKind::Output),
            ],
        )
        .unwrap();
        // rising phase
        let s0 = bd.add_state(0b0000);
        let s1 = bd.add_state(0b0001); // a
        let sb = bd.add_state(0b0011); // a b
        let sc = bd.add_state(0b0101); // a c
        let sbc = bd.add_state(0b0111); // a b c
        let sd = bd.add_state(0b1111); // all
                                       // falling phase (sequential: a- b- c- d-)
        let f1 = bd.add_state(0b1110);
        let f2 = bd.add_state(0b1100);
        let f3 = bd.add_state(0b1000);
        let (a, b, c, d) = (SignalId(0), SignalId(1), SignalId(2), SignalId(3));
        bd.add_arc(s0, Event::rise(a), s1);
        bd.add_arc(s1, Event::rise(b), sb);
        bd.add_arc(s1, Event::rise(c), sc);
        bd.add_arc(sb, Event::rise(c), sbc);
        bd.add_arc(sc, Event::rise(b), sbc);
        bd.add_arc(sbc, Event::rise(d), sd);
        bd.add_arc(sd, Event::fall(a), f1);
        bd.add_arc(f1, Event::fall(b), f2);
        bd.add_arc(f2, Event::fall(c), f3);
        bd.add_arc(f3, Event::fall(d), s0);
        bd.build(s0).unwrap()
    }

    #[test]
    fn excitation_regions_are_connected() {
        let g = fork_join();
        let d = SignalId(3);
        let regs = regions_of(&g, Event::rise(d));
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].er.count(), 1); // only state sbc
        assert_eq!(regs[0].sr.count(), 1); // state sd
    }

    #[test]
    fn b_rise_region_spans_concurrency() {
        let g = fork_join();
        let b = SignalId(1);
        let regs = regions_of(&g, Event::rise(b));
        // b+ enabled at s1 and sc (concurrent with c+): one connected ER.
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].er.count(), 2);
    }

    #[test]
    fn quiescent_region_follows_stability() {
        let g = fork_join();
        let d = SignalId(3);
        let regs = regions_of(&g, Event::rise(d));
        let qr = &regs[0].qr;
        // After d+ : states sd(1111), f1(1110), f2(1100), f3? d falls at f3,
        // so f3 is in ER(d-) and not quiescent.
        assert_eq!(qr.count(), 3);
    }

    #[test]
    fn triggers_of_d_rise() {
        let g = fork_join();
        let d = SignalId(3);
        let regs = regions_of(&g, Event::rise(d));
        let trig = regs[0].trigger_events(&g);
        // ER(d+) = {sbc}; entered by b+ (from sc) and c+ (from sb).
        assert_eq!(trig, vec![Event::rise(SignalId(1)), Event::rise(SignalId(2))]);
    }

    #[test]
    fn diamond_enumeration() {
        let g = fork_join();
        let ds = diamonds(&g);
        assert_eq!(ds.len(), 1);
        let dia = ds[0];
        assert_eq!(dia.a.signal, SignalId(1));
        assert_eq!(dia.b.signal, SignalId(2));
    }

    #[test]
    fn quiescent_region_stops_at_reexcitation() {
        // In a plain ring the QR of b+ runs from after b+ up to (not
        // including) the state where b- becomes enabled.
        let mut bd = StateGraphBuilder::new(
            "ring4",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s = [bd.add_state(0b00), bd.add_state(0b01), bd.add_state(0b11), bd.add_state(0b10)];
        let (a, b) = (SignalId(0), SignalId(1));
        bd.add_arc(s[0], Event::rise(a), s[1]);
        bd.add_arc(s[1], Event::rise(b), s[2]);
        bd.add_arc(s[2], Event::fall(a), s[3]);
        bd.add_arc(s[3], Event::fall(b), s[0]);
        let g = bd.build(s[0]).unwrap();
        let regs = regions_of(&g, Event::rise(b));
        assert_eq!(regs.len(), 1);
        // ER = {s1}; SR = {s2}; QR = {s2} only — at s3 b- is enabled.
        assert_eq!(regs[0].er.iter().collect::<Vec<_>>(), vec![s[1]]);
        assert_eq!(regs[0].qr.iter().collect::<Vec<_>>(), vec![s[2]]);
    }

    #[test]
    fn trigger_events_exclude_internal_arcs() {
        let g = fork_join();
        let b = SignalId(1);
        let regs = regions_of(&g, Event::rise(b));
        // ER(b+) = {s1, sc}: entered by a+ (into s1) and left... c+ moves
        // within the ER (s1->sc), so c+ must NOT be a trigger.
        let trig = regs[0].trigger_events(&g);
        assert_eq!(trig, vec![Event::rise(SignalId(0))]);
    }

    #[test]
    fn empty_event_has_no_regions() {
        let g = fork_join();
        // Signal d never has a second rise instance: events that never
        // occur yield no regions.
        let regs = regions_of(&g, Event::rise(SignalId(0)));
        // a+ does occur; pick a phantom signal id instead:
        assert!(!regs.is_empty());
        let none = regions_of(&g, Event { signal: SignalId(3), rising: true });
        // d+ occurs too — so build a graph-less check: use the falling
        // event of an input that only rises... All events here occur, so
        // just assert the API handles the "enabled nowhere" case via a
        // quick custom graph.
        let mut bd = StateGraphBuilder::new(
            "still",
            vec![Signal::new("z", SignalKind::Output), Signal::new("w", SignalKind::Output)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        bd.add_arc(s0, Event::rise(SignalId(0)), s1);
        bd.add_arc(s1, Event::fall(SignalId(0)), s0);
        let g2 = bd.build(s0).unwrap();
        assert!(regions_of(&g2, Event::rise(SignalId(1))).is_empty());
        let _ = none;
    }

    #[test]
    fn separated_regions_get_distinct_indices() {
        // a toggles twice per cycle of b: a+ b+ a- a+ b- a-  (two ERs of a+).
        let mut bd = StateGraphBuilder::new(
            "two-er",
            vec![Signal::new("a", SignalKind::Output), Signal::new("b", SignalKind::Input)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        let s2 = bd.add_state(0b11);
        let s3 = bd.add_state(0b10);
        let s4 = bd.add_state(0b11);
        let s5 = bd.add_state(0b01);
        // Wait: reuse codes; that's fine (CSC may fail but regions work).
        let (a, b) = (SignalId(0), SignalId(1));
        bd.add_arc(s0, Event::rise(a), s1);
        bd.add_arc(s1, Event::rise(b), s2);
        bd.add_arc(s2, Event::fall(a), s3);
        bd.add_arc(s3, Event::rise(a), s4);
        bd.add_arc(s4, Event::fall(b), s5);
        bd.add_arc(s5, Event::fall(a), s0);
        let g = bd.build(s0).unwrap();
        let regs = regions_of(&g, Event::rise(a));
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].er.count(), 1);
        assert_eq!(regs[1].er.count(), 1);
        // Restricted QRs of the two a+ regions must be disjoint.
        assert!(!regs[0].qr.intersects(&regs[1].qr));
    }
}
