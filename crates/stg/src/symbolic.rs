//! Symbolic BDD reachability for 1-safe STGs.
//!
//! Where the enumerative engines ([`crate::reach`]) intern one object per
//! marking, this engine manipulates the *set* of reachable markings as a
//! Boolean function. States are bit vectors — one bit per place, one bit
//! per signal — encoded over an **interleaved current/next variable
//! order** (the state bit at position `q` owns BDD variables `2q` and
//! `2q + 1`), the order under which the frame conditions `nextᵩ ↔ curᵩ`
//! stay linear. Bit positions themselves follow a structural locality
//! pass: walking the transitions in order, each signal is placed next to
//! the places its transitions consume and produce, so independent
//! subnets occupy disjoint variable ranges and the reachable set of a
//! product net stays a product (linear, not exponential, BDD).
//!
//! Every transition compiles into a (guard, update) relation:
//!
//! * place bits: pre places must be 1 and move to 0 unless also produced;
//!   produced places must be 0 (the 1-safe token game) and move to 1;
//! * the fired signal's bit moves from the event's pre-value to its
//!   post-value; every untouched bit carries a frame equivalence.
//!
//! The reachable set is the least fixed point of the union of the
//! per-transition images, each computed with the relational-product
//! primitive [`simap_boolean::Bdd::and_exists`] (conjoin with the
//! relation and existentially quantify the current-state variables in
//! one pass) followed by a [`simap_boolean::Bdd::rename`] swap of next
//! back to current. From the reachable BDD everything downstream needs
//! falls out without enumeration:
//!
//! * the **exact state count** via [`simap_boolean::Bdd::sat_count_set`];
//! * per-signal **excitation/quiescence region sizes**;
//! * the **CSC verdict**: conflict codes are derived by pairing the
//!   reachable set with a primed copy of itself, constraining the signal
//!   codes to be equal and the enabled non-input event sets to differ;
//! * dead transitions and the fired-edge count.
//!
//! Initial signal values are inferred symbolically, mirroring the
//! enumerative rule ("the first reachable transition of a signal fixes
//! its initial value"): for each signal the engine computes the markings
//! reachable *without ever firing that signal* — stopping at the first
//! sweep that surfaces an enabling — and reads the pre-value of the
//! enabled transition.
//!
//! An explicit [`StateGraph`] is materialized only when the counted state
//! space is at most [`ReachConfig::materialize_limit`] (and
//! [`ReachConfig::max_states`]). Materialization delegates to the packed
//! core, so the graph — state numbering, codes, arcs — is byte-identical
//! to the other strategies, and the independently computed symbolic
//! count, edge count, initial code and CSC codes are cross-checked
//! against it; any disagreement is reported as [`ReachError::Build`]
//! instead of silently trusted. Beyond the threshold, [`reach_symbolic`]
//! still answers with counts and verdicts — the "huge state space"
//! workload no enumerative engine can touch.
//!
//! Nets that are not 1-safe are outside this engine's scope and rejected
//! with [`ReachError::NotSafe`]; the enumerative strategies remain the
//! tool for multi-token nets.

use crate::petri::{PlaceId, Stg, TransitionId};
use crate::reach::{
    elaborate_with_stats, explore_packed, Exploration, ReachConfig, ReachError, ReachStats,
    ReachStrategy,
};
use simap_boolean::{Bdd, BddRef, VarSet};
use simap_sg::{check_csc, PropertyViolation, SignalId, StateGraph};

/// Per-signal excitation/quiescence region sizes, counted over the full
/// reachable set (states, not markings — the two coincide for consistent
/// nets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicRegions {
    /// The signal the counts describe.
    pub signal: SignalId,
    /// States where some rising transition of the signal is enabled.
    pub rise_excited: u64,
    /// States where some falling transition of the signal is enabled.
    pub fall_excited: u64,
    /// States where the signal is stable at 1 (no transition of it
    /// enabled).
    pub quiescent_high: u64,
    /// States where the signal is stable at 0.
    pub quiescent_low: u64,
}

/// The outcome of a symbolic reachability run ([`reach_symbolic`]).
#[derive(Debug)]
pub struct SymbolicReach {
    /// Exact number of reachable states.
    pub states: u64,
    /// Exact number of fired (state, transition) edges.
    pub edges: u64,
    /// The inferred initial signal code (bit `i` = signal `i`).
    pub initial_code: u64,
    /// Exact number of distinct signal codes involved in a CSC conflict
    /// (0 iff Complete State Coding holds), counted symbolically.
    pub csc_conflict_code_count: u64,
    /// The distinct signal codes involved in a CSC conflict, ascending.
    /// Enumerated up to [`MAX_CONFLICT_CODES`]; when
    /// [`SymbolicReach::csc_conflict_code_count`] exceeds the cap —
    /// conflicts multiplied through signals they are independent of can
    /// be astronomically many on product nets — the list holds only the
    /// first `MAX_CONFLICT_CODES` codes and the count is the authority.
    pub csc_conflict_codes: Vec<u64>,
    /// Excitation/quiescence region sizes, one entry per signal.
    pub regions: Vec<SymbolicRegions>,
    /// Transitions that never fire anywhere in the reachable set.
    pub dead_transitions: Vec<TransitionId>,
    /// The explicit state graph, materialized (byte-identically to the
    /// enumerative strategies) when `states` fits both
    /// [`ReachConfig::max_states`] and
    /// [`ReachConfig::materialize_limit`]; `None` above the threshold.
    pub graph: Option<StateGraph>,
    /// Reachability counters, reported whether or not a graph was
    /// materialized ([`ReachStats::strategy`] is
    /// [`ReachStrategy::Symbolic`]).
    pub stats: ReachStats,
    /// Nodes the run's BDD manager created (observability).
    pub bdd_nodes: usize,
}

/// The compiled symbolic space: variable layout, per-transition guards
/// and relations, quantification sets and rename maps.
struct Space<'a> {
    stg: &'a Stg,
    bdd: Bdd,
    nplaces: usize,
    /// Tracked signal count; 0 in place-only spaces (the
    /// [`explore_symbolic`] fast path doesn't need signal bits).
    nsignals: usize,
    /// Variable-order position of each state bit (places `0..nplaces`,
    /// then signals), from the structural locality pass.
    pos: Vec<usize>,
    /// Current-state variables of the place bits.
    cur_places: VarSet,
    /// Current-state variables of every tracked bit.
    cur_all: VarSet,
    /// Next→current rename maps (the post-image swap).
    down_places: Vec<(usize, usize)>,
    down_all: Vec<(usize, usize)>,
    /// Current→next rename map over every tracked bit (the priming pass
    /// of the CSC pairing).
    up_all: Vec<(usize, usize)>,
    /// Per transition: the place-only enabledness guard (pre places = 1).
    place_guard: Vec<BddRef>,
    /// Per transition: the place-only (guard, update, frame) relation.
    place_rel: Vec<BddRef>,
    /// Per transition: the full relation including the signal bits (same
    /// as `place_rel` in place-only spaces).
    full_rel: Vec<BddRef>,
}

/// Orders the state bits for locality: walking the transitions in order,
/// a transition's signal bit and its pre/post places are assigned
/// adjacent positions. Disjoint subnets end up in disjoint variable
/// ranges, which keeps the reachable set of a composed net in product
/// form — the difference between a linear and an exponential BDD.
fn bit_order(stg: &Stg, nplaces: usize, nsignals: usize) -> Vec<usize> {
    let bits = nplaces + nsignals;
    let mut pos = vec![usize::MAX; bits];
    let mut next = 0usize;
    let assign = |b: usize, pos: &mut Vec<usize>, next: &mut usize| {
        if pos[b] == usize::MAX {
            pos[b] = *next;
            *next += 1;
        }
    };
    for t in 0..stg.transition_count() {
        let t = TransitionId(t);
        if nsignals > 0 {
            assign(nplaces + stg.transitions()[t.0].event.signal.0, &mut pos, &mut next);
        }
        for &p in stg.pre(t) {
            assign(p.0, &mut pos, &mut next);
        }
        for &p in stg.post(t) {
            assign(p.0, &mut pos, &mut next);
        }
    }
    // Isolated places and never-labeled signals go last.
    for b in 0..bits {
        assign(b, &mut pos, &mut next);
    }
    pos
}

fn saturate(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

impl<'a> Space<'a> {
    fn new(stg: &'a Stg, track_signals: bool) -> Result<Space<'a>, ReachError> {
        let nplaces = stg.place_count();
        let nsignals = if track_signals { stg.signals().len() } else { 0 };
        let bits = nplaces + nsignals;
        if bits > 127 {
            return Err(ReachError::Build(format!(
                "net too large for the symbolic engine: {bits} state bits (max 127)"
            )));
        }
        if let Some(p) = stg.initial_marking().iter().position(|&t| t > 1) {
            return Err(ReachError::NotSafe { place: stg.places()[p].name.clone() });
        }

        let pos = bit_order(stg, nplaces, nsignals);
        let cur = |b: usize| 2 * pos[b];
        let nxt = |b: usize| 2 * pos[b] + 1;

        let mut bdd = Bdd::new();
        let cur_places: VarSet = (0..nplaces).map(cur).collect();
        let cur_all: VarSet = (0..bits).map(cur).collect();
        let mut down_places: Vec<(usize, usize)> = (0..nplaces).map(|b| (nxt(b), cur(b))).collect();
        down_places.sort_unstable();
        let down_all: Vec<(usize, usize)> = (0..bits).map(|q| (2 * q + 1, 2 * q)).collect();
        let up_all: Vec<(usize, usize)> = (0..bits).map(|q| (2 * q, 2 * q + 1)).collect();

        // Bits in descending variable-order position: conjunctions below
        // are built bottom-up so every `and` extends the diagram at the
        // top for linear growth.
        let mut bits_desc: Vec<usize> = (0..bits).collect();
        bits_desc.sort_unstable_by_key(|&b| std::cmp::Reverse(pos[b]));

        let n_transitions = stg.transition_count();
        let mut place_guard = Vec::with_capacity(n_transitions);
        let mut place_rel = Vec::with_capacity(n_transitions);
        let mut full_rel = Vec::with_capacity(n_transitions);
        for t in 0..n_transitions {
            let t = TransitionId(t);
            let pre = stg.pre(t);
            let post = stg.post(t);
            let event = stg.transitions()[t.0].event;

            let mut pre_vars: Vec<usize> = pre.iter().map(|p| cur(p.0)).collect();
            pre_vars.sort_unstable();
            let mut guard = BddRef::TRUE;
            for &v in pre_vars.iter().rev() {
                let x = bdd.var(v);
                guard = bdd.and(x, guard);
            }
            place_guard.push(guard);

            // The relation: one term per state bit, conjoined in
            // descending variable order.
            let mut prel = BddRef::TRUE;
            let mut frel = BddRef::TRUE;
            for &b in &bits_desc {
                if b < nplaces {
                    let in_pre = pre.contains(&PlaceId(b));
                    let in_post = post.contains(&PlaceId(b));
                    let term = match (in_pre, in_post) {
                        // Consumed and re-produced (read arc): stays 1.
                        (true, true) => bdd_fixed(&mut bdd, cur(b), nxt(b), true, true),
                        (true, false) => bdd_fixed(&mut bdd, cur(b), nxt(b), true, false),
                        // Produced: the 1-safe game requires it empty.
                        (false, true) => bdd_fixed(&mut bdd, cur(b), nxt(b), false, true),
                        (false, false) => bdd_frame(&mut bdd, cur(b), nxt(b)),
                    };
                    prel = bdd.and(term, prel);
                    frel = bdd.and(term, frel);
                } else {
                    let s = b - nplaces;
                    let term = if s == event.signal.0 {
                        bdd_fixed(&mut bdd, cur(b), nxt(b), event.pre_value(), event.post_value())
                    } else {
                        bdd_frame(&mut bdd, cur(b), nxt(b))
                    };
                    frel = bdd.and(term, frel);
                }
            }
            place_rel.push(prel);
            full_rel.push(frel);
        }

        Ok(Space {
            stg,
            bdd,
            nplaces,
            nsignals,
            pos,
            cur_places,
            cur_all,
            down_places,
            down_all,
            up_all,
            place_guard,
            place_rel,
            full_rel,
        })
    }

    /// Current-state variable of state bit `b`.
    fn cur_var(&self, b: usize) -> usize {
        2 * self.pos[b]
    }

    /// The literal `bit = value` over current-state variables.
    fn bit_lit(&mut self, b: usize, value: bool) -> BddRef {
        let v = self.bdd.var(self.cur_var(b));
        if value {
            v
        } else {
            self.bdd.not(v)
        }
    }

    /// A cube over current-state variables of the given (bit, value)
    /// assignments, conjoined highest-variable-first.
    fn cube(&mut self, assignment: impl Iterator<Item = (usize, bool)>) -> BddRef {
        let mut lits: Vec<(usize, bool)> = assignment.map(|(b, v)| (self.cur_var(b), v)).collect();
        lits.sort_unstable();
        let mut acc = BddRef::TRUE;
        for &(var, value) in lits.iter().rev() {
            let x = self.bdd.var(var);
            let lit = if value { x } else { self.bdd.not(x) };
            acc = self.bdd.and(lit, acc);
        }
        acc
    }

    /// The initial marking as a cube over current place variables.
    fn initial_places(&mut self) -> BddRef {
        let marking = self.stg.initial_marking().to_vec();
        self.cube(marking.iter().enumerate().map(|(p, &t)| (p, t == 1)))
    }

    /// The full initial state: marking plus the inferred signal values.
    fn initial_state(&mut self, signal_values: &[bool]) -> BddRef {
        let marking = self.stg.initial_marking().to_vec();
        let nplaces = self.nplaces;
        self.cube(
            marking
                .iter()
                .enumerate()
                .map(|(p, &t)| (p, t == 1))
                .chain(signal_values.iter().enumerate().map(|(s, &v)| (nplaces + s, v))),
        )
    }

    /// Least fixed point of the union of per-transition images, by
    /// *chaining*: each transition's image is folded into the reached set
    /// immediately, so one sweep over the transitions can propagate whole
    /// causal chains and the loop converges in a handful of sweeps
    /// instead of one iteration per BFS level. The callback sees the set
    /// after every sweep and may stop the iteration early (`false`).
    fn fixed_point_until(
        &mut self,
        init: BddRef,
        rels: &[BddRef],
        place_only: bool,
        mut keep_going: impl FnMut(&mut Self, BddRef) -> bool,
    ) -> BddRef {
        let quant = if place_only { self.cur_places.clone() } else { self.cur_all.clone() };
        let down = if place_only { self.down_places.clone() } else { self.down_all.clone() };
        let mut reached = init;
        loop {
            let before = reached;
            for &rel in rels {
                let step = self.bdd.and_exists(reached, rel, &quant);
                let step = self.bdd.rename(step, &down);
                reached = self.bdd.or(reached, step);
            }
            if reached == before || !keep_going(self, reached) {
                return reached;
            }
        }
    }

    /// [`Space::fixed_point_until`] run to convergence.
    fn fixed_point(&mut self, init: BddRef, rels: &[BddRef], place_only: bool) -> BddRef {
        self.fixed_point_until(init, rels, place_only, |_, _| true)
    }

    /// Exact state count of a set over the tracked current variables.
    fn count(&self, set: BddRef, place_only: bool) -> u64 {
        let vars = if place_only { &self.cur_places } else { &self.cur_all };
        self.bdd.sat_count_set(set, vars)
    }

    /// Rejects reachable states from which a firing would put a second
    /// token into a place — the 1-safe scope boundary.
    fn check_safe(&mut self, reached: BddRef) -> Result<(), ReachError> {
        for t in 0..self.stg.transition_count() {
            let t = TransitionId(t);
            let enabled = self.bdd.and(reached, self.place_guard[t.0]);
            if enabled == BddRef::FALSE {
                continue;
            }
            for &p in self.stg.post(t) {
                if self.stg.pre(t).contains(&p) {
                    continue;
                }
                let occupied = self.bdd.var(self.cur_var(p.0));
                if self.bdd.and(enabled, occupied) != BddRef::FALSE {
                    return Err(ReachError::NotSafe { place: self.stg.places()[p.0].name.clone() });
                }
            }
        }
        Ok(())
    }

    /// Rejects reachable states where a transition is place-enabled but
    /// its signal already sits at the post-transition value — the
    /// symbolic face of an inconsistent (non-alternating) specification.
    fn check_consistent(&mut self, reached: BddRef) -> Result<(), ReachError> {
        for t in 0..self.stg.transition_count() {
            let t = TransitionId(t);
            let event = self.stg.transitions()[t.0].event;
            let blocked = self.bit_lit(self.nplaces + event.signal.0, event.post_value());
            let enabled = self.bdd.and(reached, self.place_guard[t.0]);
            if self.bdd.and(enabled, blocked) != BddRef::FALSE {
                let signal = &self.stg.signals()[event.signal.0].name;
                return Err(ReachError::Inconsistent {
                    detail: format!(
                        "signal `{signal}` does not alternate: `{}` is reachable with \
                         `{signal}` already {}",
                        self.stg.transition_label(t),
                        if event.post_value() { "high" } else { "low" }
                    ),
                });
            }
        }
        Ok(())
    }

    /// The candidate initial value of signal `s` visible in `set`: the
    /// pre-value of any of its transitions place-enabled there.
    ///
    /// # Errors
    /// [`ReachError::Inconsistent`] when both polarities are enabled
    /// before the signal ever fired — the initial value would be
    /// contradictory.
    fn first_enabling(&mut self, s: usize, set: BddRef) -> Result<Option<bool>, ReachError> {
        let mut candidate: Option<bool> = None;
        for t in 0..self.stg.transition_count() {
            let event = self.stg.transitions()[t].event;
            if event.signal.0 != s {
                continue;
            }
            if self.bdd.and(set, self.place_guard[t]) == BddRef::FALSE {
                continue;
            }
            let value = event.pre_value();
            match candidate {
                None => candidate = Some(value),
                Some(prev) if prev != value => {
                    return Err(ReachError::Inconsistent {
                        detail: format!(
                            "signal `{}` can first become enabled both rising and \
                             falling: its initial value is contradictory",
                            self.stg.signals()[s].name
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(candidate)
    }

    /// Infers every signal's initial value: the pre-value of any of its
    /// transitions enabled among the markings reachable without firing
    /// the signal (`false` for signals that never fire), exactly the
    /// value the enumerative engines fix at the first BFS enabling.
    ///
    /// Signals enabled right at the initial marking are resolved
    /// structurally; the per-signal frozen fixed point stops at the first
    /// sweep that surfaces an enabling, so the inference never explores
    /// deeper than the signal's first activity.
    fn infer_initial_values(&mut self) -> Result<Vec<bool>, ReachError> {
        let signals = self.stg.signals().len();
        let init = self.initial_places();
        let mut values = Vec::with_capacity(signals);
        for s in 0..signals {
            if let Some(value) = self.first_enabling(s, init)? {
                values.push(value);
                continue;
            }
            let rels: Vec<BddRef> = (0..self.stg.transition_count())
                .filter(|&t| self.stg.transitions()[t].event.signal.0 != s)
                .map(|t| self.place_rel[t])
                .collect();
            let mut outcome: Result<Option<bool>, ReachError> = Ok(None);
            self.fixed_point_until(init, &rels, true, |space, reached| {
                outcome = space.first_enabling(s, reached);
                matches!(outcome, Ok(None))
            });
            values.push(outcome?.unwrap_or(false));
        }
        Ok(values)
    }

    /// Disjunction of the place guards of every transition labeled with
    /// `signal` at `rising` polarity.
    fn enabled_event(&mut self, signal: usize, rising: bool) -> BddRef {
        let mut acc = BddRef::FALSE;
        for t in 0..self.stg.transition_count() {
            let event = self.stg.transitions()[t].event;
            if event.signal.0 == signal && event.rising == rising {
                acc = self.bdd.or(acc, self.place_guard[t]);
            }
        }
        acc
    }

    /// The distinct signal codes carrying a CSC conflict: two reachable
    /// states with equal codes but different enabled non-input event
    /// sets, detected by pairing the reachable set with a primed copy.
    /// Returns the exact count plus up to [`MAX_CONFLICT_CODES`]
    /// enumerated codes.
    fn csc_conflict_codes(&mut self, reached: BddRef) -> (u64, Vec<u64>) {
        let up = self.up_all.clone();
        let primed = self.bdd.rename(reached, &up);
        let mut sig_desc: Vec<usize> = (0..self.nsignals).collect();
        sig_desc.sort_unstable_by_key(|&s| std::cmp::Reverse(self.pos[self.nplaces + s]));
        let mut same_code = BddRef::TRUE;
        for &s in &sig_desc {
            let v = self.cur_var(self.nplaces + s);
            let eq = bdd_frame(&mut self.bdd, v, v + 1);
            same_code = self.bdd.and(eq, same_code);
        }
        let both = self.bdd.and(reached, primed);
        let pair = self.bdd.and(both, same_code);

        let mut conflicts = BddRef::FALSE;
        for s in 0..self.nsignals {
            if !self.stg.signals()[s].kind.is_implementable() {
                continue;
            }
            for rising in [true, false] {
                let en = self.enabled_event(s, rising);
                if en == BddRef::FALSE {
                    continue;
                }
                let en_primed = self.bdd.rename(en, &up);
                let missing = self.bdd.not(en_primed);
                let here = self.bdd.and(pair, en);
                let asym = self.bdd.and(here, missing);
                conflicts = self.bdd.or(conflicts, asym);
            }
        }

        // Project onto the current signal variables; the exact number of
        // conflicting codes is a satisfy count, and the codes themselves
        // are enumerated only up to the cap (a conflict independent of k
        // unrelated signals — routine on product nets — stands for 2^k
        // codes, which must never be expanded wholesale).
        let bits = self.nplaces + self.nsignals;
        let drop: VarSet = (0..bits)
            .map(|q| 2 * q + 1)
            .chain((0..self.nplaces).map(|p| self.cur_var(p)))
            .collect();
        let code_fn = self.bdd.exists_set(conflicts, &drop);
        let mut sig_vars: Vec<(usize, usize)> =
            (0..self.nsignals).map(|s| (self.cur_var(self.nplaces + s), s)).collect();
        sig_vars.sort_unstable();
        let sig_set: VarSet = sig_vars.iter().map(|&(v, _)| v).collect();
        let count = self.bdd.sat_count_set(code_fn, &sig_set);
        let mut codes = Vec::new();
        enumerate_codes(&self.bdd, code_fn, &sig_vars, 0, 0, &mut codes);
        codes.sort_unstable();
        (count, codes)
    }

    /// Excitation/quiescence region sizes of every signal.
    fn regions(&mut self, reached: BddRef) -> Vec<SymbolicRegions> {
        (0..self.nsignals)
            .map(|s| {
                let en_rise = self.enabled_event(s, true);
                let en_fall = self.enabled_event(s, false);
                let rise_excited = {
                    let x = self.bdd.and(reached, en_rise);
                    self.count(x, false)
                };
                let fall_excited = {
                    let x = self.bdd.and(reached, en_fall);
                    self.count(x, false)
                };
                let no_rise = self.bdd.not(en_rise);
                let no_fall = self.bdd.not(en_fall);
                let stable = self.bdd.and(no_rise, no_fall);
                let stable = self.bdd.and(reached, stable);
                let high_lit = self.bit_lit(self.nplaces + s, true);
                let low_lit = self.bdd.not(high_lit);
                let quiescent_high = {
                    let x = self.bdd.and(stable, high_lit);
                    self.count(x, false)
                };
                let quiescent_low = {
                    let x = self.bdd.and(stable, low_lit);
                    self.count(x, false)
                };
                SymbolicRegions {
                    signal: SignalId(s),
                    rise_excited,
                    fall_excited,
                    quiescent_high,
                    quiescent_low,
                }
            })
            .collect()
    }
}

/// The relation term `x_cur = from ∧ x_next = to`.
fn bdd_fixed(bdd: &mut Bdd, cur: usize, nxt: usize, from: bool, to: bool) -> BddRef {
    let c = bdd.var(cur);
    let c = if from { c } else { bdd.not(c) };
    let n = bdd.var(nxt);
    let n = if to { n } else { bdd.not(n) };
    bdd.and(c, n)
}

/// The frame term `x_next ↔ x_cur`.
fn bdd_frame(bdd: &mut Bdd, cur: usize, nxt: usize) -> BddRef {
    let c = bdd.var(cur);
    let n = bdd.var(nxt);
    let x = bdd.xor(c, n);
    bdd.not(x)
}

/// Largest number of CSC conflict codes [`reach_symbolic`] enumerates
/// into [`SymbolicReach::csc_conflict_codes`];
/// [`SymbolicReach::csc_conflict_code_count`] stays exact beyond it.
pub const MAX_CONFLICT_CODES: usize = 4096;

/// Expands satisfying assignments of `r` over the listed
/// `(variable, code bit)` pairs (ascending variables; the emitted codes
/// set the paired bit), stopping at [`MAX_CONFLICT_CODES`] entries.
fn enumerate_codes(
    bdd: &Bdd,
    r: BddRef,
    vars: &[(usize, usize)],
    idx: usize,
    acc: u64,
    out: &mut Vec<u64>,
) {
    if r == BddRef::FALSE || out.len() >= MAX_CONFLICT_CODES {
        return;
    }
    if idx == vars.len() {
        debug_assert_eq!(r, BddRef::TRUE, "support must lie within the enumerated variables");
        out.push(acc);
        return;
    }
    let (var, bit) = vars[idx];
    match bdd.node(r) {
        Some((v, lo, hi)) if v == var => {
            enumerate_codes(bdd, lo, vars, idx + 1, acc, out);
            enumerate_codes(bdd, hi, vars, idx + 1, acc | 1 << bit, out);
        }
        _ => {
            // `r` does not branch on this variable: both values satisfy.
            enumerate_codes(bdd, r, vars, idx + 1, acc, out);
            enumerate_codes(bdd, r, vars, idx + 1, acc | 1 << bit, out);
        }
    }
}

/// Full symbolic reachability: exact state/edge counts, initial code,
/// per-signal regions, CSC conflict codes and — when the space fits the
/// configured thresholds — the materialized explicit state graph.
///
/// # Errors
/// [`ReachError::NotSafe`] for nets that are not 1-safe,
/// [`ReachError::Inconsistent`] for non-alternating specifications,
/// [`ReachError::Build`] when the symbolic and enumerative results
/// disagree (a bug trap, not an expected outcome) or the net exceeds the
/// engine's structural limits.
pub fn reach_symbolic(stg: &Stg, config: &ReachConfig) -> Result<SymbolicReach, ReachError> {
    if stg.signals().len() > 64 {
        return Err(ReachError::Build(format!(
            "too many signals: {} (max 64)",
            stg.signals().len()
        )));
    }
    let mut space = Space::new(stg, true)?;
    let initial_values = space.infer_initial_values()?;
    let init = space.initial_state(&initial_values);
    let rels = space.full_rel.clone();
    let reached = space.fixed_point(init, &rels, false);
    space.check_safe(reached)?;
    space.check_consistent(reached)?;

    let states = space.count(reached, false);
    let mut edges = 0u64;
    let mut dead_transitions = Vec::new();
    for t in 0..stg.transition_count() {
        let fired = space.bdd.and(reached, space.place_guard[t]);
        if fired == BddRef::FALSE {
            dead_transitions.push(TransitionId(t));
        } else {
            edges = edges.saturating_add(space.count(fired, false));
        }
    }
    let regions = space.regions(reached);
    let (csc_conflict_code_count, csc_conflict_codes) = space.csc_conflict_codes(reached);
    let mut initial_code = 0u64;
    for (s, &v) in initial_values.iter().enumerate() {
        if v {
            initial_code |= 1 << s;
        }
    }

    let threshold = config.max_states.min(config.materialize_limit) as u64;
    let (graph, stats) = if states <= threshold {
        let packed = ReachConfig { strategy: ReachStrategy::Packed, ..config.clone() };
        let (sg, stats) = elaborate_with_stats(stg, &packed)?;
        // The symbolic quantities were computed without enumerating a
        // single marking; any disagreement with the packed engine is a
        // bug in one of the two and must never pass silently.
        if sg.state_count() as u64 != states || stats.edges as u64 != edges {
            return Err(ReachError::Build(format!(
                "symbolic reachability disagrees with the packed engine: \
                 {states} states / {edges} edges symbolically, {} / {} packed",
                sg.state_count(),
                stats.edges
            )));
        }
        if sg.code(sg.initial()) != initial_code {
            return Err(ReachError::Build(format!(
                "symbolic initial-code inference disagrees with the packed engine: \
                 {initial_code:#b} vs {:#b}",
                sg.code(sg.initial())
            )));
        }
        let mut graph_codes: Vec<u64> = check_csc(&sg)
            .into_iter()
            .filter_map(|v| match v {
                PropertyViolation::CscConflict { code, .. } => Some(code),
                _ => None,
            })
            .collect();
        graph_codes.sort_unstable();
        graph_codes.dedup();
        if graph_codes.len() as u64 != csc_conflict_code_count
            || (csc_conflict_code_count <= MAX_CONFLICT_CODES as u64
                && graph_codes != csc_conflict_codes)
        {
            return Err(ReachError::Build(format!(
                "symbolic CSC conflict codes disagree with the state graph: \
                 {csc_conflict_code_count} code(s) {csc_conflict_codes:?} vs \
                 {graph_codes:?}"
            )));
        }
        (Some(sg), ReachStats { strategy: ReachStrategy::Symbolic, ..stats })
    } else {
        let stats = ReachStats {
            visited: saturate(states),
            interned: saturate(states),
            edges: saturate(edges),
            strategy: ReachStrategy::Symbolic,
            spill: None,
        };
        (None, stats)
    };

    Ok(SymbolicReach {
        states,
        edges,
        initial_code,
        csc_conflict_code_count,
        csc_conflict_codes,
        regions,
        dead_transitions,
        graph,
        stats,
        bdd_nodes: space.bdd.node_count(),
    })
}

/// The [`crate::reach`] back-end of [`ReachStrategy::Symbolic`]: a
/// place-only symbolic pass establishes 1-safety and the exact marking
/// count, then the packed core materializes the byte-identical
/// exploration under that precomputed bound — with the two counts
/// cross-checked.
pub(crate) fn explore_symbolic(stg: &Stg, config: &ReachConfig) -> Result<Exploration, ReachError> {
    let mut space = Space::new(stg, false)?;
    let init = space.initial_places();
    let rels = space.place_rel.clone();
    let reached = space.fixed_point(init, &rels, true);
    space.check_safe(reached)?;
    let states = space.count(reached, true);

    if states > config.max_states as u64 {
        // Let the packed core run into the limit so the StateLimit error
        // (limit, progress counter) is byte-identical to the oracle's.
        return explore_packed(stg, config);
    }
    if states > config.materialize_limit as u64 {
        return Err(ReachError::MaterializeLimit { states, limit: config.materialize_limit });
    }
    let exploration = explore_packed(stg, config)?;
    if exploration.count as u64 != states {
        return Err(ReachError::Build(format!(
            "symbolic reachability disagrees with the packed engine: \
             {states} vs {} markings",
            exploration.count
        )));
    }
    Ok(exploration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;
    use crate::patterns;
    use crate::reach::elaborate_with;

    const RING: &str = "\
.model ring
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";

    fn symbolic() -> ReachConfig {
        ReachConfig { strategy: ReachStrategy::Symbolic, ..ReachConfig::default() }
    }

    #[test]
    fn ring_counts_and_materializes() {
        let stg = parse_g(RING).unwrap();
        let sym = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
        assert_eq!(sym.states, 4);
        assert_eq!(sym.edges, 4);
        assert_eq!(sym.initial_code, 0);
        assert!(sym.csc_conflict_codes.is_empty());
        assert!(sym.dead_transitions.is_empty());
        let sg = sym.graph.expect("under the threshold");
        assert_eq!(sg.state_count(), 4);
        assert_eq!(sym.stats.strategy, ReachStrategy::Symbolic);
        assert_eq!(sym.stats.interned, 4);
    }

    #[test]
    fn ring_regions_are_exact() {
        // Each of the four states excites exactly one event; each signal
        // is stable in two states (one per value).
        let stg = parse_g(RING).unwrap();
        let sym = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
        for r in &sym.regions {
            assert_eq!(r.rise_excited, 1, "{:?}", r.signal);
            assert_eq!(r.fall_excited, 1);
            assert_eq!(r.quiescent_high, 1);
            assert_eq!(r.quiescent_low, 1);
        }
    }

    #[test]
    fn elaborate_matches_packed_byte_for_byte() {
        let stg = patterns::pipeline(3);
        let sym = elaborate_with(&stg, &symbolic()).unwrap();
        let packed = elaborate_with(&stg, &ReachConfig::default()).unwrap();
        assert_eq!(sym.state_count(), packed.state_count());
        for s in sym.states() {
            assert_eq!(sym.code(s), packed.code(s));
            assert_eq!(sym.succ(s), packed.succ(s));
        }
    }

    #[test]
    fn csc_conflict_codes_found_symbolically() {
        // The classic conflict: a+ b+ b- a- over two outputs — the states
        // after a+ and after b- share code 01 with different enabled
        // outputs.
        let src = "\
.model conflict
.outputs a b
.graph
a+ b+
b+ b-
b- a-
a- a+
.marking { <a-,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        let sym = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
        assert_eq!(sym.states, 4);
        assert_eq!(sym.csc_conflict_code_count, 1);
        assert_eq!(sym.csc_conflict_codes, vec![0b01]);
    }

    #[test]
    fn conflict_codes_are_counted_exactly_but_enumerated_capped() {
        // A conflicted pair composed with independent rings: the conflict
        // is independent of every ring signal, so each free signal
        // doubles the number of conflicting codes — 4^7 = 16384 here,
        // far past the enumeration cap. The count must stay exact (and
        // the materialization cross-check count-based) without ever
        // expanding the code set wholesale.
        let conflict = "\
.model conflict
.outputs a b
.graph
a+ b+
b+ b-
b- a-
a- a+
.marking { <a-,a+> }
.end
";
        let mut parts = vec![parse_g(conflict).unwrap()];
        parts.extend((0..7).map(|_| patterns::sequencer(2, None)));
        let stg = patterns::parallel("mix", &parts);
        let sym = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
        assert_eq!(sym.states, 4 * 4u64.pow(7));
        assert_eq!(sym.csc_conflict_code_count, 4u64.pow(7));
        assert_eq!(sym.csc_conflict_codes.len(), MAX_CONFLICT_CODES);
        assert!(sym.graph.is_some(), "still materialized; cross-check is count-based");
    }

    #[test]
    fn unsafe_nets_are_rejected() {
        let src = "\
.model unb
.inputs a
.graph
p a+
a+ p q
q a-
a- p
.marking { p }
.end
";
        let stg = parse_g(src).unwrap();
        let err = reach_symbolic(&stg, &ReachConfig::default()).unwrap_err();
        assert!(matches!(err, ReachError::NotSafe { ref place } if place == "q"), "{err}");
        let err = elaborate_with(&stg, &symbolic()).unwrap_err();
        assert!(matches!(err, ReachError::NotSafe { .. }), "{err}");
        // A multi-token initial marking is rejected up front.
        let marked = "\
.model wide
.inputs a
.graph
p a+
a+ q
q a-
a- p
.marking { p=2 }
.end
";
        let stg = parse_g(marked).unwrap();
        let err = elaborate_with(&stg, &symbolic()).unwrap_err();
        assert!(matches!(err, ReachError::NotSafe { ref place } if place == "p"), "{err}");
    }

    #[test]
    fn inconsistent_nets_are_rejected_symbolically() {
        let src = "\
.model bad
.inputs a
.graph
a+ a+/2
a+/2 a-
a- a+
.marking { <a-,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        let err = reach_symbolic(&stg, &ReachConfig::default()).unwrap_err();
        assert!(matches!(err, ReachError::Inconsistent { .. }), "{err}");
    }

    #[test]
    fn materialize_limit_gates_the_graph_but_not_the_count() {
        let stg = patterns::pipeline(4); // 60 states
        let config = ReachConfig { materialize_limit: 10, ..ReachConfig::default() };
        let sym = reach_symbolic(&stg, &config).unwrap();
        assert!(sym.graph.is_none());
        assert!(sym.states > 10);
        assert_eq!(sym.stats.interned as u64, sym.states);
        // Elaboration refuses with the dedicated error.
        let config = ReachConfig { strategy: ReachStrategy::Symbolic, ..config };
        let err = elaborate_with(&stg, &config).unwrap_err();
        assert!(matches!(err, ReachError::MaterializeLimit { limit: 10, .. }), "{err}");
    }

    #[test]
    fn state_limit_matches_the_enumerative_error() {
        let stg = parse_g(RING).unwrap();
        let config =
            ReachConfig { max_states: 2, strategy: ReachStrategy::Symbolic, ..Default::default() };
        let sym_err = elaborate_with(&stg, &config).unwrap_err();
        let packed_err =
            elaborate_with(&stg, &ReachConfig { max_states: 2, ..ReachConfig::default() })
                .unwrap_err();
        assert_eq!(sym_err, packed_err);
    }

    #[test]
    fn initial_values_inferred_mid_cycle() {
        // Marking after a+: a starts high — the symbolic inference must
        // agree with the enumerative engines' first-enabling rule.
        let src = "\
.model mid
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <a+,b+> }
.end
";
        let stg = parse_g(src).unwrap();
        let sym = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
        assert_eq!(sym.initial_code, 0b01, "a high, b low");
    }

    #[test]
    fn dead_transitions_are_reported() {
        let src = "\
.model dead
.inputs a b
.graph
p a+
a+ a-
a- p
q b+
b+ q
.marking { p }
.end
";
        let stg = parse_g(src).unwrap();
        let sym = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
        assert_eq!(sym.dead_transitions.len(), 1);
        assert_eq!(stg.transition_label(sym.dead_transitions[0]), "b+");
    }

    #[test]
    fn counts_a_state_space_beyond_the_enumerative_limit() {
        // Twelve independent 4-state rings: 4^12 ≈ 16.8M markings — far
        // past the enumerative engines' default StateLimit, counted
        // exactly (product form) by the BDD without enumeration.
        let parts: Vec<Stg> = (0..12).map(|_| patterns::sequencer(2, None)).collect();
        let stg = patterns::parallel("grid", &parts);
        let config = ReachConfig { max_states: 10_000, ..ReachConfig::default() };
        let sym = reach_symbolic(&stg, &config).unwrap();
        assert_eq!(sym.states, 4u64.pow(12));
        assert!(sym.graph.is_none());
        assert!(sym.csc_conflict_codes.is_empty(), "independent rings keep CSC");
        // The enumerative engines cannot touch this net.
        let err = elaborate_with(&stg, &config).unwrap_err();
        assert!(matches!(err, ReachError::StateLimit { limit: 10_000, .. }), "{err}");
    }
}
