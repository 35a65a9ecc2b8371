//! Two-level minimization against explicit ON/OFF minterm lists.
//!
//! State-graph synthesis problems enumerate the reachable state codes, so
//! the ON-set and OFF-set are given as explicit lists of minterm codes and
//! everything else (unreachable codes) is an implicit don't-care. This is
//! exactly the setting of espresso's `expand`/`irredundant`/`reduce` loop
//! with an OFF-set oracle, which we implement here in a compact form.
//!
//! Expansion follows espresso (Brayton, Hachtel, McMullen &
//! Sangiovanni-Vincentelli, *Logic Minimization Algorithms for VLSI
//! Synthesis*, 1984): ON minterms are expanded in code order and a minterm
//! already covered by an earlier expanded cube is skipped, and each cube is
//! expanded in a single pass over its literals — a literal that cannot be
//! dropped stays undroppable as the cube grows.

use crate::cover::Cover;
use crate::cube::{Cube, MAX_VARS};
use std::collections::HashSet;

/// A two-level minimization problem: explicit ON and OFF minterm lists over
/// `nvars` variables; every other code is a don't-care.
#[derive(Debug, Clone)]
pub struct MinimizeProblem {
    nvars: usize,
    on: Vec<u64>,
    off: Vec<u64>,
    /// Variable expansion order, precomputed once: variables whose removal
    /// is least likely to collide with the OFF-set first.
    var_order: Vec<usize>,
}

/// Error returned when the ON and OFF sets overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictingMintermError {
    /// A code present in both the ON and OFF sets.
    pub code: u64,
}

impl std::fmt::Display for ConflictingMintermError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "minterm {:b} is in both the on-set and the off-set", self.code)
    }
}

impl std::error::Error for ConflictingMintermError {}

impl MinimizeProblem {
    /// Creates a problem; validates that ON and OFF are disjoint.
    ///
    /// # Errors
    /// Returns [`ConflictingMintermError`] if a code appears in both sets
    /// (in state-graph terms: a CSC conflict).
    pub fn new(nvars: usize, on: Vec<u64>, off: Vec<u64>) -> Result<Self, ConflictingMintermError> {
        assert!(nvars <= MAX_VARS);
        let off_set: HashSet<u64> = off.iter().copied().collect();
        if let Some(&code) = on.iter().find(|c| off_set.contains(c)) {
            return Err(ConflictingMintermError { code });
        }
        let mut on = on;
        let mut off = off;
        on.sort_unstable();
        on.dedup();
        off.sort_unstable();
        off.dedup();
        // Expansion order: for each variable, count how "split" the
        // OFF-set is on it — variables on which the OFF-set is one-sided
        // are cheap to drop and go first.
        let mut ones = vec![0usize; nvars];
        for &m in &off {
            for (v, count) in ones.iter_mut().enumerate() {
                *count += (m >> v & 1) as usize;
            }
        }
        let total = off.len();
        let mut var_order: Vec<usize> = (0..nvars).collect();
        var_order.sort_by_key(|&v| ones[v].min(total - ones[v]));
        Ok(MinimizeProblem { nvars, on, off, var_order })
    }

    /// The ON-set codes.
    pub fn on(&self) -> &[u64] {
        &self.on
    }

    /// The OFF-set codes.
    pub fn off(&self) -> &[u64] {
        &self.off
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Minimizes and returns an SOP cover that is 1 on all ON codes and 0 on
    /// all OFF codes (don't-cares used freely).
    pub fn minimize(&self) -> Cover {
        if self.on.is_empty() {
            return Cover::zero();
        }
        if self.off.is_empty() {
            return Cover::one();
        }
        let expanded = self.expand_all();
        let mut cover = self.irredundant(&expanded);
        // One reduce/re-expand pass often removes an extra literal or cube.
        for _ in 0..2 {
            let reduced = self.reduce(&cover);
            let re_expanded: Vec<Cube> = reduced.iter().map(|c| self.expand_cube(*c)).collect();
            let candidate = self.irredundant(&re_expanded);
            if cost(&candidate) < cost(&cover) {
                cover = candidate;
            } else {
                break;
            }
        }
        debug_assert!(cover.covers_all(&self.on));
        debug_assert!(cover.avoids_all(&self.off));
        cover
    }

    /// Expands the ON minterms, in code order, into prime cubes against
    /// the OFF list. A minterm that an earlier expanded cube already
    /// covers is skipped (espresso's rule), so each returned cube is
    /// distinct and the work is proportional to the cover, not to the
    /// ON-set. A skipped minterm offers `irredundant` no prime of its own,
    /// so on some problems the cover differs from expanding every minterm;
    /// the golden covers under `tests/golden` pin the state-graph ones.
    fn expand_all(&self) -> Vec<Cube> {
        let mut cubes: Vec<Cube> = Vec::new();
        for &m in &self.on {
            if !cubes.iter().any(|c| c.eval(m)) {
                cubes.push(self.expand_cube(Cube::minterm(m, self.nvars)));
            }
        }
        cubes
    }

    /// Greedily removes literals from `cube` while it stays disjoint from
    /// the OFF-set, trying variables in the problem's precomputed order.
    /// One pass suffices: dropping a literal only grows the cube, so a
    /// literal whose removal hit the OFF-set once hits it again later.
    fn expand_cube(&self, mut cube: Cube) -> Cube {
        for &v in &self.var_order {
            if cube.phase_of(v).is_none() {
                continue;
            }
            let widened = cube.without_var(v);
            if !self.off.iter().any(|&m| widened.eval(m)) {
                cube = widened;
            }
        }
        cube
    }

    /// Minimum-ish cover of the ON minterms by the candidate cubes:
    /// essential candidates first (sole cover of some minterm), then
    /// greedy set-cover on the rest.
    fn irredundant(&self, candidates: &[Cube]) -> Cover {
        let mut uncovered: HashSet<u64> = self.on.iter().copied().collect();
        let mut chosen: Vec<Cube> = Vec::new();

        // Essential pass: a candidate covering a minterm nobody else
        // covers must be in every solution.
        for &m in &self.on {
            let mut covering = candidates.iter().filter(|c| c.eval(m));
            if let (Some(&only), None) = (covering.next(), covering.next()) {
                if !chosen.contains(&only) {
                    chosen.push(only);
                }
            }
        }
        for c in &chosen {
            uncovered.retain(|&m| !c.eval(m));
        }

        while !uncovered.is_empty() {
            let mut best: Option<(usize, usize, Cube)> = None;
            for &c in candidates {
                let gain = uncovered.iter().filter(|&&m| c.eval(m)).count();
                if gain == 0 {
                    continue;
                }
                let key = (gain, usize::MAX - c.literal_count());
                match &best {
                    Some((bg, bl, _)) if (*bg, *bl) >= key => {}
                    _ => best = Some((key.0, key.1, c)),
                }
            }
            // When no candidate covers a remaining minterm (possible after
            // an aggressive reduce pass), expand that minterm directly.
            let cube = match best {
                Some((_, _, c)) => c,
                None => {
                    let &m = uncovered.iter().next().expect("loop guard");
                    self.expand_cube(Cube::minterm(m, self.nvars))
                }
            };
            uncovered.retain(|&m| !cube.eval(m));
            chosen.push(cube);
        }
        Cover::from_cubes(chosen)
    }

    /// Reduces each cube of `cover` to the smallest cube still covering the
    /// ON minterms only it covers (classic `reduce`).
    fn reduce(&self, cover: &Cover) -> Vec<Cube> {
        let cubes = cover.cubes();
        let mut reduced = Vec::with_capacity(cubes.len());
        for (i, c) in cubes.iter().enumerate() {
            let exclusive: Vec<u64> = self
                .on
                .iter()
                .copied()
                .filter(|&m| {
                    c.eval(m) && !cubes.iter().enumerate().any(|(j, d)| j != i && d.eval(m))
                })
                .collect();
            if exclusive.is_empty() {
                // Redundant cube; keep as-is (irredundant pass will drop it).
                reduced.push(*c);
                continue;
            }
            // Smallest cube containing the exclusive minterms: the supercube.
            let mut pos = u64::MAX;
            let mut neg = u64::MAX;
            for &m in &exclusive {
                pos &= m;
                neg &= !m;
            }
            let mask = if self.nvars == MAX_VARS { u64::MAX } else { (1u64 << self.nvars) - 1 };
            let cube = Cube::from_masks(pos & mask, neg & mask).expect("supercube is consistent");
            reduced.push(cube);
        }
        reduced
    }

    /// Minimized complement: 1 on OFF codes, 0 on ON codes.
    pub fn minimize_complement(&self) -> Cover {
        MinimizeProblem::new(self.nvars, self.off.clone(), self.on.clone())
            .expect("swapped sets stay disjoint")
            .minimize()
    }
}

fn cost(cover: &Cover) -> (usize, usize) {
    (cover.cube_count(), cover.literal_count())
}

/// Gate complexity in the paper's §4 model: number of literals needed to
/// implement the function as a sum-of-products gate, *either complemented
/// or not* (e.g. a 2-input XOR counts 4 literals; `ab+ac+db+dc` counts 4 via
/// its complement-free factorization — we approximate that model with
/// `min(lits(F), lits(F̄))`).
pub fn gate_complexity(problem: &MinimizeProblem) -> usize {
    let f = problem.minimize();
    let g = problem.minimize_complement();
    f.literal_count().min(g.literal_count())
}

/// Convenience: minimize an ON/OFF split given as code lists.
///
/// # Errors
/// Returns [`ConflictingMintermError`] when the sets overlap.
pub fn minimize_onoff(
    nvars: usize,
    on: &[u64],
    off: &[u64],
) -> Result<Cover, ConflictingMintermError> {
    Ok(MinimizeProblem::new(nvars, on.to_vec(), off.to_vec())?.minimize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Literal;

    #[test]
    fn rejects_conflicts() {
        let err = MinimizeProblem::new(2, vec![1], vec![1, 2]).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn constant_cases() {
        let p = MinimizeProblem::new(2, vec![], vec![0]).unwrap();
        assert!(p.minimize().is_zero());
        let p = MinimizeProblem::new(2, vec![0, 3], vec![]).unwrap();
        assert!(p.minimize().is_one());
    }

    #[test]
    fn single_literal_emerges() {
        // ON = {codes with bit0 = 1}, OFF = rest over 3 vars.
        let on: Vec<u64> = (0..8).filter(|c| c & 1 == 1).collect();
        let off: Vec<u64> = (0..8).filter(|c| c & 1 == 0).collect();
        let f = minimize_onoff(3, &on, &off).unwrap();
        assert_eq!(f.literal_count(), 1);
        assert_eq!(f.cubes()[0], Cube::from_literals([Literal::pos(0)]).unwrap());
    }

    #[test]
    fn xor_needs_four_literals() {
        // XOR over 2 vars: ON = {01,10}, OFF = {00,11}.
        let p = MinimizeProblem::new(2, vec![0b01, 0b10], vec![0b00, 0b11]).unwrap();
        let f = p.minimize();
        assert_eq!(f.literal_count(), 4);
        assert_eq!(gate_complexity(&p), 4);
    }

    #[test]
    fn dont_cares_are_used() {
        // 3 vars; ON = {111}, OFF = {000}; everything else DC => a single
        // literal suffices.
        let f = minimize_onoff(3, &[0b111], &[0b000]).unwrap();
        assert_eq!(f.literal_count(), 1);
    }

    #[test]
    fn correctness_on_random_partitions() {
        // Deterministic pseudo-random split of a 5-var space.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let mut on = Vec::new();
            let mut off = Vec::new();
            for code in 0..32u64 {
                match next() % 3 {
                    0 => on.push(code),
                    1 => off.push(code),
                    _ => {}
                }
            }
            let p = MinimizeProblem::new(5, on.clone(), off.clone()).unwrap();
            let f = p.minimize();
            assert!(f.covers_all(&on), "on-set must be covered");
            assert!(f.avoids_all(&off), "off-set must be avoided");
            let g = p.minimize_complement();
            assert!(g.covers_all(&off));
            assert!(g.avoids_all(&on));
        }
    }

    #[test]
    fn complement_cheaper_counts() {
        // f = majority-ish function where complement is simpler: OFF = {000}.
        let on: Vec<u64> = (1..8).collect();
        let p = MinimizeProblem::new(3, on, vec![0]).unwrap();
        // f = a + b + c (3 literals), f' = a'b'c' (3 literals).
        assert_eq!(gate_complexity(&p), 3);
    }

    #[test]
    fn essential_primes_are_kept() {
        // f over 4 vars with two essential primes: the classic two-lobe
        // function ON = {x3'x2'x1'} ∪ {x3 x2 x1} plus a bridging DC.
        // ON minterms 0000,0001 need cube x3'x2'x1'; 1110,1111 need
        // x3x2x1; nothing else covers them.
        let on = vec![0b0000, 0b0001, 0b1110, 0b1111];
        let off = vec![0b0100, 0b0010, 0b1011, 0b1101, 0b0110, 0b1001];
        let p = MinimizeProblem::new(4, on.clone(), off.clone()).unwrap();
        let f = p.minimize();
        assert!(f.covers_all(&on));
        assert!(f.avoids_all(&off));
        assert_eq!(f.cube_count(), 2, "two essential primes suffice: {f:?}");
    }
}
