//! Brute-force oracle for the two-level minimizer: seeded random ON/OFF/DC
//! splits of 1–8 variables, with don't-care densities from none to most of
//! the space, checked exhaustively over all 2^N codes. For both
//! `minimize` and `minimize_complement` the cover must contain every ON
//! code, contain no OFF code, and consist of prime cubes (dropping any
//! literal of any cube hits the OFF-set).
//!
//! Irredundancy is *not* an invariant of the greedy cover, so it is only
//! counted and reported on stderr.
//!
//! The case count is environment-tunable for a deeper sweep:
//! `SIMAP_MIN_CASES=40000 cargo test --release -p simap-boolean --test minimize_oracle`.

use simap_boolean::{Cover, Cube, MinimizeProblem};

/// Don't-care densities, in percent of the code space.
const DC_PERCENT: [u64; 6] = [0, 10, 30, 50, 75, 90];

fn cases() -> u64 {
    std::env::var("SIMAP_MIN_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(4000)
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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random split: `(nvars, on, off)`; the remaining codes are DC.
fn random_split(rng: &mut Rng) -> (usize, Vec<u64>, Vec<u64>) {
    let nvars = 1 + rng.below(8) as usize;
    let dc = DC_PERCENT[rng.below(DC_PERCENT.len() as u64) as usize];
    let on_percent = 10 + rng.below(81);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for code in 0..1u64 << nvars {
        if rng.below(100) < dc {
            continue;
        }
        if rng.below(100) < on_percent {
            on.push(code);
        } else {
            off.push(code);
        }
    }
    (nvars, on, off)
}

/// Whether `cube` is prime against `off`: every one-literal widening of it
/// contains some OFF code.
fn is_prime(cube: &Cube, off: &[u64]) -> bool {
    cube.literals().all(|lit| {
        let widened = cube.without_var(lit.var);
        off.iter().any(|&m| widened.eval(m))
    })
}

/// Whether some cube of `cover` can go without uncovering an ON code.
fn is_redundant(cover: &Cover, on: &[u64]) -> bool {
    let cubes = cover.cubes();
    (0..cubes.len())
        .any(|i| on.iter().all(|&m| cubes.iter().enumerate().any(|(j, c)| j != i && c.eval(m))))
}

/// Checks the oracle's invariants for one cover; returns whether it is
/// redundant.
fn check(cover: &Cover, nvars: usize, on: &[u64], off: &[u64], context: &str) -> bool {
    let on_set: std::collections::HashSet<u64> = on.iter().copied().collect();
    let off_set: std::collections::HashSet<u64> = off.iter().copied().collect();
    for code in 0..1u64 << nvars {
        let value = cover.eval(code);
        assert!(!on_set.contains(&code) || value, "{context}: ON code {code:b} uncovered: {cover}");
        assert!(
            !off_set.contains(&code) || !value,
            "{context}: OFF code {code:b} covered: {cover}"
        );
    }
    for cube in cover.cubes() {
        assert!(is_prime(cube, off), "{context}: cube {cube} is not prime in {cover}");
    }
    is_redundant(cover, on)
}

#[test]
fn minimized_covers_are_correct_and_prime() {
    let mut rng = Rng(0x05ee_d0f0_ac1e);
    let total = cases();
    let mut redundant = 0;
    for case in 0..total {
        let (nvars, on, off) = random_split(&mut rng);
        let problem = MinimizeProblem::new(nvars, on.clone(), off.clone()).expect("disjoint");
        let context = format!("case {case} (nvars {nvars}, on {on:?}, off {off:?})");
        let f = problem.minimize();
        redundant += usize::from(check(&f, nvars, &on, &off, &format!("{context}, minimize")));
        let g = problem.minimize_complement();
        let complement = format!("{context}, minimize_complement");
        redundant += usize::from(check(&g, nvars, &off, &on, &complement));
    }
    eprintln!("{redundant} of {} covers are redundant (reported, not asserted)", 2 * total);
}
