//! Integration tests of the symbolic reachability strategy: the
//! huge-state-space workload (exact counts past the enumerative
//! engines' StateLimit), pipeline/engine integration, and the CLI
//! surface of `--strategy symbolic`.

use simap::stg::{patterns, reach_symbolic, ReachError, Stg};
use simap::{Config, Engine, ReachConfig, ReachStrategy};

fn symbolic_config() -> Config {
    Config::builder().reach_strategy(ReachStrategy::Symbolic).build().unwrap()
}

/// Sixteen independent 4-state rings: 4^16 ≈ 4.3 billion markings.
fn ring_grid() -> Stg {
    let parts: Vec<Stg> = (0..16).map(|_| patterns::sequencer(2, None)).collect();
    patterns::parallel("grid", &parts)
}

/// The acceptance-bar workload: a net whose reachable set blows far past
/// the enumerative engines' configured StateLimit still gets an exact
/// state count (and a CSC verdict) symbolically.
#[test]
fn symbolic_counts_beyond_the_enumerative_state_limit() {
    let stg = ring_grid();
    let reach = ReachConfig { max_states: 50_000, ..ReachConfig::default() };

    // Every enumerative engine gives up at the limit…
    for strategy in [ReachStrategy::Packed, ReachStrategy::Explicit, ReachStrategy::Symbolic] {
        let config = ReachConfig { strategy, ..reach.clone() };
        let err = simap::stg::elaborate_with(&stg, &config).unwrap_err();
        assert!(matches!(err, ReachError::StateLimit { limit: 50_000, .. }), "{strategy}: {err}");
    }

    // …while the symbolic summary answers exactly.
    let sym = reach_symbolic(&stg, &reach).expect("symbolic summary");
    assert_eq!(sym.states, 4u64.pow(16));
    assert_eq!(sym.stats.strategy, ReachStrategy::Symbolic);
    assert!(sym.graph.is_none(), "nothing this size is materialized");
    assert!(sym.csc_conflict_codes.is_empty(), "independent rings keep CSC");
    assert!(sym.dead_transitions.is_empty());
    // Each of the 64 transitions is enabled in exactly 1/4 of the states.
    assert_eq!(sym.edges, 4u64.pow(16) / 4 * 64);
}

/// The pipeline runs end to end on the symbolic strategy and produces
/// the same report as the packed default.
#[test]
fn pipeline_runs_on_the_symbolic_strategy() {
    let symbolic = Engine::new(symbolic_config());
    let packed = Engine::new(Config::default());
    for name in ["hazard", "half", "dff"] {
        let s = symbolic.synthesize(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let p = packed.synthesize(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(s.inserted, p.inserted, "{name}");
        assert_eq!(s.si_cost, p.si_cost, "{name}");
        assert_eq!(s.non_si_cost, p.non_si_cost, "{name}");
        assert_eq!(s.verified, p.verified, "{name}");
    }
}

/// The engine cache keys symbolic elaborations separately (strategy and
/// materialization threshold are part of the identity) and replays them
/// on hits.
#[test]
fn engine_caches_symbolic_elaborations() {
    let engine = Engine::new(symbolic_config());
    let first = engine.benchmark("half").elaborate().unwrap();
    assert_eq!(first.reach_stats().unwrap().strategy, ReachStrategy::Symbolic);
    let again = engine.benchmark("half").elaborate().unwrap();
    assert_eq!(again.reach_stats().unwrap().strategy, ReachStrategy::Symbolic);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // A different materialization threshold is a different cache entry.
    let other = engine.with_config(
        Config::builder()
            .reach_strategy(ReachStrategy::Symbolic)
            .reach_materialize_limit(3)
            .build()
            .unwrap(),
    );
    let err = other.benchmark("half").elaborate().unwrap_err();
    assert!(err.to_string().contains("materialization threshold"), "{err}");
    assert_eq!(engine.cache_stats().entries, 1, "failed elaborations are not cached");
}

/// `Elaborated::reach_stats` reports the symbolic strategy through the
/// whole stack, and the stats agree with the packed run's counters.
#[test]
fn symbolic_stats_flow_through_the_pipeline() {
    let symbolic = Engine::new(symbolic_config()).benchmark("vbe5b").elaborate().unwrap();
    let packed = Engine::new(Config::default()).benchmark("vbe5b").elaborate().unwrap();
    let s = symbolic.reach_stats().unwrap();
    let p = packed.reach_stats().unwrap();
    assert_eq!(s.strategy, ReachStrategy::Symbolic);
    assert_eq!((s.visited, s.interned, s.edges), (p.visited, p.interned, p.edges));
    assert_eq!(symbolic.state_graph().state_count(), packed.state_graph().state_count());
}

/// The symbolic summary agrees with itself across materialization
/// thresholds: gating the graph changes nothing about the counts.
#[test]
fn threshold_does_not_change_the_counts() {
    let stg = patterns::pipeline(4);
    let wide = reach_symbolic(&stg, &ReachConfig::default()).unwrap();
    let narrow =
        reach_symbolic(&stg, &ReachConfig { materialize_limit: 5, ..ReachConfig::default() })
            .unwrap();
    assert!(wide.graph.is_some() && narrow.graph.is_none());
    assert_eq!(wide.states, narrow.states);
    assert_eq!(wide.edges, narrow.edges);
    assert_eq!(wide.initial_code, narrow.initial_code);
    assert_eq!(wide.csc_conflict_codes, narrow.csc_conflict_codes);
    assert_eq!(wide.regions, narrow.regions);
}

/// Pins the counts and the node store of the fixed-order manager: the
/// variable order, the unique table and the operation sequence together
/// decide `bdd_nodes`, so any change to one of them shows here.
#[test]
fn symbolic_counts_and_node_store_are_pinned() {
    let nets = [
        ("master-read", simap::stg::benchmark("master-read").expect("known")),
        ("mmu", simap::stg::benchmark("mmu").expect("known")),
        ("mr1", simap::stg::benchmark("mr1").expect("known")),
        ("grid", ring_grid()),
    ];
    let expected: [(u64, u64, usize); 4] = [
        (320, 968, 18252),
        (192, 588, 35930),
        (384, 1356, 131411),
        (4u64.pow(16), 4u64.pow(16) / 4 * 64, 131559),
    ];
    for ((name, stg), want) in nets.iter().zip(expected) {
        let sym = reach_symbolic(stg, &ReachConfig::default()).expect("symbolic summary");
        assert_eq!((sym.states, sym.edges, sym.bdd_nodes), want, "{name}");
    }
}
