//! Structural invariants of the topology layer.
//!
//! The determinism matrix for non-complete topologies lives in
//! `tests/determinism.rs`; golden pins for the default complete graph in
//! `tests/golden.rs` (and must hold unchanged — the topology layer's
//! `Complete` arm is the pre-topology draw verbatim). This suite checks the
//! *graphs themselves*: regularity, simplicity, symmetry and connectivity of
//! every constructed adjacency, for the seeds and sizes the benches and
//! examples actually use.

use gossip_net::{Engine, EngineConfig, GossipError, Topology};

/// The exact `(n, degree, graph_seed)` triples constructed elsewhere in the
/// repository — `bench/benches/topology_quantile.rs` uses
/// `random_regular(16, n)` at n ∈ {1k, 10k, 100k};
/// `examples/topology_sweep.rs`, `quantile-gossip/tests/topology.rs` and the
/// determinism/baselines suites use the degree-8/16 seeds below — plus
/// smaller mixed-parity spares. Simplicity and connectivity of a
/// configuration-model graph depend on the whole triple, so the invariants
/// are checked on precisely the graphs the rest of the repo runs on.
const GRAPHS_USED: [(usize, usize, u64); 10] = [
    (1_000, 16, 1_000),
    (10_000, 16, 10_000),
    (100_000, 16, 100_000),
    (10_000, 16, 7),
    (20_000, 8, 11),
    (4_096, 8, 7),
    (2_048, 8, 5),
    (600, 8, 5),
    (200, 4, 7),
    (501, 6, 7),
];

#[test]
fn random_regular_is_simple_connected_and_regular_for_the_graphs_used() {
    for &(n, degree, seed) in &GRAPHS_USED {
        let adj = Topology::random_regular(degree, seed)
            .build_adjacency(n)
            .expect("construction succeeds")
            .expect("non-complete topologies materialise an adjacency");
        assert_eq!(adj.n(), n);
        assert_eq!(adj.degree(), degree, "n={n} seed={seed}");
        assert!(
            adj.is_simple_undirected(),
            "n={n} d={degree} seed={seed}: not simple/symmetric"
        );
        assert!(
            adj.is_connected(),
            "n={n} d={degree} seed={seed}: disconnected"
        );
    }
}

#[test]
fn random_regular_construction_is_deterministic_in_the_graph_seed() {
    let a = Topology::random_regular(8, 42)
        .build_adjacency(2_000)
        .unwrap();
    let b = Topology::random_regular(8, 42)
        .build_adjacency(2_000)
        .unwrap();
    assert_eq!(a, b);
    let c = Topology::random_regular(8, 43)
        .build_adjacency(2_000)
        .unwrap();
    assert_ne!(a, c);
}

#[test]
fn ring_and_torus_adjacencies_are_simple_and_connected() {
    for n in [10usize, 600, 1_000] {
        let ring = Topology::ring(2).build_adjacency(n).unwrap().unwrap();
        assert_eq!(ring.degree(), 4);
        assert!(ring.is_simple_undirected());
        assert!(ring.is_connected());
    }
    // 10 = 2 × 5 has no rows, cols ≥ 3 factorisation; start the torus at 12.
    for n in [12usize, 600, 1_000] {
        let torus = Topology::Torus2D.build_adjacency(n).unwrap().unwrap();
        assert_eq!(torus.degree(), 4);
        assert!(torus.is_simple_undirected());
        assert!(torus.is_connected());
    }
}

#[test]
fn unrealisable_topologies_error_with_the_offending_parameter() {
    // Prime n has no rows×cols ≥ 3 factorisation.
    let err = Engine::try_from_states(
        vec![0u64; 101],
        EngineConfig::with_seed(1).topology(Topology::Torus2D),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        GossipError::InvalidParameter { name: "n", .. }
    ));
    // Odd degree × odd n has no regular graph.
    let err = Topology::random_regular(3, 1)
        .build_adjacency(101)
        .unwrap_err();
    assert!(matches!(
        err,
        GossipError::InvalidParameter { name: "degree", .. }
    ));
}

#[test]
fn push_rounds_on_a_ring_only_deliver_to_neighbours() {
    let n = 64usize;
    let config = EngineConfig::with_seed(9).topology(Topology::ring(2));
    let mut e = Engine::from_states(vec![Vec::<u64>::new(); n], config);
    for _ in 0..20 {
        e.push_round(
            |v, _| Some(v as u64),
            |_, st, sender| st.push(sender),
            |_, _, _| {},
        );
    }
    for (u, received) in e.states().iter().enumerate() {
        for &sender in received {
            let d = (sender as i64 - u as i64).rem_euclid(n as i64);
            assert!(
                d == 1 || d == 2 || d == n as i64 - 1 || d == n as i64 - 2,
                "node {u} received from non-neighbour {sender}"
            );
        }
    }
    // Every non-failed push was delivered somewhere.
    let total: usize = e.states().iter().map(Vec::len).sum();
    assert_eq!(total, 20 * n);
}

#[test]
fn torus_gossip_spreads_the_maximum_along_the_grid() {
    // 600 materialises as the most-square 24 × 25 torus, whose diameter is
    // ⌊24/2⌋ + ⌊25/2⌋ = 24 hops; information moves at most one hop per
    // push–pull round, so convergence must take ≥ 24 rounds — and with 4
    // neighbours per node it should still finish within a small multiple of
    // the diameter.
    let n = 600usize;
    let config = EngineConfig::with_seed(4).topology(Topology::Torus2D);
    let mut e = Engine::from_states((0..n as u64).collect(), config);
    let mut rounds = 0u64;
    while e.states().iter().any(|&v| v != (n - 1) as u64) {
        e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        rounds += 1;
        assert!(rounds < 1_000, "torus spread did not converge");
    }
    assert!(
        rounds >= 24,
        "spread faster than the torus diameter: {rounds}"
    );
}

#[test]
fn expander_gossip_stays_logarithmically_fast() {
    // The Becchetti–Clementi–Natale claim in miniature: push–pull rumor
    // spreading on a constant-degree random regular graph completes in
    // O(log n) rounds, like the complete graph and unlike ring/torus.
    let n = 4_096usize;
    let config = EngineConfig::with_seed(8).topology(Topology::random_regular(8, 7));
    let mut e = Engine::from_states((0..n as u64).collect(), config);
    let mut rounds = 0u64;
    while e.states().iter().any(|&v| v != (n - 1) as u64) {
        e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        rounds += 1;
        assert!(rounds < 200, "expander spread too slow");
    }
    assert!(rounds <= 40, "expected O(log n) spreading, took {rounds}");
}

#[test]
fn sampling_rounds_draw_from_neighbourhoods_only() {
    let n = 48usize;
    let config = EngineConfig::with_seed(3).topology(Topology::ring(1));
    let mut e = Engine::from_states(vec![0u64; n], config);
    let mut sources = vec![0u32; n];
    for _ in 0..4 {
        e.pull_sources(None, |_| 64, &mut sources);
        for (v, &t) in sources.iter().enumerate() {
            let d = (t as i64 - v as i64).rem_euclid(n as i64);
            assert!(d == 1 || d == n as i64 - 1, "node {v} sampled {t}");
        }
    }
}
