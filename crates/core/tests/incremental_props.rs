//! Property tests of the incremental order maintainer under arbitrary
//! interleavings of edge insertions and deletions: after any script of
//! updates, the maintained order must still be a valid permutation and
//! the maintainer's materialized graph must equal a from-scratch
//! [`GraphBuilder`] build of the surviving edge set — whether updates
//! arrive one per batch or many per batch.

use gograph_core::{metric, IncrementalGoGraph};
use gograph_graph::{EdgeUpdate, GraphBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One (kind, u, v) op: kind 0/1 inserts `u -> v`, kind 2 removes it.
type Op = (u32, u32, u32);

/// A random update script: a vertex count and a sequence of ops.
fn arb_script() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0u32..3, 0u32..n as u32, 0u32..n as u32), 0..100)
            .prop_map(move |ops| (n, ops))
    })
}

/// A random batched script: a vertex count and a sequence of batches of
/// ops.
fn arb_batches() -> impl Strategy<Value = (usize, Vec<Vec<Op>>)> {
    (2usize..24).prop_flat_map(|n| {
        let op = (0u32..3, 0u32..n as u32, 0u32..n as u32);
        proptest::collection::vec(proptest::collection::vec(op, 0..40), 0..8)
            .prop_map(move |batches| (n, batches))
    })
}

fn to_update(kind: u32, u: u32, v: u32) -> EdgeUpdate {
    if kind == 2 {
        EdgeUpdate::remove(u, v)
    } else {
        EdgeUpdate::insert(u, v)
    }
}

/// Folds one op into the mirror edge set, with the maintainer's
/// skip rules.
fn mirror_op(mirror: &mut BTreeSet<(u32, u32)>, kind: u32, u: u32, v: u32) {
    if kind == 2 {
        mirror.remove(&(u, v));
    } else if u != v {
        mirror.insert((u, v));
    }
}

/// Replays a script through [`IncrementalGoGraph::apply_updates`] while
/// mirroring the surviving edge set (self-loops and duplicates are
/// skipped exactly like the maintainer skips them).
fn replay(n: usize, ops: &[Op]) -> (IncrementalGoGraph, BTreeSet<(u32, u32)>) {
    let mut inc = IncrementalGoGraph::new(n);
    let mut mirror: BTreeSet<(u32, u32)> = BTreeSet::new();
    for &(kind, u, v) in ops {
        inc.apply_updates(&[to_update(kind, u, v)]);
        mirror_op(&mut mirror, kind, u, v);
    }
    (inc, mirror)
}

/// A from-scratch build of `mirror` over `n` vertices.
fn build(n: usize, mirror: &BTreeSet<(u32, u32)>) -> gograph_graph::CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, mirror.len());
    b.reserve_vertices(n);
    for &(u, v) in mirror {
        b.add_edge(u, v, 1.0);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_interleaving_keeps_order_valid_and_graph_in_sync(
        (n, ops) in arb_script()
    ) {
        let (inc, mirror) = replay(n, &ops);

        // The maintained order is a valid permutation of all vertices.
        let order = inc.current_order();
        prop_assert!(order.validate().is_ok(), "order invalid: {:?}", order.validate());
        prop_assert_eq!(order.len(), n);

        // The maintainer's adjacency equals a from-scratch build of the
        // surviving edge set.
        prop_assert_eq!(inc.num_edges(), mirror.len());
        prop_assert_eq!(inc.to_graph(), build(n, &mirror));

        // The drift signal agrees with the metric on the materialized
        // graph and order.
        let g = inc.to_graph();
        let expected = if g.num_edges() == 0 {
            1.0
        } else {
            metric(&g, &order) as f64 / g.num_edges() as f64
        };
        prop_assert!(
            (inc.positive_fraction() - expected).abs() < 1e-12,
            "positive_fraction {} vs metric fraction {expected}",
            inc.positive_fraction()
        );
    }

    #[test]
    fn insert_only_scripts_keep_the_half_positive_bound(
        (n, ops) in arb_script()
    ) {
        // Theorem 2's M >= |E|/2 guarantee is proven for insertion-style
        // construction; filter the script down to its insertions.
        let inserts: Vec<Op> =
            ops.into_iter().filter(|&(k, _, _)| k != 2).collect();
        let (inc, mirror) = replay(n, &inserts);
        let g = inc.to_graph();
        let m = metric(&g, &inc.current_order());
        prop_assert!(
            2 * m >= mirror.len(),
            "insert-only order violates the |E|/2 bound: {m} of {}",
            mirror.len()
        );
    }

    #[test]
    fn batched_updates_keep_graph_in_sync_and_never_lower_the_metric(
        (n, batches) in arb_batches()
    ) {
        // Multi-update batches fold every edge first and reposition each
        // touched vertex once against the post-batch graph; that must
        // keep the adjacency exact and, since each reposition is
        // monotone, never score the post-batch graph below the order the
        // batch started from.
        let mut inc = IncrementalGoGraph::new(n);
        let mut mirror: BTreeSet<(u32, u32)> = BTreeSet::new();
        for batch in &batches {
            let before = inc.current_order();
            let updates: Vec<EdgeUpdate> =
                batch.iter().map(|&(k, u, v)| to_update(k, u, v)).collect();
            inc.apply_updates(&updates);
            for &(kind, u, v) in batch {
                mirror_op(&mut mirror, kind, u, v);
            }

            prop_assert_eq!(inc.num_edges(), mirror.len());
            let g = build(n, &mirror);
            prop_assert_eq!(&inc.to_graph(), &g);
            let after = inc.current_order();
            prop_assert!(after.validate().is_ok(), "order invalid: {:?}", after.validate());
            prop_assert_eq!(after.len(), n);
            let (m_after, m_before) = (metric(&g, &after), metric(&g, &before));
            prop_assert!(
                m_after >= m_before,
                "batch lowered M on the post-batch graph: {m_before} -> {m_after}"
            );
        }
    }

    #[test]
    fn removal_is_the_inverse_of_insertion(
        (n, ops) in arb_script()
    ) {
        // Inserting a script's edges then removing them all must land
        // back on an empty graph with a full-length valid order.
        let inserts: Vec<Op> =
            ops.into_iter().filter(|&(k, _, _)| k != 2).collect();
        let (mut inc, mirror) = replay(n, &inserts);
        for &(u, v) in &mirror {
            prop_assert!(inc.remove_edge(u, v));
        }
        prop_assert_eq!(inc.num_edges(), 0);
        prop_assert_eq!(inc.to_graph().num_edges(), 0);
        let order = inc.current_order();
        prop_assert!(order.validate().is_ok());
        prop_assert_eq!(order.len(), n);
    }
}
