//! Centralized executable specification of `DistNearClique`.
//!
//! Given the *same* graph, ID assignment and [`SamplePlan`] as a
//! distributed run, [`reference_run`] computes — with plain centralized
//! set arithmetic over [`graphs::density`]-style kernels — exactly the
//! components, candidate subsets `X(Sᵢ)`, candidate sets `T_ε(X(Sᵢ))`,
//! votes and final labels that the distributed protocol must produce.
//! Property tests assert `distributed ≡ reference` on random graphs and
//! seeds; the experiments use the reference to analyze outcomes without
//! paying simulation cost where message/round metrics are not needed.

use std::collections::BTreeMap;

use graphs::{FixedBitSet, Graph};

use crate::params::{k_threshold, NearCliqueParams};
use crate::sample::SamplePlan;

/// One component's candidate as the reference computes it.
#[derive(Clone, Debug)]
pub struct RefCandidate {
    /// Boosting version this candidate came from.
    pub version: u32,
    /// Component root (minimum member ID).
    pub root: u64,
    /// Component member node *indices*.
    pub component: Vec<usize>,
    /// The argmax subset as node indices.
    pub x_star: Vec<usize>,
    /// `T_ε(X(Sᵢ))` as a node set.
    pub t_set: FixedBitSet,
    /// `|T_ε(X(Sᵢ))|`.
    pub t_size: u32,
    /// Participants `Γ(Sᵢ) ∪ Sᵢ` (the voters).
    pub participants: FixedBitSet,
    /// Whether the decision stage let this candidate survive.
    pub survived: bool,
}

/// Full result of a reference run.
#[derive(Clone, Debug)]
pub struct ReferenceResult {
    /// Per-node labels (component root IDs), `None` = ⊥.
    pub labels: Vec<Option<u64>>,
    /// Every candidate generated, across versions, in deterministic order.
    pub candidates: Vec<RefCandidate>,
    /// Whether any component exceeded the size cap and was skipped.
    pub oversized_skipped: bool,
}

/// Runs the centralized specification. `ids[i]` is node `i`'s identifier
/// (use the endpoint IDs a [`congest::Driver`] reports —
/// `driver.endpoint(i).id` — for cross-validation).
///
/// # Panics
///
/// Panics if `ids.len() != g.node_count()`, the plan's node count or
/// version count disagrees with `g`/`params`, or IDs are not distinct.
#[must_use]
pub fn reference_run(
    g: &Graph,
    ids: &[u64],
    params: &NearCliqueParams,
    plan: &SamplePlan,
) -> ReferenceResult {
    let n = g.node_count();
    assert_eq!(ids.len(), n, "one ID per node required");
    assert_eq!(plan.node_count(), n, "plan drawn for a different node count");
    assert_eq!(plan.versions(), params.lambda, "plan drawn for a different lambda");
    {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "node IDs must be distinct");
    }

    let inner_eps = params.inner_epsilon();
    let mut candidates: Vec<RefCandidate> = Vec::new();
    let mut oversized_skipped = false;

    for version in 0..params.lambda {
        let s = plan.sample(version);
        for comp in g.components_within(&s) {
            if comp.len() > params.max_component_size as usize {
                oversized_skipped = true;
                continue;
            }
            candidates.push(component_candidate(g, ids, params, version, &comp, inner_eps));
        }
    }

    run_decision(g, ids, params, &mut candidates);

    let mut labels: Vec<Option<(u32, u64)>> = vec![None; n];
    for cand in &candidates {
        if !cand.survived {
            continue;
        }
        for v in cand.t_set.iter() {
            let incoming = (cand.t_size, cand.root);
            if labels[v].is_none_or(|cur| incoming > cur) {
                labels[v] = Some(incoming);
            }
        }
    }

    ReferenceResult {
        labels: labels.into_iter().map(|l| l.map(|(_, root)| root)).collect(),
        candidates,
        oversized_skipped,
    }
}

/// `K_ε`-style membership with the `X \ {v}` convention, matching both
/// `graphs::density::k_eps` and the distributed threshold arithmetic.
fn k_members(g: &Graph, x_set: &FixedBitSet, eps: f64) -> FixedBitSet {
    let n = g.node_count();
    let size = x_set.len();
    let mut out = FixedBitSet::new(n);
    for v in 0..n {
        let base = size - usize::from(x_set.contains(v));
        if g.degree_into(v, x_set) >= k_threshold(base, eps) {
            out.insert(v);
        }
    }
    out
}

fn component_candidate(
    g: &Graph,
    ids: &[u64],
    params: &NearCliqueParams,
    version: u32,
    comp: &[usize],
    inner_eps: f64,
) -> RefCandidate {
    let n = g.node_count();
    // Roster sorted by ID — the subset-index convention of the protocol.
    let mut roster: Vec<usize> = comp.to_vec();
    roster.sort_unstable_by_key(|&v| ids[v]);
    let root = ids[roster[0]];
    let k = roster.len();

    // Participants: Γ(Sᵢ) ∪ Sᵢ.
    let mut participants = FixedBitSet::new(n);
    for &m in comp {
        participants.insert(m);
        for &u in g.neighbors(m) {
            participants.insert(u);
        }
    }

    let mut best: Option<(u32, usize, FixedBitSet)> = None; // (t_size, x, t_set)
    for x in 1u32..(1u32 << k) {
        let mut x_set = FixedBitSet::new(n);
        for (i, &m) in roster.iter().enumerate() {
            if x & (1 << i) != 0 {
                x_set.insert(m);
            }
        }
        let k_set = k_members(g, &x_set, inner_eps);
        let k_size = k_set.len();
        // T_ε(X) = K_ε(K_{2ε²}(X)) ∩ K_{2ε²}(X); members of K are their own
        // non-neighbors, hence the size-1 base.
        let mut t_set = FixedBitSet::new(n);
        for v in k_set.iter() {
            if g.degree_into(v, &k_set) >= k_threshold(k_size - 1, params.epsilon) {
                t_set.insert(v);
            }
        }
        let t_size = t_set.len() as u32;
        // argmax with ties toward the smallest subset index (protocol rule).
        let better = match &best {
            None => true,
            Some((bt, _, _)) => t_size > *bt,
        };
        if better {
            best = Some((t_size, x as usize, t_set));
        }
    }
    let (t_size, x_star_mask, t_set) = best.expect("components are non-empty");
    let x_star: Vec<usize> = roster
        .iter()
        .enumerate()
        .filter(|(i, _)| x_star_mask & (1 << i) != 0)
        .map(|(_, &m)| m)
        .collect();

    RefCandidate {
        version,
        root,
        component: {
            let mut c = comp.to_vec();
            c.sort_unstable();
            c
        },
        x_star,
        t_set,
        t_size,
        participants,
        survived: false,
    }
}

/// Decision stage: every participant votes for its best candidate
/// (largest `|T|`, then largest root ID, then largest version); a
/// candidate survives iff no participant prefers another candidate and it
/// meets the minimum-size filter.
fn run_decision(
    g: &Graph,
    _ids: &[u64],
    params: &NearCliqueParams,
    candidates: &mut [RefCandidate],
) {
    let n = g.node_count();
    let min_size = params.min_candidate_size.unwrap_or(1);
    // best[v] = key of v's preferred candidate.
    let mut best: Vec<Option<(u32, u64, u32)>> = vec![None; n];
    for cand in candidates.iter() {
        let key = (cand.t_size, cand.root, cand.version);
        for v in cand.participants.iter() {
            if best[v].is_none_or(|cur| key > cur) {
                best[v] = Some(key);
            }
        }
    }
    let mut aborted: BTreeMap<(u32, u64, u32), bool> = BTreeMap::new();
    for cand in candidates.iter() {
        let key = (cand.t_size, cand.root, cand.version);
        let any_defector = cand.participants.iter().any(|v| best[v] != Some(key));
        aborted.insert(key, any_defector);
    }
    for cand in candidates.iter_mut() {
        let key = (cand.t_size, cand.root, cand.version);
        cand.survived = !aborted[&key] && cand.t_size >= min_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eps: f64, p: f64) -> NearCliqueParams {
        NearCliqueParams::new(eps, p).unwrap()
    }

    fn seq_ids(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    #[test]
    fn clique_reference_finds_whole_clique() {
        let g = Graph::complete(20);
        let prm = params(0.25, 0.2);
        let plan = SamplePlan::draw(20, 1, prm.p, 3);
        let ids = seq_ids(20);
        let res = reference_run(&g, &ids, &prm, &plan);
        if plan.sample(0).is_empty() {
            assert!(res.candidates.is_empty());
        } else {
            // In a clique, G[S] is connected: exactly one candidate, whose
            // T is the whole graph.
            assert_eq!(res.candidates.len(), 1);
            let cand = &res.candidates[0];
            assert_eq!(cand.t_size, 20);
            assert!(cand.survived);
            assert!(res.labels.iter().all(|l| l.is_some()));
        }
    }

    #[test]
    fn empty_graph_reference_small_candidates_filtered() {
        let g = Graph::empty(15);
        let prm = params(0.2, 0.3).with_min_candidate_size(2);
        let plan = SamplePlan::draw(15, 1, prm.p, 4);
        let res = reference_run(&g, &seq_ids(15), &prm, &plan);
        assert!(res.labels.iter().all(|l| l.is_none()));
        for c in &res.candidates {
            assert!(!c.survived);
            assert_eq!(c.t_size, 1, "singleton components give singleton T");
        }
    }

    #[test]
    fn oversized_components_are_skipped() {
        let g = Graph::complete(12);
        let prm = params(0.25, 0.9).with_max_component_size(3);
        let plan = SamplePlan::draw(12, 1, prm.p, 5);
        let res = reference_run(&g, &seq_ids(12), &prm, &plan);
        if plan.sample(0).len() > 3 {
            assert!(res.oversized_skipped);
            assert!(res.candidates.is_empty());
        }
    }

    #[test]
    fn decision_kills_the_smaller_of_two_adjacent_candidates() {
        // A 10-clique and a 6-clique sharing a connecting node: the shared
        // node is a participant of both and votes for the bigger one.
        let mut b = graphs::GraphBuilder::new(16);
        b.add_clique(&(0..10).collect::<Vec<_>>());
        b.add_clique(&(10..16).collect::<Vec<_>>());
        b.add_edge(0, 10);
        let g = b.build();
        let prm = params(0.25, 0.5);
        let plan = SamplePlan::draw(16, 1, prm.p, 11);
        let res = reference_run(&g, &seq_ids(16), &prm, &plan);
        let survivors: Vec<_> = res.candidates.iter().filter(|c| c.survived).collect();
        // If both cliques produced candidates, the shared border node can
        // kill at most one of them; the largest always survives.
        if res.candidates.len() >= 2 {
            let max_size = res.candidates.iter().map(|c| c.t_size).max().unwrap();
            assert!(survivors.iter().any(|c| c.t_size == max_size));
        }
    }

    #[test]
    fn labels_only_from_surviving_candidates() {
        let g = Graph::complete(18);
        let prm = params(0.25, 0.3);
        let plan = SamplePlan::draw(18, 1, prm.p, 7);
        let res = reference_run(&g, &seq_ids(18), &prm, &plan);
        for (v, label) in res.labels.iter().enumerate() {
            if let Some(root) = label {
                let covering = res
                    .candidates
                    .iter()
                    .find(|c| c.survived && c.root == *root && c.t_set.contains(v));
                assert!(covering.is_some(), "label of node {v} has no surviving candidate");
            }
        }
    }

    #[test]
    #[should_panic(expected = "IDs must be distinct")]
    fn duplicate_ids_panic() {
        let g = Graph::empty(3);
        let prm = params(0.2, 0.5);
        let plan = SamplePlan::draw(3, 1, prm.p, 0);
        let _ = reference_run(&g, &[1, 1, 2], &prm, &plan);
    }
}
