//! Per-component participant state and the pipelined aggregation helpers.
//!
//! A node participates in a component `Sᵢ` of `G[S]` when it is a member
//! or a neighbor of one (`Γ(Sᵢ) ∪ Sᵢ` — the paper's "we effectively add to
//! each spanning tree all adjacent nodes", §4). For every component it
//! participates in, a node holds one [`CompView`]: the roster, its place
//! in the spanning tree, its `K`/`T` membership bits, and the streaming
//! state of the pipelined convergecasts (steps 4b–4e and Decision 1–2).
//!
//! Two small machines implement the paper's pipelining:
//!
//! * [`VectorConverge`] — coordinate-wise summation of per-subset counts
//!   flowing *up* the tree, one `(subset, partial-count)` message per
//!   round per edge, emitted in increasing subset order (step 4c).
//! * [`FanoutStream`] — an ordered stream of `(subset, value)` pairs
//!   flowing *down* or *out*, advanced one message per destination per
//!   round (steps 4d–4e); a stream to every port hands each item over
//!   once, as one broadcast.

use std::collections::BTreeSet;

use congest::Port;

use crate::params::k_threshold;

/// Upper bound on subset-index width; mirrors
/// `NearCliqueParams::COMPONENT_SIZE_CEILING`.
pub(crate) const MAX_K: u32 = 24;

/// Coordinate-wise, in-order summation of contributor streams.
///
/// Each contributor (a tree child or an attached neighbor) sends counts
/// for subsets `1, 2, …, 2^k − 1` in increasing order, one per round.
/// A coordinate is *final* once every contributor has delivered it; final
/// coordinates are released in order, one per [`next_ready`] call —
/// matching the one-message-per-round uplink budget.
///
/// [`next_ready`]: VectorConverge::next_ready
#[derive(Clone, Debug)]
pub struct VectorConverge {
    n_coords: usize,
    sums: Vec<u32>,
    /// `(port, next coordinate expected)` per contributor, sorted by port.
    cursors: Vec<(Port, usize)>,
    /// Next coordinate to release.
    up_next: usize,
}

impl VectorConverge {
    /// Creates the accumulator over coordinates `1..n_coords`, seeded with
    /// this node's own contribution (`own[x]`, where index 0 is unused).
    ///
    /// # Panics
    ///
    /// Panics if `own.len() != n_coords`.
    #[must_use]
    pub fn new(n_coords: usize, own: &[bool]) -> Self {
        assert_eq!(own.len(), n_coords, "own-bit vector length mismatch");
        Self {
            n_coords,
            sums: own.iter().map(|&b| u32::from(b)).collect(),
            cursors: Vec::new(),
            up_next: 1,
        }
    }

    /// Registers a contributor stream arriving from `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already registered or counting started.
    pub fn add_contributor(&mut self, port: Port) {
        assert_eq!(self.up_next, 1, "contributors must be added before counting starts");
        match self.cursors.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(_) => panic!("port {port} registered twice"),
            Err(i) => self.cursors.insert(i, (port, 1)),
        }
    }

    /// Number of registered contributors.
    #[must_use]
    pub fn contributor_count(&self) -> usize {
        self.cursors.len()
    }

    /// Accepts one `(x, count)` message from `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a contributor or the stream is out of order
    /// (both indicate a protocol bug, not bad input).
    pub fn receive(&mut self, port: Port, x: usize, count: u32) {
        let i = self
            .cursors
            .binary_search_by_key(&port, |&(p, _)| p)
            .unwrap_or_else(|_| panic!("count from non-contributor port {port}"));
        let cursor = &mut self.cursors[i];
        assert_eq!(cursor.1, x, "out-of-order stream from port {port}: got {x}");
        assert!(x < self.n_coords, "coordinate {x} out of range");
        self.sums[x] += count;
        cursor.1 += 1;
    }

    fn finalized_up_to(&self) -> usize {
        self.cursors.iter().map(|&(_, next)| next).min().unwrap_or(self.n_coords)
    }

    /// `true` if at least one finalized coordinate awaits release.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.up_next < self.finalized_up_to()
    }

    /// Releases the next finalized coordinate `(x, total)`, if any.
    pub fn next_ready(&mut self) -> Option<(usize, u32)> {
        if self.ready() {
            let x = self.up_next;
            self.up_next += 1;
            Some((x, self.sums[x]))
        } else {
            None
        }
    }

    /// `true` once every coordinate has been released.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.up_next >= self.n_coords
    }

    /// The accumulated totals (index 0 unused). Meaningful at the root
    /// after completion.
    #[must_use]
    pub fn totals(&self) -> &[u32] {
        &self.sums
    }
}

/// An append-only stream of `(x, value)` pairs fanned out to a fixed set
/// of destinations, advanced at most one message per destination per
/// [`pump`](FanoutStream::pump) call (= per round).
///
/// Every destination starts at the first item and each pump advances
/// them all together, so one cursor serves the whole set.
#[derive(Clone, Debug)]
pub struct FanoutStream {
    items: Vec<(u32, u32)>,
    dests: Dests,
    /// Next item to send, shared by every destination.
    next: usize,
}

/// Where [`FanoutStream::pump`] sends one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fanout {
    /// One listed port.
    Port(Port),
    /// Every port at once: send it with `Context::broadcast`.
    All,
}

/// Where a [`FanoutStream`] sends.
#[derive(Clone, Debug)]
enum Dests {
    /// The listed ports, in order.
    Ports(Vec<Port>),
    /// Every port `0..degree`.
    All(usize),
}

impl FanoutStream {
    /// Creates a stream toward `ports`.
    #[must_use]
    pub fn new(ports: &[Port]) -> Self {
        Self { items: Vec::new(), dests: Dests::Ports(ports.to_vec()), next: 0 }
    }

    /// Creates a stream toward every port `0..degree`, in port order.
    #[must_use]
    pub fn every_port(degree: usize) -> Self {
        Self { items: Vec::new(), dests: Dests::All(degree), next: 0 }
    }

    /// Appends an item; it will be sent to every destination in order.
    pub fn push(&mut self, x: u32, value: u32) {
        self.items.push((x, value));
    }

    /// Items appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if nothing has been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sends the next unsent item to every destination as
    /// `send(to, x, value)` — this round's sends: once per listed port,
    /// in list order, or once with [`Fanout::All`] for a stream to every
    /// port.
    pub fn pump(&mut self, mut send: impl FnMut(Fanout, u32, u32)) {
        if self.drained() {
            return;
        }
        let (x, v) = self.items[self.next];
        self.next += 1;
        match &self.dests {
            Dests::Ports(ports) => ports.iter().for_each(|&port| send(Fanout::Port(port), x, v)),
            Dests::All(_) => send(Fanout::All, x, v),
        }
    }

    /// `true` when every destination has received every appended item
    /// (always, for a stream without destinations).
    #[must_use]
    pub fn drained(&self) -> bool {
        let no_dests = match &self.dests {
            Dests::Ports(ports) => ports.is_empty(),
            Dests::All(degree) => *degree == 0,
        };
        no_dests || self.next >= self.items.len()
    }
}

/// The candidate a component settled on (Decision step 2 state).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateInfo {
    /// The chosen subset index `X(Sᵢ)`.
    pub x: u32,
    /// `|T_ε(X(Sᵢ))|`.
    pub size: u32,
    /// Whether this node belongs to `T_ε(X(Sᵢ))`.
    pub my_t_bit: bool,
}

/// One node's view of one component of `G[S]` it participates in.
#[derive(Clone, Debug)]
pub struct CompView {
    /// Boosting version this component belongs to.
    pub version: u8,
    /// Component root: the minimum member ID.
    pub root: u64,
    /// Declared component size.
    pub total: u32,
    /// Member IDs (complete and sorted once `ids.len() == total`).
    pub ids: BTreeSet<u64>,
    /// Whether this node is a member of the component.
    pub is_member: bool,
    /// Port toward the root (`None` for the root itself).
    pub parent_port: Option<Port>,
    /// Component exceeds the configured cap; all heavy stages skipped.
    pub oversized: bool,

    /// Sorted roster, fixed at the exploration stage.
    pub members: Vec<u64>,
    /// Bitmask over `members` of this node's neighbors.
    pub my_adj_mask: u32,
    /// This node's own bit in `members` (0 when not a member).
    pub my_member_bit: u32,
    /// `K_{2ε²}(X)` membership per subset (index 0 unused).
    pub k_bits: Vec<bool>,
    /// `|K_{2ε²}(X)|` per subset, learned from the root (step 4d).
    pub k_sizes: Vec<u32>,
    /// Neighbors announced in `K_{2ε²}(X)` per subset (step 4e tally).
    pub kmember_counts: Vec<u32>,
    /// `T_ε(X)` membership per subset (step 4f).
    pub t_bits: Vec<bool>,

    /// Contributor ports (tree children + attached neighbors).
    pub contributors: Vec<Port>,
    /// Contributor set finalized (attach round passed).
    pub locked: bool,
    /// Up-flowing `K` count aggregation (members only).
    pub k_converge: Option<VectorConverge>,
    /// Up-flowing `T` count aggregation (members only).
    pub t_converge: Option<VectorConverge>,
    /// Non-member up-stream cursor: next subset index to send (K stage).
    pub k_up_next: usize,
    /// Non-member up-stream cursor (T stage).
    pub t_up_next: usize,
    /// Down-flowing `|K(X)|` stream to contributors (members only).
    pub down: Option<FanoutStream>,
    /// `KMember` announcements to *all* neighbors.
    pub member_stream: Option<FanoutStream>,

    /// Decision-stage candidate.
    pub candidate: Option<CandidateInfo>,
    /// Votes received so far (members only).
    pub votes_received: usize,
    /// OR-aggregated abort flag, including this node's own vote.
    pub abort_acc: bool,
    /// This node's vote has been folded in / sent.
    pub vote_done: bool,
}

impl CompView {
    /// Creates a fresh view. `total == 0` means "unknown yet" (non-member
    /// views learn it from the first `CompShare`).
    #[must_use]
    pub fn new(version: u8, root: u64, is_member: bool) -> Self {
        Self {
            version,
            root,
            total: 0,
            ids: BTreeSet::new(),
            is_member,
            parent_port: None,
            oversized: false,
            members: Vec::new(),
            my_adj_mask: 0,
            my_member_bit: 0,
            k_bits: Vec::new(),
            k_sizes: Vec::new(),
            kmember_counts: Vec::new(),
            t_bits: Vec::new(),
            contributors: Vec::new(),
            locked: false,
            k_converge: None,
            t_converge: None,
            k_up_next: 1,
            t_up_next: 1,
            down: None,
            member_stream: None,
            candidate: None,
            votes_received: 0,
            abort_acc: false,
            vote_done: false,
        }
    }

    /// Component size `k` (valid once the roster is fixed).
    #[must_use]
    pub fn k(&self) -> usize {
        self.members.len()
    }

    /// Number of subset coordinates (`2^k`; index 0 unused).
    #[must_use]
    pub fn n_coords(&self) -> usize {
        1usize << self.k()
    }

    /// Fixes the roster and computes this node's adjacency mask and `K`
    /// bits from its neighbor IDs, in any order (one per port), each
    /// looked up in the sorted roster.
    ///
    /// # Panics
    ///
    /// Panics if the roster is larger than `MAX_K` (callers must mark
    /// such components oversized instead) or if the member count differs
    /// from the declared total.
    pub fn fix_roster(&mut self, my_id: u64, neighbor_ids: &[u64], inner_eps: f64) {
        assert_eq!(self.ids.len(), self.total as usize, "roster incomplete at fix time");
        self.members = self.ids.iter().copied().collect();
        let k = self.members.len();
        assert!(k as u32 <= MAX_K, "roster of size {k} exceeds MAX_K; must be marked oversized");

        let bit = |id: &u64| self.members.binary_search(id).map_or(0, |i| 1 << i);
        self.my_adj_mask = neighbor_ids.iter().fold(0, |mask, id| mask | bit(id));
        self.my_member_bit = bit(&my_id);
        debug_assert_eq!(self.is_member, self.my_member_bit != 0);

        let n_coords = self.n_coords();
        self.k_bits = vec![false; n_coords];
        for x in 1..n_coords as u32 {
            let cnt = (self.my_adj_mask & x).count_ones() as usize;
            let in_x = self.my_member_bit & x != 0;
            let base = x.count_ones() as usize - usize::from(in_x);
            self.k_bits[x as usize] = cnt >= k_threshold(base, inner_eps);
        }
        self.k_sizes = vec![0; n_coords];
        self.kmember_counts = vec![0; n_coords];
    }

    /// Computes the `T_ε(X)` bits from the tallied `KMember`
    /// announcements (step 4f): `u ∈ T_ε(X)` iff `u ∈ K_{2ε²}(X)` and
    /// `|Γ(u) ∩ K_{2ε²}(X)| ≥ (1 − ε)·|K_{2ε²}(X) \ {u}|`.
    pub fn compute_t_bits(&mut self, epsilon: f64) {
        let n_coords = self.n_coords();
        self.t_bits = vec![false; n_coords];
        for x in 1..n_coords {
            if !self.k_bits[x] {
                continue;
            }
            let k_size = self.k_sizes[x] as usize;
            let base = k_size.saturating_sub(1); // we are in K(X) here
            self.t_bits[x] = self.kmember_counts[x] as usize >= k_threshold(base, epsilon);
        }
    }

    /// Frees the `Θ(2^k)` vectors once the candidate is recorded.
    pub fn release_heavy(&mut self) {
        self.k_bits = Vec::new();
        self.k_sizes = Vec::new();
        self.kmember_counts = Vec::new();
        self.t_bits = Vec::new();
        self.k_converge = None;
        self.t_converge = None;
        self.down = None;
        self.member_stream = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converge_without_contributors_releases_everything() {
        let own = vec![false, true, false, true];
        let mut c = VectorConverge::new(4, &own);
        assert!(c.ready());
        assert_eq!(c.next_ready(), Some((1, 1)));
        assert_eq!(c.next_ready(), Some((2, 0)));
        assert_eq!(c.next_ready(), Some((3, 1)));
        assert_eq!(c.next_ready(), None);
        assert!(c.complete());
    }

    #[test]
    fn converge_waits_for_all_contributors() {
        let own = vec![false, true, true, false];
        let mut c = VectorConverge::new(4, &own);
        // Out of port order, as `enter_k_converge` registers them: an
        // adopted child first, then an attacher.
        c.add_contributor(2);
        c.add_contributor(0);
        assert!(!c.ready());
        c.receive(0, 1, 5);
        assert!(!c.ready(), "port 2 has not delivered coordinate 1");
        c.receive(2, 1, 2);
        assert_eq!(c.next_ready(), Some((1, 8)));
        assert_eq!(c.next_ready(), None);
        c.receive(0, 2, 1);
        c.receive(0, 3, 1);
        assert!(!c.ready());
        c.receive(2, 2, 0);
        assert_eq!(c.next_ready(), Some((2, 2)));
        c.receive(2, 3, 4);
        assert_eq!(c.next_ready(), Some((3, 5)));
        assert!(c.complete());
        assert_eq!(c.totals(), &[0, 8, 2, 5]);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn converge_rejects_out_of_order() {
        let mut c = VectorConverge::new(4, &[false; 4]);
        c.add_contributor(1);
        c.receive(1, 2, 0);
    }

    #[test]
    #[should_panic(expected = "non-contributor")]
    fn converge_rejects_unknown_port() {
        let mut c = VectorConverge::new(4, &[false; 4]);
        c.receive(3, 1, 0);
    }

    fn pumped(f: &mut FanoutStream) -> Vec<(Fanout, u32, u32)> {
        let mut sent = Vec::new();
        f.pump(|port, x, value| sent.push((port, x, value)));
        sent
    }

    #[test]
    fn fanout_pumps_one_per_destination() {
        let mut f = FanoutStream::new(&[0, 3]);
        assert!(f.drained() && f.is_empty());
        f.push(1, 10);
        f.push(2, 20);
        assert_eq!(f.len(), 2);
        let to = Fanout::Port;
        assert_eq!(pumped(&mut f), vec![(to(0), 1, 10), (to(3), 1, 10)]);
        assert_eq!(pumped(&mut f), vec![(to(0), 2, 20), (to(3), 2, 20)]);
        assert!(f.drained());
        assert!(pumped(&mut f).is_empty());
        // Late append restarts pumping.
        f.push(3, 30);
        assert!(!f.drained());
        assert_eq!(pumped(&mut f), vec![(to(0), 3, 30), (to(3), 3, 30)]);

        // Every port of a degree-3 node: one broadcast per item.
        let mut all = FanoutStream::every_port(3);
        all.push(5, 50);
        assert!(!all.drained());
        assert_eq!(pumped(&mut all), vec![(Fanout::All, 5, 50)]);
        assert!(all.drained() && pumped(&mut all).is_empty());

        // No destinations: nothing to send, so never behind.
        for mut none in [FanoutStream::new(&[]), FanoutStream::every_port(0)] {
            none.push(1, 10);
            assert!(none.drained());
            assert!(pumped(&mut none).is_empty());
        }
    }

    fn view_with_roster(members: &[u64], me: u64, neighbors: &[u64]) -> CompView {
        let mut v = CompView::new(0, members[0], members.contains(&me));
        v.total = members.len() as u32;
        v.ids = members.iter().copied().collect();
        v.fix_roster(me, neighbors, 0.08);
        v
    }

    #[test]
    fn fix_roster_masks() {
        // Members 10 < 20 < 30; I am 20, adjacent to 10 and 30. Under
        // hashed IDs port order is not ID order.
        let v = view_with_roster(&[10, 20, 30], 20, &[99, 30, 10]);
        assert_eq!(v.k(), 3);
        assert_eq!(v.my_member_bit, 0b010);
        assert_eq!(v.my_adj_mask, 0b101);
        // X = {10, 30} (mask 0b101): I see both, |X \ {me}| = 2,
        // threshold(2, 0.08) = 2 -> in K.
        assert!(v.k_bits[0b101]);
        // X = {10, 20} (mask 0b011): I'm in X, see 10 only: 1 >= threshold(1) = 1.
        assert!(v.k_bits[0b011]);
    }

    #[test]
    fn fix_roster_nonmember() {
        // I am 99, adjacent to members 10, 30 but not 20.
        let v = view_with_roster(&[10, 20, 30], 99, &[30, 10]);
        assert_eq!(v.my_member_bit, 0);
        assert_eq!(v.my_adj_mask, 0b101);
        // X = all three: 2 of 3 neighbors; threshold(3, .08) = 3 -> out.
        assert!(!v.k_bits[0b111]);
        // X = {10, 30}: 2 of 2 -> in.
        assert!(v.k_bits[0b101]);
    }

    #[test]
    fn compute_t_bits_uses_counts_and_sizes() {
        let mut v = view_with_roster(&[10, 20], 20, &[10]);
        // Pretend the K stage finished: X = {10} (mask 0b01).
        v.k_sizes[0b01] = 4;
        v.kmember_counts[0b01] = 3; // three of my neighbors are in K
        v.compute_t_bits(0.25);
        // I'm in K (k_bits[0b01] true: adjacent to 10). |K \ {me}| = 3,
        // threshold(3, 0.25) = ceil(2.25) = 3 -> count 3 passes.
        assert!(v.k_bits[0b01]);
        assert!(v.t_bits[0b01]);
        // With fewer announcements it fails.
        v.kmember_counts[0b01] = 2;
        v.compute_t_bits(0.25);
        assert!(!v.t_bits[0b01]);
    }

    #[test]
    fn release_heavy_clears_vectors() {
        let mut v = view_with_roster(&[10, 20, 30], 20, &[10, 30]);
        v.release_heavy();
        assert!(v.k_bits.is_empty() && v.k_sizes.is_empty());
        assert!(v.k_converge.is_none());
    }

    #[test]
    #[should_panic(expected = "roster incomplete")]
    fn fix_roster_requires_complete_roster() {
        let mut v = CompView::new(0, 10, false);
        v.total = 3;
        v.ids.insert(10);
        v.fix_roster(99, &[], 0.08);
    }
}
