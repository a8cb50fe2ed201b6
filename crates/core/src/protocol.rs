//! The `DistNearClique` protocol as a CONGEST state machine.
//!
//! Each node runs the phases below in lockstep; phase boundaries are the
//! quiescence barriers of [`congest`] (the simulator's stand-in for the
//! paper's §4.1 deterministic time-bound wrapper — see
//! `congest::Protocol::on_quiescent`). The phases map onto the paper's
//! pseudo-code as follows:
//!
//! | Phase | Paper step |
//! |---|---|
//! | `Announce` | Sampling stage (the flips themselves come from [`crate::SamplePlan`]) + "who of my neighbors is in S" |
//! | `Roster` | Exploration 1–2: spanning tree (min-ID flooding) + component membership gather |
//! | `CompShare` | Exploration 3: `Comp(v)` to all neighbors; parent pointers for `Γ(S)`; tree children learned |
//! | `KConverge` | Exploration 4a–4c: `K_{2ε²}(X)` bits, attach, pipelined convergecast of counts |
//! | `KBroadcast` | Exploration 4d–4e: `\|K_{2ε²}(X)\|` down, `KMember` announcements to all neighbors |
//! | `TConverge` | Exploration 4f + Decision 1: `T_ε(X)` bits, pipelined convergecast of counts |
//! | `CandidateDown` | Decision 2: the argmax `X(Sᵢ)` and `\|T_ε(X(Sᵢ))\|` to all participants |
//! | `Vote` | Decision 3: ack/abort votes, aggregated up the tree |
//! | `Winner` | Decision 4: surviving roots announce; members of `T_ε(X(Sᵢ))` label themselves |
//!
//! With boosting (λ > 1) the `Announce…CandidateDown` block repeats per
//! version and a single `Vote`/`Winner` pass judges all collected
//! candidates (§4.1).
//!
//! Two deliberate deviations from the letter of the pseudo-code, both
//! documented in DESIGN.md:
//!
//! * The spanning tree comes from min-ID flooding (first-arrival parents)
//!   rather than layered BFS; any rooted spanning tree supports the
//!   convergecasts, and flooding needs one phase instead of two.
//! * Subsets are enumerated as `X ⊆ Sᵢ`, `X ≠ ∅` (the empty subset's
//!   `T_ε(∅)` would require global knowledge and is never the sample of a
//!   near-clique).

use std::collections::BTreeSet;

use congest::{Context, Port, Protocol, Round};

use crate::component::{CandidateInfo, CompView, Fanout, FanoutStream, VectorConverge};
use crate::msg::Msg;
use crate::params::NearCliqueParams;

/// Execution phases; see the module docs for the mapping to the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Announce,
    Roster,
    CompShare,
    KConverge,
    KBroadcast,
    TConverge,
    CandidateDown,
    Vote,
    Winner,
    Done,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Announce => "announce",
            Phase::Roster => "roster",
            Phase::CompShare => "comp-share",
            Phase::KConverge => "k-converge",
            Phase::KBroadcast => "k-broadcast",
            Phase::TConverge => "t-converge",
            Phase::CandidateDown => "candidate-down",
            Phase::Vote => "vote",
            Phase::Winner => "winner",
            Phase::Done => "done",
        }
    }
}

/// What a node reports when the run ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeOutput {
    /// The node's identifier.
    pub id: u64,
    /// The near-clique label (a component root ID), or `None` (the paper's
    /// `⊥`).
    pub label: Option<u64>,
    /// Whether the node was sampled into `S`, per boosting version.
    pub in_sample: Vec<bool>,
    /// A component this node saw exceeded the size cap and was skipped.
    pub oversized_component: bool,
}

/// Per-node protocol state for `DistNearClique`.
///
/// Construct via [`DistNearClique::new`] with the node's per-version
/// sample flags (drawn by [`crate::SamplePlan`]), then hand to
/// `congest::Session::build_with`. Most users should call
/// [`crate::run_near_clique`] instead, which wires everything up.
#[derive(Debug)]
pub struct DistNearClique {
    params: NearCliqueParams,
    /// Sample membership per version (the sampling stage, precomputed).
    sample_flags: Vec<bool>,

    phase: Phase,
    version: u8,
    entry_round: Round,

    // --- per-version transient state (reset at Announce) ---
    /// Ports leading to neighbors in `S` for the current version.
    s_ports: Vec<Port>,
    /// Component member IDs in learn order (gossip payload queue).
    roster_ids: Vec<u64>,
    roster_set: BTreeSet<u64>,
    /// Next `roster_ids` entry to gossip, shared by every `s_ports`
    /// entry: all start together and advance together.
    roster_next: usize,
    /// Current minimum known ID (the root when gossip converges).
    current_min: u64,
    /// Port that first delivered the current minimum (tree parent).
    parent_port: Option<Port>,
    /// Tree children (senders of `Adopt`).
    adopt_children: Vec<Port>,
    /// `CompShare` roster being streamed to all neighbors (empty for a
    /// node without any).
    comp_share_list: Vec<u64>,
    /// Next `comp_share_list` entry to broadcast.
    comp_share_next: usize,

    // --- cross-version state ---
    /// Views of every component this node participates in, sorted by
    /// `(version, root)`. Views that send in the same round queue on
    /// each port in this order.
    views: Vec<CompView>,
    /// Adopted label with its score, for best-of conflict resolution.
    label: Option<(u32, u64)>,
    oversized_seen: bool,
    my_id: u64,
    /// Phase transitions as (version, phase name, entry round). Phases are
    /// globally synchronized, so any single node's trace describes the
    /// whole execution.
    trace: Vec<(u8, &'static str, Round)>,
}

impl DistNearClique {
    /// Creates the per-node state. `sample_flags[v]` says whether this
    /// node is in `S` for boosting version `v`.
    ///
    /// # Panics
    ///
    /// Panics if `sample_flags.len() != params.lambda`.
    #[must_use]
    pub fn new(params: NearCliqueParams, sample_flags: Vec<bool>) -> Self {
        assert_eq!(
            sample_flags.len(),
            params.lambda as usize,
            "one sample flag per boosting version required"
        );
        assert!(params.lambda <= u8::MAX as u32, "lambda must fit in u8");
        Self {
            params,
            sample_flags,
            phase: Phase::Announce,
            version: 0,
            entry_round: 0,
            s_ports: Vec::new(),
            roster_ids: Vec::new(),
            roster_set: BTreeSet::new(),
            roster_next: 0,
            current_min: u64::MAX,
            parent_port: None,
            adopt_children: Vec::new(),
            comp_share_list: Vec::new(),
            comp_share_next: 0,
            views: Vec::new(),
            label: None,
            oversized_seen: false,
            my_id: 0,
            trace: Vec::new(),
        }
    }

    /// The phase transitions this node observed, as
    /// `(version, phase name, entry round)` triples. Phase boundaries are
    /// global barriers, so every node reports the same spans; the runner
    /// exposes node 0's trace as the run's phase profile.
    #[must_use]
    pub fn phase_trace(&self) -> &[(u8, &'static str, Round)] {
        &self.trace
    }

    /// The canonical phase-entry order for `lambda` boosting versions —
    /// the names a complete run's [`DistNearClique::phase_trace`] (and
    /// any `congest::PhasePlan` scheduling it, e.g. one built by
    /// `PhasePlan::from_trace`) walks through: the seven-phase
    /// exploration block once per version, then the single
    /// `vote`/`winner` decision pass.
    #[must_use]
    pub fn phase_sequence(lambda: u32) -> Vec<&'static str> {
        let per_version = [
            Phase::Announce,
            Phase::Roster,
            Phase::CompShare,
            Phase::KConverge,
            Phase::KBroadcast,
            Phase::TConverge,
            Phase::CandidateDown,
        ];
        let mut names = Vec::with_capacity(per_version.len() * lambda.max(1) as usize + 2);
        for _ in 0..lambda.max(1) {
            names.extend(per_version.iter().map(|p| p.name()));
        }
        names.push(Phase::Vote.name());
        names.push(Phase::Winner.name());
        names
    }

    fn record_phase(&mut self, round: Round) {
        self.trace.push((self.version, self.phase.name(), round));
    }

    fn in_s(&self) -> bool {
        self.sample_flags[self.version as usize]
    }

    fn cap(&self) -> u32 {
        self.params.max_component_size
    }

    /// `true` once roster gossip has nothing left to send: for a node
    /// outside `S`, a member with no neighbor in `S` (it adds no
    /// rounds), or a member that sent every ID it learned.
    fn roster_idle(&self) -> bool {
        !self.in_s() || self.s_ports.is_empty() || self.roster_next >= self.roster_ids.len()
    }

    // ---------------- phase entries ----------------

    fn enter_announce(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::Announce;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        self.s_ports.clear();
        self.roster_ids.clear();
        self.roster_set.clear();
        self.roster_next = 0;
        self.current_min = u64::MAX;
        self.parent_port = None;
        self.adopt_children.clear();
        self.comp_share_list.clear();
        self.comp_share_next = 0;
        if self.in_s() {
            ctx.broadcast(Msg::InS { version: self.version });
        }
    }

    fn enter_roster(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::Roster;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        if self.in_s() {
            self.roster_ids.push(ctx.id());
            self.roster_set.insert(ctx.id());
            self.current_min = ctx.id();
            self.parent_port = None;
        }
    }

    fn enter_comp_share(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::CompShare;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        if !self.in_s() {
            return;
        }
        if let Some(parent) = self.parent_port {
            ctx.send(parent, Msg::Adopt { version: self.version });
        }
        let root = self.current_min;
        let mut view = CompView::new(self.version, root, true);
        view.total = self.roster_set.len() as u32;
        view.ids = self.roster_set.clone();
        view.parent_port = self.parent_port;
        view.oversized = view.total > self.cap();
        if view.oversized {
            self.oversized_seen = true;
        }
        match view_index(&self.views, self.version, root) {
            Ok(i) => self.views[i] = view,
            Err(i) => self.views.insert(i, view),
        }

        // A node without neighbors shares with no one: its empty list
        // keeps it idle, so it adds no rounds.
        if ctx.degree() > 0 {
            self.comp_share_list = self.roster_set.iter().copied().collect();
        }
    }

    fn enter_k_converge(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::KConverge;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        let inner_eps = self.params.inner_epsilon();
        let version = self.version;
        let my_id = self.my_id;
        let adopt_children = std::mem::take(&mut self.adopt_children);
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            view.fix_roster(my_id, ctx.neighbor_ids(), inner_eps);
            if view.is_member {
                let mut converge = VectorConverge::new(view.n_coords(), &view.k_bits);
                for &child in &adopt_children {
                    converge.add_contributor(child);
                }
                view.contributors = adopt_children.clone();
                view.k_converge = Some(converge);
                view.locked = false;
            } else {
                let parent = view.parent_port.expect("non-member views always have a parent");
                ctx.send(parent, Msg::Attach { version, root: view.root });
                view.k_up_next = 1;
            }
        }
    }

    fn enter_k_broadcast(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::KBroadcast;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        let version = self.version;
        let degree = ctx.degree();
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            view.member_stream = Some(FanoutStream::every_port(degree));
            if view.is_member {
                view.down = Some(FanoutStream::new(&view.contributors));
                if view.parent_port.is_none() {
                    // Root: the convergecast totals are the global counts.
                    let converge = view.k_converge.as_ref().expect("root has a converge");
                    let totals = converge.totals().to_vec();
                    for (x, &total) in totals.iter().enumerate().skip(1) {
                        view.k_sizes[x] = total;
                        view.down.as_mut().expect("just set").push(x as u32, total);
                        if view.k_bits[x] {
                            view.member_stream.as_mut().expect("just set").push(x as u32, total);
                        }
                    }
                }
            }
        }
    }

    fn enter_t_converge(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::TConverge;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        let epsilon = self.params.epsilon;
        let version = self.version;
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            view.compute_t_bits(epsilon);
            if view.is_member {
                let mut converge = VectorConverge::new(view.n_coords(), &view.t_bits);
                for &c in &view.contributors {
                    converge.add_contributor(c);
                }
                view.t_converge = Some(converge);
            } else {
                view.t_up_next = 1;
            }
        }
    }

    fn enter_candidate_down(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::CandidateDown;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        let version = self.version;
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            if view.is_member && view.parent_port.is_none() {
                let totals = view.t_converge.as_ref().expect("root has t-converge").totals();
                // argmax |T_ε(X)|, ties toward the smallest subset index —
                // a fixed deterministic rule mirrored by the reference.
                let mut best_x = 1usize;
                let mut best = totals.get(1).copied().unwrap_or(0);
                for (x, &t) in totals.iter().enumerate().skip(2) {
                    if t > best {
                        best = t;
                        best_x = x;
                    }
                }
                let info =
                    CandidateInfo { x: best_x as u32, size: best, my_t_bit: view.t_bits[best_x] };
                view.candidate = Some(info);
                for &port in &view.contributors {
                    ctx.send(
                        port,
                        Msg::Candidate { version, root: view.root, x: info.x, size: info.size },
                    );
                }
                view.release_heavy();
            }
        }
    }

    fn enter_vote(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::Vote;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        // Best candidate across versions: largest |T|, then largest root
        // ID (the paper's tie-break), then largest version.
        let best = self
            .views
            .iter()
            .filter(|view| !view.oversized && view.candidate.is_some())
            .map(|view| (view.candidate.expect("filtered").size, view.root, view.version))
            .max();
        for view in &mut self.views {
            if view.oversized || view.candidate.is_none() {
                view.vote_done = true;
                continue;
            }
            let cand = view.candidate.expect("checked");
            let me = (cand.size, view.root, view.version);
            let my_abort = best != Some(me);
            if view.is_member {
                view.abort_acc |= my_abort;
                // Own vote is folded in; child votes arrive in `step`.
                Self::try_send_vote(view, ctx);
            } else {
                let parent = view.parent_port.expect("non-member has parent");
                let (version, root) = (view.version, view.root);
                ctx.send(parent, Msg::Vote { version, root, abort: my_abort });
                view.vote_done = true;
            }
        }
    }

    /// Sends the aggregated vote up once all contributor votes arrived.
    /// At the root, "sending" means recording the final verdict.
    fn try_send_vote(view: &mut CompView, ctx: &mut Context<'_, Msg>) {
        if view.vote_done || view.votes_received < view.contributors.len() {
            return;
        }
        view.vote_done = true;
        if let Some(parent) = view.parent_port {
            let (version, root) = (view.version, view.root);
            ctx.send(parent, Msg::Vote { version, root, abort: view.abort_acc });
        }
        // Root: `abort_acc` now holds the component's verdict.
    }

    fn enter_winner(&mut self, ctx: &mut Context<'_, Msg>) {
        self.phase = Phase::Winner;
        self.entry_round = ctx.round();
        self.record_phase(ctx.round());
        let min_size = self.params.min_candidate_size.unwrap_or(1);
        for view in &self.views {
            let is_surviving_root =
                view.is_member && view.parent_port.is_none() && !view.oversized && !view.abort_acc;
            if !is_surviving_root {
                continue;
            }
            let cand = view.candidate.expect("roots always have a candidate");
            if cand.size < min_size {
                continue;
            }
            for &port in &view.contributors {
                ctx.send(port, Msg::Winner { version: view.version, root: view.root });
            }
            if cand.my_t_bit {
                Self::adopt_label(&mut self.label, cand.size, view.root);
            }
        }
    }

    fn adopt_label(label: &mut Option<(u32, u64)>, size: u32, root: u64) {
        let incoming = (size, root);
        if label.is_none_or(|cur| incoming > cur) {
            *label = Some(incoming);
        }
    }

    // ---------------- step handlers ----------------

    fn step_announce(&mut self, inbox: &[(Port, Msg)]) {
        for (port, msg) in inbox {
            match msg {
                Msg::InS { version } => {
                    debug_assert_eq!(*version, self.version);
                    self.s_ports.push(*port);
                }
                other => panic!("unexpected message in Announce: {other:?}"),
            }
        }
    }

    fn step_roster(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        for (port, msg) in inbox {
            match msg {
                Msg::Roster { version, id } => {
                    debug_assert_eq!(*version, self.version);
                    debug_assert!(self.in_s(), "roster gossip reached a non-member");
                    if self.roster_set.insert(*id) {
                        self.roster_ids.push(*id);
                    }
                    if *id < self.current_min {
                        self.current_min = *id;
                        self.parent_port = Some(*port);
                    }
                }
                other => panic!("unexpected message in Roster: {other:?}"),
            }
        }
        if !self.roster_idle() {
            let id = self.roster_ids[self.roster_next];
            self.roster_next += 1;
            for &port in &self.s_ports {
                ctx.send(port, Msg::Roster { version: self.version, id });
            }
        }
    }

    fn step_comp_share(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        for (port, msg) in inbox {
            match msg {
                Msg::Adopt { version } => {
                    debug_assert_eq!(*version, self.version);
                    self.adopt_children.push(*port);
                }
                Msg::CompShare { version, root, id, total } => {
                    debug_assert_eq!(*version, self.version);
                    let i = match view_index(&self.views, *version, *root) {
                        Ok(i) if self.views[i].is_member => {
                            continue; // echo of our own component's roster
                        }
                        Ok(i) => i,
                        Err(i) => {
                            let mut v = CompView::new(*version, *root, false);
                            v.parent_port = Some(*port);
                            self.views.insert(i, v);
                            i
                        }
                    };
                    let cap = self.cap();
                    let view = &mut self.views[i];
                    view.total = *total;
                    view.ids.insert(*id);
                    if *total > cap {
                        view.oversized = true;
                        self.oversized_seen = true;
                    }
                }
                other => panic!("unexpected message in CompShare: {other:?}"),
            }
        }
        if let Some(&id) = self.comp_share_list.get(self.comp_share_next) {
            self.comp_share_next += 1;
            let (root, total) = (self.current_min, self.comp_share_list.len() as u32);
            ctx.broadcast(Msg::CompShare { version: self.version, root, id, total });
        }
    }

    fn step_k_converge(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        let version = self.version;
        for (port, msg) in inbox {
            match msg {
                Msg::Attach { version: v, root } => {
                    debug_assert_eq!(*v, version);
                    let view =
                        view_mut(&mut self.views, *v, *root).expect("attach to a non-member view");
                    debug_assert!(view.is_member, "attach must target a member");
                    view.contributors.push(*port);
                    view.k_converge.as_mut().expect("member has converge").add_contributor(*port);
                }
                Msg::KCount { version: v, root, x, count } => {
                    let view =
                        view_mut(&mut self.views, *v, *root).expect("count for unknown view");
                    view.k_converge.as_mut().expect("member has converge").receive(
                        *port,
                        *x as usize,
                        *count,
                    );
                }
                other => panic!("unexpected message in KConverge: {other:?}"),
            }
        }
        // Lock contributor sets after the attach round has been processed.
        let locked_now = ctx.round() > self.entry_round;
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            let root = view.root;
            if view.is_member {
                if locked_now {
                    view.locked = true;
                }
                if view.locked {
                    if let Some(parent) = view.parent_port {
                        let converge = view.k_converge.as_mut().expect("member has converge");
                        if let Some((x, sum)) = converge.next_ready() {
                            ctx.send(
                                parent,
                                Msg::KCount { version, root, x: x as u32, count: sum },
                            );
                        }
                    }
                }
            } else if view.k_up_next < view.n_coords() {
                let x = view.k_up_next;
                view.k_up_next += 1;
                let parent = view.parent_port.expect("non-member has parent");
                ctx.send(
                    parent,
                    Msg::KCount { version, root, x: x as u32, count: u32::from(view.k_bits[x]) },
                );
            }
        }
    }

    fn step_k_broadcast(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        for (_port, msg) in inbox {
            match msg {
                Msg::KSize { version, root, x, size } => {
                    let view =
                        view_mut(&mut self.views, *version, *root).expect("ksize unknown view");
                    let x = *x as usize;
                    view.k_sizes[x] = *size;
                    if view.is_member {
                        view.down.as_mut().expect("member has down stream").push(x as u32, *size);
                    }
                    if view.k_bits[x] {
                        view.member_stream
                            .as_mut()
                            .expect("participant has member stream")
                            .push(x as u32, *size);
                    }
                }
                Msg::KMember { version, root, x, size } => {
                    // Count the announcement if we participate in that
                    // component; ignore otherwise (we cannot be in any
                    // T_ε(X) of a component we are not adjacent to).
                    if let Some(view) = view_mut(&mut self.views, *version, *root) {
                        if !view.oversized {
                            let x = *x as usize;
                            view.kmember_counts[x] += 1;
                            view.k_sizes[x] = *size;
                        }
                    }
                }
                other => panic!("unexpected message in KBroadcast: {other:?}"),
            }
        }
        let version = self.version;
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            let root = view.root;
            if let Some(down) = view.down.as_mut() {
                down.pump(|to, x, size| fan_out(ctx, to, Msg::KSize { version, root, x, size }));
            }
            if let Some(ms) = view.member_stream.as_mut() {
                ms.pump(|to, x, size| fan_out(ctx, to, Msg::KMember { version, root, x, size }));
            }
        }
    }

    fn step_t_converge(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        let version = self.version;
        for (port, msg) in inbox {
            match msg {
                Msg::TCount { version: v, root, x, count } => {
                    let view = view_mut(&mut self.views, *v, *root).expect("tcount unknown view");
                    view.t_converge.as_mut().expect("member has t-converge").receive(
                        *port,
                        *x as usize,
                        *count,
                    );
                }
                other => panic!("unexpected message in TConverge: {other:?}"),
            }
        }
        for view in &mut self.views {
            if view.version != version || view.oversized {
                continue;
            }
            let root = view.root;
            if view.is_member {
                if let Some(parent) = view.parent_port {
                    let converge = view.t_converge.as_mut().expect("member has t-converge");
                    if let Some((x, sum)) = converge.next_ready() {
                        ctx.send(parent, Msg::TCount { version, root, x: x as u32, count: sum });
                    }
                }
            } else if view.t_up_next < view.n_coords() {
                let x = view.t_up_next;
                view.t_up_next += 1;
                let parent = view.parent_port.expect("non-member has parent");
                ctx.send(
                    parent,
                    Msg::TCount { version, root, x: x as u32, count: u32::from(view.t_bits[x]) },
                );
            }
        }
    }

    fn step_candidate_down(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        for (_port, msg) in inbox {
            match msg {
                Msg::Candidate { version, root, x, size } => {
                    let view =
                        view_mut(&mut self.views, *version, *root).expect("candidate unknown view");
                    let x_us = *x as usize;
                    let my_t_bit = view.t_bits.get(x_us).copied().unwrap_or(false);
                    view.candidate = Some(CandidateInfo { x: *x, size: *size, my_t_bit });
                    if view.is_member {
                        for &port in &view.contributors {
                            ctx.send(
                                port,
                                Msg::Candidate {
                                    version: *version,
                                    root: *root,
                                    x: *x,
                                    size: *size,
                                },
                            );
                        }
                    }
                    view.release_heavy();
                }
                other => panic!("unexpected message in CandidateDown: {other:?}"),
            }
        }
    }

    fn step_vote(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        for (_port, msg) in inbox {
            match msg {
                Msg::Vote { version, root, abort } => {
                    let view =
                        view_mut(&mut self.views, *version, *root).expect("vote for unknown view");
                    debug_assert!(view.is_member, "votes route to members only");
                    view.votes_received += 1;
                    view.abort_acc |= *abort;
                    Self::try_send_vote(view, ctx);
                }
                other => panic!("unexpected message in Vote: {other:?}"),
            }
        }
    }

    fn step_winner(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        for (_port, msg) in inbox {
            match msg {
                Msg::Winner { version, root } => {
                    let view = view_mut(&mut self.views, *version, *root).expect("winner unknown");
                    let cand = view.candidate.expect("winner implies candidate");
                    if cand.my_t_bit {
                        Self::adopt_label(&mut self.label, cand.size, *root);
                    }
                    if view.is_member {
                        for &port in &view.contributors {
                            ctx.send(port, Msg::Winner { version: *version, root: *root });
                        }
                    }
                }
                other => panic!("unexpected message in Winner: {other:?}"),
            }
        }
    }
}

/// Sends `msg` where a [`FanoutStream`] pumped it.
fn fan_out(ctx: &mut Context<'_, Msg>, to: Fanout, msg: Msg) {
    match to {
        Fanout::Port(port) => ctx.send(port, msg),
        Fanout::All => ctx.broadcast(msg),
    }
}

/// Where view `(version, root)` sits in `views` (sorted by that key), or
/// where inserting it keeps them sorted.
fn view_index(views: &[CompView], version: u8, root: u64) -> Result<usize, usize> {
    views.binary_search_by_key(&(version, root), |view| (view.version, view.root))
}

/// View `(version, root)`, if this node participates in it.
fn view_mut(views: &mut [CompView], version: u8, root: u64) -> Option<&mut CompView> {
    let i = view_index(views, version, root).ok()?;
    Some(&mut views[i])
}

impl Protocol for DistNearClique {
    type Msg = Msg;
    type Output = NodeOutput;

    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        self.my_id = ctx.id();
        self.enter_announce(ctx);
    }

    fn step(&mut self, ctx: &mut Context<'_, Msg>, inbox: &[(Port, Msg)]) {
        match self.phase {
            Phase::Announce => self.step_announce(inbox),
            Phase::Roster => self.step_roster(ctx, inbox),
            Phase::CompShare => self.step_comp_share(ctx, inbox),
            Phase::KConverge => self.step_k_converge(ctx, inbox),
            Phase::KBroadcast => self.step_k_broadcast(ctx, inbox),
            Phase::TConverge => self.step_t_converge(ctx, inbox),
            Phase::CandidateDown => self.step_candidate_down(ctx, inbox),
            Phase::Vote => self.step_vote(ctx, inbox),
            Phase::Winner => self.step_winner(ctx, inbox),
            Phase::Done => debug_assert!(inbox.is_empty(), "message after Done"),
        }
    }

    fn is_idle(&self) -> bool {
        let version = self.version;
        match self.phase {
            Phase::Announce | Phase::CandidateDown | Phase::Winner | Phase::Done => true,
            Phase::Roster => self.roster_idle(),
            Phase::CompShare => self.comp_share_next >= self.comp_share_list.len(),
            Phase::KConverge => self.views.iter().all(|view| {
                view.version != version || view.oversized || {
                    if view.is_member {
                        view.locked
                            && (view.parent_port.is_none()
                                || !view.k_converge.as_ref().expect("member").ready())
                    } else {
                        view.k_up_next >= view.n_coords()
                    }
                }
            }),
            Phase::KBroadcast => self.views.iter().all(|view| {
                view.version != version || view.oversized || {
                    view.down.as_ref().is_none_or(FanoutStream::drained)
                        && view.member_stream.as_ref().is_none_or(FanoutStream::drained)
                }
            }),
            Phase::TConverge => self.views.iter().all(|view| {
                view.version != version || view.oversized || {
                    if view.is_member {
                        view.parent_port.is_none()
                            || !view.t_converge.as_ref().expect("member").ready()
                    } else {
                        view.t_up_next >= view.n_coords()
                    }
                }
            }),
            Phase::Vote => self.views.iter().all(|view| view.vote_done),
        }
    }

    fn on_quiescent(&mut self, ctx: &mut Context<'_, Msg>) -> bool {
        match self.phase {
            Phase::Announce => self.enter_roster(ctx),
            Phase::Roster => self.enter_comp_share(ctx),
            Phase::CompShare => self.enter_k_converge(ctx),
            Phase::KConverge => self.enter_k_broadcast(ctx),
            Phase::KBroadcast => self.enter_t_converge(ctx),
            Phase::TConverge => self.enter_candidate_down(ctx),
            Phase::CandidateDown => {
                if u32::from(self.version) + 1 < self.params.lambda {
                    self.version += 1;
                    self.enter_announce(ctx);
                } else {
                    self.enter_vote(ctx);
                }
            }
            Phase::Vote => self.enter_winner(ctx),
            Phase::Winner => {
                self.phase = Phase::Done;
                return false;
            }
            Phase::Done => return false,
        }
        true
    }

    fn output(&self) -> NodeOutput {
        NodeOutput {
            id: self.my_id,
            label: self.label.map(|(_, root)| root),
            in_sample: self.sample_flags.clone(),
            oversized_component: self.oversized_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SamplePlan;
    use congest::{Driver, Engine, Session, Termination};
    use graphs::{Graph, GraphBuilder};

    fn run(
        graph: &Graph,
        params: &NearCliqueParams,
        seed: u64,
    ) -> (Vec<NodeOutput>, congest::Metrics) {
        let plan = SamplePlan::draw(graph.node_count(), params.lambda, params.p, seed);
        let (outputs, report) = Session::on(graph).seed(seed).run_with(|e| {
            let flags = (0..params.lambda).map(|v| plan.in_sample(v, e.index)).collect();
            DistNearClique::new(params.clone(), flags)
        });
        assert_eq!(report.termination, Termination::Quiescent, "protocol must quiesce");
        (outputs, report.metrics)
    }

    #[test]
    fn complete_graph_labels_everyone_together() {
        let g = Graph::complete(30);
        let params = NearCliqueParams::new(0.25, 0.15).unwrap();
        let (outputs, _) = run(&g, &params, 3);
        let labels: Vec<_> = outputs.iter().map(|o| o.label).collect();
        let first = labels[0];
        assert!(first.is_some(), "a clique must be found");
        assert!(labels.iter().all(|&l| l == first), "single component, single label");
    }

    #[test]
    fn empty_graph_labels_nothing_big() {
        // With no edges, every sampled node is a singleton component and
        // every candidate has size 1; min_candidate_size filters them out.
        let g = Graph::empty(40);
        let params = NearCliqueParams::new(0.2, 0.1).unwrap().with_min_candidate_size(2);
        let (outputs, _) = run(&g, &params, 5);
        assert!(outputs.iter().all(|o| o.label.is_none()));
    }

    #[test]
    fn no_sampled_nodes_terminates_cleanly() {
        let g = Graph::complete(10);
        let params = NearCliqueParams::new(0.2, 0.2).unwrap();
        // Seed chosen freely: we override the flags to simulate an empty S.
        let (outputs, report) =
            Session::on(&g).seed(1).run_with(|_| DistNearClique::new(params.clone(), vec![false]));
        assert_eq!(report.termination, Termination::Quiescent);
        assert!(outputs.iter().all(|o| o.label.is_none()));
    }

    #[test]
    fn message_bits_stay_logarithmic() {
        let g = Graph::complete(25);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        let (_, metrics) = run(&g, &params, 7);
        assert!(
            metrics.max_message_bits <= crate::msg::max_message_bits(),
            "{} bits exceeds the CONGEST budget",
            metrics.max_message_bits
        );
    }

    #[test]
    fn two_disjoint_cliques_get_distinct_labels() {
        // Two 15-cliques with no connection: both survive (no voter sees
        // both), with different root labels.
        let mut b = GraphBuilder::new(30);
        b.add_clique(&(0..15).collect::<Vec<_>>());
        b.add_clique(&(15..30).collect::<Vec<_>>());
        let g = b.build();
        let params = NearCliqueParams::new(0.25, 0.25).unwrap();
        let (outputs, _) = run(&g, &params, 11);
        let left: Vec<_> = outputs[..15].iter().filter_map(|o| o.label).collect();
        let right: Vec<_> = outputs[15..].iter().filter_map(|o| o.label).collect();
        if let (Some(&l), Some(&r)) = (left.first(), right.first()) {
            assert_ne!(l, r, "disjoint cliques must not share a label");
        }
        // At least one side should be discovered with this sample rate.
        assert!(!left.is_empty() || !right.is_empty(), "at least one clique should be labeled");
    }

    #[test]
    fn boosting_runs_multiple_versions() {
        let g = Graph::complete(20);
        let params = NearCliqueParams::new(0.25, 0.12).unwrap().with_lambda(3);
        let (outputs, metrics) = run(&g, &params, 13);
        assert!(outputs.iter().all(|o| o.in_sample.len() == 3));
        assert!(outputs.iter().any(|o| o.label.is_some()));
        // Seven phase barriers per version (Announce→…→CandidateDown→next)
        // plus the Vote→Winner barrier.
        assert!(metrics.barriers > 7 * 3, "three versions of phase barriers");
    }

    #[test]
    fn oversized_components_are_skipped_not_fatal() {
        let g = Graph::complete(30);
        // Absurd p so S is large; cap tiny.
        let params = NearCliqueParams::new(0.25, 0.9).unwrap().with_max_component_size(3);
        let (outputs, _) = run(&g, &params, 17);
        assert!(outputs.iter().any(|o| o.oversized_component));
        // Nothing labeled since the (single) component was skipped.
        assert!(outputs.iter().all(|o| o.label.is_none()));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Graph::complete(24);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        let (a, am) = run(&g, &params, 23);
        let (b, bm) = run(&g, &params, 23);
        assert_eq!(a, b);
        assert_eq!(am.rounds, bm.rounds);
        assert_eq!(am.total_bits, bm.total_bits);
    }

    /// A sampled node with nothing to send to adds no rounds: roster
    /// gossip ends at once when no two sampled nodes are adjacent, and a
    /// sampled node without neighbors streams no `CompShare`.
    #[test]
    fn members_without_destinations_add_no_rounds() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        let entries = |sampled: &[usize]| {
            let mut driver = Session::on(&g).seed(1).build_with(|e| {
                DistNearClique::new(params.clone(), vec![sampled.contains(&e.index)])
            });
            assert_eq!(driver.run().termination, Termination::Quiescent);
            let trace = driver.protocol(0).phase_trace().to_vec();
            move |phase: &str| trace.iter().find(|t| t.1 == phase).expect("phase entered").2
        };
        let at = entries(&[0, 2]);
        assert_eq!(at("roster"), at("comp-share"), "no sampled node has a sampled neighbor");
        let at = entries(&[3]);
        assert_eq!(at("comp-share"), at("k-converge"), "the one sampled node is isolated");
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let g = Graph::complete(24);
        let params = NearCliqueParams::new(0.25, 0.2).unwrap();
        let plan = SamplePlan::draw(24, 1, params.p, 29);
        let build = |shards| {
            Session::on(&g)
                .seed(29)
                .engine(Engine::Flat { shards })
                .run_with(|e| DistNearClique::new(params.clone(), vec![plan.in_sample(0, e.index)]))
                .0
        };
        assert_eq!(build(1), build(4));
    }
}
