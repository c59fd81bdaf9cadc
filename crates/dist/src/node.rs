//! The per-processor protocol node.
//!
//! One node per processor (= demand). A node knows only
//!
//! * **public information**: the networks, their layering (tree
//!   decompositions for tree-networks, the length-class `Lmin` for
//!   line-networks), the schedule parameters (`ε`, `ξ`, seed, MIS
//!   backend) and the convergecast forest of the communication graph
//!   (infrastructure knowledge) — wrapped in [`PublicInfo`];
//! * **its own demand**, from which it derives its demand instances,
//!   their paths, canonical keys, epoch groups and critical edges;
//! * **what neighbors told it**: demand descriptors exchanged in the
//!   setup round (one `O(M)`-bit message each), and the per-round
//!   liveness/raise/selection announcements of the protocol proper.
//!
//! The instance views a descriptor determines are a pure function of it
//! and public information ([`PublicInfo::views`]), so the run derives
//! every demand's views once, into the shared [`ViewArena`], before any
//! node is built. A node reads its own entry, and a neighbor's entry only
//! once that neighbor's descriptor has arrived.
//!
//! From raise announcements a node tracks the dual values `β(e)` for
//! exactly the edges on its own paths — sufficient because any raise
//! touching such an edge comes from an overlapping instance, whose owner
//! shares a network and is therefore a communication neighbor.
//!
//! The node is parametrized by the run's [`RaiseRule`] and by its
//! [`RunTag`]: in a merged wide/narrow execution both sub-runs share one
//! engine and every protocol message is namespaced by its sub-run, so a
//! node simply ignores data messages of the other half (they cannot
//! affect its duals — the two halves are independent computations, as
//! in the logical solver). Three always-on layers sit outside the
//! sub-run namespaces:
//!
//! * the **prologue layer** (BFS/leader election): from the first round
//!   every non-isolated node floods its best `(root, dist)` label — the
//!   smallest processor id it has heard of and its hop distance to it —
//!   and each node then picks as parent its smallest-id neighbor one hop
//!   closer to the leader. This *charges* for the convergecast
//!   infrastructure the control plane rides on: the flood reproduces
//!   [`ConvergecastForest::from_adjacency`] exactly (the runner asserts
//!   it), and it overlaps the first data rounds instead of preceding
//!   them;
//! * the **echo layer** (termination detection): per sweep, every node —
//!   including nodes of the other half, which act as relays — aggregates
//!   unsatisfied counts up the public convergecast forest and floods the
//!   root's verdict back down, so the driver's step pacing is audited
//!   in-network;
//! * the **combine layer** (per-network combiner): after both halves
//!   finish, every node reports its selected instance to the leader of
//!   its network (the minimum-id accessor — a neighbor, since accessors
//!   of a network form a clique), the leader reproduces the logical
//!   `combine_by_network` profit fold bit-exactly (ascending instance id)
//!   and broadcasts the per-network choice back.
//!
//! The node is written against *logical* synchronous rounds and never
//! sees the link layer: under [`DistConfig::loss`](crate::DistConfig)
//! the engine's reliable-delivery sublayer absorbs drops, duplicates
//! and delays beneath it, delivering byte-identical inboxes — which is
//! why fault tolerance required no change here at all.

use std::sync::Arc;

use treenet_core::RaiseRule;
use treenet_decomp::{
    line_instance_layer, tree_instance_layer, ConvergecastForest, TreeDecomposition,
};
use treenet_graph::{EdgeId, RootedTree, TreePath, VertexId};
use treenet_mis::MisBackend;
use treenet_model::{Demand, DemandId, DemandKind, InstanceId, NetworkId};
use treenet_netsim::{Context, Envelope, MessageSize, Protocol};

/// Satisfaction comparison guard — imported from the framework so
/// participation decisions are bit-identical by construction.
pub(crate) use treenet_core::SATISFACTION_GUARD;

/// Which sub-run a namespaced protocol message belongs to. Solo runners
/// and the wide half of a merged wide/narrow execution use
/// [`RunTag::Primary`]; the narrow half uses [`RunTag::Narrow`]. The tag
/// is what lets both halves share one `treenet-netsim` engine pass
/// without their message streams interfering.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunTag {
    /// The solo run, or the wide half of a split run.
    Primary,
    /// The narrow half of a split run.
    Narrow,
}

impl RunTag {
    /// Dense index for per-tag state arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            RunTag::Primary => 0,
            RunTag::Narrow => 1,
        }
    }
}

/// How epoch groups and critical edges derive from public information:
/// the paper's tree layering (Section 5, capture depths over public tree
/// decompositions) or the line layering (Section 7, length classes over
/// the public minimum length).
#[derive(Debug)]
pub(crate) enum Layering {
    /// Tree-networks: one public tree decomposition per network.
    Tree {
        /// The decompositions, in network order.
        decomps: Vec<TreeDecomposition>,
        /// Cached decomposition depths, in network order.
        depths: Vec<u32>,
    },
    /// Canonical line-networks: length classes keyed on the public
    /// `Lmin` (every processor knows it, per the paper's assumption).
    Line {
        /// The minimum instance length `Lmin`.
        lmin: f64,
    },
}

/// Public knowledge shared by every processor: the networks (rooted views
/// plus the layering), the schedule parameters, and the convergecast
/// forest of the communication graph. Everything here is a deterministic
/// function of inputs the paper assumes are known to all processors — the
/// forest derives from the (public) resource-sharing infrastructure, not
/// from any demand's private data, and corresponds operationally to the
/// standard O(diameter) leader-election/BFS preprocessing.
#[derive(Debug)]
pub(crate) struct PublicInfo {
    /// Every network's rooted tree, indexed by `NetworkId`.
    pub rooted: Vec<RootedTree>,
    /// The shared layered decomposition of all networks.
    pub layering: Layering,
    /// Common-randomness seed every processor derives its coins from.
    pub seed: u64,
    /// Which MIS implementation the run uses.
    pub backend: MisBackend,
    /// BFS spanning forest used for echo/convergecast sweeps.
    pub forest: ConvergecastForest,
    /// Every demand's instance views, derived once per run (see
    /// [`ViewArena`]).
    pub arena: ViewArena,
}

impl PublicInfo {
    /// Assembles the public information and derives the view arena of
    /// `descriptors` (one per demand, in demand-id order).
    pub fn new(
        rooted: Vec<RootedTree>,
        layering: Layering,
        seed: u64,
        backend: MisBackend,
        forest: ConvergecastForest,
        descriptors: Vec<Arc<Descriptor>>,
    ) -> Self {
        let mut public = PublicInfo {
            rooted,
            layering,
            seed,
            backend,
            forest,
            arena: ViewArena::default(),
        };
        let mut views = Vec::new();
        let mut offsets = Vec::with_capacity(descriptors.len() + 1);
        offsets.push(0);
        for (a, descriptor) in descriptors.iter().enumerate() {
            debug_assert_eq!(descriptor.id.index(), a, "descriptors in demand-id order");
            views.extend(public.views(descriptor));
            offsets.push(views.len());
        }
        public.arena = ViewArena {
            descriptors,
            views,
            offsets,
        };
        public
    }

    /// Derives the instance views of a demand descriptor, in the canonical
    /// order (accessible networks ascending, window starts ascending) that
    /// both the owner and every receiver reproduce independently. The
    /// specification of [`ViewArena`]'s entries.
    pub fn views(&self, descriptor: &Descriptor) -> Vec<InstView> {
        let mut views = Vec::new();
        for &t in &descriptor.access {
            match descriptor.demand.kind {
                DemandKind::Pair { u, v } => {
                    let path = self.rooted[t.index()].path(u, v);
                    views.push(self.make_view(descriptor, t, path, None));
                }
                DemandKind::Window {
                    release,
                    deadline,
                    processing,
                } => {
                    for s in release..=(deadline + 1 - processing) {
                        let vertices: Vec<VertexId> = (s..=s + processing).map(VertexId).collect();
                        let edges: Vec<EdgeId> = (s..s + processing).map(EdgeId).collect();
                        let path = TreePath::new(vertices, edges);
                        views.push(self.make_view(descriptor, t, path, Some(s)));
                    }
                }
            }
        }
        views
    }

    fn make_view(
        &self,
        descriptor: &Descriptor,
        network: NetworkId,
        path: TreePath,
        start: Option<u32>,
    ) -> InstView {
        let q = network.index();
        // Group and critical edges come from the same per-instance
        // definitions the logical LayeredDecomposition builders use.
        let (group, critical) = match &self.layering {
            Layering::Tree { decomps, depths } => {
                tree_instance_layer(&decomps[q], &self.rooted[q], depths[q], &path)
            }
            Layering::Line { lmin } => line_instance_layer(*lmin, path.edges()),
        };
        let key = treenet_model::canonical_instance_key(descriptor.id, network, start);
        let mut sorted_edges: Vec<EdgeId> = path.edges().to_vec();
        sorted_edges.sort_unstable();
        InstView {
            key,
            network,
            edges: path.edges().to_vec(),
            sorted_edges,
            group,
            critical,
            height: descriptor.demand.height,
            profit: descriptor.demand.profit,
        }
    }
}

/// The run's memo of [`PublicInfo::views`]: every demand's descriptor and
/// instance views, derived once before any node is built. A view is a
/// pure function of its descriptor and public information, so every
/// processor that derives it gets the same value; the simulation derives
/// it once instead of once per (demand, neighbor) pair. Nodes hold no
/// copies: an owner reads its own entry, and a receiver reads a
/// neighbor's entry only once that neighbor's descriptor arrived.
#[derive(Debug, Default)]
pub(crate) struct ViewArena {
    /// Every demand's descriptor, indexed by demand id.
    descriptors: Vec<Arc<Descriptor>>,
    /// Every demand's views, concatenated in demand-id order.
    views: Vec<InstView>,
    /// Demand `a`'s views are `views[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
}

impl ViewArena {
    /// Demand `a`'s descriptor.
    pub fn descriptor(&self, a: usize) -> &Arc<Descriptor> {
        &self.descriptors[a]
    }

    /// Demand `a`'s instance views, in canonical order.
    pub fn of(&self, a: usize) -> &[InstView] {
        &self.views[self.offsets[a]..self.offsets[a + 1]]
    }
}

/// A demand descriptor — the `O(M)` bits of the paper's message bound:
/// one demand (kind, profit, height) plus its accessible networks.
#[derive(Clone, Debug, PartialEq)]
pub struct Descriptor {
    /// The public id of the owning processor/demand.
    pub id: DemandId,
    /// The demand itself.
    pub demand: Demand,
    /// Accessible networks, ascending.
    pub access: Vec<NetworkId>,
}

/// Everything derivable about one demand instance from its owner's
/// descriptor plus public information.
#[derive(Clone, Debug)]
pub(crate) struct InstView {
    /// Canonical common-randomness key (matches
    /// `DemandInstance::canonical_key`).
    pub key: u64,
    /// Network this view routes through.
    pub network: NetworkId,
    /// Path edges in path order (the dual-LHS summation order).
    pub edges: Vec<EdgeId>,
    /// Path edges sorted, for overlap tests.
    pub sorted_edges: Vec<EdgeId>,
    /// 1-based epoch group.
    pub group: u32,
    /// Critical edges `π(d)`, sorted.
    pub critical: Vec<EdgeId>,
    /// Bandwidth demand `h(d)`.
    pub height: f64,
    /// Profit `p(d)` of selecting this instance.
    pub profit: f64,
}

impl InstView {
    /// Whether the two views overlap: same network and a shared edge.
    pub fn overlaps(&self, other: &InstView) -> bool {
        if self.network != other.network {
            return false;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.sorted_edges.len() && j < other.sorted_edges.len() {
            match self.sorted_edges[i].cmp(&other.sorted_edges[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Protocol messages. Every payload is bounded by one demand descriptor —
/// the paper's `O(M)` bits. Data messages carry their sub-run's
/// [`RunTag`] so merged wide/narrow executions can share one engine;
/// echo and combine messages form the in-network control plane.
#[derive(Clone, Debug)]
pub enum DistMsg {
    /// Setup round: the sender's demand descriptor (shared by all
    /// sub-runs). Shared rather than copied: every recipient's copy and
    /// every retransmission is one reference count.
    Descriptor(Arc<Descriptor>),
    /// Prologue layer (BFS/leader election): the sender's current best
    /// label — the smallest processor id it has heard of (the eventual
    /// component leader) and its hop distance to it. Flooded from the
    /// first round, re-broadcast on every improvement.
    Bfs {
        /// Smallest processor id known to the sender (candidate leader).
        root: u32,
        /// The sender's hop distance to `root`.
        dist: u32,
    },
    /// Step boundary: which of the sender's instances (canonical order,
    /// bit `i` = instance `i`) participate in this step's MIS.
    Active {
        /// The sub-run this announcement belongs to.
        run: RunTag,
        /// Participation bitmask over the sender's instances.
        mask: u64,
    },
    /// The sender's instance `idx` joined the MIS and was raised by
    /// `delta` (α of its demand; each receiver re-derives the rule's β
    /// increment from `delta` and the instance's public `|π|`).
    Joined {
        /// The sub-run this raise belongs to.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
        /// The raise amount `δ(d)`.
        delta: f64,
    },
    /// The sender's instance `idx` left this step's MIS computation.
    Died {
        /// The sub-run this death belongs to.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
    },
    /// Phase 2: the sender's instance `idx` entered the solution.
    Selected {
        /// The sub-run this selection belongs to.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
    },
    /// Termination detection, convergecast half: the aggregate of the
    /// sender's subtree — how many of its instances are still below the
    /// sweep's threshold, and whether any instance belongs to the swept
    /// epoch group at all.
    EchoUp {
        /// The sub-run being swept.
        run: RunTag,
        /// Unsatisfied instances in the sender's subtree.
        unsatisfied: u32,
        /// Whether the subtree has any member of the swept epoch group.
        members: bool,
    },
    /// Termination detection, broadcast half: the component root's
    /// verdict flooding back down the convergecast tree.
    EchoDown {
        /// The sub-run being swept.
        run: RunTag,
        /// Unsatisfied instances in the whole component.
        unsatisfied: u32,
        /// Whether the component has any member of the swept epoch group.
        members: bool,
    },
    /// Combiner, convergecast half: the sender's selected instance `idx`
    /// (its network, profit and sub-run are derivable from the sender's
    /// descriptor), reported to the leader of the instance's network.
    CombineReport {
        /// The sub-run (= height-class half) the selection came from.
        run: RunTag,
        /// Canonical instance index within the sender.
        idx: u8,
    },
    /// Combiner, broadcast half: the per-network choice, from the
    /// network's leader to every accessor.
    CombineChoice {
        /// The decided network.
        network: u32,
        /// Whether the wide (Primary) half won the network.
        wide_wins: bool,
    },
}

/// The most instances one demand may have in a distributed run: the
/// `Active` participation mask carries one bit per instance.
pub const MAX_INSTANCES: usize = 64;

/// The size in bits of one demand descriptor over `networks` accessible
/// networks: kind/id header + profit + height (160 bits) plus one word
/// per network — the paper's `M`, and the bound every protocol message
/// respects. The single definition behind the `MessageSize` accounting
/// and every `O(M)`-bit assertion in tests and experiments.
pub fn descriptor_bits(networks: usize) -> u64 {
    160 + 64 * networks as u64
}

impl MessageSize for DistMsg {
    fn size_bits(&self) -> u64 {
        match self {
            DistMsg::Descriptor(d) => descriptor_bits(d.access.len()),
            DistMsg::Bfs { .. } => 64,
            DistMsg::Active { .. } => 80,
            DistMsg::Joined { .. } => 88,
            DistMsg::Died { .. } => 24,
            DistMsg::Selected { .. } => 24,
            DistMsg::EchoUp { .. } | DistMsg::EchoDown { .. } => 48,
            DistMsg::CombineReport { .. } => 16,
            DistMsg::CombineChoice { .. } => 40,
        }
    }

    /// Traffic classes for the per-class engine counters: 0 = setup
    /// descriptors, 1/2 = Primary/Narrow sub-run data, 3 = echo control,
    /// 4 = combine control, 5 = BFS prologue.
    fn traffic_class(&self) -> usize {
        match self {
            DistMsg::Descriptor(_) => 0,
            DistMsg::Active { run, .. }
            | DistMsg::Joined { run, .. }
            | DistMsg::Died { run, .. }
            | DistMsg::Selected { run, .. } => 1 + run.index(),
            DistMsg::EchoUp { .. } | DistMsg::EchoDown { .. } => 3,
            DistMsg::CombineReport { .. } | DistMsg::CombineChoice { .. } => 4,
            DistMsg::Bfs { .. } => 5,
        }
    }
}

/// What the driver schedules for the next synchronous round. The paper's
/// model assumes the epoch/stage/step schedule is globally known; the
/// driver supplies exactly that timing signal (and nothing else) by
/// setting the mode before each engine round, pacing stage and epoch
/// boundaries from node-local hints and auditing them with overlapped
/// echo sweeps; the per-network combination is computed in-network.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Mode {
    /// Broadcast the own demand descriptor.
    Setup,
    /// No compute action this round (echo sweeps, or the other half's
    /// turn in a merged run). The always-on echo layer still relays.
    Idle,
    /// Step boundary: decide participation, broadcast `Active`.
    Announce,
    /// Luby iteration, first half: evaluate wins, winners broadcast
    /// `Joined` and apply their raise.
    LubyEval,
    /// Luby iteration, second half: apply received raises, the newly dead
    /// broadcast `Died`.
    LubyCleanup,
    /// Phase 2: pop the given global step index of the framework stack.
    Pop(u32),
    /// Combiner round 1: report the selected instance to its network's
    /// leader.
    CombineReport,
    /// Combiner round 2: leaders fold the reports in canonical order and
    /// broadcast the per-network choice.
    CombineDecide,
    /// Combiner round 3: record the received choices.
    CombineApply,
}

/// Per-sub-run state of one termination-detection sweep on the
/// convergecast forest. Every node keeps one per [`RunTag`] because the
/// two halves of a merged run sweep on independent schedules and every
/// node relays both.
#[derive(Clone, Debug, Default)]
struct EchoState {
    /// Whether a sweep is in progress (or just finished) for this tag.
    active: bool,
    /// Children whose subtree reports are still outstanding.
    pending_children: usize,
    /// Aggregated unsatisfied count (own + received subtrees).
    unsatisfied: u32,
    /// Aggregated members flag (own + received subtrees).
    members: bool,
    /// Whether the subtree report went up already (roots: whether the
    /// verdict was finalized).
    sent_up: bool,
    /// The component verdict, once known.
    verdict: Option<(u32, bool)>,
    /// Whether the verdict was forwarded to the children already.
    announced_down: bool,
}

/// What a node learned about its communication neighbors, by slot. Slot
/// `k` is the `k`-th of the node's sorted topology neighbors
/// ([`Context::neighbors`]), so a sender's slot is one binary search away,
/// slot order is ascending id order, and the ids are not stored twice.
#[derive(Debug)]
struct NeighborSlots {
    /// Whether slot `k`'s descriptor arrived — only then are its
    /// instance views readable.
    received: Vec<bool>,
    /// Slot `k`'s instances participating in the current step's MIS
    /// (bit `i` = instance `i`).
    active: Vec<u64>,
}

impl NeighborSlots {
    fn new(degree: usize) -> Self {
        NeighborSlots {
            received: vec![false; degree],
            active: vec![0; degree],
        }
    }

    /// The instance views of `node`, the neighbor in slot `k`: empty
    /// until its descriptor arrived.
    fn views<'a>(&self, arena: &'a ViewArena, k: usize, node: usize) -> &'a [InstView] {
        if self.received[k] {
            arena.of(node)
        } else {
            &[]
        }
    }

    /// Resolves neighbor `node`'s instance view `idx`, if its descriptor
    /// arrived. Borrows only the slots (not the node), so call sites keep
    /// disjoint mutable borrows of the node's other fields.
    fn view<'a>(
        &self,
        arena: &'a ViewArena,
        neighbors: &[usize],
        node: usize,
        idx: u8,
    ) -> Option<&'a InstView> {
        let k = slot_of(neighbors, node)?;
        self.views(arena, k, node).get(idx as usize)
    }
}

/// The slot of `node` among the sorted `neighbors`, if it is one.
fn slot_of(neighbors: &[usize], node: usize) -> Option<usize> {
    neighbors.binary_search(&node).ok()
}

/// One edge on an own path, with the dual and capacity tracked for it.
#[derive(Copy, Clone, Debug)]
struct OwnEdge {
    /// `(network, edge)`.
    key: (u32, u32),
    /// β(e).
    beta: f64,
    /// Phase-2 residual capacity.
    residual: f64,
}

/// The slot of `(network, edge)` among a node's sorted own path edges.
fn edge_slot(own_edges: &[OwnEdge], network: u32, edge: EdgeId) -> Option<usize> {
    own_edges
        .binary_search_by_key(&(network, edge.0), |e| e.key)
        .ok()
}

/// The bitmask of the first `len` instances.
fn low_bits(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Per-instance state within the current step's MIS computation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum MisState {
    Out,
    Active,
    InMis,
    Dead,
}

struct OwnInstance {
    /// Dense instance id, carried only for reporting the final solution.
    id: InstanceId,
    state: MisState,
    /// Raised at these global step indices (phase-2 pop schedule).
    raised_at: Vec<u32>,
}

/// One combiner contribution at a network leader: `(demand, idx)` is the
/// canonical instance coordinate (ascending = ascending instance id).
#[derive(Copy, Clone, Debug)]
struct Contribution {
    network: u32,
    demand: u32,
    idx: u8,
    run: RunTag,
    profit: f64,
}

/// One processor of the message-passing scheduler.
pub(crate) struct ProcessorNode {
    public: Arc<PublicInfo>,
    descriptor: Arc<Descriptor>,
    /// The sub-run this node's demand belongs to (Primary for solo runs
    /// and the wide half; Narrow for the narrow half of a merged run).
    tag: RunTag,
    /// The run's raising rule (fixes δ, the β increment and the dual LHS
    /// form — taken from the shared `treenet-core` definitions).
    rule: RaiseRule,
    /// Per-instance state; instance `i`'s view is the arena's
    /// `of(me)[i]`.
    own: Vec<OwnInstance>,
    /// α of the own demand.
    alpha: f64,
    /// Every edge on an own path, sorted by `(network, edge)` and
    /// deduplicated, with its β and residual capacity.
    own_edges: Vec<OwnEdge>,
    /// What the node learned about its communication neighbors.
    slots: NeighborSlots,
    /// Deaths to announce in the next cleanup round.
    pending_died: Vec<u8>,
    /// Luby iteration counter within the current step.
    iteration: u64,
    /// MIS namespace tag of the current step.
    mis_namespace: u64,
    /// Current stage threshold `1 - ξ^j`.
    threshold: f64,
    /// Epoch of the current step.
    epoch: u32,
    /// Global index of the current step (phase-1 stack position).
    global_step: u32,
    /// Whether this node's demand already entered the solution.
    demand_used: bool,
    /// The own instance phase 2 selected, if any (at most one: a demand
    /// enters the solution at most once).
    selected: Option<InstanceId>,
    /// Per-tag termination-detection sweep state (every node relays both
    /// halves' sweeps).
    echo: [EchoState; 2],
    /// Prologue: own best `(leader, dist)` label, lexicographic minimum
    /// over everything heard so far; starts at `(me, 0)`.
    bfs_label: (u32, u32),
    /// Prologue: the smallest-id neighbor that offered the own label —
    /// the parent once the flood settles (meaningless at distance 0).
    bfs_via: u32,
    /// Prologue: whether the own label must be (re)broadcast.
    bfs_changed: bool,
    /// Combiner contributions collected at this node for the networks it
    /// leads, in arrival order (sorted canonically before folding).
    contributions: Vec<Contribution>,
    /// Per-network combine choices received (network → wide half wins).
    choices: Vec<(u32, bool)>,
    pub(crate) mode: Mode,
}

impl ProcessorNode {
    /// Builds the processor for demand `a` from the public inputs, its
    /// instance ids and its number of communication neighbors. Its
    /// instance views are the arena's entry for `a`.
    pub fn new(
        public: Arc<PublicInfo>,
        a: usize,
        ids: Vec<InstanceId>,
        degree: usize,
        rule: RaiseRule,
        tag: RunTag,
    ) -> Self {
        let views = public.arena.of(a);
        assert_eq!(
            views.len(),
            ids.len(),
            "canonical enumeration matches the problem"
        );
        assert!(
            views.len() <= MAX_INSTANCES,
            "at most {MAX_INSTANCES} instances per processor (mask width)"
        );
        let mut own_edges: Vec<OwnEdge> = views
            .iter()
            .flat_map(|view| {
                view.edges.iter().map(|e| OwnEdge {
                    key: (view.network.0, e.0),
                    beta: 0.0,
                    residual: 1.0,
                })
            })
            .collect();
        own_edges.sort_unstable_by_key(|e| e.key);
        own_edges.dedup_by_key(|e| e.key);
        let own = ids
            .into_iter()
            .map(|id| OwnInstance {
                id,
                state: MisState::Out,
                raised_at: Vec::new(),
            })
            .collect();
        let descriptor = Arc::clone(public.arena.descriptor(a));
        ProcessorNode {
            descriptor,
            tag,
            rule,
            own,
            alpha: 0.0,
            own_edges,
            slots: NeighborSlots::new(degree),
            pending_died: Vec::new(),
            iteration: 0,
            mis_namespace: 0,
            threshold: 0.0,
            epoch: 0,
            global_step: 0,
            demand_used: false,
            selected: None,
            echo: [EchoState::default(), EchoState::default()],
            bfs_label: (a as u32, 0),
            bfs_via: u32::MAX,
            bfs_changed: true,
            contributions: Vec::new(),
            choices: Vec::new(),
            mode: Mode::Setup,
            public,
        }
    }

    /// This node's index in the topology / convergecast forest.
    #[inline]
    fn me(&self) -> usize {
        self.descriptor.id.index()
    }

    /// The own instance views, in canonical order.
    #[inline]
    fn own_views(&self) -> &[InstView] {
        self.public.arena.of(self.me())
    }

    /// The slot of own path edge `(network, edge)`.
    ///
    /// # Panics
    ///
    /// Panics if the edge is on no own path.
    fn own_edge(&self, network: u32, edge: EdgeId) -> usize {
        edge_slot(&self.own_edges, network, edge).expect("own path edges are tracked")
    }

    /// The sub-run this node's demand belongs to.
    pub fn run_tag(&self) -> RunTag {
        self.tag
    }

    /// The dual LHS of own instance `i` — same summation order and form
    /// (`α + scale·Σβ`, with `scale = 1` for the unit rule and `h(d)`
    /// for the narrow rule) as the logical `DualState::lhs`, so the float
    /// result is bit-identical.
    fn lhs(&self, i: usize) -> f64 {
        let view = &self.own_views()[i];
        let beta_sum: f64 = view
            .edges
            .iter()
            .map(|&e| self.own_edges[self.own_edge(view.network.0, e)].beta)
            .sum();
        let scale = match self.rule {
            RaiseRule::Unit => 1.0,
            RaiseRule::Narrow => view.height,
        };
        self.alpha + scale * beta_sum
    }

    /// Satisfaction ratio of own instance `i`.
    pub fn satisfaction(&self, i: usize) -> f64 {
        self.lhs(i) / self.own_views()[i].profit
    }

    /// Whether any own instance belongs to epoch group `k` — the
    /// node-local pacing hint the driver reads between rounds (the same
    /// bit the `Active` broadcasts disseminate, audited by echo sweeps).
    pub fn has_group(&self, k: u32) -> bool {
        self.own_views().iter().any(|view| view.group == k)
    }

    /// Number of own group-`k` instances below `threshold`-satisfaction —
    /// the same predicate the announce round and [`Self::begin_echo`]
    /// use, so a sweep's verdict must reproduce the summed hints exactly.
    pub fn count_unsatisfied(&self, k: u32, threshold: f64) -> usize {
        let views = self.own_views();
        (0..views.len())
            .filter(|&i| {
                views[i].group == k && self.satisfaction(i) < threshold - SATISFACTION_GUARD
            })
            .count()
    }

    /// Whether any own instance is still undecided in the current MIS.
    pub fn has_active(&self) -> bool {
        self.own.iter().any(|inst| inst.state == MisState::Active)
    }

    /// The prologue's learned label: `(component leader id, hop
    /// distance)`. Final once `prologue_rounds(forest height)` engine
    /// rounds have run.
    pub fn bfs_label(&self) -> (u32, u32) {
        self.bfs_label
    }

    /// The prologue's local parent pick — the smallest-id neighbor one
    /// hop closer to the leader, the exact rule of
    /// [`ConvergecastForest::from_adjacency`] — or `None` for leaders.
    ///
    /// The intake keeps the minimum `(label, sender)` over every label
    /// offered, so this is the smallest-id neighbor whose final label is
    /// one hop closer: labels only improve and every improvement is
    /// broadcast, so a neighbor that ever offered `(root, dist - 1)` still
    /// holds it (a better label would have improved the own label too).
    pub fn bfs_parent(&self) -> Option<usize> {
        (self.bfs_label.1 > 0).then_some(self.bfs_via as usize)
    }

    /// Instances selected by phase 2 for this node's sub-run.
    pub fn selected(&self) -> &[InstanceId] {
        self.selected.as_slice()
    }

    /// The own instance index of selected instance `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not an own instance.
    fn own_index(&self, d: InstanceId) -> usize {
        self.own
            .iter()
            .position(|inst| inst.id == d)
            .expect("selected instances are own instances")
    }

    /// The selected instance, if it survives the in-network per-network
    /// combination: an instance on network `t` is kept iff the broadcast
    /// choice for `t` favors this node's half.
    ///
    /// # Panics
    ///
    /// Panics if a choice for the instance's network never arrived —
    /// impossible in a completed run, because a node with a selection on
    /// `t` is an accessor of `t` and therefore receives its leader's
    /// broadcast.
    pub fn combined_selected(&self) -> Option<InstanceId> {
        self.selected.filter(|&d| {
            let t = self.own_views()[self.own_index(d)].network.0;
            let wide_wins = self
                .choices
                .iter()
                .find(|(network, _)| *network == t)
                .map(|(_, w)| *w)
                .expect("combine choice arrived for the own selection's network");
            wide_wins == (self.tag == RunTag::Primary)
        })
    }

    /// The driver's sweep-start signal (public schedule only): snapshot
    /// the own contribution to the `run` sweep over epoch group `k` at
    /// `threshold`, and arm the echo layer. Called on **every** node —
    /// off-run nodes contribute zero but still relay.
    pub fn begin_echo(&mut self, run: RunTag, k: u32, threshold: f64) {
        let (unsatisfied, members) = if self.tag == run {
            let mut unsatisfied = 0u32;
            let mut members = false;
            for (i, view) in self.own_views().iter().enumerate() {
                if view.group == k {
                    members = true;
                    if self.satisfaction(i) < threshold - SATISFACTION_GUARD {
                        unsatisfied += 1;
                    }
                }
            }
            (unsatisfied, members)
        } else {
            (0, false)
        };
        let me = self.me();
        let forest = &self.public.forest;
        let state = &mut self.echo[run.index()];
        state.active = true;
        state.pending_children = forest.children(me).len();
        state.unsatisfied = unsatisfied;
        state.members = members;
        state.sent_up = false;
        state.announced_down = false;
        state.verdict = None;
        // Isolated processors are their own root: the verdict is local
        // and the sweep costs zero rounds and zero messages.
        if state.pending_children == 0 && forest.parent(me).is_none() {
            state.sent_up = true;
            state.verdict = Some((unsatisfied, members));
        }
    }

    /// The component verdict of the last `run` sweep, once the echo
    /// broadcast reached this node (roots know it first).
    pub fn echo_verdict(&self, run: RunTag) -> Option<(u32, bool)> {
        self.echo[run.index()].verdict
    }

    /// The driver's step-boundary signal (public schedule only).
    pub fn begin_step(&mut self, epoch: u32, mis_namespace: u64, threshold: f64, global_step: u32) {
        self.epoch = epoch;
        self.mis_namespace = mis_namespace;
        self.threshold = threshold;
        self.global_step = global_step;
        self.iteration = 0;
        self.slots.active.fill(0);
        self.pending_died.clear();
        for inst in &mut self.own {
            inst.state = MisState::Out;
        }
        self.mode = Mode::Announce;
    }

    /// Applies a raise announced by a neighbor: β on the raised instance's
    /// critical edges, restricted to the edges this node tracks. The β
    /// increment is re-derived from the broadcast δ and the public `|π|`
    /// via the shared `RaiseRule::beta_increment`, so it is bit-identical
    /// to the logical raise.
    fn apply_neighbor_raise(&mut self, neighbors: &[usize], node: usize, idx: u8, delta: f64) {
        let Some(view) = self.slots.view(&self.public.arena, neighbors, node, idx) else {
            return;
        };
        let beta_inc = self.rule.beta_increment(view.critical.len() as f64, delta);
        let network = view.network.0;
        for &e in &view.critical {
            if let Some(slot) = edge_slot(&self.own_edges, network, e) {
                self.own_edges[slot].beta += beta_inc;
            }
        }
    }

    /// Kills own active instances conflicting with a neighbor's MIS
    /// winner; the deaths are announced in the next cleanup round.
    fn kill_conflicting_with(&mut self, neighbors: &[usize], node: usize, idx: u8) {
        let arena = &self.public.arena;
        let Some(winner) = self.slots.view(arena, neighbors, node, idx) else {
            return;
        };
        let views = arena.of(self.me());
        for (i, inst) in self.own.iter_mut().enumerate() {
            if inst.state == MisState::Active && views[i].overlaps(winner) {
                inst.state = MisState::Dead;
                self.pending_died.push(i as u8);
            }
        }
    }

    /// Win test for own instance `i` against the frozen activity view —
    /// exactly the central `luby_mis`/`deterministic_mis` predicate.
    fn wins(&self, i: usize, neighbors: &[usize]) -> bool {
        let backend = self.public.backend;
        let (seed, tag, it) = (self.public.seed, self.mis_namespace, self.iteration);
        let views = self.own_views();
        let mine = &views[i];
        // Own siblings always conflict (same demand).
        for (j, other) in self.own.iter().enumerate() {
            if j != i
                && other.state == MisState::Active
                && !backend.beats(seed, tag, it, mine.key, views[j].key)
            {
                return false;
            }
        }
        // Active neighbor instances that overlap.
        for (k, &node) in neighbors.iter().enumerate() {
            let mut mask = self.slots.active[k];
            if mask == 0 {
                continue;
            }
            let theirs = self.slots.views(&self.public.arena, k, node);
            while mask != 0 {
                let view = &theirs[mask.trailing_zeros() as usize];
                mask &= mask - 1;
                if mine.overlaps(view) && !backend.beats(seed, tag, it, mine.key, view.key) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether `node`, the neighbor in slot `k`, showed an instance on
    /// network `t` in its descriptor.
    fn accesses(&self, k: usize, node: usize, t: u32) -> bool {
        self.slots
            .views(&self.public.arena, k, node)
            .iter()
            .any(|v| v.network.0 == t)
    }

    /// The leader of network `t`: the minimum demand id among `t`'s
    /// accessors. Computable locally by every accessor because accessors
    /// of a shared network are mutual communication neighbors, so their
    /// descriptors all arrived in the setup round.
    fn leader_of(&self, t: u32, neighbors: &[usize]) -> usize {
        let me = self.me();
        neighbors
            .iter()
            .enumerate()
            .find(|&(k, &node)| self.accesses(k, node, t))
            .map_or(me, |(_, &first)| first.min(me))
    }

    /// Always-on echo layer: relays convergecast reports and verdict
    /// broadcasts for both sub-run tags, independently of the compute
    /// mode (a node can relay the other half's sweep while running its
    /// own Luby iteration).
    fn echo_round(&mut self, ctx: &mut Context<'_, DistMsg>) {
        let me = self.me();
        let forest = &self.public.forest;
        for (index, run) in [(0usize, RunTag::Primary), (1, RunTag::Narrow)] {
            let state = &mut self.echo[index];
            if !state.active {
                continue;
            }
            if !state.sent_up && state.pending_children == 0 {
                state.sent_up = true;
                match forest.parent(me) {
                    Some(parent) => ctx.send(
                        parent,
                        DistMsg::EchoUp {
                            run,
                            unsatisfied: state.unsatisfied,
                            members: state.members,
                        },
                    ),
                    // Roots finalize the component verdict.
                    None => state.verdict = Some((state.unsatisfied, state.members)),
                }
            }
            if let Some((unsatisfied, members)) = state.verdict {
                if !state.announced_down {
                    state.announced_down = true;
                    for &child in forest.children(me) {
                        ctx.send(
                            child as usize,
                            DistMsg::EchoDown {
                                run,
                                unsatisfied,
                                members,
                            },
                        );
                    }
                }
            }
        }
    }

    fn round_setup(&mut self, ctx: &mut Context<'_, DistMsg>) {
        ctx.broadcast(DistMsg::Descriptor(Arc::clone(&self.descriptor)));
    }

    fn round_announce(&mut self, ctx: &mut Context<'_, DistMsg>) {
        let mut mask = 0u64;
        for i in 0..self.own.len() {
            if self.own_views()[i].group == self.epoch
                && self.satisfaction(i) < self.threshold - SATISFACTION_GUARD
            {
                self.own[i].state = MisState::Active;
                mask |= 1 << i;
            }
        }
        if mask != 0 {
            ctx.broadcast(DistMsg::Active {
                run: self.tag,
                mask,
            });
        }
    }

    fn round_luby_eval(&mut self, inbox: &[Envelope<DistMsg>], ctx: &mut Context<'_, DistMsg>) {
        for env in inbox {
            match &env.msg {
                DistMsg::Active { run, mask } if *run == self.tag => {
                    if let Some(k) = slot_of(ctx.neighbors(), env.from) {
                        let len = self.slots.views(&self.public.arena, k, env.from).len();
                        self.slots.active[k] |= mask & low_bits(len);
                    }
                }
                DistMsg::Died { run, idx } if *run == self.tag => {
                    self.deactivate(ctx.neighbors(), env.from, *idx);
                }
                _ => {}
            }
        }
        // Frozen-snapshot evaluation: collect all winners first (one bit
        // per own instance), then raise them in ascending order.
        let mut winners = 0u64;
        for i in 0..self.own.len() {
            if self.own[i].state == MisState::Active && self.wins(i, ctx.neighbors()) {
                winners |= 1 << i;
            }
        }
        let views = self.public.arena.of(self.me());
        while winners != 0 {
            let i = winners.trailing_zeros() as usize;
            winners &= winners - 1;
            let view = &views[i];
            self.own[i].state = MisState::InMis;
            self.own[i].raised_at.push(self.global_step);
            // The run's raising rule, via the shared definitions:
            // δ = slack/(|π|+1) (unit) or slack/(1+2h|π|²) (narrow).
            let slack = view.profit - self.lhs(i);
            let pi = view.critical.len() as f64;
            let delta = self.rule.delta_for(slack, view.height, pi);
            let beta_inc = self.rule.beta_increment(pi, delta);
            self.alpha += delta;
            // Critical edges lie on the own path.
            for &e in &view.critical {
                let slot = self.own_edge(view.network.0, e);
                self.own_edges[slot].beta += beta_inc;
            }
            ctx.broadcast(DistMsg::Joined {
                run: self.tag,
                idx: i as u8,
                delta,
            });
            // Siblings always conflict with a winner; they die now and
            // announce it in the cleanup round.
            for j in 0..self.own.len() {
                if j != i && self.own[j].state == MisState::Active {
                    self.own[j].state = MisState::Dead;
                    self.pending_died.push(j as u8);
                }
            }
        }
    }

    /// Marks neighbor `node`'s instance `idx` as out of the current MIS.
    fn deactivate(&mut self, neighbors: &[usize], node: usize, idx: u8) {
        if let Some(k) = slot_of(neighbors, node) {
            self.slots.active[k] &= !(1u64 << idx);
        }
    }

    fn round_luby_cleanup(&mut self, inbox: &[Envelope<DistMsg>], ctx: &mut Context<'_, DistMsg>) {
        for env in inbox {
            if let DistMsg::Joined { run, idx, delta } = env.msg {
                if run != self.tag {
                    continue;
                }
                let neighbors = ctx.neighbors();
                self.deactivate(neighbors, env.from, idx);
                self.apply_neighbor_raise(neighbors, env.from, idx, delta);
                self.kill_conflicting_with(neighbors, env.from, idx);
            }
        }
        // Drain without dropping the buffer's capacity.
        let mut died = std::mem::take(&mut self.pending_died);
        for &idx in &died {
            ctx.broadcast(DistMsg::Died { run: self.tag, idx });
        }
        died.clear();
        self.pending_died = died;
        self.iteration += 1;
    }

    fn round_pop(
        &mut self,
        step: u32,
        inbox: &[Envelope<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        let arena = &self.public.arena;
        for env in inbox {
            if let DistMsg::Selected { run, idx } = env.msg {
                if run != self.tag {
                    continue;
                }
                let Some(view) = self.slots.view(arena, ctx.neighbors(), env.from, idx) else {
                    continue;
                };
                for &e in &view.edges {
                    if let Some(slot) = edge_slot(&self.own_edges, view.network.0, e) {
                        self.own_edges[slot].residual -= view.height;
                    }
                }
            }
        }
        let views = arena.of(self.me());
        for (i, view) in views.iter().enumerate() {
            if !self.own[i].raised_at.contains(&step) {
                continue;
            }
            // The tracker's `fits` test on the locally tracked residuals.
            let network = view.network.0;
            let fits = !self.demand_used
                && view.edges.iter().all(|&e| {
                    self.own_edges[self.own_edge(network, e)].residual + treenet_model::EPS
                        >= view.height
                });
            if fits {
                self.demand_used = true;
                self.selected = Some(self.own[i].id);
                for &e in &view.edges {
                    let k = self.own_edge(network, e);
                    self.own_edges[k].residual -= view.height;
                }
                ctx.broadcast(DistMsg::Selected {
                    run: self.tag,
                    idx: i as u8,
                });
            }
        }
    }

    /// Combiner round 1: report the own selected instance (at most one —
    /// a demand enters the solution at most once) to the leader of its
    /// network; a self-led report is recorded directly.
    fn round_combine_report(&mut self, ctx: &mut Context<'_, DistMsg>) {
        let Some(d) = self.selected else {
            return;
        };
        let i = self.own_index(d);
        let view = &self.own_views()[i];
        let (t, profit) = (view.network.0, view.profit);
        let leader = self.leader_of(t, ctx.neighbors());
        if leader == self.me() {
            self.contributions.push(Contribution {
                network: t,
                demand: self.me() as u32,
                idx: i as u8,
                run: self.tag,
                profit,
            });
        } else {
            ctx.send(
                leader,
                DistMsg::CombineReport {
                    run: self.tag,
                    idx: i as u8,
                },
            );
        }
    }

    /// Combiner round 2 (leaders): collect the reports, fold the per-run
    /// profit sums **in ascending (demand, idx) order** — i.e. ascending
    /// instance id, the exact order of `Solution::selected` that the
    /// logical `combine_by_network` folds in — and broadcast each decided
    /// network's choice to its accessors.
    fn round_combine_decide(
        &mut self,
        inbox: &[Envelope<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        for env in inbox {
            if let DistMsg::CombineReport { run, idx } = env.msg {
                let Some(view) =
                    self.slots
                        .view(&self.public.arena, ctx.neighbors(), env.from, idx)
                else {
                    continue;
                };
                self.contributions.push(Contribution {
                    network: view.network.0,
                    demand: env.from as u32,
                    idx,
                    run,
                    profit: view.profit,
                });
            }
        }
        if self.contributions.is_empty() {
            return;
        }
        self.contributions
            .sort_unstable_by_key(|c| (c.network, c.demand, c.idx));
        let mut start = 0usize;
        while start < self.contributions.len() {
            let t = self.contributions[start].network;
            let mut end = start;
            let mut wide_profit = 0.0f64;
            let mut narrow_profit = 0.0f64;
            while end < self.contributions.len() && self.contributions[end].network == t {
                let c = self.contributions[end];
                match c.run {
                    RunTag::Primary => wide_profit += c.profit,
                    RunTag::Narrow => narrow_profit += c.profit,
                }
                end += 1;
            }
            let wide_wins = treenet_core::combine_decision(wide_profit, narrow_profit);
            self.choices.push((t, wide_wins));
            // Every accessor of t is a neighbor of its leader.
            for k in 0..ctx.neighbors().len() {
                let node = ctx.neighbors()[k];
                if !self.accesses(k, node, t) {
                    continue;
                }
                ctx.send(
                    node,
                    DistMsg::CombineChoice {
                        network: t,
                        wide_wins,
                    },
                );
            }
            start = end;
        }
    }

    /// Combiner round 3: record the broadcast per-network choices.
    fn round_combine_apply(&mut self, inbox: &[Envelope<DistMsg>]) {
        for env in inbox {
            if let DistMsg::CombineChoice { network, wide_wins } = env.msg {
                if !self.choices.iter().any(|(t, _)| *t == network) {
                    self.choices.push((network, wide_wins));
                }
            }
        }
    }
}

impl Protocol for ProcessorNode {
    type Msg = DistMsg;

    fn on_start(&mut self, _ctx: &mut Context<'_, DistMsg>) {}

    fn on_round(
        &mut self,
        _round: u64,
        inbox: &[Envelope<DistMsg>],
        ctx: &mut Context<'_, DistMsg>,
    ) {
        // Mode-independent intake: descriptors, the BFS prologue flood
        // and the echo layer's aggregates — every node relays the
        // control layers of both halves. Both the prologue and the echo
        // intake are min/sum folds, so inbox order is irrelevant by
        // construction.
        for env in inbox {
            match &env.msg {
                // The sender's views are the arena's entry for the
                // descriptor's demand: readable from now on.
                DistMsg::Descriptor(descriptor) => {
                    if let Some(k) = slot_of(ctx.neighbors(), descriptor.id.index()) {
                        self.slots.received[k] = true;
                    }
                }
                DistMsg::Bfs { root, dist } => {
                    let candidate = (*root, dist + 1);
                    let from = env.from as u32;
                    if candidate < self.bfs_label {
                        self.bfs_label = candidate;
                        self.bfs_via = from;
                        self.bfs_changed = true;
                    } else if candidate == self.bfs_label {
                        self.bfs_via = self.bfs_via.min(from);
                    }
                }
                DistMsg::EchoUp {
                    run,
                    unsatisfied,
                    members,
                } => {
                    let state = &mut self.echo[run.index()];
                    state.unsatisfied += unsatisfied;
                    state.members |= members;
                    state.pending_children = state.pending_children.saturating_sub(1);
                }
                DistMsg::EchoDown {
                    run,
                    unsatisfied,
                    members,
                } => {
                    self.echo[run.index()].verdict = Some((*unsatisfied, *members));
                }
                _ => {}
            }
        }
        // Prologue flood: (re)broadcast the own label on improvement.
        // Isolated processors broadcast to nobody, so they stay silent.
        if self.bfs_changed {
            self.bfs_changed = false;
            ctx.broadcast(DistMsg::Bfs {
                root: self.bfs_label.0,
                dist: self.bfs_label.1,
            });
        }
        self.echo_round(ctx);

        // Data-plane compute: every node participates in exactly one half.
        match self.mode.clone() {
            Mode::Setup => self.round_setup(ctx),
            Mode::Idle => {}
            Mode::Announce => self.round_announce(ctx),
            Mode::LubyEval => self.round_luby_eval(inbox, ctx),
            Mode::LubyCleanup => self.round_luby_cleanup(inbox, ctx),
            Mode::Pop(step) => self.round_pop(step, inbox, ctx),
            Mode::CombineReport => self.round_combine_report(ctx),
            Mode::CombineDecide => self.round_combine_decide(inbox, ctx),
            Mode::CombineApply => self.round_combine_apply(inbox),
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use treenet_model::workload::{LineWorkload, TreeWorkload};
    use treenet_model::Problem;

    use crate::{line_public, tree_public, DistConfig};

    /// Every arena entry equals [`PublicInfo::views`] of its demand's
    /// descriptor, field by field, and every node built over the arena
    /// reads its own views and descriptor from the arena's entry.
    fn assert_arena_is_spec(problem: &Problem, public: &Arc<PublicInfo>) {
        let arena = &public.arena;
        for a in problem.demands() {
            let descriptor = arena.descriptor(a.index());
            assert_eq!(descriptor.id, a);
            assert_eq!(descriptor.demand, *problem.demand(a));
            assert_eq!(descriptor.access, problem.access(a));
            let spec = public.views(descriptor);
            let memo = arena.of(a.index());
            assert_eq!(memo.len(), spec.len(), "demand {a:?}");
            assert_eq!(memo.len(), problem.instances_of(a).len(), "demand {a:?}");
            for (m, s) in memo.iter().zip(&spec) {
                assert_eq!(m.key, s.key);
                assert_eq!(m.network, s.network);
                assert_eq!(m.edges, s.edges);
                assert_eq!(m.sorted_edges, s.sorted_edges);
                assert_eq!(m.group, s.group);
                assert_eq!(m.critical, s.critical);
                assert_eq!(m.height.to_bits(), s.height.to_bits());
                assert_eq!(m.profit.to_bits(), s.profit.to_bits());
            }
            let node = ProcessorNode::new(
                Arc::clone(public),
                a.index(),
                problem.instances_of(a).to_vec(),
                0,
                RaiseRule::Unit,
                RunTag::Primary,
            );
            assert!(std::ptr::eq(node.own_views(), memo), "demand {a:?}");
            assert!(Arc::ptr_eq(&node.descriptor, descriptor), "demand {a:?}");
        }
    }

    #[test]
    fn tree_arena_matches_the_specification() {
        let problem = TreeWorkload::new(10, 12)
            .with_networks(3)
            .with_profit_ratio(4.0)
            .generate(&mut SmallRng::seed_from_u64(3));
        let (public, _) = tree_public(&problem, &DistConfig::default());
        assert_arena_is_spec(&problem, &public);
    }

    #[test]
    fn line_arena_matches_the_specification() {
        let problem = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(4));
        let (public, _) = line_public(&problem, &DistConfig::default());
        assert_arena_is_spec(&problem, &public);
    }

    #[test]
    fn window_arena_matches_the_specification() {
        let problem = LineWorkload::new(30, 12)
            .with_resources(2)
            .with_window_slack(4)
            .with_len_range(1, 8)
            .generate(&mut SmallRng::seed_from_u64(5));
        assert!(
            problem.demands().any(|a| problem.instances_of(a).len() > 2),
            "some demand has several window starts"
        );
        let (public, _) = line_public(&problem, &DistConfig::default());
        assert_arena_is_spec(&problem, &public);
        // The tree layering over the same lines derives the same paths.
        let (public, _) = tree_public(&problem, &DistConfig::default());
        assert_arena_is_spec(&problem, &public);
    }
}
