//! The unified world engine: host *fates* evolve cheaply every week,
//! host *material* (keys, certificates, address spaces, server cores)
//! materializes only on first probe contact.
//!
//! [`WorldCore`] holds one [`HostFate`] per roster id — a few dozen
//! bytes of class/address/event-log state — a published [`Layout`]
//! (who occupies which address: the seeded [`crate::spec::WorldSpec`]
//! permutation, an overlay map for churned addresses, each id's
//! liveness and port) and a memo of fully built [`HostDeployment`]s.
//! The eager path materializes every fate up front (exactly the
//! pre-lazy behavior); the lazy path registers a
//! [`netsim::HostResolver`] whose snapshots of the layout answer the
//! sweep's occupancy checks without a lock, and hosts are built the
//! moment a connection first reaches them. Because every
//! RNG-derived field is a pure function of `(seed, host id, week)`,
//! both paths produce byte-identical worlds — the equivalence tests in
//! the scanner crate diff full record streams to prove it.
//!
//! Weekly churn splits the same way: *decisions* (who departs, moves,
//! renews, upgrades, remediates) are drawn per `(seed, week, id,
//! event-kind)` and recorded as [`MaterialEvent`]s on the fate;
//! *application* of an event runs immediately for materialized hosts
//! and is replayed — through the same `apply_event` — when a host
//! materializes later. Per-week cost is O(population), independent of
//! the universe size.

use crate::evolution::{host_week_seed, parse_version, ChurnConfig, ChurnEvent, WeekChurn};
use crate::spec::{mix64, RefSpec, WorldSpec};
use crate::{
    bind_deployment, build_host, initial_version, pick_free_address, setup_registry, BuildParams,
    HostClass, HostDeployment, Population, PopulationConfig, SharedSecrets, Synthesizer,
    ACTUAL_KEY_BITS,
};
use netsim::{Cidr, HostLayout, HostResolver, Internet, Ipv4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
// ua-lint: allow(unordered-iteration) -- maps/sets here are key-lookup only; every iterated collection is a Vec or BTreeSet
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use ua_addrspace::ids;
use ua_crypto::{CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey};
use ua_server::{EndpointConfig, UserAccount};
use ua_types::{MessageSecurityMode, NodeId, SecurityPolicy, UserTokenType, Variant};

/// Per-event-kind RNG salts: each weekly decision draws from its own
/// stream so lazy replay never has to skip draws another decision
/// consumed.
const SALT_DEPART: u64 = 0x4445_5054;
const SALT_MOVE: u64 = 0x4D4F_5645;
const SALT_RENEW: u64 = 0x524E_5557;
const SALT_VERSION: u64 = 0x5645_5253;
const SALT_FIX: u64 = 0x4649_5821;
const SALT_REMED_KEY: u64 = 0x524B_4559;

fn event_rng(seed: u64, week: u32, id: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(host_week_seed(seed, week, id) ^ salt))
}

/// Certificate-serial slots inside a host's per-week serial window
/// (see [`serial_for`]).
const SLOT_RENEWAL: u64 = 0;
const SLOT_REMED: u64 = 1;

/// Certificate serial for a weekly event: host `id` owns the disjoint
/// serial space `[(id+1)e6, (id+2)e6)`; synthesis consumes the first
/// few, week `w` events use `base + 8w + slot`. Order-independent and
/// collision-free by construction.
fn serial_for(id: u64, week: u32, slot: u64) -> u64 {
    (id + 1) * 1_000_000 + (week as u64) * 8 + slot
}

/// True if synthesis gives this class an application-instance
/// certificate (mirrors `build_host` exactly).
fn class_has_certificate(class: HostClass) -> bool {
    !matches!(
        class,
        HostClass::WideOpen
            | HostClass::BrokenSession
            | HostClass::DiscoveryServer
            | HostClass::ChainedLds
    )
}

/// True if synthesis gives this class a mode-`None` endpoint (mirrors
/// `build_host` exactly).
fn class_offers_none(class: HostClass) -> bool {
    matches!(
        class,
        HostClass::WideOpen
            | HostClass::MixedLegacy
            | HostClass::BrokenSession
            | HostClass::DiscoveryServer
            | HostClass::ChainedLds
            | HostClass::HiddenServer
    )
}

/// RSA key generations `build_host` performs for this class.
fn class_keygens(class: HostClass) -> u64 {
    match class {
        HostClass::WideOpen
        | HostClass::ReusedCert
        | HostClass::BrokenSession
        | HostClass::DiscoveryServer
        | HostClass::ChainedLds => 0,
        _ => 1,
    }
}

/// Materialization telemetry: how much of the world a campaign
/// actually touched. In a lazy world `hosts_materialized` tracks
/// responsive hosts, never the universe size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializationStats {
    /// Hosts built and bound so far (first probe contacts).
    pub hosts_materialized: u64,
    /// RSA key generations performed (the dominant build cost).
    pub keygen_count: u64,
    /// Rough bytes resident in materialized host material right now.
    pub bytes_resident_estimate: u64,
    /// High-water mark of `bytes_resident_estimate`.
    pub peak_bytes_resident_estimate: u64,
}

/// Rough per-host residency: certificate DER, referral strings, and a
/// per-node constant for the served address space.
fn estimate_resident_bytes(dep: &HostDeployment) -> u64 {
    let cert = dep
        .config
        .certificate
        .as_ref()
        .map(|c| c.to_der().len() as u64)
        .unwrap_or(0);
    let refs: u64 = dep
        .config
        .referenced_endpoints
        .iter()
        .map(|u| u.len() as u64)
        .sum();
    512 + cert
        + refs
        + 96 * (dep.truth.variables + dep.truth.methods) as u64
        + if dep.config.private_key.is_some() {
            192
        } else {
            0
        }
}

/// What the overlay map says about an address the base permutation
/// no longer describes (churned addresses only).
#[derive(Debug, Clone, Copy)]
enum Occupancy {
    Occupied(u64),
    Vacated,
}

/// A weekly event that changes a host's *material* and must be
/// replayed when the host materializes after the fact.
#[derive(Debug, Clone)]
enum MaterialEvent {
    Moved { from: Ipv4, to: Ipv4 },
    Renewed { week: u32 },
    SetVersion { to: String },
    Remediated { week: u32, minted_cert: bool },
    Regressed,
}

/// The cheap per-host state the engine keeps for *every* host, built
/// or not: O(events) memory, no crypto material. Liveness and port
/// live in the [`Layout`].
#[derive(Debug, Clone)]
struct HostFate {
    class: HostClass,
    /// Address at deployment (what `build_host` sees; moves replay on
    /// top).
    initial_address: Ipv4,
    /// Current address.
    address: Ipv4,
    /// Current software version (decisions need it; material replay
    /// re-derives it from events).
    version: String,
    has_cert: bool,
    has_none: bool,
    deploy_week: u32,
    /// Week whose epoch the bound server core's clock carries — the
    /// last week the host was (re)bound in the eager path.
    last_rebind_week: u32,
    refs: Vec<RefSpec>,
    events: Vec<MaterialEvent>,
}

/// A roster id's entry in the [`Layout`].
#[derive(Debug, Clone, Copy)]
struct HostSlot {
    port: u16,
    alive: bool,
}

/// Who occupies which address: the week-0 permutation, the overlay of
/// churned addresses, and each host id's liveness and port. Published by
/// `WorldCore::new`, republished whole by `evolve_week` and never
/// mutated once published — it is the resolver's lock-free snapshot.
#[derive(Clone)]
struct Layout {
    spec: Arc<WorldSpec>,
    /// Address overrides on top of the week-0 permutation: only
    /// churned addresses appear here, so lookup stays O(1) with
    /// O(churn) memory.
    // ua-lint: allow(unordered-iteration) -- O(1) occupancy lookup by address, never iterated
    overlay: HashMap<u32, Occupancy>,
    hosts: Vec<HostSlot>,
    /// Cleared when the world is dropped: snapshots that outlive it
    /// answer "nothing there".
    live: Arc<AtomicBool>,
}

impl Layout {
    /// The living host occupying `addr`, if any — overlay first, then
    /// the week-0 permutation. O(1), no allocation, no lock.
    fn host_at(&self, addr: Ipv4) -> Option<u64> {
        match self.overlay.get(&addr.0) {
            Some(Occupancy::Occupied(id)) => Some(*id),
            Some(Occupancy::Vacated) => None,
            None => self.spec.host_at(addr).filter(|&id| self.is_alive(id)),
        }
    }

    fn is_alive(&self, id: u64) -> bool {
        self.hosts[id as usize].alive
    }

    fn port_of(&self, id: u64) -> u16 {
        self.hosts[id as usize].port
    }

    /// Ids of the living hosts, roster order.
    fn alive_ids(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.hosts.len() as u64).filter(|&id| self.is_alive(id))
    }
}

impl HostLayout for Layout {
    fn host_exists(&self, addr: Ipv4) -> bool {
        self.live.load(Ordering::Acquire) && self.host_at(addr).is_some()
    }

    fn has_listener(&self, addr: Ipv4, port: u16) -> bool {
        self.live.load(Ordering::Acquire)
            && self
                .host_at(addr)
                .is_some_and(|id| self.port_of(id) == port)
    }
}

/// The fate history behind the layout; only `evolve_week` changes it.
struct History {
    fates: Vec<HostFate>,
    /// Every address ever allocated (moves/arrivals must not recycle).
    // ua-lint: allow(unordered-iteration) -- membership checks only, never iterated
    used: HashSet<u32>,
    /// Epoch of each week seen so far (`week_nows[0]` = deployment).
    week_nows: Vec<i64>,
    arrival_cursor: usize,
}

/// The materialization memo and its stats.
struct CoreState {
    /// Materialized hosts by id (the memo behind the resolver).
    // ua-lint: allow(unordered-iteration) -- keyed memo: accessed by id lookup, never iterated
    deps: HashMap<u64, HostDeployment>,
    stats: MaterializationStats,
}

/// Lock-poisoning policy, centralized: a poisoned lock means a probe
/// worker panicked mid-materialization and the world may be
/// half-updated — propagating the panic is the only honest answer.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // ua-lint: allow(panic-hygiene) -- poisoned world state: a worker panicked; propagate it
    lock.read().expect("poisoned: a worker panicked")
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    // ua-lint: allow(panic-hygiene) -- poisoned world state: a worker panicked; propagate it
    lock.write().expect("poisoned: a worker panicked")
}

/// The engine shared by eager and lazy worlds. See the module docs.
///
/// Lock order: `history`, then `state`, then `layout`. Only
/// `evolve_week` holds more than one at a time.
pub(crate) struct WorldCore {
    net: Internet,
    seed: u64,
    sweep_port: u16,
    universe: Vec<Cidr>,
    shared: SharedSecrets,
    lazy: bool,
    history: RwLock<History>,
    state: RwLock<CoreState>,
    layout: RwLock<Arc<Layout>>,
    live: Arc<AtomicBool>,
}

impl Drop for WorldCore {
    fn drop(&mut self) {
        // Release pairs with the Acquire loads in `Layout`'s queries.
        self.live.store(false, Ordering::Release);
    }
}

impl WorldCore {
    pub(crate) fn new(net: &Internet, cfg: &PopulationConfig, lazy: bool) -> Arc<WorldCore> {
        let now = net.clock().now_unix_seconds();
        setup_registry(net, cfg);
        let spec = Arc::new(WorldSpec::new(cfg));
        let shared = SharedSecrets::generate(&mut Synthesizer::for_shared(cfg.seed), now);
        let mut fates = Vec::with_capacity(spec.len() as usize);
        let mut hosts = Vec::with_capacity(spec.len() as usize);
        // ua-lint: allow(unordered-iteration) -- membership checks only, never iterated
        let mut used = HashSet::new();
        for id in 0..spec.len() {
            let class = spec.class_of(id);
            let address = spec.address_of(id);
            used.insert(address.0);
            hosts.push(HostSlot {
                port: spec.port_of(id),
                alive: true,
            });
            fates.push(HostFate {
                class,
                initial_address: address,
                address,
                version: initial_version(cfg.seed, id),
                has_cert: class_has_certificate(class),
                has_none: class_offers_none(class),
                deploy_week: 0,
                last_rebind_week: 0,
                refs: spec.ref_specs(id),
                events: Vec::new(),
            });
        }
        let live = Arc::new(AtomicBool::new(true));
        let core = Arc::new(WorldCore {
            net: net.clone(),
            seed: cfg.seed,
            sweep_port: cfg.port,
            universe: cfg.universe.clone(),
            layout: RwLock::new(Arc::new(Layout {
                spec,
                // ua-lint: allow(unordered-iteration) -- lookup-only map (see field docs)
                overlay: HashMap::new(),
                hosts,
                live: Arc::clone(&live),
            })),
            shared,
            lazy,
            history: RwLock::new(History {
                fates,
                used,
                week_nows: vec![now],
                arrival_cursor: 0,
            }),
            state: RwLock::new(CoreState {
                // ua-lint: allow(unordered-iteration) -- lookup-only map (see field docs)
                deps: HashMap::new(),
                stats: MaterializationStats::default(),
            }),
            live,
        });
        if lazy {
            net.set_resolver(Arc::new(WorldResolver {
                core: Arc::downgrade(&core),
            }));
        } else {
            core.materialize_alive();
        }
        core
    }

    pub(crate) fn net(&self) -> &Internet {
        &self.net
    }

    /// The published layout (see [`Layout`]).
    fn layout(&self) -> Arc<Layout> {
        Arc::clone(&read(&self.layout))
    }

    pub(crate) fn stats(&self) -> MaterializationStats {
        read(&self.state).stats
    }

    pub(crate) fn roster_len(&self) -> usize {
        self.layout().hosts.len()
    }

    pub(crate) fn alive_count(&self) -> usize {
        self.layout().alive_ids().count()
    }

    /// Ensures host `id` is built and bound. Builds run outside the
    /// state lock (they are pure, so a racing double-build is just
    /// discarded); bind + memo insert happen atomically under it.
    pub(crate) fn materialize(&self, id: u64) {
        if read(&self.state).deps.contains_key(&id) {
            return;
        }
        let (dep, keygens, bind_now) = self.build_current(id);
        let mut st = write(&self.state);
        if st.deps.contains_key(&id) {
            return;
        }
        let bytes = estimate_resident_bytes(&dep);
        st.stats.hosts_materialized += 1;
        st.stats.keygen_count += keygens;
        st.stats.bytes_resident_estimate += bytes;
        st.stats.peak_bytes_resident_estimate = st
            .stats
            .peak_bytes_resident_estimate
            .max(st.stats.bytes_resident_estimate);
        bind_deployment(&self.net, &dep, bind_now);
        st.deps.insert(id, dep);
    }

    /// Builds host `id` in its *current* state: `build_host` at the
    /// deployment address/epoch, then every recorded event replayed in
    /// order. Returns the deployment, the keygens performed, and the
    /// epoch its server core binds at.
    fn build_current(&self, id: u64) -> (HostDeployment, u64, i64) {
        let layout = self.layout();
        let (fate, referenced, week_nows) = {
            let history = read(&self.history);
            (
                history.fates[id as usize].clone(),
                self.render_refs(&history, &layout, id),
                history.week_nows.clone(),
            )
        };
        let mut syn = Synthesizer::for_host(self.seed, id);
        let mut dep = build_host(
            &mut syn,
            &self.shared,
            BuildParams {
                class: fate.class,
                address: fate.initial_address,
                port: layout.port_of(id),
                referenced,
                id,
                seed: self.seed,
                now: week_nows[fate.deploy_week as usize],
            },
        );
        let mut keygens = class_keygens(fate.class);
        for ev in &fate.events {
            keygens += apply_event(&mut dep, ev, id, &week_nows, &self.shared, self.seed);
        }
        (dep, keygens, week_nows[fate.last_rebind_week as usize])
    }

    /// Renders a host's symbolic referrals to URLs from *current*
    /// addresses — identical to the eager path's rewrite-on-move end
    /// state, since vacated addresses are never recycled.
    fn render_refs(&self, history: &History, layout: &Layout, id: u64) -> Vec<String> {
        let fate = &history.fates[id as usize];
        let port = layout.port_of(id);
        fate.refs
            .iter()
            .map(|r| match r {
                RefSpec::Host(j) => {
                    let address = history.fates[*j as usize].address;
                    format!("opc.tcp://{address}:{}/", layout.port_of(*j))
                }
                RefSpec::SelfNonCanonical => format!("OPC.TCP://{}:{port}", fate.address),
                RefSpec::DeadPort => {
                    format!("opc.tcp://{}:{}/", fate.address, self.sweep_port + 90)
                }
                RefSpec::Unresolvable => {
                    format!("opc.tcp://plant-lds-{id}.internal:{}/", self.sweep_port)
                }
            })
            .collect()
    }

    /// Materializes every living host (ground-truth APIs need the full
    /// fleet; in a lazy world call this only when you mean to pay for
    /// it).
    pub(crate) fn materialize_alive(&self) {
        let layout = self.layout();
        let pending: Vec<u64> = {
            let st = read(&self.state);
            layout
                .alive_ids()
                .filter(|id| !st.deps.contains_key(id))
                .collect()
        };
        for id in pending {
            self.materialize(id);
        }
    }

    /// Current deployments of every living host, roster order.
    /// Materializes the fleet first.
    pub(crate) fn alive_deps(&self) -> Vec<HostDeployment> {
        self.materialize_alive();
        let layout = self.layout();
        let st = read(&self.state);
        layout.alive_ids().map(|id| st.deps[&id].clone()).collect()
    }

    pub(crate) fn population(&self) -> Population {
        Population {
            hosts: self.alive_deps().iter().map(|d| d.truth.clone()).collect(),
            universe: self.universe.clone(),
        }
    }

    /// One week of churn: decisions from per-event salted RNGs, fates
    /// updated for everyone, material applied live for materialized
    /// hosts and logged for replay otherwise. Ends by publishing the
    /// week's layout.
    pub(crate) fn evolve_week(&self, week: u32, churn: &ChurnConfig) -> WeekChurn {
        let now = self.net.clock().now_unix_seconds();
        let mut history = write(&self.history);
        let mut st = write(&self.state);
        let mut layout = Layout::clone(&self.layout());
        let h = &mut *history;
        debug_assert_eq!(h.week_nows.len() as u32, week, "weeks must be consecutive");
        h.week_nows.push(now);
        let week_nows = h.week_nows.clone();
        let mut log = WeekChurn {
            week,
            events: Vec::new(),
        };
        let mut rebind: BTreeSet<u64> = BTreeSet::new();
        // ua-lint: allow(unordered-iteration) -- membership checks only, never iterated
        let mut moved_ids: HashSet<u64> = HashSet::new();

        for idx in 0..h.fates.len() {
            let id = idx as u64;
            if !layout.is_alive(id) {
                continue;
            }
            let class = h.fates[idx].class;
            let lds_like = matches!(class, HostClass::DiscoveryServer | HostClass::ChainedLds);

            if !lds_like && event_rng(self.seed, week, id, SALT_DEPART).gen_bool(churn.departure) {
                let addr = h.fates[idx].address;
                layout.overlay.insert(addr.0, Occupancy::Vacated);
                layout.hosts[idx].alive = false;
                if let Some(dep) = st.deps.remove(&id) {
                    self.net.remove_host(addr);
                    st.stats.bytes_resident_estimate = st
                        .stats
                        .bytes_resident_estimate
                        .saturating_sub(estimate_resident_bytes(&dep));
                }
                log.events.push((id, ChurnEvent::Departed));
                continue;
            }

            let mut mrng = event_rng(self.seed, week, id, SALT_MOVE);
            if mrng.gen_bool(churn.ip_move) {
                let from = h.fates[idx].address;
                let to = pick_free_address(&mut mrng, &self.universe, &mut h.used);
                layout.overlay.insert(from.0, Occupancy::Vacated);
                layout.overlay.insert(to.0, Occupancy::Occupied(id));
                h.fates[idx].address = to;
                h.fates[idx].last_rebind_week = week;
                let ev = MaterialEvent::Moved { from, to };
                if let Some(dep) = st.deps.get_mut(&id) {
                    self.net.remove_host(from);
                    apply_event(dep, &ev, id, &week_nows, &self.shared, self.seed);
                    rebind.insert(id);
                }
                h.fates[idx].events.push(ev);
                moved_ids.insert(id);
                log.events.push((id, ChurnEvent::Moved { from }));
            }

            if h.fates[idx].has_cert
                && event_rng(self.seed, week, id, SALT_RENEW).gen_bool(churn.renewal)
            {
                let ev = MaterialEvent::Renewed { week };
                h.fates[idx].last_rebind_week = week;
                if let Some(dep) = st.deps.get_mut(&id) {
                    apply_event(dep, &ev, id, &week_nows, &self.shared, self.seed);
                    rebind.insert(id);
                }
                h.fates[idx].events.push(ev);
                log.events.push((id, ChurnEvent::RenewedCert));
            }

            if let Some((major, minor, patch)) = parse_version(&h.fates[idx].version) {
                let mut vrng = event_rng(self.seed, week, id, SALT_VERSION);
                let to = if vrng.gen_bool(churn.upgrade) {
                    // Mostly patch bumps, occasionally a minor release.
                    Some(if vrng.gen_bool(0.25) {
                        format!("{major}.{}.0", minor + 1)
                    } else {
                        format!("{major}.{minor}.{}", patch + 1)
                    })
                } else if patch > 0 && vrng.gen_bool(churn.downgrade) {
                    Some(format!("{major}.{minor}.{}", patch - 1))
                } else {
                    None
                };
                if let Some(to) = to {
                    let from = h.fates[idx].version.clone();
                    let upgraded = parse_version(&to) > parse_version(&from);
                    h.fates[idx].version = to.clone();
                    h.fates[idx].last_rebind_week = week;
                    let ev = MaterialEvent::SetVersion { to: to.clone() };
                    if let Some(dep) = st.deps.get_mut(&id) {
                        apply_event(dep, &ev, id, &week_nows, &self.shared, self.seed);
                        rebind.insert(id);
                    }
                    h.fates[idx].events.push(ev);
                    let event = if upgraded {
                        ChurnEvent::Upgraded { from, to }
                    } else {
                        ChurnEvent::Downgraded { from, to }
                    };
                    log.events.push((id, event));
                }
            }

            if !lds_like {
                let mut frng = event_rng(self.seed, week, id, SALT_FIX);
                if h.fates[idx].has_none && frng.gen_bool(churn.remediation) {
                    let minted_cert = !h.fates[idx].has_cert;
                    h.fates[idx].has_none = false;
                    h.fates[idx].has_cert = true;
                    h.fates[idx].last_rebind_week = week;
                    let ev = MaterialEvent::Remediated { week, minted_cert };
                    if let Some(dep) = st.deps.get_mut(&id) {
                        let minted = apply_event(dep, &ev, id, &week_nows, &self.shared, self.seed);
                        st.stats.keygen_count += minted;
                        rebind.insert(id);
                    }
                    h.fates[idx].events.push(ev);
                    log.events.push((id, ChurnEvent::Remediated));
                } else if !h.fates[idx].has_none && frng.gen_bool(churn.regression) {
                    h.fates[idx].has_none = true;
                    h.fates[idx].last_rebind_week = week;
                    let ev = MaterialEvent::Regressed;
                    if let Some(dep) = st.deps.get_mut(&id) {
                        apply_event(dep, &ev, id, &week_nows, &self.shared, self.seed);
                        rebind.insert(id);
                    }
                    h.fates[idx].events.push(ev);
                    log.events.push((id, ChurnEvent::Regressed));
                }
            }
        }

        // Arrivals: expected count is a fraction of the (post-departure)
        // living population, rounded stochastically but deterministically.
        let alive_now = layout.alive_ids().count();
        let mut arrivals_rng = StdRng::seed_from_u64(host_week_seed(self.seed, week, u64::MAX));
        let expected = alive_now as f64 * churn.arrival;
        let mut n = expected.floor() as usize;
        if expected.fract() > 0.0 && arrivals_rng.gen_bool(expected.fract()) {
            n += 1;
        }
        let mut arrived: Vec<u64> = Vec::new();
        for _ in 0..n {
            let class = crate::evolution::ARRIVAL_CLASSES
                [h.arrival_cursor % crate::evolution::ARRIVAL_CLASSES.len()];
            h.arrival_cursor += 1;
            let id = h.fates.len() as u64;
            let address = pick_free_address(&mut arrivals_rng, &self.universe, &mut h.used);
            layout.overlay.insert(address.0, Occupancy::Occupied(id));
            layout.hosts.push(HostSlot {
                port: self.sweep_port,
                alive: true,
            });
            h.fates.push(HostFate {
                class,
                initial_address: address,
                address,
                version: initial_version(self.seed, id),
                has_cert: class_has_certificate(class),
                has_none: class_offers_none(class),
                deploy_week: week,
                last_rebind_week: week,
                refs: Vec::new(),
                events: Vec::new(),
            });
            arrived.push(id);
            log.events.push((id, ChurnEvent::Arrived { class }));
        }

        // Re-registration: every live FindServers answer naming a moved
        // host re-renders from current addresses (covers an LDS's own
        // non-canonical self-referral and dead decoy port too — they
        // embed the host's address textually).
        if !moved_ids.is_empty() {
            for idx in 0..h.fates.len() {
                let id = idx as u64;
                if !layout.is_alive(id) || h.fates[idx].refs.is_empty() {
                    continue;
                }
                let own_moved = moved_ids.contains(&id);
                let mentions = h.fates[idx].refs.iter().any(|r| match r {
                    RefSpec::Host(j) => moved_ids.contains(j),
                    RefSpec::SelfNonCanonical | RefSpec::DeadPort => own_moved,
                    RefSpec::Unresolvable => false,
                });
                if mentions {
                    h.fates[idx].last_rebind_week = week;
                    let urls = st
                        .deps
                        .contains_key(&id)
                        .then(|| self.render_refs(h, &layout, id));
                    if let (Some(urls), Some(dep)) = (urls, st.deps.get_mut(&id)) {
                        dep.config.referenced_endpoints = urls;
                        rebind.insert(id);
                    }
                }
            }
        }

        for id in rebind {
            if layout.is_alive(id) {
                if let Some(dep) = st.deps.get(&id) {
                    bind_deployment(&self.net, dep, now);
                }
            }
        }
        *write(&self.layout) = Arc::new(layout);
        drop(st);
        drop(history);

        // Eager worlds bind arrivals immediately; lazy worlds leave
        // them to first probe contact.
        if !self.lazy {
            for id in arrived {
                self.materialize(id);
            }
        }
        log
    }
}

/// Applies one material event to a built deployment. Shared verbatim
/// by the live path (eager worlds, already-materialized lazy hosts)
/// and lazy replay — the byte-identity of the two paths rests on this
/// being the only implementation. Returns keygens performed.
fn apply_event(
    dep: &mut HostDeployment,
    ev: &MaterialEvent,
    id: u64,
    week_nows: &[i64],
    shared: &SharedSecrets,
    seed: u64,
) -> u64 {
    match ev {
        MaterialEvent::Moved { from, to, .. } => {
            dep.truth.address = *to;
            let old_pat = format!("://{from}:");
            let new_pat = format!("://{to}:");
            dep.config.endpoint_url = dep.config.endpoint_url.replace(&old_pat, &new_pat);
            0
        }
        MaterialEvent::Renewed { week } => {
            let now = week_nows[*week as usize];
            let old = dep
                .config
                .certificate
                .as_ref()
                // ua-lint: allow(panic-hygiene) -- renewal events are only recorded for cert-bearing fates
                .expect("renewal requires a certificate");
            let subject = old.tbs.subject.clone();
            let hash = old.signature_hash();
            let key = dep
                .config
                .private_key
                .clone()
                // ua-lint: allow(panic-hygiene) -- build_host always pairs a certificate with its key
                .expect("certificate hosts carry their key");
            let builder = CertificateBuilder::new(subject)
                .serial(serial_for(id, *week, SLOT_RENEWAL))
                .validity(now - 86_400, now + 3 * 365 * 86_400)
                .application_uri(&dep.truth.application_uri);
            // CA customers renew through their CA; everyone else
            // re-self-signs. Hash and key are kept, so a weak
            // certificate renews weak — §6 saw exactly that.
            let cert = if dep.truth.class == HostClass::SecureCa {
                builder.issued_by(
                    hash,
                    DistinguishedName::new("Sim Root CA", "Sim Trust Services"),
                    &shared.ca_key,
                    &key.public,
                )
            } else {
                builder.self_signed(hash, &key)
            };
            dep.truth.cert_thumbprint = Some(cert.thumbprint());
            dep.config.certificate = Some(cert);
            0
        }
        MaterialEvent::SetVersion { to, .. } => {
            dep.config.software_version = to.clone();
            if let Some(node) = dep
                .space
                .get_mut(&NodeId::numeric(0, ids::SERVER_SOFTWARE_VERSION))
            {
                node.value = Some(Variant::String(Some(to.clone())));
            }
            0
        }
        MaterialEvent::Remediated { week, minted_cert } => {
            let now = week_nows[*week as usize];
            dep.config
                .endpoints
                .retain(|e| e.mode != MessageSecurityMode::None);
            if dep.config.endpoints.is_empty() {
                dep.config.endpoints.push(EndpointConfig::new(
                    MessageSecurityMode::SignAndEncrypt,
                    SecurityPolicy::Basic256Sha256,
                ));
            }
            if *minted_cert {
                // Going secure requires an application-instance
                // certificate the host never had.
                let mut rng = event_rng(seed, *week, id, SALT_REMED_KEY);
                let key = RsaPrivateKey::generate(&mut rng, ACTUAL_KEY_BITS, 2048);
                let serial = serial_for(id, *week, SLOT_REMED);
                let cert = CertificateBuilder::new(DistinguishedName::new(
                    format!("dev-{serial}"),
                    dep.truth.vendor,
                ))
                .serial(serial)
                .validity(now - 86_400, now + 4 * 365 * 86_400)
                .application_uri(&dep.truth.application_uri)
                .self_signed(HashAlgorithm::Sha256, &key);
                dep.truth.cert_thumbprint = Some(cert.thumbprint());
                dep.config.certificate = Some(cert);
                dep.config.private_key = Some(key);
            }
            dep.config
                .token_types
                .retain(|t| *t != UserTokenType::Anonymous);
            if dep.config.token_types.is_empty() {
                dep.config.token_types.push(UserTokenType::UserName);
            }
            if dep.config.users.is_empty() {
                dep.config.users.push(UserAccount {
                    name: "operator".into(),
                    password: format!("pw-{id}"),
                });
            }
            u64::from(*minted_cert)
        }
        MaterialEvent::Regressed => {
            dep.config.endpoints.push(EndpointConfig::none());
            if !dep.config.token_types.contains(&UserTokenType::Anonymous) {
                dep.config.token_types.insert(0, UserTokenType::Anonymous);
            }
            0
        }
    }
}

/// The [`HostResolver`] a lazy [`WorldCore`] installs on its Internet.
/// Holds the core weakly: when the world is dropped, the resolver
/// answers "nothing there" instead of leaking the engine — new
/// snapshots through the failed upgrade, snapshots already handed out
/// through the layout's liveness flag.
struct WorldResolver {
    core: Weak<WorldCore>,
}

impl HostResolver for WorldResolver {
    fn layout(&self) -> Option<Arc<dyn HostLayout>> {
        self.core
            .upgrade()
            .map(|core| core.layout() as Arc<dyn HostLayout>)
    }

    fn materialize(&self, _net: &Internet, addr: Ipv4) {
        if let Some(core) = self.core.upgrade() {
            if let Some(id) = core.layout().host_at(addr) {
                core.materialize(id);
            }
        }
    }
}

/// A population deployed *lazily*: nothing is built until a probe
/// actually reaches a host.
///
/// `deploy` derives the week-0 world as a pure specification (classes,
/// ports, addresses, referral wiring) and installs an O(1) occupancy
/// resolver on `net` — the universe can hold millions of addresses
/// without allocating anything per address or per host. A sweep's SYN
/// probes answer from the seeded predicate; the first full connection
/// to a host runs `build_host` for exactly that host and binds it,
/// after which the regular service table serves it. Byte-identical to
/// [`crate::synthesize`] at any scanner worker count.
///
/// For a lazily deployed *evolving* world, see
/// [`crate::EvolvingWorld::new_lazy`].
///
/// ```
/// use netsim::{Internet, VirtualClock};
/// use population::{LazyWorld, PopulationConfig, StrataMix};
///
/// let net = Internet::new(VirtualClock::default());
/// let cfg = PopulationConfig::new(
///     7,
///     vec!["10.0.0.0/16".parse().unwrap()], // 65k addresses…
///     StrataMix::paper_like(30),            // …30 hosts
/// );
/// let world = LazyWorld::deploy(&net, &cfg);
/// assert_eq!(world.len(), 30);
/// // Nothing is built yet — SYN-level occupancy is pure arithmetic.
/// assert_eq!(world.stats().hosts_materialized, 0);
/// ```
pub struct LazyWorld {
    core: Arc<WorldCore>,
}

impl LazyWorld {
    /// Registers the lazy world for `cfg` on `net`, which must not
    /// carry another world's resolver. No host material is built.
    pub fn deploy(net: &Internet, cfg: &PopulationConfig) -> LazyWorld {
        LazyWorld {
            core: WorldCore::new(net, cfg, true),
        }
    }

    /// Number of hosts in the population (cheap; nothing materializes).
    pub fn len(&self) -> usize {
        self.core.roster_len()
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialization telemetry so far.
    pub fn stats(&self) -> MaterializationStats {
        self.core.stats()
    }

    /// Ground truth of the full population. **Materializes every
    /// host** — this is the audit/validation exit, not the fast path.
    pub fn population(&self) -> Population {
        self.core.population()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnConfig, EvolvingWorld, StrataMix};
    use netsim::{ConnectError, VirtualClock};

    const EPOCH: u64 = 1_581_206_400;
    const WEEK_MICROS: u64 = 7 * 86_400 * 1_000_000;
    const SCANNER: Ipv4 = Ipv4(0xC000_0201); // 192.0.2.1

    fn config(seed: u64) -> PopulationConfig {
        PopulationConfig::new(
            seed,
            vec!["10.0.0.0/20".parse().unwrap()],
            StrataMix::paper_like(40),
        )
    }

    fn addresses(cfg: &PopulationConfig) -> Vec<Ipv4> {
        let universe = cfg.universe[0];
        (0..universe.size() as u32)
            .map(|i| Ipv4(universe.base.0 + i))
            .collect()
    }

    /// Every port a planted host may listen on, plus one none does.
    fn ports(cfg: &PopulationConfig) -> Vec<u16> {
        (cfg.port..=cfg.port + 10).chain([80]).collect()
    }

    /// Per address: does a host exist, and which of `ports` listen.
    type Answers = Vec<(bool, Vec<bool>)>;

    fn answers(net: &Internet, addrs: &[Ipv4], ports: &[u16]) -> Answers {
        addrs
            .iter()
            .map(|&addr| {
                let listening = ports.iter().map(|&p| net.has_listener(addr, p)).collect();
                (net.host_exists(addr), listening)
            })
            .collect()
    }

    /// Walks the universe through one occupancy snapshot, as a sweep
    /// shard does, and checks every answer against the eager oracle.
    fn sweep_matches(net: &Internet, addrs: &[Ipv4], ports: &[u16], oracle: &Answers) {
        let occupancy = net.occupancy();
        for (&addr, (exists, listening)) in addrs.iter().zip(oracle) {
            assert_eq!(net.host_exists(addr), *exists, "host_exists({addr})");
            for (&port, &want) in ports.iter().zip(listening) {
                assert_eq!(occupancy.has_listener(addr, port), want, "{addr}:{port}");
            }
        }
    }

    #[test]
    fn lazy_occupancy_matches_the_eager_world_every_week() {
        let cfg = config(4242);
        let churn = ChurnConfig {
            ip_move: 0.15,
            departure: 0.08,
            arrival: 0.1,
            ..ChurnConfig::default()
        };
        let eager_net = Internet::new(VirtualClock::starting_at(EPOCH));
        let lazy_net = Internet::new(VirtualClock::starting_at(EPOCH));
        let mut eager = EvolvingWorld::new(&eager_net, &cfg, churn.clone());
        let mut lazy = EvolvingWorld::new_lazy(&lazy_net, &cfg, churn);
        let (addrs, ports) = (addresses(&cfg), ports(&cfg));

        for week in 0..=6 {
            if week > 0 {
                for net in [&eager_net, &lazy_net] {
                    net.clock().advance_micros(WEEK_MICROS);
                }
                let planted = format!("{:?}", eager.evolve(week));
                assert_eq!(format!("{:?}", lazy.evolve(week)), planted, "week {week}");
            }
            let oracle = answers(&eager_net, &addrs, &ports);
            assert_eq!(answers(&lazy_net, &addrs, &ports), oracle, "week {week}");

            // Two sweep shards check the universe while a third thread
            // materializes every other listening host.
            let targets: Vec<(Ipv4, u16)> = addrs
                .iter()
                .zip(&oracle)
                .flat_map(|(&addr, (_, listening))| {
                    let open = ports.iter().zip(listening).filter(|(_, &l)| l);
                    open.map(move |(&port, _)| (addr, port))
                })
                .step_by(2)
                .collect();
            assert!(!targets.is_empty(), "week {week}: nobody listens");
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    for &(addr, port) in &targets {
                        assert!(
                            lazy_net.connect(SCANNER, addr, port).is_ok(),
                            "{addr}:{port}"
                        );
                    }
                });
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        sweep_matches(&lazy_net, &addrs, &ports, &oracle)
                    });
                }
            });
            sweep_matches(&lazy_net, &addrs, &ports, &oracle);
        }
        let history = eager.history();
        assert!(history.iter().any(|w| w.moves() > 0), "no move planted");
        assert!(history.iter().any(|w| w.departures() > 0), "no departure");
        assert!(history.iter().any(|w| w.arrivals() > 0), "no arrival");
    }

    /// Once its world is dropped, a lazy Internet reports nothing at any
    /// address the world never materialized — through new queries and
    /// through a snapshot taken while the world was alive.
    #[test]
    fn dropped_lazy_world_answers_nothing_there() {
        let cfg = config(11);
        for weeks in [0, 3] {
            let net = Internet::new(VirtualClock::starting_at(EPOCH));
            let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
            for week in 1..=weeks {
                net.clock().advance_micros(WEEK_MICROS);
                world.evolve(week);
            }
            let listening: Vec<Ipv4> = addresses(&cfg)
                .into_iter()
                .filter(|&a| net.has_listener(a, cfg.port))
                .collect();
            assert!(!listening.is_empty(), "weeks {weeks}");
            assert_eq!(world.stats().hosts_materialized, 0);
            let snapshot = net.occupancy();
            drop(world);
            for &addr in &listening {
                assert!(!net.host_exists(addr), "{addr}");
                assert!(!net.has_listener(addr, cfg.port), "{addr}");
                assert!(!snapshot.has_listener(addr, cfg.port), "{addr}");
            }
            assert_eq!(
                net.connect(SCANNER, listening[0], cfg.port).err(),
                Some(ConnectError::NoRoute)
            );
            assert_eq!(net.host_count(), 0);
        }
    }
}
