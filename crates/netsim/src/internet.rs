//! The simulated IPv4 Internet: hosts, listeners, and connections.
//!
//! Smoltcp-style poll-driven design: a server registers a [`Service`]
//! factory on `(ip, port)`; each accepted connection is a byte-level
//! state machine ([`Connection`]) that consumes client bytes and emits
//! reply bytes. No threads, no async runtime — determinism first.

use crate::asn::AsRegistry;
use crate::cidr::Ipv4;
use crate::clock::VirtualClock;
use crate::faults::{ConnectFate, CutConn, NetProfile, ProfileProvider, TarpitConn};
use crate::stream::TcpStreamSim;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What a connection state machine produced for one input.
#[derive(Debug, Default)]
pub struct ConnectionOutput {
    /// Bytes to deliver back to the peer.
    pub reply: Vec<u8>,
    /// True when the server closes the connection after this reply.
    pub close: bool,
}

impl ConnectionOutput {
    /// Reply without closing.
    pub fn reply(bytes: Vec<u8>) -> Self {
        ConnectionOutput {
            reply: bytes,
            close: false,
        }
    }

    /// Reply and close.
    pub fn close_with(bytes: Vec<u8>) -> Self {
        ConnectionOutput {
            reply: bytes,
            close: true,
        }
    }

    /// No output, keep open.
    pub fn empty() -> Self {
        Self::default()
    }
}

/// A per-connection byte-level state machine.
pub trait Connection: Send {
    /// Feeds bytes received from the peer.
    fn on_data(&mut self, data: &[u8]) -> ConnectionOutput;
}

/// A listener that accepts connections.
pub trait Service: Send + Sync {
    /// Opens a new connection state machine for an accepted client.
    fn open_connection(&self, peer: Ipv4) -> Box<dyn Connection>;
}

/// Why a connect attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// No host answers at this address (SYN timeout).
    NoRoute,
    /// Host exists but nothing listens on the port (RST).
    Refused,
    /// A rate-limiting middlebox dropped the SYN and penalized the
    /// source — the scan-detection signature a retry layer should back
    /// off on (see [`crate::faults::FirewallProfile`]).
    Throttled,
    /// The peer accepted and then stalled without ever sending a byte
    /// (a silent tarpit): the connect burned the stall budget and never
    /// yielded a usable stream.
    Stalled,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::NoRoute => write!(f, "no route to host (timeout)"),
            ConnectError::Refused => write!(f, "connection refused"),
            ConnectError::Throttled => write!(f, "rate-limited (SYN dropped by middlebox)"),
            ConnectError::Stalled => write!(f, "accepted then stalled (tarpit)"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// How long a scanner waits for silence before declaring a SYN dead —
/// the virtual cost [`Internet::connect`] charges on [`ConnectError::NoRoute`].
pub const SYN_TIMEOUT_MICROS: u64 = 1_000_000;

/// Fallback latency hint for hosts the resolver knows but the bound
/// table has never seen: their true RTT is decided at materialization,
/// so a non-blocking poll can only guess. Scheduling-only — the hint
/// never reaches a record.
const DEFAULT_RTT_HINT_MICROS: u64 = 10_000;

/// The *predicted* outcome of a connect, answered without blocking,
/// without advancing any clock, and without materializing lazy hosts.
///
/// [`Internet::poll_connect`] tells a caller what a
/// [`Internet::connect`] to the same `(addr, port)` *will* do and
/// roughly when; the blocking [`Internet::connect`] on the probe's
/// private clock fork remains the path that actually pays the latency
/// (and, for lazy worlds, materializes the host). The hint for an
/// unmaterialized host is approximate, so it must never feed record
/// contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectPoll {
    /// A listener accepts: the handshake will complete after one RTT.
    /// `rtt_micros` is `None` when only the lazy resolver knows the host
    /// (its RTT is fixed at materialization time).
    Listening {
        /// Round-trip time, if the host is already bound.
        rtt_micros: Option<u32>,
    },
    /// The host is up but nothing listens on the port: RST after one RTT.
    Refused {
        /// Round-trip time, if the host is already bound.
        rtt_micros: Option<u32>,
    },
    /// Nothing answers at the address: SYN timeout.
    NoRoute {
        /// How long the scanner will wait before giving up.
        timeout_micros: u64,
    },
    /// A rate-limiting firewall will eat the SYN: no stream, only the
    /// penalty wait ([`ConnectError::Throttled`]).
    Throttled {
        /// Virtual microseconds the penalty costs the scanner.
        penalty_micros: u64,
    },
    /// A silent tarpit will accept and then stall
    /// ([`ConnectError::Stalled`]).
    Stalled {
        /// Virtual microseconds until the scanner gives up on the
        /// stalled connection (RTT plus the stall budget).
        micros: u64,
    },
}

impl ConnectPoll {
    /// A host's answer to a SYN: accept if `listening`, else RST.
    fn answered(listening: bool, rtt_micros: Option<u32>) -> ConnectPoll {
        if listening {
            ConnectPoll::Listening { rtt_micros }
        } else {
            ConnectPoll::Refused { rtt_micros }
        }
    }

    /// True if a blocking connect would succeed.
    pub fn will_accept(&self) -> bool {
        matches!(self, ConnectPoll::Listening { .. })
    }

    /// How many virtual microseconds until the connect attempt resolves
    /// (handshake completes, RST arrives, the SYN times out, or a fault
    /// burns its budget).
    pub fn latency_hint_micros(&self) -> u64 {
        match self {
            ConnectPoll::Listening { rtt_micros } | ConnectPoll::Refused { rtt_micros } => {
                rtt_micros.map_or(DEFAULT_RTT_HINT_MICROS, u64::from)
            }
            ConnectPoll::NoRoute { timeout_micros } => *timeout_micros,
            ConnectPoll::Throttled { penalty_micros } => *penalty_micros,
            ConnectPoll::Stalled { micros } => *micros,
        }
    }
}

struct HostEntry {
    services: HashMap<u16, Arc<dyn Service>>,
    rtt_micros: u32,
}

/// The occupancy of a lazy world at one point of its history. Both
/// methods run once per swept address: cheap, lock-free, side-effect free.
pub trait HostLayout: Send + Sync {
    /// True if a host occupies `addr` (SYN would not time out).
    fn host_exists(&self, addr: Ipv4) -> bool;
    /// True if something listens on `(addr, port)` — the sweep's SYN probe.
    fn has_listener(&self, addr: Ipv4, port: u16) -> bool;
}

/// Lazily resolves hosts that are not (yet) in the bound host table: the
/// hook behind lazy world materialization. Its [`HostLayout`] answers the
/// occupancy queries the table misses, in O(1) and with no per-address
/// allocation; the first connection to reach a host materializes it.
///
/// Contract:
/// * **Snapshots.** `layout` returns an immutable snapshot, which a sweep
///   takes once per shard and keeps for the whole walk. A world's layout
///   changes only between campaigns (for the `population` crate, only
///   under `EvolvingWorld::evolve`), never during a scan. Once the world
///   is gone, `layout` returns `None` and old snapshots answer "nothing
///   there".
/// * `materialize` binds the host on `net` (or does nothing for an empty
///   address). It is idempotent — probe workers race on it — and binds
///   exactly what the layout promised, or probes become non-deterministic.
/// * **The "ever bound" filter.** The bound table answers first. Binding
///   sets the address's bit in a filter, and bits are only ever set: a
///   clear bit proves the table never held the address (the query skips
///   the table lock), a set bit only means "check the table".
pub trait HostResolver: Send + Sync {
    /// A snapshot of the current layout; `None` once the world is gone.
    fn layout(&self) -> Option<Arc<dyn HostLayout>>;
    /// Builds and binds the host at `addr` onto `net` (first contact).
    fn materialize(&self, net: &Internet, addr: Ipv4);
}

/// log2 of the "ever bound" filter's bits: 32 KiB for a few thousand hosts.
const EVER_BOUND_BITS: u32 = 18;

/// Word and bit of `addr` in the "ever bound" filter (Fibonacci hashing).
fn ever_bound_slot(addr: Ipv4) -> (usize, u64) {
    let bit = addr.0.wrapping_mul(0x9E37_79B9) >> (32 - EVER_BOUND_BITS);
    ((bit >> 6) as usize, 1 << (bit & 63))
}

/// State shared by every clock view of one Internet.
struct Shared {
    hosts: RwLock<HashMap<u32, HostEntry>>,
    /// The "ever bound" filter (see [`HostResolver`]): Release sets, Acquire loads.
    ever_bound: Box<[AtomicU64]>,
    registry: RwLock<AsRegistry>,
    resolver: OnceLock<Arc<dyn HostResolver>>,
    profiles: OnceLock<Arc<dyn ProfileProvider>>,
}

/// The simulated Internet. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct Internet {
    clock: VirtualClock,
    shared: Arc<Shared>,
}

/// A sweep's occupancy view ([`Internet::occupancy`]): an address nothing
/// was ever bound to costs no lock and no shared-counter write.
pub struct Occupancy<'a> {
    net: &'a Internet,
    layout: Option<Arc<dyn HostLayout>>,
}

impl Occupancy<'_> {
    /// SYN-probe semantics: does anything listen on `(addr, port)`?
    pub fn has_listener(&self, addr: Ipv4, port: u16) -> bool {
        self.net
            .route(self.layout.as_deref(), addr, port)
            .will_accept()
    }
}

/// Lock-poisoning policy, centralized: every guard scope in this file is
/// a short table read or update, so a poisoned lock means another worker
/// already panicked mid-simulation. Surfacing that as a typed error would
/// bury the original panic — propagate.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // ua-lint: allow(panic-hygiene) -- poisoned table: a peer panicked; propagate it
    lock.read().expect("poisoned: a peer panicked")
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    // ua-lint: allow(panic-hygiene) -- poisoned table: a peer panicked; propagate it
    lock.write().expect("poisoned: a peer panicked")
}

impl Internet {
    /// Creates an empty Internet on `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        Internet {
            clock,
            shared: Arc::new(Shared {
                hosts: RwLock::new(HashMap::new()),
                ever_bound: (0..1 << (EVER_BOUND_BITS - 6))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                registry: RwLock::new(AsRegistry::new()),
                resolver: OnceLock::new(),
                profiles: OnceLock::new(),
            }),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// A view of the same Internet (shared hosts and AS registry) driven
    /// by a different clock. Connections opened through the view charge
    /// their latency to `clock` instead of the shared one — this is how
    /// sharded scans probe hosts on independent forked clocks without
    /// the workers racing on shared time.
    pub fn with_clock(&self, clock: VirtualClock) -> Internet {
        Internet {
            clock,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Installs the [`HostResolver`] that backs the host table with a
    /// lazy world: occupancy queries that miss the bound table fall
    /// through to its layout, and connects to resolver-known addresses
    /// materialize the host on first contact. Shared by all clock views
    /// ([`Internet::with_clock`]), so sharded scan workers see the same
    /// lazy world. Set once, read without a lock: a second install on
    /// the same Internet panics.
    pub fn set_resolver(&self, resolver: Arc<dyn HostResolver>) {
        if self.shared.resolver.set(resolver).is_err() {
            // ua-lint: allow(panic-hygiene) -- one world per Internet: a second install is a caller bug
            panic!("a host resolver is already installed on this Internet");
        }
    }

    /// Installs a [`ProfileProvider`]: every subsequent connect consults
    /// it for middlebox faults (loss, tarpits, rate limiting). Shared by
    /// all clock views ([`Internet::with_clock`]), so sharded scan
    /// workers face identical hostility. Without one the Internet stays
    /// polite — every attempt [`ConnectFate::Deliver`]s. Set once, read
    /// without a lock: a second install on the same Internet panics.
    pub fn set_profiles(&self, profiles: Arc<dyn ProfileProvider>) {
        if self.shared.profiles.set(profiles).is_err() {
            // ua-lint: allow(panic-hygiene) -- one fault plan per Internet: a second install is a caller bug
            panic!("a profile provider is already installed on this Internet");
        }
    }

    /// The network profile guarding `addr` (polite when no provider is
    /// installed or the provider does not list the address).
    pub fn profile_of(&self, addr: Ipv4) -> NetProfile {
        self.shared
            .profiles
            .get()
            .map_or_else(NetProfile::polite, |p| p.profile_of(addr))
    }

    /// Replaces the AS registry.
    pub fn set_registry(&self, registry: AsRegistry) {
        *write(&self.shared.registry) = registry;
    }

    /// AS number owning `addr` (0 if unannounced).
    pub fn as_number(&self, addr: Ipv4) -> u32 {
        read(&self.shared.registry).as_number(addr)
    }

    /// Runs `f` with read access to the AS registry.
    pub fn with_registry<T>(&self, f: impl FnOnce(&AsRegistry) -> T) -> T {
        f(&read(&self.shared.registry))
    }

    /// Adds (or replaces) a host with the given round-trip time.
    pub fn add_host(&self, addr: Ipv4, rtt_micros: u32) {
        self.install_host(addr, rtt_micros, Vec::new());
    }

    /// Atomically installs (or replaces) a host together with its
    /// listeners under one table lock. Lazy materialization binds
    /// through this: concurrent scan workers must never observe a host
    /// entry that exists but has no services yet.
    pub fn install_host(
        &self,
        addr: Ipv4,
        rtt_micros: u32,
        services: Vec<(u16, Arc<dyn Service>)>,
    ) {
        let mut hosts = write(&self.shared.hosts);
        let (word, mask) = ever_bound_slot(addr);
        self.shared.ever_bound[word].fetch_or(mask, Ordering::Release);
        hosts.insert(
            addr.0,
            HostEntry {
                services: services.into_iter().collect(),
                rtt_micros,
            },
        );
    }

    /// Removes a host entirely (device went offline / changed IP).
    pub fn remove_host(&self, addr: Ipv4) {
        write(&self.shared.hosts).remove(&addr.0);
    }

    /// Binds a service to `(addr, port)`; the host must exist.
    pub fn bind(&self, addr: Ipv4, port: u16, service: Arc<dyn Service>) {
        let mut hosts = write(&self.shared.hosts);
        let host = hosts
            .get_mut(&addr.0)
            // ua-lint: allow(panic-hygiene) -- binding to an unbound address is a caller bug
            .unwrap_or_else(|| panic!("bind on unknown host {addr}"));
        host.services.insert(port, service);
    }

    /// Unbinds a port.
    pub fn unbind(&self, addr: Ipv4, port: u16) {
        if let Some(host) = write(&self.shared.hosts).get_mut(&addr.0) {
            host.services.remove(&port);
        }
    }

    /// A snapshot of the resolver's current layout, if one is installed.
    fn layout(&self) -> Option<Arc<dyn HostLayout>> {
        self.shared.resolver.get().and_then(|r| r.layout())
    }

    /// The one occupancy decision, as a fault-free [`ConnectPoll`]: the
    /// bound table unless the "ever bound" filter rules it out, then
    /// `layout` (whose hosts have no RTT until bound).
    fn route(&self, layout: Option<&dyn HostLayout>, addr: Ipv4, port: u16) -> ConnectPoll {
        let (word, mask) = ever_bound_slot(addr);
        if self.shared.ever_bound[word].load(Ordering::Acquire) & mask != 0 {
            if let Some(host) = read(&self.shared.hosts).get(&addr.0) {
                let listening = host.services.contains_key(&port);
                return ConnectPoll::answered(listening, Some(host.rtt_micros));
            }
        }
        match layout {
            Some(layout) if layout.host_exists(addr) => {
                ConnectPoll::answered(layout.has_listener(addr, port), None)
            }
            _ => ConnectPoll::NoRoute {
                timeout_micros: SYN_TIMEOUT_MICROS,
            },
        }
    }

    /// A sweep's occupancy view over one layout snapshot: take one per
    /// shard, never keep one across world evolution.
    pub fn occupancy(&self) -> Occupancy<'_> {
        Occupancy {
            net: self,
            layout: self.layout(),
        }
    }

    /// True if a host exists at `addr` — bound or resolver-known.
    pub fn host_exists(&self, addr: Ipv4) -> bool {
        // Nothing listens on the reserved port 0: only presence counts.
        !matches!(
            self.route(self.layout().as_deref(), addr, 0),
            ConnectPoll::NoRoute { .. }
        )
    }

    /// SYN-probe semantics: does anything listen on `(addr, port)`?
    /// (No clock cost — probe pacing is accounted by the sweep.)
    ///
    /// A materialized host answers from its bound service table; an
    /// unmaterialized one from the resolver's O(1) predicate — the SYN
    /// itself never materializes anything.
    pub fn has_listener(&self, addr: Ipv4, port: u16) -> bool {
        self.occupancy().has_listener(addr, port)
    }

    /// Number of *bound* hosts (lazy worlds: materialized so far).
    pub fn host_count(&self) -> usize {
        read(&self.shared.hosts).len()
    }

    /// All host addresses, ascending (deterministic iteration for
    /// tests/ground truth; a real scanner cannot do this).
    pub fn host_addresses(&self) -> Vec<Ipv4> {
        let mut v: Vec<Ipv4> = read(&self.shared.hosts)
            .keys()
            .map(|&ip| Ipv4(ip))
            .collect();
        v.sort();
        v
    }

    /// Predicts what [`Internet::connect`] to `(to, port)` would do,
    /// without blocking, clock cost, or side effects.
    ///
    /// Shares `connect`'s route decision — bound table first, then the
    /// lazy resolver — but never materializes a host and never touches
    /// the clock. See [`ConnectPoll`] for how the answer (and its
    /// latency hint) is meant to be used.
    pub fn poll_connect(&self, to: Ipv4, port: u16) -> ConnectPoll {
        let base = self.route(self.layout().as_deref(), to, port);
        if let ConnectPoll::NoRoute { .. } = base {
            return base;
        }
        // Routable: overlay the first attempt's middlebox fate, exactly
        // as the blocking `connect` (attempt 0) will resolve it.
        let profile = self.profile_of(to);
        if profile.is_polite() {
            return base;
        }
        match profile.connect_fate(0) {
            ConnectFate::Deliver => base,
            ConnectFate::SynLost => ConnectPoll::NoRoute {
                timeout_micros: SYN_TIMEOUT_MICROS,
            },
            ConnectFate::Throttled { penalty_micros } => ConnectPoll::Throttled { penalty_micros },
            // A silent tarpit (no dribble) fails the connect after RTT +
            // stall; a dribbling one hands out a stream like any
            // listener — it just never says anything useful.
            ConnectFate::Tarpit(tarpit) if base.will_accept() && tarpit.dribble_bytes == 0 => {
                ConnectPoll::Stalled {
                    micros: base.latency_hint_micros() + tarpit.stall_micros,
                }
            }
            ConnectFate::Tarpit(_) => base,
        }
    }

    /// Route resolution, the fault-free half of a connect: `(listening,
    /// rtt)` of the host bound at `to` (materialized first if only the
    /// resolver knew it), or `None` when nothing answers — *routing*
    /// truth, kept apart from injected faults.
    fn bound_route(&self, to: Ipv4, port: u16) -> Option<(bool, u32)> {
        let layout = self.layout();
        for first_contact in [true, false] {
            let poll = self.route(layout.as_deref(), to, port);
            match poll {
                ConnectPoll::Listening { rtt_micros } | ConnectPoll::Refused { rtt_micros } => {
                    match (rtt_micros, self.shared.resolver.get()) {
                        (Some(rtt), _) => return Some((poll.will_accept(), rtt)),
                        // Only the resolver knows the host. No hosts lock is
                        // held here: materialize() needs the write side.
                        (None, Some(resolver)) if first_contact => resolver.materialize(self, to),
                        (None, _) => return None,
                    }
                }
                _ => return None,
            }
        }
        None
    }

    /// Opens a TCP-like connection, applying one RTT of virtual latency
    /// for the handshake. Equivalent to
    /// [`connect_attempt`](Internet::connect_attempt) with attempt 0.
    ///
    /// With a resolver installed, a connect to an address the bound
    /// table misses but the resolver knows first materializes the host
    /// (the lazy world's "first probe contact"), then retries against
    /// the now-bound table. Materialization itself is free on the
    /// virtual clock — only the handshake RTT is charged, exactly as in
    /// an eagerly built world.
    pub fn connect(&self, from: Ipv4, to: Ipv4, port: u16) -> Result<TcpStreamSim, ConnectError> {
        self.connect_attempt(from, to, port, 0)
    }

    /// [`connect`](Internet::connect) with an explicit attempt index
    /// for the middlebox fault layer: a retrying scanner passes 0, 1,
    /// 2… so per-attempt fates (flaky windows, firewall strikes, the
    /// loss coin) replay deterministically. Every fault advances this
    /// view's clock honestly:
    ///
    /// * lost SYN — [`SYN_TIMEOUT_MICROS`], [`ConnectError::NoRoute`];
    /// * firewall strike — the penalty wait, [`ConnectError::Throttled`];
    /// * silent tarpit — RTT + stall, [`ConnectError::Stalled`];
    /// * dribbling tarpit — RTT, then a stream whose every exchange
    ///   stalls (the caller's stage budget is what ends it).
    pub fn connect_attempt(
        &self,
        from: Ipv4,
        to: Ipv4,
        port: u16,
        attempt: u32,
    ) -> Result<TcpStreamSim, ConnectError> {
        let Some((listening, rtt_micros)) = self.bound_route(to, port) else {
            // SYN timeout: a scanner waits ~1s for silence. No profile
            // consulted — faulting a host that does not exist would
            // conflate routing truth with injected hostility.
            return self.fail_after(SYN_TIMEOUT_MICROS, ConnectError::NoRoute);
        };
        let rtt = u64::from(rtt_micros);
        let profile = self.profile_of(to);
        match profile.connect_fate(attempt) {
            ConnectFate::Deliver => {}
            // Indistinguishable from a dead address on the wire.
            ConnectFate::SynLost => {
                return self.fail_after(SYN_TIMEOUT_MICROS, ConnectError::NoRoute)
            }
            ConnectFate::Throttled { penalty_micros } => {
                return self.fail_after(penalty_micros, ConnectError::Throttled)
            }
            ConnectFate::Tarpit(tarpit) if listening && tarpit.dribble_bytes == 0 => {
                return self.fail_after(rtt + tarpit.stall_micros, ConnectError::Stalled)
            }
            ConnectFate::Tarpit(tarpit) if listening => {
                self.clock.advance_micros(rtt);
                let conn = Box::new(TarpitConn::new(self.clock.clone(), tarpit));
                return Ok(TcpStreamSim::new(self.clock.clone(), conn, rtt_micros));
            }
            // Nothing listens behind the tarpit: plain RST below.
            ConnectFate::Tarpit(_) => {}
        }
        if !listening {
            // RST comes back after one RTT.
            return self.fail_after(rtt, ConnectError::Refused);
        }
        let conn = read(&self.shared.hosts)
            .get(&to.0)
            .and_then(|host| host.services.get(&port))
            .map(|service| service.open_connection(from));
        let Some(conn) = conn else {
            // The host vanished between route resolution and accept
            // (world churn): same as a dead address.
            return self.fail_after(SYN_TIMEOUT_MICROS, ConnectError::NoRoute);
        };
        let conn: Box<dyn Connection> = if profile.cut_after_exchanges > 0 {
            Box::new(CutConn::new(conn, profile.cut_after_exchanges))
        } else {
            conn
        };
        self.clock.advance_micros(rtt);
        Ok(TcpStreamSim::new(self.clock.clone(), conn, rtt_micros))
    }

    /// A failed connect that cost `micros` of this view's clock.
    fn fail_after(&self, micros: u64, err: ConnectError) -> Result<TcpStreamSim, ConnectError> {
        self.clock.advance_micros(micros);
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo service for tests.
    struct Echo;
    struct EchoConn;
    impl Connection for EchoConn {
        fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
            ConnectionOutput::reply(data.to_vec())
        }
    }
    impl Service for Echo {
        fn open_connection(&self, _peer: Ipv4) -> Box<dyn Connection> {
            Box::new(EchoConn)
        }
    }

    #[test]
    fn connect_routes_and_errors() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let ip = Ipv4::new(198, 51, 100, 1);
        net.add_host(ip, 10_000);
        net.bind(ip, 4840, Arc::new(Echo));

        assert!(net.host_exists(ip));
        assert!(net.has_listener(ip, 4840));
        assert!(!net.has_listener(ip, 80));

        // Refused on closed port.
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), ip, 80).err(),
            Some(ConnectError::Refused)
        );
        // No route to unknown host.
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), Ipv4::new(9, 9, 9, 9), 4840)
                .err(),
            Some(ConnectError::NoRoute)
        );
        // Success.
        let mut stream = net.connect(Ipv4::new(1, 1, 1, 1), ip, 4840).unwrap();
        stream.send(b"ping").unwrap();
        assert_eq!(stream.recv().unwrap(), Some(b"ping".to_vec()));
    }

    #[test]
    fn latency_advances_clock() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let ip = Ipv4::new(10, 0, 0, 1);
        net.add_host(ip, 50_000); // 50 ms RTT
        net.bind(ip, 4840, Arc::new(Echo));
        let before = clock.now_micros();
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), ip, 4840).unwrap();
        assert!(clock.now_micros() >= before + 50_000);
    }

    #[test]
    fn syn_timeout_costs_a_second() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), Ipv4::new(2, 2, 2, 2), 4840);
        assert_eq!(clock.now_micros(), 1_000_000);
    }

    #[test]
    fn unbind_and_remove() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let ip = Ipv4::new(10, 0, 0, 2);
        net.add_host(ip, 1000);
        net.bind(ip, 4840, Arc::new(Echo));
        net.unbind(ip, 4840);
        assert!(!net.has_listener(ip, 4840));
        net.remove_host(ip);
        assert!(!net.host_exists(ip));
        assert_eq!(net.host_count(), 0);
    }

    /// A one-host layout: `.0` listens on 4840 only.
    struct OneHost(Ipv4);
    impl HostLayout for OneHost {
        fn host_exists(&self, addr: Ipv4) -> bool {
            addr == self.0
        }
        fn has_listener(&self, addr: Ipv4, port: u16) -> bool {
            addr == self.0 && port == 4840
        }
    }

    /// Resolves `target` lazily: an echo host bound on first contact.
    struct LazyEcho {
        target: Ipv4,
        materialized: std::sync::atomic::AtomicUsize,
    }
    impl LazyEcho {
        fn new(target: Ipv4) -> Arc<LazyEcho> {
            Arc::new(LazyEcho {
                target,
                materialized: Default::default(),
            })
        }
        fn materialized(&self) -> usize {
            self.materialized.load(Ordering::SeqCst)
        }
    }
    impl HostResolver for LazyEcho {
        fn layout(&self) -> Option<Arc<dyn HostLayout>> {
            Some(Arc::new(OneHost(self.target)))
        }
        fn materialize(&self, net: &Internet, addr: Ipv4) {
            self.materialized.fetch_add(1, Ordering::SeqCst);
            net.install_host(
                addr,
                5_000,
                vec![(4840, Arc::new(Echo) as Arc<dyn Service>)],
            );
        }
    }

    #[test]
    fn resolver_backs_table_misses_and_materializes_on_connect() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let target = Ipv4::new(10, 9, 9, 9);
        let resolver = LazyEcho::new(target);
        net.set_resolver(resolver.clone());

        // SYN probes answer from the predicate without materializing.
        assert!(net.has_listener(target, 4840));
        assert!(!net.has_listener(target, 80));
        assert!(net.host_exists(target));
        assert!(!net.host_exists(Ipv4::new(10, 9, 9, 8)));
        assert_eq!(net.host_count(), 0);
        assert_eq!(resolver.materialized(), 0);

        // First contact materializes exactly once; afterwards the bound
        // table answers directly.
        let mut s = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        s.send(b"hi").unwrap();
        assert_eq!(s.recv().unwrap(), Some(b"hi".to_vec()));
        assert_eq!(resolver.materialized(), 1);
        assert_eq!(net.host_count(), 1);
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        assert_eq!(resolver.materialized(), 1);

        // Clock views share the resolver.
        let view = net.with_clock(VirtualClock::starting_at(0));
        assert!(view.has_listener(target, 4840));

        // Addresses the resolver disowns still time out.
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), Ipv4::new(10, 9, 9, 8), 4840)
                .err(),
            Some(ConnectError::NoRoute)
        );
    }

    #[test]
    fn poll_connect_predicts_connect_without_side_effects() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let ip = Ipv4::new(198, 51, 100, 7);
        net.add_host(ip, 12_000);
        net.bind(ip, 4840, Arc::new(Echo));
        let from = Ipv4::new(1, 1, 1, 1);

        // Listening: hint equals the RTT the blocking connect charges.
        let poll = net.poll_connect(ip, 4840);
        assert_eq!(
            poll,
            ConnectPoll::Listening {
                rtt_micros: Some(12_000)
            }
        );
        assert!(poll.will_accept());
        let before = clock.now_micros();
        let stream = net.connect(from, ip, 4840).unwrap();
        assert_eq!(clock.now_micros() - before, poll.latency_hint_micros());
        assert_eq!(u64::from(stream.rtt_micros()), poll.latency_hint_micros());

        // Refused: same RTT, RST path.
        let poll = net.poll_connect(ip, 80);
        assert_eq!(
            poll,
            ConnectPoll::Refused {
                rtt_micros: Some(12_000)
            }
        );
        let before = clock.now_micros();
        assert_eq!(net.connect(from, ip, 80).err(), Some(ConnectError::Refused));
        assert_eq!(clock.now_micros() - before, poll.latency_hint_micros());

        // NoRoute: hint equals the SYN timeout the blocking path pays.
        let ghost = Ipv4::new(9, 9, 9, 9);
        let poll = net.poll_connect(ghost, 4840);
        assert_eq!(
            poll,
            ConnectPoll::NoRoute {
                timeout_micros: SYN_TIMEOUT_MICROS
            }
        );
        let before = clock.now_micros();
        assert_eq!(
            net.connect(from, ghost, 4840).err(),
            Some(ConnectError::NoRoute)
        );
        assert_eq!(clock.now_micros() - before, SYN_TIMEOUT_MICROS);

        // Polling never advanced the clock itself.
        let before = clock.now_micros();
        let _ = net.poll_connect(ip, 4840);
        assert_eq!(clock.now_micros(), before);
    }

    #[test]
    fn poll_connect_answers_from_resolver_without_materializing() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let target = Ipv4::new(10, 9, 9, 9);
        net.set_resolver(LazyEcho::new(target));

        // Known to the resolver, not yet bound: Listening, RTT unknown,
        // and *nothing* materializes.
        assert_eq!(
            net.poll_connect(target, 4840),
            ConnectPoll::Listening { rtt_micros: None }
        );
        assert_eq!(
            net.poll_connect(target, 80),
            ConnectPoll::Refused { rtt_micros: None }
        );
        assert_eq!(net.host_count(), 0);
        // The unknown-RTT hint still schedules something sensible.
        assert!(net.poll_connect(target, 4840).latency_hint_micros() > 0);

        // After first contact the bound table answers with the real RTT.
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        assert_eq!(
            net.poll_connect(target, 4840),
            ConnectPoll::Listening {
                rtt_micros: Some(5_000)
            }
        );
    }

    #[test]
    fn fault_variants_pin_time_costs() {
        use crate::faults::{FirewallProfile, NetProfile, StaticProfiles, TarpitProfile};
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let from = Ipv4::new(1, 1, 1, 1);
        let rtt = 10_000_u32;

        let throttled = Ipv4::new(10, 0, 0, 1);
        let flaky = Ipv4::new(10, 0, 0, 2);
        let silent_tarpit = Ipv4::new(10, 0, 0, 3);
        let drip_tarpit = Ipv4::new(10, 0, 0, 4);
        let walled = Ipv4::new(10, 0, 0, 5);
        for ip in [throttled, flaky, silent_tarpit, drip_tarpit, walled] {
            net.add_host(ip, rtt);
            net.bind(ip, 4840, Arc::new(Echo));
        }
        let stall = 30_000_000_u64;
        let penalty = 2_000_000_u64;
        let profiles = StaticProfiles::new()
            .with(
                throttled,
                NetProfile {
                    firewall: Some(FirewallProfile {
                        strikes: 1,
                        penalty_micros: penalty,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                flaky,
                NetProfile {
                    flaky_connects: 2,
                    ..NetProfile::polite()
                },
            )
            .with(
                silent_tarpit,
                NetProfile {
                    tarpit: Some(TarpitProfile {
                        stall_micros: stall,
                        dribble_bytes: 0,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                drip_tarpit,
                NetProfile {
                    tarpit: Some(TarpitProfile {
                        stall_micros: stall,
                        dribble_bytes: 4,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                walled,
                NetProfile {
                    firewall: Some(FirewallProfile::permanent(penalty)),
                    ..NetProfile::polite()
                },
            );
        net.set_profiles(Arc::new(profiles));

        // Firewall strike: penalty wait, Throttled; next attempt clean.
        let before = clock.now_micros();
        assert_eq!(
            net.connect_attempt(from, throttled, 4840, 0).err(),
            Some(ConnectError::Throttled)
        );
        assert_eq!(clock.now_micros() - before, penalty);
        let before = clock.now_micros();
        assert!(net.connect_attempt(from, throttled, 4840, 1).is_ok());
        assert_eq!(clock.now_micros() - before, u64::from(rtt));

        // Flaky window: two SYN timeouts, then a clean RTT.
        for attempt in 0..2 {
            let before = clock.now_micros();
            assert_eq!(
                net.connect_attempt(from, flaky, 4840, attempt).err(),
                Some(ConnectError::NoRoute)
            );
            assert_eq!(clock.now_micros() - before, SYN_TIMEOUT_MICROS);
        }
        let before = clock.now_micros();
        assert!(net.connect_attempt(from, flaky, 4840, 2).is_ok());
        assert_eq!(clock.now_micros() - before, u64::from(rtt));

        // Silent tarpit: RTT + stall, Stalled — on every attempt.
        for attempt in 0..2 {
            let before = clock.now_micros();
            assert_eq!(
                net.connect_attempt(from, silent_tarpit, 4840, attempt)
                    .err(),
                Some(ConnectError::Stalled)
            );
            assert_eq!(clock.now_micros() - before, u64::from(rtt) + stall);
        }

        // Dribbling tarpit: the connect succeeds after one RTT, but the
        // first exchange burns the stall and yields only zero dribble.
        let before = clock.now_micros();
        let mut s = net.connect_attempt(from, drip_tarpit, 4840, 0).unwrap();
        assert_eq!(clock.now_micros() - before, u64::from(rtt));
        let before = clock.now_micros();
        s.send(b"HELLO").unwrap();
        assert!(clock.now_micros() - before >= stall);
        assert_eq!(s.recv().unwrap(), Some(vec![0u8; 4]));

        // Permanent blocklisting: no attempt number gets through.
        for attempt in [0, 5, 1_000] {
            assert_eq!(
                net.connect_attempt(from, walled, 4840, attempt).err(),
                Some(ConnectError::Throttled)
            );
        }

        // Faults never fire for dead addresses: routing truth first.
        let before = clock.now_micros();
        assert_eq!(
            net.connect_attempt(from, Ipv4::new(9, 9, 9, 9), 4840, 3)
                .err(),
            Some(ConnectError::NoRoute)
        );
        assert_eq!(clock.now_micros() - before, SYN_TIMEOUT_MICROS);
    }

    #[test]
    fn poll_connect_predicts_faulted_connects() {
        use crate::faults::{FirewallProfile, NetProfile, StaticProfiles, TarpitProfile};
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let from = Ipv4::new(1, 1, 1, 1);
        let rtt = 10_000_u32;
        let throttled = Ipv4::new(10, 1, 0, 1);
        let silent_tarpit = Ipv4::new(10, 1, 0, 2);
        let lossy = Ipv4::new(10, 1, 0, 3);
        for ip in [throttled, silent_tarpit, lossy] {
            net.add_host(ip, rtt);
            net.bind(ip, 4840, Arc::new(Echo));
        }
        let stall = 5_000_000_u64;
        let penalty = 2_000_000_u64;
        let profiles = StaticProfiles::new()
            .with(
                throttled,
                NetProfile {
                    firewall: Some(FirewallProfile {
                        strikes: 1,
                        penalty_micros: penalty,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                silent_tarpit,
                NetProfile {
                    tarpit: Some(TarpitProfile {
                        stall_micros: stall,
                        dribble_bytes: 0,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                lossy,
                NetProfile {
                    fault_seed: 7,
                    syn_loss_permille: 1000,
                    ..NetProfile::polite()
                },
            );
        net.set_profiles(Arc::new(profiles));

        // Each poll's hint equals the blocking attempt-0 cost, and the
        // poll itself never advances the clock.
        for (ip, want) in [
            (
                throttled,
                ConnectPoll::Throttled {
                    penalty_micros: penalty,
                },
            ),
            (
                silent_tarpit,
                ConnectPoll::Stalled {
                    micros: u64::from(rtt) + stall,
                },
            ),
            (
                lossy,
                ConnectPoll::NoRoute {
                    timeout_micros: SYN_TIMEOUT_MICROS,
                },
            ),
        ] {
            let before = clock.now_micros();
            let poll = net.poll_connect(ip, 4840);
            assert_eq!(clock.now_micros(), before);
            assert_eq!(poll, want);
            assert!(!poll.will_accept());
            let before = clock.now_micros();
            assert!(net.connect_attempt(from, ip, 4840, 0).is_err());
            assert_eq!(clock.now_micros() - before, poll.latency_hint_micros());
        }
    }

    #[test]
    fn ever_bound_bits_only_send_queries_to_the_table() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let target = Ipv4::new(10, 9, 9, 9);
        let resolver = LazyEcho::new(target);
        net.set_resolver(resolver.clone());
        let snapshot = net.occupancy();
        assert!(snapshot.has_listener(target, 4840));

        // Materialize, then drop the bound host again: its filter bit
        // stays set, the table misses, and the layout still answers.
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        net.remove_host(target);
        assert_eq!(net.host_count(), 0);
        assert!(net.has_listener(target, 4840));
        assert!(snapshot.has_listener(target, 4840));
        assert!(!snapshot.has_listener(target, 80));

        // An eagerly bound host the layout does not know is gone for
        // good once removed.
        let eager = Ipv4::new(10, 9, 9, 10);
        net.add_host(eager, 1_000);
        net.bind(eager, 4840, Arc::new(Echo));
        assert!(snapshot.has_listener(eager, 4840));
        net.remove_host(eager);
        assert!(!snapshot.has_listener(eager, 4840));
        assert!(!net.host_exists(eager));

        // A re-contact materializes the resolver host once more.
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        assert_eq!(resolver.materialized(), 2);
    }

    #[test]
    #[should_panic(expected = "host resolver is already installed")]
    fn second_resolver_install_panics() {
        let net = Internet::new(VirtualClock::starting_at(0));
        net.set_resolver(LazyEcho::new(Ipv4::new(10, 0, 0, 1)));
        net.with_clock(VirtualClock::starting_at(0))
            .set_resolver(LazyEcho::new(Ipv4::new(10, 0, 0, 2)));
    }

    #[test]
    #[should_panic(expected = "profile provider is already installed")]
    fn second_profile_install_panics() {
        use crate::faults::StaticProfiles;
        let net = Internet::new(VirtualClock::starting_at(0));
        net.set_profiles(Arc::new(StaticProfiles::new()));
        net.set_profiles(Arc::new(StaticProfiles::new()));
    }

    #[test]
    fn host_addresses_sorted() {
        let net = Internet::new(VirtualClock::starting_at(0));
        net.add_host(Ipv4::new(9, 0, 0, 1), 0);
        net.add_host(Ipv4::new(1, 0, 0, 1), 0);
        net.add_host(Ipv4::new(5, 0, 0, 1), 0);
        let addrs = net.host_addresses();
        assert_eq!(
            addrs,
            vec![
                Ipv4::new(1, 0, 0, 1),
                Ipv4::new(5, 0, 0, 1),
                Ipv4::new(9, 0, 0, 1)
            ]
        );
    }
}
