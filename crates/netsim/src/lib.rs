//! # netsim
//!
//! A deterministic, in-memory IPv4 Internet: the substrate that stands in
//! for the real Internet in this reproduction (see DESIGN.md).
//!
//! * [`clock`] — virtual time (seven months pass in milliseconds);
//! * [`cidr`] — addresses, CIDR blocks, opt-out blocklists;
//! * [`asn`] — autonomous-system registry with longest-prefix lookup;
//! * [`internet`] — hosts, listeners, and poll-driven connections
//!   (smoltcp-style byte-level state machines);
//! * [`faults`] — middlebox fault injection: per-host [`NetProfile`]s
//!   (packet loss, tarpits, rate-limiting firewalls, flaky hosts) that
//!   a retrying scanner must survive;
//! * [`stream`] — TCP-like client streams with latency and traffic
//!   accounting;
//! * [`sweep`] — zmap's cyclic-group address permutation and a SYN
//!   scanner with blocklist and probe-rate modeling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod cidr;
pub mod clock;
pub mod faults;
pub mod internet;
pub mod stream;
pub mod sweep;

pub use asn::{AsInfo, AsKind, AsRegistry};
pub use cidr::{Blocklist, Cidr, CidrParseError, Ipv4};
pub use clock::{Micros, Stopwatch, VirtualClock};
pub use faults::{
    ConnectFate, CutConn, FirewallProfile, NetProfile, ProfileProvider, StaticProfiles, TarpitConn,
    TarpitProfile,
};
pub use internet::{
    ConnectError, ConnectPoll, Connection, ConnectionOutput, HostLayout, HostResolver, Internet,
    Occupancy, Service, SYN_TIMEOUT_MICROS,
};
pub use stream::{ByteStream, ConnectionStats, LoopbackStream, StreamError, TcpStreamSim};
pub use sweep::{
    ipv4_permutation, CycleWalk, PermutedRange, SweepChunks, SweepConfig, SweepResult, SweepStats,
    SweepWalk, SynScanner,
};
