//! # scanner
//!
//! The Internet-wide OPC UA measurement pipeline (§4 of the paper):
//!
//! * [`record`] — [`ScanRecord`]/[`EndpointSnapshot`], the per-host data
//!   every downstream consumer (notably the `assessment` crate) works on;
//! * [`probe`] — the composable [`Probe`] stage API: UACP hello →
//!   discovery (GetEndpoints + FindServers) → anonymous session with
//!   budgeted traversal;
//! * [`suite`] — the protocol layer: a [`ProtocolSuite`] bundles the
//!   default port, the probe-stage ladder, the connect-error taxonomy,
//!   and the typed [`ProtocolPayload`] for one protocol;
//!   [`SuiteRegistry`] maps ports to suites so one campaign sweeps
//!   several protocols over the same engine;
//! * [`url`] — `opc.tcp://host:port/path` parsing and normalization,
//!   the canonical form referral deduplication relies on;
//! * [`pipeline`] — the campaign driver, one engine for every entry
//!   point: zmap-style sweep streamed straight into the probe stack, a
//!   deterministic breadth-first referral queue re-probing
//!   FindServers-announced `host:port` targets after the sweep, with
//!   records flowing through a bounded channel
//!   ([`Scanner::scan_stream`]) so memory stays constant at Internet
//!   scale;
//! * [`sched`] — the engine's scheduling core: worker threads claiming
//!   sweep chunks or referral targets, an ordered merge that makes the
//!   output byte-identical per seed at any worker count,
//!   [`CancelToken`] cooperative cancellation, and [`SweepCheckpoint`]
//!   abort/resume;
//! * [`campaign`] — the longitudinal driver: N weekly sweeps on one
//!   strictly advancing clock, an evolve hook between campaigns, and a
//!   study-wide shared [`CertStore`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod pipeline;
pub mod probe;
pub mod record;
pub mod sched;
pub mod suite;
pub mod url;

pub use campaign::{Campaign, CampaignConfig, WeekCheckpoint, WeekOutcome, WeeklyScan};
pub use pipeline::{FaultStats, ReferralStats, ScanOutcome, ScanStream, ScanSummary, Scanner};
// Per-stage probe types (UacpProbe, EndpointsProbe, …) deliberately stay
// behind the `probe::` path: suites are the unit callers compose with;
// individual stages are an implementation detail of a suite's ladder.
pub use probe::{
    default_stack, ConfigError, Probe, ProbeContext, ProbeOutcome, RetryPolicy, ScanConfig,
    ScanConfigBuilder,
};
pub use record::{
    DiscoveredVia, EndpointSnapshot, HostOutcome, OpcUaPayload, ProtocolPayload, ScanRecord,
    SessionOutcome, TraversalSummary, UatTlsPayload,
};
pub use sched::{CancelGuard, CancelToken, PendingUrl, SweepCheckpoint};
pub use suite::{
    classify_connect_error, OpcUaSuite, ProtocolSuite, SuiteRegistry, UatTlsSuite,
    VendorFingerprintProbe, DEFAULT_UATLS_PORT,
};
pub use ua_crypto::{CertStore, CertStoreStats, ParsedCert, Thumbprint};
pub use url::{OpcUrl, UrlError, UrlHost, DEFAULT_OPCUA_PORT};
