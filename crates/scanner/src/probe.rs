//! The probe API: composable per-host measurement stages.
//!
//! A scan runs a stack of [`Probe`]s against every responsive address.
//! The default stack mirrors the paper's scanner (§4): UACP hello →
//! GetEndpoints/FindServers over an insecure discovery channel → (where
//! anonymous access is advertised) session establishment and a budgeted
//! address-space traversal. Custom stacks can drop stages (discovery-only
//! campaigns) or append new ones without touching the pipeline.

use crate::record::{EndpointSnapshot, HostOutcome, ScanRecord, SessionOutcome, TraversalSummary};
use crate::suite::{OpcUaSuite, ProtocolSuite, SuiteRegistry};
use crate::url::OpcUrl;
use netsim::{ConnectError, Internet, Ipv4, TcpStreamSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use ua_client::{traverse, ClientConfig, ClientError, TraversalBudget, UaClient};
use ua_crypto::CertStore;
use ua_proto::services::IdentityToken;
use ua_types::{
    ApplicationDescription, ApplicationType, AttributeId, DataValue, MessageSecurityMode, NodeId,
    SecurityPolicy, Variant,
};

/// Standard NodeId of `Server.ServerStatus.BuildInfo.SoftwareVersion`
/// (OPC UA Part 6, ns=0;i=2264) — read by the session stage so weekly
/// campaigns can diff reported versions.
const SERVER_SOFTWARE_VERSION_NODE: u32 = 2264;

/// Connect-phase retry/backoff policy: how hard the scanner fights a
/// hostile network before writing a host off.
///
/// The default is the polite scanner the paper runs — a single attempt,
/// no backoff — so fault-free campaigns stay byte-identical to the
/// pre-retry pipeline. All waiting happens on the probe's private clock
/// fork and the backoff jitter derives from the per-target seed, so a
/// hostile campaign is still a pure function of the campaign seed at
/// any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Connect attempts per target (0 is treated as 1). 1 = never
    /// retry: the polite default.
    pub max_attempts: u32,
    /// Base wait before the second attempt; doubles (×
    /// [`RetryPolicy::backoff_multiplier`]) per further attempt.
    pub backoff_micros: u64,
    /// Exponential backoff factor between attempts (0 treated as 1).
    pub backoff_multiplier: u64,
    /// Seed-derived jitter added to each backoff, as a permille of the
    /// current backoff (200 = up to +20%), decorrelating retries
    /// against rate-limit windows.
    pub jitter_permille: u64,
    /// Adaptive pacing: when the previous attempt hit a rate-limit
    /// signature ([`netsim::ConnectError::Throttled`]), the next backoff
    /// is stretched by this factor — backing off the prefix instead of
    /// hammering the firewall (0 treated as 1).
    pub throttle_pace_multiplier: u64,
    /// Per-stage time budget: when the UACP stage (connect + handshake)
    /// burns at least this much virtual time without completing, the
    /// host is classified [`HostOutcome::Tarpitted`] — the defense
    /// against byte-dribbling tarpits that keep a naive client reading
    /// forever.
    pub stage_budget_micros: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_micros: 250_000,
            backoff_multiplier: 2,
            jitter_permille: 200,
            throttle_pace_multiplier: 4,
            stage_budget_micros: 5_000_000,
        }
    }
}

impl RetryPolicy {
    /// The hostile-network preset: four attempts with jittered
    /// exponential backoff — enough budget to recover flaky hosts and
    /// outlast temporary rate limiting.
    pub fn hostile() -> Self {
        RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        }
    }
}

/// Scan-wide configuration shared by all probes.
#[derive(Clone)]
pub struct ScanConfig {
    /// TCP port to probe (OPC UA's registered port) when
    /// [`ScanConfig::suites`] is empty — the single-protocol
    /// configuration every pre-redesign campaign used.
    pub port: u16,
    /// SYN probes per second for the sweep stage.
    pub probes_per_second: u64,
    /// Source address the scanner connects from.
    pub scanner_address: Ipv4,
    /// OPC UA client identity/politeness configuration.
    pub client: ClientConfig,
    /// Budget for the traversal stage (Appendix A.2).
    pub budget: TraversalBudget,
    /// Whether to attempt anonymous sessions at all (the paper's scanner
    /// only proceeds where servers advertise credential-less access).
    pub attempt_session: bool,
    /// Bounded capacity of the record channel in streaming scans, and
    /// of each worker's buffer of probed-but-unemitted records: a worker
    /// that gets this far ahead of the ordered merge waits, which is
    /// the engine's backpressure against a slow record sink. 0 is
    /// treated as 1.
    pub channel_capacity: usize,
    /// Worker threads the campaign is sharded across. Output is
    /// byte-identical for a fixed seed regardless of this knob — it only
    /// changes how many cores the probe stacks use. 0 is treated as 1.
    pub workers: usize,
    /// Maximum referral-chain depth the scanner follows after the sweep
    /// (1 = only targets announced by swept hosts; 0 disables referral
    /// following entirely).
    pub referral_depth: u32,
    /// Maximum number of referral targets probed per campaign — the
    /// safety budget against referral storms; targets beyond it are
    /// counted as truncated, never probed.
    pub referral_budget: usize,
    /// Connect-phase retry/backoff policy (defaults to a single polite
    /// attempt — see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Registered protocol suites, port → suite. Empty (the default)
    /// means "OPC UA on [`ScanConfig::port`]" — byte-identical to the
    /// pre-suite pipeline. A non-empty registry makes the sweep walk
    /// the union of registered ports, driving each port's suite.
    pub suites: SuiteRegistry,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            port: 4840,
            probes_per_second: 50_000,
            scanner_address: Ipv4::new(192, 0, 2, 1),
            client: ClientConfig::default(),
            budget: TraversalBudget::default(),
            attempt_session: true,
            channel_capacity: 256,
            workers: 1,
            referral_depth: 4,
            referral_budget: 4096,
            retry: RetryPolicy::default(),
            suites: SuiteRegistry::new(),
        }
    }
}

impl ScanConfig {
    /// A validating builder over the default configuration — the
    /// literal-free way to assemble the (by now) 12-field config. Plain
    /// struct literals over [`ScanConfig::default`] keep working; the
    /// builder adds up-front validation and does the zero-normalization
    /// once instead of at every use site.
    pub fn builder() -> ScanConfigBuilder {
        ScanConfigBuilder {
            cfg: ScanConfig::default(),
        }
    }

    /// Worker thread count with the "0 is treated as 1" normalization
    /// applied — the single place the engine gets it from.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Record-channel capacity with zero-normalization applied.
    pub fn effective_channel_capacity(&self) -> usize {
        self.channel_capacity.max(1)
    }

    /// The suites a campaign drives, in ascending port order: the
    /// registry when non-empty, else the classic single-suite view —
    /// OPC UA on [`ScanConfig::port`].
    pub fn effective_suites(&self) -> Vec<(u16, Arc<dyn ProtocolSuite>)> {
        if self.suites.is_empty() {
            vec![(
                self.port,
                Arc::new(OpcUaSuite::new()) as Arc<dyn ProtocolSuite>,
            )]
        } else {
            self.suites
                .iter()
                .map(|(port, suite)| (port, Arc::clone(suite)))
                .collect()
        }
    }
}

/// Why [`ScanConfigBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `referral_depth > 0` but no registered suite follows referrals —
    /// the depth budget could never be spent.
    ReferralDepthWithoutReferralSuite,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ReferralDepthWithoutReferralSuite => write!(
                f,
                "referral_depth > 0 requires a registered suite with referral support \
                 (set referral_depth to 0, or register a suite that follows referrals)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ScanConfig`]: fluent setters, then a validating
/// [`ScanConfigBuilder::build`] that normalizes the zero-means-one
/// knobs exactly once.
#[derive(Clone)]
pub struct ScanConfigBuilder {
    cfg: ScanConfig,
}

impl ScanConfigBuilder {
    /// Sweep port for the classic single-suite configuration.
    pub fn port(mut self, port: u16) -> Self {
        self.cfg.port = port;
        self
    }

    /// SYN probes per second for the sweep stage.
    pub fn probes_per_second(mut self, pps: u64) -> Self {
        self.cfg.probes_per_second = pps;
        self
    }

    /// Source address the scanner connects from.
    pub fn scanner_address(mut self, addr: Ipv4) -> Self {
        self.cfg.scanner_address = addr;
        self
    }

    /// OPC UA client identity/politeness configuration.
    pub fn client(mut self, client: ClientConfig) -> Self {
        self.cfg.client = client;
        self
    }

    /// Budget for the traversal stage.
    pub fn budget(mut self, budget: TraversalBudget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Whether to attempt anonymous sessions at all.
    pub fn attempt_session(mut self, attempt: bool) -> Self {
        self.cfg.attempt_session = attempt;
        self
    }

    /// Record-channel capacity (0 normalized to 1 at build).
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.cfg.channel_capacity = capacity;
        self
    }

    /// Worker thread count (0 normalized to 1 at build).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Maximum referral-chain depth (0 disables referral following).
    pub fn referral_depth(mut self, depth: u32) -> Self {
        self.cfg.referral_depth = depth;
        self
    }

    /// Maximum referral targets probed per campaign.
    pub fn referral_budget(mut self, budget: usize) -> Self {
        self.cfg.referral_budget = budget;
        self
    }

    /// Connect-phase retry/backoff policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Registers `suite` on `port` (replacing any suite already there).
    pub fn suite(mut self, port: u16, suite: Arc<dyn ProtocolSuite>) -> Self {
        self.cfg.suites.register(port, suite);
        self
    }

    /// Replaces the whole suite registry.
    pub fn suites(mut self, suites: SuiteRegistry) -> Self {
        self.cfg.suites = suites;
        self
    }

    /// Validates and finishes the configuration. The zero-means-one
    /// knobs (`workers`, `channel_capacity`, `retry.max_attempts`) are
    /// normalized here, once, so the engine can rely on the invariant
    /// instead of re-checking at every use.
    pub fn build(self) -> Result<ScanConfig, ConfigError> {
        let mut cfg = self.cfg;
        cfg.workers = cfg.workers.max(1);
        cfg.channel_capacity = cfg.channel_capacity.max(1);
        cfg.retry.max_attempts = cfg.retry.max_attempts.max(1);
        if cfg.referral_depth > 0
            && !cfg
                .effective_suites()
                .iter()
                .any(|(_, suite)| suite.follows_referrals())
        {
            return Err(ConfigError::ReferralDepthWithoutReferralSuite);
        }
        Ok(cfg)
    }
}

/// Mutable state threaded through the probe stack for one target.
pub struct ProbeContext<'a> {
    /// The network under measurement.
    pub internet: &'a Internet,
    /// Scan configuration.
    pub config: &'a ScanConfig,
    /// Campaign-wide certificate interner: every certificate a probe
    /// stage captures goes through it, so a certificate served by N
    /// hosts is parsed and thumbprinted once.
    pub certs: &'a CertStore,
    /// The target address.
    pub target: Ipv4,
    /// The target port (the sweep port, or whatever a referral named).
    pub port: u16,
    /// `opc.tcp://…` URL of the target.
    pub endpoint_url: String,
    /// The connected client, once the UACP stage established it.
    pub client: Option<UaClient<TcpStreamSim>>,
    /// Per-target nonce seed.
    pub seed: u64,
    /// The protocol suite driving this probe — owns the connect-error
    /// classification (defaults to plain OPC UA; the engine installs
    /// the registered suite before the first stage runs).
    pub suite: Arc<dyn ProtocolSuite>,
}

impl<'a> ProbeContext<'a> {
    /// Builds a context for an explicit `(target, port)` pair — the
    /// sweep passes [`ScanConfig::port`], the referral engine whatever
    /// port the announced URL named.
    pub fn for_target(
        internet: &'a Internet,
        config: &'a ScanConfig,
        certs: &'a CertStore,
        target: Ipv4,
        port: u16,
        seed: u64,
    ) -> Self {
        ProbeContext {
            internet,
            config,
            certs,
            target,
            port,
            endpoint_url: format!("opc.tcp://{target}:{port}/"),
            client: None,
            seed,
            suite: Arc::new(OpcUaSuite::new()),
        }
    }

    /// Runs the connect phase under [`ScanConfig::retry`]: up to
    /// `max_attempts` SYNs with jittered exponential backoff between
    /// them, throttle-aware pacing, and a [`HostOutcome`] verdict (plus
    /// attempt/backoff accounting) written to `record`.
    ///
    /// Every wait lands on this probe's clock fork — exactly like probe
    /// latency — so hostile campaigns stay byte-identical at any worker
    /// count.
    pub fn connect_with_retry(&self, record: &mut ScanRecord) -> Option<TcpStreamSim> {
        /// Salt for the per-target backoff-jitter stream ("RETRY"),
        /// keeping it independent of the nonce stream sharing the seed.
        const RETRY_JITTER_SALT: u64 = 0x0052_4554_5259;
        let policy = &self.config.retry;
        let mut jitter = StdRng::seed_from_u64(self.seed ^ RETRY_JITTER_SALT);
        let mut backoff = policy.backoff_micros;
        let mut throttled = false;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                let span = backoff.saturating_mul(policy.jitter_permille) / 1_000;
                let mut wait = backoff
                    + if span > 0 {
                        jitter.gen_range(0..span)
                    } else {
                        0
                    };
                if throttled {
                    // Rate-limit signature: stretch the wait instead of
                    // hammering the firewall's detection window.
                    wait = wait.saturating_mul(policy.throttle_pace_multiplier.max(1));
                }
                self.internet.clock().advance_micros(wait);
                record.backoff_micros += wait;
                backoff = backoff.saturating_mul(policy.backoff_multiplier.max(1));
            }
            record.connect_attempts = attempt + 1;
            match self.internet.connect_attempt(
                self.config.scanner_address,
                self.target,
                self.port,
                attempt,
            ) {
                Ok(stream) => {
                    record.outcome = HostOutcome::Ok;
                    return Some(stream);
                }
                Err(err) => {
                    // The suite owns the error→outcome taxonomy; the
                    // retry ladder only decides what is worth retrying.
                    record.outcome = self.suite.classify_connect_error(err);
                    match err {
                        // RST is an answer: retrying is pointless. A
                        // silent tarpit stalls every attempt
                        // identically; one burned stall budget is
                        // enough evidence.
                        ConnectError::Refused | ConnectError::Stalled => return None,
                        ConnectError::NoRoute => throttled = false,
                        ConnectError::Throttled => throttled = true,
                    }
                }
            }
        }
        None
    }
}

/// Whether the pipeline continues with the next stage for this target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Run the next probe.
    Continue,
    /// Stop probing this target (record keeps whatever was learned).
    Stop,
}

/// One measurement stage.
pub trait Probe {
    /// Stage name (diagnostics).
    fn name(&self) -> &'static str;

    /// Runs the stage, updating `record` with whatever it learned.
    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome;
}

/// Stage 1: TCP connect plus UACP HEL/ACK. Filters out services that
/// answer on 4840 without speaking OPC UA (the paper found plenty).
pub struct UacpProbe;

impl Probe for UacpProbe {
    fn name(&self) -> &'static str {
        "uacp"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        let Some(stream) = ctx.connect_with_retry(record) else {
            return ProbeOutcome::Stop;
        };
        // Budget the post-connect conversation only: retry timeouts are
        // already classified, but a delivered stream can still be a
        // byte-dribbling tarpit that stalls the handshake forever.
        let stage_start = ctx.internet.clock().now_micros();
        let mut client = UaClient::new(
            stream,
            ctx.internet.clock().clone(),
            ctx.config.client.clone(),
            ctx.seed,
        );
        match client.handshake(&ctx.endpoint_url) {
            Ok(()) => {
                record.opcua_mut().hello_ok = true;
                ctx.client = Some(client);
                ProbeOutcome::Continue
            }
            Err(_) => {
                // A peer that accepted and then dribbled the stage
                // budget away is a tarpit, not a non-OPC-UA speaker.
                let elapsed = ctx
                    .internet
                    .clock()
                    .now_micros()
                    .saturating_sub(stage_start);
                if elapsed >= ctx.config.retry.stage_budget_micros {
                    record.outcome = HostOutcome::Tarpitted;
                }
                ProbeOutcome::Stop
            }
        }
    }
}

/// Stage 2: endpoint discovery over an insecure channel (always
/// permitted for discovery) — opens the `None`-policy channel and
/// snapshots GetEndpoints into the record.
pub struct EndpointsProbe;

impl Probe for EndpointsProbe {
    fn name(&self) -> &'static str {
        "endpoints"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        let url = ctx.endpoint_url.clone();
        let certs = ctx.certs;
        let Some(client) = ctx.client.as_mut() else {
            return ProbeOutcome::Stop;
        };
        if client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .is_err()
        {
            return ProbeOutcome::Stop;
        }
        let endpoints = match client.get_endpoints(&url) {
            Ok(eps) => eps,
            Err(_) => return ProbeOutcome::Stop,
        };
        let payload = record.opcua_mut();
        if let Some(first) = endpoints.first() {
            payload.application_uri = first.server.application_uri.clone();
            payload.application_name = first.server.application_name.text.clone();
            payload.application_type = Some(first.server.application_type);
        }
        payload.endpoints = endpoints
            .iter()
            .map(|ep| EndpointSnapshot::from_description(ep, certs))
            .collect();
        ProbeOutcome::Continue
    }
}

/// Stage 3: FindServers over the already-open discovery channel —
/// collects discovery URLs pointing away from this host (LDS referrals)
/// and reconciles the application type. Best-effort: a server that
/// rejects FindServers still continues to the session stage, exactly as
/// the paper's scanner did after adding the call on 2020-05-04.
pub struct FindServersProbe;

impl Probe for FindServersProbe {
    fn name(&self) -> &'static str {
        "find_servers"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        let url = ctx.endpoint_url.clone();
        let Some(client) = ctx.client.as_mut() else {
            return ProbeOutcome::Stop;
        };
        if let Ok(servers) = client.find_servers(&url) {
            if let Ok(own) = OpcUrl::parse(&url) {
                merge_find_servers(record, &own, &servers);
            }
        }
        ProbeOutcome::Continue
    }
}

/// The combined discovery stage: [`EndpointsProbe`] then (only if
/// endpoints succeeded) [`FindServersProbe`], as one [`Probe`]. Kept for
/// custom stacks that want discovery as a single stage; the default
/// stack runs the two halves as separate stages.
pub struct DiscoveryProbe;

impl Probe for DiscoveryProbe {
    fn name(&self) -> &'static str {
        "discovery"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        match EndpointsProbe.run(ctx, record) {
            ProbeOutcome::Continue => FindServersProbe.run(ctx, record),
            ProbeOutcome::Stop => ProbeOutcome::Stop,
        }
    }
}

/// Folds a FindServers answer into `record`.
///
/// Two rules the naive version got wrong:
///
/// * the application type is taken only from the host's *own*
///   description — matched by ApplicationUri (or by a discovery URL
///   normalizing to the probed endpoint), never from some other
///   application that happens to share the answer — and it *upgrades*
///   a `Server` verdict from GetEndpoints when the host describes
///   itself as a discovery server;
/// * self-referrals are filtered by normalized target equality
///   ([`OpcUrl::same_target`]), so trailing-slash/case/zero-padded-port
///   spellings of the host's own URL do not leak through as referrals.
///
/// Referred URLs are stored in canonical form (deduplicated); URLs that
/// do not parse are kept verbatim so the referral engine can account
/// them as unfollowable.
pub fn merge_find_servers(
    record: &mut ScanRecord,
    own_url: &OpcUrl,
    servers: &[ApplicationDescription],
) {
    let payload = record.opcua_mut();
    for app in servers {
        let is_self = (payload.application_uri.is_some()
            && app.application_uri == payload.application_uri)
            || app
                .discovery_urls
                .iter()
                .any(|u| OpcUrl::parse(u).is_ok_and(|p| p.same_target(own_url)));
        if is_self && app.application_type == ApplicationType::DiscoveryServer {
            payload.application_type = Some(ApplicationType::DiscoveryServer);
        }
        for referred in &app.discovery_urls {
            let stored = match OpcUrl::parse(referred) {
                Ok(parsed) => {
                    if parsed.same_target(own_url) {
                        continue; // the host's own URL, in any spelling
                    }
                    parsed.canonical()
                }
                // Unparseable URLs are recorded as announced; the
                // referral engine counts them as unfollowable.
                Err(_) => referred.clone(),
            };
            if !payload.referred_urls.contains(&stored) {
                payload.referred_urls.push(stored);
            }
        }
    }
}

/// Stage 3: anonymous session establishment and budgeted traversal —
/// only where the server *advertises* credential-less access (the
/// paper's ethical line, Appendix A.1).
pub struct SessionProbe;

impl Probe for SessionProbe {
    fn name(&self) -> &'static str {
        "session"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        if !ctx.config.attempt_session || !record.advertises_anonymous() {
            record.opcua_mut().session = SessionOutcome::NotAttempted;
            return ProbeOutcome::Continue;
        }
        let url = ctx.endpoint_url.clone();
        let budget = ctx.config.budget;
        let Some(client) = ctx.client.as_mut() else {
            return ProbeOutcome::Stop;
        };

        let attempt = client.create_session(&url).and_then(|()| {
            client.activate_session(IdentityToken::Anonymous {
                policy_id: Some("anon".into()),
            })
        });
        match attempt {
            Ok(()) => {
                record.opcua_mut().session = SessionOutcome::AnonymousActivated;
                // BuildInfo → SoftwareVersion (OPC UA NodeId i=2264):
                // one cheap read before the traversal. Longitudinal
                // campaigns diff this field week over week to detect
                // (non-)patching, the paper's §6 signal.
                if let Ok(values) = client.read(vec![(
                    NodeId::numeric(0, SERVER_SOFTWARE_VERSION_NODE),
                    AttributeId::Value,
                )]) {
                    if let Some(Variant::String(Some(v))) = values
                        .into_iter()
                        .next()
                        .filter(DataValue::is_good)
                        .and_then(|dv| dv.value)
                    {
                        record.opcua_mut().software_version = Some(v);
                    }
                }
                if let Ok(t) = traverse(client, &budget) {
                    record.opcua_mut().traversal = Some(TraversalSummary::from_traversal(&t));
                }
                let _ = client.close_session();
            }
            Err(err) => {
                record.opcua_mut().session = classify_session_error(&err);
            }
        }
        ProbeOutcome::Continue
    }
}

/// Maps a client error onto the failure stages of Table 2.
pub fn classify_session_error(err: &ClientError) -> SessionOutcome {
    if err.is_auth_rejection() {
        SessionOutcome::AuthRejected
    } else if err.is_channel_rejection() {
        SessionOutcome::ChannelRejected
    } else {
        SessionOutcome::ProtocolError
    }
}

/// The default probe stack: UACP → endpoints → FindServers → session.
///
/// Behaviorally identical to the historical three-stage stack (the
/// combined [`DiscoveryProbe`] stopped before FindServers whenever
/// endpoints failed, exactly as the split stages compose), with one
/// stage per protocol round-trip.
pub fn default_stack() -> Vec<Box<dyn Probe>> {
    vec![
        Box::new(UacpProbe),
        Box::new(EndpointsProbe),
        Box::new(FindServersProbe),
        Box::new(SessionProbe),
    ]
}

/// A discovery-only stack (no session establishment), e.g. for strictly
/// passive-characterization campaigns.
pub fn discovery_stack() -> Vec<Box<dyn Probe>> {
    vec![
        Box::new(UacpProbe),
        Box::new(EndpointsProbe),
        Box::new(FindServersProbe),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_types::StatusCode;

    fn base_record(uri: &str) -> ScanRecord {
        let mut r = ScanRecord::new(Ipv4::new(10, 0, 0, 1), 0, 0);
        let payload = r.opcua_mut();
        payload.hello_ok = true;
        payload.application_uri = Some(uri.into());
        payload.application_type = Some(ApplicationType::Server);
        r
    }

    fn app(uri: &str, ty: ApplicationType, urls: &[&str]) -> ApplicationDescription {
        let mut a = ApplicationDescription::server(uri, "app");
        a.application_type = ty;
        a.discovery_urls = urls.iter().map(|s| s.to_string()).collect();
        a
    }

    #[test]
    fn self_referral_variants_filtered_by_normalization() {
        let own = OpcUrl::parse("opc.tcp://10.0.0.1:4840/").unwrap();
        let mut record = base_record("urn:dev:1");
        merge_find_servers(
            &mut record,
            &own,
            &[app(
                "urn:dev:1",
                ApplicationType::Server,
                &[
                    "opc.tcp://10.0.0.1:4840/",
                    "OPC.TCP://10.0.0.1:4840",
                    "opc.tcp://10.0.0.1:04840/",
                    "opc.tcp://10.0.0.1:4840///",
                    "opc.tcp://10.0.0.2:4840/",
                ],
            )],
        );
        // Only the genuinely-foreign URL survives, canonicalized.
        assert_eq!(
            record.opcua().referred_urls,
            vec!["opc.tcp://10.0.0.2:4840/"]
        );
    }

    #[test]
    fn same_host_other_port_is_a_referral() {
        let own = OpcUrl::parse("opc.tcp://10.0.0.1:4840/").unwrap();
        let mut record = base_record("urn:dev:1");
        merge_find_servers(
            &mut record,
            &own,
            &[app(
                "urn:dev:1",
                ApplicationType::Server,
                &["opc.tcp://10.0.0.1:4841/"],
            )],
        );
        assert_eq!(
            record.opcua().referred_urls,
            vec!["opc.tcp://10.0.0.1:4841/"]
        );
    }

    #[test]
    fn self_description_upgrades_application_type() {
        // GetEndpoints said Server; the host's own FindServers entry
        // says DiscoveryServer — the record must upgrade.
        let own = OpcUrl::parse("opc.tcp://10.0.0.1:4840/").unwrap();
        let mut record = base_record("urn:lds:1");
        merge_find_servers(
            &mut record,
            &own,
            &[app(
                "urn:lds:1",
                ApplicationType::DiscoveryServer,
                &["opc.tcp://10.0.0.1:4840/"],
            )],
        );
        assert_eq!(
            record.application_type(),
            Some(ApplicationType::DiscoveryServer)
        );
    }

    #[test]
    fn foreign_discovery_server_does_not_mislabel_host() {
        // A plain server whose answer mentions some *other* LDS must
        // not itself be classified as a discovery server.
        let own = OpcUrl::parse("opc.tcp://10.0.0.1:4840/").unwrap();
        let mut record = base_record("urn:dev:1");
        merge_find_servers(
            &mut record,
            &own,
            &[
                app(
                    "urn:dev:1",
                    ApplicationType::Server,
                    &["opc.tcp://10.0.0.1:4840/"],
                ),
                app(
                    "urn:other:lds",
                    ApplicationType::DiscoveryServer,
                    &["opc.tcp://10.9.9.9:4840/"],
                ),
            ],
        );
        assert_eq!(record.application_type(), Some(ApplicationType::Server));
        assert_eq!(
            record.opcua().referred_urls,
            vec!["opc.tcp://10.9.9.9:4840/"]
        );
    }

    #[test]
    fn self_match_by_discovery_url_when_uri_unknown() {
        // GetEndpoints failed (no application_uri): the self entry is
        // still recognized via a discovery URL naming the probed target.
        let own = OpcUrl::parse("opc.tcp://10.0.0.1:4840/").unwrap();
        let mut record = ScanRecord::new(Ipv4::new(10, 0, 0, 1), 0, 0);
        record.opcua_mut().hello_ok = true;
        merge_find_servers(
            &mut record,
            &own,
            &[app(
                "urn:lds:1",
                ApplicationType::DiscoveryServer,
                &["OPC.TCP://10.0.0.1:4840"],
            )],
        );
        assert_eq!(
            record.application_type(),
            Some(ApplicationType::DiscoveryServer)
        );
        assert!(record.referred_urls().is_empty());
    }

    #[test]
    fn unparseable_urls_kept_verbatim_and_deduplicated() {
        let own = OpcUrl::parse("opc.tcp://10.0.0.1:4840/").unwrap();
        let mut record = base_record("urn:dev:1");
        let apps = [
            app(
                "urn:dev:1",
                ApplicationType::Server,
                &["http://not-opcua.example/", "opc.tcp://10.0.0.3:4845"],
            ),
            app(
                "urn:dev:2",
                ApplicationType::Server,
                &["http://not-opcua.example/", "opc.tcp://10.0.0.3:04845/"],
            ),
        ];
        merge_find_servers(&mut record, &own, &apps);
        assert_eq!(
            record.opcua().referred_urls,
            vec!["http://not-opcua.example/", "opc.tcp://10.0.0.3:4845/"]
        );
    }

    #[test]
    fn session_error_classification() {
        assert_eq!(
            classify_session_error(&ClientError::Fault(StatusCode::BAD_IDENTITY_TOKEN_REJECTED)),
            SessionOutcome::AuthRejected
        );
        assert_eq!(
            classify_session_error(&ClientError::Remote {
                status: StatusCode::BAD_CERTIFICATE_UNTRUSTED,
                reason: None,
            }),
            SessionOutcome::ChannelRejected
        );
        assert_eq!(
            classify_session_error(&ClientError::NoReply),
            SessionOutcome::ProtocolError
        );
    }

    #[test]
    fn default_stack_order() {
        let stack = default_stack();
        let names: Vec<&str> = stack.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["uacp", "endpoints", "find_servers", "session"]);
    }

    #[test]
    fn builder_normalizes_and_keeps_defaults() {
        let cfg = ScanConfig::builder()
            .workers(0)
            .channel_capacity(0)
            .build()
            .unwrap();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.channel_capacity, 1);
        assert_eq!(cfg.retry.max_attempts, 1);
        // Defaults survive untouched knobs; the empty registry means
        // classic OPC UA on the configured port.
        assert_eq!(cfg.port, 4840);
        let suites = cfg.effective_suites();
        assert_eq!(suites.len(), 1);
        assert_eq!(suites[0].0, 4840);
        assert_eq!(suites[0].1.name(), "opcua");
    }

    #[test]
    fn builder_rejects_referral_depth_without_referral_suite() {
        use crate::suite::UatTlsSuite;
        let err = match ScanConfig::builder()
            .suite(4843, Arc::new(UatTlsSuite::new()))
            .referral_depth(2)
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("expected rejection"),
        };
        assert_eq!(err, ConfigError::ReferralDepthWithoutReferralSuite);
        // Zero depth makes the same registry valid.
        let cfg = ScanConfig::builder()
            .suite(4843, Arc::new(UatTlsSuite::new()))
            .referral_depth(0)
            .build()
            .unwrap();
        assert_eq!(cfg.effective_suites()[0].1.name(), "uat-tls");
        // And adding a referral-capable suite does too.
        let cfg = ScanConfig::builder()
            .suite(4843, Arc::new(UatTlsSuite::new()))
            .suite(4840, Arc::new(OpcUaSuite::new()))
            .referral_depth(2)
            .build()
            .unwrap();
        let ports: Vec<u16> = cfg.effective_suites().iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![4840, 4843]);
    }

    #[test]
    fn effective_knobs_centralize_zero_normalization() {
        let cfg = ScanConfig {
            workers: 0,
            channel_capacity: 0,
            ..ScanConfig::default()
        };
        assert_eq!(cfg.effective_workers(), 1);
        assert_eq!(cfg.effective_channel_capacity(), 1);
    }
}
