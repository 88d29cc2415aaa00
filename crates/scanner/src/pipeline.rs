//! The end-to-end measurement pipeline: zmap-style sweep → probe stack →
//! streamed [`ScanRecord`]s.
//!
//! Records flow through a *bounded* channel ([`Scanner::scan_stream`]):
//! the producer blocks when the consumer lags, so memory stays O(channel
//! capacity) no matter how many of the 2³² addresses answer. For
//! synchronous use (tests, small universes) [`Scanner::scan_with`] drives
//! a callback on the caller's thread and [`Scanner::scan_collect`] gathers
//! everything into a `Vec`.
//!
//! ## Sharded scanning
//!
//! [`ScanConfig::workers`] shards the campaign across N threads: the
//! zmap permutation (a function of the seed alone) is cut into chunks of
//! consecutive walk steps ([`netsim::SweepChunks`]), and each worker
//! claims the next unclaimed chunk whenever it finishes one, running its
//! own probe stack, so a worker on a slower core simply sweeps less.
//! Records carry their global permutation step, each worker's stream is
//! sorted by it, and the coordinator merges the N streams back into
//! exact discovery order, so the output is **byte-identical for a fixed
//! seed regardless of worker count** (and of which worker probed what).
//!
//! Two invariants make that determinism hold:
//!
//! 1. every host is probed on an independent clock *fork* anchored at
//!    the campaign epoch ([`netsim::VirtualClock::fork`] via
//!    [`Internet::with_clock`]), so record contents are a pure function
//!    of (host, seed, epoch) — never of probe order;
//! 2. campaign time is accounted once from summed, order-independent
//!    quantities: SYN pacing in microseconds from total probes sent
//!    (sweep plus referral follow-ups), plus the sum of per-host probe
//!    latencies.
//!
//! ## Referral following
//!
//! After the sweep, the pipeline follows FindServers referrals
//! (the paper's 2020-05-04 scanner change, which surfaced >1000 servers
//! hidden behind discovery servers on non-default ports): referred URLs
//! are normalized through [`crate::url::OpcUrl`], deduplicated against
//! everything the sweep already covered, checked against the blocklist,
//! and probed breadth-first level by level up to
//! [`ScanConfig::referral_depth`] /  [`ScanConfig::referral_budget`].
//! Referral records carry [`DiscoveredVia::Referral`] provenance and are
//! emitted after the sweep records, in deterministic queue order — so the
//! full output stream stays byte-identical per seed at any worker count.

use crate::probe::{Probe, ProbeContext, ProbeOutcome, ScanConfig, ScanEngine};
use crate::record::{DiscoveredVia, ScanRecord};
use crate::sched::{
    CancelToken, EngineRun, EngineStats, EventLoop, Job, PendingUrl, SweepCheckpoint,
};
use crate::suite::{OpcUaSuite, ProtocolSuite};
use crate::url::OpcUrl;
use netsim::{
    Blocklist, Cidr, Internet, Ipv4, Occupancy, SweepChunks, SweepConfig, SweepStats, SweepWalk,
    SynScanner, VirtualClock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
// ua-lint: allow(unordered-iteration) -- dedup membership only; checkpoint export sorts before emitting
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use ua_crypto::{CertStore, CertStoreStats};

/// Accounting of the referral-following phase. Every announced URL ends
/// up in exactly one disposition bucket:
/// `unfollowable + already_probed + blocklisted + truncated + followed
/// == urls_announced`, and `followed == dead + opcua_hosts +
/// non_opcua_hosts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferralStats {
    /// Referral URLs announced across all records (after per-record
    /// normalization and dedup).
    pub urls_announced: u64,
    /// URLs that cannot be turned into a probe target: unparseable, or
    /// a DNS name the scanner cannot resolve.
    pub unfollowable: u64,
    /// Targets skipped because the sweep already covered them or an
    /// earlier referral probed them — includes every self-referral loop.
    pub already_probed: u64,
    /// Targets skipped because their address is blocklisted.
    pub blocklisted: u64,
    /// Fresh targets dropped by the depth or budget limits.
    pub truncated: u64,
    /// Referral probes actually sent.
    pub followed: u64,
    /// Followed targets with nothing listening (dead referrals).
    pub dead: u64,
    /// Followed targets that spoke OPC UA.
    pub opcua_hosts: u64,
    /// Followed targets that answered but did not speak OPC UA.
    pub non_opcua_hosts: u64,
    /// Deepest referral chain actually probed (0 when nothing was
    /// followed).
    pub max_depth: u32,
}

impl ReferralStats {
    /// Folds another phase's counters in. Multi-suite campaigns run one
    /// referral phase per referral-capable suite and sum them; depths
    /// take the max (the deepest chain any suite followed).
    pub fn absorb(&mut self, other: ReferralStats) {
        self.urls_announced += other.urls_announced;
        self.unfollowable += other.unfollowable;
        self.already_probed += other.already_probed;
        self.blocklisted += other.blocklisted;
        self.truncated += other.truncated;
        self.followed += other.followed;
        self.dead += other.dead;
        self.opcua_hosts += other.opcua_hosts;
        self.non_opcua_hosts += other.non_opcua_hosts;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Connect-phase fault accounting across a campaign: one
/// [`HostOutcome`](crate::record::HostOutcome) bucket increment per
/// emitted record, plus the retry layer's cost telemetry. Dead referral
/// targets (never connected) are counted by
/// [`ReferralStats::dead`], not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Records whose connect phase delivered a stream.
    pub ok: u64,
    /// Records refused (RST) — live host, closed port.
    pub unreachable: u64,
    /// Records that exhausted the retry budget on SYN timeouts.
    pub timed_out: u64,
    /// Records that exhausted the retry budget on rate-limit drops.
    pub throttled: u64,
    /// Records classified as tarpitted (silent stall or budget-burning
    /// byte dribble).
    pub tarpitted: u64,
    /// Records that needed more than one connect attempt.
    pub retried_hosts: u64,
    /// Total connect attempts across all records.
    pub connect_attempts: u64,
    /// Total virtual microseconds spent in retry backoff.
    pub backoff_micros: u64,
}

impl FaultStats {
    /// Folds one emitted record into the tally.
    pub fn observe(&mut self, record: &ScanRecord) {
        match record.outcome {
            crate::record::HostOutcome::Ok => self.ok += 1,
            crate::record::HostOutcome::Unreachable => self.unreachable += 1,
            crate::record::HostOutcome::TimedOut => self.timed_out += 1,
            crate::record::HostOutcome::Throttled => self.throttled += 1,
            crate::record::HostOutcome::Tarpitted => self.tarpitted += 1,
        }
        if record.connect_attempts > 1 {
            self.retried_hosts += 1;
        }
        self.connect_attempts += u64::from(record.connect_attempts);
        self.backoff_micros += record.backoff_micros;
    }

    /// Records the connect phase could not recover (everything but
    /// `ok`).
    pub fn unrecovered(&self) -> u64 {
        self.unreachable + self.timed_out + self.throttled + self.tarpitted
    }
}

/// Aggregate accounting of one scan campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Sweep-stage accounting (probes, blocklist hits, responsive).
    pub sweep: SweepStats,
    /// Referral-following accounting (the paper's Table 1 delta).
    pub referrals: ReferralStats,
    /// Hosts that completed the UACP handshake (actual OPC UA speakers),
    /// including referral-discovered ones.
    pub opcua_hosts: u64,
    /// Responsive hosts that did not speak OPC UA.
    pub non_opcua_hosts: u64,
    /// Certificate-interning counters: total certificate sightings
    /// across all endpoint snapshots versus distinct DER payloads — the
    /// reuse factor of §5.2, observable per campaign.
    pub certs: CertStoreStats,
    /// Virtual unix time the campaign started.
    pub started_unix: i64,
    /// Virtual unix time the campaign finished.
    pub finished_unix: i64,
    /// Connect-phase fault/retry accounting (all zeros except `ok` on a
    /// polite network).
    pub faults: FaultStats,
}

/// How [`Scanner::scan_resumable`] ended.
// A transient return value, produced once per scan and immediately
// destructured — the variant size gap costs nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ScanOutcome {
    /// The scan ran to completion.
    Complete {
        /// Campaign summary, byte-identical to the threaded engine's.
        summary: ScanSummary,
        /// Event-loop scheduler telemetry for this call (timer counts,
        /// in-flight high-water mark). Not part of the summary because
        /// the summary must not depend on the engine.
        engine: EngineStats,
    },
    /// Cancellation was observed at a safe point. Pass the checkpoint
    /// back to [`Scanner::scan_resumable`] to continue; the stitched
    /// record stream is byte-identical to an uninterrupted run.
    Aborted {
        /// Where to pick the scan back up.
        checkpoint: Box<SweepCheckpoint>,
    },
}

/// One referral URL waiting to be classified: who announced it, what it
/// said, and at which chain depth it would be probed.
struct PendingReferral {
    from: Ipv4,
    url: String,
    depth: u32,
}

/// A classified, accepted referral probe target.
struct ReferralTarget {
    addr: Ipv4,
    port: u16,
    from: Ipv4,
    depth: u32,
}

/// The campaign driver.
#[derive(Clone)]
pub struct Scanner {
    internet: Internet,
    blocklist: Blocklist,
    config: ScanConfig,
}

impl Scanner {
    /// Creates a scanner over `internet` honoring `blocklist`.
    pub fn new(internet: Internet, blocklist: Blocklist, config: ScanConfig) -> Self {
        Scanner {
            internet,
            blocklist,
            config,
        }
    }

    /// The scan configuration.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// The simulated Internet under measurement (multi-campaign drivers
    /// use its clock to pin weekly epochs).
    pub fn internet(&self) -> &Internet {
        &self.internet
    }

    /// Probes a single `(address, port)` target with the given probe
    /// stack, returning the record. Exposed for targeted re-scans and
    /// tests. Runs on the shared clock; campaign scans instead fork a
    /// per-host clock (see [`Self::scan_with`]), and campaign referral
    /// probes additionally carry [`DiscoveredVia::Referral`] provenance.
    pub fn probe_host(
        &self,
        stack: &mut [Box<dyn Probe>],
        addr: netsim::Ipv4,
        port: u16,
        seed: u64,
    ) -> ScanRecord {
        // Standalone probes intern into a throwaway store; campaign
        // scans share one store across every probe (see scan_with).
        let certs = CertStore::new();
        let suite: Arc<dyn ProtocolSuite> = Arc::new(OpcUaSuite::new());
        probe_host_on(
            &self.internet,
            &self.config,
            &certs,
            &suite,
            stack,
            addr,
            port,
            DiscoveredVia::Sweep,
            seed,
        )
    }

    /// Probes a target on an independent clock forked from `epoch`,
    /// returning the record plus the virtual microseconds the probe
    /// consumed. Record contents depend only on (host, port, seed,
    /// epoch).
    #[allow(clippy::too_many_arguments)]
    fn probe_host_at_epoch(
        &self,
        epoch: &VirtualClock,
        certs: &CertStore,
        suite: &Arc<dyn ProtocolSuite>,
        stack: &mut [Box<dyn Probe>],
        addr: netsim::Ipv4,
        port: u16,
        via: DiscoveredVia,
        seed: u64,
    ) -> (ScanRecord, u64) {
        let clock = epoch.fork();
        let start = clock.now_micros();
        let internet = self.internet.with_clock(clock.clone());
        let record = probe_host_on(
            &internet,
            &self.config,
            certs,
            suite,
            stack,
            addr,
            port,
            via,
            seed,
        );
        (record, clock.now_micros().saturating_sub(start))
    }

    /// Runs the full campaign synchronously, handing each record to
    /// `sink` as soon as its host is fully probed — in discovery order,
    /// which is identical for every [`ScanConfig::workers`] setting.
    pub fn scan_with<F>(&self, universe: &[Cidr], seed: u64, sink: F) -> ScanSummary
    where
        F: FnMut(ScanRecord),
    {
        // One certificate interner per campaign, shared by all shards:
        // interned handles are pure functions of the DER bytes, so the
        // worker-count byte-identity guarantee survives interning.
        self.scan_with_certs(universe, seed, &CertStore::new(), sink)
    }

    /// [`Self::scan_with`] against a caller-owned certificate interner.
    /// Longitudinal drivers (see [`crate::Campaign`]) pass the same
    /// store to every weekly campaign: a certificate that survives the
    /// week is parsed, thumbprinted, and verified exactly once for the
    /// whole study, and `summary.certs` reports the *cumulative*
    /// sighting/distinct counters across campaigns.
    pub fn scan_with_certs<F>(
        &self,
        universe: &[Cidr],
        seed: u64,
        certs: &CertStore,
        mut sink: F,
    ) -> ScanSummary
    where
        F: FnMut(ScanRecord),
    {
        if self.config.engine == ScanEngine::EventLoop {
            // The event-loop engine is the resumable path run to
            // completion; a fresh token never cancels.
            return match self.scan_resumable(universe, seed, certs, None, &CancelToken::new(), sink)
            {
                ScanOutcome::Complete { summary, .. } => summary,
                ScanOutcome::Aborted { .. } => {
                    unreachable!("scan with a fresh CancelToken cannot abort")
                }
            };
        }
        let mut summary = ScanSummary {
            started_unix: self.internet.clock().now_unix_seconds(),
            ..ScanSummary::default()
        };
        // Every probed host gets a clock forked from this frozen epoch,
        // so records cannot observe each other through shared time.
        let epoch = self.internet.clock().fork();
        let workers = self.config.effective_workers();
        let mut probe_micros: u64 = 0;
        let mut opcua_hosts: u64 = 0;
        let mut non_opcua_hosts: u64 = 0;
        let mut fault_stats = FaultStats::default();
        let mut emit = |record: ScanRecord| {
            if record.speaks() {
                opcua_hosts += 1;
            } else {
                non_opcua_hosts += 1;
            }
            fault_stats.observe(&record);
            sink(record);
        };
        // One full phase (sweep, then referral following for suites that
        // have it) per registered suite, in ascending port order. Phases
        // are independent — per-phase frontier and dedup state — so a
        // mixed registry emits exactly the concatenation of the
        // single-suite runs.
        let mut sweep_total = SweepStats::default();
        let mut referral_total = ReferralStats::default();
        for (sweep_port, suite) in self.config.effective_suites() {
            let follows = suite.follows_referrals();
            // Referral URLs harvested from emitted records, in emission
            // order — the deterministic seed of the referral queue.
            let mut frontier: Vec<PendingReferral> = Vec::new();
            let phase_sweep = {
                let mut sweep_emit = |record: ScanRecord| {
                    if follows {
                        collect_referrals(suite.as_ref(), &record, &mut frontier);
                    }
                    emit(record);
                };
                if workers == 1 {
                    // Single shard runs inline: the sweep streams
                    // responsive addresses straight into the probe
                    // stack, no threads.
                    let syn = SynScanner::new(
                        &self.internet,
                        &self.blocklist,
                        self.sweep_config(sweep_port),
                    );
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut stack = suite.stack();
                    syn.sweep_shard(universe, &mut rng, 0, 1, |_pos, addr| {
                        let (record, micros) = self.probe_host_at_epoch(
                            &epoch,
                            certs,
                            &suite,
                            &mut stack,
                            addr,
                            sweep_port,
                            DiscoveredVia::Sweep,
                            seed ^ u64::from(addr.0),
                        );
                        probe_micros += micros;
                        sweep_emit(record);
                    })
                } else {
                    self.scan_sharded(
                        universe,
                        seed,
                        workers,
                        &epoch,
                        certs,
                        sweep_port,
                        &suite,
                        &mut probe_micros,
                        &mut sweep_emit,
                    )
                }
            };
            sweep_total = sweep_total + phase_sweep;
            if follows {
                referral_total.absorb(self.follow_referrals(
                    universe,
                    seed,
                    &epoch,
                    certs,
                    sweep_port,
                    &suite,
                    frontier,
                    &mut probe_micros,
                    &mut emit,
                ));
            }
        }
        summary.sweep = sweep_total;
        summary.referrals = referral_total;
        summary.opcua_hosts = opcua_hosts;
        summary.non_opcua_hosts = non_opcua_hosts;
        summary.faults = fault_stats;
        summary.certs = certs.stats();
        // Account campaign time once, from order-independent sums: SYN
        // pacing in micros — integer-second division would stall the
        // clock entirely for campaigns shorter than a second of probes —
        // plus aggregate probe latency.
        let paced_probes = summary.sweep.probes_sent + summary.referrals.followed;
        let pacing_micros =
            paced_probes.saturating_mul(1_000_000) / self.config.probes_per_second.max(1);
        self.internet.clock().advance_micros(pacing_micros);
        self.internet.clock().advance_micros(probe_micros);
        summary.finished_unix = self.internet.clock().now_unix_seconds();
        summary
    }

    /// Runs the campaign on the event-driven engine (see
    /// [`crate::sched`]) with cooperative cancellation and
    /// deterministic abort/resume. Always uses the event loop
    /// regardless of [`ScanConfig::engine`] — the threaded engine has
    /// no checkpointable safe points.
    ///
    /// * `resume: None` starts a fresh scan at the current campaign
    ///   clock instant; `Some(checkpoint)` continues an aborted one
    ///   (same scanner, same universe, same seed — asserted).
    /// * `cancel` is polled between timer firings during the sweep and
    ///   at referral-level boundaries. On cancellation the scan returns
    ///   [`ScanOutcome::Aborted`] *without* advancing the campaign
    ///   clock: in-flight probes are dropped fork-clocks and all, and
    ///   time is only accounted when a scan completes.
    /// * Records emitted before an abort are final. The concatenation
    ///   of the aborted run's records and the resumed run's records is
    ///   byte-identical to an uninterrupted run (and to the threaded
    ///   engine at any worker count).
    pub fn scan_resumable<F>(
        &self,
        universe: &[Cidr],
        seed: u64,
        certs: &CertStore,
        resume: Option<SweepCheckpoint>,
        cancel: &CancelToken,
        mut sink: F,
    ) -> ScanOutcome
    where
        F: FnMut(ScanRecord),
    {
        // Rebuild (or initialize) the scan state. Everything an abort
        // checkpointed is carried forward; a fresh scan starts from the
        // shared campaign clock like the threaded engine does.
        let mut sweep_done = false;
        let mut suite_cursor: usize = 0;
        let mut resume_filter: Option<ResumeFilter> = None;
        let mut carried_sweep = SweepStats::default();
        let mut opcua_hosts: u64 = 0;
        let mut non_opcua_hosts: u64 = 0;
        let mut probe_micros: u64 = 0;
        let mut frontier: Vec<PendingReferral> = Vec::new();
        let mut ref_stats = ReferralStats::default();
        let mut fault_stats = FaultStats::default();
        // ua-lint: allow(unordered-iteration) -- dedup membership; checkpoint_probed sorts before export
        let mut probed: HashSet<(u32, u16)> = HashSet::new();
        let (epoch, started_unix) = match resume {
            None => (
                self.internet.clock().fork(),
                self.internet.clock().now_unix_seconds(),
            ),
            Some(cp) => {
                assert_eq!(cp.seed, seed, "resume must use the checkpoint's seed");
                sweep_done = cp.sweep_done;
                suite_cursor = cp.suite_cursor;
                if !cp.sweep_done {
                    resume_filter = Some(ResumeFilter {
                        next_step: cp.next_step,
                        pending: cp.in_flight.iter().copied().collect(),
                    });
                }
                carried_sweep = cp.sweep_stats;
                opcua_hosts = cp.opcua_hosts;
                non_opcua_hosts = cp.non_opcua_hosts;
                probe_micros = cp.probe_micros;
                frontier = cp
                    .frontier
                    .into_iter()
                    .map(|p| PendingReferral {
                        from: p.from,
                        url: p.url,
                        depth: p.depth,
                    })
                    .collect();
                ref_stats = cp.referral_stats;
                fault_stats = cp.fault_stats;
                probed = cp
                    .probed_referrals
                    .iter()
                    .map(|&(addr, port)| (addr.0, port))
                    .collect();
                (
                    VirtualClock::starting_at_micros(cp.epoch_micros),
                    cp.started_unix,
                )
            }
        };
        let epoch_micros = epoch.now_micros();
        let mut engine = EventLoop::new(&self.internet, &self.config, certs, &epoch);
        let checkpoint_frontier = |frontier: &[PendingReferral]| {
            frontier
                .iter()
                .map(|p| PendingUrl {
                    from: p.from,
                    url: p.url.clone(),
                    depth: p.depth,
                })
                .collect()
        };
        // ua-lint: allow(unordered-iteration) -- sorted here before it ever reaches a checkpoint
        let checkpoint_probed = |probed: &HashSet<(u32, u16)>| {
            let mut v: Vec<(Ipv4, u16)> = probed.iter().map(|&(a, p)| (Ipv4(a), p)).collect();
            v.sort_by_key(|&(a, p)| (a.0, p));
            v
        };

        // One full phase (sweep, then referral levels for suites that
        // have them) per registered suite, in ascending port order —
        // mirroring the threaded engine exactly. Phases already behind
        // `suite_cursor` were completed by the aborted run.
        let suites = self.config.effective_suites();
        let start_cursor = suite_cursor.min(suites.len());
        let mut sweep_total = carried_sweep;
        for (idx, (sweep_port, suite)) in suites.iter().enumerate().skip(start_cursor) {
            let sweep_port = *sweep_port;
            engine.set_suite(Arc::clone(suite));
            let follows = suite.follows_referrals();
            let phase_sweep_done = idx == start_cursor && sweep_done;
            if !phase_sweep_done {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut jobs = SweepJobs {
                    walk: SweepWalk::new(universe, &mut rng, 0, 1),
                    occupancy: self.internet.occupancy(),
                    blocklist: &self.blocklist,
                    port: sweep_port,
                    seed,
                    stats: SweepStats::default(),
                    cursor: 0,
                    resume: if idx == start_cursor {
                        resume_filter.take()
                    } else {
                        None
                    },
                };
                let run = engine.run(&mut jobs, Some(cancel), &mut |_, record, micros| {
                    probe_micros += micros;
                    // ua-lint: allow(panic-hygiene) -- sweep admission only emits jobs with a listener
                    let record = record.expect("sweep jobs always have a listener");
                    if record.speaks() {
                        opcua_hosts += 1;
                    } else {
                        non_opcua_hosts += 1;
                    }
                    fault_stats.observe(&record);
                    if follows {
                        collect_referrals(suite.as_ref(), &record, &mut frontier);
                    }
                    sink(record);
                    cancel.notch();
                });
                match run {
                    EngineRun::Cancelled { unemitted } => {
                        return ScanOutcome::Aborted {
                            checkpoint: Box::new(SweepCheckpoint {
                                seed,
                                epoch_micros,
                                started_unix,
                                suite_cursor: idx,
                                sweep_done: false,
                                next_step: jobs.cursor,
                                in_flight: unemitted,
                                sweep_stats: sweep_total + jobs.stats,
                                opcua_hosts,
                                non_opcua_hosts,
                                probe_micros,
                                frontier: checkpoint_frontier(&frontier),
                                referral_stats: ref_stats,
                                fault_stats,
                                probed_referrals: checkpoint_probed(&probed),
                            }),
                        };
                    }
                    EngineRun::Complete => sweep_total = sweep_total + jobs.stats,
                }
            }

            // Referral phase: levels are atomic (cancellation lands on
            // level boundaries), targets within a level run on the wheel.
            // Suites without referral following skip straight to the
            // next phase — their frontier is never populated.
            if follows {
                loop {
                    if cancel.is_cancelled() {
                        return ScanOutcome::Aborted {
                            checkpoint: Box::new(SweepCheckpoint {
                                seed,
                                epoch_micros,
                                started_unix,
                                suite_cursor: idx,
                                sweep_done: true,
                                next_step: 0,
                                in_flight: Vec::new(),
                                sweep_stats: sweep_total,
                                opcua_hosts,
                                non_opcua_hosts,
                                probe_micros,
                                frontier: checkpoint_frontier(&frontier),
                                referral_stats: ref_stats,
                                fault_stats,
                                probed_referrals: checkpoint_probed(&probed),
                            }),
                        };
                    }
                    if frontier.is_empty() {
                        break;
                    }
                    let level = self.classify_level(
                        universe,
                        sweep_port,
                        &mut frontier,
                        &mut ref_stats,
                        &mut probed,
                    );
                    let mut jobs = level.iter().enumerate().map(|(i, t)| Job {
                        ordinal: i as u64,
                        addr: t.addr,
                        port: t.port,
                        via: DiscoveredVia::Referral {
                            from: t.from,
                            depth: t.depth,
                        },
                        seed: referral_seed(seed, t.addr, t.port),
                        listening: self.internet.has_listener(t.addr, t.port),
                    });
                    let run = engine.run(&mut jobs, None, &mut |_, record, micros| {
                        probe_micros += micros;
                        match record {
                            None => ref_stats.dead += 1,
                            Some(record) => {
                                if record.speaks() {
                                    ref_stats.opcua_hosts += 1;
                                    opcua_hosts += 1;
                                } else {
                                    ref_stats.non_opcua_hosts += 1;
                                    non_opcua_hosts += 1;
                                }
                                fault_stats.observe(&record);
                                collect_referrals(suite.as_ref(), &record, &mut frontier);
                                sink(record);
                                cancel.notch();
                            }
                        }
                    });
                    debug_assert!(matches!(run, EngineRun::Complete));
                }
            }
            // The next phase deduplicates referrals afresh, exactly like
            // the threaded engine's per-phase `follow_referrals` state.
            probed.clear();
        }
        let sweep_stats = sweep_total;

        // Completion: account campaign time exactly as the threaded
        // engine does, from the same order-independent sums.
        let mut summary = ScanSummary {
            sweep: sweep_stats,
            referrals: ref_stats,
            opcua_hosts,
            non_opcua_hosts,
            certs: certs.stats(),
            started_unix,
            finished_unix: 0,
            faults: fault_stats,
        };
        let paced_probes = summary.sweep.probes_sent + summary.referrals.followed;
        let pacing_micros =
            paced_probes.saturating_mul(1_000_000) / self.config.probes_per_second.max(1);
        self.internet.clock().advance_micros(pacing_micros);
        self.internet.clock().advance_micros(probe_micros);
        summary.finished_unix = self.internet.clock().now_unix_seconds();
        ScanOutcome::Complete {
            summary,
            engine: engine.stats(),
        }
    }

    /// The referral phase: classifies every announced URL, then probes
    /// accepted targets breadth-first, level by level. Targets within a
    /// level are probed across [`ScanConfig::workers`] threads and
    /// merged back into queue order, so emission order — and therefore
    /// the full record stream — is independent of the worker count.
    #[allow(clippy::too_many_arguments)]
    fn follow_referrals<F>(
        &self,
        universe: &[Cidr],
        seed: u64,
        epoch: &VirtualClock,
        certs: &CertStore,
        sweep_port: u16,
        suite: &Arc<dyn ProtocolSuite>,
        mut frontier: Vec<PendingReferral>,
        probe_micros: &mut u64,
        mut emit: F,
    ) -> ReferralStats
    where
        F: FnMut(ScanRecord),
    {
        let mut stats = ReferralStats::default();
        // (address, port) pairs probed by the referral phase itself;
        // sweep coverage is checked structurally (port + universe).
        // ua-lint: allow(unordered-iteration) -- dedup membership only, never iterated
        let mut probed: HashSet<(u32, u16)> = HashSet::new();
        while !frontier.is_empty() {
            let level =
                self.classify_level(universe, sweep_port, &mut frontier, &mut stats, &mut probed);
            for (maybe_record, micros) in
                self.probe_referral_level(&level, epoch, certs, suite, seed)
            {
                *probe_micros += micros;
                match maybe_record {
                    None => stats.dead += 1,
                    Some(record) => {
                        if record.speaks() {
                            stats.opcua_hosts += 1;
                        } else {
                            stats.non_opcua_hosts += 1;
                        }
                        collect_referrals(suite.as_ref(), &record, &mut frontier);
                        emit(record);
                    }
                }
            }
        }
        stats
    }

    /// Classifies one drained referral frontier into the accepted probe
    /// targets for the next breadth-first level. This is the single
    /// copy of the disposition logic (unfollowable → blocklist → dedup
    /// → depth/budget) shared by the threaded referral phase and the
    /// event-loop engine — one copy, so the two engines cannot drift.
    fn classify_level(
        &self,
        universe: &[Cidr],
        sweep_port: u16,
        frontier: &mut Vec<PendingReferral>,
        stats: &mut ReferralStats,
        // ua-lint: allow(unordered-iteration) -- dedup membership only, never iterated
        probed: &mut HashSet<(u32, u16)>,
    ) -> Vec<ReferralTarget> {
        let mut level: Vec<ReferralTarget> = Vec::new();
        for pending in frontier.drain(..) {
            stats.urls_announced += 1;
            let Some((addr, port)) = OpcUrl::parse(&pending.url).ok().and_then(|u| u.target())
            else {
                stats.unfollowable += 1;
                continue;
            };
            if self.blocklist.contains(addr) {
                stats.blocklisted += 1;
                continue;
            }
            // Deduplicate against this phase's sweep (which SYN-probed
            // every non-blocklisted universe address on the phase's
            // port, responsive or not) and against earlier
            // referral probes — this is what terminates A→B→A
            // loops.
            let swept = port == sweep_port && universe.iter().any(|c| c.contains(addr));
            if swept || probed.contains(&(addr.0, port)) {
                stats.already_probed += 1;
                continue;
            }
            if pending.depth > self.config.referral_depth
                || (stats.followed as usize) >= self.config.referral_budget
            {
                stats.truncated += 1;
                continue;
            }
            probed.insert((addr.0, port));
            stats.followed += 1;
            stats.max_depth = stats.max_depth.max(pending.depth);
            level.push(ReferralTarget {
                addr,
                port,
                from: pending.from,
                depth: pending.depth,
            });
        }
        level
    }

    /// Probes one referral level, returning `(record, micros)` per
    /// target in target order — `None` for dead targets (nothing
    /// listening; charged one SYN timeout). With more than one worker,
    /// targets are probed on `index % workers` threads; per-host clock
    /// forks make the results order-independent, so placing them back by
    /// index reproduces the sequential output exactly.
    fn probe_referral_level(
        &self,
        targets: &[ReferralTarget],
        epoch: &VirtualClock,
        certs: &CertStore,
        suite: &Arc<dyn ProtocolSuite>,
        seed: u64,
    ) -> Vec<(Option<ScanRecord>, u64)> {
        let workers = self.config.effective_workers().min(targets.len().max(1));
        let probe_one = |stack: &mut Vec<Box<dyn Probe>>, t: &ReferralTarget| {
            if !self.internet.has_listener(t.addr, t.port) {
                // Dead target: charge exactly what the failed connect
                // costs under the simulator's TCP model — one RTT for a
                // refused port on a live host, a full SYN timeout when
                // no host answers — measured on a throwaway clock fork.
                let clock = epoch.fork();
                let start = clock.now_micros();
                let _ = self.internet.with_clock(clock.clone()).connect(
                    self.config.scanner_address,
                    t.addr,
                    t.port,
                );
                return (None, clock.now_micros().saturating_sub(start));
            }
            let via = DiscoveredVia::Referral {
                from: t.from,
                depth: t.depth,
            };
            let (record, micros) = self.probe_host_at_epoch(
                epoch,
                certs,
                suite,
                stack,
                t.addr,
                t.port,
                via,
                referral_seed(seed, t.addr, t.port),
            );
            (Some(record), micros)
        };
        if workers == 1 {
            let mut stack = suite.stack();
            return targets.iter().map(|t| probe_one(&mut stack, t)).collect();
        }
        let mut results: Vec<(Option<ScanRecord>, u64)> = Vec::new();
        results.resize_with(targets.len(), || (None, 0));
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for shard in 0..workers {
                let tx = tx.clone();
                let probe_one = &probe_one;
                scope.spawn(move || {
                    let mut stack = suite.stack();
                    for (i, t) in targets.iter().enumerate().skip(shard).step_by(workers) {
                        let _ = tx.send((i, probe_one(&mut stack, t)));
                    }
                });
            }
            drop(tx);
            for (i, outcome) in rx {
                results[i] = outcome;
            }
        });
        results
    }

    /// The multi-worker engine: N scoped threads claim chunks of the
    /// permutation, sweep them and probe their hosts; the coordinator
    /// merges the N position-sorted streams back into global discovery
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn scan_sharded<F>(
        &self,
        universe: &[Cidr],
        seed: u64,
        workers: usize,
        epoch: &VirtualClock,
        certs: &CertStore,
        sweep_port: u16,
        suite: &Arc<dyn ProtocolSuite>,
        probe_micros: &mut u64,
        mut emit: F,
    ) -> SweepStats
    where
        F: FnMut(ScanRecord),
    {
        let capacity = self.config.effective_channel_capacity();
        let chunks = SweepChunks::new(universe, &mut StdRng::seed_from_u64(seed));
        let chunks = &chunks;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let mut rxs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<ShardItem>(capacity);
                rxs.push(rx);
                let epoch = epoch.clone();
                let suite = Arc::clone(suite);
                handles.push(scope.spawn(move || {
                    let syn = SynScanner::new(
                        &self.internet,
                        &self.blocklist,
                        self.sweep_config(sweep_port),
                    );
                    let mut stack = suite.stack();
                    syn.sweep_chunks(chunks, |pos, addr| {
                        let (record, micros) = self.probe_host_at_epoch(
                            &epoch,
                            certs,
                            &suite,
                            &mut stack,
                            addr,
                            sweep_port,
                            DiscoveredVia::Sweep,
                            seed ^ u64::from(addr.0),
                        );
                        // A dropped coordinator means the scan was
                        // abandoned; keep sweeping for the stats.
                        let _ = tx.send((pos, record, micros));
                    })
                }));
            }
            // N-way merge: each shard stream is sorted by permutation
            // position and positions are globally unique, so repeatedly
            // emitting the smallest head reproduces discovery order
            // exactly. Blocking on one shard is fine — the others run
            // ahead into their bounded buffers.
            let mut heads: Vec<Option<ShardItem>> = rxs.iter().map(|rx| rx.recv().ok()).collect();
            while let Some(next) = heads
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.as_ref().map(|(pos, _, _)| (*pos, i)))
                .min()
                .map(|(_, i)| i)
            {
                // ua-lint: allow(panic-hygiene) -- `next` was selected because this head is Some
                let (_pos, record, micros) = heads[next].take().expect("head present");
                *probe_micros += micros;
                emit(record);
                heads[next] = rxs[next].recv().ok();
            }
            handles
                .into_iter()
                // ua-lint: allow(panic-hygiene) -- re-raise a worker panic on the coordinating thread
                .map(|h| h.join().expect("scan shard panicked"))
                .fold(SweepStats::default(), |acc, s| acc + s)
        })
    }

    fn sweep_config(&self, port: u16) -> SweepConfig {
        SweepConfig {
            probes_per_second: self.config.probes_per_second,
            port,
        }
    }

    /// Convenience: runs [`Self::scan_with`] and collects all records.
    pub fn scan_collect(&self, universe: &[Cidr], seed: u64) -> (ScanSummary, Vec<ScanRecord>) {
        let mut records = Vec::new();
        let summary = self.scan_with(universe, seed, |r| records.push(r));
        (summary, records)
    }

    /// Runs the campaign on a coordinator thread (plus
    /// [`ScanConfig::workers`] shard threads), streaming records through
    /// a bounded channel. Iterate the returned [`ScanStream`] to consume
    /// records as they are produced; call [`ScanStream::finish`] for the
    /// summary. Record order is identical to [`Self::scan_with`] for any
    /// worker count — shards merge back into discovery order.
    pub fn scan_stream(self, universe: Vec<Cidr>, seed: u64) -> ScanStream {
        let (tx, rx) = mpsc::sync_channel(self.config.channel_capacity.max(1));
        let handle = std::thread::spawn(move || {
            self.scan_with(&universe, seed, |record| {
                // A dropped receiver means the consumer stopped caring;
                // keep scanning for the summary but stop pushing.
                let _ = tx.send(record);
            })
        });
        ScanStream {
            rx: Some(rx),
            handle: Some(handle),
        }
    }
}

/// One merged unit from a shard: (global permutation step, record,
/// virtual probe microseconds).
type ShardItem = (u64, ScanRecord, u64);

/// Resume filter over the permutation walk: steps before `next_step`
/// were already examined by the aborted run — they are skipped unless
/// listed in `pending` (admitted but never emitted, so they must be
/// fully re-probed).
struct ResumeFilter {
    next_step: u64,
    // ua-lint: allow(unordered-iteration) -- membership checks only, never iterated
    pending: HashSet<u64>,
}

/// Admission-side adapter for the event-loop engine: walks the zmap
/// permutation and replicates `SynScanner::sweep_shard`'s
/// classification (blocklist → probe counted → listener check, in
/// exactly that order) so the sweep counters stay byte-identical to the
/// threaded engine's. Owns the counters and the walk cursor so the
/// engine can checkpoint mid-walk.
struct SweepJobs<'a> {
    walk: SweepWalk,
    /// One occupancy snapshot for the whole walk.
    occupancy: Occupancy<'a>,
    blocklist: &'a Blocklist,
    port: u16,
    seed: u64,
    /// Counters for every step this iterator examined (resume catch-up
    /// steps are *not* recounted — the checkpoint already has them).
    stats: SweepStats,
    /// First walk step not yet examined; becomes the checkpoint's
    /// `next_step` on abort.
    cursor: u64,
    resume: Option<ResumeFilter>,
}

impl SweepJobs<'_> {
    fn job(&self, pos: u64, addr: Ipv4) -> Job {
        Job {
            ordinal: pos,
            addr,
            port: self.port,
            via: DiscoveredVia::Sweep,
            seed: self.seed ^ u64::from(addr.0),
            listening: true,
        }
    }
}

impl Iterator for SweepJobs<'_> {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        loop {
            let (pos, addr) = self.walk.next()?;
            self.cursor = pos + 1;
            if let Some(filter) = &self.resume {
                if pos < filter.next_step {
                    // Settled by the aborted run — its stats already
                    // cover this step — unless it was still in flight,
                    // in which case it is re-admitted (and only
                    // re-admitted: no recounting).
                    if filter.pending.contains(&pos) {
                        return Some(self.job(pos, addr));
                    }
                    continue;
                }
            }
            if self.blocklist.contains(addr) {
                self.stats.blocklisted += 1;
                continue;
            }
            self.stats.probes_sent += 1;
            if self.occupancy.has_listener(addr, self.port) {
                self.stats.responsive += 1;
                return Some(self.job(pos, addr));
            }
        }
    }
}

/// Harvests a record's referred URLs — as the probing suite interprets
/// them — into the referral frontier, one chain level deeper than the
/// record itself.
fn collect_referrals(
    suite: &dyn ProtocolSuite,
    record: &ScanRecord,
    frontier: &mut Vec<PendingReferral>,
) {
    let depth = record.via.depth() + 1;
    for url in suite.referrals(record) {
        frontier.push(PendingReferral {
            from: record.address,
            url: url.clone(),
            depth,
        });
    }
}

/// Per-target nonce seed for referral probes — a pure function of the
/// campaign seed and the target, so record contents never depend on
/// probe order or worker count.
fn referral_seed(seed: u64, addr: Ipv4, port: u16) -> u64 {
    seed ^ u64::from(addr.0) ^ (u64::from(port) << 32)
}

/// Probes a `(addr, port)` target through `internet` (whichever clock it
/// carries) with `suite`'s payload template and `stack`, filling in the
/// transport accounting.
#[allow(clippy::too_many_arguments)]
fn probe_host_on(
    internet: &Internet,
    config: &ScanConfig,
    certs: &CertStore,
    suite: &Arc<dyn ProtocolSuite>,
    stack: &mut [Box<dyn Probe>],
    addr: netsim::Ipv4,
    port: u16,
    via: DiscoveredVia,
    seed: u64,
) -> ScanRecord {
    let mut record = ScanRecord::for_target(
        addr,
        port,
        via,
        internet.as_number(addr),
        internet.clock().now_unix_seconds(),
    );
    record.payload = suite.payload();
    let mut ctx = ProbeContext::for_target(internet, config, certs, addr, port, seed);
    ctx.suite = Arc::clone(suite);
    for probe in stack.iter_mut() {
        if probe.run(&mut ctx, &mut record) == ProbeOutcome::Stop {
            break;
        }
    }
    // Added, not assigned: stages that opened side connections (the
    // vendor-fingerprint stage) have already folded their traffic in via
    // `ScanRecord::account`.
    if let Some(client) = &ctx.client {
        record.requests += client.requests_sent();
        let stats = client.stats();
        record.tx_bytes += stats.tx_bytes;
        record.rx_bytes += stats.rx_bytes;
    }
    record
}

/// Iterator over streamed scan records (see [`Scanner::scan_stream`]).
pub struct ScanStream {
    rx: Option<mpsc::Receiver<ScanRecord>>,
    handle: Option<JoinHandle<ScanSummary>>,
}

impl Iterator for ScanStream {
    type Item = ScanRecord;

    fn next(&mut self) -> Option<ScanRecord> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl ScanStream {
    /// Waits for the campaign to end and returns its summary. Pending
    /// records are drained and dropped; iterate first to keep them.
    pub fn finish(mut self) -> ScanSummary {
        // Dropping the receiver unblocks a producer waiting on a full
        // channel.
        self.rx = None;
        self.handle
            .take()
            // ua-lint: allow(panic-hygiene) -- finish() consumes self; the handle is present by construction
            .expect("finish called once")
            .join()
            // ua-lint: allow(panic-hygiene) -- re-raise a worker panic on the coordinating thread
            .expect("scan worker panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SessionOutcome;
    use netsim::{Ipv4, VirtualClock};
    use std::sync::Arc;
    use ua_addrspace::{NodeAccess, SpaceBuilder};
    use ua_server::{ServerConfig, ServerCore, UaServerService};
    use ua_types::Variant;

    fn wide_open_internet(addrs: &[Ipv4]) -> Internet {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        for (i, &addr) in addrs.iter().enumerate() {
            let url = format!("opc.tcp://{addr}:4840/");
            let mut b = SpaceBuilder::new(&["urn:test:dev"], "1.0");
            let f = b.folder(None, "Plant");
            b.variable(&f, "inflow", Variant::Double(1.5), NodeAccess::read_only());
            b.variable(
                &f,
                "setpoint",
                Variant::Float(50.0),
                NodeAccess::read_write_all(),
            );
            b.method(&f, "Flush", true);
            let core = ServerCore::new(
                ServerConfig::wide_open(format!("urn:test:dev{i}"), url),
                b.finish(),
                7 + i as u64,
            );
            net.add_host(addr, 10_000);
            net.bind(addr, 4840, Arc::new(UaServerService::new(core, 5)));
        }
        net
    }

    #[test]
    fn scan_probes_wide_open_host_end_to_end() {
        let addr = Ipv4::new(10, 0, 0, 7);
        let net = wide_open_internet(&[addr]);
        let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
        let universe: Cidr = "10.0.0.0/24".parse().unwrap();
        let (summary, records) = scanner.scan_collect(&[universe], 1);

        assert_eq!(summary.sweep.probes_sent, 256);
        assert_eq!(summary.opcua_hosts, 1);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.address, addr);
        assert!(r.hello_ok());
        assert_eq!(r.application_uri(), Some("urn:test:dev0"));
        assert_eq!(r.endpoints().len(), 1);
        assert!(r.advertises_anonymous());
        assert_eq!(r.session(), SessionOutcome::AnonymousActivated);
        let t = r.traversal().expect("traversal ran");
        assert!(t.nodes > 3);
        assert_eq!(t.writable, 1);
        assert_eq!(t.executable, 1);
        assert!(r.requests > 3);
        assert!(r.tx_bytes > 0);
    }

    #[test]
    fn streamed_scan_matches_sync_scan() {
        let addrs = [
            Ipv4::new(10, 1, 0, 3),
            Ipv4::new(10, 1, 0, 99),
            Ipv4::new(10, 1, 0, 200),
        ];
        let net = wide_open_internet(&addrs);
        let universe: Cidr = "10.1.0.0/24".parse().unwrap();

        // Two independent clocks would drift; rebuild for a fair
        // comparison of record *content*.
        let sync_scanner = Scanner::new(net.clone(), Blocklist::new(), ScanConfig::default());
        let (_, sync_records) = sync_scanner.scan_collect(&[universe], 9);

        let net2 = wide_open_internet(&addrs);
        let stream_scanner = Scanner::new(net2, Blocklist::new(), ScanConfig::default());
        let mut stream = stream_scanner.scan_stream(vec![universe], 9);
        let streamed: Vec<_> = stream.by_ref().collect();
        let summary = stream.finish();

        assert_eq!(summary.opcua_hosts, 3);
        assert_eq!(streamed.len(), sync_records.len());
        for (a, b) in streamed.iter().zip(&sync_records) {
            assert_eq!(a.address, b.address);
            assert_eq!(a.endpoints(), b.endpoints());
            assert_eq!(a.session(), b.session());
        }
    }

    #[test]
    fn bounded_channel_backpressure_keeps_all_records() {
        let addrs: Vec<Ipv4> = (0..20).map(|i| Ipv4::new(10, 2, 0, 10 + i)).collect();
        let net = wide_open_internet(&addrs);
        let universe: Cidr = "10.2.0.0/24".parse().unwrap();
        let config = ScanConfig {
            channel_capacity: 2, // far smaller than the host count
            ..ScanConfig::default()
        };
        let scanner = Scanner::new(net, Blocklist::new(), config);
        let mut stream = scanner.scan_stream(vec![universe], 4);
        let records: Vec<_> = stream.by_ref().collect();
        let summary = stream.finish();
        assert_eq!(records.len(), 20);
        assert_eq!(summary.opcua_hosts, 20);
    }

    #[test]
    fn non_opcua_listener_counted_but_not_recorded_as_opcua() {
        struct Junk;
        struct JunkConn;
        impl netsim::Connection for JunkConn {
            fn on_data(&mut self, _d: &[u8]) -> netsim::ConnectionOutput {
                netsim::ConnectionOutput::close_with(b"HTTP/1.1 400\r\n\r\n".to_vec())
            }
        }
        impl netsim::Service for Junk {
            fn open_connection(&self, _peer: Ipv4) -> Box<dyn netsim::Connection> {
                Box::new(JunkConn)
            }
        }
        let net = Internet::new(VirtualClock::starting_at(0));
        let addr = Ipv4::new(10, 3, 0, 1);
        net.add_host(addr, 1000);
        net.bind(addr, 4840, Arc::new(Junk));
        let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
        let universe: Cidr = "10.3.0.0/28".parse().unwrap();
        let (summary, records) = scanner.scan_collect(&[universe], 2);
        assert_eq!(summary.sweep.responsive, 1);
        assert_eq!(summary.opcua_hosts, 0);
        assert_eq!(summary.non_opcua_hosts, 1);
        assert_eq!(records.len(), 1);
        assert!(!records[0].hello_ok());
    }

    /// Binds an OPC UA server (optionally an LDS with referrals) at
    /// `(addr, port)` on `net`.
    fn bind_server(net: &Internet, addr: Ipv4, port: u16, lds: bool, refs: &[&str], salt: u64) {
        let url = format!("opc.tcp://{addr}:{port}/");
        let mut b = SpaceBuilder::new(&["urn:test:ref"], "1.0");
        let f = b.folder(None, "Plant");
        b.variable(&f, "level", Variant::Double(1.0), NodeAccess::read_only());
        let mut config = ServerConfig::wide_open(format!("urn:test:ref:{addr}:{port}"), url);
        config.is_discovery_server = lds;
        config.referenced_endpoints = refs.iter().map(|s| s.to_string()).collect();
        let core = ServerCore::new(config, b.finish(), salt);
        if !net.host_exists(addr) {
            net.add_host(addr, 10_000);
        }
        net.bind(addr, port, Arc::new(UaServerService::new(core, salt ^ 0xF)));
    }

    fn referral_scan(
        net: Internet,
        blocklist: Blocklist,
        config: ScanConfig,
    ) -> (ScanSummary, Vec<ScanRecord>) {
        let scanner = Scanner::new(net, blocklist, config);
        let universe: Cidr = "10.50.0.0/24".parse().unwrap();
        scanner.scan_collect(&[universe], 11)
    }

    #[test]
    fn hidden_host_reached_only_via_referral_with_provenance() {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        let lds = Ipv4::new(10, 50, 0, 1);
        let hidden = Ipv4::new(10, 50, 0, 2);
        bind_server(&net, hidden, 4848, false, &[], 7);
        bind_server(&net, lds, 4840, true, &["opc.tcp://10.50.0.2:4848/"], 8);

        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(summary.opcua_hosts, 2);
        assert_eq!(summary.referrals.followed, 1);
        assert_eq!(summary.referrals.opcua_hosts, 1);
        assert_eq!(summary.referrals.max_depth, 1);
        assert_eq!(records.len(), 2);
        // Sweep record first, referral record after.
        assert_eq!(records[0].address, lds);
        assert_eq!(records[0].via, DiscoveredVia::Sweep);
        let r = &records[1];
        assert_eq!(r.address, hidden);
        assert_eq!(r.port, 4848);
        assert_eq!(
            r.via,
            DiscoveredVia::Referral {
                from: lds,
                depth: 1
            }
        );
        assert!(r.hello_ok());
        assert!(!r.endpoints().is_empty());
    }

    #[test]
    fn dead_and_unfollowable_referrals_accounted_not_recorded() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        bind_server(
            &net,
            lds,
            4840,
            true,
            &[
                "opc.tcp://10.50.0.99:4855/",   // nothing listens there
                "opc.tcp://plc.internal:4840/", // unresolvable name
                "http://10.50.0.3:4840/",       // wrong scheme
            ],
            3,
        );
        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(records.len(), 1, "dead referrals must not produce records");
        assert_eq!(summary.referrals.urls_announced, 3);
        assert_eq!(summary.referrals.followed, 1);
        assert_eq!(summary.referrals.dead, 1);
        assert_eq!(summary.referrals.unfollowable, 2);
        assert_eq!(summary.referrals.opcua_hosts, 0);
    }

    #[test]
    fn referral_loops_terminate_with_each_target_probed_once() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a = Ipv4::new(10, 50, 0, 1);
        let b = Ipv4::new(10, 50, 0, 2);
        // A (swept) → B (non-default port) → A, plus B → B variants.
        bind_server(&net, a, 4840, true, &["opc.tcp://10.50.0.2:4850/"], 1);
        bind_server(
            &net,
            b,
            4850,
            true,
            &[
                "opc.tcp://10.50.0.1:4840/", // back to A: swept already
                "OPC.TCP://10.50.0.2:4850",  // itself, non-canonical
            ],
            2,
        );
        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(records.len(), 2);
        assert_eq!(summary.referrals.followed, 1, "B probed exactly once");
        // B's self-URL never even reaches the queue (filtered by the
        // probe's normalization); the loop-back to A dedups as swept.
        assert_eq!(summary.referrals.already_probed, 1);
        assert_eq!(summary.referrals.urls_announced, 2);
    }

    #[test]
    fn chains_respect_depth_limit() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a = Ipv4::new(10, 50, 0, 1);
        let b = Ipv4::new(10, 50, 0, 2);
        let c = Ipv4::new(10, 50, 0, 3);
        // A (swept) → B:4851 → C:4852.
        bind_server(&net, a, 4840, true, &["opc.tcp://10.50.0.2:4851/"], 1);
        bind_server(&net, b, 4851, true, &["opc.tcp://10.50.0.3:4852/"], 2);
        bind_server(&net, c, 4852, false, &[], 3);

        let deep = ScanConfig::default();
        let (summary, records) = referral_scan(net.clone(), Blocklist::new(), deep);
        assert_eq!(records.len(), 3);
        assert_eq!(summary.referrals.max_depth, 2);
        assert_eq!(
            records[2].via,
            DiscoveredVia::Referral { from: b, depth: 2 }
        );

        let shallow = ScanConfig {
            referral_depth: 1,
            ..ScanConfig::default()
        };
        let (summary, records) = referral_scan(net, Blocklist::new(), shallow);
        assert_eq!(records.len(), 2, "depth-2 target must not be probed");
        assert_eq!(summary.referrals.truncated, 1);
        assert_eq!(summary.referrals.max_depth, 1);
    }

    #[test]
    fn referral_budget_truncates() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        let refs: Vec<String> = (0..4)
            .map(|i| format!("opc.tcp://10.50.0.{}:4860/", 10 + i))
            .collect();
        let ref_strs: Vec<&str> = refs.iter().map(String::as_str).collect();
        bind_server(&net, lds, 4840, true, &ref_strs, 1);
        for i in 0..4u8 {
            bind_server(
                &net,
                Ipv4::new(10, 50, 0, 10 + i),
                4860,
                false,
                &[],
                5 + i as u64,
            );
        }
        let config = ScanConfig {
            referral_budget: 2,
            ..ScanConfig::default()
        };
        let (summary, records) = referral_scan(net, Blocklist::new(), config);
        assert_eq!(summary.referrals.followed, 2);
        assert_eq!(summary.referrals.truncated, 2);
        assert_eq!(records.len(), 3); // LDS + 2 within budget
    }

    #[test]
    fn blocklisted_referral_targets_never_probed() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        let victim = Ipv4::new(10, 50, 1, 7); // outside the swept /24
        bind_server(&net, lds, 4840, true, &["opc.tcp://10.50.1.7:4840/"], 1);
        bind_server(&net, victim, 4840, false, &[], 2);

        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.50.1.0/24").unwrap();
        let (summary, records) = referral_scan(net, blocklist, ScanConfig::default());
        assert_eq!(records.len(), 1, "opted-out host probed via referral");
        assert_eq!(summary.referrals.blocklisted, 1);
        assert_eq!(summary.referrals.followed, 0);
    }

    #[test]
    fn referral_to_unswept_address_on_default_port_is_followed() {
        // A referral can escape the configured universe: an address
        // outside every swept block is fresh even on the sweep port.
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        let outside = Ipv4::new(192, 168, 9, 9);
        bind_server(&net, lds, 4840, true, &["opc.tcp://192.168.9.9:4840/"], 1);
        bind_server(&net, outside, 4840, false, &[], 2);
        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(summary.referrals.followed, 1);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].address, outside);
    }

    #[test]
    fn referral_disposition_buckets_partition_announcements() {
        // urls_announced = unfollowable + already_probed + blocklisted
        //                + truncated + followed, on a messy world.
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        bind_server(
            &net,
            lds,
            4840,
            true,
            &[
                "opc.tcp://10.50.0.2:4848/",
                "opc.tcp://10.50.0.1:4840/x", // own target, path variant → filtered pre-record
                "opc.tcp://10.50.0.3:4840/",  // swept (dedup)
                "bogus",
            ],
            1,
        );
        bind_server(&net, Ipv4::new(10, 50, 0, 2), 4848, false, &[], 2);
        bind_server(&net, Ipv4::new(10, 50, 0, 3), 4840, false, &[], 3);
        let (summary, _) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        let r = summary.referrals;
        assert_eq!(
            r.urls_announced,
            r.unfollowable + r.already_probed + r.blocklisted + r.truncated + r.followed
        );
        assert_eq!(r.followed, r.dead + r.opcua_hosts + r.non_opcua_hosts);
        assert_eq!(r.followed, 1);
        assert_eq!(r.already_probed, 1);
        assert_eq!(r.unfollowable, 1);
    }

    #[test]
    fn blocklisted_hosts_never_probed() {
        let addr = Ipv4::new(10, 4, 0, 50);
        let net = wide_open_internet(&[addr]);
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.4.0.0/24").unwrap();
        let scanner = Scanner::new(net, blocklist, ScanConfig::default());
        let universe: Cidr = "10.4.0.0/24".parse().unwrap();
        let (summary, records) = scanner.scan_collect(&[universe], 3);
        assert_eq!(summary.sweep.blocklisted, 256);
        assert_eq!(summary.sweep.probes_sent, 0);
        assert!(records.is_empty());
    }
}
