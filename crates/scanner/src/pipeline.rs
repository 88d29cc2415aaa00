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
//! ## One engine
//!
//! Every scan entry point runs [`Scanner::scan_resumable`]: one phase
//! (sweep, then referral levels) per registered suite, each driven
//! through the worker pool and ordered merge of [`crate::sched`].
//! [`ScanConfig::workers`] threads claim chunks of consecutive walk
//! steps of the zmap permutation (a function of the seed alone,
//! [`netsim::SweepChunks`]) and probe the hosts they find, so a worker
//! on a slower core simply sweeps less; for a referral level they claim
//! its targets one by one. Records carry their merge key — the global
//! walk step, or the index within the level — and the coordinator
//! emits them in exactly that order, so the output is **byte-identical
//! for a fixed seed regardless of worker count** (and of which worker
//! probed what), and an aborted scan resumes from its last emitted
//! record.
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
//! After each sweep, the pipeline follows FindServers referrals
//! (the paper's 2020-05-04 scanner change, which surfaced >1000 servers
//! hidden behind discovery servers on non-default ports): referred URLs
//! are normalized through [`crate::url::OpcUrl`], deduplicated against
//! everything the phase already covered, checked against the blocklist,
//! and probed breadth-first level by level up to
//! [`ScanConfig::referral_depth`] / [`ScanConfig::referral_budget`].
//! Referral records carry [`DiscoveredVia::Referral`] provenance and are
//! emitted after the sweep records, in deterministic queue order — so the
//! full output stream stays byte-identical per seed at any worker count.

use crate::probe::{Probe, ProbeContext, ProbeOutcome, ScanConfig};
use crate::record::{DiscoveredVia, ScanRecord};
use crate::sched::{ordered_pool, CancelToken, PendingUrl, SweepCheckpoint};
use crate::suite::{OpcUaSuite, ProtocolSuite};
use crate::url::OpcUrl;
use netsim::{
    Blocklist, Cidr, Internet, Ipv4, SweepChunks, SweepConfig, SweepStats, SynScanner, VirtualClock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use ua_crypto::{CertStore, CertStoreStats};

/// Accounting of the referral-following phases. Every announced URL
/// ends up in exactly one disposition bucket:
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
        /// Campaign summary.
        summary: ScanSummary,
    },
    /// Cancellation was observed at a safe point. Pass the checkpoint
    /// back to [`Scanner::scan_resumable`] to continue; the stitched
    /// record stream is byte-identical to an uninterrupted run.
    Aborted {
        /// Where to pick the scan back up.
        checkpoint: Box<SweepCheckpoint>,
    },
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

    /// Probes one referral target like [`Self::probe_host_at_epoch`];
    /// `None` for a dead target (nothing listening), which is charged
    /// exactly what the failed connect costs under the simulator's TCP
    /// model — one RTT for a refused port on a live host, a full SYN
    /// timeout when no host answers — measured on a throwaway fork.
    fn probe_referral(
        &self,
        epoch: &VirtualClock,
        certs: &CertStore,
        suite: &Arc<dyn ProtocolSuite>,
        stack: &mut [Box<dyn Probe>],
        target: &ReferralTarget,
        seed: u64,
    ) -> (Option<ScanRecord>, u64) {
        let ReferralTarget {
            addr,
            port,
            from,
            depth,
        } = *target;
        if !self.internet.has_listener(addr, port) {
            let clock = epoch.fork();
            let start = clock.now_micros();
            let _ = self.internet.with_clock(clock.clone()).connect(
                self.config.scanner_address,
                addr,
                port,
            );
            return (None, clock.now_micros().saturating_sub(start));
        }
        let via = DiscoveredVia::Referral { from, depth };
        let seed = referral_seed(seed, addr, port);
        let (record, micros) =
            self.probe_host_at_epoch(epoch, certs, suite, stack, addr, port, via, seed);
        (Some(record), micros)
    }

    /// Runs the full campaign synchronously, handing each record to
    /// `sink` as soon as its host is fully probed — in discovery order,
    /// which is identical for every [`ScanConfig::workers`] setting.
    pub fn scan_with<F>(&self, universe: &[Cidr], seed: u64, sink: F) -> ScanSummary
    where
        F: FnMut(ScanRecord),
    {
        // One certificate interner per campaign, shared by all workers:
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
        sink: F,
    ) -> ScanSummary
    where
        F: FnMut(ScanRecord),
    {
        match self.scan_resumable(universe, seed, certs, None, &CancelToken::new(), sink) {
            ScanOutcome::Complete { summary } => summary,
            ScanOutcome::Aborted { .. } => unreachable!("a fresh CancelToken never cancels"),
        }
    }

    /// Runs the campaign with cooperative cancellation and
    /// deterministic abort/resume; every other entry point runs this
    /// with a token that never cancels.
    ///
    /// * `resume: None` starts a fresh scan at the current campaign
    ///   clock instant; `Some(checkpoint)` continues an aborted one. It
    ///   must come from the same scanner over the same universe; only
    ///   the seed is checked (it must equal the checkpoint's).
    /// * `cancel` is checked after every emitted sweep record, polled
    ///   by each sweep worker before it claims a chunk, and checked at
    ///   referral-level boundaries (levels are atomic). On cancellation
    ///   the scan returns [`ScanOutcome::Aborted`] at its last emitted
    ///   record *without* advancing the campaign clock: probes not yet
    ///   emitted are dropped fork-clocks and all, and time is only
    ///   accounted when a scan completes.
    /// * Records emitted before an abort are final. The concatenation
    ///   of the aborted run's records and the resumed run's records is
    ///   byte-identical to an uninterrupted run at any worker count.
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
        let mut cp = match resume {
            Some(cp) => {
                assert_eq!(cp.seed, seed, "resume must use the checkpoint's seed");
                cp
            }
            None => {
                let clock = self.internet.clock();
                SweepCheckpoint::start(seed, clock.now_micros(), clock.now_unix_seconds())
            }
        };
        // Every probed host gets a clock forked from this frozen epoch,
        // so records cannot observe each other through shared time.
        let epoch = VirtualClock::starting_at_micros(cp.epoch_micros);
        let mut emit = |cp: &mut SweepCheckpoint, suite: &dyn ProtocolSuite, record: ScanRecord| {
            if record.speaks() {
                cp.opcua_hosts += 1;
            } else {
                cp.non_opcua_hosts += 1;
            }
            cp.fault_stats.observe(&record);
            if suite.follows_referrals() {
                collect_referrals(suite, &record, &mut cp.frontier);
            }
            sink(record);
            cancel.notch();
        };
        // One full phase (sweep, then referral levels for suites that
        // have them) per registered suite, in ascending port order.
        // Phases behind `suite_cursor` are complete.
        let suites = self.config.effective_suites();
        while let Some((port, suite)) = suites.get(cp.suite_cursor) {
            let port = *port;
            if !cp.sweep_done {
                let from = cp.next_step;
                let walk = |steps: Range<u64>| {
                    SweepChunks::new(universe, &mut StdRng::seed_from_u64(seed)).within(steps)
                };
                let chunks = walk(from..u64::MAX);
                let syn = SynScanner::new(&self.internet, &self.blocklist, self.sweep_config(port));
                let shares = ordered_pool(
                    self.config.effective_workers(),
                    self.config.effective_channel_capacity(),
                    |send| {
                        let mut stack = suite.stack();
                        syn.sweep_chunks(
                            &chunks,
                            || cancel.is_cancelled(),
                            |step, addr| {
                                let via = DiscoveredVia::Sweep;
                                let seed = seed ^ u64::from(addr.0);
                                send(
                                    step,
                                    self.probe_host_at_epoch(
                                        &epoch, certs, suite, &mut stack, addr, port, via, seed,
                                    ),
                                );
                            },
                        )
                    },
                    |step, (record, micros)| {
                        cp.probe_micros += micros;
                        cp.next_step = step + 1;
                        emit(&mut cp, suite.as_ref(), record);
                        !cancel.is_cancelled()
                    },
                );
                if cancel.is_cancelled() {
                    // Workers may have swept past the last emitted
                    // record: count the settled steps again, probe-free.
                    let settled = walk(from..cp.next_step);
                    cp.sweep_stats =
                        cp.sweep_stats + syn.sweep_chunks(&settled, || false, |_, _| {});
                    return ScanOutcome::Aborted {
                        checkpoint: Box::new(cp),
                    };
                }
                cp.sweep_stats = shares.into_iter().fold(cp.sweep_stats, |acc, s| acc + s);
                cp.sweep_done = true;
                cp.next_step = 0;
            }
            if suite.follows_referrals() {
                loop {
                    if cancel.is_cancelled() {
                        return ScanOutcome::Aborted {
                            checkpoint: Box::new(cp),
                        };
                    }
                    if cp.frontier.is_empty() {
                        break;
                    }
                    self.referral_level(universe, port, suite, &epoch, certs, &mut cp, &mut emit);
                }
            }
            // The next phase deduplicates its referrals afresh.
            cp.suite_cursor += 1;
            cp.sweep_done = false;
            cp.probed_referrals.clear();
        }

        // Account campaign time once, from order-independent sums: SYN
        // pacing in micros — integer-second division would stall the
        // clock entirely for campaigns shorter than a second of probes —
        // plus aggregate probe latency.
        let paced_probes = cp.sweep_stats.probes_sent + cp.referral_stats.followed;
        let pacing_micros =
            paced_probes.saturating_mul(1_000_000) / self.config.probes_per_second.max(1);
        let clock = self.internet.clock();
        clock.advance_micros(pacing_micros);
        clock.advance_micros(cp.probe_micros);
        ScanOutcome::Complete {
            summary: ScanSummary {
                sweep: cp.sweep_stats,
                referrals: cp.referral_stats,
                opcua_hosts: cp.opcua_hosts,
                non_opcua_hosts: cp.non_opcua_hosts,
                certs: certs.stats(),
                started_unix: cp.started_unix,
                finished_unix: clock.now_unix_seconds(),
                faults: cp.fault_stats,
            },
        }
    }

    /// One breadth-first referral level: classifies the whole frontier,
    /// then probes the accepted targets across [`ScanConfig::workers`]
    /// threads and emits their records in target order, so emission
    /// order — and therefore the full record stream — is independent of
    /// the worker count.
    #[allow(clippy::too_many_arguments)]
    fn referral_level(
        &self,
        universe: &[Cidr],
        sweep_port: u16,
        suite: &Arc<dyn ProtocolSuite>,
        epoch: &VirtualClock,
        certs: &CertStore,
        cp: &mut SweepCheckpoint,
        emit: &mut impl FnMut(&mut SweepCheckpoint, &dyn ProtocolSuite, ScanRecord),
    ) {
        let level = self.classify_level(universe, sweep_port, cp);
        let next = AtomicUsize::new(0);
        let seed = cp.seed;
        ordered_pool(
            self.config.effective_workers().min(level.len()),
            self.config.effective_channel_capacity(),
            |send| {
                let mut stack = suite.stack();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(target) = level.get(i) else {
                        break;
                    };
                    let probed = self.probe_referral(epoch, certs, suite, &mut stack, target, seed);
                    send(i as u64, probed);
                }
            },
            |_, (record, micros)| {
                cp.probe_micros += micros;
                match record {
                    None => cp.referral_stats.dead += 1,
                    Some(record) => {
                        if record.speaks() {
                            cp.referral_stats.opcua_hosts += 1;
                        } else {
                            cp.referral_stats.non_opcua_hosts += 1;
                        }
                        emit(cp, suite.as_ref(), record);
                    }
                }
                true
            },
        );
    }

    /// Drains the referral frontier into the accepted probe targets of
    /// the next breadth-first level, filing every URL into one
    /// disposition bucket: unfollowable → blocklist → dedup →
    /// depth/budget. The budget is campaign-wide: it counts every
    /// referral followed by any suite phase.
    fn classify_level(
        &self,
        universe: &[Cidr],
        sweep_port: u16,
        cp: &mut SweepCheckpoint,
    ) -> Vec<ReferralTarget> {
        let stats = &mut cp.referral_stats;
        let mut level: Vec<ReferralTarget> = Vec::new();
        for pending in cp.frontier.drain(..) {
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
            if swept || cp.probed_referrals.contains(&(addr, port)) {
                stats.already_probed += 1;
                continue;
            }
            if pending.depth > self.config.referral_depth
                || (stats.followed as usize) >= self.config.referral_budget
            {
                stats.truncated += 1;
                continue;
            }
            cp.probed_referrals.insert((addr, port));
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
    /// [`ScanConfig::workers`] probe threads), streaming records through
    /// a bounded channel. Iterate the returned [`ScanStream`] to consume
    /// records as they are produced; call [`ScanStream::finish`] for the
    /// summary. Record order is identical to [`Self::scan_with`] for any
    /// worker count.
    pub fn scan_stream(self, universe: Vec<Cidr>, seed: u64) -> ScanStream {
        let (tx, rx) = mpsc::sync_channel(self.config.effective_channel_capacity());
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

/// Harvests a record's referred URLs — as the probing suite interprets
/// them — into the referral frontier, one chain level deeper than the
/// record itself.
fn collect_referrals(
    suite: &dyn ProtocolSuite,
    record: &ScanRecord,
    frontier: &mut Vec<PendingUrl>,
) {
    let depth = record.via.depth() + 1;
    for url in suite.referrals(record) {
        frontier.push(PendingUrl {
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
    fn referral_budget_is_spent_across_suite_phases() {
        // OPC UA on two ports, one LDS on each announcing two hidden
        // servers: the first phase spends the whole budget of two, so
        // the second phase's referrals are truncated.
        let world = || {
            let net = Internet::new(VirtualClock::starting_at(0));
            let refs = |a: u8, b: u8| [a, b].map(|i| format!("opc.tcp://10.50.0.{i}:4860/"));
            let first = refs(11, 12);
            let second = refs(13, 14);
            let lds = [(1, 4840, first), (2, 4841, second)];
            for (host, port, refs) in &lds {
                let refs: Vec<&str> = refs.iter().map(String::as_str).collect();
                bind_server(&net, Ipv4::new(10, 50, 0, *host), *port, true, &refs, 1);
            }
            for i in 11..=14u8 {
                bind_server(
                    &net,
                    Ipv4::new(10, 50, 0, i),
                    4860,
                    false,
                    &[],
                    u64::from(i),
                );
            }
            net
        };
        for workers in [1usize, 4] {
            let config = ScanConfig::builder()
                .workers(workers)
                .referral_budget(2)
                .suite(4840, Arc::new(OpcUaSuite::new()))
                .suite(4841, Arc::new(OpcUaSuite::new()))
                .build()
                .unwrap();
            let (summary, records) = referral_scan(world(), Blocklist::new(), config);
            assert_eq!(summary.referrals.followed, 2, "workers={workers}");
            assert_eq!(summary.referrals.truncated, 2, "workers={workers}");
            assert_eq!(records.len(), 4, "two LDSs + two referrals");
        }
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
