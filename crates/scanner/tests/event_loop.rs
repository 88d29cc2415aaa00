//! Scan-engine determinism: for a fixed seed the one scan engine must
//! produce byte-identical output at any worker count and channel
//! capacity, through `scan_stream`'s bounded channel, and across
//! abort/resume cycles stitched back together at every cut point.

use std::sync::{mpsc, Arc};

use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{
    synthesize, MiddleboxConfig, MiddleboxPlan, MultiProtoConfig, MultiProtoPlan, PopulationConfig,
    StrataMix,
};
use scanner::{
    CancelToken, CertStore, OpcUaSuite, RetryPolicy, ScanConfig, ScanOutcome, ScanRecord,
    ScanSummary, Scanner, SweepCheckpoint, UatTlsSuite, WeekOutcome, DEFAULT_OPCUA_PORT,
    DEFAULT_UATLS_PORT,
};

const SEED: u64 = 20_200_209;

/// A fresh, identically-seeded world per run: two scans over one shared
/// net would advance the same virtual clock twice.
fn build_world() -> (Internet, Vec<Cidr>) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = ["10.40.0.0/22", "172.28.0.0/23"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let cfg = PopulationConfig::new(SEED, universe.clone(), StrataMix::paper_like(60));
    synthesize(&net, &cfg);
    (net, universe)
}

fn blocklist() -> Blocklist {
    let mut blocklist = Blocklist::new();
    blocklist.add_str("10.40.3.0/24").unwrap();
    blocklist
}

fn scanner_with(workers: usize, channel_capacity: usize) -> (Scanner, Vec<Cidr>) {
    let (net, universe) = build_world();
    let config = ScanConfig {
        workers,
        channel_capacity,
        ..ScanConfig::default()
    };
    (Scanner::new(net, blocklist(), config), universe)
}

fn scan(workers: usize, channel_capacity: usize) -> (ScanSummary, Vec<ScanRecord>) {
    let (scanner, universe) = scanner_with(workers, channel_capacity);
    let mut records = Vec::new();
    let summary = scanner.scan_with(&universe, SEED, |r| records.push(r));
    (summary, records)
}

/// Everything except the cert-interner counters must stitch exactly
/// across abort/resume; `sightings` counts work performed (certificates
/// captured by discarded probes are re-sighted on re-probe), so it is
/// telemetry, not part of the byte-identity contract.
fn assert_summary_matches_modulo_sightings(actual: &ScanSummary, expected: &ScanSummary) {
    assert_eq!(actual.sweep, expected.sweep);
    assert_eq!(actual.referrals, expected.referrals);
    assert_eq!(actual.opcua_hosts, expected.opcua_hosts);
    assert_eq!(actual.non_opcua_hosts, expected.non_opcua_hosts);
    assert_eq!(actual.started_unix, expected.started_unix);
    assert_eq!(actual.finished_unix, expected.finished_unix);
    assert_eq!(actual.certs.distinct, expected.certs.distinct);
    assert!(actual.certs.sightings >= expected.certs.sightings);
    assert_eq!(actual.faults, expected.faults);
}

/// Same world as [`scanner_with`], but fronted by a seeded
/// [`MiddleboxPlan`] and scanned with the hostile retry policy — the
/// determinism contract must survive packet loss, tarpits and
/// rate-limiting firewalls.
fn hostile_world() -> (Internet, Vec<Cidr>) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = ["10.40.0.0/22", "172.28.0.0/23"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let cfg = PopulationConfig::new(SEED, universe.clone(), StrataMix::paper_like(60));
    let pop = synthesize(&net, &cfg);
    let plan = MiddleboxPlan::plan(&pop, &MiddleboxConfig::hostile(), SEED);
    net.set_profiles(Arc::new(plan));
    (net, universe)
}

fn hostile_config(workers: usize) -> ScanConfig {
    ScanConfig {
        workers,
        retry: RetryPolicy::hostile(),
        ..ScanConfig::default()
    }
}

fn hostile_scan(workers: usize) -> (ScanSummary, Vec<ScanRecord>) {
    let (net, universe) = hostile_world();
    let scanner = Scanner::new(net, blocklist(), hostile_config(workers));
    let mut records = Vec::new();
    let summary = scanner.scan_with(&universe, SEED, |r| records.push(r));
    (summary, records)
}

/// A scanner over `net` on a clock of its own, starting where `net`'s
/// clock stands: one world serves many independent scans.
fn scanner_on(net: &Internet, config: &ScanConfig, workers: usize) -> Scanner {
    let clock = VirtualClock::starting_at_micros(net.clock().now_micros());
    let config = ScanConfig {
        workers,
        ..config.clone()
    };
    Scanner::new(net.with_clock(clock), blocklist(), config)
}

/// Aborts the scan after every record count `n` it can reach, resumes
/// it to completion, and checks the stitched stream and summary
/// against an uninterrupted run — at workers 1, 2 and 4. Returns the
/// uninterrupted run.
fn assert_every_cut_stitches(
    net: &Internet,
    universe: &[Cidr],
    config: &ScanConfig,
) -> (ScanSummary, Vec<ScanRecord>) {
    let (expected_summary, expected) = scanner_on(net, config, 1).scan_collect(universe, SEED);
    assert!(expected.len() > 10, "need a meaningful record stream");
    let sweep_records = expected.iter().take_while(|r| !r.via.is_referral()).count();
    for workers in [1usize, 2, 4] {
        for n in 1..=expected.len() {
            let scanner = scanner_on(net, config, workers);
            let certs = CertStore::new();
            let mut stitched = Vec::new();
            let token = CancelToken::after_records(n as u64);
            let first =
                scanner.scan_resumable(universe, SEED, &certs, None, &token, |r| stitched.push(r));
            let summary = match first {
                ScanOutcome::Aborted { checkpoint } => {
                    // Sweep cuts land exactly; referral levels are
                    // atomic, so a cut inside one lands at its end.
                    if n <= sweep_records {
                        assert_eq!(stitched.len(), n, "workers={workers} n={n}");
                    }
                    assert_eq!(stitched[..], expected[..stitched.len()]);
                    let resumed = scanner.scan_resumable(
                        universe,
                        SEED,
                        &certs,
                        Some(*checkpoint),
                        &CancelToken::new(),
                        |r| stitched.push(r),
                    );
                    let ScanOutcome::Complete { summary } = resumed else {
                        panic!("unbudgeted resume must complete (workers={workers} n={n})");
                    };
                    summary
                }
                ScanOutcome::Complete { summary } => summary,
            };
            assert_eq!(stitched, expected, "workers={workers} n={n}");
            assert_summary_matches_modulo_sightings(&summary, &expected_summary);
        }
    }
    (expected_summary, expected)
}

#[test]
fn event_loop_matches_threaded_at_any_in_flight_cap() {
    // The one engine at any worker count and per-worker buffer
    // capacity: byte-identical records and summary.
    let (baseline_summary, baseline_records) = scan(1, 256);
    assert!(
        baseline_summary.referrals.followed > 0,
        "world must exercise the referral phase, got {:?}",
        baseline_summary.referrals
    );
    for workers in [2usize, 8] {
        for capacity in [1usize, 4, 256] {
            let (summary, records) = scan(workers, capacity);
            assert_eq!(
                summary, baseline_summary,
                "workers={workers} cap={capacity}"
            );
            assert_eq!(
                records, baseline_records,
                "workers={workers} cap={capacity}"
            );
        }
    }
}

#[test]
fn event_loop_matches_multiworker_threaded_through_scan_stream() {
    let (summary4, records4) = scan(4, 256);
    let (scanner, universe) = scanner_with(1, 32);
    let mut stream = scanner.scan_stream(universe, SEED);
    let records: Vec<ScanRecord> = stream.by_ref().collect();
    let summary = stream.finish();
    assert_eq!(summary, summary4);
    assert_eq!(records, records4);
}

/// Backpressure must not deadlock even in the most constrained setup:
/// a records channel of capacity 1 feeding a consumer, over workers
/// that may each buffer one record — and the output order must still
/// be exact.
#[test]
fn no_deadlock_at_capacity_one() {
    let (_, expected) = scan(1, 256);
    let (scanner, universe) = scanner_with(4, 1);
    let mut stream = scanner.scan_stream(universe, SEED);
    let records: Vec<ScanRecord> = stream.by_ref().collect();
    stream.finish();
    assert_eq!(records, expected);
}

#[test]
fn abort_resume_stitches_byte_identical() {
    let (net, universe) = build_world();
    let config = ScanConfig::default();
    let (expected_summary, expected) = assert_every_cut_stitches(&net, &universe, &config);

    // Abort mid-sweep, resume, abort again in the tail (nested aborts),
    // resume to completion; the concatenation must be byte-identical.
    let scanner = scanner_on(&net, &config, 4);
    let certs = CertStore::new();
    let mut stitched: Vec<ScanRecord> = Vec::new();

    let first = CancelToken::after_records(expected.len() as u64 / 2);
    let outcome =
        scanner.scan_resumable(&universe, SEED, &certs, None, &first, |r| stitched.push(r));
    let ScanOutcome::Aborted { checkpoint } = outcome else {
        panic!("budgeted token must abort mid-scan");
    };
    let emitted_at_abort = stitched.len();
    assert_eq!(emitted_at_abort, expected.len() / 2);
    assert!(!checkpoint.sweep_done, "abort should land mid-sweep");
    assert!(checkpoint.next_step > 0);
    assert_eq!(checkpoint.seed, SEED);
    // Emitted records are final: they are a prefix of the full stream.
    assert_eq!(stitched[..], expected[..emitted_at_abort]);

    let second = CancelToken::after_records((expected.len() - emitted_at_abort) as u64 - 1);
    let outcome =
        scanner.scan_resumable(&universe, SEED, &certs, Some(*checkpoint), &second, |r| {
            stitched.push(r)
        });
    let checkpoint: SweepCheckpoint = match outcome {
        ScanOutcome::Aborted { checkpoint } => *checkpoint,
        ScanOutcome::Complete { .. } => panic!("second budgeted token must abort too"),
    };
    assert!(stitched.len() < expected.len());

    let outcome = scanner.scan_resumable(
        &universe,
        SEED,
        &certs,
        Some(checkpoint),
        &CancelToken::new(),
        |r| stitched.push(r),
    );
    let ScanOutcome::Complete { summary } = outcome else {
        panic!("unbudgeted resume must complete");
    };
    assert_eq!(stitched, expected);
    assert_summary_matches_modulo_sightings(&summary, &expected_summary);
}

/// The determinism contract under fire: with middleboxes injecting
/// loss, tarpits and rate limits, the engine at any worker count must
/// still emit byte-identical streams — and abort/resume must stitch
/// exactly at every cut point, fault counters included.
#[test]
fn hostile_abort_resume_stitches_byte_identical() {
    let (expected_summary, expected) = hostile_scan(1);
    // The hostile plan must actually bite: every non-Ok outcome class
    // the retry layer distinguishes has to appear in the stream.
    let faults = expected_summary.faults;
    assert!(faults.throttled > 0, "no throttled hosts: {faults:?}");
    assert!(faults.tarpitted > 0, "no tarpitted hosts: {faults:?}");
    assert!(faults.timed_out > 0, "no timed-out hosts: {faults:?}");
    assert!(
        faults.retried_hosts > 0,
        "retries never engaged: {faults:?}"
    );
    assert!(faults.backoff_micros > 0);

    for workers in [4usize, 8] {
        let (summary, records) = hostile_scan(workers);
        assert_eq!(summary, expected_summary, "workers={workers}");
        assert_eq!(records, expected, "workers={workers}");
    }

    let (net, universe) = hostile_world();
    let (summary, records) = assert_every_cut_stitches(&net, &universe, &hostile_config(1));
    assert_eq!(records, expected);
    assert_summary_matches_modulo_sightings(&summary, &expected_summary);

    // Fault tallies for emitted records ride the checkpoint.
    let scanner = scanner_on(&net, &hostile_config(1), 4);
    let mut emitted: Vec<ScanRecord> = Vec::new();
    let token = CancelToken::after_records(expected.len() as u64 / 2);
    let outcome = scanner.scan_resumable(&universe, SEED, &CertStore::new(), None, &token, |r| {
        emitted.push(r)
    });
    let ScanOutcome::Aborted { checkpoint } = outcome else {
        panic!("budgeted token must abort mid-scan");
    };
    let mut at_abort = scanner::FaultStats::default();
    for r in &emitted {
        at_abort.observe(r);
    }
    assert_eq!(checkpoint.fault_stats, at_abort);
}

/// Cuts must also land in a second suite phase and inside referral
/// levels: OPC UA (with referral following) and `uat-tls` over one
/// world.
#[test]
fn two_suite_abort_resume_stitches_at_every_cut() {
    let (net, universe) = build_world();
    MultiProtoPlan::deploy(&net, &universe, &MultiProtoConfig::sample(), SEED);
    let config = ScanConfig::builder()
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::new()))
        .suite(DEFAULT_UATLS_PORT, Arc::new(UatTlsSuite::new()))
        .build()
        .expect("valid two-suite config");
    let (summary, records) = assert_every_cut_stitches(&net, &universe, &config);
    assert!(summary.referrals.followed > 0, "{:?}", summary.referrals);
    assert!(
        records.last().is_some_and(|r| r.port == DEFAULT_UATLS_PORT),
        "the second phase must emit records"
    );
}

/// A `cancel()` from another thread in the middle of a four-worker
/// sweep: workers stop at their next chunk claim, and the stitched
/// stream still equals an uninterrupted run.
#[test]
fn external_cancel_mid_sweep_stitches_at_four_workers() {
    let (net, universe) = build_world();
    let config = ScanConfig::default();
    let (expected_summary, expected) = scanner_on(&net, &config, 1).scan_collect(&universe, SEED);

    let scanner = scanner_on(&net, &config, 4);
    let certs = CertStore::new();
    let token = CancelToken::new();
    let (ask, asked) = mpsc::channel::<()>();
    let (done, cancelled) = mpsc::channel::<()>();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            asked.recv().expect("sink asks once");
            token.cancel();
            done.send(()).expect("sink waits for the cancel");
        })
    };
    let mut stitched: Vec<ScanRecord> = Vec::new();
    let outcome = scanner.scan_resumable(&universe, SEED, &certs, None, &token, |r| {
        stitched.push(r);
        if stitched.len() == 3 {
            // Hand the cancel to the other thread and wait until it
            // landed, so it falls mid-sweep.
            ask.send(()).expect("canceller listens");
            cancelled.recv().expect("canceller answers");
        }
    });
    canceller.join().expect("canceller thread");
    let ScanOutcome::Aborted { checkpoint } = outcome else {
        panic!("a cancelled token must abort the scan");
    };
    assert_eq!(stitched.len(), 3);
    assert!(!checkpoint.sweep_done);
    let outcome = scanner.scan_resumable(
        &universe,
        SEED,
        &certs,
        Some(*checkpoint),
        &CancelToken::new(),
        |r| stitched.push(r),
    );
    let ScanOutcome::Complete { summary } = outcome else {
        panic!("resume must complete");
    };
    assert_eq!(stitched, expected);
    assert_summary_matches_modulo_sightings(&summary, &expected_summary);
}

#[test]
fn abort_during_referral_phase_resumes_exactly() {
    let (expected_summary, expected) = scan(1, 256);
    let referral_records = expected.iter().filter(|r| r.via.is_referral()).count();
    assert!(referral_records > 0, "world must have referral hosts");

    // Budget past the sweep so cancellation lands between referral
    // levels.
    let sweep_records = expected.len() - referral_records;
    let (scanner, universe) = scanner_with(4, 256);
    let certs = CertStore::new();
    let mut stitched: Vec<ScanRecord> = Vec::new();
    let token = CancelToken::after_records(sweep_records as u64 + 1);
    let outcome =
        scanner.scan_resumable(&universe, SEED, &certs, None, &token, |r| stitched.push(r));
    let ScanOutcome::Aborted { checkpoint } = outcome else {
        panic!("budgeted token must abort");
    };
    assert!(
        checkpoint.sweep_done,
        "abort should land in the referral phase"
    );
    let outcome = scanner.scan_resumable(
        &universe,
        SEED,
        &certs,
        Some(*checkpoint),
        &CancelToken::new(),
        |r| stitched.push(r),
    );
    let ScanOutcome::Complete { summary } = outcome else {
        panic!("resume must complete");
    };
    assert_eq!(stitched, expected);
    assert_summary_matches_modulo_sightings(&summary, &expected_summary);
}

/// Satellite to the churn-agnostic-clock regression
/// (`week_epochs_strictly_advance`): an aborted week must consume *no*
/// campaign time — discarded probes only ever advanced their private
/// fork clocks — and the resumed week must be byte-identical to a
/// never-aborted one.
#[test]
fn aborted_week_leaves_campaign_clock_untouched() {
    use scanner::Campaign;

    let uninterrupted = {
        let (scanner, universe) = scanner_with(1, 256);
        let mut campaign = Campaign::new(scanner);
        let w0 = campaign.run_week(&universe, SEED, |_| {});
        let w1 = campaign.run_week(&universe, SEED, |_| {});
        vec![w0, w1]
    };

    let (scanner, universe) = scanner_with(4, 256);
    let mut campaign = Campaign::new(scanner);
    let epoch_before = campaign.scanner().internet().clock().now_micros();

    let token = CancelToken::after_records(uninterrupted[0].records.len() as u64 / 2);
    let outcome = campaign.run_week_resumable(&universe, SEED, |_| {}, &token);
    let WeekOutcome::Aborted(checkpoint) = outcome else {
        panic!("budgeted token must abort the week");
    };
    // The abort consumed zero campaign time and did not finish a week.
    assert_eq!(
        campaign.scanner().internet().clock().now_micros(),
        epoch_before,
        "an aborted week must not advance the campaign clock"
    );
    assert_eq!(campaign.weeks_run(), 0);
    assert_eq!(checkpoint.week, 0);

    let outcome = campaign.resume_week(&universe, SEED, *checkpoint, &CancelToken::new());
    let WeekOutcome::Complete(week0) = outcome else {
        panic!("resume must complete the week");
    };
    assert_eq!(campaign.weeks_run(), 1);
    assert_eq!(week0.records, uninterrupted[0].records);
    assert_summary_matches_modulo_sightings(&week0.summary, &uninterrupted[0].summary);

    // The next week is entirely unaffected by the mid-week abort.
    let outcome = campaign.run_week_resumable(&universe, SEED, |_| {}, &CancelToken::new());
    let WeekOutcome::Complete(week1) = outcome else {
        panic!("uncancelled week must complete");
    };
    assert_eq!(week1.records, uninterrupted[1].records);
    assert_summary_matches_modulo_sightings(&week1.summary, &uninterrupted[1].summary);
}

/// A `CancelGuard` dropped without disarming cancels the token — and a
/// scan driven by that token winds down at the next safe point instead
/// of running to completion.
#[test]
fn cancel_guard_aborts_scan_on_drop() {
    let (scanner, universe) = scanner_with(4, 256);
    let token = CancelToken::new();
    {
        let _guard = token.guard();
        // Guard dropped here — e.g. an early return in a driver.
    }
    let outcome = scanner.scan_resumable(&universe, SEED, &CertStore::new(), None, &token, |_| {
        panic!("a pre-cancelled scan must not emit records")
    });
    assert!(matches!(outcome, ScanOutcome::Aborted { .. }));
}
