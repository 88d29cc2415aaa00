//! Abort a sweep mid-flight, resume it from the checkpoint, and prove
//! the stitched output is byte-identical to a run that was never
//! interrupted.
//!
//! The scan engine checks a [`CancelToken`] after every emitted record.
//! `CancelToken::after_records(n)` arms a deterministic abort: for a
//! fixed seed the scan stops on the same record every run, at any
//! worker count, so this demo — and the CI gate that greps its output
//! for `MISMATCH` and diffs a 1-worker against a 4-worker run — is
//! reproducible.
//!
//! Two levels are exercised:
//!
//! 1. **Scanner**: `scan_resumable` aborted at ~50%, resumed from the
//!    returned [`SweepCheckpoint`]; record streams must concatenate to
//!    the uninterrupted stream.
//! 2. **Campaign**: `run_week_resumable` aborted mid-week; the shared
//!    campaign clock must not move, and `resume_week` must complete
//!    the week byte-identically — plus the *following* week.
//!
//! ```sh
//! cargo run --release --example abort_resume            # default seed
//! cargo run --release --example abort_resume -- 1234    # custom seed
//! cargo run --release --example abort_resume -- 1234 4  # ... 4 workers
//! ```

use opcua_study::prelude::*;

fn build(seed: u64, workers: usize) -> (Scanner, Vec<Cidr>) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = vec!["10.48.0.0/21".parse().unwrap()];
    let cfg = PopulationConfig::new(seed, universe.clone(), StrataMix::paper_like(80));
    synthesize(&net, &cfg);
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    (Scanner::new(net, Blocklist::new(), config), universe)
}

fn check(label: &str, ok: bool) -> bool {
    println!("{} {label}", if ok { "[ok]      " } else { "[MISMATCH]" });
    ok
}

/// Summaries must stitch exactly except the cert-interner `sightings`
/// counter, which counts work performed: certificates captured by
/// discarded probes are sighted again on re-probe.
fn summaries_match(a: &ScanSummary, b: &ScanSummary) -> bool {
    a.sweep == b.sweep
        && a.referrals == b.referrals
        && a.opcua_hosts == b.opcua_hosts
        && a.non_opcua_hosts == b.non_opcua_hosts
        && a.started_unix == b.started_unix
        && a.finished_unix == b.finished_unix
        && a.certs.distinct == b.certs.distinct
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2020);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let mut all_ok = true;

    // --- Level 1: one scan, aborted at ~50% and resumed. -------------
    let (scanner, universe) = build(seed, workers);
    let (baseline_summary, baseline) = scanner.scan_collect(&universe, seed);
    println!("baseline: {} records", baseline.len());

    let (scanner, universe) = build(seed, workers);
    let certs = CertStore::new();
    let mut stitched = Vec::new();
    let token = CancelToken::after_records(baseline.len() as u64 / 2);
    let checkpoint =
        match scanner.scan_resumable(&universe, seed, &certs, None, &token, |r| stitched.push(r)) {
            ScanOutcome::Aborted { checkpoint } => checkpoint,
            ScanOutcome::Complete { .. } => unreachable!("budgeted token must abort"),
        };
    println!(
        "aborted after {} of {} records: checkpoint at walk step {}",
        stitched.len(),
        baseline.len(),
        checkpoint.next_step,
    );
    let resumed_summary = match scanner.scan_resumable(
        &universe,
        seed,
        &certs,
        Some(*checkpoint),
        &CancelToken::new(),
        |r| stitched.push(r),
    ) {
        ScanOutcome::Complete { summary, .. } => summary,
        ScanOutcome::Aborted { .. } => unreachable!("no cancellation armed on resume"),
    };
    all_ok &= check("stitched record stream equals uninterrupted run", {
        stitched == baseline
    });
    all_ok &= check(
        "stitched summary equals uninterrupted run",
        summaries_match(&resumed_summary, &baseline_summary),
    );

    // --- Level 2: a weekly campaign aborted mid-week. -----------------
    let weeks = |resumable: bool| {
        let (scanner, universe) = build(seed, workers);
        let mut campaign = Campaign::new(scanner);
        let mut out = Vec::new();
        for _ in 0..2 {
            if resumable {
                let half = CancelToken::after_records(40);
                match campaign.run_week_resumable(&universe, seed, |_| {}, &half) {
                    WeekOutcome::Complete(scan) => out.push(scan),
                    WeekOutcome::Aborted(cp) => {
                        match campaign.resume_week(&universe, seed, *cp, &CancelToken::new()) {
                            WeekOutcome::Complete(scan) => out.push(scan),
                            WeekOutcome::Aborted(_) => unreachable!("resume token never cancels"),
                        }
                    }
                }
            } else {
                out.push(campaign.run_week(&universe, seed, |_| {}));
            }
        }
        out
    };
    let uninterrupted = weeks(false);
    let (scanner, universe) = build(seed, workers);
    let mut campaign = Campaign::new(scanner);
    let clock_before = campaign.scanner().internet().clock().now_micros();
    let token = CancelToken::after_records(40);
    let cp = match campaign.run_week_resumable(&universe, seed, |_| {}, &token) {
        WeekOutcome::Aborted(cp) => cp,
        WeekOutcome::Complete(_) => unreachable!("budgeted token must abort the week"),
    };
    all_ok &= check(
        "aborted week leaves the campaign clock untouched",
        campaign.scanner().internet().clock().now_micros() == clock_before
            && campaign.weeks_run() == 0,
    );
    let week0 = match campaign.resume_week(&universe, seed, *cp, &CancelToken::new()) {
        WeekOutcome::Complete(scan) => scan,
        WeekOutcome::Aborted(_) => unreachable!("resume token never cancels"),
    };
    let week1 = match campaign.run_week_resumable(&universe, seed, |_| {}, &CancelToken::new()) {
        WeekOutcome::Complete(scan) => scan,
        WeekOutcome::Aborted(_) => unreachable!("uncancelled week completes"),
    };
    all_ok &= check(
        "resumed week 0 records equal uninterrupted week 0",
        week0.records == uninterrupted[0].records
            && summaries_match(&week0.summary, &uninterrupted[0].summary),
    );
    all_ok &= check(
        "week 1 after a mid-week abort equals uninterrupted week 1",
        week1.records == uninterrupted[1].records
            && summaries_match(&week1.summary, &uninterrupted[1].summary),
    );

    if !all_ok {
        std::process::exit(1);
    }
    println!("abort/resume determinism holds (seed {seed})");
}
