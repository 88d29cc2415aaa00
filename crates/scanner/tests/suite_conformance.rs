//! Suite conformance: every [`ProtocolSuite`] must behave identically
//! at any worker count, and a multi-suite registry must compose from
//! single-suite campaigns without interference.
//!
//! The contract, checked against planted ground truth:
//!
//! 1. **Determinism**: a two-suite campaign (OPC UA on 4840, `uat-tls`
//!    on 4843) is byte-identical across 1/4/8 workers — records *and*
//!    summary.
//! 2. **Composition**: the mixed-registry sweep equals the literal
//!    concatenation of the single-suite sweeps over the same world
//!    (suites run as isolated phases on disjoint ports).
//! 3. **Ground truth**: the TLS deficit columns and the vendor
//!    breakdown recover exactly what the population planted.
//! 4. **Fault classification**: under a hostile middlebox plan, every
//!    record's [`HostOutcome`] — OPC UA and `uat-tls` alike — matches
//!    the plan's replayed terminal fate, and the retry budget is never
//!    exceeded.
//! 5. **Compatibility**: an empty registry (the pre-suite default) is
//!    byte-identical to explicitly registering `OpcUaSuite` on 4840.

use std::collections::BTreeMap;
use std::sync::Arc;

use assessment::{assess, Deficit};
use netsim::{Blocklist, Cidr, ConnectFate, Internet, VirtualClock};
use population::{
    population_vendor_counts, synthesize, HostClass, HostGroundTruth, MiddleboxConfig,
    MiddleboxPlan, MultiProtoConfig, MultiProtoPlan, Population, PopulationConfig, StrataMix,
};
use scanner::{
    HostOutcome, OpcUaSuite, RetryPolicy, ScanConfig, ScanRecord, ScanSummary, Scanner,
    UatTlsSuite, DEFAULT_OPCUA_PORT, DEFAULT_UATLS_PORT,
};

const SEED: u64 = 22_061_714;

/// Sweep-visible strata only (no referral-only classes), so planted
/// hosts correspond 1:1 to sweep records and the fault/vendor oracles
/// need no referral-reachability caveats.
fn sweep_mix() -> StrataMix {
    StrataMix::new()
        .with(HostClass::WideOpen, 6)
        .with(HostClass::DeprecatedOnly, 4)
        .with(HostClass::SecureModern, 4)
        .with(HostClass::ExpiredCert, 2)
        .with(HostClass::ReusedCert, 4)
        .with(HostClass::DiscoveryServer, 3)
}

/// A fresh, identically-seeded two-protocol world per run: OPC UA
/// population on the default port plus the TLS strata on `uat-tls`.
fn build_world() -> (Internet, Vec<Cidr>, Population, MultiProtoPlan) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = vec!["10.61.0.0/22".parse().unwrap()];
    let cfg = PopulationConfig::new(SEED, universe.clone(), sweep_mix());
    let population = synthesize(&net, &cfg);
    let plan = MultiProtoPlan::deploy(&net, &universe, &MultiProtoConfig::sample(), SEED);
    (net, universe, population, plan)
}

fn both_suites(workers: usize) -> ScanConfig {
    ScanConfig::builder()
        .workers(workers)
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::with_fingerprint()))
        .suite(
            DEFAULT_UATLS_PORT,
            Arc::new(UatTlsSuite::with_fingerprint()),
        )
        .build()
        .expect("valid two-suite config")
}

fn scan(config: ScanConfig) -> (ScanSummary, Vec<ScanRecord>) {
    let (net, universe, _, _) = build_world();
    Scanner::new(net, Blocklist::new(), config).scan_collect(&universe, SEED)
}

#[test]
fn two_suite_campaign_is_byte_identical_across_engines_and_workers() {
    let (summary1, records1) = scan(both_suites(1));

    // The baseline must actually exercise both suites, or the matrix
    // proves nothing about multi-protocol determinism.
    let tls: Vec<&ScanRecord> = records1
        .iter()
        .filter(|r| r.port == DEFAULT_UATLS_PORT)
        .collect();
    assert_eq!(
        tls.len(),
        MultiProtoConfig::sample().total(),
        "every deployed uat-tls host must yield a record"
    );
    assert!(tls.iter().all(|r| r.payload.protocol() == "uat-tls"));
    assert!(
        tls.iter().all(|r| r.speaks()),
        "every planted uat-tls host completes the prologue"
    );
    assert!(records1
        .iter()
        .any(|r| r.port == DEFAULT_OPCUA_PORT && r.payload.protocol() == "opcua" && r.speaks()));

    for workers in [4, 8] {
        let (summary, records) = scan(both_suites(workers));
        assert_eq!(
            summary, summary1,
            "summary must not depend on workers={workers}"
        );
        assert_eq!(
            records, records1,
            "records must not depend on workers={workers}"
        );
    }
}

#[test]
fn mixed_registry_equals_concatenation_of_single_suite_sweeps() {
    let opcua_only = ScanConfig::builder()
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::with_fingerprint()))
        .build()
        .expect("valid opcua-only config");
    // uat-tls follows no referrals; a registry without any
    // referral-capable suite must disable the referral phase outright.
    let uattls_only = ScanConfig::builder()
        .suite(
            DEFAULT_UATLS_PORT,
            Arc::new(UatTlsSuite::with_fingerprint()),
        )
        .referral_depth(0)
        .build()
        .expect("valid uat-tls-only config");

    let (_, opcua_records) = scan(opcua_only);
    let (_, tls_records) = scan(uattls_only);
    let (_, mixed) = scan(both_suites(1));

    assert!(!opcua_records.is_empty() && !tls_records.is_empty());
    let concat: Vec<ScanRecord> = opcua_records.into_iter().chain(tls_records).collect();
    assert_eq!(
        mixed, concat,
        "mixed-registry sweep must equal the concatenation of single-suite sweeps"
    );
}

#[test]
fn tls_deficits_and_vendor_breakdown_recover_ground_truth() {
    let (net, universe, population, plan) = build_world();
    let (_, records) =
        Scanner::new(net, Blocklist::new(), both_suites(4)).scan_collect(&universe, SEED);
    let report = assess(&records);

    assert_eq!(
        report.count(Deficit::TlsButAnonymous),
        plan.expected_tls_anonymous(),
        "TLS-but-anonymous column must match the planted stratum"
    );
    assert_eq!(
        report.count(Deficit::TlsExpiredCert),
        plan.expected_tls_expired(),
        "TLS-cert-expired column must match the planted stratum"
    );
    assert_eq!(
        report.protocol_hosts.get("opcua").copied().unwrap_or(0),
        population.len()
    );
    assert_eq!(
        report.protocol_hosts.get("uat-tls").copied().unwrap_or(0),
        plan.hosts.len()
    );

    // Vendor fingerprinting must attribute every host — OPC UA and
    // TLS-wrapped alike — to exactly the vendor the synthesis planted.
    let mut expected = population_vendor_counts(&population);
    for (vendor, n) in plan.vendor_counts() {
        *expected.entry(vendor).or_default() += n;
    }
    assert_eq!(report.vendor_counts, expected);
    assert_eq!(report.unfingerprinted, 0);
}

/// The outcome class a replayed terminal fate must surface as.
fn expected_outcome(fate: ConnectFate) -> HostOutcome {
    match fate {
        ConnectFate::Deliver => HostOutcome::Ok,
        ConnectFate::SynLost => HostOutcome::TimedOut,
        ConnectFate::Throttled { .. } => HostOutcome::Throttled,
        ConnectFate::Tarpit(_) => HostOutcome::Tarpitted,
    }
}

#[test]
fn planted_faults_classified_identically_for_both_suites() {
    let (net, universe, population, tls_plan) = build_world();

    // Extend the fault plan over the TLS hosts: the planner keys on
    // addresses alone, so a merged roster is all it needs.
    let mut merged = population.clone();
    for h in &tls_plan.hosts {
        merged.hosts.push(HostGroundTruth {
            address: h.address,
            port: h.port,
            class: HostClass::WideOpen,
            application_uri: String::new(),
            vendor: h.vendor,
            cert_thumbprint: None,
            reuse_group: None,
            shared_prime_group: None,
            variables: 0,
            writable_variables: 0,
            methods: 0,
            executable_methods: 0,
        });
    }
    let fault_plan = MiddleboxPlan::plan(&merged, &MiddleboxConfig::hostile(), SEED);
    net.set_profiles(Arc::new(fault_plan.clone()));

    let retry = RetryPolicy::hostile();
    let budget = retry.max_attempts;
    let config = ScanConfig::builder()
        .workers(2)
        .retry(retry)
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::with_fingerprint()))
        .suite(
            DEFAULT_UATLS_PORT,
            Arc::new(UatTlsSuite::with_fingerprint()),
        )
        .build()
        .expect("valid hostile two-suite config");
    let (summary, records) =
        Scanner::new(net, Blocklist::new(), config).scan_collect(&universe, SEED);

    let by_key: BTreeMap<(u32, u16), &ScanRecord> =
        records.iter().map(|r| ((r.address.0, r.port), r)).collect();
    for h in &merged.hosts {
        let record = by_key
            .get(&(h.address.0, h.port))
            .unwrap_or_else(|| panic!("planted host {}:{} has no record", h.address, h.port));
        let expected = expected_outcome(fault_plan.terminal_fate(h.address, budget));
        assert_eq!(
            record.outcome, expected,
            "outcome for {}:{} must match the replayed terminal fate",
            h.address, h.port
        );
        assert!(
            record.connect_attempts <= budget,
            "retry budget exceeded at {}:{} ({} attempts > {budget})",
            h.address,
            h.port,
            record.connect_attempts
        );
    }

    // The hostile preset must actually exercise the retry machinery on
    // this world, and leave unrecoverable hosts for classification.
    assert!(summary.faults.retried_hosts > 0, "{:?}", summary.faults);
    assert!(summary.faults.unrecovered() > 0, "{:?}", summary.faults);
    assert!(summary.faults.connect_attempts <= records.len() as u64 * u64::from(budget));
}

#[test]
fn empty_registry_matches_explicit_opcua_registry() {
    let (default_summary, default_records) = scan(ScanConfig::default());
    let explicit = ScanConfig::builder()
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::new()))
        .build()
        .expect("valid explicit-registry config");
    let (explicit_summary, explicit_records) = scan(explicit);
    assert_eq!(default_summary, explicit_summary);
    assert_eq!(default_records, explicit_records);
}
