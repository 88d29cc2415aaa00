//! Multi-protocol campaign: per-suite throughput over one sweep
//! engine, TLS deficit columns vs planted truth, and digest identity
//! across worker counts.
//!
//! The bench world is the usual paper-like OPC UA population plus
//! [`MultiProtoPlan`]'s TLS-wrapped strata on the `uat-tls` port; one
//! campaign drives both suites (each with vendor fingerprinting). The
//! digest asserts — not samples — that the two-suite record stream is
//! byte-stable at every worker count.
//!
//! ```sh
//! BENCH_HOSTS=300 BENCH_UNIVERSE=20 BENCH_WORKERS=1,2,4,8 \
//!     cargo bench --bench multiproto
//! ```
//!
//! Emits `BENCH_multiproto.json`.

use std::collections::BTreeMap;
use std::sync::Arc;

use assessment::{assess, Deficit};
use bench::{time, write_bench_json, BenchConfig, Json};
use netsim::{Blocklist, Internet};
use population::{MultiProtoConfig, MultiProtoPlan, TlsClass};
use scanner::{
    OpcUaSuite, ProtocolPayload, ScanConfig, ScanRecord, Scanner, UatTlsSuite, DEFAULT_OPCUA_PORT,
    DEFAULT_UATLS_PORT,
};

/// Order-sensitive digest over a record stream (same fold as the sweep
/// and hostile benches) — any reordering, dropped record, or changed
/// payload shifts it.
fn digest(records: &[ScanRecord], opcua_hosts: u64) -> String {
    format!(
        "{}/{}/{:x}",
        records.len(),
        opcua_hosts,
        records.iter().fold(0u64, |acc, r| acc
            .wrapping_mul(1_000_003)
            .wrapping_add(u64::from(r.address.0))
            .wrapping_add(r.rx_bytes))
    )
}

/// TLS strata scaled to the bench size (at least one host per class).
fn tls_config(cfg: &BenchConfig) -> MultiProtoConfig {
    MultiProtoConfig {
        secure: cfg.hosts / 10 + 1,
        anonymous_inner: cfg.hosts / 15 + 1,
        expired_cert: cfg.hosts / 20 + 1,
        ..MultiProtoConfig::default()
    }
}

/// A fresh identically-seeded two-protocol world per measured run.
fn two_protocol_world(cfg: &BenchConfig) -> (Internet, MultiProtoPlan) {
    let (net, _) = cfg.build_world();
    let plan = MultiProtoPlan::deploy(&net, &cfg.universe, &tls_config(cfg), cfg.seed);
    (net, plan)
}

fn two_suite_scanner(net: Internet, workers: usize) -> Scanner {
    let config = ScanConfig::builder()
        .workers(workers)
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::with_fingerprint()))
        .suite(
            DEFAULT_UATLS_PORT,
            Arc::new(UatTlsSuite::with_fingerprint()),
        )
        .build()
        .expect("valid two-suite config");
    Scanner::new(net, Blocklist::new(), config)
}

/// Records per suite label. Exhaustive on purpose: a new suite must
/// force this tally to account for its records (ua-lint rejects `_`).
fn per_suite_counts(records: &[ScanRecord]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for r in records {
        let label = match &r.payload {
            ProtocolPayload::OpcUa(_) => "opcua",
            ProtocolPayload::UatTls(_) => "uat-tls",
        };
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

fn main() {
    let cfg = BenchConfig::from_env();
    let tls = tls_config(&cfg);
    println!(
        "multiproto bench: {} opcua hosts + {} uat-tls hosts in {} addresses, workers {:?}",
        cfg.hosts,
        tls.total(),
        cfg.universe_size(),
        cfg.worker_counts
    );

    // Two-suite campaign at every worker count: byte-identical digest,
    // per-suite throughput from the fastest run.
    let mut runs = Vec::new();
    let mut baseline_digest: Option<String> = None;
    let mut best_seconds = f64::INFINITY;
    let mut suite_counts = BTreeMap::new();
    let mut last_records = Vec::new();
    for &workers in &cfg.worker_counts {
        let (net, _) = two_protocol_world(&cfg);
        let scanner = two_suite_scanner(net, workers);
        let (seconds, (summary, records)) = time(|| scanner.scan_collect(&cfg.universe, cfg.seed));
        let run_digest = digest(&records, summary.opcua_hosts);
        match &baseline_digest {
            None => baseline_digest = Some(run_digest.clone()),
            Some(expected) => assert_eq!(
                expected, &run_digest,
                "two-suite scan output diverged at workers={workers}"
            ),
        }
        suite_counts = per_suite_counts(&records);
        println!(
            "  workers={workers}: {seconds:.3}s, {} records ({} opcua, {} uat-tls)",
            records.len(),
            suite_counts.get("opcua").copied().unwrap_or(0),
            suite_counts.get("uat-tls").copied().unwrap_or(0),
        );
        best_seconds = best_seconds.min(seconds);
        last_records = records;
        runs.push(
            Json::obj()
                .set("workers", Json::int(workers as i64))
                .set("seconds", Json::Num(seconds))
                .set("digest", Json::str(&run_digest)),
        );
    }

    // TLS deficit columns against the planted strata.
    let (_, plan) = two_protocol_world(&cfg);
    let report = assess(&last_records);
    assert_eq!(
        report.count(Deficit::TlsButAnonymous),
        plan.expected_tls_anonymous(),
        "TLS-but-anonymous column diverged from the planted stratum"
    );
    assert_eq!(
        report.count(Deficit::TlsExpiredCert),
        plan.expected_tls_expired(),
        "TLS-cert-expired column diverged from the planted stratum"
    );

    let mut per_suite = Json::obj();
    for (label, count) in &suite_counts {
        assert!(*count > 0, "suite {label} produced no records");
        per_suite = per_suite.set(
            label,
            Json::obj().set("records", Json::int(*count as i64)).set(
                "records_per_second",
                Json::Num(*count as f64 / best_seconds),
            ),
        );
    }
    let mut strata = Json::obj();
    for class in TlsClass::ALL {
        strata = strata.set(class.label(), Json::int(plan.count(class) as i64));
    }

    let out = Json::obj()
        .set("bench", Json::str("multiproto"))
        .set("opcua_hosts", Json::int(cfg.hosts as i64))
        .set("uattls_hosts", Json::int(tls.total() as i64))
        .set("universe_addresses", Json::int(cfg.universe_size() as i64))
        .set("seed", Json::int(cfg.seed as i64))
        .set("deterministic_across_worker_counts", Json::Bool(true))
        .set(
            "tls_but_anonymous",
            Json::int(report.count(Deficit::TlsButAnonymous) as i64),
        )
        .set(
            "tls_cert_expired",
            Json::int(report.count(Deficit::TlsExpiredCert) as i64),
        )
        .set("planted_strata", strata)
        .set("per_suite", per_suite)
        .set("best_seconds", Json::Num(best_seconds))
        .set("runs", Json::Arr(runs));
    let path = write_bench_json("multiproto", &out);
    println!("wrote {}", path.display());
}
