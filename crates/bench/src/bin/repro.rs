//! One-shot study reproduction: population → sharded scan → incremental
//! assessment, printed as the paper-style report — security-mode,
//! policy and identity-token distributions (Table 2), the deficit
//! shares (§5) and the session-stage outcomes — followed by the paper's
//! published headline shares next to the measured ones, for eyeballing
//! drift. perfbench times this pipeline; this bin just runs it.
//!
//! ```sh
//! BENCH_HOSTS=500 BENCH_UNIVERSE=19 cargo run --release -p bench --bin repro
//! ```

use assessment::{Assessor, Deficit};
use bench::BenchConfig;
use scanner::CertStore;

/// The paper's headline shares (of OPC UA hosts).
const PAPER_SHARES: [(Deficit, f64); 5] = [
    (Deficit::OnlyNoneMode, 0.24),
    (Deficit::DeprecatedPolicy, 0.45),
    (Deficit::AnonymousAccess, 0.50),
    (Deficit::SelfSignedCertificate, 0.99),
    (Deficit::SharedPrimeKey, 0.0),
];

fn main() {
    let cfg = BenchConfig::from_env();
    let (net, population) = cfg.build_world();
    println!(
        "repro: {} deployments in {} addresses (seed {})",
        population.len(),
        cfg.universe_size(),
        cfg.seed
    );
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scanner = cfg.scanner(net, workers);
    let mut assessor = Assessor::new();
    let summary = scanner.scan_with_certs(&cfg.universe, cfg.seed, &CertStore::new(), |record| {
        assessor.fold(&record)
    });
    println!(
        "scan: {} probes sent, {} OPC UA hosts ({} workers)",
        summary.sweep.probes_sent, summary.opcua_hosts, workers
    );
    let report = assessor.finalize();
    println!("\n{report}");

    println!("headline shares of OPC UA hosts, paper vs. measured:");
    for (deficit, paper) in PAPER_SHARES {
        println!(
            "  {:<28} paper {:>5.1}%  measured {:>5.1}%",
            deficit.label(),
            paper * 100.0,
            report.share(deficit) * 100.0
        );
    }
}
