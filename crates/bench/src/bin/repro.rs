//! One-shot study reproduction: population → sharded scan → incremental
//! assessment, printed as the paper-style report. The five bench bins
//! (`cargo bench --bench sweep|protocol|crypto|ablation|figures`) measure
//! the same pipeline and emit `BENCH_*.json`; this bin just runs it.
//!
//! ```sh
//! BENCH_HOSTS=500 BENCH_UNIVERSE=19 cargo run --release -p bench --bin repro
//! ```

use assessment::Assessor;
use bench::BenchConfig;
use scanner::CertStore;

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
    println!("\n{}", assessor.finalize());
}
