//! Sweep throughput vs. worker count.
//!
//! Runs the full campaign (zmap-style sweep → probe stack → streamed
//! records) over the same seeded world at every configured worker count,
//! measures wall-clock throughput, and verifies on the way that the
//! records stay byte-identical — the sharding contract CI relies on.
//! A lazy-materialization run repeats the scan against a
//! [`population::LazyWorld`], asserts the digest still matches, and
//! records the materialization counters so the perf trail shows sweeps
//! paying only for the hosts probes actually reach.
//!
//! ```sh
//! BENCH_HOSTS=300 BENCH_UNIVERSE=20 BENCH_WORKERS=1,2,4,8 \
//!     cargo bench --bench sweep
//! ```
//!
//! Emits `BENCH_sweep.json`.

use bench::{record_digest, time, write_bench_json, BenchConfig, Json};

fn main() {
    let cfg = BenchConfig::from_env();
    let universe_size = cfg.universe_size();
    println!(
        "sweep bench: {} hosts in {} addresses, workers {:?}",
        cfg.hosts, universe_size, cfg.worker_counts
    );

    let mut runs = Vec::new();
    let mut baseline_seconds = None;
    let mut baseline_digest: Option<String> = None;
    for &workers in &cfg.worker_counts {
        // A fresh identically-seeded world per run: scans advance the
        // virtual clock, and identical worlds keep runs comparable.
        let (net, population) = cfg.build_world();
        let scanner = cfg.scanner(net, workers);
        let (seconds, (summary, records)) = time(|| scanner.scan_collect(&cfg.universe, cfg.seed));

        let run_digest = record_digest(&records, summary.opcua_hosts);
        match &baseline_digest {
            None => baseline_digest = Some(run_digest),
            Some(expected) => assert_eq!(
                expected, &run_digest,
                "sharded scan output diverged at workers={workers}"
            ),
        }

        let addrs_per_sec = universe_size as f64 / seconds;
        let hosts_per_sec = summary.sweep.responsive as f64 / seconds;
        assert!(
            summary.sweep.responsive > 0,
            "BENCH_sweep.json workers={workers}: hosts_per_second={hosts_per_sec}"
        );
        let speedup = baseline_seconds.map(|base: f64| base / seconds);
        if baseline_seconds.is_none() {
            baseline_seconds = Some(seconds);
        }
        println!(
            "  workers={workers}: {seconds:.3}s, {addrs_per_sec:.0} addrs/s, \
             {hosts_per_sec:.0} hosts/s, {} OPC UA hosts{}",
            summary.opcua_hosts,
            speedup
                .map(|s| format!(", speedup {s:.2}x"))
                .unwrap_or_default()
        );
        assert_eq!(summary.opcua_hosts as usize, population.len());
        runs.push(
            Json::obj()
                .set("workers", Json::int(workers as i64))
                .set("seconds", Json::Num(seconds))
                .set("addresses_per_second", Json::Num(addrs_per_sec))
                .set("hosts_per_second", Json::Num(hosts_per_sec))
                .set(
                    "responsive_hosts",
                    Json::int(summary.sweep.responsive as i64),
                )
                .set("probes_sent", Json::int(summary.sweep.probes_sent as i64))
                .set(
                    "speedup_vs_1_worker",
                    speedup.map(Json::Num).unwrap_or(Json::Num(1.0)),
                ),
        );
    }

    // Lazy-materialization run: identical world, but hosts are built on
    // first probe contact. The record digest must match the eager
    // baseline byte-for-byte, and not one host beyond the responsive
    // population may have been materialized.
    let lazy_workers = cfg.worker_counts.first().copied().unwrap_or(1);
    let (lazy_net, lazy_world) = cfg.build_lazy_world();
    let scanner = cfg.scanner(lazy_net, lazy_workers);
    let (lazy_seconds, (lazy_summary, lazy_records)) =
        time(|| scanner.scan_collect(&cfg.universe, cfg.seed));
    let lazy_digest = record_digest(&lazy_records, lazy_summary.opcua_hosts);
    assert_eq!(
        baseline_digest.as_ref(),
        Some(&lazy_digest),
        "lazy scan output diverged from the eager baseline"
    );
    let stats = lazy_world.stats();
    assert_eq!(
        stats.hosts_materialized, lazy_summary.opcua_hosts,
        "lazy world materialized hosts the scan never reached"
    );
    for (field, value) in [
        ("hosts_materialized", stats.hosts_materialized),
        ("keygen_count", stats.keygen_count),
        ("bytes_resident_estimate", stats.bytes_resident_estimate),
        (
            "peak_bytes_resident_estimate",
            stats.peak_bytes_resident_estimate,
        ),
    ] {
        assert!(value > 0, "BENCH_sweep.json lazy: {field}={value}");
    }
    println!(
        "  lazy (workers={lazy_workers}): {lazy_seconds:.3}s, \
         {} hosts materialized, {} keygens, ~{} bytes resident",
        stats.hosts_materialized, stats.keygen_count, stats.bytes_resident_estimate
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let out = Json::obj()
        .set("bench", Json::str("sweep"))
        .set("available_parallelism", Json::int(cores as i64))
        .set("hosts", Json::int(cfg.hosts as i64))
        .set("universe_addresses", Json::int(universe_size as i64))
        .set("seed", Json::int(cfg.seed as i64))
        .set("runs", Json::Arr(runs))
        .set(
            "lazy",
            Json::obj()
                .set("workers", Json::int(lazy_workers as i64))
                .set("seconds", Json::Num(lazy_seconds))
                .set("hosts_materialized", Json::int(stats.hosts_materialized))
                .set("keygen_count", Json::int(stats.keygen_count))
                .set(
                    "bytes_resident_estimate",
                    Json::int(stats.bytes_resident_estimate),
                )
                .set(
                    "peak_bytes_resident_estimate",
                    Json::int(stats.peak_bytes_resident_estimate),
                ),
        );
    let path = write_bench_json("sweep", &out);
    println!("wrote {}", path.display());
}
