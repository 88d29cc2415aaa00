//! Longitudinal study throughput and churn accounting.
//!
//! Replays a multi-week campaign (evolving population → weekly sweep →
//! cross-week diffing) and measures what longitudinal scanning costs on
//! top of a single snapshot: per-week scan time, end-to-end study time,
//! and the interning payoff of sharing one `CertStore` across all
//! campaigns. The study runs on a *lazy* world — hosts materialize on
//! first probe contact — and a second run over a 16× larger universe
//! with the same population verifies that per-week cost tracks the
//! population, not the address space. Emits both the *planted* churn
//! rates (ground truth from the evolution log, per host-week) and the
//! *detected* series totals so the perf trail doubles as a sanity
//! record — the bin fails when any churn rate, throughput or
//! materialization counter is zero.
//!
//! ```sh
//! BENCH_HOSTS=250 BENCH_UNIVERSE=21 BENCH_WEEKS=6 \
//!     cargo bench --bench longitudinal
//! ```
//!
//! Emits `BENCH_longitudinal.json`.

use assessment::{assess, LongitudinalAssessor};
use bench::{time, write_bench_json, BenchConfig, Json};
use netsim::{Blocklist, Internet, VirtualClock};
use population::{ChurnConfig, EvolvingWorld, PopulationConfig, StrataMix};
use scanner::{Campaign, ScanConfig, Scanner};

fn main() {
    let cfg = BenchConfig::from_env();
    let weeks: u32 = std::env::var("BENCH_WEEKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    assert!(weeks > 0, "BENCH_longitudinal.json: weeks={weeks}");
    println!(
        "longitudinal bench: {} hosts, {} weekly campaigns",
        cfg.hosts, weeks
    );

    let net = Internet::new(VirtualClock::default());
    let pop_cfg = PopulationConfig::new(
        cfg.seed,
        cfg.universe.clone(),
        StrataMix::paper_like(cfg.hosts),
    );
    let churn = ChurnConfig::default();
    let mut world = EvolvingWorld::new_lazy(&net, &pop_cfg, churn);
    let hosts_week0 = world.alive_count();
    assert!(
        hosts_week0 > 0,
        "BENCH_longitudinal.json: hosts_week0={hosts_week0}"
    );
    let scan_config = ScanConfig {
        workers: cfg.worker_counts.first().copied().unwrap_or(1),
        ..ScanConfig::default()
    };
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), scan_config));
    let mut longitudinal = LongitudinalAssessor::new();

    let mut scan_seconds = Vec::new();
    let mut hosts_scanned = 0u64;
    let mut digest = 0u64;
    let (study_seconds, ()) = time(|| {
        for _ in 0..weeks {
            let (seconds, scan) = time(|| {
                let world = &mut world;
                campaign.run_week(&cfg.universe, cfg.seed, |w| {
                    if w > 0 {
                        world.evolve(w);
                    }
                })
            });
            scan_seconds.push(seconds);
            hosts_scanned += scan.summary.opcua_hosts;
            let report = assess(&scan.records);
            let point = longitudinal.fold_week(&scan.records, &report);
            let d = point.delta;
            digest = [
                d.hosts,
                d.new_hosts,
                d.vanished_hosts,
                d.moved_hosts,
                d.renewed_certs,
                d.upgrades,
                d.downgrades,
            ]
            .iter()
            .fold(digest, |acc, &v| {
                acc.wrapping_mul(1_000_003).wrapping_add(v as u64)
            });
            println!(
                "  week {:>2}: {seconds:.3}s scan, {} hosts ({} new, {} gone, {} moved)",
                d.week, d.hosts, d.new_hosts, d.vanished_hosts, d.moved_hosts
            );
        }
    });

    let series = longitudinal.finalize();
    let planted = world.history();
    // Planted events per host-week: the living population differs per
    // week, so normalize against the actual host-week exposure.
    let host_weeks: f64 = planted
        .iter()
        .zip(series.weeks.iter().skip(1))
        .map(|(_, p)| p.delta.hosts as f64)
        .sum();
    let planted_sum =
        |f: &dyn Fn(&population::WeekChurn) -> usize| -> usize { planted.iter().map(f).sum() };
    let rate = |n: usize| n as f64 / host_weeks.max(1.0);
    let certs = campaign.cert_stats();
    let total_scan: f64 = scan_seconds.iter().sum();
    let hosts_per_second = hosts_scanned as f64 / total_scan.max(1e-9);
    let detected_new = series.churn_total(|d| d.new_hosts);
    let detected_moved = series.churn_total(|d| d.moved_hosts);
    for (field, value) in [
        ("hosts_scanned_per_second", hosts_per_second),
        ("intern_hit_rate", certs.hit_rate()),
        ("detected_moved", detected_moved as f64),
        ("detected_new", detected_new as f64),
    ] {
        assert!(value > 0.0, "BENCH_longitudinal.json: {field}={value}");
    }

    // Materialization telemetry: the study above ran on a lazy world,
    // so the counters show exactly what the weekly sweeps paid for.
    // Materializing more hosts than the campaign ever scanned would
    // mean the lazy path builds hosts no probe reached.
    let stats = world.stats();
    for (field, value) in [
        ("hosts_materialized", stats.hosts_materialized),
        ("keygen_count", stats.keygen_count),
        ("bytes_resident_estimate", stats.bytes_resident_estimate),
        (
            "peak_bytes_resident_estimate",
            stats.peak_bytes_resident_estimate,
        ),
    ] {
        assert!(value > 0, "BENCH_longitudinal.json: {field}={value}");
    }
    assert!(
        stats.hosts_materialized <= hosts_scanned,
        "materialized {} hosts but only {} host-scans happened",
        stats.hosts_materialized,
        hosts_scanned
    );

    // Universe-scale independence: replay the identical study in a 16×
    // larger address space. Host identities, churn events, and key
    // generations are functions of (seed, host id, week), so the
    // counters must not move — per-week cost tracks the population,
    // not the universe.
    let scaled_universe = vec![netsim::Cidr::new(
        cfg.universe[0].base,
        cfg.universe[0].prefix_len.saturating_sub(4),
    )];
    let scaled_addresses: u64 = scaled_universe.iter().map(netsim::Cidr::size).sum();
    let scaled_net = Internet::new(VirtualClock::default());
    let scaled_cfg = PopulationConfig::new(
        cfg.seed,
        scaled_universe.clone(),
        StrataMix::paper_like(cfg.hosts),
    );
    let mut scaled_world =
        EvolvingWorld::new_lazy(&scaled_net, &scaled_cfg, ChurnConfig::default());
    let scan_config = ScanConfig {
        workers: cfg.worker_counts.first().copied().unwrap_or(1),
        ..ScanConfig::default()
    };
    let mut scaled_campaign =
        Campaign::new(Scanner::new(scaled_net, Blocklist::new(), scan_config));
    let (scaled_seconds, ()) = time(|| {
        for _ in 0..weeks {
            let scaled_world = &mut scaled_world;
            scaled_campaign.run_week(&scaled_universe, cfg.seed, |w| {
                if w > 0 {
                    scaled_world.evolve(w);
                }
            });
        }
    });
    let scaled_stats = scaled_world.stats();
    assert_eq!(
        scaled_stats.hosts_materialized, stats.hosts_materialized,
        "a 16× universe changed how many hosts materialized"
    );
    assert_eq!(
        scaled_stats.keygen_count, stats.keygen_count,
        "a 16× universe changed how many keys were generated"
    );
    println!(
        "  scale check: {}x addresses, same {} hosts materialized, \
         same {} keygens ({scaled_seconds:.2}s)",
        scaled_addresses / cfg.universe_size().max(1),
        scaled_stats.hosts_materialized,
        scaled_stats.keygen_count
    );

    let mut json = Json::obj()
        .set("weeks", Json::int(weeks as i64))
        .set("hosts_week0", Json::int(hosts_week0 as i64))
        .set("hosts_final", Json::int(world.alive_count() as i64))
        .set("study_seconds", Json::Num(study_seconds))
        .set("scan_seconds_total", Json::Num(total_scan))
        .set(
            "scan_seconds_per_week",
            Json::Num(total_scan / f64::from(weeks)),
        )
        .set("hosts_scanned_per_second", Json::Num(hosts_per_second));
    // Planted ground-truth churn rates, per host-week. A longitudinal
    // study over a static world measures nothing, so each must be > 0.
    for (field, events) in [
        ("ip_churn_rate", planted_sum(&|w| w.moves())),
        ("arrival_rate", planted_sum(&|w| w.arrivals())),
        ("departure_rate", planted_sum(&|w| w.departures())),
        ("renewal_rate", planted_sum(&|w| w.renewals())),
        ("upgrade_rate", planted_sum(&|w| w.upgrades())),
    ] {
        let value = rate(events);
        assert!(value > 0.0, "BENCH_longitudinal.json: {field}={value}");
        json = json.set(field, Json::Num(value));
    }
    let json = json
        // Detected series totals (post-baseline weeks).
        .set("detected_new", Json::int(detected_new as i64))
        .set(
            "detected_vanished",
            Json::int(series.churn_total(|d| d.vanished_hosts) as i64),
        )
        .set("detected_moved", Json::int(detected_moved as i64))
        .set(
            "detected_renewed",
            Json::int(series.churn_total(|d| d.renewed_certs) as i64),
        )
        .set(
            "detected_upgrades",
            Json::int(series.churn_total(|d| d.upgrades) as i64),
        )
        .set("cert_sightings", Json::int(certs.sightings as i64))
        .set("distinct_certs", Json::int(certs.distinct as i64))
        .set("intern_hit_rate", Json::Num(certs.hit_rate()))
        .set("determinism_digest", Json::str(format!("{digest:x}")))
        // Lazy-materialization counters for the study above, plus the
        // 16×-universe replay proving per-week cost is a function of
        // the population, not the address space.
        .set("hosts_materialized", Json::int(stats.hosts_materialized))
        .set("keygen_count", Json::int(stats.keygen_count))
        .set(
            "bytes_resident_estimate",
            Json::int(stats.bytes_resident_estimate),
        )
        .set(
            "peak_bytes_resident_estimate",
            Json::int(stats.peak_bytes_resident_estimate),
        )
        .set("scaled_universe_addresses", Json::int(scaled_addresses))
        .set(
            "scaled_hosts_materialized",
            Json::int(scaled_stats.hosts_materialized),
        )
        .set("scaled_keygen_count", Json::int(scaled_stats.keygen_count))
        .set(
            "scaled_scan_seconds_per_week",
            Json::Num(scaled_seconds / f64::from(weeks)),
        );

    let path = write_bench_json("longitudinal", &json);
    println!(
        "longitudinal: {weeks} weeks in {study_seconds:.2}s, \
         {hosts_per_second:.0} hosts/s, intern hit rate {:.0}%, wrote {}",
        certs.hit_rate() * 100.0,
        path.display()
    );
}
