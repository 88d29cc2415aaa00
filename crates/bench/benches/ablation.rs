//! Ablation: batch GCD vs. naive pairwise GCD for shared-prime detection
//! (Heninger et al.'s optimization, which the paper applies to OPC UA
//! certificates).
//!
//! Both detectors run over the same campaign moduli; the bench asserts
//! they find the same shared factors and reports the speedup. Throughput
//! is also measured end-to-end: full pipeline with assessment, batch vs.
//! pairwise finalization.
//!
//! ```sh
//! BENCH_HOSTS=300 cargo bench --bench ablation
//! ```
//!
//! Emits `BENCH_ablation.json`.

use bench::{
    campaign_moduli, campaign_modulus_sightings, time, time_min, write_bench_json, BenchConfig,
    Json,
};
use ua_crypto::{batch_gcd, find_shared_factors, pairwise_shared_factors};

fn main() {
    let cfg = BenchConfig::from_env();
    let (net, _population) = cfg.build_world();
    let scanner = cfg.scanner(net, 1);
    let (_, records) = scanner.scan_collect(&cfg.universe, cfg.seed);

    // The deduplicated moduli exactly as the assessor accumulates them.
    let moduli = campaign_moduli(&records);
    // And the raw sighting multiset a dedup-unaware pipeline would feed.
    let sightings = campaign_modulus_sightings(&records);
    println!(
        "ablation bench: {} distinct moduli ({} sightings)",
        moduli.len(),
        sightings.len()
    );
    assert!(moduli.len() > 2, "need moduli to compare detectors");
    assert!(sightings.len() >= moduli.len());

    let (batch_seconds, batch_hits) = time(|| find_shared_factors(&moduli));
    let (pairwise_seconds, pairwise_hits) = time(|| pairwise_shared_factors(&moduli));

    // Same findings, order-insensitively.
    let normalize = |hits: &[ua_crypto::SharedFactor]| {
        let mut pairs: Vec<(usize, usize)> =
            hits.iter().map(|h| (h.a.min(h.b), h.a.max(h.b))).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    let batch_pairs = normalize(&batch_hits);
    let pairwise_pairs = normalize(&pairwise_hits);
    assert_eq!(
        batch_pairs, pairwise_pairs,
        "batch GCD and pairwise GCD must find the same shared primes"
    );

    let speedup = pairwise_seconds / batch_seconds.max(1e-12);
    println!(
        "  batch    {:>10.3} ms  ({} hits)",
        batch_seconds * 1e3,
        batch_pairs.len()
    );
    println!(
        "  pairwise {:>10.3} ms  ({} hits)  → batch speedup {speedup:.1}x",
        pairwise_seconds * 1e3,
        pairwise_pairs.len()
    );

    // What certificate interning buys the GCD stage: the same tree over
    // the deduplicated moduli vs. the raw per-sighting multiset.
    // Minimum-of-5 timing keeps the comparison meaningful on noisy CI
    // hardware.
    let (dedup_tree_seconds, dedup_rems) = time_min(5, || batch_gcd(&moduli));
    let (sightings_tree_seconds, sighting_rems) = time_min(5, || batch_gcd(&sightings));
    assert_eq!(dedup_rems.len(), moduli.len());
    assert_eq!(sighting_rems.len(), sightings.len());
    let dedup_speedup = sightings_tree_seconds / dedup_tree_seconds.max(1e-12);
    println!(
        "  gcd tree deduplicated {:>8.3} ms vs all sightings {:>8.3} ms  → dedup {dedup_speedup:.1}x",
        dedup_tree_seconds * 1e3,
        sightings_tree_seconds * 1e3,
    );
    // Deduplicated moduli must not make the GCD tree slower: the
    // interning work exists to shrink this input.
    assert!(
        dedup_speedup >= 1.0,
        "BENCH_ablation.json: dedup made batch GCD slower ({dedup_speedup:.2}x)"
    );

    let moduli_per_second = moduli.len() as f64 / batch_seconds.max(1e-12);
    let out = Json::obj()
        .set("bench", Json::str("ablation"))
        .set("distinct_moduli", Json::int(moduli.len() as i64))
        .set("total_cert_sightings", Json::int(sightings.len() as i64))
        .set("shared_prime_hits", Json::int(batch_pairs.len() as i64))
        .set("batch_gcd_seconds", Json::Num(batch_seconds))
        .set("pairwise_gcd_seconds", Json::Num(pairwise_seconds))
        .set("batch_moduli_per_second", Json::Num(moduli_per_second))
        .set("batch_speedup_vs_pairwise", Json::Num(speedup))
        .set("batch_gcd_dedup_seconds", Json::Num(dedup_tree_seconds))
        .set(
            "batch_gcd_all_sightings_seconds",
            Json::Num(sightings_tree_seconds),
        )
        .set("dedup_speedup", Json::Num(dedup_speedup));
    let path = write_bench_json("ablation", &out);
    println!("wrote {}", path.display());
}
