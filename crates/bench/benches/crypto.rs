//! Crypto-layer benchmarks and the two wall-clock ratio gates a
//! debug-mode `cargo test` cannot run:
//!
//! * 2048-bit `mod_pow`: the Montgomery windowed path
//!   (`BigUint::mod_pow`) against the legacy square-and-multiply path
//!   (`BigUint::mod_pow_legacy`) — both stay measurable, and the bin
//!   fails if Montgomery is ever slower;
//! * Karatsuba vs. schoolbook multiplication at product-tree sizes;
//! * SHA-1 thumbprinting and DER parse throughput over the campaign's
//!   certificates;
//! * batch GCD vs. naive pairwise GCD for shared-prime detection
//!   (Heninger et al.'s optimization, which the paper applies to OPC UA
//!   certificates): both must find the same shared factors;
//! * what certificate interning buys the GCD stage: the product tree
//!   over the deduplicated moduli vs. over every sighting — the bin
//!   fails if deduplication ever makes it slower;
//! * certificate-interning hit rate: total sightings vs. distinct DERs
//!   as counted by the campaign's `CertStore`.
//!
//! ```sh
//! BENCH_HOSTS=250 BENCH_UNIVERSE=21 cargo bench --bench crypto
//! ```
//!
//! Prints its numbers and exits non-zero on a failed gate or
//! disagreement.

use bench::{campaign_moduli, campaign_modulus_sightings, time, time_min, BenchConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ua_crypto::{
    batch_gcd, find_shared_factors, pairwise_shared_factors, sha1, BigUint, Certificate,
    SharedFactor,
};

/// Modulus width for the mod_pow gate — the paper's dominant real-world
/// RSA key length (Figure 4).
const MOD_POW_BITS: usize = 2048;

/// Minimum-of-N rounds for the `mod_pow` timings.
const MOD_POW_ROUNDS: usize = 3;

/// Minimum-of-N rounds for the 16k-bit multiply timings.
const MUL_ROUNDS: usize = 20;

/// Minimum-of-N rounds for the deduplicated-vs-sightings GCD trees.
const GCD_TREE_ROUNDS: usize = 5;

/// Shared-prime pairs as sorted `(low, high)` index pairs, so two
/// detectors compare order-insensitively.
fn pairs(hits: &[SharedFactor]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> =
        hits.iter().map(|h| (h.a.min(h.b), h.a.max(h.b))).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn main() {
    let cfg = BenchConfig::from_env();
    let (net, population) = cfg.build_world();
    let scanner = cfg.scanner(net, 1);
    let (summary, records) = scanner.scan_collect(&cfg.universe, cfg.seed);

    // --- mod_pow: Montgomery windowed vs. legacy square-and-multiply ---
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6d6f_6e74);
    let mut modulus = BigUint::random_bits(&mut rng, MOD_POW_BITS);
    if modulus.is_even() {
        modulus = modulus.add(&BigUint::one());
    }
    let base = BigUint::random_below(&mut rng, &modulus);
    let exponent = BigUint::random_bits(&mut rng, MOD_POW_BITS);

    // Minimum-of-N timing: per-op seconds robust against CI noise.
    let (legacy_seconds, legacy_result) =
        time_min(MOD_POW_ROUNDS, || base.mod_pow_legacy(&exponent, &modulus));
    let (mont_seconds, mont_result) =
        time_min(MOD_POW_ROUNDS, || base.mod_pow(&exponent, &modulus));
    assert_eq!(
        legacy_result, mont_result,
        "Montgomery and legacy mod_pow must agree"
    );
    let mod_pow_speedup = legacy_seconds / mont_seconds.max(1e-12);
    assert!(
        mod_pow_speedup > 1.0,
        "crypto: Montgomery slower than the legacy path ({mod_pow_speedup:.2}x)"
    );

    // --- Karatsuba vs. schoolbook at product-tree operand sizes ---
    let a = BigUint::random_bits(&mut rng, 16 * 1024);
    let b = BigUint::random_bits(&mut rng, 16 * 1024);
    let (school_seconds, school_product) = time_min(MUL_ROUNDS, || a.mul_schoolbook(&b));
    let (kara_seconds, kara_product) = time_min(MUL_ROUNDS, || a.mul(&b));
    assert_eq!(school_product, kara_product);
    let karatsuba_speedup = school_seconds / kara_seconds.max(1e-12);

    // --- Campaign certificates: hashing / parsing throughput ---
    let ders: Vec<Vec<u8>> = records
        .iter()
        .flat_map(|r| {
            r.certificates()
                .into_iter()
                .map(|c| c.der().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    let der_bytes: usize = ders.iter().map(Vec::len).sum();
    assert!(!ders.is_empty(), "population must deliver certificates");

    const HASH_ROUNDS: usize = 200;
    let (sha_seconds, _) = time(|| {
        let mut acc = 0u8;
        for _ in 0..HASH_ROUNDS {
            for der in &ders {
                acc ^= sha1(der)[0];
            }
        }
        acc
    });
    let sha_mib_per_sec = (der_bytes * HASH_ROUNDS) as f64 / (1024.0 * 1024.0) / sha_seconds;

    const PARSE_ROUNDS: usize = 50;
    let (parse_seconds, parsed) = time(|| {
        let mut ok = 0usize;
        for _ in 0..PARSE_ROUNDS {
            ok += ders
                .iter()
                .filter(|der| Certificate::from_der(der).is_ok())
                .count();
        }
        ok
    });
    let certs_per_sec = parsed as f64 / parse_seconds;

    // --- Batch GCD vs. pairwise GCD over the deduplicated moduli ---
    // The deduplicated moduli exactly as the assessor accumulates them,
    // and the raw sighting multiset a dedup-unaware pipeline would feed.
    let moduli = campaign_moduli(&records);
    let sightings = campaign_modulus_sightings(&records);
    assert!(moduli.len() > 2, "need moduli to compare detectors");
    assert!(sightings.len() >= moduli.len());
    let (batch_seconds, batch_hits) = time(|| find_shared_factors(&moduli));
    let (pairwise_seconds, pairwise_hits) = time(|| pairwise_shared_factors(&moduli));
    let batch_pairs = pairs(&batch_hits);
    assert_eq!(
        batch_pairs,
        pairs(&pairwise_hits),
        "batch GCD and pairwise GCD must find the same shared primes"
    );
    let batch_speedup = pairwise_seconds / batch_seconds.max(1e-12);

    // --- What interning buys the GCD stage: deduplicated vs. sightings ---
    let (dedup_tree_seconds, dedup_rems) = time_min(GCD_TREE_ROUNDS, || batch_gcd(&moduli));
    let (sightings_tree_seconds, sighting_rems) =
        time_min(GCD_TREE_ROUNDS, || batch_gcd(&sightings));
    assert_eq!(dedup_rems.len(), moduli.len());
    assert_eq!(sighting_rems.len(), sightings.len());
    let dedup_speedup = sightings_tree_seconds / dedup_tree_seconds.max(1e-12);
    // Deduplicated moduli must not make the GCD tree slower: the
    // interning work exists to shrink this input.
    assert!(
        dedup_speedup >= 1.0,
        "crypto: dedup made batch GCD slower ({dedup_speedup:.2}x)"
    );

    // --- Interning observability (the §5.2 reuse factor) ---
    let interning = summary.certs;
    assert!(interning.sightings >= interning.distinct);
    assert!(interning.distinct > 0);

    println!(
        "crypto bench: {} deployments, {} OPC UA hosts; {} cert sightings, {} distinct \
         ({}% intern hit rate); {} distinct moduli, {} modulus sightings",
        population.len(),
        summary.opcua_hosts,
        interning.sightings,
        interning.distinct,
        (interning.hit_rate() * 100.0).round(),
        moduli.len(),
        sightings.len()
    );
    println!(
        "  mod_pow {MOD_POW_BITS}-bit  legacy {:>8.1} ms/op, montgomery {:>7.2} ms/op  → {mod_pow_speedup:.1}x",
        legacy_seconds * 1e3,
        mont_seconds * 1e3,
    );
    println!(
        "  mul 16k-bit     schoolbook {:>6.2} ms/op, karatsuba {:>6.2} ms/op  → {karatsuba_speedup:.1}x",
        school_seconds * 1e3,
        kara_seconds * 1e3,
    );
    println!("  sha1        {sha_mib_per_sec:>10.1} MiB/s");
    println!("  der parse   {certs_per_sec:>10.0} certs/s");
    println!(
        "  shared primes  batch {:>8.3} ms, pairwise {:>8.3} ms  → {batch_speedup:.1}x, {} hits",
        batch_seconds * 1e3,
        pairwise_seconds * 1e3,
        batch_pairs.len()
    );
    println!(
        "  gcd tree  deduplicated {:>8.3} ms, all sightings {:>8.3} ms  → dedup {dedup_speedup:.1}x",
        dedup_tree_seconds * 1e3,
        sightings_tree_seconds * 1e3,
    );
}
