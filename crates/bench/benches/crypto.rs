//! Crypto-layer benchmarks and the perf gate for the Montgomery /
//! Karatsuba / interning work:
//!
//! * 2048-bit `mod_pow`: the Montgomery windowed path
//!   (`BigUint::mod_pow`) against the legacy square-and-multiply path
//!   (`BigUint::mod_pow_legacy`) — both stay measurable, and the bin
//!   fails if Montgomery is ever slower;
//! * Karatsuba vs. schoolbook multiplication at product-tree sizes;
//! * SHA-1 thumbprinting and DER parse throughput over the campaign's
//!   certificates;
//! * batch GCD over the deduplicated campaign moduli;
//! * certificate-interning hit rate: total sightings vs. distinct DERs
//!   as counted by the campaign's `CertStore`.
//!
//! ```sh
//! BENCH_HOSTS=300 cargo bench --bench crypto
//! ```
//!
//! Emits `BENCH_crypto.json`.

use bench::{campaign_moduli, time, time_min, write_bench_json, BenchConfig, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ua_crypto::{batch_gcd, find_shared_factors, sha1, BigUint, Certificate};

/// Modulus width for the mod_pow gate — the paper's dominant real-world
/// RSA key length (Figure 4).
const MOD_POW_BITS: usize = 2048;

/// Minimum-of-N rounds for the `mod_pow` timings.
const MOD_POW_ROUNDS: usize = 3;

/// Minimum-of-N rounds for the 16k-bit multiply timings.
const MUL_ROUNDS: usize = 20;

fn main() {
    let cfg = BenchConfig::from_env();
    let (net, _population) = cfg.build_world();
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
        "BENCH_crypto.json: Montgomery slower than the legacy path ({mod_pow_speedup:.2}x)"
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

    // --- Batch GCD over the deduplicated moduli ---
    let moduli = campaign_moduli(&records);
    let (tree_seconds, remainders) = time(|| batch_gcd(&moduli));
    let (scan_seconds, hits) = time(|| find_shared_factors(&moduli));
    assert_eq!(remainders.len(), moduli.len());

    // --- Interning observability (the §5.2 reuse factor) ---
    let interning = summary.certs;
    assert!(interning.sightings >= interning.distinct);
    assert!(interning.distinct > 0);

    println!(
        "crypto bench: {} cert sightings, {} distinct ({}% intern hit rate), {} distinct moduli",
        interning.sightings,
        interning.distinct,
        (interning.hit_rate() * 100.0).round(),
        moduli.len()
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
        "  batch gcd   {:>10.3} ms tree + {:.3} ms factor scan, {} shared-prime hits",
        tree_seconds * 1e3,
        scan_seconds * 1e3,
        hits.len()
    );

    let out = Json::obj()
        .set("bench", Json::str("crypto"))
        .set("mod_pow_bits", Json::int(MOD_POW_BITS as i64))
        .set("mod_pow_rounds", Json::int(MOD_POW_ROUNDS as i64))
        .set("mod_pow_legacy_seconds", Json::Num(legacy_seconds))
        .set("mod_pow_montgomery_seconds", Json::Num(mont_seconds))
        .set("mod_pow_speedup", Json::Num(mod_pow_speedup))
        .set("karatsuba_speedup", Json::Num(karatsuba_speedup))
        .set("cert_sightings", Json::int(interning.sightings as i64))
        .set("distinct_certs", Json::int(interning.distinct as i64))
        .set("intern_hit_rate", Json::Num(interning.hit_rate()))
        .set("certificate_bytes", Json::int(der_bytes as i64))
        .set("distinct_moduli", Json::int(moduli.len() as i64))
        .set("sha1_mib_per_second", Json::Num(sha_mib_per_sec))
        .set("der_parse_certs_per_second", Json::Num(certs_per_sec))
        .set("batch_gcd_seconds", Json::Num(tree_seconds))
        .set("shared_factor_scan_seconds", Json::Num(scan_seconds))
        .set("shared_prime_hits", Json::int(hits.len() as i64));
    let path = write_bench_json("crypto", &out);
    println!("wrote {}", path.display());
}
