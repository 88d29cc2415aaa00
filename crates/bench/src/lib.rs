//! # bench
//!
//! The shared harness behind the `crypto` bench bin, the `repro`
//! figure-reproduction bin, and `perfbench` (the repo benchmark, its
//! own package under `perfbench/`). perfbench times the campaign for
//! seconds and splits it by layer; the `crypto` bin holds the two
//! wall-clock ratio gates that a debug-mode `cargo test` cannot run
//! (Montgomery `mod_pow` beats the legacy path, and deduplicated batch
//! GCD is no slower than GCD over every sighting) and prints its
//! numbers. Every correctness gate lives in `cargo test` or in a
//! ground-truth example.
//!
//! Everything here is dependency-free by construction (builds are
//! hermetic): configuration comes from `BENCH_*` environment variables,
//! and timing uses `std::time::Instant`.
//!
//! | variable         | default | meaning                               |
//! |------------------|---------|---------------------------------------|
//! | `BENCH_HOSTS`    | 300     | deployments synthesized per scenario  |
//! | `BENCH_UNIVERSE` | /20     | scanned universe as `10.0.0.0/<bits>` |
//! | `BENCH_SEED`     | 2020    | campaign seed                         |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{synthesize, Population, PopulationConfig, StrataMix};
use scanner::{ScanConfig, ScanRecord, Scanner};
use std::collections::HashSet;
use std::time::Instant;

/// Shared bench configuration, read from `BENCH_*` env vars.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Deployments synthesized per scenario.
    pub hosts: usize,
    /// Scanned universe.
    pub universe: Vec<Cidr>,
    /// Campaign seed.
    pub seed: u64,
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl BenchConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let bits: u8 = env_parse("BENCH_UNIVERSE", 20);
        let universe: Cidr = format!("10.0.0.0/{bits}")
            .parse()
            .expect("valid BENCH_UNIVERSE prefix length");
        BenchConfig {
            hosts: env_parse("BENCH_HOSTS", 300),
            universe: vec![universe],
            seed: env_parse("BENCH_SEED", 2020),
        }
    }

    /// Total addresses in the configured universe.
    pub fn universe_size(&self) -> u64 {
        self.universe.iter().map(Cidr::size).sum()
    }

    /// Synthesizes a fresh paper-like world (Internet + population) for
    /// one measured run. Every run gets its own world: scans advance the
    /// virtual clock, and identical worlds keep runs comparable.
    pub fn build_world(&self) -> (Internet, Population) {
        let net = Internet::new(VirtualClock::default());
        let cfg = PopulationConfig::new(
            self.seed,
            self.universe.clone(),
            StrataMix::paper_like(self.hosts),
        );
        let population = synthesize(&net, &cfg);
        (net, population)
    }

    /// A scanner over `net` with the given worker count.
    pub fn scanner(&self, net: Internet, workers: usize) -> Scanner {
        let config = ScanConfig {
            workers,
            ..ScanConfig::default()
        };
        Scanner::new(net, Blocklist::new(), config)
    }
}

/// The campaign's deduplicated RSA moduli in first-seen order — the
/// same set (and the same dedup key: the modulus value) the incremental
/// `Assessor` accumulates for batch GCD. Shared by the `crypto` bench
/// and perfbench so they measure exactly the moduli the pipeline
/// finalizes over. Reads the interned certificate handles, so no DER is
/// re-parsed here.
pub fn campaign_moduli(records: &[ScanRecord]) -> Vec<ua_crypto::BigUint> {
    let mut moduli = Vec::new();
    let mut seen: HashSet<ua_crypto::BigUint> = HashSet::new();
    for record in records {
        for cert in record.certificates() {
            if let Some(n) = cert.modulus() {
                if seen.insert(n.clone()) {
                    moduli.push(n.clone());
                }
            }
        }
    }
    moduli
}

/// One modulus per certificate *sighting* (every endpoint snapshot
/// carrying a parseable certificate), with no deduplication at all —
/// the input a dedup-unaware finalization would feed batch GCD. The
/// `crypto` bench times this against the deduplicated set to
/// quantify what interning buys the GCD stage; the length matches the
/// campaign `CertStore`'s sighting counter for parseable certificates.
pub fn campaign_modulus_sightings(records: &[ScanRecord]) -> Vec<ua_crypto::BigUint> {
    let mut moduli = Vec::new();
    for record in records {
        for ep in record.endpoints() {
            if let Some(n) = ep.certificate.as_ref().and_then(|c| c.modulus()) {
                moduli.push(n.clone());
            }
        }
    }
    moduli
}

/// Runs `f` `rounds` times, returning the *minimum* wall-clock seconds
/// and the last value — the noise-robust way to time sub-10ms work on
/// shared CI hardware.
pub fn time_min<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(rounds > 0);
    let (mut best, mut value) = time(&mut f);
    for _ in 1..rounds {
        let (t, v) = time(&mut f);
        if t < best {
            best = t;
        }
        value = v;
    }
    (best, value)
}

/// Runs `f`, returning its wall-clock duration in seconds and its value.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Simple descriptive statistics over a latency sample (microseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Stats {
    /// Computes stats over `samples` (need not be sorted).
    pub fn of(samples: &[f64]) -> Stats {
        if samples.is_empty() {
            return Stats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        // Nearest-rank percentile: index ⌈q·n⌉ − 1.
        let pct = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Stats {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: pct(0.50),
            p99: pct(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = Stats::of(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn bench_config_defaults() {
        let cfg = BenchConfig::from_env();
        assert!(cfg.hosts > 0);
        assert!(cfg.universe_size() >= cfg.hosts as u64);
    }

    #[test]
    fn world_builds_and_scans() {
        let cfg = BenchConfig {
            hosts: 12,
            universe: vec!["10.0.0.0/24".parse().unwrap()],
            seed: 7,
        };
        let (net, population) = cfg.build_world();
        let scanner = cfg.scanner(net, 2);
        let (summary, records) = scanner.scan_collect(&cfg.universe, cfg.seed);
        assert_eq!(summary.opcua_hosts as usize, population.len());
        assert_eq!(
            records.iter().filter(|r| r.hello_ok()).count(),
            population.len()
        );
    }
}
