//! # bench
//!
//! The benchmark and figure-reproduction harness behind the eight bench
//! bins (`sweep`, `protocol`, `crypto`, `ablation`, `figures`,
//! `longitudinal`, `hostile`, `multiproto`). Each bin drives the real
//! pipeline (population → sharded scan → incremental assessment) on a
//! configurable universe, measures wall-clock cost, and emits a
//! machine-readable `BENCH_<name>.json` so CI leaves a perf trail per
//! PR. Each bin also asserts its own gates (ground truth, determinism,
//! the speedups it exists to show) where it computes the values, so it
//! exits non-zero on a failed gate and a written JSON has passed all of
//! them: a local `cargo bench --bench <name>` is the same check CI runs.
//!
//! Everything here is dependency-free by construction (builds are
//! hermetic): JSON is written by hand via [`Json`], configuration comes
//! from `BENCH_*` environment variables, and timing uses
//! `std::time::Instant`.
//!
//! | variable         | default | meaning                                      |
//! |------------------|---------|----------------------------------------------|
//! | `BENCH_HOSTS`    | 300     | deployments synthesized per scenario         |
//! | `BENCH_UNIVERSE` | /20     | scanned universe as `10.0.0.0/<bits>`        |
//! | `BENCH_WORKERS`  | 1,2,4,8 | comma-separated worker counts (`sweep`, `hostile`, `multiproto`; `longitudinal` runs at the first) |
//! | `BENCH_WEEKS`    | 8       | weekly campaigns (`longitudinal`)            |
//! | `BENCH_SEED`     | 2020    | campaign seed                                |
//! | `BENCH_OUT_DIR`  | `.`     | where `BENCH_<name>.json` files land         |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{synthesize, LazyWorld, Population, PopulationConfig, StrataMix};
use scanner::{ScanConfig, ScanRecord, Scanner};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// A JSON value, built by hand so the harness stays dependency-free.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (emitted with up to 6 significant decimals).
    Num(f64),
    /// An integer, emitted without a decimal point.
    Int(i64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or appends) a field to an object; panics on non-objects.
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("set on non-object {other:?}"),
        }
        self
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (from any unsigned count).
    pub fn int(n: impl TryInto<i64>) -> Json {
        Json::Int(n.try_into().unwrap_or(i64::MAX))
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{:.6}", n)
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    escape_into(&mut buf, k);
                    write!(f, "\"{buf}\":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Shared bench configuration, read from `BENCH_*` env vars.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Deployments synthesized per scenario.
    pub hosts: usize,
    /// Scanned universe.
    pub universe: Vec<Cidr>,
    /// Worker counts the `sweep`, `hostile` and `multiproto` benches
    /// compare.
    pub worker_counts: Vec<usize>,
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
        let worker_counts = std::env::var("BENCH_WORKERS")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|w| w.trim().parse().ok())
                    .filter(|&w| w > 0)
                    .collect()
            })
            .filter(|v: &Vec<usize>| !v.is_empty())
            .unwrap_or_else(|| vec![1, 2, 4, 8]);
        BenchConfig {
            hosts: env_parse("BENCH_HOSTS", 300),
            universe: vec![universe],
            worker_counts,
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

    /// The identically-seeded world as a [`LazyWorld`]: nothing is
    /// built up front, hosts materialize on first probe contact, and
    /// the returned handle exposes the materialization counters
    /// ([`population::MaterializationStats`]) the perf trail records.
    pub fn build_lazy_world(&self) -> (Internet, LazyWorld) {
        let net = Internet::new(VirtualClock::default());
        let cfg = PopulationConfig::new(
            self.seed,
            self.universe.clone(),
            StrataMix::paper_like(self.hosts),
        );
        let world = LazyWorld::deploy(&net, &cfg);
        (net, world)
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
/// `Assessor` accumulates for batch GCD. Shared by the `crypto` and
/// `ablation` benches so they measure exactly the moduli the pipeline
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
/// `ablation` bench times this against the deduplicated set to
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

/// Cheap order-sensitive digest over a record stream, as
/// `<records>/<opcua_hosts>/<fold in hex>`: any reordering, dropped
/// record, or changed address or byte count shifts it. The `sweep`,
/// `hostile` and `multiproto` benches assert it is the same at every
/// worker count.
pub fn record_digest(records: &[ScanRecord], opcua_hosts: u64) -> String {
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

    /// The stats as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("n", Json::int(self.n as i64))
            .set("mean", Json::Num(self.mean))
            .set("min", Json::Num(self.min))
            .set("max", Json::Num(self.max))
            .set("p50", Json::Num(self.p50))
            .set("p99", Json::Num(self.p99))
    }
}

/// A `BTreeMap<String-able, count>` as a JSON object.
pub fn counts_to_json<K: ToString>(counts: &BTreeMap<K, usize>) -> Json {
    let mut obj = Json::obj();
    for (k, v) in counts {
        obj = obj.set(&k.to_string(), Json::int(*v as i64));
    }
    obj
}

/// Writes `BENCH_<name>.json` into `BENCH_OUT_DIR` (default: the current
/// directory) and returns the path.
pub fn write_bench_json(name: &str, value: &Json) -> PathBuf {
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".into());
    let path = PathBuf::from(dir).join(format!("BENCH_{name}.json"));
    std::fs::write(&path, format!("{value}\n")).expect("write bench json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_escaped_and_ordered() {
        let j = Json::obj()
            .set("name", Json::str("a\"b\\c\nd"))
            .set("count", Json::int(3_i64))
            .set("ratio", Json::Num(0.5))
            .set("flag", Json::Bool(true))
            .set("items", Json::Arr(vec![Json::Int(1), Json::Null]));
        assert_eq!(
            j.to_string(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":3,\"ratio\":0.500000,\"flag\":true,\"items\":[1,null]}"
        );
    }

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
        assert!(!cfg.worker_counts.is_empty());
    }

    #[test]
    fn world_builds_and_scans() {
        let cfg = BenchConfig {
            hosts: 12,
            universe: vec!["10.0.0.0/24".parse().unwrap()],
            worker_counts: vec![1, 2],
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

    #[test]
    fn record_digest_tracks_order_and_payload() {
        let cfg = BenchConfig {
            hosts: 12,
            universe: vec!["10.0.0.0/24".parse().unwrap()],
            worker_counts: vec![1],
            seed: 7,
        };
        let (net, _) = cfg.build_world();
        let (summary, records) = cfg.scanner(net, 1).scan_collect(&cfg.universe, cfg.seed);
        assert!(records.len() >= 2);
        let digest = record_digest(&records, summary.opcua_hosts);

        let mut swapped = records.clone();
        swapped.swap(0, 1);
        assert_ne!(record_digest(&swapped, summary.opcua_hosts), digest);

        let mut grown = records.clone();
        grown[0].rx_bytes += 1;
        assert_ne!(record_digest(&grown, summary.opcua_hosts), digest);
    }

    #[test]
    fn lazy_world_scans_identically_to_eager() {
        let cfg = BenchConfig {
            hosts: 12,
            universe: vec!["10.0.0.0/24".parse().unwrap()],
            worker_counts: vec![1],
            seed: 7,
        };
        let (eager_net, _) = cfg.build_world();
        let (_, eager_records) = cfg
            .scanner(eager_net, 1)
            .scan_collect(&cfg.universe, cfg.seed);

        let (lazy_net, world) = cfg.build_lazy_world();
        assert_eq!(world.stats().hosts_materialized, 0);
        let (summary, lazy_records) = cfg
            .scanner(lazy_net, 1)
            .scan_collect(&cfg.universe, cfg.seed);

        assert_eq!(eager_records, lazy_records);
        assert_eq!(world.stats().hosts_materialized, summary.opcua_hosts);
    }
}
