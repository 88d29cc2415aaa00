//! Layer replays: each layer's public functions, called on a workload's
//! own generated inputs after the timed campaign has finished.

use crate::workload::Spec;
use assessment::Assessor;
use bench::time as timed;
use netsim::{Blocklist, Internet, Ipv4, SweepConfig, SynScanner, VirtualClock};
use population::{synthesize, LazyWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scanner::probe::{discovery_stack, UacpProbe};
use scanner::{default_stack, Probe, ScanConfig, ScanRecord, Scanner};
use ua_crypto::{batch_gcd, BigUint, CertStore, RsaPrivateKey};

/// One walk of the workload's universe with a no-op callback, split
/// into `shards` shards on as many threads. Returns wall seconds and
/// addresses walked. The world is deployed lazily, so the occupancy
/// check is the same pure function the campaign's sweep calls.
pub fn walk(spec: &Spec, seed: u64, shards: u64) -> (f64, u64) {
    let net = Internet::new(VirtualClock::default());
    let _world = LazyWorld::deploy(&net, &spec.population(seed));
    let blocklist = Blocklist::new();
    let syn = SynScanner::new(&net, &blocklist, SweepConfig::default());
    let universe = [spec.universe];
    let (secs, addrs) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    let syn = &syn;
                    let universe = &universe;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let stats = syn.sweep_shard(universe, &mut rng, shard, shards, |_, _| {});
                        stats.probes_sent + stats.blocklisted
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("walk shard thread"))
                .sum::<u64>()
        })
    });
    (secs, addrs)
}

/// Milliseconds per `RsaPrivateKey::generate` at each modulus size in
/// `bits`, `per_size` keys each.
pub fn keygen_ms(bits: &[usize], per_size: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    for &b in bits {
        for _ in 0..per_size {
            let (secs, key) = timed(|| RsaPrivateKey::generate(&mut rng, b, 2048));
            std::hint::black_box(key);
            samples.push(secs * 1e3);
        }
    }
    samples
}

/// Seconds of `batch_gcd` over each call's moduli, summed.
pub fn batch_gcd_s(moduli_per_call: &[Vec<BigUint>]) -> f64 {
    moduli_per_call
        .iter()
        .map(|moduli| timed(|| std::hint::black_box(batch_gcd(moduli))).0)
        .sum()
}

/// Microseconds per `CertStore::intern` of each DER into a fresh store
/// (misses), then per repeated intern (hits).
pub fn intern_us(ders: &[Vec<u8>]) -> (f64, f64) {
    if ders.is_empty() {
        return (0.0, 0.0);
    }
    let store = CertStore::new();
    let per_call = |secs: f64| secs * 1e6 / ders.len() as f64;
    let (miss, _) = timed(|| {
        for der in ders {
            std::hint::black_box(store.intern(der));
        }
    });
    let (hit, _) = timed(|| {
        for der in ders {
            std::hint::black_box(store.intern(der));
        }
    });
    (per_call(miss), per_call(hit))
}

/// Microseconds per host of an eager `synthesize` of the workload's
/// configuration (keygens included), and the host count.
pub fn synth_us_per_host(spec: &Spec, seed: u64) -> (f64, usize) {
    let cfg = spec.population(seed);
    let net = Internet::new(VirtualClock::default());
    let (secs, population) = timed(|| synthesize(&net, &cfg));
    (secs * 1e6 / population.len() as f64, population.len())
}

/// Per-host microseconds of `Scanner::probe_host` with the three
/// growing stacks, as increments: UACP alone, discovery over UACP, and
/// session over discovery. Every target is probed `rounds` times.
pub fn probe_stacks(
    net: &Internet,
    targets: &[(Ipv4, u16)],
    rounds: usize,
    seed: u64,
    workers: usize,
) -> [Vec<f64>; 3] {
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    let scanner = Scanner::new(net.clone(), Blocklist::new(), config);
    let time_stack = |stack: &mut Vec<Box<dyn Probe>>, addr: Ipv4, port: u16| {
        let (secs, record) = timed(|| scanner.probe_host(stack, addr, port, seed));
        std::hint::black_box(record);
        secs * 1e6
    };
    let mut uacp: Vec<Box<dyn Probe>> = vec![Box::new(UacpProbe)];
    let mut discovery = discovery_stack();
    let mut session = default_stack();
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rounds {
        for &(addr, port) in targets {
            let u = time_stack(&mut uacp, addr, port);
            let d = time_stack(&mut discovery, addr, port);
            let s = time_stack(&mut session, addr, port);
            out[0].push(u);
            out[1].push(d - u);
            out[2].push(s - d);
        }
    }
    out
}

/// Microseconds per `Assessor::fold` over the records, `rounds` passes
/// into fresh assessors.
pub fn fold_us(records: &[ScanRecord], rounds: usize) -> Vec<f64> {
    let mut samples = Vec::with_capacity(records.len() * rounds);
    for _ in 0..rounds {
        let mut assessor = Assessor::new();
        for record in records {
            let (secs, ()) = timed(|| assessor.fold(record));
            samples.push(secs * 1e6);
        }
        std::hint::black_box(assessor);
    }
    samples
}
