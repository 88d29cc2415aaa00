//! zmap-style address-space sweeping.
//!
//! zmap iterates the multiplicative group of integers modulo the prime
//! p = 2³² + 15 = 4 294 967 311: pick a primitive root `g`, then the walk
//! `x ← x·g mod p` visits every element of [1, p−1] exactly once in a
//! pseudo-random order — full IPv4 coverage with O(1) state and no
//! per-address bookkeeping. This module implements that construction
//! (verified on small primes in tests; the full 2³² walk is available but
//! gated to benches), plus a bounded [`PermutedRange`] used to randomize
//! scan order within configurable universes, and the [`SynScanner`]
//! driver with blocklist and probe-rate accounting.

use crate::cidr::{Blocklist, Cidr, Ipv4};
use crate::internet::{Internet, Occupancy};
use rand::Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The zmap prime: smallest prime larger than 2³².
pub const ZMAP_PRIME: u64 = 4_294_967_311;

/// Deterministic trial-division factorization (u64, fast for the sizes
/// used here).
pub fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// A full-cycle walk over the multiplicative group mod a prime `p`:
/// visits every value in `[1, p-1]` exactly once.
#[derive(Debug, Clone)]
pub struct CycleWalk {
    p: u64,
    generator: u64,
    start: u64,
    current: u64,
    emitted: u64,
}

impl CycleWalk {
    /// Builds a walk over the group mod `p` (must be prime) from `rng`'s
    /// choice of primitive root and start element.
    pub fn new<R: Rng + ?Sized>(p: u64, rng: &mut R) -> Self {
        assert!(p >= 3, "prime too small");
        let factors = prime_factors(p - 1);
        // Find a primitive root: g is one iff g^((p-1)/q) != 1 for every
        // prime factor q of p-1.
        let generator = loop {
            let g = rng.gen_range(2..p);
            if factors.iter().all(|&q| pow_mod(g, (p - 1) / q, p) != 1) {
                break g;
            }
        };
        let start = rng.gen_range(1..p);
        CycleWalk {
            p,
            generator,
            start,
            current: start,
            emitted: 0,
        }
    }

    /// The group order (number of elements the walk visits).
    pub fn order(&self) -> u64 {
        self.p - 1
    }

    /// The chosen primitive root.
    pub fn generator(&self) -> u64 {
        self.generator
    }

    /// The walk restricted to steps `offset, offset+stride, …` of the
    /// *full* walk (from its start, regardless of how far this iterator
    /// has advanced): begins at `start·g^offset` and advances by
    /// `g^stride`, visiting exactly the elements the full walk emits at
    /// those step numbers — O(1) setup, no skipped iterations. Step
    /// numbers are yielded alongside the elements so N strided walks
    /// merge back into full-walk order.
    pub fn stride(&self, offset: u64, stride: u64) -> StridedWalk {
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset within stride");
        let order = self.p - 1;
        StridedWalk {
            p: self.p,
            generator: pow_mod(self.generator, stride, self.p),
            current: mul_mod(self.start, pow_mod(self.generator, offset, self.p), self.p),
            step: offset,
            stride,
            remaining: if offset < order {
                (order - offset).div_ceil(stride)
            } else {
                0
            },
        }
    }

    /// The consecutive steps `lo..hi` of the *full* walk (clamped to its
    /// order), as `(step, element)` pairs: begins at `start·g^lo`, so the
    /// setup costs O(log lo) multiplications.
    pub fn steps(&self, lo: u64, hi: u64) -> StridedWalk {
        StridedWalk {
            p: self.p,
            generator: self.generator,
            current: mul_mod(self.start, pow_mod(self.generator, lo, self.p), self.p),
            step: lo,
            stride: 1,
            remaining: hi.min(self.p - 1).saturating_sub(lo),
        }
    }
}

/// Every `stride`-th element of a [`CycleWalk`], starting at step
/// `offset` (see [`CycleWalk::stride`]). Yields `(step, element)` pairs;
/// the step numbers of the underlying full walk are globally unique
/// across disjoint strides, which is what lets sharded sweeps merge
/// deterministically.
#[derive(Debug, Clone)]
pub struct StridedWalk {
    p: u64,
    generator: u64,
    current: u64,
    step: u64,
    stride: u64,
    remaining: u64,
}

impl Iterator for StridedWalk {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let out = (self.step, self.current);
        self.current = mul_mod(self.current, self.generator, self.p);
        self.step += self.stride;
        self.remaining -= 1;
        Some(out)
    }
}

impl Iterator for CycleWalk {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.emitted == self.p - 1 {
            return None;
        }
        let out = self.current;
        self.current = mul_mod(self.current, self.generator, self.p);
        self.emitted += 1;
        debug_assert!(self.emitted < self.p - 1 || self.current == self.start);
        Some(out)
    }
}

/// Full-IPv4 permutation exactly as zmap builds it: a [`CycleWalk`] over
/// p = 2³² + 15 with group elements `v` mapped to the address `v - 1`,
/// skipping the 14 elements above 2³².
pub fn ipv4_permutation<R: Rng + ?Sized>(rng: &mut R) -> impl Iterator<Item = Ipv4> {
    CycleWalk::new(ZMAP_PRIME, rng).filter_map(|v| {
        let addr = v - 1;
        if addr <= u32::MAX as u64 {
            Some(Ipv4(addr as u32))
        } else {
            None
        }
    })
}

/// A random-order permutation of `[0, size)` built from a cycle walk over
/// the smallest prime `> size`, skipping out-of-range elements.
#[derive(Debug, Clone)]
pub struct PermutedRange {
    walk: CycleWalk,
    size: u64,
}

impl PermutedRange {
    /// Builds a permutation of `[0, size)`.
    pub fn new<R: Rng + ?Sized>(size: u64, rng: &mut R) -> Self {
        assert!(size > 0, "empty range");
        let mut p = size + 1;
        let p = loop {
            if prime_factors(p).len() == 1 && prime_factors(p)[0] == p {
                break p;
            }
            p += 1;
        };
        PermutedRange {
            walk: CycleWalk::new(p.max(3), rng),
            size,
        }
    }

    /// One shard of this permutation: the elements the underlying walk
    /// emits at steps `shard, shard + shards, …`, yielded as
    /// `(walk_step, index)` pairs. Each shard does O(order / shards)
    /// work; the walk steps are globally unique and increasing per
    /// shard, so N shards merge back into exactly this permutation's
    /// order. Must be called on a freshly built range (the stride is
    /// taken from the walk's start).
    pub fn shard(&self, shard: u64, shards: u64) -> PermutedShard {
        PermutedShard {
            walk: self.walk.stride(shard, shards),
            size: self.size,
        }
    }

    /// The walk steps `lo..hi` of this permutation (see
    /// [`CycleWalk::steps`]), out-of-range elements skipped. Same
    /// freshly-built precondition as [`Self::shard`].
    pub fn steps(&self, lo: u64, hi: u64) -> PermutedShard {
        PermutedShard {
            walk: self.walk.steps(lo, hi),
            size: self.size,
        }
    }

    /// Number of walk steps (the underlying group order; at least the
    /// range size, since out-of-range steps are skipped).
    pub fn order(&self) -> u64 {
        self.walk.order()
    }
}

/// A shard of a [`PermutedRange`] (see [`PermutedRange::shard`]):
/// `(walk_step, index)` pairs, out-of-range walk elements skipped.
#[derive(Debug, Clone)]
pub struct PermutedShard {
    walk: StridedWalk,
    size: u64,
}

impl Iterator for PermutedShard {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            let (step, v) = self.walk.next()?;
            let idx = v - 1;
            if idx < self.size {
                return Some((step, idx));
            }
        }
    }
}

impl Iterator for PermutedRange {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            let v = self.walk.next()?;
            let idx = v - 1;
            if idx < self.size {
                return Some(idx);
            }
        }
    }
}

/// The permuted address walk of one sweep shard, with the flat-index →
/// address mapping applied but *no* blocklist filtering, listener
/// probing, or stats: the raw `(walk_step, addr)` sequence that both
/// sweep drivers share.
///
/// [`SynScanner::sweep_shard`] walks one strided shard; each chunk a
/// [`SweepChunks`] hands out is one too. Walk steps are globally unique
/// and increasing per shard — the key sharded sweeps merge on.
#[derive(Debug, Clone)]
pub struct SweepWalk {
    shard: Option<PermutedShard>,
    blocks: Vec<(Ipv4, u64)>,
}

impl SweepWalk {
    /// Builds the walk for `shard` of `shards` over `universe`, deriving
    /// the permutation from `rng` exactly as [`SynScanner::sweep_shard`]
    /// does (the walk is a function of the RNG state alone).
    pub fn new<R: Rng + ?Sized>(universe: &[Cidr], rng: &mut R, shard: u64, shards: u64) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(shard < shards, "shard index within shard count");
        let (range, blocks) = permuted_universe(universe, rng);
        SweepWalk {
            shard: range.map(|range| range.shard(shard, shards)),
            blocks,
        }
    }
}

/// The universe's blocks and, unless it is empty, the permutation of
/// their concatenated index space (a function of `rng`'s state alone).
fn permuted_universe<R: Rng + ?Sized>(
    universe: &[Cidr],
    rng: &mut R,
) -> (Option<PermutedRange>, Vec<(Ipv4, u64)>) {
    let blocks: Vec<(Ipv4, u64)> = universe.iter().map(|c| (c.base, c.size())).collect();
    let total: u64 = blocks.iter().map(|&(_, size)| size).sum();
    ((total > 0).then(|| PermutedRange::new(total, rng)), blocks)
}

/// A [`SweepChunks`] cuts the walk into about this many chunks, so the
/// last one claimed is a small share of the sweep...
const SWEEP_CHUNKS: u64 = 256;

/// ...but none shorter than this many walk steps, so a claim's setup
/// (one modular power) stays a small share of the chunk's work.
const MIN_CHUNK_STEPS: u64 = 256;

/// The walk of a whole sweep, cut into chunks of consecutive walk steps
/// that sweep threads claim one at a time ([`SynScanner::sweep_chunks`]).
///
/// A thread on a slower or busier core claims fewer chunks, so the sweep
/// ends when the work does instead of when the slowest of N fixed
/// shares does. Claims hand out chunks in increasing step order, so each
/// thread's addresses still come out sorted by walk step and N threads
/// merge back into exactly the single-shard order. The only shared
/// write is one atomic add per chunk.
#[derive(Debug)]
pub struct SweepChunks {
    range: Option<PermutedRange>,
    blocks: Vec<(Ipv4, u64)>,
    chunk: u64,
    next: AtomicU64,
    /// Claims stop before this walk step.
    end: u64,
}

impl SweepChunks {
    /// Builds the chunked walk over `universe`, deriving the permutation
    /// from `rng` exactly as [`SweepWalk::new`] does.
    pub fn new<R: Rng + ?Sized>(universe: &[Cidr], rng: &mut R) -> Self {
        let (range, blocks) = permuted_universe(universe, rng);
        let order = range.as_ref().map_or(0, PermutedRange::order);
        SweepChunks {
            range,
            blocks,
            chunk: order.div_ceil(SWEEP_CHUNKS).max(MIN_CHUNK_STEPS),
            next: AtomicU64::new(0),
            end: order,
        }
    }

    /// The same walk restricted to the steps in `steps` (clamped to the
    /// walk): a resumed sweep skips the steps an aborted one settled,
    /// and a recount of those steps walks exactly them.
    pub fn within(self, steps: Range<u64>) -> Self {
        let end = steps.end.min(self.end);
        SweepChunks {
            next: AtomicU64::new(steps.start),
            end,
            ..self
        }
    }

    /// The next unclaimed chunk as a walk, or `None` once all are taken.
    pub fn claim(&self) -> Option<SweepWalk> {
        let range = self.range.as_ref()?;
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        (lo < self.end).then(|| SweepWalk {
            shard: Some(range.steps(lo, (lo + self.chunk).min(self.end))),
            blocks: self.blocks.clone(),
        })
    }
}

impl Iterator for SweepWalk {
    type Item = (u64, Ipv4);

    fn next(&mut self) -> Option<(u64, Ipv4)> {
        let (pos, idx) = self.shard.as_mut()?.next()?;
        // Map the flat index back into (block, offset).
        let mut rem = idx;
        for &(base, size) in &self.blocks {
            if rem < size {
                return Some((pos, Ipv4(base.0.wrapping_add(rem as u32))));
            }
            rem -= size;
        }
        unreachable!("index within total")
    }
}

/// Probe-rate configuration for a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Probes per second (zmap default-ish; the paper spread a full scan
    /// over ~24 h, i.e. ≈50 kpps).
    pub probes_per_second: u64,
    /// TCP port to probe.
    pub port: u16,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            probes_per_second: 50_000,
            port: 4840,
        }
    }
}

/// Result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Addresses with an open target port, in discovery order.
    pub responsive: Vec<Ipv4>,
    /// Probes sent (excluded addresses are not probed).
    pub probes_sent: u64,
    /// Addresses skipped due to the blocklist.
    pub blocklisted: u64,
}

/// Aggregate accounting of a streamed sweep ([`SynScanner::sweep_each`]):
/// everything [`SweepResult`] carries except the responsive addresses
/// themselves, which are handed to the caller one by one instead of being
/// collected. A full-IPv4 sweep finds tens of thousands of hosts; keeping
/// them out of a `Vec` lets downstream stages start probing while the
/// sweep is still walking the permutation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Probes sent (excluded addresses are not probed).
    pub probes_sent: u64,
    /// Addresses skipped due to the blocklist.
    pub blocklisted: u64,
    /// Responsive addresses seen (equals the number of callback calls).
    pub responsive: u64,
}

/// A zmap-like SYN scanner over a configurable universe.
pub struct SynScanner<'a> {
    internet: &'a Internet,
    blocklist: &'a Blocklist,
    config: SweepConfig,
}

impl<'a> SynScanner<'a> {
    /// Creates a scanner.
    pub fn new(internet: &'a Internet, blocklist: &'a Blocklist, config: SweepConfig) -> Self {
        SynScanner {
            internet,
            blocklist,
            config,
        }
    }

    /// Probes every address of `universe` (a set of CIDR blocks) in
    /// permuted order, advancing the virtual clock at the configured
    /// probe rate. This is the sweep the scanner's weekly campaign runs;
    /// the full 0.0.0.0/0 universe is the paper's actual configuration
    /// and works identically (benches exercise a sampled slice for
    /// wall-clock reasons — see DESIGN.md).
    pub fn sweep<R: Rng + ?Sized>(&self, universe: &[Cidr], rng: &mut R) -> SweepResult {
        let mut responsive = Vec::new();
        let stats = self.sweep_each(universe, rng, |addr| responsive.push(addr));
        SweepResult {
            responsive,
            probes_sent: stats.probes_sent,
            blocklisted: stats.blocklisted,
        }
    }

    /// Streaming variant of [`Self::sweep`]: invokes `on_responsive` for
    /// every address with an open target port, in discovery order, and
    /// returns only the aggregate accounting. This is the probe API the
    /// `scanner` crate's pipeline drives — responsive hosts flow into the
    /// application-layer probes without an intermediate `Vec`.
    pub fn sweep_each<R, F>(
        &self,
        universe: &[Cidr],
        rng: &mut R,
        mut on_responsive: F,
    ) -> SweepStats
    where
        R: Rng + ?Sized,
        F: FnMut(Ipv4),
    {
        let stats = self.sweep_shard(universe, rng, 0, 1, |_pos, addr| on_responsive(addr));
        // Account the sweep duration once: probes are asynchronous.
        // Pacing is tracked in microseconds — integer-second division
        // would advance the clock by 0 for any sweep shorter than one
        // second of probes and drop the fractional remainder of longer
        // ones.
        let micros =
            stats.probes_sent.saturating_mul(1_000_000) / self.config.probes_per_second.max(1);
        self.internet.clock().advance_micros(micros);
        stats
    }

    /// One shard of a sweep: every shard derives the *same* permutation
    /// (the walk is a function of `rng`'s state alone) but generates
    /// only its own steps `shard, shard + shards, …` via cycle striding
    /// — O(universe / shards) work per shard, no skipped iterations.
    /// `on_responsive` receives the global walk step alongside the
    /// address, so a coordinator can merge records from N shards back
    /// into the exact discovery order a single-shard sweep produces.
    ///
    /// Clock-neutral: the caller accounts the sweep duration once from
    /// the summed stats (see [`Self::sweep_each`]); shard stats are
    /// disjoint and sum to the single-shard totals. That split is what
    /// makes cancellation safe: an aborted sweep simply never reaches
    /// the accounting step, so no pacing (and no discarded probe's fork
    /// time) ever leaks onto the campaign clock.
    pub fn sweep_shard<R, F>(
        &self,
        universe: &[Cidr],
        rng: &mut R,
        shard: u64,
        shards: u64,
        mut on_responsive: F,
    ) -> SweepStats
    where
        R: Rng + ?Sized,
        F: FnMut(u64, Ipv4),
    {
        // Concatenate blocks into one index space, then walk a
        // permutation of it (zmap's randomization property: no subnet is
        // hammered in a burst).
        let walk = SweepWalk::new(universe, rng, shard, shards);
        self.classify(walk, &self.internet.occupancy(), &mut on_responsive)
    }

    /// A sweep thread's share of `chunks`: claims chunks until none are
    /// left, or until `stop` returns true before a claim, and sweeps
    /// each like [`Self::sweep_shard`] sweeps its shard. A claimed chunk
    /// is always swept to its end. Every thread of one sweep passes the
    /// same `chunks`; their stats sum to the single-shard totals, and
    /// each thread's walk steps increase, so N threads merge back into
    /// discovery order. Clock-neutral, like [`Self::sweep_shard`].
    pub fn sweep_chunks<S, F>(
        &self,
        chunks: &SweepChunks,
        stop: S,
        mut on_responsive: F,
    ) -> SweepStats
    where
        S: Fn() -> bool,
        F: FnMut(u64, Ipv4),
    {
        let occupancy = self.internet.occupancy();
        let mut stats = SweepStats::default();
        while !stop() {
            let Some(walk) = chunks.claim() else {
                break;
            };
            stats = stats + self.classify(walk, &occupancy, &mut on_responsive);
        }
        stats
    }

    /// The per-address classification (blocklist → probe → listener).
    fn classify<F>(
        &self,
        walk: SweepWalk,
        occupancy: &Occupancy,
        on_responsive: &mut F,
    ) -> SweepStats
    where
        F: FnMut(u64, Ipv4),
    {
        let mut stats = SweepStats::default();
        for (pos, addr) in walk {
            if self.blocklist.contains(addr) {
                stats.blocklisted += 1;
                continue;
            }
            stats.probes_sent += 1;
            if occupancy.has_listener(addr, self.config.port) {
                stats.responsive += 1;
                on_responsive(pos, addr);
            }
        }
        stats
    }
}

/// Element-wise sum of shard stats (used by sharded sweeps to recover
/// the single-shard totals).
impl std::ops::Add for SweepStats {
    type Output = SweepStats;

    fn add(self, rhs: SweepStats) -> SweepStats {
        SweepStats {
            probes_sent: self.probes_sent + rhs.probes_sent,
            blocklisted: self.blocklisted + rhs.blocklisted,
            responsive: self.responsive + rhs.responsive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::internet::{Connection, ConnectionOutput, Service};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn factorization_known_values() {
        assert_eq!(prime_factors(12), vec![2, 3]);
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(100), vec![2, 5]);
        // The zmap prime is indeed prime and p-1 factors correctly.
        assert_eq!(prime_factors(ZMAP_PRIME), vec![ZMAP_PRIME]);
        let fs = prime_factors(ZMAP_PRIME - 1);
        let product_check: u64 = {
            let mut n = ZMAP_PRIME - 1;
            for f in &fs {
                while n.is_multiple_of(*f) {
                    n /= f;
                }
            }
            n
        };
        assert_eq!(product_check, 1);
    }

    #[test]
    fn cycle_walk_visits_all_exactly_once() {
        for p in [11u64, 101, 257, 65537] {
            let mut rng = StdRng::seed_from_u64(p);
            let walk = CycleWalk::new(p, &mut rng);
            let seen: HashSet<u64> = walk.collect();
            assert_eq!(seen.len() as u64, p - 1, "p={p}");
            assert!((1..p).all(|v| seen.contains(&v)), "p={p}");
        }
    }

    #[test]
    fn cycle_walk_is_not_sequential() {
        let mut rng = StdRng::seed_from_u64(1);
        let first: Vec<u64> = CycleWalk::new(65537, &mut rng).take(100).collect();
        let sorted = {
            let mut v = first.clone();
            v.sort_unstable();
            v
        };
        assert_ne!(first, sorted, "walk order should be permuted");
    }

    #[test]
    fn permuted_range_full_coverage() {
        for size in [1u64, 2, 7, 100, 1000, 4096] {
            let mut rng = StdRng::seed_from_u64(size);
            let seen: HashSet<u64> = PermutedRange::new(size, &mut rng).collect();
            assert_eq!(seen.len() as u64, size, "size={size}");
            assert!((0..size).all(|v| seen.contains(&v)), "size={size}");
        }
    }

    #[test]
    fn ipv4_permutation_prefix_has_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(7);
        let prefix: Vec<Ipv4> = ipv4_permutation(&mut rng).take(100_000).collect();
        let unique: HashSet<Ipv4> = prefix.iter().copied().collect();
        assert_eq!(unique.len(), prefix.len());
    }

    struct Nop;
    impl Connection for Nop {
        fn on_data(&mut self, _d: &[u8]) -> ConnectionOutput {
            ConnectionOutput::empty()
        }
    }
    struct NopService;
    impl Service for NopService {
        fn open_connection(&self, _peer: Ipv4) -> Box<dyn Connection> {
            Box::new(Nop)
        }
    }

    #[test]
    fn syn_scan_finds_all_listeners() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.0.0.0/16".parse().unwrap();
        let mut expected = HashSet::new();
        // 50 listeners scattered in the /16.
        for i in 0..50u32 {
            let addr = Ipv4(universe.base.0 + i * 997 + 13);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
            expected.insert(addr);
        }
        // A host with the port closed and one on another port.
        let closed = Ipv4(universe.base.0 + 9999);
        net.add_host(closed, 1000);
        let other = Ipv4(universe.base.0 + 12345);
        net.add_host(other, 1000);
        net.bind(other, 80, Arc::new(NopService));

        let blocklist = Blocklist::new();
        let mut rng = StdRng::seed_from_u64(3);
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let result = scanner.sweep(&[universe], &mut rng);
        let found: HashSet<Ipv4> = result.responsive.iter().copied().collect();
        assert_eq!(found, expected);
        assert_eq!(result.probes_sent, universe.size());
        assert_eq!(result.blocklisted, 0);
    }

    #[test]
    fn syn_scan_honors_blocklist() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.1.0.0/24".parse().unwrap();
        let victim = Ipv4::new(10, 1, 0, 50);
        net.add_host(victim, 1000);
        net.bind(victim, 4840, Arc::new(NopService));

        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.1.0.32/27").unwrap(); // covers .32-.63
        let mut rng = StdRng::seed_from_u64(4);
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let result = scanner.sweep(&[universe], &mut rng);
        assert!(
            result.responsive.is_empty(),
            "opted-out host must not be probed"
        );
        assert_eq!(result.blocklisted, 32);
        assert_eq!(result.probes_sent, 256 - 32);
    }

    #[test]
    fn sweep_advances_clock_by_rate() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let universe: Cidr = "10.2.0.0/16".parse().unwrap(); // 65536 probes
        let blocklist = Blocklist::new();
        let mut rng = StdRng::seed_from_u64(5);
        let scanner = SynScanner::new(
            &net,
            &blocklist,
            SweepConfig {
                probes_per_second: 1000,
                port: 4840,
            },
        );
        scanner.sweep(&[universe], &mut rng);
        // 65536 probes at 1000/s = 65.536 s, accounted to the micro.
        assert_eq!(clock.now_micros(), 65_536_000);
        assert_eq!(clock.now_unix_seconds(), 65);
    }

    #[test]
    fn sub_second_sweep_still_advances_clock() {
        // A /28 (16 probes) at 1000 probes/s is 16 ms of pacing.
        // Integer-second accounting would advance the clock by zero.
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let universe: Cidr = "10.2.0.0/28".parse().unwrap();
        let blocklist = Blocklist::new();
        let mut rng = StdRng::seed_from_u64(5);
        let scanner = SynScanner::new(
            &net,
            &blocklist,
            SweepConfig {
                probes_per_second: 1000,
                port: 4840,
            },
        );
        scanner.sweep(&[universe], &mut rng);
        assert_eq!(clock.now_micros(), 16_000);
    }

    #[test]
    fn sweep_each_matches_collected_sweep() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.9.0.0/24".parse().unwrap();
        for i in [3u32, 77, 200] {
            let addr = Ipv4(universe.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.9.0.64/26").unwrap(); // covers .64-.127 (77)
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        let mut rng = StdRng::seed_from_u64(21);
        let collected = scanner.sweep(&[universe], &mut rng);

        let mut streamed = Vec::new();
        let mut rng = StdRng::seed_from_u64(21);
        let stats = scanner.sweep_each(&[universe], &mut rng, |a| streamed.push(a));

        assert_eq!(streamed, collected.responsive);
        assert_eq!(stats.probes_sent, collected.probes_sent);
        assert_eq!(stats.blocklisted, collected.blocklisted);
        assert_eq!(stats.responsive as usize, collected.responsive.len());
    }

    #[test]
    fn strided_walks_partition_the_full_walk() {
        for p in [11u64, 101, 65537] {
            for stride in [1u64, 2, 3, 8] {
                let mut rng = StdRng::seed_from_u64(p ^ stride);
                let walk = CycleWalk::new(p, &mut rng);
                let reference: Vec<(u64, u64)> = walk
                    .clone()
                    .enumerate()
                    .map(|(s, v)| (s as u64, v))
                    .collect();
                let mut merged: Vec<(u64, u64)> = (0..stride)
                    .flat_map(|offset| walk.stride(offset, stride))
                    .collect();
                merged.sort_unstable();
                assert_eq!(merged, reference, "p={p} stride={stride}");
            }
        }
    }

    #[test]
    fn permuted_shard_work_is_divided_not_duplicated() {
        // Each shard's iterator yields only its own steps; together they
        // cover the range exactly once.
        let mut rng = StdRng::seed_from_u64(42);
        let range = PermutedRange::new(1000, &mut rng);
        let mut seen = HashSet::new();
        let mut yielded = 0u64;
        for shard in 0..8 {
            for (step, idx) in range.shard(shard, 8) {
                assert_eq!(step % 8, shard, "shard yields only its own steps");
                assert!(seen.insert(idx), "index {idx} yielded twice");
                yielded += 1;
            }
        }
        assert_eq!(yielded, 1000);
    }

    #[test]
    fn sweep_shards_partition_the_sweep() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.8.0.0/24".parse().unwrap();
        for i in [1u32, 40, 77, 129, 200, 255] {
            let addr = Ipv4(universe.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.8.0.128/26").unwrap(); // covers .128-.191 (129)
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        let mut rng = StdRng::seed_from_u64(33);
        let mut reference = Vec::new();
        let full = scanner.sweep_shard(&[universe], &mut rng, 0, 1, |pos, addr| {
            reference.push((pos, addr));
        });

        for shards in [2u64, 3, 8] {
            let mut merged = Vec::new();
            let mut stats = SweepStats::default();
            for shard in 0..shards {
                let mut rng = StdRng::seed_from_u64(33);
                stats = stats
                    + scanner.sweep_shard(&[universe], &mut rng, shard, shards, |pos, addr| {
                        merged.push((pos, addr));
                    });
            }
            merged.sort_by_key(|&(pos, _)| pos);
            assert_eq!(merged, reference, "shards={shards}");
            assert_eq!(stats.probes_sent, full.probes_sent, "shards={shards}");
            assert_eq!(stats.blocklisted, full.blocklisted, "shards={shards}");
            assert_eq!(stats.responsive, full.responsive, "shards={shards}");
        }
    }

    #[test]
    fn walk_steps_are_a_slice_of_the_full_walk() {
        for p in [3u64, 11, 101, 65_537] {
            let walk = CycleWalk::new(p, &mut StdRng::seed_from_u64(p));
            let full: Vec<u64> = walk.clone().collect();
            for (lo, hi) in [(0, 1), (0, p), (1, p / 2 + 1), (p / 3, p + 40), (p, p + 5)] {
                let got: Vec<(u64, u64)> = walk.steps(lo, hi).collect();
                let want: Vec<(u64, u64)> = (lo..hi.min(p - 1))
                    .map(|step| (step, full[step as usize]))
                    .collect();
                assert_eq!(got, want, "p={p} lo={lo} hi={hi}");
            }
        }
    }

    #[test]
    fn claimed_chunks_partition_the_sweep_in_step_order() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a: Cidr = "10.8.0.0/20".parse().unwrap();
        let b: Cidr = "172.30.0.0/26".parse().unwrap();
        for i in (0..a.size() as u32).step_by(37) {
            let addr = Ipv4(a.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.8.2.0/23").unwrap();
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        let mut reference = Vec::new();
        let full =
            scanner.sweep_shard(&[a, b], &mut StdRng::seed_from_u64(5), 0, 1, |pos, addr| {
                reference.push((pos, addr))
            });
        for threads in [1usize, 2, 3, 8] {
            let chunks = SweepChunks::new(&[a, b], &mut StdRng::seed_from_u64(5));
            let per_thread: Vec<(SweepStats, Vec<(u64, Ipv4)>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let mut seen = Vec::new();
                            let stats = scanner.sweep_chunks(
                                &chunks,
                                || false,
                                |pos, addr| seen.push((pos, addr)),
                            );
                            (stats, seen)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(chunks.claim().is_none(), "threads={threads}");
            let mut stats = SweepStats::default();
            let mut merged = Vec::new();
            for (thread_stats, seen) in per_thread {
                assert!(
                    seen.windows(2).all(|w| w[0].0 < w[1].0),
                    "threads={threads}"
                );
                stats = stats + thread_stats;
                merged.extend(seen);
            }
            merged.sort_by_key(|&(pos, _)| pos);
            assert_eq!(merged, reference, "threads={threads}");
            assert_eq!(stats, full, "threads={threads}");
        }
        let empty = SweepChunks::new(&[], &mut StdRng::seed_from_u64(5));
        assert!(empty.claim().is_none());

        // A restricted walk covers exactly its steps; a stopped thread
        // claims nothing.
        let (lo, hi) = (reference[3].0, reference[reference.len() - 3].0);
        let within = SweepChunks::new(&[a, b], &mut StdRng::seed_from_u64(5)).within(lo..hi);
        let mut seen = Vec::new();
        let stats = scanner.sweep_chunks(&within, || false, |pos, addr| seen.push((pos, addr)));
        let want: Vec<(u64, Ipv4)> = reference
            .iter()
            .copied()
            .filter(|&(pos, _)| (lo..hi).contains(&pos))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(stats.responsive, want.len() as u64);
        let chunks = SweepChunks::new(&[a, b], &mut StdRng::seed_from_u64(5));
        let stopped = scanner.sweep_chunks(&chunks, || true, |_, _| panic!("stopped"));
        assert_eq!(stopped, SweepStats::default());
        assert!(chunks.claim().is_some(), "a stopped thread claims nothing");
    }

    #[test]
    fn sweep_walk_is_the_unfiltered_sweep_order() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a: Cidr = "10.8.0.0/25".parse().unwrap();
        let b: Cidr = "172.30.0.0/26".parse().unwrap();
        for i in [3u32, 60, 100] {
            let addr = Ipv4(a.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.8.0.64/27").unwrap();
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        // The walk covers every address of every block exactly once, in
        // a stable order per seed, with no filtering at all.
        let mut rng = StdRng::seed_from_u64(9);
        let walked: Vec<(u64, Ipv4)> = SweepWalk::new(&[a, b], &mut rng, 0, 1).collect();
        assert_eq!(walked.len() as u64, a.size() + b.size());
        let unique: HashSet<Ipv4> = walked.iter().map(|&(_, addr)| addr).collect();
        assert_eq!(unique.len(), walked.len());

        // Replaying the sweep_shard classification over the walk yields
        // the exact responsive sequence and stats sweep_shard produces.
        let mut rng = StdRng::seed_from_u64(9);
        let mut reference = Vec::new();
        let ref_stats = scanner.sweep_shard(&[a, b], &mut rng, 0, 1, |pos, addr| {
            reference.push((pos, addr));
        });
        let mut replayed = Vec::new();
        let mut stats = SweepStats::default();
        for &(pos, addr) in &walked {
            if blocklist.contains(addr) {
                stats.blocklisted += 1;
                continue;
            }
            stats.probes_sent += 1;
            if net.has_listener(addr, 4840) {
                stats.responsive += 1;
                replayed.push((pos, addr));
            }
        }
        assert_eq!(replayed, reference);
        assert_eq!(stats, ref_stats);

        // Shards of the walk partition it.
        let mut merged: Vec<(u64, Ipv4)> = (0..4)
            .flat_map(|shard| {
                let mut rng = StdRng::seed_from_u64(9);
                SweepWalk::new(&[a, b], &mut rng, shard, 4)
            })
            .collect();
        merged.sort_by_key(|&(pos, _)| pos);
        assert_eq!(merged, walked);

        // An empty universe walks nowhere.
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(SweepWalk::new(&[], &mut rng, 0, 1).count(), 0);
    }

    #[test]
    fn sweep_multiple_blocks() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a: Cidr = "10.3.0.0/28".parse().unwrap();
        let b: Cidr = "192.168.1.0/28".parse().unwrap();
        let host = Ipv4::new(192, 168, 1, 5);
        net.add_host(host, 0);
        net.bind(host, 4840, Arc::new(NopService));
        let blocklist = Blocklist::new();
        let mut rng = StdRng::seed_from_u64(6);
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let result = scanner.sweep(&[a, b], &mut rng);
        assert_eq!(result.responsive, vec![host]);
        assert_eq!(result.probes_sent, 32);
    }
}
