//! The three workloads: deploy a lazy world, run the campaign through
//! the scanner's public entry points, and check the output against the
//! planted ground truth once the clock has stopped.

use crate::sys;
use crate::trace::Tracer;
use assessment::{
    assess, diff, AssessmentReport, Assessor, Deficit, HostObservation, LongitudinalAssessor,
    WeekDelta, WeekSnapshot,
};
use netsim::{Blocklist, Cidr, Internet, Ipv4, VirtualClock};
use population::{
    ChurnConfig, EvolvingWorld, HostClass, LazyWorld, MaterializationStats, Population,
    PopulationConfig, StrataMix,
};
use scanner::{Campaign, CertStore, CertStoreStats, ScanConfig, ScanRecord, Scanner, Thumbprint};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;
use ua_crypto::BigUint;
use ua_types::{MessageSecurityMode, UserTokenType};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One campaign over a /10 with a few hundred hosts.
    SparseSweep,
    /// One campaign over a /16 packed with thousands of hosts.
    DenseCampaign,
    /// Thirty weekly campaigns over a churning /16 fleet.
    WeeklyChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SparseSweep,
        Workload::DenseCampaign,
        Workload::WeeklyChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseSweep => "sparse_sweep",
            Workload::DenseCampaign => "dense_campaign",
            Workload::WeeklyChurn => "weekly_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (also its `why` in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SparseSweep => {
                "a mostly empty /10 like the paper's IPv4 sweep: the address walk and occupancy \
                 check do almost all the work and the probe layers idle"
            }
            Workload::DenseCampaign => {
                "a packed /16: the walk is negligible and time goes to host materialization and \
                 keygen, the probe stages, first-seen cert interning and batch GCD"
            }
            Workload::WeeklyChurn => {
                "30 weekly campaigns over a churning fleet: hosts are re-probed, cert lookups \
                 mostly hit, and weekly assess, batch GCD, evolve and diff recur"
            }
        }
    }

    /// The full-size inputs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::SparseSweep => Spec::new("10.0.0.0/10", 200, 1),
            Workload::DenseCampaign => Spec::new("10.0.0.0/16", 6000, 1),
            Workload::WeeklyChurn => Spec::new("10.0.0.0/16", 750, 30),
        }
    }

    /// Toy-size inputs of the same shape, for tests.
    pub fn toy_spec(self) -> Spec {
        match self {
            Workload::SparseSweep => Spec::new("10.0.0.0/18", 40, 1),
            Workload::DenseCampaign => Spec::new("10.0.0.0/22", 120, 1),
            Workload::WeeklyChurn => Spec::new("10.0.0.0/22", 60, 3),
        }
    }

    /// True for the workload driven through `Campaign::run_week`.
    pub fn is_longitudinal(self) -> bool {
        self == Workload::WeeklyChurn
    }
}

/// Workload inputs: the universe, the `paper_like` host count and the
/// number of weekly campaigns.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The swept universe.
    pub universe: Cidr,
    /// Hosts requested from `StrataMix::paper_like`.
    pub hosts: usize,
    /// Weekly campaigns (1 for the single-campaign workloads).
    pub weeks: u32,
}

impl Spec {
    fn new(universe: &str, hosts: usize, weeks: u32) -> Spec {
        Spec {
            universe: universe.parse().expect("valid universe"),
            hosts,
            weeks,
        }
    }

    /// The population configuration of `seed`.
    pub fn population(&self, seed: u64) -> PopulationConfig {
        PopulationConfig::new(seed, vec![self.universe], StrataMix::paper_like(self.hosts))
    }
}

/// Planted strata and the deficit each one, and only it, carries.
const STRATUM_DEFICITS: [(HostClass, Deficit); 5] = [
    (HostClass::ExpiredCert, Deficit::ExpiredCertificate),
    (HostClass::WeakCert, Deficit::CertificateTooWeak),
    (HostClass::ReusedCert, Deficit::ReusedCertificate),
    (HostClass::SharedPrime, Deficit::SharedPrimeKey),
    (HostClass::BrokenSession, Deficit::BrokenSessionConfig),
];

/// The correctness verdict of one campaign.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Planted hosts checked (summed over weeks).
    pub planted: u64,
    /// Planted hosts missed, plus per-deficit count differences.
    pub failed: u64,
    /// What went wrong, one line each.
    pub offenders: Vec<String>,
}

impl Check {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.offenders.push(why);
    }

    /// Checks one planted host: present, UACP hello completed, and
    /// exactly the planted certificate identity served.
    pub fn host(
        &mut self,
        by_target: &BTreeMap<(Ipv4, u16), &ScanRecord>,
        address: Ipv4,
        port: u16,
        thumbprint: Option<Thumbprint>,
        week: u32,
    ) {
        self.planted += 1;
        let Some(record) = by_target.get(&(address, port)) else {
            return self.fail(1, format!("week {week}: {address}:{port} absent"));
        };
        if !record.hello_ok() {
            return self.fail(
                1,
                format!("week {week}: {address}:{port} failed UACP hello"),
            );
        }
        let seen: BTreeSet<Thumbprint> =
            record.certificates().iter().map(|c| c.identity()).collect();
        let planted: BTreeSet<Thumbprint> = thumbprint.into_iter().collect();
        if seen != planted {
            self.fail(
                1,
                format!("week {week}: {address}:{port} served {seen:?}, planted {planted:?}"),
            );
        }
    }

    /// Compares a found deficit count with the planted one.
    pub fn count(&mut self, week: u32, deficit: Deficit, found: usize, planted: usize) {
        if found != planted {
            self.fail(
                found.abs_diff(planted) as u64,
                format!(
                    "week {week}: {} on {found} hosts, planted {planted}",
                    deficit.label()
                ),
            );
        }
    }

    /// Adds another check's verdict.
    pub fn absorb(&mut self, other: Check) {
        self.planted += other.planted;
        self.failed += other.failed;
        self.offenders.extend(other.offenders);
    }
}

fn by_target(records: &[ScanRecord]) -> BTreeMap<(Ipv4, u16), &ScanRecord> {
    records.iter().map(|r| ((r.address, r.port), r)).collect()
}

/// Checks a single campaign against the lazy world's planted truth.
pub fn check_single(
    population: &Population,
    records: &[ScanRecord],
    report: &AssessmentReport,
) -> Check {
    let targets = by_target(records);
    let mut check = Check::default();
    for host in &population.hosts {
        let thumbprint = host.cert_thumbprint.map(Thumbprint);
        check.host(&targets, host.address, host.port, thumbprint, 0);
    }
    for (class, deficit) in STRATUM_DEFICITS {
        check.count(0, deficit, report.count(deficit), population.count(class));
    }
    check
}

/// Folds records into a digest that any byte of difference changes.
/// Digests are compared only within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest(pub u64);

/// Feeds formatted text straight into a hasher.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

impl Digest {
    /// Chains `item`'s debug rendering into the digest.
    pub fn update(&mut self, item: &impl std::fmt::Debug) {
        let mut w = HashWriter(DefaultHasher::new());
        w.0.write_u64(self.0);
        let _ = write!(w, "{item:?}");
        self.0 = w.0.finish();
    }

    /// Hex form for printing.
    pub fn short(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Inputs the traced run keeps for the layer replays.
#[derive(Default)]
pub struct Kept {
    /// The records (all of them; for `weekly_churn` the final week's).
    pub records: Vec<ScanRecord>,
    /// The deduplicated moduli each batch-GCD call of the campaign saw.
    pub moduli_per_call: Vec<Vec<BigUint>>,
    /// Every distinct certificate DER of the campaign.
    pub ders: Vec<Vec<u8>>,
    /// Cumulative certificate-interning counters.
    pub certs: CertStoreStats,
    /// Materialization counters at the end of the campaign.
    pub materialized: MaterializationStats,
    /// Bytes received over all weeks.
    pub rx_bytes: u64,
    /// Records over all weeks.
    pub records_total: u64,
    /// Virtual seconds the campaign's scans spanned, summed over weeks.
    pub virtual_s: f64,
    /// Planted `(address, port)` targets (for `weekly_churn`, the final
    /// week's living hosts).
    pub targets: Vec<(Ipv4, u16)>,
}

impl Kept {
    fn add_week(&mut self, records: &[ScanRecord], seen: &mut BTreeSet<Thumbprint>) {
        self.moduli_per_call.push(bench::campaign_moduli(records));
        for record in records {
            self.rx_bytes += record.rx_bytes;
            for cert in record.certificates() {
                if seen.insert(cert.identity()) {
                    self.ders.push(cert.der().to_vec());
                }
            }
        }
        self.records_total += records.len() as u64;
    }
}

/// The outcome of one timed campaign.
pub struct Rep {
    /// Campaign wall seconds (checks excluded).
    pub wall_s: f64,
    /// Process CPU seconds over the campaign.
    pub cpu_s: f64,
    /// Universe addresses swept, times weeks.
    pub addrs: u64,
    /// Planted hosts probed and assessed, summed over weeks.
    pub hosts: u64,
    /// Ground-truth verdict.
    pub check: Check,
    /// Digest of every record and summary.
    pub digest: Digest,
    /// Replay inputs, when asked for.
    pub kept: Option<Kept>,
}

/// A deployed workload, ready for one campaign.
pub enum World {
    /// `sparse_sweep` and `dense_campaign`.
    Single {
        /// The inputs.
        spec: Spec,
        /// The campaign seed.
        seed: u64,
        /// The lazy world (ground truth).
        world: LazyWorld,
        /// The scanner over the world's Internet.
        scanner: Scanner,
    },
    /// `weekly_churn`.
    Churn {
        /// The inputs.
        spec: Spec,
        /// The campaign seed.
        seed: u64,
        /// The evolving lazy world.
        world: EvolvingWorld,
        /// The weekly campaign driver.
        campaign: Campaign,
    },
}

/// Deploys `workload` (the timed set-up: world deploy plus scanner or
/// campaign construction).
pub fn deploy(workload: Workload, spec: &Spec, seed: u64, workers: usize) -> World {
    let net = Internet::new(VirtualClock::default());
    let cfg = spec.population(seed);
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    if workload.is_longitudinal() {
        let world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
        World::Churn {
            spec: spec.clone(),
            seed,
            world,
            campaign: Campaign::new(Scanner::new(net, Blocklist::new(), config)),
        }
    } else {
        let world = LazyWorld::deploy(&net, &cfg);
        World::Single {
            spec: spec.clone(),
            seed,
            world,
            scanner: Scanner::new(net, Blocklist::new(), config),
        }
    }
}

/// Wall and CPU stopwatch over one or more campaign segments.
#[derive(Default)]
struct Stopwatch {
    wall_s: f64,
    cpu_s: f64,
}

impl Stopwatch {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = sys::cpu_seconds();
        let start = Instant::now();
        let value = f();
        self.wall_s += start.elapsed().as_secs_f64();
        self.cpu_s += sys::cpu_seconds() - cpu;
        value
    }
}

impl World {
    /// The Internet the world is deployed on.
    pub fn net(&self) -> &Internet {
        match self {
            World::Single { scanner, .. } => scanner.internet(),
            World::Churn { world, .. } => world.net(),
        }
    }

    /// Runs the campaign, timing it, then checks it untimed. With
    /// `keep`, also returns the replay inputs.
    pub fn run(&mut self, tracer: &mut Tracer, keep: bool) -> Rep {
        match self {
            World::Single {
                spec,
                seed,
                world,
                scanner,
            } => run_single(spec, *seed, world, scanner, tracer, keep),
            World::Churn {
                spec,
                seed,
                world,
                campaign,
            } => run_churn(spec, *seed, world, campaign, tracer, keep),
        }
    }
}

fn run_single(
    spec: &Spec,
    seed: u64,
    world: &LazyWorld,
    scanner: &Scanner,
    tracer: &mut Tracer,
    keep: bool,
) -> Rep {
    let mut watch = Stopwatch::default();
    let certs = CertStore::new();
    let mut records = Vec::new();
    let (summary, report) = watch.time(|| {
        let root = tracer.enter("campaign");
        let mut assessor = Assessor::new();
        tracer.sink_reset();
        let scan = tracer.enter("scanner.scan");
        let summary = scanner.scan_with_certs(&[spec.universe], seed, &certs, |record| {
            tracer.sink_tick();
            let fold = tracer.enter("assess.fold");
            assessor.fold(&record);
            tracer.exit(fold);
            records.push(record);
        });
        tracer.exit(scan);
        let finalize = tracer.enter("assess.finalize");
        let report = assessor.finalize();
        tracer.exit(finalize);
        tracer.exit(root);
        (summary, report)
    });

    let population = world.population();
    let check = check_single(&population, &records, &report);
    let mut digest = Digest::default();
    digest.update(&summary);
    for record in &records {
        digest.update(record);
    }
    let kept = keep.then(|| {
        let mut kept = Kept {
            certs: certs.stats(),
            materialized: world.stats(),
            virtual_s: (summary.finished_unix - summary.started_unix) as f64,
            targets: population
                .hosts
                .iter()
                .map(|h| (h.address, h.port))
                .collect(),
            ..Kept::default()
        };
        kept.add_week(&records, &mut BTreeSet::new());
        kept.records = records;
        kept
    });
    Rep {
        wall_s: watch.wall_s,
        cpu_s: watch.cpu_s,
        addrs: spec.universe.size(),
        hosts: population.len() as u64,
        check,
        digest,
        kept,
    }
}

/// What a full campaign over the current week should observe.
fn truth_snapshot(week: u32, world: &EvolvingWorld) -> WeekSnapshot {
    WeekSnapshot {
        week,
        hosts: world
            .observable_truth()
            .into_iter()
            .map(|t| HostObservation {
                address: t.address,
                port: t.port,
                thumbprint: t.thumbprint,
                software_version: t.software_version,
            })
            .collect(),
    }
}

/// Sum of absolute field differences between two week deltas.
fn delta_distance(a: &WeekDelta, b: &WeekDelta) -> u64 {
    let fields = |d: &WeekDelta| {
        [
            d.hosts,
            d.new_hosts,
            d.vanished_hosts,
            d.stable_hosts,
            d.moved_hosts,
            d.renewed_certs,
            d.upgrades,
            d.downgrades,
        ]
    };
    fields(a)
        .iter()
        .zip(fields(b))
        .map(|(x, y)| x.abs_diff(y) as u64)
        .sum()
}

fn run_churn(
    spec: &Spec,
    seed: u64,
    world: &mut EvolvingWorld,
    campaign: &mut Campaign,
    tracer: &mut Tracer,
    keep: bool,
) -> Rep {
    let mut watch = Stopwatch::default();
    let mut longitudinal = LongitudinalAssessor::new();
    let mut check = Check::default();
    let mut digest = Digest::default();
    let mut kept = keep.then(Kept::default);
    let mut seen_ders = BTreeSet::new();
    let mut truth_prev: Option<WeekSnapshot> = None;
    let mut hosts = 0u64;

    for week in 0..spec.weeks {
        let (scan, report, delta) = watch.time(|| {
            let root = tracer.enter("campaign");
            let span = tracer.enter("scanner.scan");
            let scan = campaign.run_week(&[spec.universe], seed, |w| {
                if w > 0 {
                    let evolve = tracer.enter("population.evolve");
                    world.evolve(w);
                    tracer.exit(evolve);
                }
            });
            tracer.exit(span);
            let span = tracer.enter("assess.week");
            let report = assess(&scan.records);
            tracer.exit(span);
            let span = tracer.enter("longitudinal.fold_week");
            let delta = longitudinal.fold_week(&scan.records, &report).delta;
            tracer.exit(span);
            tracer.exit(root);
            (scan, report, delta)
        });

        // The clock has stopped: check the week against the truth.
        let truth = truth_snapshot(week, world);
        let targets = by_target(&scan.records);
        for host in &truth.hosts {
            check.host(&targets, host.address, host.port, host.thumbprint, week);
        }
        hosts += truth.hosts.len() as u64;
        let alive: Vec<_> = world.alive().collect();
        let none_mode = alive
            .iter()
            .filter(|d| {
                d.config
                    .endpoints
                    .iter()
                    .any(|e| e.mode == MessageSecurityMode::None)
            })
            .count();
        let anonymous = alive
            .iter()
            .filter(|d| d.config.token_types.contains(&UserTokenType::Anonymous))
            .count();
        check.count(
            week,
            Deficit::NoneModeOffered,
            report.count(Deficit::NoneModeOffered),
            none_mode,
        );
        check.count(
            week,
            Deficit::AnonymousAccess,
            report.count(Deficit::AnonymousAccess),
            anonymous,
        );
        if let Some(prev) = &truth_prev {
            let planted = diff(prev, &truth);
            let distance = delta_distance(&delta, &planted);
            if distance > 0 {
                check.fail(
                    distance,
                    format!("week {week}: churn delta {delta:?}, planted {planted:?}"),
                );
            }
        }

        digest.update(&scan.summary);
        for record in &scan.records {
            digest.update(record);
        }
        if let Some(kept) = kept.as_mut() {
            kept.add_week(&scan.records, &mut seen_ders);
            kept.virtual_s += (scan.summary.finished_unix - scan.summary.started_unix) as f64;
            if week + 1 == spec.weeks {
                kept.targets = truth.hosts.iter().map(|h| (h.address, h.port)).collect();
                kept.records = scan.records;
            }
        }
        truth_prev = Some(truth);
    }

    let series = watch.time(|| {
        let root = tracer.enter("campaign");
        let span = tracer.enter("longitudinal.finalize");
        let series = longitudinal.finalize();
        tracer.exit(span);
        tracer.exit(root);
        series
    });
    let last_hosts = series.weeks.last().map_or(0, |p| p.delta.hosts);
    if last_hosts != world.alive_count() {
        check.fail(
            last_hosts.abs_diff(world.alive_count()) as u64,
            format!(
                "final series week has {last_hosts} hosts, {} alive",
                world.alive_count()
            ),
        );
    }
    if let Some(kept) = kept.as_mut() {
        kept.certs = campaign.cert_stats();
        kept.materialized = world.stats();
    }
    Rep {
        wall_s: watch.wall_s,
        cpu_s: watch.cpu_s,
        addrs: spec.universe.size() * u64::from(spec.weeks),
        hosts,
        check,
        digest,
        kept,
    }
}
