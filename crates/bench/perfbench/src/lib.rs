//! # perfbench
//!
//! The repository benchmark. Each workload deploys a lazy paper-like
//! world, runs the campaign through the scanner's public entry points
//! (`Scanner::scan_with_certs`, or `Campaign::run_week` for the weekly
//! series) with streaming assessment, and times it from outside. Every
//! campaign is checked against the planted ground truth after its clock
//! stops.
//!
//! A timed run (`--trace 0`) repeats set-up plus campaign until its time
//! is spent and reports medians of the end-to-end metrics. A traced run
//! (`--trace 1`) alternates untraced and traced campaigns, records spans
//! around every call the benchmark makes into a layer, then replays each
//! layer's public functions on the workload's own inputs; it reports the
//! per-layer metrics and prints an attribution table.
//!
//! `README.md` beside this crate maps every per-layer metric to the
//! end-to-end metric and workload it should move.

pub mod replay;
pub mod sys;
pub mod trace;
pub mod workload;

use bench::Stats;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;
use workload::{deploy, Check, Digest, Kept, Rep, Spec, Workload, World};

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// What it measures, and for a per-layer metric the end-to-end
    /// metric and workload it should (or should not) move.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [MetricDef; 5] = [
    m(
        "setup_s",
        "s",
        "lower",
        "world deploy plus scanner/campaign construction, median of every set-up in the run",
    ),
    m(
        "addrs_per_s",
        "addr/s",
        "higher",
        "universe addresses swept, times weeks, per campaign wall second",
    ),
    m(
        "hosts_per_s",
        "host/s",
        "higher",
        "planted hosts probed and assessed, summed over weeks, per campaign wall second",
    ),
    m(
        "cpu_s",
        "s",
        "lower",
        "user+system CPU seconds of the process over one campaign",
    ),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "peak resident set of the process, which ran only this workload, through its first set-up and campaign",
    ),
];

/// Per-layer metrics (`--trace 1`). A metric that does not apply to a
/// workload reads 0.
pub const PER_LAYER: [MetricDef; 36] = [
    m("netsim.walk_ns_per_addr", "ns", "lower", "SynScanner::sweep_shard, no-op callback, one shard; moves addrs_per_s on sparse_sweep, not on dense_campaign"),
    m("netsim.walk_shard_speedup", "x", "higher", "one-shard walk wall over two shards on two threads; moves addrs_per_s and cpu_s on sparse_sweep"),
    m("netsim.addrs_walked", "count", "higher", "addresses one walk visited; guards against skipped addresses"),
    m("population.materialized", "count", "lower", "hosts the lazy world built during the campaign (MaterializationStats)"),
    m("population.keygens", "count", "lower", "RSA key generations during the campaign (MaterializationStats)"),
    m("population.synth_us_per_host", "us", "lower", "eager synthesize of the workload config per host, keygens included; moves hosts_per_s on dense_campaign (setup_s if moved into deploy), little on weekly_churn"),
    m("population.evolve_s", "s", "lower", "spans around EvolvingWorld::evolve per campaign; weekly_churn only"),
    m("crypto.keygen_ms_p50", "ms", "lower", "RsaPrivateKey::generate at the campaign's modulus sizes; moves hosts_per_s on dense_campaign"),
    m("crypto.batch_gcd_s", "s", "lower", "batch_gcd over each assessment's deduplicated moduli, summed; moves hosts_per_s on dense_campaign and weekly_churn, not on sparse_sweep"),
    m("crypto.moduli", "count", "lower", "moduli fed to batch_gcd, summed over weeks (base of crypto.batch_gcd_s)"),
    m("crypto.intern_miss_us", "us", "lower", "CertStore::intern of each distinct DER into a fresh store; moves hosts_per_s on dense_campaign"),
    m("crypto.intern_hit_us", "us", "lower", "CertStore::intern of the same DERs again; moves hosts_per_s on weekly_churn"),
    m("crypto.cert_hit_ratio", "share", "higher", "1 - distinct/sightings of the campaign's interner; moves hosts_per_s on weekly_churn"),
    m("crypto.cert_sightings", "count", "higher", "certificate sightings (base of crypto.cert_hit_ratio)"),
    m("scanner.uacp_us_p50", "us", "lower", "Scanner::probe_host with UacpProbe alone; moves hosts_per_s on weekly_churn then dense_campaign, not on sparse_sweep"),
    m("scanner.uacp_us_p99", "us", "lower", "as scanner.uacp_us_p50, 99th percentile"),
    m("scanner.discovery_us_p50", "us", "lower", "discovery_stack minus UacpProbe, per host; moves hosts_per_s on weekly_churn then dense_campaign"),
    m("scanner.discovery_us_p99", "us", "lower", "as scanner.discovery_us_p50, 99th percentile"),
    m("scanner.session_us_p50", "us", "lower", "default_stack minus discovery_stack, per host; moves hosts_per_s on weekly_churn then dense_campaign"),
    m("scanner.session_us_p99", "us", "lower", "as scanner.session_us_p50, 99th percentile"),
    m("scanner.scan_self_s", "s", "lower", "campaign scan span minus its evolve and fold children, per campaign; moves hosts_per_s everywhere"),
    m("scanner.record_gap_us_p50", "us", "lower", "wall gap between consecutive sink calls (discovery-order merge wait); moves hosts_per_s and peak_rss_mb on dense_campaign; single-campaign workloads only"),
    m("scanner.record_gap_us_p99", "us", "lower", "as scanner.record_gap_us_p50, 99th percentile"),
    m("scanner.rx_bytes_per_host", "B", "lower", "bytes received per record, over all weeks"),
    m("scanner.virtual_s", "s", "lower", "virtual seconds the campaign's scans spanned, summed over weeks"),
    m("assess.fold_us_p50", "us", "lower", "Assessor::fold per record; moves hosts_per_s on dense_campaign"),
    m("assess.fold_us_p99", "us", "lower", "as assess.fold_us_p50, 99th percentile"),
    m("assess.finalize_s", "s", "lower", "span around Assessor::finalize; moves hosts_per_s on dense_campaign; single-campaign workloads only"),
    m("assess.week_s_p50", "s", "lower", "span around the weekly assess(); moves hosts_per_s on weekly_churn only"),
    m("longitudinal.fold_week_ms_p50", "ms", "lower", "span around LongitudinalAssessor::fold_week; weekly_churn only"),
    m("trace.overhead_share", "share", "lower", "traced minus untraced campaign wall time, over untraced"),
    m("attr.walk_share", "share", "lower", "share of campaign wall: address walk and occupancy check (replay estimate)"),
    m("attr.materialize_share", "share", "lower", "share of campaign wall: lazy host materialization with keygen (replay estimate)"),
    m("attr.probe_share", "share", "lower", "share of campaign wall: scan self time left after walk and materialization"),
    m("attr.assess_share", "share", "lower", "share of campaign wall: assessment spans (fold, finalize, weekly assess)"),
    m("attr.churn_share", "share", "lower", "share of campaign wall: evolve plus longitudinal spans"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its inputs (full size, or toy size in tests).
    pub spec: Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to spend repeating campaigns.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No host failed and every digest matched.
    pub correct: bool,
    /// Planted hosts checked, over every campaign of the run.
    pub attempted: u64,
    /// Failed hosts (see `Check`), over every campaign of the run.
    pub failed: u64,
    /// Metric values, in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable report (everything but the JSON line).
    pub text: String,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|(_, v)| *v)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_num(*v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Worker threads per campaign: two where the host has them. Running at
/// one worker would hide the two-worker slowdown the scanner has today.
pub fn workers() -> usize {
    available_parallelism().min(2)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Campaigns a timed run repeats at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups timed before each campaign; the last one's world is used.
const SETUPS_PER_CAMPAIGN: usize = 5;
/// Untraced/traced campaign pairs a traced run makes at least.
const MIN_PAIRS: u32 = 2;

/// Accumulated verdicts over the campaigns of a run.
#[derive(Default)]
struct Verdict {
    check: Check,
    first_digest: Option<Digest>,
}

impl Verdict {
    fn absorb(&mut self, rep: &Rep) {
        let mut check = rep.check.clone();
        match self.first_digest {
            None => self.first_digest = Some(rep.digest),
            Some(first) if first != rep.digest => {
                // A campaign that does not repeat byte for byte failed wholesale.
                check.failed = check.planted;
                check.offenders.push(format!(
                    "record digest {} differs from the first campaign's {}",
                    rep.digest.short(),
                    first.short()
                ));
            }
            Some(_) => {}
        }
        self.check.absorb(check);
    }
}

/// Runs one workload and returns its outcome.
pub fn run(opts: &Options) -> Outcome {
    let mut text = String::new();
    let workers = workers();
    let _ = writeln!(
        text,
        "workload {}: {}",
        opts.workload.name(),
        opts.workload.why()
    );
    let _ = writeln!(
        text,
        "inputs: universe {} ({} addresses), paper_like({}), {} week(s); seed {}",
        opts.spec.universe,
        opts.spec.universe.size(),
        opts.spec.hosts,
        opts.spec.weeks,
        opts.seed
    );
    let _ = writeln!(
        text,
        "host: available_parallelism {}, workers {workers}, profile {}, run {} s, {}",
        available_parallelism(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        opts.seconds,
        if opts.trace { "traced" } else { "timed" }
    );
    let (verdict, metrics) = if opts.trace {
        run_traced(opts, workers, &mut text)
    } else {
        run_timed(opts, workers, &mut text)
    };
    let check = verdict.check;
    for line in check.offenders.iter().take(50) {
        let _ = writeln!(text, "OFFENDER {line}");
    }
    if check.offenders.len() > 50 {
        let _ = writeln!(text, "OFFENDER … {} more", check.offenders.len() - 50);
    }
    let _ = writeln!(
        text,
        "failed_share = {:.6} share ({} of {} planted host checks failed)",
        check.failed as f64 / check.planted.max(1) as f64,
        check.failed,
        check.planted
    );
    for (def, value) in &metrics {
        let _ = writeln!(
            text,
            "{} = {} {}  ({})",
            def.name, value, def.unit, def.about
        );
    }
    Outcome {
        correct: check.failed == 0,
        attempted: check.planted,
        failed: check.failed,
        metrics,
        text,
    }
}

fn timed_setup(opts: &Options, workers: usize) -> (f64, World) {
    bench::time(|| deploy(opts.workload, &opts.spec, opts.seed, workers))
}

fn run_timed(
    opts: &Options,
    workers: usize,
    text: &mut String,
) -> (Verdict, Vec<(MetricDef, f64)>) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut reps: Vec<Rep> = Vec::new();
    let mut verdict = Verdict::default();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        // Set-ups are spread over the run, between campaigns: the cores
        // of a shared host can differ in speed, and a batch would time
        // whichever core the process happened to sit on.
        let mut world = None;
        for _ in 0..SETUPS_PER_CAMPAIGN {
            let (setup_s, w) = timed_setup(opts, workers);
            setups.push(setup_s);
            world = Some(w);
        }
        let mut world = world.expect("at least one set-up");
        let rep = world.run(&mut Tracer::off(), false);
        if reps.is_empty() {
            // Peak memory of one campaign, as a process running only it
            // sees. Later campaigns' worker threads sometimes get an extra
            // malloc arena, which keeps a few MB more resident for the
            // rest of the process.
            peak_rss_mb = sys::peak_rss_mb();
        }
        drop(world);
        let _ = writeln!(
            text,
            "campaign {}: wall {:.4} s, cpu {:.2} s, digest {}, {} failed",
            reps.len(),
            rep.wall_s,
            rep.cpu_s,
            rep.digest.short(),
            rep.check.failed
        );
        verdict.absorb(&rep);
        reps.push(rep);
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let values = [
        median(&setups),
        per_rep(&|r| r.addrs as f64 / r.wall_s),
        per_rep(&|r| r.hosts as f64 / r.wall_s),
        per_rep(&|r| r.cpu_s),
        peak_rss_mb,
    ];
    let _ = writeln!(
        text,
        "{} campaigns, {} set-ups; medians reported",
        reps.len(),
        setups.len()
    );
    (verdict, END_TO_END.iter().copied().zip(values).collect())
}

/// Median of per-run sums of `name`'s durations (self time if `own`).
fn per_run_median(tracer: &Tracer, name: &str, own: bool, runs: u32) -> f64 {
    let own_secs = tracer.self_secs();
    let mut sums = vec![0.0; runs as usize];
    for (span, own_s) in tracer.spans().iter().zip(&own_secs) {
        if span.name == name {
            sums[span.run as usize] += if own { *own_s } else { span.secs() };
        }
    }
    median(&sums)
}

fn run_traced(
    opts: &Options,
    workers: usize,
    text: &mut String,
) -> (Verdict, Vec<(MetricDef, f64)>) {
    let start = Instant::now();
    let mut tracer = Tracer::on();
    let mut verdict = Verdict::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut kept: Option<(World, Kept)> = None;
    let mut runs = 0u32;
    while runs < MIN_PAIRS || start.elapsed().as_secs_f64() < opts.seconds {
        // Alternate which side of the pair runs first, so a process
        // warming up does not bias the tracing overhead.
        for traced_turn in [!runs.is_multiple_of(2), runs.is_multiple_of(2)] {
            let (_, mut world) = timed_setup(opts, workers);
            if traced_turn {
                tracer.set_run(runs);
                let mut rep = world.run(&mut tracer, kept.is_none());
                verdict.absorb(&rep);
                traced.push(rep.wall_s);
                if let Some(k) = rep.kept.take() {
                    kept = Some((world, k));
                }
            } else {
                let rep = world.run(&mut Tracer::off(), false);
                verdict.absorb(&rep);
                untraced.push(rep.wall_s);
            }
        }
        runs += 1;
    }
    let (world, kept) = kept.expect("at least one traced campaign");
    let _ = writeln!(
        text,
        "{runs} untraced/traced campaign pairs: untraced median {:.4} s, traced median {:.4} s",
        median(&untraced),
        median(&traced)
    );
    let layers = Replays::run(opts, &world, &kept, workers);
    drop(world);
    let _ = writeln!(
        text,
        "replay samples: walk {} pairs, keygen {} at {:?} bits, probe {} per stack, fold {}, \
         record gaps {}; eager synth {} hosts",
        layers.walk_pairs,
        layers.keygens,
        layers.bits,
        layers.uacp.n,
        layers.fold.n,
        tracer.sink_gaps_us().len(),
        layers.synth_hosts
    );
    let split = Split::of(opts, workers, &tracer, runs, &kept, &layers);
    split.print(opts.workload, text);

    let gaps = Stats::of(&tracer.sink_gaps_us());
    let certs = kept.certs;
    let _ = writeln!(
        text,
        "cert sightings {} over {} distinct",
        certs.sightings, certs.distinct
    );
    // Spans of one workload kind only: the others' medians read 0.
    let values = [
        layers.walk_1 * 1e9 / layers.addrs_walked.max(1) as f64,
        layers.walk_1 / layers.walk_2,
        layers.addrs_walked as f64,
        kept.materialized.hosts_materialized as f64,
        kept.materialized.keygen_count as f64,
        layers.synth_us,
        per_run_median(&tracer, "population.evolve", false, runs),
        layers.keygen_ms_p50,
        layers.batch_gcd_s,
        layers.moduli as f64,
        layers.intern_miss_us,
        layers.intern_hit_us,
        certs.hit_rate(),
        certs.sightings as f64,
        layers.uacp.p50,
        layers.uacp.p99,
        layers.discovery.p50,
        layers.discovery.p99,
        layers.session.p50,
        layers.session.p99,
        per_run_median(&tracer, "scanner.scan", true, runs),
        gaps.p50,
        gaps.p99,
        kept.rx_bytes as f64 / kept.records_total.max(1) as f64,
        kept.virtual_s,
        layers.fold.p50,
        layers.fold.p99,
        median(&tracer.durations("assess.finalize")),
        median(&tracer.durations("assess.week")),
        median(&tracer.durations("longitudinal.fold_week")) * 1e3,
        (median(&traced) - median(&untraced)) / median(&untraced),
        split.share(split.walk),
        split.share(split.materialize),
        split.share(split.probe),
        split.share(split.assess),
        split.share(split.evolve + split.longitudinal),
    ];
    write_spans(opts, &tracer, text);
    // `+ 0.0` turns a negative zero into zero.
    (
        verdict,
        PER_LAYER
            .iter()
            .copied()
            .zip(values.map(|v| v + 0.0))
            .collect(),
    )
}

/// The layer replays of a traced run.
struct Replays {
    walk_pairs: usize,
    walk_1: f64,
    walk_2: f64,
    addrs_walked: u64,
    synth_us: f64,
    synth_hosts: usize,
    bits: Vec<usize>,
    keygens: usize,
    keygen_ms_p50: f64,
    batch_gcd_s: f64,
    moduli: usize,
    intern_miss_us: f64,
    intern_hit_us: f64,
    uacp: Stats,
    discovery: Stats,
    session: Stats,
    fold: Stats,
}

impl Replays {
    /// Replays every layer on the kept campaign's inputs; `world` is
    /// that campaign's world, its hosts already materialized.
    fn run(opts: &Options, world: &World, kept: &Kept, workers: usize) -> Replays {
        // Walks at one and two shards, alternating, for at least a second.
        let (mut walk1, mut walk2, mut addrs_walked) = (Vec::new(), Vec::new(), 0);
        let start = Instant::now();
        while walk1.len() < 3 || (start.elapsed().as_secs_f64() < 1.0 && walk1.len() < 25) {
            let (t1, addrs) = replay::walk(&opts.spec, opts.seed, 1);
            let (t2, addrs2) = replay::walk(&opts.spec, opts.seed, 2);
            assert_eq!(addrs, addrs2, "sharded walk visits the same addresses");
            walk1.push(t1);
            walk2.push(t2);
            addrs_walked = addrs;
        }

        let (synth_us, synth_hosts) = replay::synth_us_per_host(&opts.spec, opts.seed);
        // Keygens at the modulus sizes the campaign actually served.
        let mut bits: Vec<usize> = kept
            .moduli_per_call
            .iter()
            .flatten()
            .map(|n| n.bit_length())
            .collect();
        bits.sort_unstable();
        bits.dedup();
        let keygen = replay::keygen_ms(&bits, 200 / bits.len().max(1), opts.seed);
        let (intern_miss_us, intern_hit_us) = replay::intern_us(&kept.ders);

        let targets: Vec<_> = kept.targets.iter().copied().take(1500).collect();
        let rounds = 1000usize.div_ceil(targets.len().max(1));
        let [uacp, discovery, session] =
            replay::probe_stacks(world.net(), &targets, rounds, opts.seed, workers);
        let rounds = 1000usize.div_ceil(kept.records.len().max(1));
        let fold = replay::fold_us(&kept.records, rounds);
        Replays {
            walk_pairs: walk1.len(),
            walk_1: median(&walk1),
            walk_2: median(&walk2),
            addrs_walked,
            synth_us,
            synth_hosts,
            keygens: keygen.len(),
            keygen_ms_p50: median(&keygen),
            bits,
            batch_gcd_s: replay::batch_gcd_s(&kept.moduli_per_call),
            moduli: kept.moduli_per_call.iter().map(Vec::len).sum(),
            intern_miss_us,
            intern_hit_us,
            uacp: Stats::of(&uacp),
            discovery: Stats::of(&discovery),
            session: Stats::of(&session),
            fold: Stats::of(&fold),
        }
    }
}

/// Where one traced campaign's wall time went, in seconds: measured
/// spans, with the scan span's self time split by replay estimates.
struct Split {
    wall: f64,
    walk: f64,
    materialize: f64,
    keygen: f64,
    probe: f64,
    assess: f64,
    batch_gcd: f64,
    evolve: f64,
    longitudinal: f64,
    glue: f64,
}

impl Split {
    fn of(
        opts: &Options,
        workers: usize,
        tracer: &Tracer,
        runs: u32,
        kept: &Kept,
        layers: &Replays,
    ) -> Split {
        let n = f64::from(runs);
        let by_layer = tracer.self_by_layer("campaign");
        let layer = |name: &str| -> f64 {
            by_layer
                .iter()
                .filter(|(l, _)| *l == name)
                .map(|(_, s)| s)
                .sum::<f64>()
                / n
        };
        let workers_f = workers as f64;
        // The campaign walks its shards on `workers` threads.
        let walk = if workers >= 2 {
            layers.walk_2
        } else {
            layers.walk_1
        };
        let walk = walk * f64::from(opts.spec.weeks);
        let materialize =
            kept.materialized.hosts_materialized as f64 * layers.synth_us * 1e-6 / workers_f;
        Split {
            wall: tracer.durations("campaign").iter().sum::<f64>() / n,
            walk,
            materialize,
            keygen: kept.materialized.keygen_count as f64 * layers.keygen_ms_p50 * 1e-3 / workers_f,
            probe: layer("scanner") - walk - materialize,
            assess: layer("assess"),
            batch_gcd: layers.batch_gcd_s,
            evolve: layer("population"),
            longitudinal: layer("longitudinal"),
            glue: layer("campaign"),
        }
    }

    fn share(&self, secs: f64) -> f64 {
        if self.wall > 0.0 {
            secs / self.wall
        } else {
            0.0
        }
    }

    fn print(&self, workload: Workload, text: &mut String) {
        let mut rows = vec![
            (
                "netsim: address walk + occupancy",
                self.walk,
                "replay: walk at the campaign's shard count",
            ),
            (
                "population: lazy materialization",
                self.materialize,
                "replay: eager synth per host x materialized / workers",
            ),
            (
                "  of which ua-crypto keygen",
                self.keygen,
                "replay: keygen p50 x keygens / workers",
            ),
            (
                "scanner: probes, codecs, merge",
                self.probe,
                "span: scan self minus the two rows above",
            ),
            ("assessment: fold/finalize/assess", self.assess, "span"),
            (
                "  of which ua-crypto batch GCD",
                self.batch_gcd,
                "replay: batch_gcd on the campaign's moduli",
            ),
        ];
        if workload.is_longitudinal() {
            rows.push(("population: evolve", self.evolve, "span"));
            rows.push((
                "longitudinal: fold_week/finalize",
                self.longitudinal,
                "span",
            ));
        }
        rows.push(("benchmark: between spans", self.glue, "span"));
        let _ = writeln!(
            text,
            "attribution of {:.4} s campaign wall (per traced campaign):",
            self.wall
        );
        for (name, secs, source) in rows {
            let _ = writeln!(
                text,
                "  {name:<36} {secs:>9.4} s {:>7.1} %   {source}",
                100.0 * self.share(secs)
            );
        }
        let (expected, dominant) = match workload {
            Workload::SparseSweep => ("walk", self.walk),
            Workload::DenseCampaign => (
                "materialization + probe + assessment",
                self.materialize + self.probe + self.assess,
            ),
            Workload::WeeklyChurn => ("probe + weekly assessment", self.probe + self.assess),
        };
        let dominant = self.share(dominant);
        let _ = writeln!(
            text,
            "expected split: {expected} dominates: {:.1} % of campaign wall [{}]",
            100.0 * dominant,
            if dominant >= 0.5 {
                "agrees"
            } else {
                "DISAGREES"
            }
        );
    }
}

/// Writes the spans next to the benchmark executable (inside the build
/// directory of the checkout).
fn write_spans(opts: &Options, tracer: &Tracer, text: &mut String) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!(
        "spans-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    match std::fs::write(&path, tracer.to_tsv()) {
        Ok(()) => {
            let _ = writeln!(
                text,
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
        Err(e) => {
            let _ = writeln!(text, "spans not written to {}: {e}", path.display());
        }
    }
}
