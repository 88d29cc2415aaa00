//! The scan engine's scheduling core: the worker pool with its ordered
//! merge, cooperative cancellation, and the checkpoint an aborted scan
//! resumes from.
//!
//! [`crate::Scanner`] drives every phase of a campaign — each suite's
//! sweep and each breadth-first referral level — through one pool:
//!
//! * [`crate::ScanConfig::workers`] scoped threads claim work in
//!   increasing key order (sweep threads claim chunks of the
//!   permutation walk, [`netsim::SweepChunks`]; referral threads claim
//!   the next target of the level) and run the blocking probe stack on
//!   a private [`netsim::VirtualClock`] fork per target, so record
//!   contents are a pure function of `(host, port, seed, epoch)`;
//! * each thread hands its results, sorted by key (walk step or level
//!   index), to the calling thread through a bounded buffer, which holds
//!   a thread back when the record sink is slow;
//! * the calling thread merges the streams back into global key order,
//!   so the emitted stream is byte-identical at any worker count;
//! * a [`CancelToken`] is checked after every emitted sweep record and
//!   between referral levels, and polled by sweep threads once per
//!   claimed chunk; an aborted scan reports a [`SweepCheckpoint`] at its
//!   last emitted record, and resuming from it reproduces the
//!   uninterrupted stream.

use crate::pipeline::{FaultStats, ReferralStats};
use netsim::{Ipv4, SweepStats};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc};

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// Runs `work` on `workers` scoped threads and feeds `emit`, on the
/// calling thread, every `(key, item)` the threads hand over, in
/// ascending key order, until `emit` returns false. Returns what each
/// thread's `work` returned.
///
/// Each thread must hand over its items in increasing key order, and
/// keys must be unique across threads; a thread's buffer holds at most
/// `capacity` items. The merge emits the smallest buffered head, so it
/// never emits a key while a thread that could still produce a smaller
/// one is running.
pub(crate) fn ordered_pool<T, R>(
    workers: usize,
    capacity: usize,
    work: impl Fn(&mut dyn FnMut(u64, T)) -> R + Sync,
    mut emit: impl FnMut(u64, T) -> bool,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    std::thread::scope(|scope| {
        let work = &work;
        let (handles, rxs): (Vec<_>, Vec<_>) = (0..workers)
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel::<(u64, T)>(capacity);
                // A send fails only after the merge stopped early; the
                // item is then no longer wanted.
                let handle = scope.spawn(move || {
                    work(&mut |key, item| {
                        let _ = tx.send((key, item));
                    })
                });
                (handle, rx)
            })
            .unzip();
        let mut heads: Vec<Option<(u64, T)>> = rxs.iter().map(|rx| rx.recv().ok()).collect();
        while let Some(next) = heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| head.as_ref().map(|(key, _)| (*key, i)))
            .min()
            .map(|(_, i)| i)
        {
            // ua-lint: allow(panic-hygiene) -- `next` was selected because this head is Some
            let (key, item) = heads[next].take().expect("head present");
            if !emit(key, item) {
                break;
            }
            heads[next] = rxs[next].recv().ok();
        }
        // Unblock threads waiting on a full buffer before joining them.
        drop(rxs);
        handles
            .into_iter()
            // ua-lint: allow(panic-hygiene) -- re-raise a worker panic on the coordinating thread
            .map(|handle| handle.join().expect("scan worker panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation flag shared between a scan driver and
/// whoever wants to abort it.
///
/// Clones share the flag (the token is a handle, not the state). The
/// scan engine checks [`is_cancelled`] at safe points — after every
/// emitted sweep record, once per claimed sweep chunk in each worker,
/// and at referral-level boundaries — so cancellation is prompt but
/// never lands anywhere the checkpoint could not describe.
///
/// Cancellation composes with determinism: an aborted sweep reports a
/// [`SweepCheckpoint`], and resuming from it reproduces the exact byte
/// stream an uninterrupted run would have produced (see
/// [`crate::Scanner::scan_resumable`]).
///
/// ```
/// use scanner::CancelToken;
///
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
///
/// [`is_cancelled`]: CancelToken::is_cancelled
#[derive(Debug, Clone)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    /// Remaining record budget; negative means "no budget armed".
    budget: Arc<AtomicI64>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`] is called.
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            budget: Arc::new(AtomicI64::new(-1)),
        }
    }

    /// A token that cancels itself once `n` records have been emitted
    /// by the scan it is passed to — the deterministic abort hook:
    /// "stop after record 2 000" lands on the same record for the same
    /// seed every run, which is what lets CI abort a sweep at ~50% and
    /// diff the stitched abort+resume output byte-for-byte against an
    /// uninterrupted run. `n = 0` is cancelled from the start.
    pub fn after_records(n: u64) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(n == 0)),
            budget: Arc::new(AtomicI64::new(n.min(i64::MAX as u64) as i64)),
        }
    }

    /// Raises the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`] was called (or a record budget ran out).
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Consumes one unit of the record budget, cancelling when it hits
    /// zero. The scan engine calls this once per emitted record; a
    /// token built with [`CancelToken::new`] ignores it.
    pub fn notch(&self) {
        if self.budget.load(Ordering::SeqCst) < 0 {
            return;
        }
        if self.budget.fetch_sub(1, Ordering::SeqCst) <= 1 {
            self.cancel();
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A referral URL harvested from an emitted record but not yet
/// classified — the unit of the referral frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingUrl {
    /// Host whose record announced the URL.
    pub from: Ipv4,
    /// The announced `opc.tcp://…` URL, verbatim.
    pub url: String,
    /// Referral depth the URL would be followed at.
    pub depth: u32,
}

/// Everything needed to resume an aborted scan deterministically.
///
/// The checkpoint captures the scan at its last emitted record: every
/// record emitted before the abort is final, and everything probed but
/// not yet emitted is discarded — fork clocks and all — and re-probed
/// from scratch on resume. Because record contents are a pure function
/// of `(host, port, seed, epoch)` and emission order is the
/// permutation-walk order, the stitched stream
/// `aborted-run records ++ resumed-run records` is byte-identical to an
/// uninterrupted run.
///
/// One deliberate exception: the campaign-wide certificate interner
/// ([`ua_crypto::CertStore`]) counts *work performed*, so certificates
/// captured by probes that were later discarded are sighted again on
/// re-probe. `certs.sightings` in the final summary is therefore
/// telemetry, not part of the byte-identity contract; every other
/// summary field (sweep stats, referral stats, host counts,
/// timestamps) stitches exactly.
///
/// Checkpoints are plain data — every field is public and printable —
/// so drivers can persist them however they like.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Seed the scan was started with; resuming asserts it matches.
    pub seed: u64,
    /// The campaign epoch (µs): the frozen instant every probe forks
    /// its private clock from. Resume reconstructs it with
    /// [`netsim::VirtualClock::starting_at_micros`].
    pub epoch_micros: u64,
    /// `started_unix` the final summary must report.
    pub started_unix: i64,
    /// Index (into [`crate::probe::ScanConfig::effective_suites`]) of
    /// the suite phase the abort landed in; earlier phases are complete
    /// and resume skips them entirely.
    pub suite_cursor: usize,
    /// True when the current phase's sweep finished and only its
    /// referral levels remain.
    pub sweep_done: bool,
    /// First walk step of the current phase's sweep that resume sweeps:
    /// the walk step of the phase's last emitted record plus one (0
    /// before its first record). Every earlier step is settled.
    pub next_step: u64,
    /// Sweep counters of the finished phases plus the settled steps
    /// (`< next_step`) of the current one.
    pub sweep_stats: SweepStats,
    /// OPC UA speakers among emitted records so far.
    pub opcua_hosts: u64,
    /// Emitted records that failed the UACP hello.
    pub non_opcua_hosts: u64,
    /// Per-host probe time (µs) of *emitted* records only — discarded
    /// probes never charge the campaign clock.
    pub probe_micros: u64,
    /// Referral URLs harvested from emitted records, not yet followed.
    pub frontier: Vec<PendingUrl>,
    /// Referral-phase counters so far, campaign-wide: the referral
    /// budget is spent across every suite phase.
    pub referral_stats: ReferralStats,
    /// Connect-phase fault/retry counters over emitted records so far —
    /// resumed hostile sweeps stitch their [`crate::FaultStats`] exactly
    /// like the host counts.
    pub fault_stats: FaultStats,
    /// `(address, port)` pairs the current phase already probed via
    /// referral.
    pub probed_referrals: BTreeSet<(Ipv4, u16)>,
}

impl SweepCheckpoint {
    /// The state of a scan that has not emitted anything yet, starting
    /// at `epoch_micros`.
    pub(crate) fn start(seed: u64, epoch_micros: u64, started_unix: i64) -> Self {
        SweepCheckpoint {
            seed,
            epoch_micros,
            started_unix,
            suite_cursor: 0,
            sweep_done: false,
            next_step: 0,
            sweep_stats: SweepStats::default(),
            opcua_hosts: 0,
            non_opcua_hosts: 0,
            probe_micros: 0,
            frontier: Vec::new(),
            referral_stats: ReferralStats::default(),
            fault_stats: FaultStats::default(),
            probed_referrals: BTreeSet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn token_cancels_and_shares() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        // notch is a no-op without a budget.
        let t = CancelToken::new();
        for _ in 0..10 {
            t.notch();
        }
        assert!(!t.is_cancelled());
    }

    #[test]
    fn token_budget_cancels_after_n_notches() {
        let token = CancelToken::after_records(3);
        token.notch();
        assert!(!token.is_cancelled());
        token.notch();
        assert!(!token.is_cancelled());
        token.notch();
        assert!(token.is_cancelled());
    }

    #[test]
    fn zero_record_budget_starts_cancelled() {
        let token = CancelToken::after_records(0);
        assert!(token.is_cancelled());
        token.notch();
        assert!(token.is_cancelled());
        // A budget of one still lets exactly one record through.
        let token = CancelToken::after_records(1);
        assert!(!token.is_cancelled());
        token.notch();
        assert!(token.is_cancelled());
    }

    #[test]
    fn ordered_pool_at_capacity_one_neither_deadlocks_nor_reorders() {
        // Eight workers, each holding at most one item ahead of the
        // merge, interleave their keys: worker w hands over w, w + 8, ….
        const WORKERS: u64 = 8;
        const ITEMS: u64 = 400;
        let next_worker = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let work = |send: &mut dyn FnMut(u64, u64)| {
            let w = next_worker.fetch_add(1, Ordering::SeqCst);
            for key in (w..ITEMS).step_by(WORKERS as usize) {
                send(key, key * 10);
            }
            finished.fetch_add(1, Ordering::SeqCst);
            w
        };

        // A slow sink: the workers keep blocking on their full buffers.
        let mut emitted = Vec::new();
        let mut workers = ordered_pool(WORKERS as usize, 1, work, |key, item| {
            assert_eq!(item, key * 10);
            std::thread::yield_now();
            emitted.push(key);
            true
        });
        assert_eq!(emitted, (0..ITEMS).collect::<Vec<_>>());
        workers.sort_unstable();
        assert_eq!(workers, (0..WORKERS).collect::<Vec<_>>());
        assert_eq!(finished.load(Ordering::SeqCst), WORKERS);
    }

    #[test]
    fn ordered_pool_stopped_early_releases_and_joins_every_worker() {
        // Eight workers at capacity 1, and a sink that stops at key 20:
        // workers blocked on a full buffer are released, run to the end
        // of their work, and every one of them is joined.
        const WORKERS: u64 = 8;
        let next_worker = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let mut emitted = Vec::new();
        let workers = ordered_pool(
            WORKERS as usize,
            1,
            |send| {
                let w = next_worker.fetch_add(1, Ordering::SeqCst);
                for key in (w..400).step_by(WORKERS as usize) {
                    send(key, ());
                }
                finished.fetch_add(1, Ordering::SeqCst);
            },
            |key, ()| {
                emitted.push(key);
                key < 20
            },
        );
        assert_eq!(emitted, (0..=20).collect::<Vec<_>>());
        assert_eq!(workers.len(), WORKERS as usize);
        assert_eq!(finished.load(Ordering::SeqCst), WORKERS);
    }
}
