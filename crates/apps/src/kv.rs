//! Distributed transactional key-value store over `fompi-txn`.
//!
//! The data-analytics motif, upgraded from single-element CAS inserts
//! (see [`crate::hashtable`]) to *multi-key transactions*: each rank owns
//! a fixed-size open-addressed bucket table of versioned cells (8-byte
//! seqlock version word + 16-byte payload `[key | value]`), and every
//! operation — point read, additive upsert, two-key transfer — runs as an
//! optimistic transaction through [`fompi_txn::run`]. Keys hash to an
//! owner rank and a home bucket; collisions probe linearly within the
//! owner. Key 0 is the empty-cell sentinel, so client keys start at 1.
//!
//! The serving driver ([`serve`]) plays a simulated client population:
//! after a deterministic warm-up that inserts the hot head of the
//! keyspace, each rank issues a mixed read/upsert/transfer stream with
//! Zipf-skewed key popularity (the usual KV-serving skew model, sampled
//! from the in-repo SplitMix64 generator). Because upserts are *additive*
//! and transfers conserve value, the final table contents are
//! schedule-independent: any interleaving of committed transactions sums
//! to the same per-key values, which is what makes the CI smoke artifact
//! byte-diffable and the conservation check exact.

use crate::splitmix64;
use fompi::Win;
use fompi_fabric::rng::Rng;
use fompi_runtime::RankCtx;
use fompi_txn::{run_with, RetryPolicy, Txn, TxnError, TxnSets, VersionedCell};
use std::cell::RefCell;

/// Bytes per bucket: version word + `[key | value]` payload.
pub const CELL: usize = 24;
const PAYLOAD: usize = 16;

/// Store geometry and workload shape.
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Buckets in each rank's local volume.
    pub buckets_per_rank: usize,
    /// Client keys are drawn from `1..=keyspace`.
    pub keyspace: u64,
    /// Zipf skew of the mixed workload (0 = uniform; 0.99 = classic
    /// serving skew).
    pub theta: f64,
    /// Keys inserted per rank during warm-up (round-robin over the
    /// keyspace head, so the Zipf-hot ids are present before serving).
    pub warm_per_rank: usize,
    /// Operations per rank in the mixed phase.
    pub ops_per_rank: usize,
    /// Out of 100: reads per 100 ops; the rest split between upserts and
    /// transfers.
    pub read_pct: u32,
    /// Out of 100: transfers per 100 ops.
    pub transfer_pct: u32,
    /// Probe-chain cap: a key whose chain holds this many other keys is
    /// refused with [`TxnError::Full`].
    pub max_probe: usize,
    /// Workload seed (key streams, op mix, jitter).
    pub seed: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        Self {
            buckets_per_rank: 1024,
            keyspace: 16_384,
            theta: 0.99,
            warm_per_rank: 256,
            ops_per_rank: 512,
            read_pct: 70,
            transfer_pct: 10,
            max_probe: 64,
            seed: 42,
        }
    }
}

/// Zipf-skewed key sampler: continuous-CDF approximation
/// `rank = N · u^(1/(1-θ))` on a SplitMix64 uniform draw. Exact for
/// θ = 0 (uniform) and a close, monotone fit for the serving-skew range
/// θ ∈ (0, 1); key ids are 1-based with id 1 the hottest.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    exponent: f64,
}

impl Zipf {
    /// Sampler over `1..=n` with skew `theta ∈ [0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "empty keyspace");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        Zipf { n, exponent: 1.0 / (1.0 - theta) }
    }

    /// Draw one key id.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let k = (self.n as f64 * u.powf(self.exponent)) as u64;
        k.min(self.n - 1) + 1
    }
}

/// The distributed table: a window of versioned bucket cells per rank.
pub struct KvStore {
    /// The table window (callers manage the `lock_all` epoch).
    pub win: Win,
    cfg: KvConfig,
    p: usize,
    /// The read set, write set and payload bytes every operation's
    /// transaction reuses, so a warm operation allocates nothing.
    sets: RefCell<TxnSets>,
}

/// One probe outcome inside a transaction.
enum Slot {
    /// The key is present with this value.
    Found(VersionedCell, u64),
    /// The key is absent: the first empty cell of its probe chain, or
    /// `None` if the chain holds `max_probe` other keys.
    Absent(Option<VersionedCell>),
}

impl KvStore {
    /// Allocate this rank's volume: window memory starts zeroed, so every
    /// cell is an empty version-0 cell already. Collective; ends with a
    /// barrier, so the store is servable (after `lock_all`) on return.
    pub fn allocate(ctx: &RankCtx, cfg: KvConfig) -> KvStore {
        let win = Win::allocate(ctx, cfg.buckets_per_rank * CELL, 1).expect("kv window");
        ctx.barrier();
        KvStore { win, cfg, p: ctx.size(), sets: RefCell::default() }
    }

    /// Rank owning `key`.
    pub fn owner_of(&self, key: u64) -> u32 {
        (splitmix64(key ^ 0x04_11E5) % self.p as u64) as u32
    }

    fn cell(&self, owner: u32, slot: usize) -> VersionedCell {
        VersionedCell::new(owner, slot * CELL, PAYLOAD)
    }

    /// Walk `key`'s probe chain inside `txn` until the key or an empty
    /// cell turns up. Every probed cell joins the read set, so a commit
    /// certifies the whole chain — a racing insert into a probed slot
    /// aborts us instead of corrupting the chain. A chain of
    /// `max_probe` cells holding other keys proves the key absent, with
    /// nowhere to put it.
    fn probe(&self, txn: &mut Txn, key: u64) -> Result<Slot, TxnError> {
        assert!(key != 0, "key 0 is the empty sentinel");
        let owner = self.owner_of(key);
        let home = (splitmix64(key ^ 0x5107) % self.cfg.buckets_per_rank as u64) as usize;
        let mut buf = [0u8; PAYLOAD];
        let chain = self.cfg.max_probe.min(self.cfg.buckets_per_rank);
        for i in 0..chain {
            let cell = self.cell(owner, (home + i) % self.cfg.buckets_per_rank);
            txn.read(cell, &mut buf)?;
            let k = u64::from_le_bytes(buf[..8].try_into().unwrap());
            if k == key {
                return Ok(Slot::Found(cell, u64::from_le_bytes(buf[8..].try_into().unwrap())));
            }
            if k == 0 {
                return Ok(Slot::Absent(Some(cell)));
            }
        }
        Ok(Slot::Absent(None))
    }

    fn stage(txn: &mut Txn, cell: VersionedCell, key: u64, value: u64) -> Result<(), TxnError> {
        let mut payload = [0u8; PAYLOAD];
        payload[..8].copy_from_slice(&key.to_le_bytes());
        payload[8..].copy_from_slice(&value.to_le_bytes());
        txn.write(cell, &payload)
    }

    /// Transactional point read: the committed snapshot's value, or
    /// `None` if absent.
    pub fn get(
        &self,
        policy: &RetryPolicy,
        rng: &mut Rng,
        key: u64,
    ) -> Result<Option<u64>, TxnError> {
        run_with(&self.win, &mut self.sets.borrow_mut(), policy, rng, |txn| {
            Ok(match self.probe(txn, key)? {
                Slot::Found(_, v) => Some(v),
                Slot::Absent(_) => None,
            })
        })
    }

    /// Additive upsert: `value += delta`, inserting at `delta` if the key
    /// is absent ([`TxnError::Full`] if its probe chain has no room for
    /// it). Returns the value the commit published. Additivity
    /// makes concurrent upserts commute — the final table is the same for
    /// every schedule.
    pub fn upsert(
        &self,
        policy: &RetryPolicy,
        rng: &mut Rng,
        key: u64,
        delta: u64,
    ) -> Result<u64, TxnError> {
        run_with(&self.win, &mut self.sets.borrow_mut(), policy, rng, |txn| {
            let (cell, new) = match self.probe(txn, key)? {
                Slot::Found(cell, v) => (cell, v.wrapping_add(delta)),
                Slot::Absent(Some(cell)) => (cell, delta),
                // The table was sized too small for its keys: no retry helps.
                Slot::Absent(None) => {
                    let probed = self.cfg.max_probe.min(self.cfg.buckets_per_rank);
                    return Err(TxnError::Full { target: self.owner_of(key), probed });
                }
            };
            Self::stage(txn, cell, key, new)?;
            Ok(new)
        })
    }

    /// Two-key transactional transfer: atomically move `amount` from
    /// `from` to `to` (wrapping). `Ok(false)` if either key is absent —
    /// validated but unwritten, so the table is untouched.
    pub fn transfer(
        &self,
        policy: &RetryPolicy,
        rng: &mut Rng,
        from: u64,
        to: u64,
        amount: u64,
    ) -> Result<bool, TxnError> {
        assert_ne!(from, to, "transfer endpoints must differ");
        run_with(&self.win, &mut self.sets.borrow_mut(), policy, rng, |txn| {
            let a = self.probe(txn, from)?;
            let b = self.probe(txn, to)?;
            let (Slot::Found(ca, va), Slot::Found(cb, vb)) = (a, b) else {
                return Ok(false);
            };
            Self::stage(txn, ca, from, va.wrapping_sub(amount))?;
            Self::stage(txn, cb, to, vb.wrapping_add(amount))?;
            Ok(true)
        })
    }

    /// Post-run scan of this rank's volume (local reads; quiescent-point
    /// only): `(occupied cells, value sum, commutative content hash)`.
    /// The hash folds per-cell `splitmix64(key ^ splitmix64(value))` with
    /// XOR, so it is independent of both bucket placement and scan order —
    /// equal across runs whenever the committed *contents* are equal.
    pub fn local_digest(&self) -> (u64, u64, u64) {
        let (mut occupied, mut sum, mut hash) = (0u64, 0u64, 0u64);
        let mut b = [0u8; 8];
        for slot in 0..self.cfg.buckets_per_rank {
            self.win.read_local(slot * CELL + 8, &mut b);
            let key = u64::from_le_bytes(b);
            if key == 0 {
                continue;
            }
            self.win.read_local(slot * CELL + 16, &mut b);
            let value = u64::from_le_bytes(b);
            occupied += 1;
            sum = sum.wrapping_add(value);
            hash ^= splitmix64(key ^ splitmix64(value));
        }
        (occupied, sum, hash)
    }
}

/// One rank's serving tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct KvServeStats {
    /// Point reads issued (mixed phase).
    pub reads: u64,
    /// Reads that found their key.
    pub hits: u64,
    /// Upserts committed (warm-up + mixed phase).
    pub upserts: u64,
    /// Two-key transfers committed.
    pub transfers: u64,
    /// Value this rank added to the table (sum of committed deltas;
    /// transfers are net zero). Wrapping, like the cell values.
    pub added: u64,
    /// Virtual ns the rank spent serving.
    pub time_ns: f64,
}

/// The id the warm-up assigns to rank `r`'s `i`-th insert: the keyspace
/// head `1..=p·warm_per_rank`, dealt round-robin so every rank's warm set
/// is disjoint and the Zipf-hot ids are all covered.
pub fn warm_key(r: u32, i: usize, p: usize) -> u64 {
    (i as u64) * (p as u64) + (r as u64) + 1
}

/// Deterministic warm-up value for `key` (nonzero).
fn warm_value(seed: u64, key: u64) -> u64 {
    splitmix64(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
}

/// Serve the simulated client population: warm-up inserts, then
/// `ops_per_rank` mixed Zipf-skewed operations. Call from inside a
/// launched rank; collective (internal barriers). Transfers move value
/// between this rank's own warm keys — guaranteed present, so every
/// transfer is a true two-key commit.
///
/// `serve` asserts every operation commits (its invariants need the
/// exact table), so `policy` must carry a budget sized for the
/// contention — hot probe chains under many ranks can burn through the
/// default 64 attempts. Pass an effectively unbounded budget (as
/// the `kv_serve` driver does) unless shedding load is the experiment.
pub fn serve(ctx: &RankCtx, store: &KvStore, policy: &RetryPolicy) -> KvServeStats {
    let cfg = store.cfg;
    let me = ctx.rank();
    let p = ctx.size();
    assert!((p * cfg.warm_per_rank) as u64 <= cfg.keyspace, "warm set exceeds the keyspace");
    assert!(cfg.warm_per_rank >= 2, "transfers need two warm keys per rank");
    let mut rng = Rng::seed_from_u64(splitmix64(cfg.seed ^ 0x5EED ^ (me as u64 + 1)));
    // Retry jitter draws a random number per abort, and abort counts are
    // schedule-dependent — so jitter gets its own stream, or every retry
    // would shift the workload's key/delta draws and the "final table is
    // schedule-independent" invariant (and the CI byte-diff) would break.
    let mut jitter = Rng::seed_from_u64(splitmix64(cfg.seed ^ 0x0BAC_C0FF ^ (me as u64 + 1)));
    let zipf = Zipf::new(cfg.keyspace, cfg.theta);
    let mut stats = KvServeStats::default();
    store.win.lock_all().expect("kv lock_all");
    let t0 = ctx.now();
    for i in 0..cfg.warm_per_rank {
        let key = warm_key(me, i, p);
        let delta = warm_value(cfg.seed, key);
        store.upsert(policy, &mut jitter, key, delta).expect("warm upsert");
        stats.upserts += 1;
        stats.added = stats.added.wrapping_add(delta);
    }
    // Serving starts only when the whole warm set is visible.
    store.win.flush_all().expect("warm flush");
    ctx.barrier();
    for _ in 0..cfg.ops_per_rank {
        let draw = rng.next_below(100) as u32;
        if draw < cfg.read_pct {
            let key = zipf.sample(&mut rng);
            let hit = store.get(policy, &mut jitter, key).expect("kv read");
            stats.reads += 1;
            stats.hits += u64::from(hit.is_some());
        } else if draw < cfg.read_pct + cfg.transfer_pct {
            let i = rng.next_below(cfg.warm_per_rank as u64) as usize;
            let j =
                (i + 1 + rng.next_below(cfg.warm_per_rank as u64 - 1) as usize) % cfg.warm_per_rank;
            let amount = rng.next_below(1000);
            let moved = store
                .transfer(policy, &mut jitter, warm_key(me, i, p), warm_key(me, j, p), amount)
                .expect("kv transfer");
            assert!(moved, "warm keys must be present");
            stats.transfers += 1;
        } else {
            let key = zipf.sample(&mut rng);
            let delta = rng.next_below(1 << 20) | 1;
            store.upsert(policy, &mut jitter, key, delta).expect("kv upsert");
            stats.upserts += 1;
            stats.added = stats.added.wrapping_add(delta);
        }
    }
    stats.time_ns = ctx.now() - t0;
    store.win.unlock_all().expect("kv unlock_all");
    ctx.barrier();
    stats
}

/// Cross-rank invariant check after [`serve`]: the table's value sum must
/// equal everything the ranks added (transfers conserve, upserts add).
/// Returns `(violations, occupied, sum, content_hash)` — all
/// schedule-independent, so CI byte-diffs them.
pub fn conservation_check(
    ctx: &RankCtx,
    store: &KvStore,
    stats: &KvServeStats,
) -> (u64, u64, u64, u64) {
    let (occ, sum, hash) = store.local_digest();
    let total_occ = ctx.allreduce_u64(occ, u64::wrapping_add);
    let total_sum = ctx.allreduce_u64(sum, u64::wrapping_add);
    let total_hash = ctx.allreduce_u64(hash, |a, b| a ^ b);
    let total_added = ctx.allreduce_u64(stats.added, u64::wrapping_add);
    let violations = u64::from(total_sum != total_added);
    (violations, total_occ, total_sum, total_hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::FaultPlan;
    use fompi_runtime::Universe;

    /// An effectively unbounded budget: the serve tests assert every
    /// operation commits, so retries must never exhaust (see [`serve`]).
    fn patient() -> RetryPolicy {
        RetryPolicy::Backoff { budget: 1 << 20, base_ns: 400, cap_ns: 100_000 }
    }

    fn small_cfg() -> KvConfig {
        KvConfig {
            buckets_per_rank: 128,
            keyspace: 256,
            theta: 0.9,
            warm_per_rank: 24,
            ops_per_rank: 120,
            ..KvConfig::default()
        }
    }

    #[test]
    fn zipf_stays_in_range_and_skews_hot() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::seed_from_u64(5);
        let mut head = 0usize;
        for _ in 0..4000 {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
            head += usize::from(k <= 10);
        }
        // θ=0.99 concentrates most draws on the head of the keyspace.
        assert!(head > 2000, "only {head}/4000 draws hit the hot ten keys");
        // θ=0 is uniform: the head gets roughly its fair 1% share.
        let u = Zipf::new(1000, 0.0);
        let mut head_u = 0usize;
        for _ in 0..4000 {
            head_u += usize::from(u.sample(&mut rng) <= 10);
        }
        assert!(head_u < 200, "uniform draws over-concentrated: {head_u}/4000");
    }

    #[test]
    fn warm_keys_are_disjoint_and_dense() {
        let (p, per) = (4, 8);
        let mut all: Vec<u64> =
            (0..p as u32).flat_map(|r| (0..per).map(move |i| warm_key(r, i, p))).collect();
        all.sort_unstable();
        assert_eq!(all, (1..=(p * per) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn serve_conserves_value_and_counts_commits() {
        let cfg = small_cfg();
        let (outs, fabric) = Universe::new(4)
            .node_size(2)
            .seed(7)
            .faults(FaultPlan::disabled())
            .metrics(true)
            .launch(move |ctx| {
                let store = KvStore::allocate(ctx, cfg);
                let stats = serve(ctx, &store, &patient());
                conservation_check(ctx, &store, &stats)
            });
        for (violations, occ, _, _) in &outs {
            assert_eq!(*violations, 0, "value was minted or burned");
            assert!(*occ >= (4 * cfg.warm_per_rank) as u64, "warm set missing");
        }
        // Every rank computed the same global digest.
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        use fompi_fabric::telemetry::EventKind;
        let commits = fabric.telemetry().stats(EventKind::TxnCommit).count();
        assert!(commits >= (4 * (cfg.warm_per_rank + cfg.ops_per_rank)) as u64);
    }

    #[test]
    fn digest_is_schedule_independent_across_seeds_of_the_fabric() {
        // Same workload seed, different *fault* schedules: committed
        // contents must match because ops are additive/conserving.
        let cfg = small_cfg();
        let digest = |fabric_seed: u64| {
            let (outs, _) =
                Universe::new(3).node_size(1).seed(fabric_seed).faults(FaultPlan::light(0)).launch(
                    move |ctx| {
                        let store = KvStore::allocate(ctx, cfg);
                        let stats = serve(ctx, &store, &patient());
                        conservation_check(ctx, &store, &stats)
                    },
                );
            outs[0]
        };
        let (a, b) = (digest(100), digest(200));
        assert_eq!(a.0, 0);
        assert_eq!(a, b, "committed table contents must not depend on the schedule");
    }

    /// More keys than a probe chain can hold: the overflow is refused as
    /// an error the caller can tell from contention, and what was stored
    /// stays readable. A key that found no room is simply absent: reading
    /// it or transferring from it is no error, its full chain proves it.
    #[test]
    fn a_full_probe_chain_is_an_error_not_a_panic() {
        let cfg = KvConfig { buckets_per_rank: 4, max_probe: 2, ..small_cfg() };
        Universe::new(2).node_size(1).seed(3).faults(FaultPlan::disabled()).launch(move |ctx| {
            let store = KvStore::allocate(ctx, cfg);
            let policy = RetryPolicy::default();
            let mut rng = Rng::seed_from_u64(9);
            store.win.lock_all().unwrap();
            if ctx.rank() == 0 {
                let (mut stored, mut refused) = (Vec::new(), Vec::new());
                for key in 1..=24u64 {
                    match store.upsert(&policy, &mut rng, key, key) {
                        Ok(_) => stored.push(key),
                        Err(e) => {
                            refused.push(key);
                            let owner = store.owner_of(key);
                            assert!(
                                matches!(e, TxnError::Full { target, probed: 2 } if target == owner),
                                "key {key}: {e:?}"
                            );
                            assert!(!e.is_transient(), "a retry would walk the same cells");
                        }
                    }
                }
                assert!((1..=8).contains(&stored.len()), "8 cells took {} keys", stored.len());
                for &key in &stored {
                    assert_eq!(store.get(&policy, &mut rng, key).unwrap(), Some(key));
                }
                for key in refused {
                    assert_eq!(store.get(&policy, &mut rng, key).unwrap(), None);
                    assert!(!store.transfer(&policy, &mut rng, key, stored[0], 1).unwrap());
                    assert!(!store.transfer(&policy, &mut rng, stored[0], key, 1).unwrap());
                }
                assert_eq!(store.get(&policy, &mut rng, stored[0]).unwrap(), Some(stored[0]));
            }
            store.win.unlock_all().unwrap();
            ctx.barrier();
        });
    }

    /// A point read that finds its key at the home cell is one versioned
    /// read, and that is one list: 4 AMOs (version, two payload words,
    /// version), no flush, and the origin waits once — one AMO round trip
    /// plus three injections.
    #[test]
    fn a_one_cell_get_waits_once() {
        Universe::new(2).node_size(1).seed(3).faults(FaultPlan::disabled()).launch(|ctx| {
            let store = KvStore::allocate(ctx, small_cfg());
            let policy = RetryPolicy::default();
            let mut rng = Rng::seed_from_u64(9);
            store.win.lock_all().unwrap();
            let key = (1..).find(|&k| store.owner_of(k) == 1).unwrap();
            if ctx.rank() == 0 {
                store.upsert(&policy, &mut rng, key, 77).unwrap();
            }
            // Rank 1 issues nothing while rank 0 reads the job's counters.
            ctx.barrier();
            if ctx.rank() == 0 {
                let counters = ctx.fabric().counters();
                let before = counters.snapshot();
                let t0 = ctx.now();
                assert_eq!(store.get(&policy, &mut rng, key).unwrap(), Some(77));
                let d = counters.snapshot().since(&before);
                assert_eq!((d.amos, d.flushes, d.gsyncs, d.puts, d.gets), (4, 0, 0, 0, 0));
                let m = ctx.fabric().model();
                let t = ctx.ep().transport_to(1);
                let injected = (0..4).fold(t0, |now, _| now + m.inject(t));
                assert_eq!(ctx.now(), injected + m.amo_latency(t), "one wait, for the last AMO");
            }
            ctx.barrier();
            store.win.unlock_all().unwrap();
            ctx.barrier();
        });
    }

    #[test]
    fn transfers_move_value_between_remote_keys() {
        let cfg = small_cfg();
        let (outs, _) = Universe::new(2).node_size(1).seed(3).faults(FaultPlan::disabled()).launch(
            move |ctx| {
                let store = KvStore::allocate(ctx, cfg);
                let policy = RetryPolicy::default();
                let mut rng = Rng::seed_from_u64(9);
                let mut out = (0, 0);
                store.win.lock_all().unwrap();
                if ctx.rank() == 0 {
                    store.upsert(&policy, &mut rng, 10, 500).unwrap();
                    store.upsert(&policy, &mut rng, 11, 100).unwrap();
                    assert!(store.transfer(&policy, &mut rng, 10, 11, 150).unwrap());
                    // Absent endpoints leave the table untouched.
                    assert!(!store.transfer(&policy, &mut rng, 10, 99, 1).unwrap());
                    let a = store.get(&policy, &mut rng, 10).unwrap().unwrap();
                    let b = store.get(&policy, &mut rng, 11).unwrap().unwrap();
                    out = (a, b);
                }
                store.win.unlock_all().unwrap();
                ctx.barrier();
                out
            },
        );
        assert_eq!(outs[0], (350, 250));
    }
}
