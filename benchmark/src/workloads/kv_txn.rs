//! `kv_txn`: both ranks are clients of the transactional KV store
//! (`apps::kv::KvStore`): 70 % `get`, 20 % `upsert`, 10 % two-key
//! `transfer` on a skewed keyspace. `txn` read-set, validate and commit
//! dominate; every user op is eight or more fabric ops.
//!
//! ## Why each client has its own shard
//!
//! Client `r` only uses keys that live on rank `1 - r`, so the two clients
//! never touch the same cell. They cannot share cells at HEAD: a versioned
//! read of the 16-byte payload is a multi-element `get_accumulate(NO_OP)`,
//! which takes the locked fallback path and *puts back the bytes it read*,
//! while a commit's `accumulate(REPLACE)` takes the hardware-AMO path and
//! does not hold that lock. A read that overlaps a commit therefore undoes
//! it. With both clients on one hot key about one upsert in eight is lost
//! and `conservation_check` reports it; on the virtual-time tests the window
//! is too narrow to hit. That is a bug in `core::comm` for a later issue; a
//! benchmark needs workloads on which no operation fails, so this one
//! shards. The clients still run at once and contend for everything the
//! fabric shares.

use crate::harness::{Shared, Tally, Workload};
use crate::probe::{Probe, Span};
use crate::report::Bill;
use fompi_apps::kv::{conservation_check, KvConfig, KvServeStats, KvStore, Zipf};
use fompi_fabric::rng::{splitmix64, Rng};
use fompi_runtime::RankCtx;
use fompi_txn::RetryPolicy;

/// The default `buckets_per_rank: 1024` overflows its probe chains ("table
/// too full") within a window of this length; 16384 never comes close.
const CFG: KvConfig = KvConfig {
    buckets_per_rank: 16384,
    keyspace: 16384,
    theta: 0.99,
    warm_per_rank: 256,
    ops_per_rank: 0,
    read_pct: 70,
    transfer_pct: 10,
    max_probe: 64,
    seed: 0,
};
/// 64 calls at 8 us each: 0.5 ms per batch.
const OPS: u64 = 64;

pub struct KvTxn;

pub struct State {
    store: KvStore,
    /// Never gives up: a workload on which no op fails needs every
    /// transaction to commit in the end. Backoff is virtual time only.
    policy: RetryPolicy,
    /// Op mix, keys and amounts: the workload's input, drawn from the seed.
    ops: Rng,
    /// Retry jitter has its own stream: the number of retries depends on the
    /// schedule and must not shift the input stream.
    jitter: Rng,
    zipf: Zipf,
    /// This client's shard: the keys of `1..` that the peer rank owns, in
    /// order. A Zipf draw `k` means `shard[k - 1]`; the head is the warm set.
    shard: Vec<u64>,
    /// Sum of the deltas this rank's committed upserts added (wrapping).
    added: u64,
}

enum Op {
    Get(u64),
    Upsert(u64, u64),
    Transfer(u64, u64, u64),
}

impl State {
    fn draw(&mut self) -> Op {
        let rng = &mut self.ops;
        let pick = rng.next_below(100) as u32;
        let key = |rng: &mut Rng| self.shard[self.zipf.sample(rng) as usize - 1];
        if pick < CFG.read_pct {
            Op::Get(key(rng))
        } else if pick < CFG.read_pct + CFG.transfer_pct {
            // Between two warm keys: both are present, so every transfer is
            // a true two-key commit.
            let n = CFG.warm_per_rank as u64;
            let i = rng.next_below(n);
            let j = (i + 1 + rng.next_below(n - 1)) % n;
            Op::Transfer(self.shard[i as usize], self.shard[j as usize], rng.next_below(1000))
        } else {
            Op::Upsert(key(rng), rng.next_below(1 << 20) | 1)
        }
    }

    /// One store call. Returns whether it failed.
    fn call<P: Probe>(&mut self, op: Op, p: &mut P) -> bool {
        let m = p.begin();
        match op {
            Op::Get(key) => {
                let r = self.store.get(&self.policy, &mut self.jitter, key);
                p.end(Span::KvGet, m);
                r.is_err()
            }
            Op::Upsert(key, delta) => {
                let r = self.store.upsert(&self.policy, &mut self.jitter, key, delta);
                p.end(Span::KvUpsert, m);
                if r.is_ok() {
                    self.added = self.added.wrapping_add(delta);
                }
                r.is_err()
            }
            Op::Transfer(from, to, amount) => {
                let r = self.store.transfer(&self.policy, &mut self.jitter, from, to, amount);
                p.end(Span::KvTransfer, m);
                !matches!(r, Ok(true))
            }
        }
    }
}

impl Workload for KvTxn {
    const PARK: bool = false;
    type State = State;

    fn setup(ctx: &RankCtx, seed: u64) -> State {
        let me = ctx.rank();
        let store = KvStore::allocate(ctx, KvConfig { seed, ..CFG });
        store.win.lock_all().expect("lock_all");
        let shard_len = CFG.keyspace as usize / ctx.size();
        let shard: Vec<u64> = (1..).filter(|&k| store.owner_of(k) != me).take(shard_len).collect();
        let stream = |salt: u64| Rng::seed_from_u64(splitmix64(seed ^ salt ^ (me as u64 + 1)));
        let mut st = State {
            store,
            policy: RetryPolicy::Backoff { budget: 1 << 20, base_ns: 400, cap_ns: 100_000 },
            ops: stream(0x5EED),
            jitter: stream(0x0BAC_C0FF),
            zipf: Zipf::new(shard_len as u64, CFG.theta),
            shard,
            added: 0,
        };
        // Table init: the hot head of the keyspace is present before serving.
        for i in 0..CFG.warm_per_rank {
            let key = st.shard[i];
            let failed =
                st.call(Op::Upsert(key, splitmix64(seed ^ key) | 1), &mut crate::probe::Off);
            assert!(!failed, "warm upsert failed");
        }
        st.store.win.flush_all().expect("warm flush");
        ctx.barrier();
        st
    }

    fn batch<P: Probe>(st: &mut State, _: &RankCtx, _: &Shared, p: &mut P) -> Tally {
        let mut failed = 0u64;
        for _ in 0..OPS {
            let op = st.draw();
            failed += st.call(op, p) as u64;
        }
        Tally { ops: OPS, failed, ..Tally::default() }
    }

    /// The table is only quiescent at the end of the window: see `finish`.
    fn verify(_: &mut State, _: &RankCtx) -> u64 {
        0
    }

    /// Value conservation over the whole run: transfers move value, upserts
    /// add it, so the table must sum to what the two clients added.
    fn finish(st: State, ctx: &RankCtx) -> u64 {
        let mut bad = st.store.win.unlock_all().is_err() as u64;
        ctx.barrier();
        let stats = KvServeStats { added: st.added, ..KvServeStats::default() };
        let (violations, ..) = conservation_check(ctx, &st.store, &stats);
        bad += violations;
        st.store.win.free(ctx);
        bad
    }
}

/// Exact fabric-op counts of one call of each kind: rank 0 alone, rank 1
/// parked. Rank 0 returns the bills.
pub fn bills(ctx: &RankCtx, seed: u64) -> Vec<Bill> {
    const CALLS: u64 = 256;
    let mut st = KvTxn::setup(ctx, seed);
    let counters = ctx.fabric().counters();
    let mut bills =
        vec![Bill::new("apps.kv_get"), Bill::new("apps.kv_upsert"), Bill::new("apps.kv_transfer")];
    if ctx.rank() == 0 {
        let mut done = [0u64; 3];
        while done.iter().any(|&n| n < CALLS) {
            let op = st.draw();
            let kind = match op {
                Op::Get(..) => 0,
                Op::Upsert(..) => 1,
                Op::Transfer(..) => 2,
            };
            let before = counters.snapshot();
            assert!(!st.call(op, &mut crate::probe::Off), "kv bill call failed");
            bills[kind].add(&counters.snapshot().since(&before), 1);
            done[kind] += 1;
        }
    }
    ctx.barrier();
    assert_eq!(KvTxn::finish(st, ctx), 0, "kv bill run broke conservation");
    if ctx.rank() == 0 {
        bills
    } else {
        Vec::new()
    }
}
