//! Heap allocations per steady-state call, pinned: the paper's protocols
//! are bufferless (§2.3), so a warm call of a window, a notified-access
//! transport, a transaction or an application kernel's inner iteration
//! should not touch the allocator.
//!
//! A counting global allocator keeps one count per thread, so each rank
//! thread counts only its own calls. Every row warms up, then counts `N`
//! calls on the rank that makes them, at p = 2 and `node_size` 1 and 2.
//! The table must equal `results/alloc_budget.csv` line for line; on a
//! mismatch the test prints the table it measured. Allocation counts do not
//! depend on the schedule, so the table holds in debug and release builds
//! alike (`cargo test --release --test alloc_budget`).

use fompi::{MpiOp, NumKind, Win};
use fompi_apps::dsde;
use fompi_apps::fft::{self, FftConfig};
use fompi_apps::hashtable::{self, HtConfig};
use fompi_apps::kv::{KvConfig, KvStore};
use fompi_apps::milc::{self, MilcConfig};
use fompi_fabric::rng::Rng;
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_rmc::{fanin, rpc, FaninEnd, RmcConfig, RpcEnd};
use fompi_runtime::{Group, RankCtx, Universe};
use fompi_txn::RetryPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// count is a const-initialised thread-local `Cell` with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (and reallocations) this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What `run` allocates on this thread (its result included).
fn allocs_of<R>(run: impl FnOnce() -> R) -> u64 {
    let before = allocs();
    let _out = run();
    allocs() - before
}

/// Calls counted per row, after `WARM` uncounted ones.
const N: u64 = 64;
const WARM: u64 = 16;
const MSG: usize = 64;
const SLOTS: usize = 8;
const TAG: u32 = 5;

/// The rows one rank measured: `(row, calls, allocations)`.
#[derive(Default)]
struct Meter {
    rows: Vec<(&'static str, u64, u64)>,
}

impl Meter {
    /// Run `f` once and add what it allocated to `row`.
    fn count<R>(&mut self, row: &'static str, f: impl FnOnce() -> R) {
        let n = allocs_of(f);
        self.record(row, 1, n);
    }

    /// Add `calls` calls that allocated `n` times between them to `row`.
    fn record(&mut self, row: &'static str, calls: u64, n: u64) {
        match self.rows.iter_mut().find(|r| r.0 == row) {
            Some(r) => (r.1, r.2) = (r.1 + calls, r.2 + n),
            None => self.rows.push((row, calls, n)),
        }
    }
}

/// `WARM` uncounted rounds of `round`, then `N` counted ones.
fn rounds(m: &mut Meter, mut round: impl FnMut(&mut Meter)) {
    let mut warm = Meter::default();
    for _ in 0..WARM {
        round(&mut warm);
    }
    for _ in 0..N {
        round(m);
    }
}

fn lock_all_win(ctx: &RankCtx) -> Win {
    let win = Win::allocate(ctx, 256, 1).unwrap();
    win.lock_all().unwrap();
    win
}

fn close(ctx: &RankCtx, win: Win) {
    ctx.barrier();
    win.unlock_all().unwrap();
    win.free(ctx);
}

/// Rank 0's passive-target calls toward rank 1, each completed by a flush.
fn passive(ctx: &RankCtx, m: &mut Meter) {
    let win = lock_all_win(ctx);
    if ctx.rank() == 0 {
        let eight = 7u64.to_le_bytes();
        let block = [1u8; 64];
        rounds(m, |m| {
            let mut out = [0u8; 8];
            m.count("put 8 + flush", || {
                win.put(&eight, 1, 0).unwrap();
                win.flush(1).unwrap();
            });
            m.count("get 8 + flush", || {
                win.get(&mut out, 1, 0).unwrap();
                win.flush(1).unwrap();
            });
            m.count("fetch_and_op + flush", || {
                win.fetch_and_op(&eight, &mut out, NumKind::U64, MpiOp::Sum, 1, 8).unwrap();
                win.flush(1).unwrap();
            });
            m.count("compare_and_swap + flush", || {
                win.compare_and_swap(1, 0, 1, 16).unwrap();
                win.flush(1).unwrap();
            });
            m.count("accumulate 8x8 + flush", || {
                win.accumulate(&block, NumKind::U64, MpiOp::Sum, 1, 64).unwrap();
                win.flush(1).unwrap();
            });
        });
    }
    close(ctx, win);
}

fn lock_put_unlock(ctx: &RankCtx, m: &mut Meter) {
    let win = Win::allocate(ctx, 64, 1).unwrap();
    if ctx.rank() == 0 {
        rounds(m, |m| {
            m.count("lock / put 8 / unlock", || {
                win.lock(fompi::LockType::Exclusive, 1).unwrap();
                win.put(&3u64.to_le_bytes(), 1, 0).unwrap();
                win.unlock(1).unwrap();
            });
        });
    }
    ctx.barrier();
    win.free(ctx);
}

fn fence(ctx: &RankCtx, m: &mut Meter) {
    let win = Win::allocate(ctx, 64, 1).unwrap();
    win.fence().unwrap();
    let me = ctx.rank();
    rounds(m, |m| {
        if me == 0 {
            m.count("fence", || win.fence().unwrap());
        } else {
            win.fence().unwrap();
        }
    });
    win.fence_assert(fompi::ASSERT_NOSUCCEED).unwrap();
    win.free(ctx);
}

/// Rank 0 opens access epochs toward rank 1, which exposes its window.
fn pscw(ctx: &RankCtx, m: &mut Meter) {
    let win = Win::allocate(ctx, 64, 1).unwrap();
    let peer = Group::new([1 - ctx.rank()]);
    let me = ctx.rank();
    rounds(m, |m| {
        if me == 0 {
            m.count("pscw origin: start / put 8 / complete", || {
                win.start(&peer).unwrap();
                win.put(&9u64.to_le_bytes(), 1, 0).unwrap();
                win.complete().unwrap();
            });
        } else {
            m.count("pscw target: post / wait", || {
                win.post(&peer).unwrap();
                win.wait().unwrap();
            });
        }
    });
    ctx.barrier();
    win.free(ctx);
}

/// Notified ping-pong: rank 0 pings, rank 1 returns.
fn notify(ctx: &RankCtx, m: &mut Meter) {
    let win = lock_all_win(ctx);
    let (me, peer) = (ctx.rank(), 1 - ctx.rank());
    let v = 11u64.to_le_bytes();
    rounds(m, |m| {
        if me == 0 {
            m.count("put_notify 8", || win.put_notify(&v, peer, 0, TAG).unwrap());
            m.count("wait_notify", || win.wait_notify(peer, TAG).unwrap());
        } else {
            win.wait_notify(peer, TAG).unwrap();
            win.put_notify(&v, peer, 0, TAG).unwrap();
        }
    });
    close(ctx, win);
}

/// Rank 1 produces, rank 0 consumes.
fn spsc_channel(ctx: &RankCtx, m: &mut Meter) {
    let msg = [5u8; MSG];
    let mut buf = [0u8; MSG];
    match channel(ctx, 1, 0, SLOTS, MSG).unwrap().unwrap() {
        ChannelEnd::Sender(mut tx) => {
            rounds(m, |m| m.count("channel send 64", || tx.send(&msg).unwrap()));
            tx.close(ctx).unwrap();
        }
        ChannelEnd::Receiver(mut rx) => {
            rounds(m, |m| m.count("channel recv 64", || rx.recv(&mut buf).unwrap()));
            rx.close(ctx).unwrap();
        }
    }
}

fn fan_in(ctx: &RankCtx, m: &mut Meter) {
    let msg = [6u8; MSG];
    let mut buf = [0u8; MSG];
    match fanin(ctx, 0, &[1], SLOTS, MSG).unwrap().unwrap() {
        FaninEnd::Producer(mut tx) => {
            rounds(m, |m| m.count("fan-in send 64", || tx.send(&msg).unwrap()));
            tx.close(ctx).unwrap();
        }
        FaninEnd::Consumer(mut rx) => {
            rounds(m, |m| m.count("fan-in recv 64", || rx.recv(&mut buf).unwrap()));
            rx.close(ctx).unwrap();
        }
    }
}

/// Rank 1 calls, rank 0 serves.
fn rpc_echo(ctx: &RankCtx, m: &mut Meter) {
    let cfg = RmcConfig { slots: SLOTS, slot_bytes: MSG, ..RmcConfig::default() };
    let req = [8u8; MSG];
    let mut buf = [0u8; MSG];
    match rpc(ctx, 0, &[1], &cfg).unwrap().unwrap() {
        RpcEnd::Client(mut client) => {
            rounds(m, |m| m.count("RpcClient::call 64", || client.call(&req, &mut buf).unwrap()));
            client.close(ctx).unwrap();
        }
        RpcEnd::Server(mut server) => {
            rounds(m, |m| {
                m.count("RpcServer recv + reply 64", || {
                    let r = server.recv().unwrap();
                    server.reply(&r, &r.data).unwrap();
                })
            });
            server.close(ctx).unwrap();
        }
    }
}

/// Rank 0 serves point reads, upserts and transfers over warm keys.
fn kv(ctx: &RankCtx, m: &mut Meter) {
    let cfg = KvConfig { buckets_per_rank: 64, ..KvConfig::default() };
    let store = KvStore::allocate(ctx, cfg);
    store.win.lock_all().unwrap();
    if ctx.rank() == 0 {
        let policy = RetryPolicy::default();
        let mut rng = Rng::seed_from_u64(1);
        for key in 1..=4 {
            store.upsert(&policy, &mut rng, key, 100).unwrap();
        }
        rounds(m, |m| {
            m.count("KvStore::get", || store.get(&policy, &mut rng, 1).unwrap());
            m.count("KvStore::upsert", || store.upsert(&policy, &mut rng, 2, 1).unwrap());
            m.count("KvStore::transfer", || store.transfer(&policy, &mut rng, 3, 4, 1).unwrap());
        });
    }
    ctx.barrier();
    store.win.unlock_all().unwrap();
    store.win.free(ctx);
}

/// The application kernels' inner iterations, each read as the difference
/// of two whole runs that differ only in how many iterations they make.
fn apps(ctx: &RankCtx, m: &mut Meter) {
    let mine = ctx.rank() == 0;
    let milc = |iters| MilcConfig { local: [4, 4, 4, 8], iters, seed: 1 };
    milc::run_rma(ctx, &milc(2));
    let (few, many) =
        (allocs_of(|| milc::run_rma(ctx, &milc(2))), allocs_of(|| milc::run_rma(ctx, &milc(10))));
    if mine {
        m.record("MILC CG iteration (run_rma)", 8, many - few);
    }

    // p = 2: a grid of edge n has n / 2 planes per rank.
    let fft = |n| FftConfig { n, seed: 1 };
    fft::run_rma(ctx, &fft(8));
    let (few, many) =
        (allocs_of(|| fft::run_rma(ctx, &fft(8))), allocs_of(|| fft::run_rma(ctx, &fft(16))));
    if mine {
        m.record("FFT plane: transform + pack + put (run_rma)", 4, many - few);
    }

    let ht = |inserts_per_rank| HtConfig {
        inserts_per_rank,
        table_slots: 1024,
        heap_cells: 1024,
        seed: 1,
    };
    hashtable::run_rma(ctx, &ht(64));
    let (few, many) = (
        allocs_of(|| hashtable::run_rma(ctx, &ht(64))),
        allocs_of(|| hashtable::run_rma(ctx, &ht(64 + N as usize))),
    );
    if mine {
        m.record("hashtable insert (run_rma)", N, many - few);
    }

    let win = Win::allocate(ctx, dsde::rma_win_bytes(ctx.size()), 1).unwrap();
    let mut seed = 0;
    rounds(m, |m| {
        seed += 1;
        if mine {
            m.count("DSDE round (run_rma k = 1)", || dsde::run_rma(ctx, &win, 1, seed));
        } else {
            dsde::run_rma(ctx, &win, 1, seed);
        }
    });
    win.fence_assert(fompi::ASSERT_NOSUCCEED).unwrap();
    win.free(ctx);
}

/// Every case, in table order.
const CASES: [fn(&RankCtx, &mut Meter); 10] =
    [passive, lock_put_unlock, fence, pscw, notify, spsc_channel, fan_in, rpc_echo, kv, apps];

/// The table at `node_size`: one `row,node_size,allocs_per_call` line per
/// row, rank 0's rows of a case before rank 1's.
fn table(node_size: usize) -> String {
    let mut out = String::new();
    for case in CASES {
        let ranks = Universe::new(2).node_size(node_size).run(move |ctx| {
            let mut m = Meter::default();
            case(ctx, &mut m);
            m.rows
        });
        for (row, calls, n) in ranks.into_iter().flatten() {
            out += &format!("{row},{node_size},{}\n", n as f64 / calls as f64);
        }
    }
    out
}

#[test]
fn steady_state_allocations_match_the_committed_table() {
    let mut got = String::from("row,node_size,allocs_per_call\n");
    for node_size in [1, 2] {
        got += &table(node_size);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/alloc_budget.csv");
    let want = std::fs::read_to_string(path).unwrap_or_default();
    assert!(got == want, "allocations per call moved; measured table:\n{got}");
}
