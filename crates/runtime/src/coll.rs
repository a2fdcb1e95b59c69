//! Internal collectives with virtual-time accounting.
//!
//! Every collective is **one** barrier crossing done with loads and stores
//! (the paper's fence is "gsync + a good barrier"; Leveraging MPI-3
//! Shared-Memory Extensions makes the same point for intra-node barriers):
//!
//! * **Rendezvous.** One monotone arrival counter and one release word.
//!   Collective number `k` (the *epoch*) owns arrival tickets
//!   `k·p .. (k+1)·p`; whoever draws the last one is the leader: it runs the
//!   once-per-collective work (the race checker's `process_sync`) and *then*
//!   publishes `released = k + 1`, so every rank returns with that work done.
//! * **No exit barrier.** A rank cannot enter epoch `k + 2` before every
//!   rank has arrived at epoch `k + 1`, i.e. finished reading epoch `k`.
//!   Payload slots and the clock stamp are therefore double-buffered on
//!   `k & 1` and the second barrier of "write — barrier — read — barrier"
//!   is not needed. The stamp is a monotone `fetch_max` that is never
//!   reset: clocks only grow, so what epoch `k` left behind can never
//!   exceed an entry clock of epoch `k + 2`.
//! * **Waiting.** Spin for about what one park/unpark pair costs
//!   (`SPIN_BUDGET`), then block on a mutex + condvar; when the job has
//!   more ranks than the machine has cores, block at once. The releaser
//!   looks at a sleeper count first, so a release nobody sleeps through is
//!   one store and no syscall.
//! * **Payloads.** Per-rank slot buffers keep their capacity (`clear` +
//!   `extend`), readers fold straight out of the slots in rank order, so a
//!   barrier or a word-sized allreduce touches no allocator.
//!
//! Virtual time is charged according to the *scalable algorithm* each
//! collective would use on an RDMA network:
//!
//! * barrier — dissemination, `⌈log2 p⌉` rounds of one 8-byte put each;
//! * allgather — Bruck, round `r` moves `2^r · s` bytes;
//! * allreduce — recursive doubling, `⌈log2 p⌉` rounds of `s` bytes;
//! * broadcast — binomial tree, depth `⌈log2 p⌉`.
//!
//! Every collective max-combines the participants' clocks through a
//! [`StampCell`], so the returned virtual time is
//! `max(entry times) + algorithm cost` — what a balanced execution of the
//! real algorithm yields.
//!
//! Under an armed model-checker gate ([`fompi_fabric::mc`]) every other
//! rank is parked inside the gate, so the rendezvous would never fill: the
//! gate's own collective replaces it, once on entry and once on exit (the
//! epoch then never advances and the exit step is what protects the
//! buffers, exactly as before).

use fompi_fabric::cost::Transport;
use fompi_fabric::shim::RwLock;
use fompi_fabric::{Endpoint, Fabric, StampCell};
use std::sync::Arc;
use std::time::{Duration, Instant};
// Model-checked primitives under `--cfg loom` (loom is not a workspace
// dependency — add it locally as a dependency of fompi-fabric, whose own
// atomics switch with the same cfg, and of fompi-runtime, do not commit,
// and run
// `RUSTFLAGS="--cfg loom" cargo test -p fompi-runtime --release loom_`).
#[cfg(loom)]
use loom::sync::{
    atomic::{fence, AtomicU32, AtomicU64, Ordering},
    Condvar, Mutex,
};
#[cfg(not(loom))]
use std::sync::{
    atomic::{fence, AtomicU32, AtomicU64, Ordering},
    Condvar, Mutex,
};

/// How long a waiter spins before it blocks in the kernel: about what one
/// futex park + unpark costs on the reference box (half of the 40 µs a
/// two-sleep `std::sync::Barrier` collective took). Spinning for the price
/// of the alternative is the 2-competitive rule: never more than twice the
/// cost of having known the wait's length in advance.
const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Polls of the release word between two readings of the clock.
const POLLS_PER_CLOCK_READ: u32 = 16;

/// Why locking `park` cannot fail: waiters hand a dead peer's rank back as
/// an `Err` and panic only after the guard is gone.
const UNPOISONED: &str = "park lock is never held across a panic";

/// The barrier all collectives cross: arrive, then wait for the release of
/// the epoch arrived at.
struct Rendezvous {
    p: u64,
    /// Whether waiting may spin first: only if every rank can own a core.
    spin: bool,
    /// Tickets drawn so far, `p` per epoch.
    arrivals: AtomicU64,
    /// Epochs completed so far. A rank between collectives reads here the
    /// epoch it enters next: the next release needs its own arrival.
    released: AtomicU64,
    /// Waiters that are (about to be) blocked on `wake`.
    sleepers: AtomicU32,
    /// `rank + 1` of the first rank whose thread died, else 0.
    aborted: AtomicU32,
    park: Mutex<()>,
    wake: Condvar,
}

impl Rendezvous {
    fn new(p: usize, spin: bool) -> Self {
        Self {
            p: p as u64,
            spin,
            arrivals: AtomicU64::new(0),
            released: AtomicU64::new(0),
            sleepers: AtomicU32::new(0),
            aborted: AtomicU32::new(0),
            park: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The epoch the calling rank enters next.
    fn epoch(&self) -> u64 {
        self.released.load(Ordering::Acquire)
    }

    /// Arrive at epoch `k` and return once it is released. The last
    /// arriver runs `leader` while everyone else is still inside.
    ///
    /// AcqRel on the ticket: what each rank wrote before arriving is
    /// visible to the leader, and through the release store to all.
    fn arrive(&self, k: u64, leader: impl FnOnce()) {
        if let Err(rank) = self.try_arrive(k, leader) {
            panic!("peer rank {rank} panicked inside/before this collective");
        }
    }

    /// [`Rendezvous::arrive`], returning the dead rank instead of
    /// panicking so that no panic unwinds through `park`.
    fn try_arrive(&self, k: u64, leader: impl FnOnce()) -> Result<(), u32> {
        self.alive()?;
        let ticket = self.arrivals.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(ticket / self.p, k, "a rank lapped the rendezvous");
        if ticket + 1 == (k + 1) * self.p {
            leader();
            self.release(k);
            Ok(())
        } else {
            self.wait(k)
        }
    }

    /// Store, full fence, then look at the sleeper count — against the
    /// sleeper's count, full fence, check in [`Rendezvous::wait`]: one of
    /// the two sees the other, so no wake-up is lost and a release with
    /// nobody asleep makes no syscall. (Fences, not SeqCst accesses: loom
    /// models only the former as sequentially consistent.)
    fn release(&self, k: u64) {
        self.released.store(k + 1, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) != 0 {
            self.wake_all();
        }
    }

    /// A sleeper counts itself and checks under `park`, so once the lock
    /// has been ours it has either seen the new state or is in `wait`.
    fn wake_all(&self) {
        drop(self.park.lock().expect(UNPOISONED));
        self.wake.notify_all();
    }

    /// `Err(rank)` once `rank`'s thread has died.
    fn alive(&self) -> Result<(), u32> {
        match self.aborted.load(Ordering::Acquire) {
            0 => Ok(()),
            r => Err(r - 1),
        }
    }

    /// Whether epoch `k` is released; `Err(rank)` if `rank` died instead.
    fn poll(&self, k: u64) -> Result<bool, u32> {
        if self.released.load(Ordering::Acquire) > k {
            return Ok(true);
        }
        self.alive().map(|()| false)
    }

    /// The one wait routine: bounded spin, then block.
    fn wait(&self, k: u64) -> Result<(), u32> {
        if self.spin {
            let mut deadline = None;
            loop {
                for _ in 0..POLLS_PER_CLOCK_READ {
                    if self.poll(k)? {
                        return Ok(());
                    }
                    std::hint::spin_loop();
                }
                let now = Instant::now();
                if now >= *deadline.get_or_insert(now + SPIN_BUDGET) {
                    break;
                }
            }
        }
        let mut parked = self.park.lock().expect(UNPOISONED);
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut state = self.poll(k);
        while state == Ok(false) {
            parked = self.wake.wait(parked).expect(UNPOISONED);
            state = self.poll(k);
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
        state.map(|_| ())
    }

    /// Rank `rank`'s thread is dying: wake every waiter, now and later,
    /// into a panic. The first caller names the culprit.
    fn abort(&self, rank: u32) {
        let _ = self.aborted.compare_exchange(0, rank + 1, Ordering::AcqRel, Ordering::Acquire);
        self.wake_all();
    }
}

/// Shared collective state for one universe.
pub struct CollEngine {
    p: usize,
    rv: Rendezvous,
    /// `slots[k & 1][rank]`: rank's contribution to epoch `k`.
    slots: [Box<[RwLock<Vec<u8>>]>; 2],
    /// `stamps[k & 1]`: max entry clock of epoch `k` (monotone, never reset).
    stamps: [StampCell; 2],
    fabric: Arc<Fabric>,
}

impl CollEngine {
    /// Engine for `p` ranks on `fabric`; its waits spin first if the
    /// fabric's do ([`Fabric::spins`]).
    pub fn new(p: usize, fabric: Arc<Fabric>) -> Self {
        let slots = || (0..p).map(|_| RwLock::new(Vec::new())).collect();
        Self {
            p,
            rv: Rendezvous::new(p, fabric.spins()),
            slots: [slots(), slots()],
            stamps: [StampCell::new(), StampCell::new()],
            fabric,
        }
    }

    /// Rank `rank`'s thread panicked and will never arrive again: ranks
    /// waiting in a collective, or entering one later, panic naming it
    /// instead of waiting forever.
    pub fn abort(&self, rank: u32) {
        self.rv.abort(rank);
    }

    fn rounds(&self) -> u32 {
        (usize::BITS - (self.p - 1).leading_zeros()).min(63)
    }

    fn transport(&self) -> Transport {
        if self.fabric.topology().single_node() {
            Transport::Xpmem
        } else {
            Transport::Dmapp
        }
    }

    /// Cross the collective's barrier: `publish` this rank's contribution,
    /// meet everyone, and return the epoch's slots (rank order) with
    /// `max(entry clocks)`. Every collective is a process-wide
    /// happens-before edge, so the leader — while all ranks are still
    /// inside — advances the race checker's epoch clocks exactly once (the
    /// `init → barrier → epoch` idiom must not flag). Reads of the slots
    /// must be followed by [`CollEngine::leave`].
    fn enter(
        &self,
        ep: &Endpoint,
        publish: impl FnOnce(&mut Vec<u8>),
    ) -> (&[RwLock<Vec<u8>>], f64) {
        let k = self.rv.epoch();
        let parity = (k & 1) as usize;
        let slots = &*self.slots[parity];
        {
            let mut mine = slots[ep.rank() as usize].write();
            mine.clear();
            publish(&mut mine);
        }
        self.stamps[parity].raise(ep.clock().now());
        let sync = || self.fabric.shadow().process_sync();
        match ep.mc_collective("coll-entry") {
            Some(true) => sync(),
            Some(false) => {}
            None => self.rv.arrive(k, sync),
        }
        (slots, self.stamps[parity].get())
    }

    /// Done reading the slots. Parity buffering makes this free; only the
    /// model-checker gate, which never advances the epoch, takes a step.
    fn leave(&self, ep: &Endpoint) {
        ep.mc_collective("coll-exit");
    }

    /// Dissemination barrier.
    pub fn barrier(&self, ep: &Endpoint) {
        if self.p == 1 {
            return;
        }
        let (_, t) = self.enter(ep, |_| ());
        self.leave(ep);
        let m = self.fabric.model();
        let cost = self.rounds() as f64 * m.barrier_round(self.transport());
        ep.clock().join(t + cost);
    }

    /// Bruck allgather of equal-sized contributions.
    pub fn allgather(&self, ep: &Endpoint, bytes: &[u8]) -> Vec<Vec<u8>> {
        if self.p == 1 {
            return vec![bytes.to_vec()];
        }
        let (slots, t) = self.enter(ep, |buf| buf.extend_from_slice(bytes));
        let out: Vec<Vec<u8>> = slots.iter().map(|s| s.read().clone()).collect();
        self.leave(ep);
        let m = self.fabric.model();
        let tr = self.transport();
        let mut cost = 0.0;
        let mut chunk = bytes.len().max(1);
        for _ in 0..self.rounds() {
            cost += m.inject(tr) + m.put_latency(tr, chunk);
            chunk *= 2;
        }
        ep.clock().join(t + cost);
        out
    }

    /// Recursive-doubling allreduce of one u64, folded in rank order.
    pub fn allreduce_u64(&self, ep: &Endpoint, v: u64, op: impl Fn(u64, u64) -> u64) -> u64 {
        if self.p == 1 {
            return v;
        }
        let (slots, t) = self.enter(ep, |buf| buf.extend_from_slice(&v.to_le_bytes()));
        let acc = slots
            .iter()
            .map(|s| u64::from_le_bytes(s.read().as_slice().try_into().expect("one u64 per rank")))
            .reduce(&op)
            .expect("p > 1 slots");
        self.leave(ep);
        let m = self.fabric.model();
        let tr = self.transport();
        let cost = self.rounds() as f64 * (m.inject(tr) + m.put_latency(tr, 8));
        ep.clock().join(t + cost);
        acc
    }

    /// Recursive-doubling allreduce of an f64 vector (sum by default via
    /// `op`), folded element-wise in rank order. Used by the RMA/PGAS
    /// application variants, whose runtimes ship tuned collectives.
    pub fn allreduce_f64(&self, ep: &Endpoint, vals: &mut [f64], op: impl Fn(f64, f64) -> f64) {
        if self.p == 1 {
            return;
        }
        let (slots, t) =
            self.enter(ep, |buf| buf.extend(vals.iter().flat_map(|v| v.to_le_bytes())));
        for (rank, slot) in slots.iter().enumerate() {
            let row = slot.read();
            assert_eq!(row.len(), vals.len() * 8, "allreduce_f64: rank {rank} length differs");
            for (v, word) in vals.iter_mut().zip(row.chunks_exact(8)) {
                let x = f64::from_le_bytes(word.try_into().expect("8-byte chunk"));
                *v = if rank == 0 { x } else { op(*v, x) };
            }
        }
        self.leave(ep);
        let m = self.fabric.model();
        let tr = self.transport();
        let cost = self.rounds() as f64 * (m.inject(tr) + m.put_latency(tr, vals.len() * 8));
        ep.clock().join(t + cost);
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast(&self, ep: &Endpoint, root: u32, bytes: &[u8]) -> Vec<u8> {
        if self.p == 1 {
            return bytes.to_vec();
        }
        let (slots, t) = self.enter(ep, |buf| {
            if ep.rank() == root {
                buf.extend_from_slice(bytes);
            }
        });
        let out = slots[root as usize].read().clone();
        self.leave(ep);
        let m = self.fabric.model();
        let tr = self.transport();
        let cost = self.rounds() as f64 * (m.inject(tr) + m.put_latency(tr, out.len()));
        ep.clock().join(t + cost);
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::rng::Rng;
    use fompi_fabric::CostModel;

    /// Drive the engine with real threads outside the Universe wrapper. As
    /// in `Universe::launch`, a rank that panics (a failed assertion) takes
    /// its peers out of their collectives, so the test fails, not hangs.
    fn with_ranks<T: Send>(p: usize, f: impl Fn(&Endpoint, &CollEngine) -> T + Sync) -> Vec<T> {
        let fabric = Fabric::new(p, 1, CostModel::default());
        let eng = CollEngine::new(p, fabric.clone());
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        std::thread::scope(|s| {
            for (r, slot) in out.iter_mut().enumerate() {
                let fabric = fabric.clone();
                let eng = &eng;
                let f = &f;
                s.spawn(move || {
                    let ep = Endpoint::new(fabric, r as u32);
                    let run = std::panic::AssertUnwindSafe(|| f(&ep, eng));
                    match std::panic::catch_unwind(run) {
                        Ok(v) => *slot = Some(v),
                        Err(payload) => {
                            eng.abort(r as u32);
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    #[test]
    fn barrier_is_a_max_plus_cost() {
        let times = with_ranks(4, |ep, eng| {
            ep.charge(500.0 * (ep.rank() + 1) as f64);
            eng.barrier(ep);
            ep.clock().now()
        });
        let expect_min = 2000.0; // slowest entry
        for t in times {
            assert!(t > expect_min);
        }
    }

    #[test]
    fn allgather_returns_everyones_bytes() {
        let res = with_ranks(3, |ep, eng| eng.allgather(ep, &[ep.rank() as u8; 2]));
        for per in res {
            assert_eq!(per, vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
        }
    }

    #[test]
    fn allreduce_min() {
        let res =
            with_ranks(5, |ep, eng| eng.allreduce_u64(ep, 100 - ep.rank() as u64, |a, b| a.min(b)));
        assert!(res.iter().all(|&v| v == 96));
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let res = with_ranks(1, |ep, eng| {
            eng.barrier(ep);
            let g = eng.allgather(ep, &[42]);
            let r = eng.allreduce_u64(ep, 7, |a, b| a + b);
            let b = eng.bcast(ep, 0, &[1, 2]);
            (g, r, b, ep.clock().now())
        });
        let (g, r, b, t) = &res[0];
        assert_eq!(g, &vec![vec![42]]);
        assert_eq!(*r, 7);
        assert_eq!(b, &vec![1, 2]);
        assert_eq!(*t, 0.0); // no cost at p = 1
    }

    /// Back-to-back barriers: before round `i` a rank posts `i`; after it,
    /// every peer must have posted `i` (it arrived) and at most `i + 1`
    /// (it is one barrier ahead at most — two would mean it lapped us).
    fn barriers_never_lap(p: usize, rounds: u64) {
        let at: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        with_ranks(p, |ep, eng| {
            for i in 1..=rounds {
                at[ep.rank() as usize].store(i, Ordering::Release);
                eng.barrier(ep);
                for (q, posted) in at.iter().enumerate() {
                    let seen = posted.load(Ordering::Acquire);
                    assert!(seen == i || seen == i + 1, "round {i}: rank {q} is at {seen}");
                }
            }
        });
    }

    /// The long count runs where waiters spin (two ranks fit any CI box);
    /// with more ranks than cores every round is a futex sleep, which is
    /// 10 s of a debug build on two cores — those get a tenth here and the
    /// full count in the nightly tier.
    #[test]
    fn back_to_back_barriers_never_lap() {
        barriers_never_lap(2, 100_000);
        for p in [3, 8] {
            barriers_never_lap(p, 10_000);
        }
        // More ranks than any CI box has cores: the blocking path.
        barriers_never_lap(64, 2_000);
    }

    #[test]
    #[ignore = "nightly tier: scripts/ci.sh nightly"]
    fn back_to_back_barriers_never_lap_long() {
        for p in [3, 8] {
            barriers_never_lap(p, 100_000);
        }
    }

    /// What `rank` contributes to `round`: length and content both depend
    /// on the round, so a slot read an epoch early or late cannot match.
    fn payload(round: u64, rank: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|j| (round * 31 + rank * 7 + j) as u8).collect()
    }

    /// A seeded mix of all five collectives with a different payload size
    /// every round and per-rank stalls between rounds. Every rank draws
    /// the same op sequence; each checks what it got against what every
    /// peer must have sent in *that* round — a buffer reused one epoch
    /// too early shows as a wrong length or wrong bytes.
    fn mixed_collectives(p: usize, rounds: u64) {
        let clocks = with_ranks(p, |ep, eng| {
            let me = ep.rank() as u64;
            let mut ops = Rng::seed_from_u64(0xC011);
            let mut stall = Rng::seed_from_u64(me + 1);
            for round in 0..rounds {
                if stall.next_below(4) == 0 {
                    std::thread::yield_now();
                }
                let len = ops.range(0, 200);
                match ops.next_below(5) {
                    0 => eng.barrier(ep),
                    1 => {
                        let got = eng.allgather(ep, &payload(round, me, len));
                        for (q, bytes) in got.iter().enumerate() {
                            assert_eq!(bytes, &payload(round, q as u64, len), "round {round}");
                        }
                    }
                    2 => {
                        let sum = eng.allreduce_u64(ep, round * (me + 1), u64::wrapping_add);
                        assert_eq!(sum, round * (p * (p + 1) / 2) as u64, "round {round}");
                    }
                    3 => {
                        let n = len / 8 + 1;
                        let mut v: Vec<f64> =
                            (0..n).map(|j| (round + me * j as u64) as f64).collect();
                        eng.allreduce_f64(ep, &mut v, |a, b| a + b);
                        for (j, x) in v.iter().enumerate() {
                            let want: f64 =
                                (0..p as u64).map(|q| (round + q * j as u64) as f64).sum();
                            assert_eq!(*x, want, "round {round} element {j}");
                        }
                    }
                    _ => {
                        let root = ops.next_below(p as u64);
                        let mine =
                            if me == root { payload(round, root, len) } else { vec![0xEE; 3] };
                        let got = eng.bcast(ep, root as u32, &mine);
                        assert_eq!(got, payload(round, root, len), "round {round}");
                    }
                }
            }
            ep.clock().now()
        });
        // Virtual time is schedule-independent: max-plus over the same ops.
        assert!(clocks.iter().all(|&t| t == clocks[0]), "{clocks:?}");
    }

    #[test]
    fn mixed_collectives_keep_their_rounds_apart() {
        mixed_collectives(2, 20_000);
        mixed_collectives(5, 4_000);
    }

    #[test]
    fn allreduce_f64_is_the_rank_order_fold() {
        // Magnitudes that make f64 addition order-sensitive.
        let term =
            |rank: usize, j: usize| [1e16, 1.0, -1e16, 3.5, 1e-3][(rank + j) % 5] * (j + 1) as f64;
        let res = with_ranks(5, |ep, eng| {
            let mut v: Vec<f64> = (0..7).map(|j| term(ep.rank() as usize, j)).collect();
            eng.allreduce_f64(ep, &mut v, |a, b| a + b);
            v
        });
        for v in res {
            for (j, x) in v.iter().enumerate() {
                let want = (1..5).fold(term(0, j), |acc, r| acc + term(r, j));
                assert_eq!(x.to_bits(), want.to_bits(), "element {j}");
            }
        }
    }

    /// Park + wake: the late rank arrives only once its peer has used up
    /// the spin budget and counted itself asleep.
    #[test]
    fn late_rank_wakes_a_parked_peer() {
        let times = with_ranks(2, |ep, eng| {
            if ep.rank() == 1 {
                ep.charge(5e6); // 5 ms late on the virtual clock too
                while eng.rv.sleepers.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            }
            eng.barrier(ep);
            let sum = eng.allreduce_u64(ep, ep.rank() as u64 + 1, |a, b| a + b);
            assert_eq!(sum, 3);
            ep.clock().now()
        });
        assert!(times[0] == times[1] && times[0] > 5e6, "{times:?}");
    }

    /// A parked rank whose peer dies is woken into a panic that names it.
    #[test]
    fn abort_wakes_a_parked_rank_into_a_panic() {
        let res = with_ranks(2, |ep, eng| {
            if ep.rank() == 1 {
                while eng.rv.sleepers.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                eng.abort(1);
                return None;
            }
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.barrier(ep)));
            // Later collectives must not wait either.
            let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.barrier(ep)));
            assert!(again.is_err());
            died.err().and_then(|e| e.downcast_ref::<String>().cloned())
        });
        let msg = res[0].as_deref().expect("rank 0 must panic");
        assert!(msg.contains("peer rank 1 panicked"), "{msg}");
    }
}

/// Exhaustive interleavings of arrive / release / park under loom (see the
/// import note at the top of the module for how to run them). A lost
/// wake-up is a thread blocked forever, which loom reports as a deadlock.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use loom::thread;

    /// Two ranks, two epochs, no spinning: whichever arrives first parks,
    /// and every interleaving of the releaser's store / sleeper check with
    /// the sleeper's count / release check must wake it.
    #[test]
    fn loom_release_never_loses_a_sleeper() {
        loom::model(|| {
            let rv = Arc::new(Rendezvous::new(2, false));
            let peer = {
                let rv = Arc::clone(&rv);
                thread::spawn(move || {
                    for k in 0..2 {
                        rv.arrive(k, || ());
                    }
                })
            };
            for k in 0..2 {
                assert_eq!(rv.epoch(), k);
                rv.arrive(k, || ());
            }
            peer.join().unwrap();
            assert_eq!(rv.epoch(), 2);
            assert_eq!(rv.sleepers.load(Ordering::SeqCst), 0);
        });
    }

    /// The peer dies instead of arriving: the waiter must come back with
    /// its rank, never sleep through the abort.
    #[test]
    fn loom_abort_never_loses_a_sleeper() {
        loom::model(|| {
            let rv = Arc::new(Rendezvous::new(2, false));
            let dying = {
                let rv = Arc::clone(&rv);
                thread::spawn(move || rv.abort(1))
            };
            rv.arrivals.fetch_add(1, Ordering::AcqRel);
            assert_eq!(rv.wait(0), Err(1));
            dying.join().unwrap();
        });
    }
}
