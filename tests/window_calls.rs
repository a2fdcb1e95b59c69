//! What a window call leaves behind, pinned: the L1 twin of
//! `fompi-fabric`'s `every_entry_point_matches_its_closed_form`.
//!
//! `every_window_call_matches_its_bill` runs each communication call of
//! `Win` on an allocated, a traditional and a dynamic window and compares
//! the origin's clock (to the bit), the fabric counters, the trace and —
//! with the race checker armed — the shadow intervals it recorded with the
//! closed form of the fabric operations the call is made of: a window call
//! is its 173-instruction overhead (or not), the address resolution of its
//! window kind, and a fixed sequence of `Endpoint` ops whose own bills the
//! fabric test pins. The same table has the refusals: no epoch, a span
//! outside the window, and which error wins when several apply.
//! `every_epoch_call_counts_and_traces_once` does the same for the
//! synchronisation calls: one sync counter and one span of its kind per
//! successful call, nothing at all on a refusal.

use fompi::perf::overhead;
use fompi::sync::lock::ASSERT_NOCHECK;
use fompi::{
    DataType, FetchAmo, FompiError, LockType, MpiOp, NumKind, Win, ANY_TAG, ASSERT_NOSUCCEED,
};
use fompi_fabric::shadow::{AccessKind, LockCtx, RacecheckMode, ACC_NOOP};
use fompi_fabric::telemetry::{EventKind, Flavor, NO_FLOW};
use fompi_fabric::{CostModel, CounterSnapshot, FabricError, Transport};
use fompi_runtime::{Group, RankCtx, Universe};

const WIN_BYTES: usize = 256;
/// Byte of the target's window every call lands at.
const AT: usize = 16;
/// How far the origin's clock is pushed before a measured call: past every
/// stamp it could join, so the bill is a function of the call alone.
const AHEAD: f64 = 1.0e6;
/// The shadow tag of compare-and-swap (`racecheck::ACC_CAS`).
const ACC_CAS: u16 = u16::MAX - 1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Allocate,
    Create,
    Dynamic,
}

/// A window of `kind` with `WIN_BYTES` of memory on rank 1, and the
/// displacement that names byte 0 of it.
fn window(ctx: &RankCtx, kind: Kind) -> (Win, usize) {
    match kind {
        Kind::Allocate => (Win::allocate(ctx, WIN_BYTES, 1).unwrap(), 0),
        Kind::Create => (Win::create(ctx, WIN_BYTES, 1).unwrap(), 0),
        Kind::Dynamic => {
            let win = Win::create_dynamic(ctx).unwrap();
            let addr = if ctx.rank() == 1 { win.attach(WIN_BYTES).unwrap() } else { 0 };
            let all = ctx.allgather(&addr.to_le_bytes());
            (win, u64::from_le_bytes(all[1].as_slice().try_into().unwrap()) as usize)
        }
    }
}

// ------------------------------------------------------------ the closed form

/// `(kind, flavor, bytes, carries a flow, t_start, t_end)` of one span.
type Span = (EventKind, Flavor, u64, bool, f64, f64);
/// `(lo, hi, kind, t_start, t_end)` of one shadow record, `lo` relative to
/// byte 0 of the target's memory.
type Shadowed = (usize, usize, AccessKind, f64, f64);

/// The origin as the cost model sees it: every method is the bill of one
/// fabric operation, in the arithmetic (and its association) the endpoint
/// performs.
struct Sim<'a> {
    m: &'a CostModel,
    kind: Kind,
    now: f64,
    /// Completion horizon toward the target.
    pending: f64,
    counters: CounterSnapshot,
    spans: Vec<Span>,
    /// Inside a causal flow scope.
    flow: bool,
    /// Clock when the call's address resolution began.
    rc_t0: f64,
    shadow: Vec<Shadowed>,
}

const T: Transport = Transport::Dmapp;

impl Sim<'_> {
    fn o(&self) -> f64 {
        self.m.inject(T)
    }

    /// The 173-instruction software overhead of the put/get path.
    fn overhead(&mut self) {
        self.now += overhead::put_get_ns();
    }

    /// `target_span`: free on a static window, one remote read of the
    /// region table's id on a dynamic one (the cache is warm).
    fn resolve(&mut self) {
        self.rc_t0 = self.now;
        if self.kind == Kind::Dynamic {
            self.counters.gets += 1;
            self.now += self.o();
            self.now += self.m.get_latency(T, 8);
        }
    }

    /// The epilogue: `[at, at + len)` recorded from resolution to now.
    fn shadowed(&mut self, at: usize, len: usize, kind: AccessKind) {
        self.shadow.push((at, at + len, kind, self.rc_t0, self.now));
    }

    /// One traced data op; returns its completion time.
    fn data(&mut self, kind: EventKind, flavor: Flavor, bytes: usize) -> f64 {
        let lat = match kind {
            EventKind::Put => self.m.put_latency(T, bytes),
            EventKind::Get => self.m.get_latency(T, bytes),
            _ => self.m.amo_latency(T),
        };
        let t_start = self.now;
        self.now += self.o();
        let done = self.now + lat;
        match kind {
            EventKind::Put => {
                self.counters.puts += 1;
                self.counters.bytes_put += bytes as u64;
            }
            EventKind::Get => {
                self.counters.gets += 1;
                self.counters.bytes_get += bytes as u64;
            }
            _ => self.counters.amos += 1,
        }
        self.spans.push((kind, flavor, bytes as u64, self.flow, t_start, done));
        match flavor {
            Flavor::Blocking => self.now = done,
            Flavor::Implicit => self.pending = self.pending.max(done),
            _ => {}
        }
        done
    }

    /// `amo_fetch_list`: the elements pipeline, the origin waits for the last.
    fn amo_fetch_list(&mut self, n: usize) {
        for _ in 0..n {
            self.data(EventKind::Amo, Flavor::Nonblocking, 8);
            self.spans.last_mut().unwrap().1 = Flavor::Blocking;
        }
        self.now += self.m.amo_latency(T);
    }

    /// `amo_sync`: a blocking stamped AMO, counted and untraced.
    fn amo_sync(&mut self) {
        self.counters.amos += 1;
        self.now += self.o();
        self.now += self.m.amo_latency(T);
    }

    /// An ordered non-fetching AMO (signal release, notification post): it
    /// completes no earlier than everything already issued to the target.
    fn ordered(&mut self) -> (f64, f64) {
        let t_start = self.now;
        self.now += self.o();
        let done = (self.now + self.m.amo_latency(T)).max(self.pending);
        self.pending = self.pending.max(done);
        (t_start, done)
    }

    fn signal(&mut self) {
        self.counters.amos += 1;
        self.ordered();
    }

    fn notify(&mut self, bytes: u64) {
        self.counters.notify_posts += 1;
        let (t_start, done) = self.ordered();
        self.spans.push((EventKind::NotifyPost, Flavor::Implicit, bytes, self.flow, t_start, done));
    }

    /// The locked fallback: CAS the accumulate lock, get, (put), swap it back.
    fn locked(&mut self, len: usize, stores: bool) {
        self.amo_sync();
        self.flow = true;
        self.data(EventKind::Get, Flavor::Blocking, len);
        if stores {
            self.data(EventKind::Put, Flavor::Blocking, len);
        }
        self.flow = false;
        self.amo_sync();
    }
}

// ------------------------------------------------------------------ the calls

/// One row: a call at displacement `at` of rank 1, and what it is made of.
struct Call {
    name: &'static str,
    run: fn(&Win, usize) -> fompi::Result<()>,
    bill: fn(&mut Sim),
}

fn acc(op: MpiOp) -> AccessKind {
    AccessKind::Acc(op as u16)
}

fn two_u64() -> Vec<u8> {
    [3u64, 4].iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Two 8-byte elements, 16 bytes apart: blocks `[0, 8)` and `[16, 24)`.
fn strided(elem: DataType) -> DataType {
    DataType::vector(2, 1, 2, elem)
}

fn dense(elem: DataType) -> DataType {
    DataType::contiguous(2, elem)
}

/// A three-element list on a 16-byte span: read word 0, CAS word 1, read
/// word 0 again.
fn read_cas_read() -> std::array::IntoIter<FetchAmo, 3> {
    [FetchAmo::read(0), FetchAmo::cas(8, 9, 0), FetchAmo::read(0)].into_iter()
}

const CALLS: &[Call] = &[
    Call {
        name: "put",
        run: |w, at| w.put(&[1; 8], 1, at),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.data(EventKind::Put, Flavor::Implicit, 8);
            s.shadowed(0, 8, AccessKind::Put);
        },
    },
    Call {
        name: "get",
        run: |w, at| w.get(&mut [0; 8], 1, at),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.data(EventKind::Get, Flavor::Implicit, 8);
            s.shadowed(0, 8, AccessKind::Get);
        },
    },
    Call {
        name: "rput",
        run: |w, at| w.rput(&[1; 8], 1, at).map(drop),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.data(EventKind::Put, Flavor::Nonblocking, 8);
            s.shadowed(0, 8, AccessKind::Put);
        },
    },
    Call {
        name: "rget",
        run: |w, at| w.rget(&mut [0; 8], 1, at).map(drop),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.data(EventKind::Get, Flavor::Nonblocking, 8);
            s.shadowed(0, 8, AccessKind::Get);
        },
    },
    Call {
        name: "put_typed",
        run: |w, at| {
            let (o, t) = (dense(DataType::uint64()), strided(DataType::uint64()));
            w.put_typed(&two_u64(), 1, &o, 1, at, 1, &t)
        },
        bill: |s| {
            s.overhead();
            s.resolve();
            for at in [0, 16] {
                s.data(EventKind::Put, Flavor::Implicit, 8);
                s.shadowed(at, 8, AccessKind::Put);
            }
        },
    },
    Call {
        name: "get_typed",
        run: |w, at| {
            let (o, t) = (dense(DataType::uint64()), strided(DataType::uint64()));
            w.get_typed(&mut [0; 16], 1, &o, 1, at, 1, &t)
        },
        bill: |s| {
            s.overhead();
            s.resolve();
            for at in [0, 16] {
                s.data(EventKind::Get, Flavor::Implicit, 8);
                s.shadowed(at, 8, AccessKind::Get);
            }
        },
    },
    Call {
        name: "accumulate, hardware class",
        run: |w, at| w.accumulate(&two_u64(), NumKind::U64, MpiOp::Sum, 1, at),
        bill: |s| {
            s.resolve();
            s.data(EventKind::Amo, Flavor::Implicit, 8);
            s.data(EventKind::Amo, Flavor::Implicit, 8);
            s.shadowed(0, 16, acc(MpiOp::Sum));
        },
    },
    Call {
        name: "accumulate, locked class",
        run: |w, at| w.accumulate(&two_u64(), NumKind::F64, MpiOp::Sum, 1, at),
        bill: |s| {
            s.resolve();
            s.locked(16, true);
            s.shadowed(0, 16, acc(MpiOp::Sum));
        },
    },
    Call {
        name: "accumulate_typed, hardware class",
        run: |w, at| {
            let (o, t) = (dense(DataType::uint64()), strided(DataType::uint64()));
            w.accumulate_typed(&two_u64(), 1, &o, NumKind::U64, MpiOp::Sum, 1, at, 1, &t)
        },
        bill: |s| {
            // Each block is an accumulate of its own, on its class's protocol.
            s.resolve();
            for at in [0, 16] {
                s.data(EventKind::Amo, Flavor::Implicit, 8);
                s.shadowed(at, 8, acc(MpiOp::Sum));
            }
        },
    },
    Call {
        name: "accumulate_typed, locked class",
        run: |w, at| {
            let (o, t) = (dense(DataType::double()), strided(DataType::double()));
            w.accumulate_typed(&two_u64(), 1, &o, NumKind::F64, MpiOp::Max, 1, at, 1, &t)
        },
        bill: |s| {
            s.resolve();
            for at in [0, 16] {
                s.locked(8, true);
                s.shadowed(at, 8, acc(MpiOp::Max));
            }
        },
    },
    Call {
        name: "get_accumulate, hardware class",
        run: |w, at| w.get_accumulate(&two_u64(), &mut [0; 16], NumKind::U64, MpiOp::Sum, 1, at),
        bill: |s| {
            s.resolve();
            s.amo_fetch_list(2);
            s.shadowed(0, 16, acc(MpiOp::Sum));
        },
    },
    Call {
        name: "get_accumulate, locked class, NO_OP",
        run: |w, at| w.get_accumulate(&[], &mut [0; 16], NumKind::F64, MpiOp::NoOp, 1, at),
        bill: |s| {
            s.resolve();
            s.locked(16, false);
            s.shadowed(0, 16, AccessKind::Acc(ACC_NOOP));
        },
    },
    Call {
        name: "fetch_and_op",
        run: |w, at| {
            w.fetch_and_op(&5u64.to_le_bytes(), &mut [0; 8], NumKind::U64, MpiOp::Sum, 1, at)
        },
        bill: |s| {
            s.resolve();
            s.data(EventKind::Amo, Flavor::Blocking, 8);
            s.shadowed(0, 8, acc(MpiOp::Sum));
        },
    },
    Call {
        name: "amo_fetch_list",
        run: |w, at| w.amo_fetch_list(1, at, 16, read_cas_read(), |_, _| {}),
        bill: |s| {
            s.resolve();
            s.amo_fetch_list(3);
            // Each element is an access of its own, of its own kind.
            s.shadowed(0, 8, AccessKind::Acc(ACC_NOOP));
            s.shadowed(8, 8, AccessKind::Acc(ACC_CAS));
            s.shadowed(0, 8, AccessKind::Acc(ACC_NOOP));
        },
    },
    Call {
        name: "compare_and_swap",
        run: |w, at| w.compare_and_swap(9, 0, 1, at).map(drop),
        bill: |s| {
            s.resolve();
            s.data(EventKind::Amo, Flavor::Blocking, 8);
            s.shadowed(0, 8, AccessKind::Acc(ACC_CAS));
        },
    },
    Call {
        name: "put_signal",
        run: |w, at| w.put_signal(&[1; 8], 1, at, 2),
        bill: |s| {
            s.overhead();
            s.flow = true;
            s.resolve();
            s.data(EventKind::Put, Flavor::Implicit, 8);
            s.shadowed(0, 8, AccessKind::Put);
            s.signal();
            s.flow = false;
        },
    },
    Call {
        name: "put_notify",
        run: |w, at| w.put_notify(&[1; 8], 1, at, 7),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.flow = true;
            s.data(EventKind::Put, Flavor::Implicit, 8);
            s.notify(8);
            s.flow = false;
            s.shadowed(0, 8, AccessKind::Put);
        },
    },
    Call {
        name: "get_notify",
        run: |w, at| w.get_notify(&mut [0; 8], 1, at, 7),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.flow = true;
            s.data(EventKind::Get, Flavor::Implicit, 8);
            s.notify(8);
            s.flow = false;
            s.shadowed(0, 8, AccessKind::Get);
        },
    },
    Call {
        name: "accumulate_notify",
        run: |w, at| w.accumulate_notify(1, MpiOp::Sum, 1, at, 7),
        bill: |s| {
            s.overhead();
            s.resolve();
            s.flow = true;
            s.data(EventKind::Amo, Flavor::Implicit, 8);
            s.notify(8);
            s.flow = false;
            s.shadowed(0, 8, acc(MpiOp::Sum));
        },
    },
];

// ------------------------------------------------------------ running a call

/// What rank 0 saw around one call.
struct Seen {
    result: fompi::Result<()>,
    t0: f64,
    t1: f64,
    counters: CounterSnapshot,
    pending: f64,
    win_id: u64,
    base: usize,
}

/// Run `call` from rank 0 at displacement `AT + skew` of rank 1 on a fresh
/// window of `kind`, inside a `lock_all` epoch if `epoch`; returns what
/// rank 0 saw, the spans it traced and the shadow records it left (the
/// checker is armed iff `racecheck`, and then nothing else is compared).
fn observe(
    kind: Kind,
    run: fn(&Win, usize) -> fompi::Result<()>,
    skew: usize,
    epoch: bool,
    racecheck: bool,
) -> (Seen, Vec<Span>, Vec<Shadowed>) {
    let mode = if racecheck { RacecheckMode::Report } else { RacecheckMode::Off };
    let (mut seen, fabric) =
        Universe::new(2).node_size(1).trace(4096).racecheck(mode).launch(move |ctx| {
            let (win, base) = window(ctx, kind);
            if epoch {
                win.lock_all().unwrap();
            }
            // The peer's lock_all is counted before rank 0 starts measuring.
            ctx.barrier();
            let mut seen = None;
            if ctx.rank() == 0 {
                if epoch && kind == Kind::Dynamic {
                    // Warm the region-table cache: the steady state is pinned.
                    win.get(&mut [0; 8], 1, base).unwrap();
                    win.flush_all().unwrap();
                }
                if racecheck {
                    // Every byte of the target already written by this origin
                    // in this epoch and phase: whatever the call records next
                    // conflicts with it, and the violation shows the record.
                    let lock = if epoch { LockCtx::Shared } else { LockCtx::NoLock };
                    let put = AccessKind::Put;
                    ctx.fabric().shadow().record_remote(
                        win.telemetry_id(),
                        1,
                        0,
                        0,
                        usize::MAX,
                        put,
                        lock,
                        0.0,
                        0.0,
                        NO_FLOW,
                    );
                }
                ctx.ep().charge(AHEAD);
                let before = ctx.fabric().counters().snapshot();
                let t0 = ctx.now();
                let result = run(&win, base + AT + skew);
                let t1 = ctx.now();
                let counters = ctx.fabric().counters().snapshot().since(&before);
                let pending = ctx.ep().pending_for(1);
                ctx.ep().charge(AHEAD);
                seen = Some(Seen {
                    result,
                    t0,
                    t1,
                    counters,
                    pending,
                    win_id: win.telemetry_id(),
                    base,
                });
            }
            ctx.barrier();
            if epoch {
                win.unlock_all().unwrap();
            }
            ctx.barrier();
            seen
        });
    let seen = seen[0].take().unwrap();
    let spans = fabric
        .telemetry()
        .events()
        .iter()
        .filter(|e| e.origin == 0 && e.t_start >= seen.t0 && e.t_start <= seen.t1)
        .filter(|e| e.kind != EventKind::RaceReport)
        .map(|e| {
            assert_eq!((e.target, e.win, e.transport), (1, seen.win_id, Some(T)), "{:?}", e.kind);
            (e.kind, e.flavor, e.bytes, e.flow != NO_FLOW, e.t_start, e.t_end)
        })
        .collect();
    let shadow = fabric
        .shadow()
        .violations()
        .iter()
        .map(|v| {
            assert_eq!((v.win, v.b.origin), (seen.win_id, 0));
            assert_eq!(v.b.lock, if epoch { LockCtx::Shared } else { LockCtx::NoLock });
            // Dynamic windows key intervals by attach address, the rest by
            // window offset: either way relative to byte 0 of the memory.
            let zero = if kind == Kind::Dynamic { seen.base } else { 0 };
            (v.b.lo - zero, v.b.hi - zero, v.b.kind, v.b.t_start, v.b.t_end)
        })
        .collect();
    (seen, spans, shadow)
}

fn sim(m: &CostModel, kind: Kind, t0: f64) -> Sim<'_> {
    Sim {
        m,
        kind,
        now: t0,
        pending: 0.0,
        counters: CounterSnapshot::default(),
        spans: vec![],
        flow: false,
        rc_t0: t0,
        shadow: vec![],
    }
}

#[test]
fn every_window_call_matches_its_bill() {
    let m = CostModel::default();
    for kind in [Kind::Allocate, Kind::Create, Kind::Dynamic] {
        for call in CALLS {
            let ctx = format!("{} on a {kind:?} window", call.name);
            let (seen, spans, _) = observe(kind, call.run, 0, true, false);
            assert_eq!(seen.result, Ok(()), "{ctx}");
            let mut want = sim(&m, kind, seen.t0);
            (call.bill)(&mut want);
            want.counters.bytes_amo = 8 * want.counters.amos;
            assert_eq!(seen.t1, want.now, "{ctx}: clock");
            assert_eq!(seen.counters, want.counters, "{ctx}: counters");
            assert_eq!(spans, want.spans, "{ctx}: spans");
            if want.pending > 0.0 {
                assert_eq!(seen.pending, want.pending, "{ctx}: pending horizon");
            } else {
                assert!(seen.pending < seen.t0, "{ctx}: nothing left pending");
            }
            // The same call with the checker armed: same clock, and the
            // shadow holds exactly the intervals of the closed form.
            let (armed, _, shadow) = observe(kind, call.run, 0, true, true);
            let mut want = sim(&m, kind, armed.t0);
            (call.bill)(&mut want);
            assert_eq!(armed.t1, want.now, "{ctx}: clock, checker armed");
            let at = |&(lo, hi, k, t0, t1): &Shadowed| (AT + lo, AT + hi, k, t0, t1);
            assert_eq!(shadow, want.shadow.iter().map(at).collect::<Vec<_>>(), "{ctx}: shadow");

            // No epoch: refused, and nothing moved.
            let (seen, spans, shadow) = observe(kind, call.run, 0, false, true);
            assert_eq!(seen.result, Err(FompiError::NoAccessEpoch { target: 1 }), "{ctx}");
            assert_eq!(seen.t1, seen.t0, "{ctx}: a refusal is free");
            assert_eq!(
                seen.counters,
                CounterSnapshot::default(),
                "{ctx}: a refusal counts nothing"
            );
            assert!(spans.is_empty() && shadow.is_empty(), "{ctx}: a refusal leaves no trace");

            // A span past the end of the window: refused once the address
            // is resolved — after the software overhead, where one is
            // charged, and on a dynamic window after the one remote read of
            // the region table's id; no fabric op, no span, no record.
            let (seen, spans, shadow) = observe(kind, call.run, WIN_BYTES, true, true);
            let mut billed = sim(&m, kind, seen.t0);
            (call.bill)(&mut billed);
            let mut want = sim(&m, kind, billed.rc_t0);
            want.resolve();
            match (&seen.result, kind) {
                (Err(FompiError::NotAttached { target: 1, .. }), Kind::Dynamic) => {}
                (Err(FompiError::OutOfBounds { target: 1, .. }), Kind::Allocate | Kind::Create) => {
                }
                (other, _) => panic!("{ctx}: out of bounds gave {other:?}"),
            }
            assert_eq!(seen.t1, want.now, "{ctx}: clock of an out-of-bounds refusal");
            assert_eq!(seen.counters, want.counters, "{ctx}: counters of an out-of-bounds refusal");
            assert!(spans.is_empty() && shadow.is_empty(), "{ctx}: an out-of-bounds refusal");
        }
    }
}

#[test]
fn a_bare_notification_matches_its_bill() {
    // `Win::notify` names a rank, not window memory: on every window kind
    // it is the put path's overhead and one ordered notification post whose
    // record carries the count, in a flow of its own, and the race checker
    // has no interval to record.
    let m = CostModel::default();
    let run: fn(&Win, usize) -> fompi::Result<()> = |w, _| w.notify(1, 7, 5);
    for kind in [Kind::Allocate, Kind::Create, Kind::Dynamic] {
        let ctx = format!("notify on a {kind:?} window");
        for racecheck in [false, true] {
            let (seen, spans, shadow) = observe(kind, run, 0, true, racecheck);
            assert_eq!(seen.result, Ok(()), "{ctx}");
            let mut want = sim(&m, kind, seen.t0);
            want.overhead();
            want.flow = true;
            want.notify(5);
            assert_eq!(seen.t1, want.now, "{ctx}: clock");
            assert_eq!(seen.counters, want.counters, "{ctx}: counters");
            assert_eq!(spans, want.spans, "{ctx}: spans");
            assert_eq!(seen.pending, want.pending, "{ctx}: pending horizon");
            assert!(shadow.is_empty(), "{ctx}: nothing shadowed");
        }
    }
}

/// Which error wins when several apply — a row per call that validates its
/// arguments: `(name, call, in an epoch?, displacement skew, the error)`.
#[test]
fn window_call_errors_keep_their_precedence() {
    type Row = (&'static str, fn(&Win, usize) -> fompi::Result<()>, bool, usize, FompiError);
    let bad_acc = |why| FompiError::BadAccumulate(why);
    let no_epoch = FompiError::NoAccessEpoch { target: 1 };
    let oob = |len| FompiError::OutOfBounds {
        target: 1,
        offset: AT + WIN_BYTES,
        len,
        win_size: WIN_BYTES,
    };
    let ragged: fn(&Win, usize) -> fompi::Result<()> =
        |w, at| w.accumulate(&[0; 12], NumKind::U64, MpiOp::Sum, 1, at);
    let ragged_get: fn(&Win, usize) -> fompi::Result<()> =
        |w, at| w.get_accumulate(&[0; 8], &mut [0; 12], NumKind::U64, MpiOp::Sum, 1, at);
    let ragged_typed: fn(&Win, usize) -> fompi::Result<()> = |w, at| {
        let t = DataType::contiguous(12, DataType::byte());
        w.accumulate_typed(&[0; 12], 1, &t, NumKind::U64, MpiOp::Sum, 1, at, 1, &t)
    };
    let rows: Vec<Row> = vec![
        // No epoch beats a bad shape beats a span out of bounds.
        ("accumulate", ragged, false, WIN_BYTES, no_epoch.clone()),
        ("accumulate", ragged, true, WIN_BYTES, bad_acc("origin not a whole number of elements")),
        ("get_accumulate", ragged_get, false, WIN_BYTES, no_epoch.clone()),
        ("get_accumulate", ragged_get, true, WIN_BYTES, bad_acc("origin/result element mismatch")),
        ("accumulate_typed", ragged_typed, false, WIN_BYTES, no_epoch.clone()),
        (
            "accumulate_typed",
            ragged_typed,
            true,
            WIN_BYTES,
            bad_acc("typemap not a whole number of elements"),
        ),
        // A CAS resolves its address first: alignment is a property of it.
        ("compare_and_swap", |w, at| w.compare_and_swap(1, 0, 1, at).map(drop), true, 4, {
            bad_acc("CAS target must be 8-byte aligned")
        }),
        (
            "compare_and_swap",
            |w, at| w.compare_and_swap(1, 0, 1, at).map(drop),
            true,
            WIN_BYTES + 4,
            FompiError::OutOfBounds {
                target: 1,
                offset: AT + WIN_BYTES + 4,
                len: 8,
                win_size: WIN_BYTES,
            },
        ),
        // The typed calls resolve the extent before they pair the typemaps.
        (
            "put_typed",
            |w, at| {
                let (o, t) = (DataType::contiguous(3, DataType::byte()), DataType::uint64());
                w.put_typed(&[0; 8], 1, &o, 1, at, 1, &t)
            },
            true,
            0,
            FompiError::TypeMismatch { origin_bytes: 3, target_bytes: 8 },
        ),
        (
            "put_typed",
            |w, at| {
                let (o, t) = (DataType::contiguous(3, DataType::byte()), DataType::uint64());
                w.put_typed(&[0; 8], 1, &o, 1, at, 1, &t)
            },
            true,
            WIN_BYTES,
            oob(8),
        ),
        // What a notified call checks before it looks at the epoch.
        ("put_signal", |w, at| w.put_signal(&[1; 8], 1, at, 99), false, 0, {
            FompiError::InvalidEpoch("signal slot out of range")
        }),
        ("put_notify", |w, at| w.put_notify(&[1; 8], 1, at, ANY_TAG), false, 0, {
            FompiError::InvalidEpoch("ANY_TAG is reserved for matching")
        }),
        ("get_notify", |w, at| w.get_notify(&mut [0; 8], 1, at, ANY_TAG), false, 0, {
            FompiError::InvalidEpoch("ANY_TAG is reserved for matching")
        }),
        (
            "accumulate_notify",
            |w, at| w.accumulate_notify(1, MpiOp::Sum, 1, at, ANY_TAG),
            false,
            0,
            { FompiError::InvalidEpoch("ANY_TAG is reserved for matching") },
        ),
        ("accumulate_notify", |w, at| w.accumulate_notify(1, MpiOp::Max, 1, at, 7), false, 0, {
            bad_acc("accumulate_notify needs a hardware AMO op")
        }),
        ("accumulate_notify", |w, at| w.accumulate_notify(1, MpiOp::Sum, 1, at, 7), false, 0, {
            no_epoch.clone()
        }),
        ("notify", |w, _| w.notify(1, ANY_TAG, 1), false, 0, {
            FompiError::InvalidEpoch("ANY_TAG is reserved for matching")
        }),
        ("notify", |w, _| w.notify(1, 7, 1), false, 0, no_epoch.clone()),
        (
            "fetch_and_op",
            |w, at| w.fetch_and_op(&[], &mut [0; 4], NumKind::U64, MpiOp::NoOp, 1, at),
            false,
            0,
            { bad_acc("fetch_and_op result must be one element") },
        ),
    ];
    for (name, run, epoch, skew, want) in rows {
        let (seen, spans, shadow) = observe(Kind::Allocate, run, skew, epoch, true);
        let ctx = format!("{name}, epoch {epoch}, skew {skew}");
        assert_eq!(seen.result, Err(want), "{ctx}");
        assert_eq!(seen.counters, CounterSnapshot::default(), "{ctx}: a refusal counts nothing");
        assert!(spans.is_empty() && shadow.is_empty(), "{ctx}: a refusal leaves no trace");
    }
}

/// Every misuse of a fetching AMO list is an error, refused before anything
/// is applied, priced or counted: the clock, the counters, the trace and
/// the race checker's shadow read as before the call.
#[test]
fn a_fetching_amo_list_refuses_misuse_before_anything_moves() {
    type Refused = fn(&FompiError) -> bool;
    type Row = (&'static str, fn(&Win, usize) -> fompi::Result<()>, bool, usize, Refused);
    let rows: &[Row] = &[
        (
            "no access epoch",
            |w, at| w.amo_fetch_list(1, at, 16, read_cas_read(), |_, _| {}),
            false,
            0,
            |e| *e == FompiError::NoAccessEpoch { target: 1 },
        ),
        (
            "a misaligned element",
            |w, at| w.amo_fetch_list(1, at, 16, [0, 4].map(FetchAmo::read).into_iter(), |_, _| {}),
            true,
            0,
            |e| matches!(e, FompiError::Fabric(FabricError::Misaligned { offset, .. }) if *offset == AT + 4),
        ),
        (
            "a misaligned span",
            |w, at| w.amo_fetch_list(1, at, 16, read_cas_read(), |_, _| {}),
            true,
            4,
            |e| matches!(e, FompiError::Fabric(FabricError::Misaligned { offset, .. }) if *offset == AT + 4),
        ),
        (
            "an element outside the span",
            |w, at| w.amo_fetch_list(1, at, 16, [0, 16].map(FetchAmo::read).into_iter(), |_, _| {}),
            true,
            0,
            |e| {
                let (offset, lo, hi) = (AT + 16, AT, AT + 16);
                matches!(e, FompiError::Fabric(FabricError::OutsideSpan { offset: o, lo: l, hi: h, .. })
                    if (*o, *l, *h) == (offset, lo, hi))
            },
        ),
        (
            "a span past the window's end",
            |w, at| w.amo_fetch_list(1, at, 16, read_cas_read(), |_, _| {}),
            true,
            WIN_BYTES - AT - 8,
            |e| {
                let (offset, len, win_size) = (WIN_BYTES - 8, 16, WIN_BYTES);
                *e == FompiError::OutOfBounds { target: 1, offset, len, win_size }
            },
        ),
        (
            "an empty list",
            |w, at| w.amo_fetch_list(1, at, 16, std::iter::empty(), |_, _| {}),
            true,
            0,
            |e| *e == FompiError::BadAccumulate("empty fetching AMO list"),
        ),
    ];
    for &(name, run, epoch, skew, refused) in rows {
        let (seen, spans, shadow) = observe(Kind::Allocate, run, skew, epoch, true);
        match &seen.result {
            Err(e) if refused(e) => {}
            other => panic!("{name}: got {other:?}"),
        }
        assert_eq!(seen.t1, seen.t0, "{name}: a refusal is free");
        assert_eq!(seen.counters, CounterSnapshot::default(), "{name}: a refusal counts nothing");
        assert!(spans.is_empty() && shadow.is_empty(), "{name}: a refusal leaves no trace");
    }
}

// ------------------------------------------------------------ the epoch calls

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Done,
    /// `test` found the epoch still open.
    NotYet,
    Refused,
}

fn outcome<T>(r: fompi::Result<T>) -> Outcome {
    match r {
        Ok(_) => Outcome::Done,
        Err(FompiError::InvalidEpoch(_)) => Outcome::Refused,
        Err(e) => panic!("an epoch call fails with InvalidEpoch or not at all: {e}"),
    }
}

/// One step of the script: who runs it (`None`: both ranks, collectively;
/// rank 0 measures), what it is, and what it must leave.
struct Step {
    who: Option<u32>,
    name: &'static str,
    run: fn(&Win) -> Outcome,
    outcome: Outcome,
    counters: fn(&mut CounterSnapshot),
    /// Span kinds the acting rank traced, in start order.
    spans: &'static [EventKind],
}

fn step(
    who: u32,
    name: &'static str,
    run: fn(&Win) -> Outcome,
    counters: fn(&mut CounterSnapshot),
    spans: &'static [EventKind],
) -> Step {
    Step { who: Some(who), name, run, outcome: Outcome::Done, counters, spans }
}

fn refused(who: u32, name: &'static str, run: fn(&Win) -> Outcome) -> Step {
    Step { who: Some(who), name, run, outcome: Outcome::Refused, counters: |_| {}, spans: &[] }
}

#[test]
fn every_epoch_call_counts_and_traces_once() {
    use EventKind::*;
    let script: Vec<Step> = vec![
        // Nothing is open: every closing call is refused.
        refused(0, "unlock without lock", |w| outcome(w.unlock(1))),
        refused(0, "unlock_all without lock_all", |w| outcome(w.unlock_all())),
        refused(0, "flush outside an epoch", |w| outcome(w.flush(1))),
        refused(0, "flush_all outside an epoch", |w| outcome(w.flush_all())),
        refused(0, "flush_local outside an epoch", |w| outcome(w.flush_local(1))),
        refused(0, "flush_local_all outside an epoch", |w| outcome(w.flush_local_all())),
        refused(0, "complete without start", |w| outcome(w.complete())),
        refused(0, "wait without post", |w| outcome(w.wait())),
        refused(0, "test without post", |w| outcome(w.test())),
        refused(0, "mcs_unlock without mcs_lock", |w| outcome(w.mcs_unlock())),
        // Fence, collectively: each rank counts and traces its own.
        Step {
            who: None,
            name: "fence",
            run: |w| outcome(w.fence()),
            outcome: Outcome::Done,
            counters: |c| (c.fences, c.gsyncs) = (2, 2),
            spans: &[Fence, Gsync],
        },
        refused(0, "lock in a fence epoch", |w| outcome(w.lock(LockType::Shared, 1))),
        refused(0, "lock_all in a fence epoch", |w| outcome(w.lock_all())),
        refused(0, "start in a fence epoch", |w| outcome(w.start(&Group::new([1])))),
        refused(0, "mcs_lock in a fence epoch", |w| outcome(w.mcs_lock())),
        Step {
            who: None,
            name: "fence(NOSUCCEED)",
            run: |w| outcome(w.fence_assert(ASSERT_NOSUCCEED)),
            outcome: Outcome::Done,
            counters: |c| (c.fences, c.gsyncs) = (2, 2),
            spans: &[Fence, Gsync],
        },
        // Shared lock, the flush family under it, unlock.
        step(
            0,
            "lock shared",
            |w| outcome(w.lock(LockType::Shared, 1)),
            |c| (c.locks, c.amos) = (1, 1),
            &[Lock],
        ),
        refused(0, "lock twice", |w| outcome(w.lock(LockType::Shared, 1))),
        refused(0, "fence under a lock", |w| outcome(w.fence())),
        refused(0, "lock_all under a lock", |w| outcome(w.lock_all())),
        refused(0, "flush of an unlocked target", |w| outcome(w.flush(0))),
        step(0, "flush", |w| outcome(w.flush(1)), |c| c.flushes = 1, &[Flush]),
        step(0, "flush_local", |w| outcome(w.flush_local(1)), |c| c.flushes = 1, &[FlushLocal]),
        step(
            0,
            "flush_all",
            |w| outcome(w.flush_all()),
            |c| (c.flushes, c.gsyncs) = (1, 1),
            &[Flush, Gsync],
        ),
        step(
            0,
            "flush_local_all",
            |w| outcome(w.flush_local_all()),
            |c| c.flushes = 1,
            &[FlushLocal],
        ),
        step(
            0,
            "sync",
            |w| {
                w.sync();
                Outcome::Done
            },
            |_| {},
            &[WinSync],
        ),
        step(
            0,
            "unlock shared",
            |w| outcome(w.unlock(1)),
            |c| (c.unlocks, c.flushes, c.amos) = (1, 1, 1),
            &[Unlock, Flush],
        ),
        // Exclusive: global registration + local CAS, and both back.
        step(
            0,
            "lock exclusive",
            |w| outcome(w.lock(LockType::Exclusive, 1)),
            |c| (c.locks, c.amos) = (1, 2),
            &[Lock],
        ),
        step(
            0,
            "unlock exclusive",
            |w| outcome(w.unlock(1)),
            |c| (c.unlocks, c.flushes, c.amos) = (1, 1, 2),
            &[Unlock, Flush],
        ),
        // MPI_MODE_NOCHECK: counted and traced like any lock, zero fabric ops.
        step(
            0,
            "lock NOCHECK",
            |w| outcome(w.lock_assert(LockType::Exclusive, 1, ASSERT_NOCHECK)),
            |c| c.locks = 1,
            &[Lock],
        ),
        step(
            0,
            "unlock NOCHECK",
            |w| outcome(w.unlock(1)),
            |c| (c.unlocks, c.flushes) = (1, 1),
            &[Unlock, Flush],
        ),
        // lock_all.
        step(0, "lock_all", |w| outcome(w.lock_all()), |c| (c.locks, c.amos) = (1, 1), &[LockAll]),
        refused(0, "lock_all twice", |w| outcome(w.lock_all())),
        refused(0, "start under lock_all", |w| outcome(w.start(&Group::new([1])))),
        refused(0, "mcs_lock under lock_all", |w| outcome(w.mcs_lock())),
        step(
            0,
            "unlock_all",
            |w| outcome(w.unlock_all()),
            |c| (c.unlocks, c.gsyncs, c.amos) = (1, 1, 1),
            &[UnlockAll, Gsync],
        ),
        // PSCW: post and complete talk to the peer, start and wait do not.
        step(
            1,
            "post",
            |w| outcome(w.post(&Group::new([0]))),
            |c| (c.gets, c.puts, c.amos) = (3, 1, 2),
            &[Post],
        ),
        refused(1, "post twice", |w| outcome(w.post(&Group::new([0])))),
        Step {
            who: Some(1),
            name: "test before complete",
            run: |w| if w.test().unwrap() { Outcome::Done } else { Outcome::NotYet },
            outcome: Outcome::NotYet,
            counters: |_| {},
            spans: &[],
        },
        step(
            0,
            "start",
            |w| outcome(w.start(&Group::new([1]))),
            |c| (c.puts, c.amos) = (1, 2),
            &[Start],
        ),
        refused(0, "start twice", |w| outcome(w.start(&Group::new([1])))),
        step(
            0,
            "complete",
            |w| outcome(w.complete()),
            |c| (c.gsyncs, c.amos) = (1, 1),
            &[Complete, Gsync],
        ),
        step(1, "wait", |w| outcome(w.wait()), |c| c.amos = 1, &[WaitEpoch]),
        step(
            1,
            "post again",
            |w| outcome(w.post(&Group::new([0]))),
            |c| (c.gets, c.puts, c.amos) = (3, 1, 2),
            &[Post],
        ),
        step(
            0,
            "start again",
            |w| outcome(w.start(&Group::new([1]))),
            |c| (c.puts, c.amos) = (1, 2),
            &[Start],
        ),
        step(
            0,
            "complete again",
            |w| outcome(w.complete()),
            |c| (c.gsyncs, c.amos) = (1, 1),
            &[Complete, Gsync],
        ),
        step(
            1,
            "test after complete",
            |w| outcome(w.test().map(|done| assert!(done))),
            |c| c.amos = 1,
            &[WaitEpoch],
        ),
        // The MCS lock: a window-wide epoch, counted and traced like
        // lock_all / unlock_all.
        step(
            0,
            "mcs_lock",
            |w| outcome(w.mcs_lock()),
            |c| (c.locks, c.puts, c.amos) = (1, 2, 1),
            &[LockAll],
        ),
        refused(0, "mcs_lock twice", |w| outcome(w.mcs_lock())),
        step(
            0,
            "mcs_unlock",
            |w| outcome(w.mcs_unlock()),
            |c| (c.unlocks, c.gsyncs, c.amos) = (1, 1, 1),
            &[UnlockAll, Gsync],
        ),
        // Notified access: a consumed record is one NotifyWait span.
        Step {
            who: None,
            name: "lock_all, both",
            run: |w| outcome(w.lock_all()),
            outcome: Outcome::Done,
            counters: |c| (c.locks, c.amos) = (2, 2),
            spans: &[LockAll],
        },
        step(
            0,
            "put_notify x2",
            |w| {
                outcome(
                    w.put_notify(&[1; 8], 1, 0, 7).and_then(|()| w.put_notify(&[1; 8], 1, 8, 8)),
                )
            },
            |c| (c.puts, c.bytes_put, c.notify_posts) = (2, 16, 2),
            &[Put, NotifyPost, Put, NotifyPost],
        ),
        Step {
            who: Some(1),
            name: "test_notify, no match",
            run: |w| {
                if w.test_notify(0, 99).unwrap().is_some() {
                    Outcome::Done
                } else {
                    Outcome::NotYet
                }
            },
            outcome: Outcome::NotYet,
            counters: |c| c.notify_consumed = 2,
            spans: &[],
        },
        step(
            1,
            "test_notify",
            |w| outcome(w.test_notify(0, 8).map(|rec| assert!(rec.is_some()))),
            |_| {},
            &[NotifyWait],
        ),
        step(1, "wait_notify", |w| outcome(w.wait_notify(0, 7)), |_| {}, &[NotifyWait]),
        Step {
            who: None,
            name: "unlock_all, both",
            run: |w| outcome(w.unlock_all()),
            outcome: Outcome::Done,
            counters: |c| (c.unlocks, c.gsyncs, c.amos) = (2, 2, 2),
            spans: &[UnlockAll, Gsync],
        },
    ];

    /// `(outcome, t0, t1, counters)` of a step, on the rank that measured it.
    type Measured = Option<(Outcome, f64, f64, CounterSnapshot)>;
    let script = &script;
    let (seen, fabric) = Universe::new(2).node_size(1).trace(4096).launch(move |ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        let mut seen: Vec<Measured> = Vec::new();
        for s in script {
            ctx.barrier();
            let acts = s.who.is_none_or(|r| r == ctx.rank());
            let measures = s.who.unwrap_or(0) == ctx.rank();
            let before = ctx.fabric().counters().snapshot();
            // Nobody starts before everybody has its snapshot.
            ctx.barrier();
            ctx.ep().charge(AHEAD);
            let t0 = ctx.now();
            let got = acts.then(|| (s.run)(&win));
            let t1 = ctx.now();
            ctx.ep().charge(AHEAD);
            ctx.barrier();
            let counters = ctx.fabric().counters().snapshot().since(&before);
            seen.push(got.filter(|_| measures).map(|got| (got, t0, t1, counters)));
        }
        ctx.barrier();
        win.free(ctx);
        seen
    });
    let events = fabric.telemetry().events();
    for (i, s) in script.iter().enumerate() {
        let rank = s.who.unwrap_or(0);
        let (got, t0, t1, counters) = seen[rank as usize][i].expect("the acting rank measured");
        assert_eq!(got, s.outcome, "{}", s.name);
        let mut want = CounterSnapshot::default();
        (s.counters)(&mut want);
        want.bytes_amo = 8 * want.amos;
        assert_eq!(counters, want, "{}: counters", s.name);
        let spans: Vec<EventKind> = events
            .iter()
            .filter(|e| e.origin == rank && e.t_start >= t0 && e.t_start <= t1)
            .map(|e| e.kind)
            .collect();
        assert_eq!(spans, s.spans, "{}: spans", s.name);
        if s.outcome == Outcome::Refused {
            assert_eq!(t1, t0, "{}: a refusal is free", s.name);
        }
    }
}
