//! Harness-side spans. Workloads are generic over a [`Probe`]: with [`Off`]
//! every call compiles to nothing, so the untraced run is the shipped fast
//! path; with [`Rec`] each call into a layer is bracketed by two
//! `Instant::now()` reads and recorded in memory (name, start, duration,
//! parent, cycle). Nothing is written until the run has ended.

use crate::stats::Thinned;
use std::time::Instant;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span name the harness records.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Span { $($variant,)* }

        impl Span {
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    // Structure: one cycle (= one timed batch) and the phases inside it.
    Cycle => "cycle",
    Verify => "verify",
    PhaseFence => "phase.fence",
    PhasePscw => "phase.pscw",
    PhaseLock => "phase.lock",
    PhasePingPong => "phase.pingpong",
    PhaseChannel => "phase.channel",
    PhaseFanin => "phase.fanin",
    PhaseRpc => "phase.rpc",
    // Calibration: nothing between begin and end.
    Empty => "trace.span_overhead",
    // fabric: direct Endpoint calls.
    FabPut8 => "fabric.put_implicit_8",
    FabPut8Duplex => "fabric.put_implicit_8_duplex",
    FabPut8Batched => "fabric.put_implicit_8_batched",
    FabPut4096 => "fabric.put_implicit_4096",
    FabGet8 => "fabric.get_implicit_8",
    FabGet4096 => "fabric.get_implicit_4096",
    FabAmoFadd => "fabric.amo_fadd",
    FabAmoCas => "fabric.amo_cas",
    FabFlushTarget => "fabric.flush_target",
    FabPutNotified8 => "fabric.put_notified_8",
    FabNotifyAppend => "fabric.notify_append",
    FabNotifyPop => "fabric.notify_pop",
    // core: Win calls.
    CorePut8 => "core.put_8",
    CorePut8DuplexBurst => "core.put_8_duplex_burst",
    CoreGet8 => "core.get_8",
    CoreGet4096 => "core.get_4096",
    CoreFetchAndOp => "core.fetch_and_op",
    CoreCas => "core.compare_and_swap",
    CoreAccumulate => "core.accumulate_sum_8x8",
    CoreFlush => "core.flush",
    CoreFence => "core.fence",
    CorePscwCycle => "core.pscw_cycle",
    CoreLockExcl => "core.lock_excl",
    CoreUnlock => "core.unlock",
    CorePutNotify => "core.put_notify",
    CoreWaitNotify => "core.wait_notify",
    CoreWinAllocate => "core.win_allocate",
    // runtime.
    RtLaunchJoin => "runtime.launch_join",
    RtBarrier => "runtime.barrier",
    RtAllreduce => "runtime.allreduce_u64",
    // msg / rmc.
    MsgChannelSend => "msg.channel_send",
    MsgChannelRecv => "msg.channel_recv",
    RmcFaninSend => "rmc.fanin_send",
    RmcFaninRecv => "rmc.fanin_recv",
    RmcRpcCall => "rmc.rpc_call",
    RmcRpcServe => "rmc.rpc_serve",
    // txn.
    TxnCellRead => "txn.cell_read",
    TxnCommit2Key => "txn.commit_2key",
    // apps.
    KvGet => "apps.kv_get",
    KvUpsert => "apps.kv_upsert",
    KvTransfer => "apps.kv_transfer",
    AppHashtable => "apps.hashtable",
    AppDsdeRound => "apps.dsde_round",
    AppMilc => "apps.milc",
    AppFft => "apps.fft_solve",
}

/// What a workload calls around each call into a layer.
pub trait Probe {
    type Mark: Copy;
    /// Start a leaf span.
    fn begin(&mut self) -> Self::Mark;
    /// End the leaf span started by `begin`, under the innermost open scope.
    fn end(&mut self, span: Span, mark: Self::Mark);
    /// Open a scope (cycle or phase); later spans are its children.
    fn open(&mut self, span: Span);
    /// Close the innermost open scope.
    fn close(&mut self);
    /// Cycle id stamped on every span recorded from now on.
    fn set_cycle(&mut self, cycle: u64);
}

/// The untraced probe: every method is empty and inlined away.
pub struct Off;

impl Probe for Off {
    type Mark = ();
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn end(&mut self, _: Span, _: ()) {}
    #[inline(always)]
    fn open(&mut self, _: Span) {}
    #[inline(always)]
    fn close(&mut self) {}
    #[inline(always)]
    fn set_cycle(&mut self, _: u64) {}
}

const NO_PARENT: u32 = u32::MAX;

pub struct SpanRec {
    pub span: Span,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing scope in the same rank's span list.
    pub parent: u32,
    pub cycle: u64,
}

/// The recording probe of one rank thread.
pub struct Rec {
    pub rank: u32,
    epoch: Instant,
    cycle: u64,
    /// Open scopes: index into `spans` (or `NO_PARENT` if not kept), name
    /// and start.
    stack: Vec<(u32, Span, Instant)>,
    pub spans: Vec<SpanRec>,
    /// Spans not kept in `spans` because their name's share was used up.
    /// Their durations still count: `samples` is thinned, never cut off.
    pub dropped: u64,
    /// Spans kept so far, per name.
    kept: Vec<u32>,
    samples: Vec<Thinned>,
}

impl Rec {
    /// Keep at most this many spans of one name per rank for the trace
    /// file: a 2 s `put_rate` window would otherwise hold tens of millions of
    /// `core.put_8`, and a global cap would leave no room for rarer names.
    const SPANS_PER_NAME: u32 = 2000;

    pub fn new(rank: u32, epoch: Instant) -> Self {
        Self {
            rank,
            epoch,
            cycle: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            kept: vec![0; Span::ALL.len()],
            samples: Span::ALL.iter().map(|_| Thinned::new()).collect(),
        }
    }

    /// Append a span to the trace list if its name still has room; returns
    /// its index, or `NO_PARENT`.
    fn keep(&mut self, span: Span, start: Instant, dur_ns: u64) -> u32 {
        if self.kept[span as usize] >= Self::SPANS_PER_NAME {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.kept[span as usize] += 1;
        let parent = self.stack.last().map_or(NO_PARENT, |s| s.0);
        self.spans.push(SpanRec {
            span,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns,
            parent,
            cycle: self.cycle,
        });
        (self.spans.len() - 1) as u32
    }

    fn sample(&mut self, span: Span, dur_ns: u64) {
        self.samples[span as usize].push(dur_ns.min(u32::MAX as u64) as u32);
    }

    pub fn samples(&self, span: Span) -> &Thinned {
        &self.samples[span as usize]
    }
}

impl Probe for Rec {
    type Mark = Instant;

    #[inline]
    fn begin(&mut self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn end(&mut self, span: Span, mark: Instant) {
        let dur = Instant::now().duration_since(mark).as_nanos() as u64;
        self.sample(span, dur);
        self.keep(span, mark, dur);
    }

    fn open(&mut self, span: Span) {
        // Reserve the scope's slot now so children can name it as parent;
        // its duration is filled in by `close`.
        let start = Instant::now();
        let idx = self.keep(span, start, 0);
        self.stack.push((idx, span, start));
    }

    fn close(&mut self) {
        let now = Instant::now();
        let (idx, span, start) = self.stack.pop().expect("close without open");
        let dur = now.duration_since(start).as_nanos() as u64;
        self.sample(span, dur);
        if idx != NO_PARENT {
            self.spans[idx as usize].dur_ns = dur;
        }
    }

    fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }
}

/// Write the ranks' spans as a Chrome `trace_event` file (one track per
/// rank, microseconds), loadable in Perfetto like the repo's other traces.
pub fn write_chrome_trace(path: &std::path::Path, recs: &[Rec]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for rec in recs {
        for s in &rec.spans {
            let parent = match s.parent {
                NO_PARENT => "",
                p => rec.spans[p as usize].span.name(),
            };
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"cycle\":{},\"parent\":\"{}\"}}}}",
                s.span.name(),
                rec.rank,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.cycle,
                parent
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}
