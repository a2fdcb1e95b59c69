//! What runs inside a measuring child process. The parent starts every
//! child with all `FOMPI_*` variables removed (telemetry has no builder
//! switch) and reads one `key value` line per result from its stdout.

use crate::harness::{run_rep, setup_only, steal_and_total_jiffies, RepCfg, RepOut, Workload};
use crate::probe::{write_chrome_trace, Off, Rec, Span};
use crate::report::Bill;
use crate::stats::{grouped_median_ns, quantile_sorted, sort};
use crate::workloads::{apps, put};
use crate::{ledger, spec, with_workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Warm-up before the timed window of a measuring pass.
const WARM: Duration = Duration::from_millis(200);
/// Extra set-ups per untraced child; `setup_s` is the median over these and
/// the real one. Set-up is a millisecond or less, so one sample is noise.
const EXTRA_SETUPS: usize = 8;

/// A traced pass that exists only to feed per-layer metrics of *another*
/// workload's run: short window, short warm-up.
const SOURCE_WINDOW: Duration = Duration::from_millis(250);
const SOURCE_WARM: Duration = Duration::from_millis(100);

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    pub trace_out: Option<String>,
}

fn emit(key: &str, value: f64) {
    println!("metric {key} {value}");
}

fn p50_p99(out: &RepOut<impl Sized>) -> (f64, f64, usize) {
    let mut s = out.samples();
    assert!(!s.is_empty(), "the window closed before one batch was timed");
    sort(&mut s);
    (quantile_sorted(&s, 0.5), quantile_sorted(&s, 0.99), s.len())
}

fn untraced<W: Workload>(a: &ChildArgs) {
    let (steal0, total0) = steal_and_total_jiffies();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS).map(|_| setup_only::<W>(a.seed)).collect();
    let cfg = RepCfg { seed: a.seed, warm: WARM, window: a.window };
    let out = run_rep::<W, Off>(&cfg, |_| Off);
    setups.push(out.setup_s);
    let (p50, p99, n) = p50_p99(&out);
    emit(spec::WALL_P50, p50);
    emit(spec::OPS_PER_S, out.ops_per_s());
    emit(spec::SETUP_S, crate::stats::median(setups));
    emit(spec::PEAK_RSS, out.peak_rss_mib());
    // Not end-to-end metrics, but cheap to show beside them.
    emit("info.wall_ns_per_op_p99", p99);
    emit("info.samples", n as f64);
    emit("info.virt_ns_per_op", out.virt_ns_per_op());
    let (steal1, total1) = steal_and_total_jiffies();
    emit("info.steal_pct", 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64);
    println!("attempted {}", out.ops());
    println!("failed {}", out.failed());
}

/// What a traced pass of one workload leaves behind.
struct Traced {
    recs: Vec<Rec>,
    ops: u64,
    failed: u64,
    p50: f64,
    counters: fompi_fabric::CounterSnapshot,
}

fn traced_pass(name: &str, seed: u64, warm: Duration, window: Duration, epoch: Instant) -> Traced {
    with_workload!(name, W => {
        let cfg = RepCfg { seed, warm, window };
        let out = run_rep::<W, Rec>(&cfg, |rank| Rec::new(rank, epoch));
        let (p50, ..) = p50_p99(&out);
        Traced { ops: out.ops(), failed: out.failed(), p50, counters: out.counters, recs: out.probes }
    })
}

/// Grouped median of `span` pooled over `recs`, or `None` without samples.
fn span_ns(recs: &[Rec], span: Span) -> Option<f64> {
    let mut pooled: Vec<u32> =
        recs.iter().flat_map(|r| r.samples(span).kept().iter().copied()).collect();
    if pooled.is_empty() {
        return None;
    }
    Some(grouped_median_ns(&mut pooled))
}

/// Which workload's traced pass a span's metric is read from (the one that
/// exercises that layer), and what one span covers (`apps.hashtable` spans
/// 2048 inserts; the metric is per insert).
type SpanMetric = (Span, &'static str, f64);

const SOURCES: &[(&str, &[SpanMetric])] = &[
    ("put_duplex", &[(Span::CorePut8DuplexBurst, "core.put_8_duplex.ns", put::BURST as f64)]),
    (
        "sync_pair",
        &[
            (Span::CoreFence, "core.fence.ns", 1.0),
            (Span::CorePscwCycle, "core.pscw_cycle.ns", 1.0),
            (Span::CoreLockExcl, "core.lock_excl.ns", 1.0),
            (Span::CoreUnlock, "core.unlock.ns", 1.0),
            (Span::CorePutNotify, "core.put_notify.ns", 1.0),
            (Span::CoreWaitNotify, "core.wait_notify.ns", 1.0),
        ],
    ),
    (
        "stream",
        &[
            (Span::MsgChannelSend, "msg.channel_send.ns", 1.0),
            (Span::MsgChannelRecv, "msg.channel_recv.ns", 1.0),
            (Span::RmcFaninSend, "rmc.fanin_send.ns", 1.0),
            (Span::RmcFaninRecv, "rmc.fanin_recv.ns", 1.0),
            (Span::RmcRpcCall, "rmc.rpc_call.ns", 1.0),
            (Span::RmcRpcServe, "rmc.rpc_serve.ns", 1.0),
        ],
    ),
    (
        "kv_txn",
        &[
            (Span::KvGet, "apps.kv_get.ns", 1.0),
            (Span::KvUpsert, "apps.kv_upsert.ns", 1.0),
            (Span::KvTransfer, "apps.kv_transfer.ns", 1.0),
        ],
    ),
    (
        "apps",
        &[
            (Span::AppHashtable, "apps.hashtable_insert.ns", apps::INSERTS_PER_RANK as f64),
            (Span::AppDsdeRound, "apps.dsde_round.ns", 1.0),
            (Span::AppMilc, "apps.milc_iter.ns", apps::MILC_ITERS as f64),
            (Span::AppFft, "apps.fft_solve.ns", 1.0),
        ],
    ),
];

/// Spans the ledger's own probes record.
const LEDGER_SPANS: &[(Span, &str)] = &[
    (Span::FabPut8, "fabric.put_implicit_8.ns"),
    (Span::FabPut8Batched, "fabric.put_implicit_8_batched.ns"),
    (Span::FabPut4096, "fabric.put_implicit_4096.ns"),
    (Span::FabGet8, "fabric.get_implicit_8.ns"),
    (Span::FabGet4096, "fabric.get_implicit_4096.ns"),
    (Span::FabAmoFadd, "fabric.amo_fadd.ns"),
    (Span::FabAmoCas, "fabric.amo_cas.ns"),
    (Span::FabFlushTarget, "fabric.flush_target.ns"),
    (Span::FabPutNotified8, "fabric.put_notified_8.ns"),
    (Span::FabNotifyAppend, "fabric.notify_append.ns"),
    (Span::FabNotifyPop, "fabric.notify_pop.ns"),
    (Span::CorePut8, "core.put_8.ns"),
    (Span::CoreGet8, "core.get_8.ns"),
    (Span::CoreGet4096, "core.get_4096.ns"),
    (Span::CoreFetchAndOp, "core.fetch_and_op.ns"),
    (Span::CoreCas, "core.compare_and_swap.ns"),
    (Span::CoreAccumulate, "core.accumulate_sum_8x8.ns"),
    (Span::CoreFlush, "core.flush.ns"),
    (Span::CoreWinAllocate, "core.win_allocate.ns"),
    (Span::RtLaunchJoin, "runtime.launch_join.ns"),
    (Span::RtBarrier, "runtime.barrier.ns"),
    (Span::RtAllreduce, "runtime.allreduce_u64.ns"),
    (Span::TxnCellRead, "txn.cell_read.ns"),
    (Span::TxnCommit2Key, "txn.commit_2key.ns"),
];

fn traced(a: &ChildArgs) {
    let epoch = Instant::now();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // 1. The ledger: fabric floor, runtime, txn, and the bills' op counts.
    let ledger = ledger::run(a.seed, epoch);
    let overhead = span_ns(&ledger.recs, Span::Empty).expect("calibration spans");
    m.insert("trace.span_overhead_ns".into(), overhead);
    for &(span, name) in LEDGER_SPANS {
        let ns = span_ns(&ledger.recs, span).unwrap_or_else(|| panic!("no samples for {name}"));
        m.insert(name.into(), ns - overhead);
    }
    let duplex = span_ns(&ledger.recs, Span::FabPut8Duplex).expect("duplex probe spans");
    m.insert("fabric.put_implicit_8_duplex.ns".into(), (duplex - overhead) / ledger::BURST as f64);
    m.insert("core.win_metadata_bytes".into(), ledger.win_metadata_bytes as f64);

    // 2. The workload itself: untraced, then traced, in this same process,
    //    so the difference between the two is the tracing overhead.
    let plain = with_workload!(a.workload.as_str(), W => {
        let cfg = RepCfg { seed: a.seed, warm: WARM, window: a.window.mul_f64(0.4) };
        let out = run_rep::<W, Off>(&cfg, |_| Off);
        let (p50, p99, n) = p50_p99(&out);
        m.insert("proc.cpu_ns_per_op".into(), out.cpu_ns_per_op());
        m.insert("tail.wall_ns_per_op_p99".into(), p99);
        m.insert("tail.samples".into(), n as f64);
        m.insert("virt.ns_per_op".into(), out.virt_ns_per_op());
        (p50, out.ops(), out.failed())
    });
    let own = traced_pass(&a.workload, a.seed, WARM, a.window.mul_f64(0.6), epoch);
    m.insert("trace.overhead_pct".into(), 100.0 * (own.p50 / plain.0 - 1.0));
    let per_op = |n: u64| n as f64 / own.ops as f64;
    let c = &own.counters;
    m.insert("fabric.puts_per_op".into(), per_op(c.puts));
    m.insert("fabric.gets_per_op".into(), per_op(c.gets));
    m.insert("fabric.amos_per_op".into(), per_op(c.amos));
    m.insert("fabric.flushes_per_op".into(), per_op(c.flushes));
    m.insert("fabric.bytes_per_op".into(), per_op(c.total_bytes()));
    m.insert("fabric.notify_posts_per_op".into(), per_op(c.notify_posts));
    m.insert("fabric.notify_overflows_per_op".into(), per_op(c.notify_overflows));

    // 3. Every other layer's spans, from a short traced pass of the workload
    //    that exercises them.
    let mut attempted = plain.1 + own.ops;
    let mut failed = plain.2 + own.failed;
    let mut own = Some(own);
    let mut trace_recs = Vec::new();
    for &(source, spans) in SOURCES {
        let pass = if source == a.workload {
            own.take().expect("own pass used once")
        } else {
            let pass = traced_pass(source, a.seed, SOURCE_WARM, SOURCE_WINDOW, epoch);
            attempted += pass.ops;
            failed += pass.failed;
            pass
        };
        for &(span, name, per_span) in spans {
            let ns = span_ns(&pass.recs, span).unwrap_or_else(|| panic!("no samples for {name}"));
            m.insert(name.into(), (ns - overhead) / per_span);
        }
        if source == "kv_txn" {
            let ops = pass.counters.total_ops() as f64 / pass.ops as f64;
            m.insert("apps.kv.fabric_ops_per_op".into(), ops);
        }
        if source == a.workload {
            trace_recs = pass.recs;
        }
    }
    // `put_rate` and `get_amo` feed no metric from their own spans (the
    // ledger's rotation times their calls); their pass is still the one
    // whose trace is written.
    if let Some(own) = own {
        trace_recs = own.recs;
    }

    // 4. Derived: self times and op counts per call, from the bills.
    let diff = |m: &BTreeMap<String, f64>, a: &str, b: &str| m[a] - m[b];
    let v = diff(&m, "core.put_8.ns", "fabric.put_implicit_8.ns");
    m.insert("core.put_8.self_ns".into(), v);
    let v = diff(&m, "core.flush.ns", "fabric.flush_target.ns");
    m.insert("core.flush.self_ns".into(), v);
    let bill = |name: &str| -> &Bill {
        ledger
            .bills
            .iter()
            .find(|b| b.metric == name)
            .unwrap_or_else(|| panic!("no bill for {name}"))
    };
    let commit = bill("txn.commit_2key");
    m.insert("txn.commit_2key.fabric_ops".into(), commit.fabric_ops());
    m.insert("txn.commit_2key.self_ns".into(), commit.self_ns(&m).expect("commit was timed"));
    m.insert(
        "msg.channel.fabric_ops_per_msg".into(),
        bill("msg.channel_send").fabric_ops() + bill("msg.channel_recv").fabric_ops(),
    );
    m.insert(
        "rmc.fanin.fabric_ops_per_msg".into(),
        bill("rmc.fanin_send").fabric_ops() + bill("rmc.fanin_recv").fabric_ops(),
    );
    m.insert("rmc.rpc.fabric_ops_per_call".into(), bill("rmc.rpc_call").fabric_ops());
    m.insert(
        "apps.hashtable.fabric_ops_per_insert".into(),
        bill("apps.hashtable_insert").fabric_ops(),
    );

    if let Some(path) = &a.trace_out {
        trace_recs.extend(ledger.recs);
        let dropped: u64 = trace_recs.iter().map(|r| r.dropped).sum();
        write_chrome_trace(Path::new(path), &trace_recs).expect("writing the trace file");
        println!("trace {path} dropped_spans {dropped}");
    }
    for (k, v) in &m {
        emit(k, *v);
    }
    for b in &ledger.bills {
        println!("bill {}", b.encode());
    }
    println!("attempted {attempted}");
    println!("failed {failed}");
}

pub fn run(a: &ChildArgs) {
    if a.traced {
        traced(a);
    } else {
        with_workload!(a.workload.as_str(), W => untraced::<W>(a));
    }
}
