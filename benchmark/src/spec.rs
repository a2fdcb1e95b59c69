//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root is generated
//! from these tables (`run.sh --benchmark-json`), so the two cannot drift.

/// How long one driver run measures (`--seconds` default), split into
/// [`REPS`] repetitions.
pub const RUN_SECONDS: u64 = 12;

/// Fresh child processes per untraced run; the reported value is the median
/// over them. Noise on a small VM is between runs (vCPU placement), not
/// within them, so repetitions beat one long window.
pub const REPS: usize = 12;

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Closed-loop client count and what one "op" is.
    pub shape: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "put_rate",
        why: "message rate: one rank, 8-byte Win::put, flush per 64; only core::comm + fabric::endpoint run, so it measures the instruction path",
        shape: "1 client (rank 0; rank 1 parked in ctx.barrier), op = one put",
    },
    Workload {
        name: "put_duplex",
        why: "same loop from both ranks at once: fabric-shared state (global Counters line) is contended, so removing sharing moves this and not put_rate",
        shape: "2 clients, batch starts aligned by a spin rendezvous, op = one put",
    },
    Workload {
        name: "get_amo",
        why: "reads, atomics and per-op completion (get 8/4096, fetch_and_op, CAS, accumulate, each + flush): a put-path gain paid for here shows",
        shape: "1 client (rank 0; rank 1 parked), op = one call + flush",
    },
    Workload {
        name: "sync_pair",
        why: "fence, PSCW, exclusive lock and notified ping-pong in lock-step: core::sync, runtime::coll and fabric::notify do the work, the data path none",
        shape: "2 clients in lock-step, op = one synchronisation round (37 per cycle)",
    },
    Workload {
        name: "stream",
        why: "msg::channel, rmc::fanin and RpcClient::call side by side, so merging the two channel implementations has a no-regression proof",
        shape: "1 producer/caller (rank 1), 1 consumer/server (rank 0), op = one message or call (144 per cycle)",
    },
    Workload {
        name: "kv_txn",
        why: "transactional KV store, 70/20/10 get/upsert/transfer on a skewed keyspace, one shard per client: txn read-set, validate and commit dominate (8+ fabric ops per op)",
        shape: "2 clients calling KvStore directly, each on the keys the other rank owns, op = one store call",
    },
    Workload {
        name: "apps",
        why: "the paper's four studies (hashtable, DSDE, MILC, FFT) on RMA: time-to-solution is compute plus fences/allreduces, so a put_rate gain should not move it",
        shape: "2 ranks, op = one cycle of hashtable + 16 DSDE rounds + MILC + FFT",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric may
    /// worsen before it is a regression.
    pub bound: Option<f64>,
    /// Per-layer: the end-to-end metric x workload it should move
    /// (`wall_ns_per_op_p50` unless said). End-to-end: what it means.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: Some(bound), note }
}

const fn layer(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None, note }
}

pub const WALL_P50: &str = "wall_ns_per_op_p50";
pub const OPS_PER_S: &str = "ops_per_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS: &str = "peak_rss_mib";

pub const END_TO_END: [Metric; 4] = [
    e2e(
        WALL_P50,
        "ns",
        Better::Lower,
        0.25,
        "median batch wall time / ops in batch, samples pooled over timing ranks; median over repetitions",
    ),
    e2e(
        OPS_PER_S,
        "1/s",
        Better::Higher,
        0.25,
        "sum over ranks of ops completed / wall time spent in timed batches; median over repetitions",
    ),
    e2e(
        SETUP_S,
        "s",
        Better::Lower,
        0.25,
        "job launch + workload set-up (Win::allocate, table init, endpoints); median of nine set-ups per child",
    ),
    e2e(PEAK_RSS, "MiB", Better::Lower, 0.10, "child VmHWM at exit (apps: after 24 + 24 cycles)"),
];

pub const PER_LAYER: &[Metric] = &[
    // fabric: direct Endpoint calls on a harness-registered Segment.
    layer("fabric.put_implicit_8.ns", "ns", "put_rate"),
    layer("fabric.put_implicit_8_duplex.ns", "ns", "put_duplex"),
    layer("fabric.put_implicit_8_batched.ns", "ns", "informational: no workload arms batching"),
    layer(
        "fabric.put_implicit_4096.ns",
        "ns",
        "apps (FFT plane puts); per-byte slope of the bills",
    ),
    layer("fabric.get_implicit_8.ns", "ns", "get_amo"),
    layer("fabric.get_implicit_4096.ns", "ns", "get_amo"),
    layer("fabric.amo_fadd.ns", "ns", "get_amo, kv_txn"),
    layer("fabric.amo_cas.ns", "ns", "get_amo, kv_txn"),
    layer("fabric.flush_target.ns", "ns", "get_amo"),
    layer("fabric.put_notified_8.ns", "ns", "sync_pair, stream"),
    layer("fabric.notify_append.ns", "ns", "sync_pair, stream"),
    layer("fabric.notify_pop.ns", "ns", "sync_pair, stream"),
    // fabric counters of the traced workload itself, exact.
    layer("fabric.puts_per_op", "1/op", "this workload's wall"),
    layer("fabric.gets_per_op", "1/op", "this workload's wall"),
    layer("fabric.amos_per_op", "1/op", "this workload's wall"),
    layer("fabric.flushes_per_op", "1/op", "this workload's wall"),
    layer("fabric.bytes_per_op", "B/op", "this workload's wall"),
    layer("fabric.notify_posts_per_op", "1/op", "this workload's wall"),
    layer("fabric.notify_overflows_per_op", "1/op", "this workload's wall (ring-full retries)"),
    // core: Win calls.
    layer("core.put_8.ns", "ns", "put_rate"),
    layer("core.put_8.self_ns", "ns", "put_rate (= core.put_8 - fabric.put_implicit_8)"),
    layer(
        "core.put_8_duplex.ns",
        "ns",
        "put_duplex (minus fabric.put_implicit_8_duplex = contention above the fabric)",
    ),
    layer("core.get_8.ns", "ns", "get_amo"),
    layer("core.get_4096.ns", "ns", "get_amo"),
    layer("core.fetch_and_op.ns", "ns", "get_amo"),
    layer("core.compare_and_swap.ns", "ns", "get_amo"),
    layer("core.accumulate_sum_8x8.ns", "ns", "get_amo"),
    layer("core.flush.ns", "ns", "get_amo, put_rate"),
    layer("core.flush.self_ns", "ns", "get_amo (= core.flush - fabric.flush_target)"),
    layer("core.fence.ns", "ns", "sync_pair, apps"),
    layer("core.pscw_cycle.ns", "ns", "sync_pair (post,start,put,complete,wait)"),
    layer("core.lock_excl.ns", "ns", "sync_pair"),
    layer("core.unlock.ns", "ns", "sync_pair"),
    layer("core.put_notify.ns", "ns", "sync_pair, stream"),
    layer("core.wait_notify.ns", "ns", "sync_pair, stream (includes waiting on the peer)"),
    layer("core.win_allocate.ns", "ns", "setup_s everywhere"),
    layer("core.win_metadata_bytes", "B", "peak_rss_mib (the paper's O(1) allocated-window claim)"),
    // runtime.
    layer("runtime.launch_join.ns", "ns", "setup_s everywhere"),
    layer("runtime.barrier.ns", "ns", "sync_pair (fence share), apps"),
    layer("runtime.allreduce_u64.ns", "ns", "apps, setup_s (Win::allocate)"),
    // msg.
    layer("msg.channel_send.ns", "ns", "stream"),
    layer("msg.channel_recv.ns", "ns", "stream (includes waiting on the producer)"),
    layer("msg.channel.fabric_ops_per_msg", "1/op", "stream"),
    // rmc.
    layer("rmc.fanin_send.ns", "ns", "stream"),
    layer("rmc.fanin_recv.ns", "ns", "stream (includes waiting on the producer)"),
    layer("rmc.fanin.fabric_ops_per_msg", "1/op", "stream"),
    layer("rmc.rpc_call.ns", "ns", "stream (round trip)"),
    layer("rmc.rpc_serve.ns", "ns", "stream (recv + reply, includes waiting on the caller)"),
    layer("rmc.rpc.fabric_ops_per_call", "1/op", "stream"),
    // txn.
    layer("txn.cell_read.ns", "ns", "kv_txn"),
    layer("txn.commit_2key.ns", "ns", "kv_txn"),
    layer("txn.commit_2key.fabric_ops", "1/op", "kv_txn"),
    layer("txn.commit_2key.self_ns", "ns", "kv_txn"),
    // apps.
    layer("apps.kv_get.ns", "ns", "kv_txn"),
    layer("apps.kv_upsert.ns", "ns", "kv_txn"),
    layer("apps.kv_transfer.ns", "ns", "kv_txn"),
    layer("apps.kv.fabric_ops_per_op", "1/op", "kv_txn (aborted attempts inflate it)"),
    layer("apps.hashtable_insert.ns", "ns", "apps"),
    layer("apps.hashtable.fabric_ops_per_insert", "1/op", "apps"),
    layer("apps.dsde_round.ns", "ns", "apps"),
    layer("apps.milc_iter.ns", "ns", "apps"),
    layer("apps.fft_solve.ns", "ns", "apps"),
    // harness.
    layer("proc.cpu_ns_per_op", "ns", "shows a wall gain bought by spinning"),
    layer(
        "tail.wall_ns_per_op_p99",
        "ns",
        "not end-to-end: does not repeat within a tenth on a shared VM",
    ),
    Metric {
        name: "tail.samples",
        unit: "count",
        better: Better::Higher,
        bound: None,
        note: "batches behind the p50/p99 of the traced run's untraced pass",
    },
    layer(
        "virt.ns_per_op",
        "virt_ns",
        "virtual-clock advance per op; deterministic on put_rate and get_amo",
    ),
    layer("trace.overhead_pct", "%", "traced vs untraced wall_ns_per_op_p50, same child"),
    layer("trace.span_overhead_ns", "ns", "empty span; already subtracted from every .ns above"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
