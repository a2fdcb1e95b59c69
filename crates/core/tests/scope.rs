//! End-to-end tests for the fompi-scope observability plane: causal flow
//! arrows in the exported Perfetto trace, byte-deterministic metrics
//! snapshots, and the armed/unarmed virtual-time ablation (observability
//! must never perturb the model).

use fompi::win::{LockType, Win};
use fompi_fabric::telemetry::perfetto::trace_json;
use fompi_fabric::{metrics_snapshot, RacecheckMode};
use fompi_runtime::Universe;

/// Parse every `"name":"flow"` record out of a Chrome-trace JSON line:
/// `(ph, id, tid, has_bp)` per record, in emission order.
fn flow_steps(json: &str) -> Vec<(String, u64, u32, bool)> {
    let mut out = Vec::new();
    for frag in json.split("{\"name\":\"flow\",\"cat\":\"flow\",").skip(1) {
        let frag = &frag[..frag.find('}').expect("flow record closes")];
        let field = |key: &str| -> &str {
            let at = frag.find(key).unwrap_or_else(|| panic!("{key} in {frag}")) + key.len();
            let rest = &frag[at..];
            &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
        };
        let ph = field("\"ph\":").trim_matches('"').to_string();
        let id: u64 = field("\"id\":").parse().expect("numeric flow id");
        let tid: u32 = field("\"tid\":").parse().expect("numeric tid");
        out.push((ph, id, tid, frag.contains("\"bp\":\"e\"")));
    }
    out
}

/// The acceptance-criterion trace: a notified put's flow arrow must
/// connect the origin's issue span (rank 0) to the target's
/// notify-consume span (rank 1), and the epoch shows up as a scope span.
#[test]
fn notified_put_flow_arrow_connects_origin_to_target() {
    let (_out, fabric) = Universe::new(2).node_size(1).trace(4096).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.lock_all().unwrap();
        if ctx.rank() == 0 {
            win.put_notify(&0xFEEDu64.to_le_bytes(), 1, 8, 42).unwrap();
        } else {
            let rec = win.wait_notify(0, 42).unwrap();
            assert_eq!((rec.source, rec.tag, rec.bytes), (0, 42, 8));
        }
        win.unlock_all().unwrap();
        ctx.barrier();
    });
    let json = trace_json(&fabric.telemetry().events(), 2);
    let steps = flow_steps(&json);
    assert!(!steps.is_empty(), "notified put must emit flow arrows:\n{json}");
    // Some flow id must start on rank 0's track and finish, slice-bound,
    // on rank 1's track.
    let connected = steps.iter().any(|(ph, id, tid, _)| {
        ph == "s"
            && *tid == 0
            && steps.iter().any(|(ph2, id2, tid2, bp)| ph2 == "f" && id2 == id && *tid2 == 1 && *bp)
    });
    assert!(connected, "no s(rank0) -> f(rank1) arrow pair:\n{json}");
    // The put span itself carries the flow id in its args.
    let put_args = json
        .split("{\"name\":\"put\",")
        .nth(1)
        .map(|f| &f[..f.find("}}").unwrap_or(f.len())])
        .expect("a put span in the trace");
    assert!(put_args.contains("\"flow\":"), "put span lost its flow:\n{json}");
    // The passive epoch is a synthesized scope span.
    assert!(json.contains("\"name\":\"lock_all_session\""), "missing epoch scope span:\n{json}");
}

/// Signals (the slot API) connect through the signal-flow mailbox: the
/// producer's put and the consumer's `signal_wait` share one flow.
#[test]
fn put_signal_flow_reaches_the_waiter() {
    let (_out, fabric) = Universe::new(2).node_size(1).trace(4096).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        if ctx.rank() == 0 {
            win.lock(LockType::Shared, 1).unwrap();
            win.put_signal(&77u64.to_le_bytes(), 1, 0, 0).unwrap();
            win.unlock(1).unwrap();
        } else {
            win.signal_wait(0, 1).unwrap();
        }
        ctx.barrier();
    });
    let json = trace_json(&fabric.telemetry().events(), 2);
    let steps = flow_steps(&json);
    let connected = steps.iter().any(|(ph, id, tid, _)| {
        ph == "s"
            && *tid == 0
            && steps.iter().any(|(ph2, id2, tid2, _)| ph2 == "f" && id2 == id && *tid2 == 1)
    });
    assert!(connected, "signal flow never reached the waiter:\n{json}");
}

/// A seeded notified-handoff workload built only from schedule-independent
/// primitives: two runs must produce byte-identical metrics snapshots in
/// both exposition formats.
fn metrics_workload() -> (String, String) {
    let (_out, fabric) = Universe::new(2).node_size(1).seed(7).metrics(true).launch(|ctx| {
        let win = Win::allocate(ctx, 4096, 1).unwrap();
        if ctx.rank() == 0 {
            win.lock(LockType::Shared, 1).unwrap();
            for i in 0..32usize {
                win.put_notify(&[i as u8; 64], 1, i * 64, i as u32).unwrap();
            }
            win.unlock(1).unwrap();
        } else {
            for i in 0..32u32 {
                win.wait_notify(0, i).unwrap();
            }
        }
        ctx.barrier();
    });
    let snap = metrics_snapshot(&fabric);
    (snap.to_prometheus(), snap.to_json_line())
}

#[test]
fn metrics_snapshots_are_byte_deterministic() {
    let (prom_a, json_a) = metrics_workload();
    let (prom_b, json_b) = metrics_workload();
    assert_eq!(prom_a, prom_b, "prometheus snapshot must be byte-stable");
    assert_eq!(json_a, json_b, "json snapshot must be byte-stable");
    // Tail quantiles for put latency, in both forms.
    for q in ["0.5", "0.99", "0.999"] {
        let row = format!("fompi_op_virtual_ns{{class=\"put\",quantile=\"{q}\"}}");
        assert!(prom_a.contains(&row), "missing {row} in:\n{prom_a}");
    }
    assert!(json_a.contains("\"class\":\"put\""), "{json_a}");
    assert!(json_a.contains("\"p999\":"), "{json_a}");
    assert!(json_a.starts_with('{') && !json_a.contains('\n'), "one JSON line");
}

/// The overhead ablation: the same seeded workload with a diagnostic plane
/// armed — metrics + tracing + flight recorder, or the race checker in
/// report mode — and with everything disarmed must land on bit-identical
/// virtual clocks. A plane may cost real time, never virtual time.
#[test]
fn armed_observability_is_virtual_time_invisible() {
    type Arm = fn(Universe) -> Universe;
    let run = |arm: Arm| {
        arm(Universe::new(2).node_size(1).seed(11).batch(true)).run(|ctx| {
            let win = Win::allocate(ctx, 4096, 1).unwrap();
            if ctx.rank() == 0 {
                win.lock(LockType::Shared, 1).unwrap();
                for i in 0..24usize {
                    win.put_notify(&[i as u8; 48], 1, i * 64, i as u32).unwrap();
                }
                win.unlock(1).unwrap();
            } else {
                for i in 0..24u32 {
                    win.wait_notify(0, i).unwrap();
                }
            }
            ctx.barrier();
            ctx.now().to_bits()
        })
    };
    let disarmed = run(|u| u.racecheck(RacecheckMode::Off));
    let planes: [(&str, Arm); 2] = [
        ("metrics + tracing", |u| u.racecheck(RacecheckMode::Off).metrics(true).trace(4096)),
        ("race checker in report mode", |u| u.racecheck(RacecheckMode::Report)),
    ];
    for (armed, arm) in planes {
        assert_eq!(run(arm), disarmed, "{armed} perturbed virtual time");
    }
}
