//! Chrome `trace_event` / Perfetto JSON export.
//!
//! Serialises a drained event stream into the Trace Event Format's JSON
//! array flavour, loadable by `ui.perfetto.dev` and `chrome://tracing`.
//! Each rank becomes a named thread (`tid` = rank) of one process; every
//! recorded operation becomes a complete-duration (`"ph":"X"`) slice whose
//! `args` carry the peer, byte count, window, transport and completion
//! flavour. Timestamps are virtual microseconds (the format's unit), so
//! the timeline shows *virtual* time.
//!
//! On top of the raw slices the exporter synthesises three structural
//! layers, all derived — the recording hot path pays nothing for them:
//!
//! * **flow arrows** (`"ph":"s"/"t"/"f"`): events sharing a nonzero
//!   [`Event::flow`] id are chained origin → target, so a notified put
//!   reads as one connected arc from the issuing rank's slice to the
//!   consuming rank's `notify_wait` slice;
//! * **scope spans** (`cat:"scope"`): lock sessions, lock-all sessions,
//!   PSCW access/exposure epochs and fence rounds become enclosing slices
//!   on the opening rank's track, nesting the member operations;
//! * a **`telemetry_dropped` marker** (instant event) whenever the event
//!   rings overwrote data, so a truncated trace is visibly truncated.
//!
//! All string fields are escaped (`\"`, `\\`, control characters), so
//! arbitrary names survive the hand-rolled writer.

use super::event::{Event, EventKind, NO_FLOW, NO_TARGET, NO_WIN};
use super::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;

/// Append `s` to `out` with JSON string escaping (quotes, backslashes and
/// control characters; the surrounding quotes are the caller's).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `s` as a quoted, escaped JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Serialise `events` (as produced by [`Telemetry::events`]) for `p` ranks
/// into Trace Event Format JSON. `dropped` is the ring-overwrite count
/// ([`Telemetry::dropped`]); when nonzero a `telemetry_dropped` instant
/// marker records that the stream is truncated.
pub fn write_trace<W: Write>(
    w: &mut W,
    events: &[Event],
    p: usize,
    dropped: u64,
) -> io::Result<()> {
    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    // Metadata: name the process and one thread per rank.
    write_sep(w, &mut first)?;
    w.write_all(
        b"{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
          \"args\":{\"name\":\"fompi virtual time\"}}",
    )?;
    for rank in 0..p {
        write_sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":{}}}}}",
            json_str(&format!("rank {rank}"))
        )?;
    }
    if dropped > 0 {
        write_sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"telemetry_dropped\",\"cat\":\"telemetry\",\"ph\":\"i\",\
             \"ts\":0,\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"dropped\":{dropped}}}}}"
        )?;
    }
    write_scope_spans(w, events, &mut first)?;
    for ev in events {
        write_sep(w, &mut first)?;
        write_event(w, ev)?;
    }
    write_flow_arrows(w, events, &mut first)?;
    w.write_all(b"]}")?;
    Ok(())
}

fn write_sep<W: Write>(w: &mut W, first: &mut bool) -> io::Result<()> {
    if *first {
        *first = false;
        Ok(())
    } else {
        w.write_all(b",")
    }
}

fn write_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    // ts/dur are microseconds in the trace format; clocks are virtual ns.
    let ts_us = ev.t_start / 1000.0;
    let dur_us = ev.latency_ns() / 1000.0;
    write!(
        w,
        "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.4},\"dur\":{:.4},\
         \"pid\":0,\"tid\":{},\"args\":{{",
        json_str(ev.kind.name()),
        json_str(if ev.kind.is_rma() {
            "rma"
        } else if ev.kind.is_fault() {
            "fault"
        } else {
            "sync"
        }),
        ts_us,
        dur_us,
        ev.origin,
    )?;
    let mut first = true;
    let mut field = |w: &mut W, key: &str, val: String| -> io::Result<()> {
        if first {
            first = false;
        } else {
            w.write_all(b",")?;
        }
        write!(w, "{}:{val}", json_str(key))
    };
    if ev.target != NO_TARGET {
        field(w, "target", ev.target.to_string())?;
    }
    if ev.kind.is_rma() {
        field(w, "bytes", ev.bytes.to_string())?;
        field(w, "flavor", json_str(ev.flavor.name()))?;
    }
    if ev.win != NO_WIN {
        field(w, "win", ev.win.to_string())?;
    }
    if let Some(t) = ev.transport {
        field(w, "transport", json_str(t.name()))?;
    }
    if ev.flow != NO_FLOW {
        field(w, "flow", ev.flow.to_string())?;
    }
    w.write_all(b"}}")
}

/// Does this event *produce* into its flow (issue-side), as opposed to
/// consuming a peer's? RMA issues and notification posts produce;
/// `notify_wait`/`notify_drop` consume.
fn is_flow_producer(kind: EventKind) -> bool {
    kind.is_rma() || kind == EventKind::NotifyPost
}

fn is_flow_consumer(kind: EventKind) -> bool {
    matches!(kind, EventKind::NotifyWait | EventKind::NotifyDrop)
}

/// Emit flow arrows (`"ph":"s"/"t"/"f"`) chaining the events that share
/// each nonzero flow id, in causal (virtual-time) order. The terminating
/// `"f"` binds to its enclosing consumer slice (`"bp":"e"`); its timestamp
/// is pulled forward to the producer's issue time when the consumer's wait
/// opened earlier, so arrows always point forward in virtual time.
fn write_flow_arrows<W: Write>(w: &mut W, events: &[Event], first: &mut bool) -> io::Result<()> {
    let mut flows: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for ev in events {
        if ev.flow != NO_FLOW && (is_flow_producer(ev.kind) || is_flow_consumer(ev.kind)) {
            flows.entry(ev.flow).or_default().push(ev);
        }
    }
    for (flow, evs) in flows {
        // Producers (issue order), then consumers (completion order): a
        // wait span typically *opens* before the operation it waits for is
        // even issued, so the chain is role-ordered, not t_start-ordered.
        let mut producers: Vec<&Event> =
            evs.iter().copied().filter(|e| is_flow_producer(e.kind)).collect();
        let mut consumers: Vec<&Event> =
            evs.iter().copied().filter(|e| is_flow_consumer(e.kind)).collect();
        if producers.is_empty() || producers.len() + consumers.len() < 2 {
            // Wait-side-only groups (a wait recorded after the issue fell
            // off the ring) have no origin to anchor an arrow at; lone
            // events have nothing to connect.
            continue;
        }
        producers.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        consumers.sort_by(|a, b| a.t_end.total_cmp(&b.t_end));
        let chain: Vec<&Event> = producers.into_iter().chain(consumers).collect();
        let mut last_ts = 0.0f64;
        let n = chain.len();
        for (i, ev) in chain.iter().enumerate() {
            let (ph, ts) = if i == 0 {
                (r#""s""#, ev.t_start)
            } else if i + 1 == n && is_flow_consumer(ev.kind) {
                // Bind inside the consumer slice, never earlier than the
                // producer step: arrows point forward in virtual time.
                (r#""f","bp":"e""#, last_ts.max(ev.t_start).min(ev.t_end))
            } else {
                (r#""t""#, last_ts.max(ev.t_start).min(ev.t_end.max(ev.t_start)))
            };
            last_ts = ts;
            write_sep(w, first)?;
            write!(
                w,
                "{{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":{ph},\"id\":{flow},\
                 \"ts\":{:.4},\"pid\":0,\"tid\":{}}}",
                ts / 1000.0,
                ev.origin,
            )?;
        }
    }
    Ok(())
}

/// Synthesise enclosing scope spans (`cat:"scope"`) from paired sync
/// events: `lock`→`unlock` (per origin/win/target), `lock_all`→
/// `unlock_all` and PSCW `start`→`complete` / `post`→`wait` (per
/// origin/win), and consecutive `fence`s (per origin/win) as rounds.
fn write_scope_spans<W: Write>(w: &mut W, events: &[Event], first: &mut bool) -> io::Result<()> {
    let emit = |w: &mut W,
                first: &mut bool,
                name: &str,
                origin: u32,
                win: u64,
                t0: f64,
                t1: f64|
     -> io::Result<()> {
        write_sep(w, first)?;
        write!(
            w,
            "{{\"name\":{},\"cat\":\"scope\",\"ph\":\"X\",\"ts\":{:.4},\"dur\":{:.4},\
             \"pid\":0,\"tid\":{origin},\"args\":{{\"win\":{win}}}}}",
            json_str(name),
            t0 / 1000.0,
            (t1 - t0).max(0.0) / 1000.0,
        )
    };
    // Open-scope stashes, keyed by (origin, win[, target]).
    let mut locks: HashMap<(u32, u64, u32), f64> = HashMap::new();
    let mut lock_alls: HashMap<(u32, u64), f64> = HashMap::new();
    let mut access: HashMap<(u32, u64), f64> = HashMap::new();
    let mut exposure: HashMap<(u32, u64), f64> = HashMap::new();
    let mut fences: HashMap<(u32, u64), f64> = HashMap::new();
    for ev in events {
        let key2 = (ev.origin, ev.win);
        match ev.kind {
            EventKind::Lock => {
                locks.insert((ev.origin, ev.win, ev.target), ev.t_start);
            }
            EventKind::Unlock => {
                if let Some(t0) = locks.remove(&(ev.origin, ev.win, ev.target)) {
                    emit(w, first, "lock_session", ev.origin, ev.win, t0, ev.t_end)?;
                }
            }
            EventKind::LockAll => {
                lock_alls.insert(key2, ev.t_start);
            }
            EventKind::UnlockAll => {
                if let Some(t0) = lock_alls.remove(&key2) {
                    emit(w, first, "lock_all_session", ev.origin, ev.win, t0, ev.t_end)?;
                }
            }
            EventKind::Start => {
                access.insert(key2, ev.t_start);
            }
            EventKind::Complete => {
                if let Some(t0) = access.remove(&key2) {
                    emit(w, first, "pscw_access", ev.origin, ev.win, t0, ev.t_end)?;
                }
            }
            EventKind::Post => {
                exposure.insert(key2, ev.t_start);
            }
            EventKind::WaitEpoch => {
                if let Some(t0) = exposure.remove(&key2) {
                    emit(w, first, "pscw_exposure", ev.origin, ev.win, t0, ev.t_end)?;
                }
            }
            EventKind::Fence => {
                if let Some(prev_end) = fences.insert(key2, ev.t_end) {
                    emit(w, first, "fence_round", ev.origin, ev.win, prev_end, ev.t_end)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Render the trace to a `String` (no drop marker — see [`write_trace`]).
pub fn trace_json(events: &[Event], p: usize) -> String {
    let mut buf = Vec::new();
    write_trace(&mut buf, events, p, 0).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("trace JSON is valid UTF-8")
}

/// Drain `tel` and write the trace to `path` (quiescent-point only, like
/// [`Telemetry::events`]). Creates parent directories as needed. Ring
/// overwrites surface as a `telemetry_dropped` marker in the trace.
pub fn export_trace(tel: &Telemetry, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let events = tel.events();
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_trace(&mut f, &events, tel.num_ranks(), tel.dropped())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Transport;
    use crate::telemetry::event::{flow_id, Flavor};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                kind: EventKind::Put,
                flavor: Flavor::Implicit,
                transport: Some(Transport::Dmapp),
                origin: 0,
                target: 1,
                win: 7,
                bytes: 4096,
                t_start: 1000.0,
                t_end: 2655.0,
                ..Event::default()
            },
            Event {
                kind: EventKind::Fence,
                flavor: Flavor::NotApplicable,
                transport: None,
                origin: 1,
                target: NO_TARGET,
                win: 7,
                bytes: 0,
                t_start: 3000.0,
                t_end: 5900.0,
                ..Event::default()
            },
        ]
    }

    /// A JSON validator sufficient for our own output: objects, arrays,
    /// strings with standard escapes, and plain numbers.
    fn check_json(s: &str) {
        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) {
            skip_ws(b, i);
            match b[*i] {
                b'{' => {
                    *i += 1;
                    skip_ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return;
                    }
                    loop {
                        skip_ws(b, i);
                        assert_eq!(b[*i], b'"', "key at {i}");
                        string(b, i);
                        skip_ws(b, i);
                        assert_eq!(b[*i], b':', "colon at {i}");
                        *i += 1;
                        value(b, i);
                        skip_ws(b, i);
                        match b[*i] {
                            b',' => *i += 1,
                            b'}' => {
                                *i += 1;
                                return;
                            }
                            c => panic!("unexpected {:?} at {i}", c as char),
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    skip_ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return;
                    }
                    loop {
                        value(b, i);
                        skip_ws(b, i);
                        match b[*i] {
                            b',' => *i += 1,
                            b']' => {
                                *i += 1;
                                return;
                            }
                            c => panic!("unexpected {:?} at {i}", c as char),
                        }
                    }
                }
                b'"' => string(b, i),
                _ => {
                    let start = *i;
                    while *i < b.len() && !b",]}".contains(&b[*i]) && !b[*i].is_ascii_whitespace() {
                        *i += 1;
                    }
                    let tok = std::str::from_utf8(&b[start..*i]).unwrap();
                    assert!(
                        tok.parse::<f64>().is_ok() || tok == "true" || tok == "false",
                        "bad literal {tok:?}"
                    );
                }
            }
        }
        fn string(b: &[u8], i: &mut usize) {
            assert_eq!(b[*i], b'"');
            *i += 1;
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                    match b[*i] {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *i += 1,
                        b'u' => {
                            for _ in 0..4 {
                                *i += 1;
                                assert!(b[*i].is_ascii_hexdigit(), "bad \\u escape at {i}");
                            }
                            *i += 1;
                        }
                        c => panic!("bad escape {:?} at {i}", c as char),
                    }
                } else {
                    assert!(b[*i] >= 0x20, "raw control byte at {i}");
                    *i += 1;
                }
            }
            *i += 1;
        }
        let b = s.as_bytes();
        let mut i = 0;
        value(b, &mut i);
        skip_ws(b, &mut i);
        assert_eq!(i, b.len(), "trailing garbage");
    }

    #[test]
    fn trace_is_valid_json_with_expected_fields() {
        let json = trace_json(&sample_events(), 2);
        check_json(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"put\""));
        assert!(json.contains("\"cat\":\"rma\""));
        assert!(json.contains("\"name\":\"fence\""));
        assert!(json.contains("\"cat\":\"sync\""));
        assert!(json.contains("\"transport\":\"dmapp\""));
        assert!(json.contains("\"flavor\":\"implicit\""));
        assert!(json.contains("\"win\":7"));
        assert!(json.contains("\"name\":\"rank 1\""));
        // put: ts = 1000 ns = 1 µs, dur = 1655 ns = 1.655 µs.
        assert!(json.contains("\"ts\":1.0000"));
        assert!(json.contains("\"dur\":1.6550"));
        // No drops → no marker.
        assert!(!json.contains("telemetry_dropped"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = trace_json(&[], 0);
        check_json(&json);
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
        assert_eq!(json_str("plain"), "\"plain\"");
        // The escaped form survives the validator.
        check_json(&format!("{{{}:{}}}", json_str("k\"ey"), json_str("v\u{7}al")));
    }

    #[test]
    fn flow_arrows_link_producer_to_consumer() {
        let flow = flow_id(0, 1);
        let events = vec![
            Event {
                kind: EventKind::Put,
                flavor: Flavor::Implicit,
                origin: 0,
                target: 1,
                bytes: 8,
                flow,
                t_start: 100.0,
                t_end: 700.0,
                ..Event::default()
            },
            Event {
                kind: EventKind::NotifyPost,
                flavor: Flavor::Implicit,
                origin: 0,
                target: 1,
                flow,
                t_start: 100.0,
                t_end: 750.0,
                ..Event::default()
            },
            // Target's wait opened *before* the put was issued.
            Event {
                kind: EventKind::NotifyWait,
                origin: 1,
                target: 0,
                flow,
                t_start: 50.0,
                t_end: 750.0,
                ..Event::default()
            },
        ];
        let json = trace_json(&events, 2);
        check_json(&json);
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"t\""), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "{json}");
        assert!(json.contains(&format!("\"id\":{flow}")));
        // The start arrow anchors at the put's issue (0.1 µs) on tid 0;
        // the finish binds inside the wait slice on tid 1 at ≥ the issue.
        assert!(json.contains("\"ph\":\"s\",\"id\""));
        let f_pos = json.find("\"ph\":\"f\"").unwrap();
        let tail = &json[f_pos..];
        assert!(tail.contains("\"tid\":1"), "{tail}");
    }

    #[test]
    fn lone_flow_events_emit_no_arrows() {
        let events = vec![Event {
            kind: EventKind::Put,
            origin: 0,
            target: 1,
            flow: flow_id(0, 1),
            t_start: 0.0,
            t_end: 10.0,
            ..Event::default()
        }];
        let json = trace_json(&events, 2);
        check_json(&json);
        assert!(!json.contains("\"ph\":\"s\""));
        // The slice still advertises its flow id for filtering.
        assert!(json.contains("\"flow\":"));
    }

    #[test]
    fn scope_spans_wrap_epochs() {
        let mk = |kind, origin, target, t0: f64, t1: f64| Event {
            kind,
            origin,
            target,
            win: 3,
            t_start: t0,
            t_end: t1,
            ..Event::default()
        };
        let events = vec![
            mk(EventKind::Lock, 0, 1, 100.0, 150.0),
            mk(EventKind::Unlock, 0, 1, 900.0, 1000.0),
            mk(EventKind::Start, 1, NO_TARGET, 0.0, 10.0),
            mk(EventKind::Complete, 1, NO_TARGET, 500.0, 600.0),
            mk(EventKind::Post, 2, NO_TARGET, 0.0, 10.0),
            mk(EventKind::WaitEpoch, 2, NO_TARGET, 700.0, 800.0),
            mk(EventKind::Fence, 0, NO_TARGET, 2000.0, 2100.0),
            mk(EventKind::Fence, 0, NO_TARGET, 3000.0, 3100.0),
        ];
        let json = trace_json(&events, 3);
        check_json(&json);
        assert!(json.contains("\"name\":\"lock_session\""), "{json}");
        assert!(json.contains("\"name\":\"pscw_access\""));
        assert!(json.contains("\"name\":\"pscw_exposure\""));
        assert!(json.contains("\"name\":\"fence_round\""), "{json}");
        assert!(json.contains("\"cat\":\"scope\""));
        // lock_session spans 100 ns → 1000 ns = ts 0.1 µs, dur 0.9 µs.
        assert!(json.contains("\"ts\":0.1000,\"dur\":0.9000"), "{json}");
        // One fence pair → exactly one round (2.1 µs → 3.1 µs).
        assert!(json.contains("\"ts\":2.1000,\"dur\":1.0000"), "{json}");
    }

    #[test]
    fn dropped_marker_appears_when_rings_overflowed() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[], 1, 42).unwrap();
        let json = String::from_utf8(buf).unwrap();
        check_json(&json);
        assert!(json.contains("\"name\":\"telemetry_dropped\""));
        assert!(json.contains("\"dropped\":42"));
    }

    #[test]
    fn export_writes_file() {
        let dir = std::env::temp_dir().join("fompi-telemetry-test");
        let path = dir.join("trace.json");
        let tel = Telemetry::with_capacity(2, true, false, 16);
        for ev in sample_events() {
            tel.record(ev);
        }
        export_trace(&tel, &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        check_json(&body);
        assert!(body.contains("\"name\":\"put\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_surfaces_drops() {
        let dir = std::env::temp_dir().join("fompi-telemetry-drop-test");
        let path = dir.join("trace.json");
        let tel = Telemetry::with_capacity(1, true, false, 2);
        for i in 0..6u64 {
            tel.record(Event {
                kind: EventKind::Put,
                origin: 0,
                target: 0,
                bytes: i,
                t_start: i as f64,
                t_end: i as f64 + 1.0,
                ..Event::default()
            });
        }
        export_trace(&tel, &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        check_json(&body);
        assert!(body.contains("telemetry_dropped"), "{body}");
        assert!(body.contains("\"dropped\":4"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
