//! Chrome trace-event exporter: renders span snapshots — client,
//! server, or both — as the JSON array `chrome://tracing` and Perfetto
//! load (`[{"ph":"X","ts":…,"dur":…,"pid":…,"tid":…,"name":…,
//! "args":{…}}]`).
//!
//! Span records carry durations, not wall-clock timestamps (the hot
//! path never reads a clock it doesn't need), so the exporter *lays
//! out* a synthetic timeline in relative microseconds: each lane is a
//! `pid`, spans on a lane sit back-to-back, and a span's phases nest
//! inside it as child slices laid in wall-clock order. For a merged
//! client+server request, [`merged_request_timeline`] centers the
//! server span inside the client's `await` slice and reports the
//! leftover (`client await − server total`, i.e. two network legs plus
//! accept-queue residency) as `net_queue_micros`.

use crate::span::{Phase, PhaseSet, Span, SpanSnapshot};
use serde::Value;

/// The `pid` lane merged timelines put the client on.
pub const CLIENT_PID: u64 = 1;
/// The `pid` lane merged timelines put the server on.
pub const SERVER_PID: u64 = 2;

/// A span reduced to what the exporter needs: a name, a total, the
/// entered phases in wall-clock order, and string args for the root
/// slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanView {
    /// Root slice name (the request verb).
    pub name: String,
    /// Root slice duration, microseconds.
    pub total_micros: u64,
    /// Entered phases `(name, micros)` in wall-clock order.
    pub phases: Vec<(String, u64)>,
    /// `args` entries on the root slice (trace ids, tier, seq, ...).
    pub args: Vec<(String, String)>,
}

/// A server span as it arrives in a `Metrics` or `TraceGet` response.
impl From<&SpanSnapshot> for SpanView {
    fn from(s: &SpanSnapshot) -> Self {
        SpanView::of::<Phase>(s, Some(s.seq))
    }
}

/// A span still in the process that recorded it (the client's own).
impl<P: PhaseSet> From<&Span<P>> for SpanView {
    fn from(s: &Span<P>) -> Self {
        SpanView::of::<P>(&SpanSnapshot::from(s), None)
    }
}

fn push_id_args(args: &mut Vec<(String, String)>, trace: &str, span: &str, parent: &str) {
    if !trace.is_empty() {
        args.push(("trace_id".to_string(), trace.to_string()));
    }
    if !span.is_empty() {
        args.push(("span_id".to_string(), span.to_string()));
    }
    if !parent.is_empty() {
        args.push(("parent_span_id".to_string(), parent.to_string()));
    }
}

/// Keys of a JSONL trace line that are metadata, not phase timings.
const LINE_META_KEYS: &[&str] = &[
    "seq",
    "verb",
    "tier",
    "total_micros",
    "trace_id",
    "span_id",
    "parent_span_id",
];

impl SpanView {
    /// The view of a snapshot whose `phase_micros` is parallel to `P`'s
    /// phases, with the server's completion number when it has one.
    fn of<P: PhaseSet>(s: &SpanSnapshot, seq: Option<u64>) -> SpanView {
        let phases = P::PHASES
            .iter()
            .zip(s.phase_micros.iter().copied())
            .filter(|&(_, us)| us > 0)
            .map(|(p, us)| (p.name().to_string(), us))
            .collect();
        let mut args = vec![("verb".to_string(), s.verb.clone())];
        if let Some(seq) = seq {
            args.push(("seq".to_string(), seq.to_string()));
        }
        if !s.tier.is_empty() {
            args.push(("tier".to_string(), s.tier.clone()));
        }
        push_id_args(&mut args, &s.trace_id, &s.span_id, &s.parent_span_id);
        SpanView {
            name: s.verb.clone(),
            total_micros: s.total_micros,
            phases,
            args,
        }
    }

    /// Parses one line of a [`crate::TraceLog`] JSONL file (already
    /// JSON-decoded). Phase keys keep the order they appear in — the
    /// log writes them in wall-clock order. Returns `None` if the value
    /// is not an object with a `verb`.
    pub fn from_trace_line(v: &Value) -> Option<SpanView> {
        let entries = match v {
            Value::Map(entries) => entries,
            _ => return None,
        };
        let str_of = |key: &str| match v.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let name = str_of("verb")?;
        let total_micros = v.get("total_micros").and_then(|t| t.as_u64()).unwrap_or(0);
        let phases = entries
            .iter()
            .filter(|(k, _)| !LINE_META_KEYS.contains(&k.as_str()))
            .filter_map(|(k, val)| val.as_u64().map(|us| (k.clone(), us)))
            .filter(|&(_, us)| us > 0)
            .collect();
        let mut args = vec![("verb".to_string(), name.clone())];
        if let Some(seq) = v.get("seq").and_then(|s| s.as_u64()) {
            args.push(("seq".to_string(), seq.to_string()));
        }
        if let Some(tier) = str_of("tier").filter(|t| !t.is_empty()) {
            args.push(("tier".to_string(), tier));
        }
        push_id_args(
            &mut args,
            &str_of("trace_id").unwrap_or_default(),
            &str_of("span_id").unwrap_or_default(),
            &str_of("parent_span_id").unwrap_or_default(),
        );
        Some(SpanView {
            name,
            total_micros,
            phases,
            args,
        })
    }
}

/// One `pid` lane of a timeline: a name and its spans in order.
#[derive(Debug, Clone, Default)]
pub struct Lane {
    /// Process name shown by the viewer (`"client"`, a file name, ...).
    pub name: String,
    /// Spans laid back-to-back on the lane.
    pub spans: Vec<SpanView>,
}

enum Event {
    /// `"ph":"M"` process-name metadata.
    ProcessName { pid: u64, name: String },
    /// `"ph":"X"` complete slice.
    Complete {
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        name: String,
        args: Vec<(String, String)>,
    },
}

/// An in-progress Chrome trace: a flat list of events rendered by
/// [`ChromeTrace::to_json`].
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<Event>,
}

impl ChromeTrace {
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names a `pid` lane (a `process_name` metadata event).
    pub fn name_lane(&mut self, pid: u64, name: &str) {
        self.events.push(Event::ProcessName {
            pid,
            name: name.to_string(),
        });
    }

    /// Adds one complete slice.
    pub fn slice(
        &mut self,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        name: &str,
        args: Vec<(String, String)>,
    ) {
        self.events.push(Event::Complete {
            pid,
            tid,
            ts,
            dur,
            name: name.to_string(),
            args,
        });
    }

    /// Lays one span at `ts`: a root slice covering
    /// `[ts, ts + total_micros]` with each phase as a child slice laid
    /// back-to-back from `ts` (clamped so children never escape the
    /// root). Returns the root's end timestamp.
    pub fn add_span(&mut self, pid: u64, tid: u64, ts: u64, view: &SpanView) -> u64 {
        self.add_span_return_phase(pid, tid, ts, view, "").0
    }

    /// [`ChromeTrace::add_span`], additionally returning the laid-out
    /// window `(ts, dur)` of the named phase if the span entered it.
    fn add_span_return_phase(
        &mut self,
        pid: u64,
        tid: u64,
        ts: u64,
        view: &SpanView,
        phase_of_interest: &str,
    ) -> (u64, Option<(u64, u64)>) {
        let end = ts + view.total_micros;
        self.slice(
            pid,
            tid,
            ts,
            view.total_micros,
            &view.name,
            view.args.clone(),
        );
        let mut cursor = ts;
        let mut window = None;
        for (phase, micros) in &view.phases {
            let dur = (*micros).min(end.saturating_sub(cursor));
            self.slice(pid, tid, cursor, dur, phase, Vec::new());
            if phase == phase_of_interest {
                window = Some((cursor, dur));
            }
            cursor += dur;
        }
        (end, window)
    }

    /// Serializes the trace as a Chrome trace-event JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push('[');
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            match event {
                Event::ProcessName { pid, name } => {
                    out.push_str(&format!(
                        r#"{{"ph":"M","pid":{pid},"tid":0,"name":"process_name","args":{{"name":{}}}}}"#,
                        json_str(name)
                    ));
                }
                Event::Complete {
                    pid,
                    tid,
                    ts,
                    dur,
                    name,
                    args,
                } => {
                    out.push_str(&format!(
                        r#"{{"ph":"X","pid":{pid},"tid":{tid},"ts":{ts},"dur":{dur},"name":{},"args":{{"#,
                        json_str(name)
                    ));
                    for (j, (k, v)) in args.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n]\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a set of lanes as one timeline: lane `i` is `pid = i + 1`,
/// spans back-to-back (1 µs apart so zero-duration spans stay
/// distinguishable), phases nested per span.
pub fn lanes_timeline(lanes: &[Lane]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    for (i, lane) in lanes.iter().enumerate() {
        let pid = i as u64 + 1;
        trace.name_lane(pid, &lane.name);
        let mut cursor = 0u64;
        for span in &lane.spans {
            cursor = trace.add_span(pid, 1, cursor, span) + 1;
        }
    }
    trace
}

/// Merges one client span and the matching server span into a single
/// request timeline: the client on pid [`CLIENT_PID`] starting at
/// `ts = 0`, the server on pid [`SERVER_PID`] centered inside the
/// client's `await` slice when it fits there. A server span *larger*
/// than the await window is real, not skew: the server reads (and may
/// decode) the request while the client is still writing it, so the
/// span's head overlaps the client's write phase — it is laid out
/// ending at the await end, spilling left into the root (or pinned to
/// the root start, or laid after the client entirely, as it grows).
/// The client root gains a `net_queue_micros` arg: `client await −
/// server total` (saturating), the part of the wait the server cannot
/// account for — wire transfer plus accept-queue residency.
///
/// Client phases are laid out in [`ClientPhase`](crate::ClientPhase)
/// order, one slice each, though `encode` is not one interval: a binary
/// profile's job fingerprint is computed after its frames are written,
/// while the server works, and is billed to `encode`. That part of the
/// `encode` slice really ran inside the server span, and it is missing
/// from `await`, so `net_queue_micros` is then a lower bound on the
/// wire and queue time.
pub fn merged_request_timeline(client: &SpanView, server: Option<&SpanView>) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.name_lane(CLIENT_PID, "client");

    let server_total = server.map(|s| s.total_micros).unwrap_or(0);
    let mut client = client.clone();
    let mut await_window = None;
    if let Some(await_us) = client
        .phases
        .iter()
        .find(|(name, _)| name == "await")
        .map(|&(_, us)| us)
    {
        if server.is_some() {
            client.args.push((
                "net_queue_micros".to_string(),
                await_us.saturating_sub(server_total).to_string(),
            ));
        }
    }
    let (client_end, window) = trace.add_span_return_phase(CLIENT_PID, 1, 0, &client, "await");
    if let Some(w) = window {
        await_window = Some(w);
    }

    if let Some(server) = server {
        trace.name_lane(SERVER_PID, "server");
        let ts = match await_window {
            // The common case: the server's whole handling fits the
            // await slice — center it there.
            Some((await_ts, await_dur)) if server_total <= await_dur => {
                await_ts + (await_dur - server_total) / 2
            }
            // Larger than the await slice is real, not skew: the server
            // reads (and may decode) the request while the client is
            // still writing it. Keep the response landing aligned with
            // the await end and spill left into the client's write.
            Some((await_ts, await_dur)) if server_total <= await_ts + await_dur => {
                await_ts + await_dur - server_total
            }
            // Larger than everything up to the await end (buffered
            // response-write tails): pin to the root start if the root
            // can still hold it...
            Some(_) if server_total <= client_end => 0,
            // ...else lay it after the client, disjoint but visible.
            _ => client_end + 1,
        };
        trace.add_span(SERVER_PID, 1, ts, server);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientPhase, ClientSpan};
    use crate::context::IdGen;
    use crate::span::RequestSpan;

    fn parse(json: &str) -> Vec<Value> {
        match serde_json::from_str::<Value>(json).unwrap() {
            Value::Seq(events) => events,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn u64_of(event: &Value, key: &str) -> u64 {
        event.get(key).and_then(|v| v.as_u64()).unwrap()
    }

    fn str_of<'a>(event: &'a Value, key: &str) -> &'a str {
        match event.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("expected string {key}, got {other:?}"),
        }
    }

    fn server_view(ids: &IdGen) -> SpanView {
        let mut span = RequestSpan::new("Plan");
        span.trace = ids.root().child(ids);
        span.seq = 7;
        span.tier = "miss";
        span.record(Phase::FrameRead, 10);
        span.record(Phase::Decode, 5);
        span.record(Phase::Synthesis, 400);
        span.record(Phase::FrameWrite, 15);
        span.total_micros = 450;
        SpanView::from(&SpanSnapshot::from(&span))
    }

    #[test]
    fn lanes_lay_spans_back_to_back_with_nested_phases() {
        let ids = IdGen::seeded(5);
        let lane = Lane {
            name: "server".to_string(),
            spans: vec![server_view(&ids), server_view(&ids)],
        };
        let trace = lanes_timeline(&[lane]);
        let events = parse(&trace.to_json());
        // 1 metadata + 2 × (1 root + 4 phases).
        assert_eq!(events.len(), 11);
        let roots: Vec<&Value> = events
            .iter()
            .filter(|e| str_of(e, "ph") == "X" && str_of(e, "name") == "Plan")
            .collect();
        assert_eq!(roots.len(), 2);
        assert_eq!(u64_of(roots[0], "ts"), 0);
        assert_eq!(
            u64_of(roots[1], "ts"),
            451,
            "second span starts after first"
        );
        // Phases nest inside their root and never overlap each other.
        let mut cursor = 0;
        for e in &events {
            if str_of(e, "ph") == "X" && str_of(e, "name") != "Plan" && u64_of(e, "ts") < 450 {
                assert_eq!(u64_of(e, "ts"), cursor);
                cursor += u64_of(e, "dur");
            }
        }
        assert!(cursor <= 450);
    }

    #[test]
    fn merged_timeline_nests_server_inside_client_await() {
        let ids = IdGen::seeded(8);
        let root = ids.root();
        let mut cspan = ClientSpan::new("Plan");
        cspan.trace = root;
        cspan.record(ClientPhase::Connect, 120);
        cspan.record(ClientPhase::Encode, 30);
        cspan.record(ClientPhase::Write, 10);
        cspan.record(ClientPhase::Await, 600);
        cspan.record(ClientPhase::Read, 20);
        cspan.record(ClientPhase::Decode, 40);
        cspan.record(ClientPhase::Validate, 25);
        cspan.total_micros = 845;
        let client = SpanView::from(&cspan);
        let server = server_view(&ids);

        let trace = merged_request_timeline(&client, Some(&server));
        let events = parse(&trace.to_json());

        let pids: std::collections::BTreeSet<u64> =
            events.iter().map(|e| u64_of(e, "pid")).collect();
        assert_eq!(pids.len(), 2, "client and server are separate pid lanes");

        let await_ev = events
            .iter()
            .find(|e| str_of(e, "ph") == "X" && str_of(e, "name") == "await")
            .unwrap();
        let (await_ts, await_dur) = (u64_of(await_ev, "ts"), u64_of(await_ev, "dur"));
        let client_root = events
            .iter()
            .find(|e| u64_of(e, "pid") == CLIENT_PID && str_of(e, "name") == "Plan")
            .unwrap();
        let gap = client_root
            .get("args")
            .and_then(|a| a.get("net_queue_micros"))
            .map(str_of2)
            .unwrap();
        assert_eq!(gap, "150", "600 await − 450 server total");

        // Decoding and the soundness check are two slices, in that order.
        let slice = |name: &str| {
            events
                .iter()
                .find(|e| str_of(e, "ph") == "X" && str_of(e, "name") == name)
                .map(|e| (u64_of(e, "ts"), u64_of(e, "dur")))
                .unwrap_or_else(|| panic!("no {name} slice"))
        };
        let (decode, validate) = (slice("decode"), slice("validate"));
        assert_eq!((decode.1, validate.1), (40, 25));
        assert_eq!(validate.0, decode.0 + decode.1, "validate follows decode");

        for e in events.iter().filter(|e| u64_of(e, "pid") == SERVER_PID) {
            if str_of(e, "ph") != "X" {
                continue;
            }
            let (ts, dur) = (u64_of(e, "ts"), u64_of(e, "dur"));
            assert!(ts >= await_ts, "server slice starts inside await");
            assert!(
                ts + dur <= await_ts + await_dur,
                "server slice ends inside await"
            );
        }
    }

    fn str_of2(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn oversized_server_span_ends_at_the_await_end() {
        let ids = IdGen::seeded(21);
        let mut cspan = ClientSpan::new("Plan");
        cspan.trace = ids.root();
        cspan.record(ClientPhase::Write, 300);
        cspan.record(ClientPhase::Await, 400);
        cspan.total_micros = 700;
        let client = SpanView::from(&cspan);
        // 450 µs of server work > the 400 µs await window: the request
        // frame was still in flight when the server started reading it.
        let server = server_view(&ids);

        let trace = merged_request_timeline(&client, Some(&server));
        let events = parse(&trace.to_json());
        let await_ev = events
            .iter()
            .find(|e| str_of(e, "ph") == "X" && str_of(e, "name") == "await")
            .unwrap();
        let await_end = u64_of(await_ev, "ts") + u64_of(await_ev, "dur");
        let server_root = events
            .iter()
            .find(|e| {
                u64_of(e, "pid") == SERVER_PID
                    && str_of(e, "ph") == "X"
                    && str_of(e, "name") == "Plan"
            })
            .unwrap();
        assert_eq!(
            u64_of(server_root, "ts") + u64_of(server_root, "dur"),
            await_end,
            "the response landing aligns both lanes"
        );
        // The head spills left into the client's write phase.
        assert!(u64_of(server_root, "ts") < u64_of(await_ev, "ts"));
        // An overlapped wait has no unaccounted remainder.
        let client_root = events
            .iter()
            .find(|e| u64_of(e, "pid") == CLIENT_PID && str_of(e, "name") == "Plan")
            .unwrap();
        let gap = client_root
            .get("args")
            .and_then(|a| a.get("net_queue_micros"))
            .map(str_of2)
            .unwrap();
        assert_eq!(gap, "0");
    }

    #[test]
    fn merged_timeline_without_server_is_still_valid() {
        let ids = IdGen::seeded(13);
        let mut cspan = ClientSpan::new("Plan");
        cspan.trace = ids.root();
        cspan.record(ClientPhase::Await, 100);
        cspan.total_micros = 100;
        let client = SpanView::from(&cspan);
        let trace = merged_request_timeline(&client, None);
        let events = parse(&trace.to_json());
        assert!(events.len() >= 2);
        assert!(events.iter().all(|e| u64_of(e, "pid") == CLIENT_PID));
    }

    #[test]
    fn trace_line_parses_into_a_view() {
        let v: Value = serde_json::from_str(
            r#"{"seq":3,"verb":"Plan","tier":"lru","total_micros":90,"trace_id":"000102030405060708090a0b0c0d0e0f","span_id":"0001020304050607","parent_span_id":"0000000000000000","frame_read":10,"lru_lookup":2}"#,
        )
        .unwrap();
        let view = SpanView::from_trace_line(&v).unwrap();
        assert_eq!(view.name, "Plan");
        assert_eq!(view.total_micros, 90);
        assert_eq!(
            view.phases,
            vec![
                ("frame_read".to_string(), 10),
                ("lru_lookup".to_string(), 2)
            ]
        );
        assert!(view.args.contains(&(
            "trace_id".to_string(),
            "000102030405060708090a0b0c0d0e0f".to_string()
        )));
        assert!(SpanView::from_trace_line(&Value::Str("Plan".into())).is_none());
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut trace = ChromeTrace::new();
        trace.slice(
            1,
            1,
            0,
            5,
            "we\"ird\n",
            vec![("k\\".to_string(), "v".to_string())],
        );
        let events = parse(&trace.to_json());
        assert_eq!(str_of(&events[0], "name"), "we\"ird\n");
    }
}
