//! Chrome-tracing export of simulated timelines.
//!
//! Writes the [`Timeline`] in the Chrome Trace Event format ("JSON array
//! format"), loadable in `chrome://tracing` or Perfetto. Devices map to
//! processes and streams to threads, so an exported iteration renders
//! exactly like the stream diagrams of Fig. 5.

use crate::engine::StreamKind;
use crate::timeline::Timeline;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One sample of a counter track, in virtual seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Virtual time of the sample, seconds.
    pub time: f64,
    /// Counter value at that time.
    pub value: f64,
}

/// A Chrome-trace counter track (`ph:"C"` events): a named scalar
/// sampled over virtual time, rendered by Perfetto as a stepped area
/// chart alongside the span timeline — queue depth, per-stream
/// utilisation, and similar quantities that have no span shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterTrack {
    /// Track (and series) name.
    pub name: String,
    /// Process the track renders under (device index, or a synthetic
    /// pid for cluster-wide tracks).
    pub pid: u32,
    /// Samples; emitted sorted by time so trace timestamps are
    /// monotonically non-decreasing within the track.
    pub samples: Vec<CounterSample>,
}

impl CounterTrack {
    /// Creates a track from `(time, value)` pairs.
    pub fn new(name: impl Into<String>, pid: u32, samples: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            pid,
            samples: samples
                .into_iter()
                .map(|(time, value)| CounterSample { time, value })
                .collect(),
        }
    }
}

/// Stable thread id for a stream (S1..S4, matching Fig. 5's labels).
fn stream_tid(kind: StreamKind) -> u32 {
    match kind {
        StreamKind::Compute => 1,
        StreamKind::Prefetch => 2,
        StreamKind::A2a => 3,
        StreamKind::GradSync => 4,
    }
}

fn stream_name(kind: StreamKind) -> &'static str {
    match kind {
        StreamKind::Compute => "S1 compute",
        StreamKind::Prefetch => "S2 prefetch",
        StreamKind::A2a => "S3 a2a",
        StreamKind::GradSync => "S4 grad-sync",
    }
}

/// Serialises the timeline as Chrome Trace Events into `out`.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace<W: Write>(timeline: &Timeline, out: W) -> io::Result<()> {
    write_chrome_trace_with_counters(timeline, &[], out)
}

/// [`write_chrome_trace`] plus counter tracks: after the span (`ph:"X"`)
/// events, every [`CounterTrack`] is emitted as a run of `ph:"C"` events
/// with its samples sorted by time, so Perfetto renders queue depth and
/// stream utilisation as stepped charts under the same timeline.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace_with_counters<W: Write>(
    timeline: &Timeline,
    counters: &[CounterTrack],
    out: W,
) -> io::Result<()> {
    write_chrome_trace_with_flow(timeline, counters, &[], out)
}

/// [`write_chrome_trace_with_counters`] plus flow events: every
/// `(src, dst)` pair of span indices in `flow` is emitted as a
/// `ph:"s"` → `ph:"f"` arrow from the source span's end to the
/// destination span's start, so Perfetto draws the critical path as a
/// chain of arrows across devices and streams. Pairs referencing spans
/// outside the timeline are skipped.
///
/// Events are built in an internal buffer and handed to `out` in
/// 64 KiB `write_all` calls, so an unbuffered `File` is fine.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_chrome_trace_with_flow<W: Write>(
    timeline: &Timeline,
    counters: &[CounterTrack],
    flow: &[(usize, usize)],
    out: W,
) -> io::Result<()> {
    let mut ev = Events::new(out);
    // Thread-name metadata so Perfetto shows S1..S4 labels, plus a
    // process_sort_index per device so devices render in numeric order
    // (the default string sort puts device 10 before device 2). Device
    // indices are dense, so a bitmask of stream tids per index collects
    // both lists in index order.
    let mut streams: Vec<u8> = Vec::new();
    for s in timeline.spans() {
        let d = s.device.index();
        if d >= streams.len() {
            streams.resize(d + 1, 0);
        }
        streams[d] |= 1 << stream_tid(s.stream);
    }
    for (device, _) in streams.iter().enumerate().filter(|&(_, &m)| m != 0) {
        write!(
            ev.next()?,
            "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{device},\
             \"args\":{{\"sort_index\":{device}}}}}"
        )?;
    }
    for (device, &mask) in streams.iter().enumerate() {
        for kind in StreamKind::ALL {
            let tid = stream_tid(kind);
            if mask & (1 << tid) == 0 {
                continue;
            }
            write!(
                ev.next()?,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{device},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                stream_name(kind)
            )?;
        }
    }
    // Spans are nearly all of a trace's bytes, so they skip `write!`.
    for span in timeline.spans() {
        let buf = ev.next()?;
        let label = span.label.as_str().as_bytes();
        buf.extend_from_slice(b"{\"name\":\"");
        buf.extend_from_slice(label);
        buf.extend_from_slice(b"\",\"cat\":\"");
        buf.extend_from_slice(label);
        buf.extend_from_slice(b"\",\"ph\":\"X\",\"pid\":");
        push_uint(buf, span.device.index() as u64);
        buf.extend_from_slice(b",\"tid\":");
        push_uint(buf, u64::from(stream_tid(span.stream)));
        // Times in microseconds, as the format expects.
        buf.extend_from_slice(b",\"ts\":");
        push_fixed3(buf, span.start * 1e6);
        buf.extend_from_slice(b",\"dur\":");
        push_fixed3(buf, span.duration() * 1e6);
        buf.push(b'}');
    }
    // Flow arrows (critical-path edges): a `ph:"s"` at the source span's
    // end bound to a `ph:"f"` (binding point "e": enclosing slice) at
    // the destination span's start, one id per edge.
    for (id, &(src, dst)) in flow.iter().enumerate() {
        let (Some(s), Some(d)) = (timeline.spans().get(src), timeline.spans().get(dst)) else {
            continue;
        };
        write!(
            ev.next()?,
            "{{\"name\":\"critical-path\",\"cat\":\"critpath\",\"ph\":\"s\",\"id\":{id},\
             \"pid\":{},\"tid\":{},\"ts\":{:.3}}},\
             {{\"name\":\"critical-path\",\"cat\":\"critpath\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{id},\"pid\":{},\"tid\":{},\"ts\":{:.3}}}",
            s.device.index(),
            stream_tid(s.stream),
            s.end * 1e6,
            d.device.index(),
            stream_tid(d.stream),
            d.start * 1e6
        )?;
    }
    for track in counters {
        let mut samples = track.samples.clone();
        samples.sort_by(|a, b| a.time.total_cmp(&b.time));
        for s in samples {
            let buf = ev.next()?;
            buf.extend_from_slice(b"{\"name\":\"");
            push_json_escaped(buf, &track.name);
            write!(
                buf,
                "\",\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\
                 \"args\":{{\"value\":{:.4}}}}}",
                track.pid,
                s.time * 1e6,
                s.value
            )?;
        }
    }
    ev.finish()
}

/// Bytes the trace buffer collects before handing them to the writer.
const CHUNK: usize = 64 * 1024;

/// The JSON event array under construction: a byte buffer flushed to
/// `out` whenever it passes [`CHUNK`], plus the comma bookkeeping.
struct Events<W: Write> {
    out: W,
    buf: Vec<u8>,
    first: bool,
}

impl<W: Write> Events<W> {
    fn new(out: W) -> Self {
        // Headroom past CHUNK for the event that crosses it.
        let mut buf = Vec::with_capacity(CHUNK + 512);
        buf.push(b'[');
        Self {
            out,
            buf,
            first: true,
        }
    }

    /// Starts the next event: flushes a full buffer, writes the
    /// separating comma and returns the buffer to append the event to.
    fn next(&mut self) -> io::Result<&mut Vec<u8>> {
        if self.buf.len() >= CHUNK {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        if !self.first {
            self.buf.push(b',');
        }
        self.first = false;
        Ok(&mut self.buf)
    }

    /// Closes the array and writes out what is left.
    fn finish(mut self) -> io::Result<()> {
        self.buf.push(b']');
        self.out.write_all(&self.buf)
    }
}

/// Appends `n` in decimal.
fn push_uint(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Appends `v` exactly as `format!("{v:.3}")` would.
///
/// The fast path covers finite, non-negative `v < 1e12`: `v * 1000` is
/// then below 2^50, so its fraction is exact and the one rounding in
/// the product is at most ε/2 relative. Unless that fraction lies within
/// a safe 4ε margin of one half, rounding the product to an integer
/// gives the same digits as rounding the exact decimal value of `v`.
/// Near-ties, `-0.0`, negatives, NaN, infinities and huge values go to
/// the standard formatter.
fn push_fixed3(buf: &mut Vec<u8>, v: f64) {
    if v.is_sign_positive() && v < 1e12 {
        let scaled = v * 1000.0;
        let frac = scaled - scaled.floor();
        if (frac - 0.5).abs() > 4.0 * f64::EPSILON * scaled {
            // In range for u64 (< 1e15) and already integral.
            let milli = scaled.round() as u64;
            push_uint(buf, milli / 1000);
            let rem = milli % 1000;
            let digit = |d: u64| b'0' + (d % 10) as u8;
            buf.extend_from_slice(&[b'.', digit(rem / 100), digit(rem / 10), digit(rem)]);
            return;
        }
    }
    // Writing into a `Vec` cannot fail.
    let _ = write!(buf, "{v:.3}");
}

/// Appends `s` with the characters JSON strings forbid raw escaped:
/// `"`, `\` and control characters.
fn push_json_escaped(buf: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            0..=0x1f => {
                let _ = write!(buf, "\\u{b:04x}");
            }
            _ => buf.push(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Span, SpanLabel};
    use laer_cluster::DeviceId;

    #[test]
    fn exports_valid_json_with_expected_events() {
        let mut t = Timeline::new();
        t.push(Span {
            device: DeviceId::new(0),
            stream: StreamKind::Compute,
            label: SpanLabel::Attention,
            start: 0.0,
            end: 1e-3,
        });
        t.push(Span {
            device: DeviceId::new(1),
            stream: StreamKind::A2a,
            label: SpanLabel::AllToAll,
            start: 1e-3,
            end: 3e-3,
        });
        let mut buf = Vec::new();
        write_chrome_trace(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: serde_json_shim::Value = serde_json_shim::parse(&text);
        assert!(parsed.events >= 4, "2 spans + 2 thread names");
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("attention"));
        assert!(text.contains("all-to-all"));
        assert!(text.contains("S3 a2a"));
        assert!(text.contains("\"dur\":2000.000"));
    }

    #[test]
    fn empty_timeline_is_empty_array() {
        let mut buf = Vec::new();
        write_chrome_trace(&Timeline::new(), &mut buf).unwrap();
        assert_eq!(buf, b"[]");
    }

    /// Builds a small deterministic timeline + counter tracks, as a
    /// seeded experiment export would.
    fn golden_input() -> (Timeline, Vec<CounterTrack>) {
        let mut t = Timeline::new();
        for i in 0..4u32 {
            t.push(Span {
                device: DeviceId::new((i % 2) as usize),
                stream: if i % 2 == 0 {
                    StreamKind::Compute
                } else {
                    StreamKind::A2a
                },
                label: if i % 2 == 0 {
                    SpanLabel::ExpertCompute
                } else {
                    SpanLabel::AllToAll
                },
                start: f64::from(i) * 1e-3,
                end: f64::from(i + 1) * 1e-3,
            });
        }
        let counters = vec![
            CounterTrack::new(
                "queue depth",
                1000,
                vec![(0.0, 0.0), (1e-3, 3.0), (2e-3, 1.0)],
            ),
            // Deliberately unsorted: the writer must sort per track.
            CounterTrack::new("S1 util", 0, vec![(2e-3, 0.5), (0.0, 1.0), (1e-3, 0.75)]),
        ];
        (t, counters)
    }

    /// Golden test: the trace parses as JSON, is byte-identical across
    /// two runs of the same timeline, and carries the counter events
    /// with monotonically non-decreasing timestamps per track.
    #[test]
    fn golden_trace_with_counters() {
        let render = || {
            let (t, counters) = golden_input();
            let mut buf = Vec::new();
            write_chrome_trace_with_counters(&t, &counters, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let text = render();
        // Byte-identical across runs.
        assert_eq!(text, render());
        // Structurally valid JSON.
        let parsed = serde_json_shim::parse(&text);
        // 4 spans + thread metadata + 6 counter samples.
        assert!(parsed.events >= 4 + 6);
        // Counter events present with both track names.
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("queue depth"));
        assert!(text.contains("S1 util"));
        // Timestamps within each counter track are non-decreasing.
        for track in ["queue depth", "S1 util"] {
            let needle = format!("\"name\":\"{track}\"");
            let mut last = f64::NEG_INFINITY;
            for event in text.split("},{").filter(|e| e.contains(&needle)) {
                let ts: f64 = event
                    .split("\"ts\":")
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse().ok())
                    .expect("counter event has ts");
                assert!(ts >= last, "timestamps must be non-decreasing in {track}");
                last = ts;
            }
            assert!(last > f64::NEG_INFINITY, "track {track} emitted");
        }
    }

    /// Flow events render the critical path: one `ph:"s"`/`ph:"f"` pair
    /// per edge, anchored at the source end and destination start, and
    /// out-of-range pairs are skipped rather than panicking.
    #[test]
    fn flow_events_follow_the_edges() {
        let (t, _) = golden_input();
        let mut buf = Vec::new();
        write_chrome_trace_with_flow(&t, &[], &[(0, 1), (1, 3), (7, 9)], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        serde_json_shim::parse(&text);
        assert_eq!(text.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"f\"").count(), 2);
        assert!(text.contains("\"bp\":\"e\""));
        // Edge 0 starts at span 0's end (1e-3 s = 1000 µs).
        assert!(text.contains("\"ph\":\"s\",\"id\":0,\"pid\":0,\"tid\":1,\"ts\":1000.000"));
        // Without flow edges the writer emits none.
        let mut plain = Vec::new();
        write_chrome_trace(&t, &mut plain).unwrap();
        assert!(!String::from_utf8(plain).unwrap().contains("\"ph\":\"s\""));
    }

    /// Devices carry a numeric `process_sort_index` so Perfetto orders
    /// device 2 before device 10 (the string sort would not).
    #[test]
    fn devices_sort_numerically() {
        let mut t = Timeline::new();
        for device in [10usize, 2] {
            t.push(Span {
                device: DeviceId::new(device),
                stream: StreamKind::Compute,
                label: SpanLabel::Attention,
                start: 0.0,
                end: 1e-3,
            });
        }
        let mut buf = Vec::new();
        write_chrome_trace(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let idx2 = text
            .find("{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":2,\"args\":{\"sort_index\":2}}")
            .expect("device 2 sort index");
        let idx10 = text
            .find("{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":10,\"args\":{\"sort_index\":10}}")
            .expect("device 10 sort index");
        assert!(idx2 < idx10, "metadata emitted in numeric device order");
    }

    #[test]
    fn counters_only_trace_is_valid() {
        let mut buf = Vec::new();
        let track = CounterTrack::new("q", 7, vec![(0.0, 1.0)]);
        write_chrome_trace_with_counters(&Timeline::new(), &[track], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        serde_json_shim::parse(&text);
        assert!(text.starts_with("[{\"name\":\"q\""));
        assert!(text.contains("\"pid\":7"));
    }

    /// A counter track name with JSON-special characters is escaped, so
    /// the trace stays valid JSON and the name reads back unchanged.
    #[test]
    fn counter_names_are_json_escaped() {
        let names = ["a\"b\\c", "tab\tline\nbell\u{7}"];
        let tracks: Vec<CounterTrack> = names
            .iter()
            .map(|&n| CounterTrack::new(n, 0, vec![(0.0, 1.0)]))
            .collect();
        let mut buf = Vec::new();
        write_chrome_trace_with_counters(&Timeline::new(), &tracks, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(serde_json_shim::parse(&text).events, 2);
        assert!(text.starts_with(r#"[{"name":"a\"b\\c","#));
        assert!(text.contains(r#"{"name":"tab\tline\nbell\u0007","#));
        let serde::Value::Array(events) = serde_json::parse_value(&text).unwrap() else {
            panic!("trace is a JSON array");
        };
        for (event, name) in events.iter().zip(names) {
            let serde::Value::Object(fields) = event else {
                panic!("event is an object");
            };
            assert_eq!(fields[0], ("name".into(), serde::Value::Str(name.into())));
        }
    }

    /// `push_fixed3` is byte-identical to `format!("{v:.3}")`.
    fn check_fixed3(v: f64) {
        let mut buf = Vec::new();
        push_fixed3(&mut buf, v);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            format!("{v:.3}"),
            "v = {v:e} (bits {:#x})",
            v.to_bits()
        );
    }

    /// `v` and its neighbours one ulp either side.
    fn check_fixed3_around(v: f64) {
        check_fixed3(v);
        if v > 0.0 && v.is_finite() {
            check_fixed3(f64::from_bits(v.to_bits() - 1));
            check_fixed3(f64::from_bits(v.to_bits() + 1));
        }
    }

    #[test]
    fn fixed3_matches_std_on_random_values() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..100_000 {
            // Uniform, log-uniform and raw bit patterns below 1e13.
            check_fixed3(rng.gen_range(0.0..1e13));
            check_fixed3(10f64.powf(rng.gen_range(-9.0..13.0)));
            let bits = f64::from_bits(rng.next_u64() >> 1);
            if bits < 1e13 {
                check_fixed3(bits);
            }
            // Whole microsecond counts, as span times mostly are.
            check_fixed3(rng.gen_range(0u64..1_000_000_000) as f64 * 1e-3);
        }
    }

    #[test]
    fn fixed3_matches_std_on_ties_and_specials() {
        // Exact dyadic ties: `v * 1000` ends in exactly .5.
        check_fixed3_around(1.0625);
        for k in 0..2_000 {
            check_fixed3_around(0.0625 + f64::from(k));
        }
        // m / 2000 is exact and a tie when m is an odd multiple of 125.
        for m in (125..2_000_000u32).step_by(250) {
            check_fixed3_around(f64::from(m) / 2000.0);
        }
        // Near-ties that are not exact: (m + 0.5) / 1000.
        for m in 0..5_000u32 {
            check_fixed3_around((f64::from(m) + 0.5) / 1000.0);
            check_fixed3_around((f64::from(m) * 7_919.0 + 0.5) / 1000.0);
        }
        for v in [
            0.0,
            -0.0,
            -1.5,
            -0.0005,
            -1e15,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
            0.0005,
            0.0015,
            999.9995,
            1e11,
            1e12,
            1e13,
            1e300,
        ] {
            check_fixed3_around(v);
        }
    }

    /// Tiny structural JSON check without a full parser: counts
    /// top-level objects, validates bracket balance, and requires every
    /// string to be terminated and free of raw control characters (so an
    /// unescaped quote in a name unbalances it).
    mod serde_json_shim {
        pub struct Value {
            pub events: usize,
        }

        pub fn parse(text: &str) -> Value {
            assert!(text.starts_with('[') && text.ends_with(']'), "array");
            let mut depth = 0i32;
            let mut events = 0usize;
            let mut in_string = false;
            let mut escaped = false;
            for c in text.chars() {
                if in_string {
                    assert!(!c.is_control(), "raw control character in string");
                    match (escaped, c) {
                        (true, _) => escaped = false,
                        (false, '\\') => escaped = true,
                        (false, '"') => in_string = false,
                        _ => {}
                    }
                    continue;
                }
                match c {
                    '"' => in_string = true,
                    '{' => {
                        depth += 1;
                        if depth == 1 {
                            events += 1;
                        }
                    }
                    '}' => depth -= 1,
                    ':' | ',' | '[' | ']' | '.' | '-' | '+' | 'e' | 'E' | '0'..='9' => {}
                    other => panic!("unexpected {other:?} outside a string"),
                }
                assert!(depth >= 0, "unbalanced braces");
            }
            assert!(!in_string, "unterminated string");
            assert_eq!(depth, 0, "unbalanced braces");
            Value { events }
        }
    }
}
