//! Byte-identity pin for the serving exports: the Chrome trace, the
//! OpenMetrics text and the journal of four seeded LAER sessions at the
//! calibrated 1×4 operating point (1200 rps, hot-expert flip every 30
//! steps, 200 requests).
//!
//! Each export is reduced to a 64-bit FNV-1a hash. A change to any
//! exporter that alters even one byte — a float format, a field order,
//! an escape — fails here, so speed-ups to the writers can be checked
//! against the exact output they replace.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use laer_obs::Observer;
use laer_serve::{
    record_observability, run_serving, ServeConfig, ServingOutcome, ServingSystemKind,
    WorkloadConfig,
};
use laer_sim::{
    write_chrome_trace, write_chrome_trace_with_counters, write_chrome_trace_with_flow,
    CounterTrack,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `ext-serve` operating point for LAER at 1200 rps, flip 30,
/// 200 requests, with the workload seed replaced by `seed`.
fn config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(ServingSystemKind::Laer);
    cfg.nodes = 1;
    cfg.devices_per_node = 4;
    cfg.queue_capacity = 512;
    cfg.step_overhead = 2.0e-4;
    cfg.workload = WorkloadConfig::default()
        .with_seed(seed)
        .with_requests(200)
        .with_arrival_rate(1200.0)
        .with_flip_period(Some(30));
    cfg.workload.mean_decode_tokens = 16.0;
    cfg
}

fn session(seed: u64) -> ServingOutcome {
    run_serving(&config(seed))
}

/// `(seed, trace, openmetrics, journal)` hashes of each session.
#[rustfmt::skip]
const SESSIONS: [(u64, u64, u64, u64); 4] = [
    (1, 0xbabc168d2d32ccc2, 0xc6e1e8bd1363d881, 0xa95844526690cd52),
    (2, 0xce41334c583568ab, 0xdc280c610086fec7, 0x8b48f2b4e1c03b34),
    (3, 0x47c5d534b694e56b, 0xe942cb4f59b5ff2b, 0x238fd18915c19177),
    (4, 0x633c65ce6a768666, 0x26ea74f2b26a21ff, 0x7feaa0f83c8895c4),
];

#[test]
fn serving_exports_are_byte_identical() {
    let mut got = Vec::new();
    for &(seed, ..) in &SESSIONS {
        let outcome = session(seed);
        let mut trace = Vec::new();
        write_chrome_trace(&outcome.timeline, &mut trace).unwrap();
        let mut obs = Observer::new();
        record_observability(&outcome, &mut obs);
        got.push((
            seed,
            fnv1a(&trace),
            fnv1a(obs.registry.to_openmetrics().as_bytes()),
            fnv1a(obs.journal.to_jsonl().as_bytes()),
        ));
    }
    assert_eq!(got, SESSIONS, "got {got:#x?}");
}

/// Hashes of the counter and flow variants on the seed-1 timeline.
const COUNTERS_HASH: u64 = 0xef9c40ec95de9f55;
const FLOW_HASH: u64 = 0x085c00302ec77d96;

#[test]
fn counter_and_flow_exports_are_byte_identical() {
    let outcome = session(1);
    // Deliberately unsorted, with values that exercise `{:.4}`.
    let counters = [
        CounterTrack::new(
            "queue depth",
            1000,
            vec![(2.5e-3, 7.0), (0.0, 0.0), (1.25e-3, 3.0)],
        ),
        CounterTrack::new("S1 util", 0, vec![(1e-3, 0.33333), (3e-3, 0.125)]),
    ];
    // The last edge falls outside the timeline and is skipped.
    let flow = [(0, 5), (3, 100), (100, 2000), (7, usize::MAX)];
    let mut with_counters = Vec::new();
    write_chrome_trace_with_counters(&outcome.timeline, &counters, &mut with_counters).unwrap();
    let mut with_flow = Vec::new();
    write_chrome_trace_with_flow(&outcome.timeline, &counters, &flow, &mut with_flow).unwrap();
    let got = (fnv1a(&with_counters), fnv1a(&with_flow));
    assert_eq!(got, (COUNTERS_HASH, FLOW_HASH), "got {got:#x?}");
}
