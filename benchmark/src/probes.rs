//! Probes: direct, timed calls into one layer's public functions on the
//! workload's own sequence, so a layer's raw speed is measured in the
//! same run as the end-to-end number it is compared with.

use crate::spans::Spans;
use crate::stats::median;
use repro::align::{sw_last_row, NoMask, QueryProfile};
use repro::core::{SplitBounds, TaskQueue};
use repro::simd::dispatch::sweep_group_profile_i16;
use repro::simd::select;
use repro::xmpi::socket::{SocketHub, SocketPeer};
use repro::xmpi::thread::ThreadComm;
use repro::xmpi::wire::{Decoder, Encoder};
use repro::xmpi::Comm;
use repro::{Scoring, SeedConfig, Seq};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ping-pongs per message size; the metric is their median.
const ROUND_TRIPS: usize = 2000;
const SMALL_MESSAGE: usize = 64;
const LARGE_MESSAGE: usize = 16 * 1024;
const TAG_ECHO: u32 = 1;
const TAG_STOP: u32 = 2;
const PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// What the probes measured; `None` where a probe could not run (the
/// metric is then reported as missing, not as zero).
#[derive(Debug, Default, Clone)]
pub struct ProbeResults {
    /// Scalar Gotoh sweep of the central split, M cells/s.
    pub gotoh_mcups: Option<f64>,
    /// `SplitBounds::build` on the whole sequence, seconds.
    pub bounds_build_s: Option<f64>,
    /// `TaskQueue` pushes + pops, M operations/s.
    pub queue_mops: Option<f64>,
    /// Narrow profile sweep of the central group on the auto-selected
    /// kernel, G lane-cells/s: the ceiling of every SIMD wall time.
    pub kernel_peak_glcups: Option<f64>,
    /// In-process channel ping-pong, µs, 64-byte and 16-KiB messages.
    pub chan_roundtrip_us: Option<(f64, f64)>,
    /// TCP loopback ping-pong through the hub/peer pair, µs, same sizes.
    pub socket_roundtrip_us: Option<(f64, f64)>,
    /// Framed `i32_slice` encode + decode, MB/s of payload.
    pub wire_codec_mbps: Option<f64>,
}

/// Median seconds per call of `f`: at least `min_calls` calls and at
/// least `budget` of total time, so sub-millisecond calls get enough
/// samples and slow ones are not repeated needlessly.
fn median_call_secs(min_calls: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Run every probe, each under its own span. `quick` (the smoke pass)
/// cuts the time and the ping-pong count per probe tenfold.
pub fn run_probes(seq: &Seq, scoring: &Scoring, spans: &mut Spans, quick: bool) -> ProbeResults {
    let budget = Duration::from_millis(if quick { 15 } else { 150 });
    let round_trips = if quick { ROUND_TRIPS / 10 } else { ROUND_TRIPS };
    let codes = seq.codes();
    let m = codes.len();
    let mut out = ProbeResults::default();

    spans.scope("probe.align.gotoh", |_| {
        let (a, b) = seq.split(m / 2);
        let cells = (a.len() * b.len()) as f64;
        let secs = median_call_secs(5, budget, || {
            black_box(sw_last_row(black_box(a), black_box(b), scoring, NoMask));
        });
        out.gotoh_mcups = Some(cells / secs / 1e6);
    });

    spans.scope("probe.core.bounds_build", |_| {
        let secs = median_call_secs(5, budget, || {
            black_box(SplitBounds::build(
                black_box(codes),
                scoring,
                SeedConfig::new(6),
            ));
        });
        out.bounds_build_s = Some(secs);
    });

    spans.scope("probe.core.queue", |_| {
        let secs = median_call_secs(5, budget, || {
            let mut queue = TaskQueue::for_sequence_len(black_box(m));
            while let Some(task) = queue.pop() {
                black_box(task);
            }
        });
        out.queue_mops = Some(2.0 * (m - 1) as f64 / secs / 1e6);
    });

    spans.scope("probe.simd.kernel_peak", |_| {
        let (Ok(sel), Some(profile)) = (
            select(None, None),
            QueryProfile::<i16>::new_narrow(scoring, codes),
        ) else {
            return;
        };
        let lanes = sel.width.lanes();
        if m < 2 * lanes + 2 {
            return;
        }
        let r0 = m / 2 - lanes / 2;
        let sweep = || sweep_group_profile_i16(sel, codes, scoring, &profile, r0, lanes, None);
        let lane_cells = (sweep().vector_cells * lanes as u64) as f64;
        let secs = median_call_secs(5, budget, || {
            black_box(sweep());
        });
        out.kernel_peak_glcups = Some(lane_cells / secs / 1e9);
    });

    spans.scope("probe.xmpi.chan_roundtrip", |_| {
        let mut world = ThreadComm::world(2);
        let far = world.pop().expect("a world of two has rank 1");
        let near = world.pop().expect("a world of two has rank 0");
        out.chan_roundtrip_us = ping_pong(&near, round_trips, move || Some(far));
    });

    spans.scope("probe.xmpi.socket_roundtrip", |_| {
        let Ok(hub) = SocketHub::bind("127.0.0.1:0") else {
            return;
        };
        let addr = hub.addr().to_string();
        out.socket_roundtrip_us =
            ping_pong(&hub, round_trips, move || SocketPeer::connect(&addr).ok());
    });

    spans.scope("probe.xmpi.wire_codec", |_| {
        let row: Vec<i32> = (0..LARGE_MESSAGE as i32 / 4).collect();
        let secs = median_call_secs(5, budget, || {
            let frame = Encoder::new().i32_slice(black_box(&row)).finish_framed();
            let back = Decoder::new_framed(&frame).and_then(|mut d| d.i32_vec());
            assert_eq!(back.as_deref(), Ok(row.as_slice()), "wire codec round trip");
        });
        out.wire_codec_mbps = Some(LARGE_MESSAGE as f64 / secs / 1e6);
    });

    out
}

/// Median of `round_trips` round-trip times in µs for 64-byte and 16-KiB messages between
/// `near` (rank 0) and an echo thread that owns the endpoint `connect`
/// yields (rank 1). The echo thread is stopped and joined before return.
fn ping_pong<N, F, C>(near: &N, round_trips: usize, connect: C) -> Option<(f64, f64)>
where
    N: Comm,
    F: Comm,
    C: FnOnce() -> Option<F> + Send + 'static,
{
    let echo = std::thread::spawn(move || {
        let Some(far) = connect() else { return };
        while let Ok(msg) = far.recv_timeout(PEER_TIMEOUT) {
            if msg.tag != TAG_ECHO || far.send(msg.from, TAG_ECHO, msg.payload).is_err() {
                return;
            }
        }
    });
    let measure = |bytes: usize| -> Option<f64> {
        let mut samples = Vec::with_capacity(round_trips);
        for _ in 0..round_trips {
            let payload = vec![0x5a_u8; bytes];
            let t = Instant::now();
            near.send(1, TAG_ECHO, payload).ok()?;
            let reply = near.recv_timeout(PEER_TIMEOUT).ok()?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            if reply.payload.len() != bytes {
                return None;
            }
        }
        Some(median(&samples))
    };
    let result = (|| {
        first_round_trip(near)?;
        Some((measure(SMALL_MESSAGE)?, measure(LARGE_MESSAGE)?))
    })();
    let _ = near.send(1, TAG_STOP, Vec::new());
    echo.join().expect("echo thread does not panic");
    result
}

/// One untimed round trip, retrying the send until the echo side is
/// reachable: a socket peer is a dead rank to the hub until admitted.
fn first_round_trip<N: Comm>(near: &N) -> Option<()> {
    let deadline = Instant::now() + PEER_TIMEOUT;
    while near.send(1, TAG_ECHO, Vec::new()).is_err() {
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    near.recv_timeout(PEER_TIMEOUT).ok().map(|_| ())
}
