//! A minimal payload codec: little-endian integers appended to a byte
//! buffer. Enough for the engines' task ids, scores and score rows,
//! without pulling a serialisation framework into the dependency tree.
//!
//! Three integrity layers:
//!
//! * every [`Decoder`] read is bounds-checked and returns a
//!   [`WireError`] instead of panicking, so a truncated or garbled
//!   payload is an error value the engine can drop;
//! * [`Encoder::finish_framed`] / [`Decoder::new_framed`] wrap the
//!   payload in a `[magic: u32][version: u32][len: u32][payload]
//!   [frame_checksum]` frame, so a payload whose *bytes* were flipped
//!   in flight (not just shortened) is detected before any field is
//!   interpreted;
//! * the magic word and protocol version at the front mean a peer
//!   speaking a different (stale or foreign) protocol fails with a
//!   typed [`WireError::Version`] on its very first frame instead of a
//!   garbage decode deep inside a message codec. The thread simulator
//!   and the socket transport share this framing, so a frame captured
//!   on one backend replays on the other.

/// Frame magic word: ASCII `rpro`, little-endian. A stream that does
/// not start every frame with it is not ours.
pub const MAGIC: u32 = u32::from_le_bytes(*b"rpro");

/// Wire protocol version. Bump on any framing or message-layout change;
/// a peer with a different version is rejected with
/// [`WireError::Version`] before any field of its payload is read.
/// v2: `TaskMsg` grew the master's per-split `bound` field (seeded
/// split pruning), so a v1 peer would mis-frame every task.
/// v3: telemetry control frames (`TELEMETRY` tag carrying histogram
/// snapshots), so a v2 peer would treat them as garbage tags.
/// v4: batched task assignment — `TaskMsg` became `{stamp, items}`
/// with per-item `{r, attempt, first, bound, row}`, so a v3 peer
/// would mis-frame every task in both directions.
/// v5: list-valued result frames — `RESULT` carries `{n, items}` and a
/// result's `stamp` is the replica version it was computed against, so
/// a v4 peer would mis-frame every result.
/// v6: a task is a unit of work (a lane pack on the cluster engines) —
/// task items carry `{unit, .., rows}`, results `{unit, best member,
/// member rows, work tallies}` and the job its lane width, so a v5 peer
/// would mis-frame every task and result.
/// v7: the trailer is [`frame_checksum`] (word at a time) where it was
/// byte-serial FNV-1a, so every v6 trailer fails to verify.
/// v8: the `pool_reuses` counter is gone, so a telemetry frame carries
/// one counter word fewer and a v7 peer would mis-frame every one.
/// v9: the twelve counters that repeated a work tally (which travels in
/// the results) are gone, so a telemetry frame carries 13 counter words
/// where a v8 peer sends 25.
/// v10: first-pass rows travel as stored — a form byte, then `i8`
/// deltas or plain `i32` entries — where v9 widened every row to `i32`,
/// and a `RESULT` frame carries one result where v5–v9 carried a
/// counted list, so a v9 peer would mis-frame every row and result.
pub const VERSION: u32 = 10;

/// Bytes of frame header (`magic + version + len`) before the payload.
pub const FRAME_HEADER: usize = 12;

/// Bytes of frame trailer (the [`frame_checksum`]) after the payload.
pub const FRAME_TRAILER: usize = 8;

/// Decoding failure modes. All of them mean "this payload did not come
/// intact from our encoder" — the right response is to drop the
/// message, never to trust partial fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the requested field needs.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length prefix claims more elements than the buffer could hold.
    BadLength {
        /// Claimed element count.
        claimed: usize,
    },
    /// The frame header is malformed (too short, wrong magic word, or
    /// the declared payload length disagrees with the buffer size).
    BadFrame,
    /// The frame carries a different protocol version: a stale or
    /// mismatched peer. Unlike [`WireError::BadChecksum`], retrying is
    /// pointless — every frame from that peer will fail the same way.
    Version {
        /// The version the peer's frame declared.
        got: u32,
        /// The version this build speaks ([`VERSION`]).
        want: u32,
    },
    /// The frame checksum does not match the payload bytes.
    BadChecksum,
    /// Bytes were left over after the message was fully decoded.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "payload truncated: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::BadLength { claimed } => {
                write!(
                    f,
                    "length prefix claims {claimed} elements, buffer too small"
                )
            }
            WireError::BadFrame => write!(f, "malformed frame header"),
            WireError::Version { got, want } => {
                write!(f, "peer speaks wire protocol v{got}, this build v{want}")
            }
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Odd multiplier of [`frame_checksum`]'s step: 2⁶⁴ ÷ φ, which is odd.
const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The frame checksum, a word at a time: seeded with the payload length,
/// then `h = (h ^ w) · P` for every 8-byte little-endian word `w`, the
/// tail zero-padded to a word. For a fixed `h` each step is a bijection
/// of `w`, and for a fixed `w` a bijection of `h` (xor, then a multiply
/// by an odd constant), so any change confined to one aligned word, a
/// single-byte flip included, always changes the result. Not
/// cryptographic; it guards against corruption, not adversaries.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(CHECKSUM_MUL);
    let mut words = payload.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325 ^ payload.len() as u64;
    for w in words.by_ref() {
        h = step(h, u64::from_le_bytes(w.try_into().unwrap()));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(w));
    }
    h
}

/// Append-only payload writer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty payload.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u8`.
    pub fn u8(mut self, v: u8) -> Self {
        self.buf.push(v);
        self
    }

    /// Append a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(mut self, vs: &[u8]) -> Self {
        self = self.usize(vs.len());
        self.buf.extend_from_slice(vs);
        self
    }

    /// Append a `usize` (as `u64`).
    pub fn usize(self, v: usize) -> Self {
        self.u64(v as u64)
    }

    /// Append an `i32`.
    pub fn i32(mut self, v: i32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append `vs`, each as its `N` little-endian bytes, in one bulk
    /// loop.
    fn words<T: Copy, const N: usize>(mut self, vs: &[T], le: impl Fn(T) -> [u8; N]) -> Self {
        let at = self.buf.len();
        self.buf.resize(at + N * vs.len(), 0);
        for (out, &v) in self.buf[at..].chunks_exact_mut(N).zip(vs) {
            out.copy_from_slice(&le(v));
        }
        self
    }

    /// Append a length-prefixed `i32` slice.
    pub fn i32_slice(self, vs: &[i32]) -> Self {
        self.usize(vs.len()).words(vs, i32::to_le_bytes)
    }

    /// Append a length-prefixed `i8` slice.
    pub fn i8_slice(self, vs: &[i8]) -> Self {
        self.usize(vs.len()).words(vs, i8::to_le_bytes)
    }

    /// Append a length-prefixed `u64` slice.
    pub fn u64_slice(self, vs: &[u64]) -> Self {
        self.usize(vs.len()).words(vs, u64::to_le_bytes)
    }

    /// Append a length-prefixed list of `usize` pairs.
    pub fn pairs(mut self, ps: &[(usize, usize)]) -> Self {
        self = self.usize(ps.len());
        for &(a, b) in ps {
            self = self.usize(a).usize(b);
        }
        self
    }

    /// Finish and take the bytes (unframed).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finish as a versioned, checksummed frame:
    /// `[MAGIC: u32 LE][VERSION: u32 LE][len: u32 LE][payload]
    /// [frame_checksum(payload): u64 LE]`.
    pub fn finish_framed(self) -> Vec<u8> {
        let payload = self.buf;
        let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER + FRAME_TRAILER);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
        out
    }
}

/// Validate a [`FRAME_HEADER`]-byte frame header (magic word, protocol
/// version) and return how many bytes follow it (payload + trailer).
/// This is what a *stream* reader uses to delimit frames: read
/// [`FRAME_HEADER`] bytes, call this, read that many more, then hand
/// the whole buffer to [`Decoder::new_framed`].
pub fn frame_body_len(header: &[u8]) -> Result<usize, WireError> {
    if header.len() != FRAME_HEADER {
        return Err(WireError::BadFrame);
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadFrame);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::Version {
            got: version,
            want: VERSION,
        });
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    Ok(len + FRAME_TRAILER)
}

/// Sequential payload reader. Every read is bounds-checked: malformed
/// input yields a [`WireError`], never a panic — messages may have been
/// corrupted or truncated in flight.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Start reading an unframed `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Verify and strip a [`Encoder::finish_framed`] frame, returning a
    /// decoder positioned over the payload. Rejects short buffers, a
    /// wrong magic word, a mismatched protocol version (typed as
    /// [`WireError::Version`]), length mismatches and checksum failures.
    pub fn new_framed(buf: &'a [u8]) -> Result<Self, WireError> {
        if buf.len() < FRAME_HEADER + FRAME_TRAILER {
            return Err(WireError::BadFrame);
        }
        let body = frame_body_len(&buf[..FRAME_HEADER])?;
        if buf.len() != FRAME_HEADER + body {
            return Err(WireError::BadFrame);
        }
        let len = body - FRAME_TRAILER;
        let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
        let want = u64::from_le_bytes(buf[FRAME_HEADER + len..].try_into().unwrap());
        if frame_checksum(payload) != want {
            return Err(WireError::BadChecksum);
        }
        Ok(Decoder {
            buf: payload,
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        Ok(self.u64()? as usize)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next `n` elements of `size` bytes each, as one slice. The
    /// count is checked against the remaining bytes (by division, so
    /// `n · size` cannot overflow) before anything is allocated for it.
    fn elements(&mut self, n: usize, size: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() / size {
            return Err(WireError::BadLength { claimed: n });
        }
        self.take(n * size)
    }

    /// `n` elements of `N` little-endian bytes each: one bounds check,
    /// then one bulk loop.
    fn words<T, const N: usize>(
        &mut self,
        n: usize,
        le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let bytes = self.elements(n, N)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|w| le(w.try_into().unwrap()))
            .collect())
    }

    /// Read a length-prefixed byte vector (written by
    /// [`Encoder::bytes`]). The claimed length is validated against the
    /// remaining bytes before any allocation.
    pub fn bytes_vec(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.usize()?;
        Ok(self.elements(n, 1)?.to_vec())
    }

    /// Read `n` `i32`s with no length prefix (the caller read and
    /// validated the count), failing with [`WireError::BadLength`]
    /// before any allocation if the remaining bytes cannot hold them.
    pub fn i32s(&mut self, n: usize) -> Result<Vec<i32>, WireError> {
        self.words(n, i32::from_le_bytes)
    }

    /// Read `n` `i8`s with no length prefix, checked as in
    /// [`Decoder::i32s`].
    pub fn i8s(&mut self, n: usize) -> Result<Vec<i8>, WireError> {
        self.words(n, i8::from_le_bytes)
    }

    /// Read a length-prefixed `i32` vector. The claimed length is
    /// validated against the remaining bytes before any allocation, so
    /// a corrupted prefix cannot trigger a huge reservation.
    pub fn i32_vec(&mut self) -> Result<Vec<i32>, WireError> {
        let n = self.usize()?;
        self.i32s(n)
    }

    /// Read a length-prefixed `u64` vector (length validated as in
    /// [`Decoder::i32_vec`]).
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.usize()?;
        self.words(n, u64::from_le_bytes)
    }

    /// Read a length-prefixed list of `usize` pairs (length validated
    /// as in [`Decoder::i32_vec`]).
    pub fn pairs(&mut self) -> Result<Vec<(usize, usize)>, WireError> {
        let n = self.usize()?;
        self.words(n, |w: [u8; 16]| {
            let half = |i: usize| u64::from_le_bytes(w[i..i + 8].try_into().unwrap()) as usize;
            (half(0), half(8))
        })
    }

    /// Bytes not yet consumed: the bound a list decoder checks a
    /// claimed element count against before allocating for it.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` iff every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fail with [`WireError::TrailingBytes`] unless the payload was
    /// consumed exactly — a decoded message that leaves bytes behind
    /// parsed garbage into plausible fields.
    pub fn expect_exhausted(&self) -> Result<(), WireError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_everything() {
        let payload = Encoder::new()
            .u64(u64::MAX)
            .usize(42)
            .i32(-7)
            .i32_slice(&[1, -2, 3])
            .u64_slice(&[0, u64::MAX, 7])
            .pairs(&[(0, 9), (5, 5)])
            .finish();
        let mut d = Decoder::new(&payload);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.i32().unwrap(), -7);
        assert_eq!(d.i32_vec().unwrap(), vec![1, -2, 3]);
        assert_eq!(d.u64_vec().unwrap(), vec![0, u64::MAX, 7]);
        assert_eq!(d.pairs().unwrap(), vec![(0, 9), (5, 5)]);
        assert!(d.is_exhausted());
        assert_eq!(d.expect_exhausted(), Ok(()));
    }

    #[test]
    fn empty_collections() {
        let payload = Encoder::new().i32_slice(&[]).pairs(&[]).finish();
        let mut d = Decoder::new(&payload);
        assert!(d.i32_vec().unwrap().is_empty());
        assert!(d.pairs().unwrap().is_empty());
        assert!(d.is_exhausted());
    }

    #[test]
    fn underflow_is_an_error_not_a_panic() {
        let payload = Encoder::new().i32(1).finish();
        let mut d = Decoder::new(&payload);
        assert_eq!(
            d.u64(),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 4
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        // A prefix claiming u64::MAX elements must not reserve memory.
        let payload = Encoder::new().u64(u64::MAX).finish();
        let mut d = Decoder::new(&payload);
        assert!(matches!(d.i32_vec(), Err(WireError::BadLength { .. })));
        let mut d = Decoder::new(&payload);
        assert!(matches!(d.pairs(), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let payload = Encoder::new().i32(1).i32(2).finish();
        let mut d = Decoder::new(&payload);
        d.i32().unwrap();
        assert_eq!(d.expect_exhausted(), Err(WireError::TrailingBytes));
    }

    #[test]
    fn framed_roundtrip() {
        let framed = Encoder::new().usize(7).i32(-3).finish_framed();
        let mut d = Decoder::new_framed(&framed).unwrap();
        assert_eq!(d.usize().unwrap(), 7);
        assert_eq!(d.i32().unwrap(), -3);
        assert!(d.is_exhausted());
    }

    #[test]
    fn framed_detects_any_single_byte_flip() {
        let framed = Encoder::new()
            .usize(5)
            .i32_slice(&[1, 2, 3])
            .finish_framed();
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0xA5;
            assert!(
                Decoder::new_framed(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    /// A deterministic xorshift stream: test inputs without a dependency.
    fn noise(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Random payloads of every length 0..=40 (tails of every width
    /// included): every single-byte flip of the frame, under every xor
    /// pattern, and every aligned 8-byte burst of the payload and the
    /// trailer fails to verify.
    #[test]
    fn frame_checksum_catches_every_byte_flip_and_aligned_burst() {
        let mut rng = noise(0x9E37_79B9);
        for len in 0..=40usize {
            let payload: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
            let framed = Encoder { buf: payload }.finish_framed();
            assert!(Decoder::new_framed(&framed).is_ok());
            for i in 0..framed.len() {
                for x in 1..=255u8 {
                    let mut bad = framed.clone();
                    bad[i] ^= x;
                    assert!(
                        Decoder::new_framed(&bad).is_err(),
                        "len {len}: byte {i} ^ {x:#04x} went undetected"
                    );
                }
            }
            // Aligned words of the payload (the last one possibly short),
            // then the trailer.
            let words = (0..len).step_by(8).map(|k| (k, (k + 8).min(len)));
            for (at, end) in words.chain([(len, len + FRAME_TRAILER)]) {
                let (at, end) = (FRAME_HEADER + at, FRAME_HEADER + end);
                for _ in 0..64 {
                    let mut bad = framed.clone();
                    let burst = rng() | 1; // never all zero
                    for (b, x) in bad[at..end].iter_mut().zip(burst.to_le_bytes()) {
                        *b ^= x;
                    }
                    assert!(
                        Decoder::new_framed(&bad).is_err(),
                        "len {len}: burst {burst:#x} at {at} went undetected"
                    );
                }
            }
        }
    }

    /// The bulk row decode returns exactly what the per-element decode
    /// it replaced returned, on intact rows and on every cut of them.
    #[test]
    fn bulk_i32_vec_equals_the_per_element_decode() {
        fn per_element(d: &mut Decoder<'_>) -> Result<Vec<i32>, WireError> {
            let n = d.usize()?;
            if n > (d.buf.len() - d.pos) / 4 {
                return Err(WireError::BadLength { claimed: n });
            }
            (0..n).map(|_| d.i32()).collect()
        }
        let mut rng = noise(7);
        for len in [0usize, 1, 2, 3, 7, 8, 63, 300, 4096] {
            let row: Vec<i32> = (0..len).map(|_| rng() as i32).collect();
            let payload = Encoder::new().i32_slice(&row).i32(-1).finish();
            for cut in (0..=payload.len()).rev().step_by(1 + len / 64) {
                let bytes = &payload[..cut];
                let (mut bulk, mut old) = (Decoder::new(bytes), Decoder::new(bytes));
                assert_eq!(bulk.i32_vec(), per_element(&mut old), "len {len} cut {cut}");
                assert_eq!(bulk.remaining(), old.remaining());
            }
            assert_eq!(Decoder::new(&payload).i32_vec().unwrap(), row);
        }
    }

    /// Counts whose byte size overflows, or that the remaining bytes
    /// cannot hold, fail typed before anything is allocated for them.
    #[test]
    fn hostile_counts_fail_before_allocating() {
        type Read = fn(&mut Decoder<'_>) -> Result<usize, WireError>;
        // Each bulk read, and whether four of its elements fit in the
        // sixteen bytes behind the count.
        let reads: [(&str, bool, Read); 5] = [
            ("i32_vec", true, |d| d.i32_vec().map(|v| v.len())),
            ("u64_vec", false, |d| d.u64_vec().map(|v| v.len())),
            ("pairs", false, |d| d.pairs().map(|v| v.len())),
            ("bytes_vec", true, |d| d.bytes_vec().map(|v| v.len())),
            ("i32s", true, |d| {
                let n = d.usize()?;
                d.i32s(n).map(|v| v.len())
            }),
        ];
        for n in [usize::MAX, usize::MAX / 4 + 1, usize::MAX / 2, 1 << 40, 4] {
            let payload = [Encoder::new().usize(n).finish(), vec![0; 16]].concat();
            for (what, four_fit, read) in reads {
                let got = read(&mut Decoder::new(&payload));
                if n == 4 && four_fit {
                    assert_eq!(got, Ok(4), "{what}");
                } else {
                    assert_eq!(
                        got,
                        Err(WireError::BadLength { claimed: n }),
                        "{what}, n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn framed_rejects_truncation_and_garbage() {
        let framed = Encoder::new().u64(9).finish_framed();
        for cut in 0..framed.len() {
            assert!(Decoder::new_framed(&framed[..cut]).is_err());
        }
        let mut extended = framed.clone();
        extended.push(0xA5);
        assert_eq!(
            Decoder::new_framed(&extended).unwrap_err(),
            WireError::BadFrame
        );
        assert_eq!(Decoder::new_framed(&[]).unwrap_err(), WireError::BadFrame);
    }

    #[test]
    fn bytes_roundtrip_and_bad_length() {
        let payload = Encoder::new().bytes(b"hello").u32(77).finish();
        let mut d = Decoder::new(&payload);
        assert_eq!(d.bytes_vec().unwrap(), b"hello");
        assert_eq!(d.u32().unwrap(), 77);
        assert!(d.is_exhausted());

        let bogus = Encoder::new().u64(u64::MAX).finish();
        let mut d = Decoder::new(&bogus);
        assert!(matches!(d.bytes_vec(), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut framed = Encoder::new().u64(1).finish_framed();
        // Bump the version word (bytes 4..8) to a future protocol.
        framed[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            Decoder::new_framed(&framed).unwrap_err(),
            WireError::Version {
                got: VERSION + 1,
                want: VERSION
            }
        );
        assert_eq!(
            frame_body_len(&framed[..FRAME_HEADER]).unwrap_err(),
            WireError::Version {
                got: VERSION + 1,
                want: VERSION
            }
        );
    }

    #[test]
    fn frame_body_len_delimits_streams() {
        let framed = Encoder::new().i32_slice(&[4, 5, 6]).finish_framed();
        let body = frame_body_len(&framed[..FRAME_HEADER]).unwrap();
        assert_eq!(FRAME_HEADER + body, framed.len());

        // Wrong magic: not our stream.
        let mut alien = framed.clone();
        alien[0] ^= 0xFF;
        assert_eq!(
            frame_body_len(&alien[..FRAME_HEADER]).unwrap_err(),
            WireError::BadFrame
        );
        // Short header slice.
        assert_eq!(
            frame_body_len(&framed[..4]).unwrap_err(),
            WireError::BadFrame
        );
    }

    #[test]
    fn empty_payload_frames_fine() {
        let framed = Encoder::new().finish_framed();
        let d = Decoder::new_framed(&framed).unwrap();
        assert!(d.is_exhausted());
    }
}
