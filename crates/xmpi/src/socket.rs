//! The multi-process backend: real TCP sockets behind the same [`Comm`]
//! interface the thread simulator implements, so the distributed engine
//! in `repro-cluster` runs unchanged over either.
//!
//! Topology is a star, matching the engine's actual traffic: rank 0 is
//! the master holding a [`SocketHub`]; every worker process holds a
//! [`SocketPeer`] connected to it. Workers never talk to each other
//! (the protocol has no worker↔worker messages), so a peer's `send` to
//! a non-zero rank fails typed instead of pretending.
//!
//! Every TCP message is one [`crate::wire`] frame (magic, version,
//! length, payload, checksum) whose payload is a small envelope:
//! `[tag: u32][from: u64][payload bytes]`. Because the framing is the
//! same bytes the simulator's codecs produce, a frame captured on one
//! backend replays on the other, and a peer built from a different
//! protocol version fails its very first frame with a typed
//! [`WireError::Version`].
//!
//! **Who reads a socket.** Every reader cuts its byte stream into frames
//! through one parser (`FrameBuf`): bytes read off the socket wait in a
//! persistent buffer until a whole frame is in. The hub runs one reader
//! thread per admitted peer feeding a single inbox, because std offers no
//! `poll` over many sockets. A [`SocketPeer`] has one socket and no
//! reader thread: [`Comm::recv_timeout`] reads it on the calling thread,
//! so a message from the master wakes exactly one thread, and a frame cut
//! short by the timeout stays buffered until the next call completes it.
//! The [`FaultProxy`] relays through the same parser.
//!
//! **Elastic membership** is native here: the hub's acceptor thread
//! admits connections at any time, assigns the next free rank, and
//! replays the stored *greeting* frames (the job description) so a
//! late joiner learns what everyone else was told at startup. `size()`
//! grows as workers join; a worker that disconnects is marked dead and
//! subsequent sends to it fail with [`SendError::PeerDead`] — exactly
//! the signal the recovery loop turns into reassignment.
//!
//! Failure semantics mirror the thread backend deliberately:
//!
//! * a frame whose checksum fails is *dropped at the transport* (and
//!   counted) — to the engine it looks like message loss, which the
//!   retry layer heals;
//! * a torn connection makes the peer dead: the hub's sends fail typed,
//!   the worker's receives report [`RecvError::Disconnected`];
//! * the hub itself never reports `Disconnected` — a master with zero
//!   workers sees timeouts, the same "silence" it sees from a slow
//!   simulator world, and degrades through its own recovery policy.
//!
//! [`FaultProxy`] is the chaos apparatus for this backend: a
//! frame-aware TCP relay placed between workers and the hub that drops,
//! duplicates, delays and corrupts whole frames and severs connections,
//! keyed by deterministic per-direction frame counters like the
//! simulator's [`crate::thread::FaultPlan`].

use crate::chan::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::wire::{frame_body_len, Decoder, Encoder, WireError, FRAME_HEADER, FRAME_TRAILER};
use crate::{Comm, Message, Rank, RecvError, SendError};
use parking_lot::{Condvar, Mutex};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved envelope tag: a worker's first frame, requesting admission.
const CTRL_HELLO: u32 = 0xFFFF_FF01;
/// Reserved envelope tag: the hub's reply carrying the assigned rank.
const CTRL_WELCOME: u32 = 0xFFFF_FF02;

/// Deadline for the connect/handshake exchange.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Encode one transport message as a framed envelope:
/// `frame([tag: u32][from: u64][payload])`.
pub fn envelope(tag: u32, from: Rank, payload: &[u8]) -> Vec<u8> {
    Encoder::new()
        .u32(tag)
        .usize(from)
        .bytes(payload)
        .finish_framed()
}

/// Free space a read is offered at least, and the buffer's first size.
const READ_ROOM: usize = 64 * 1024;

/// A byte stream cut into frames: the one frame parser of the hub's
/// reader threads, the worker's endpoint and the fault proxy. Bytes read
/// off the stream wait in one persistent buffer until their frame is
/// whole, across reads and across receive timeouts alike.
struct FrameBuf {
    buf: Vec<u8>,
    /// The bytes read and not yet taken are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf {
            buf: vec![0; READ_ROOM],
            start: 0,
            end: 0,
        }
    }

    /// Length of the frame at the front once its header is in. A header
    /// that does not validate is an error: a byte stream cannot be
    /// re-synchronised past it.
    fn front_len(&self) -> Result<Option<usize>, WireError> {
        let live = &self.buf[self.start..self.end];
        if live.len() < FRAME_HEADER {
            return Ok(None);
        }
        Ok(Some(FRAME_HEADER + frame_body_len(&live[..FRAME_HEADER])?))
    }

    /// Take the frame at the front if all of it has arrived: its range
    /// in `buf`.
    fn next(&mut self) -> Result<Option<Range<usize>>, WireError> {
        Ok(match self.front_len()? {
            Some(len) if self.end - self.start >= len => {
                self.start += len;
                Some(self.start - len..self.start)
            }
            _ => None,
        })
    }

    /// One read from `src`, into free space that holds the rest of the
    /// front frame, up to twice the bytes already waiting: a header
    /// claiming gigabytes grows the buffer only as its bytes arrive
    /// (doubling), never past `2 × received + READ_ROOM`. `Ok(0)` is end
    /// of stream.
    fn fill(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let live = self.start..self.end;
        let need = self
            .front_len()
            .ok()
            .flatten()
            .unwrap_or(0)
            .min(2 * live.len())
            .max(READ_ROOM / 2);
        if self.buf.len() - self.start < need {
            if self.buf.len() < need {
                let mut grown = vec![0; need + READ_ROOM];
                grown[..live.len()].copy_from_slice(&self.buf[live.clone()]);
                self.buf = grown;
            } else {
                self.buf.copy_within(live.clone(), 0);
            }
            (self.start, self.end) = (0, live.len());
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Block until the next whole frame. `Err(None)` is end of stream or
    /// an I/O error (a read timeout included), `Err(Some(e))` a header
    /// that does not validate.
    fn read(&mut self, src: &mut impl Read) -> Result<&mut [u8], Option<WireError>> {
        let range = loop {
            if let Some(range) = self.next()? {
                break range;
            }
            match self.fill(src) {
                Ok(0) => return Err(None),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(None),
            }
        };
        Ok(&mut self.buf[range])
    }
}

/// Verify a frame and unpack its envelope; `None` when the checksum or
/// the envelope fails (the frame is lost, the stream still usable).
fn open(frame: &[u8]) -> Option<Message> {
    let mut dec = Decoder::new_framed(frame).ok()?;
    let tag = dec.u32().ok()?;
    let from = dec.usize().ok()?;
    let payload = dec.bytes_vec().ok()?;
    Some(Message { from, tag, payload })
}

/// One frame read off a stream.
enum FrameRead {
    /// A verified envelope.
    Msg(Message),
    /// Framing was intact but the checksum (or envelope decode) failed:
    /// skip this frame, the stream itself is still usable.
    Corrupt,
    /// The stream is unusable: EOF, I/O error, bad magic, or a peer
    /// speaking a different protocol version.
    Dead(Option<WireError>),
}

/// Block until one frame has been read from `stream` through `frames`.
/// Header errors are fatal; checksum errors only cost the one frame,
/// because the length came from a header that validated.
fn read_frame(frames: &mut FrameBuf, stream: &mut TcpStream) -> FrameRead {
    match frames.read(stream) {
        Ok(frame) => open(frame).map_or(FrameRead::Corrupt, FrameRead::Msg),
        Err(e) => FrameRead::Dead(e),
    }
}

/// Write one pre-framed buffer to a stream.
fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)
}

/// One admitted worker connection, hub side.
struct PeerSlot {
    /// Write half (the reader thread owns its own clone).
    stream: Mutex<TcpStream>,
    alive: Arc<AtomicBool>,
}

/// State shared between the hub handle, its acceptor and its readers.
struct HubInner {
    /// Admitted peers; index `i` is rank `i + 1`. Slots are never
    /// removed — a dead worker's rank stays dead (ranks are identities,
    /// not connection slots).
    peers: Mutex<Vec<Arc<PeerSlot>>>,
    /// Signalled whenever `peers` grows.
    admitted: Condvar,
    /// Frames every joiner receives right after WELCOME (the job
    /// description), so a late joiner learns what early workers were
    /// told at startup.
    greetings: Mutex<Vec<Vec<u8>>>,
    /// Inbound queue feeding the hub's `recv_timeout`.
    tx: Sender<Message>,
    /// Set when the hub handle drops; the acceptor exits.
    closed: Arc<AtomicBool>,
    /// Peers rejected for a wire-protocol version mismatch.
    version_rejects: AtomicU64,
    /// Frames dropped at the transport for failing their checksum.
    corrupt_drops: AtomicU64,
}

/// Master-side endpoint of the socket backend: rank 0 of a star of
/// worker processes. Workers join (and leave) at any time; see the
/// module docs for the handshake and failure semantics.
pub struct SocketHub {
    inner: Arc<HubInner>,
    rx: Receiver<Message>,
    addr: SocketAddr,
}

impl SocketHub {
    /// Bind a hub on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) and start accepting workers.
    pub fn bind(addr: &str) -> std::io::Result<SocketHub> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let inner = Arc::new(HubInner {
            peers: Mutex::new(Vec::new()),
            admitted: Condvar::new(),
            greetings: Mutex::new(Vec::new()),
            tx,
            closed: Arc::new(AtomicBool::new(false)),
            version_rejects: AtomicU64::new(0),
            corrupt_drops: AtomicU64::new(0),
        });
        let acceptor = Arc::clone(&inner);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if acceptor.closed.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let inner = Arc::clone(&acceptor);
                // Handshakes run off the acceptor thread: a slow (or
                // chaos-delayed) HELLO must not block other joiners.
                std::thread::spawn(move || admit(inner, stream));
            }
        });
        Ok(SocketHub {
            inner,
            rx,
            addr: local,
        })
    }

    /// The address workers (or a fault proxy) should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Store a frame-payload to be sent (with `tag`, from rank 0) to
    /// every worker right after its WELCOME — including workers that
    /// join later. Call before spawning workers.
    pub fn add_greeting(&self, tag: u32, payload: &[u8]) {
        self.inner.greetings.lock().push(envelope(tag, 0, payload));
    }

    /// Number of workers currently admitted and not yet dead.
    pub fn live_workers(&self) -> usize {
        self.inner
            .peers
            .lock()
            .iter()
            .filter(|p| p.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Block until at least `n` workers have been admitted (alive or
    /// not), or `timeout` passes. Returns the admitted count.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut peers = self.inner.peers.lock();
        while peers.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.inner.admitted.wait_for(&mut peers, left);
        }
        peers.len()
    }

    /// Test hook: tear down the connection to `rank` as if its process
    /// vanished.
    pub fn sever(&self, rank: Rank) {
        let peers = self.inner.peers.lock();
        if let Some(slot) = rank.checked_sub(1).and_then(|i| peers.get(i)) {
            slot.alive.store(false, Ordering::SeqCst);
            let _ = slot.stream.lock().shutdown(Shutdown::Both);
        }
    }

    /// Workers rejected because they spoke a different wire-protocol
    /// version.
    pub fn version_rejects(&self) -> u64 {
        self.inner.version_rejects.load(Ordering::SeqCst)
    }

    /// Frames dropped at the transport because their checksum failed
    /// (the socket analogue of the simulator's corruption counter).
    pub fn corrupt_drops(&self) -> u64 {
        self.inner.corrupt_drops.load(Ordering::SeqCst)
    }
}

impl Drop for SocketHub {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the acceptor thread exits.
        let _ = TcpStream::connect(self.addr);
        for peer in self.inner.peers.lock().iter() {
            let _ = peer.stream.lock().shutdown(Shutdown::Both);
        }
    }
}

/// Handshake one inbound connection and, on success, register it as the
/// next rank and start its reader thread.
fn admit(inner: Arc<HubInner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let mut frames = FrameBuf::new();
    match read_frame(&mut frames, &mut stream) {
        FrameRead::Msg(Message {
            tag: CTRL_HELLO, ..
        }) => {}
        FrameRead::Dead(Some(WireError::Version { .. })) => {
            inner.version_rejects.fetch_add(1, Ordering::SeqCst);
            return;
        }
        _ => return, // not a worker of ours
    }
    let _ = stream.set_read_timeout(None);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let alive = Arc::new(AtomicBool::new(true));
    let slot = Arc::new(PeerSlot {
        stream: Mutex::new(write_half),
        alive: Arc::clone(&alive),
    });
    // Rank assignment and the WELCOME + greeting replay happen under
    // the peers lock so two simultaneous joiners cannot race a rank or
    // observe a half-updated greeting list.
    let rank;
    {
        let mut peers = inner.peers.lock();
        rank = peers.len() + 1;
        peers.push(Arc::clone(&slot));
        inner.admitted.notify_all();
        let welcome = envelope(CTRL_WELCOME, 0, &Encoder::new().usize(rank).finish());
        let mut w = slot.stream.lock();
        if write_frame(&mut w, &welcome).is_err() {
            alive.store(false, Ordering::SeqCst);
            return;
        }
        for greeting in inner.greetings.lock().iter() {
            if write_frame(&mut w, greeting).is_err() {
                alive.store(false, Ordering::SeqCst);
                return;
            }
        }
    }
    let tx = inner.tx.clone();
    let counters = Arc::clone(&inner);
    std::thread::spawn(move || loop {
        match read_frame(&mut frames, &mut stream) {
            FrameRead::Msg(msg) => {
                // The connection's rank is authoritative for `from`:
                // a worker cannot impersonate another rank.
                let _ = tx.send(Message { from: rank, ..msg });
            }
            FrameRead::Corrupt => {
                counters.corrupt_drops.fetch_add(1, Ordering::SeqCst);
            }
            FrameRead::Dead(_) => {
                alive.store(false, Ordering::SeqCst);
                return;
            }
        }
    });
}

impl Comm for SocketHub {
    fn rank(&self) -> Rank {
        0
    }

    fn size(&self) -> usize {
        1 + self.inner.peers.lock().len()
    }

    fn send(&self, to: Rank, tag: u32, payload: Vec<u8>) -> Result<(), SendError> {
        if to == 0 {
            // Self-send: straight into the inbound queue.
            let _ = self.inner.tx.send(Message {
                from: 0,
                tag,
                payload,
            });
            return Ok(());
        }
        let slot = {
            let peers = self.inner.peers.lock();
            match peers.get(to - 1) {
                Some(s) => Arc::clone(s),
                None => return Err(SendError::PeerDead(to)),
            }
        };
        if !slot.alive.load(Ordering::SeqCst) {
            return Err(SendError::PeerDead(to));
        }
        let frame = envelope(tag, 0, &payload);
        let mut stream = slot.stream.lock();
        if write_frame(&mut stream, &frame).is_err() {
            slot.alive.store(false, Ordering::SeqCst);
            return Err(SendError::PeerDead(to));
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            // Unreachable while `inner.tx` lives, but map it anyway.
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    fn try_recv(&self) -> Option<Message> {
        self.rx.try_recv()
    }
}

/// Failure modes of [`SocketPeer::connect`].
#[derive(Debug)]
pub enum ConnectError {
    /// Socket-level failure (refused, reset, timed out).
    Io(std::io::Error),
    /// The hub's first frame did not verify — in particular
    /// [`WireError::Version`] when this build is stale relative to the
    /// master.
    Wire(WireError),
    /// The hub answered with something other than a WELCOME.
    Protocol,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Io(e) => write!(f, "socket connect failed: {e}"),
            ConnectError::Wire(e) => write!(f, "handshake frame invalid: {e}"),
            ConnectError::Protocol => write!(f, "hub did not answer with WELCOME"),
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<std::io::Error> for ConnectError {
    fn from(e: std::io::Error) -> Self {
        ConnectError::Io(e)
    }
}

/// Worker-side endpoint: one connection to the hub. Implements
/// [`Comm`] for the star topology — `send` only reaches rank 0, and
/// `size()` is only a lower bound (`rank + 1`), which is all the worker
/// loop ever needs. Receives read the socket on the calling thread.
pub struct SocketPeer {
    rank: Rank,
    /// Write half.
    stream: Mutex<TcpStream>,
    inbox: Mutex<PeerInbox>,
    corrupt_drops: AtomicU64,
}

/// The read half and the bytes read off it.
struct PeerInbox {
    stream: TcpStream,
    frames: FrameBuf,
    /// End of stream, a read error or a header that does not validate:
    /// only the frames already buffered are left to deliver.
    closed: bool,
}

impl SocketPeer {
    /// Connect to a hub at `addr`, perform the HELLO/WELCOME handshake
    /// and return the admitted endpoint. A version-skewed hub surfaces
    /// as [`ConnectError::Wire`] with [`WireError::Version`].
    pub fn connect(addr: &str) -> Result<SocketPeer, ConnectError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        write_frame(&mut stream, &envelope(CTRL_HELLO, 0, &[]))?;
        // Greetings may arrive in the WELCOME's read: they stay buffered.
        let mut frames = FrameBuf::new();
        let rank = match read_frame(&mut frames, &mut stream) {
            FrameRead::Msg(Message {
                tag: CTRL_WELCOME,
                payload,
                ..
            }) => {
                let mut dec = Decoder::new(&payload);
                dec.usize().map_err(ConnectError::Wire)?
            }
            FrameRead::Dead(Some(e)) => return Err(ConnectError::Wire(e)),
            FrameRead::Dead(None) => {
                return Err(ConnectError::Io(std::io::Error::new(
                    ErrorKind::ConnectionAborted,
                    "hub closed during handshake",
                )))
            }
            _ => return Err(ConnectError::Protocol),
        };
        let inbox = PeerInbox {
            stream: stream.try_clone()?,
            frames,
            closed: false,
        };
        Ok(SocketPeer {
            rank,
            stream: Mutex::new(stream),
            inbox: Mutex::new(inbox),
            corrupt_drops: AtomicU64::new(0),
        })
    }

    /// Frames dropped at this endpoint for failing their checksum.
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.load(Ordering::SeqCst)
    }

    /// The next message, reading the socket on this thread until
    /// `deadline`. A deadline already past still takes what has arrived,
    /// without blocking. Buffered frames go out before a closed stream
    /// reports [`RecvError::Disconnected`].
    fn recv_until(&self, deadline: Instant) -> Result<Message, RecvError> {
        let mut inbox = self.inbox.lock();
        let PeerInbox {
            stream,
            frames,
            closed,
        } = &mut *inbox;
        loop {
            match frames.next() {
                Ok(Some(range)) => match open(&frames.buf[range]) {
                    Some(msg) => return Ok(msg),
                    None => {
                        self.corrupt_drops.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                },
                Ok(None) => {}
                Err(_) => *closed = true,
            }
            if *closed {
                return Err(RecvError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let read = if left.is_zero() {
                // The non-blocking flag is shared with the write half:
                // hold its lock so no send meets it.
                let _writer = self.stream.lock();
                stream.set_nonblocking(true).and_then(|()| {
                    let read = frames.fill(stream);
                    stream.set_nonblocking(false).and(read)
                })
            } else {
                stream
                    .set_read_timeout(Some(left))
                    .and_then(|()| frames.fill(stream))
            };
            match read {
                Ok(0) => *closed = true,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(RecvError::Timeout)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => *closed = true,
            }
        }
    }
}

impl Comm for SocketPeer {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.rank + 1
    }

    fn send(&self, to: Rank, tag: u32, payload: Vec<u8>) -> Result<(), SendError> {
        if to != 0 {
            // Star topology: workers only ever address the master.
            return Err(SendError::PeerDead(to));
        }
        let frame = envelope(tag, self.rank, &payload);
        let mut stream = self.stream.lock();
        if write_frame(&mut stream, &frame).is_err() {
            return Err(SendError::PeerDead(0));
        }
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        self.recv_until(Instant::now() + timeout)
    }

    fn try_recv(&self) -> Option<Message> {
        self.recv_until(Instant::now()).ok()
    }
}

/// Deterministic socket-level fault injection, the real-transport twin
/// of [`crate::thread::FaultPlan`]: every relayed *frame* bumps a
/// per-direction counter and the counter picks the fault, so a given
/// plan reproduces the same schedule every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyFaults {
    /// Swallow every `drop_every`-th frame (0 = never).
    pub drop_every: u64,
    /// Forward every `dup_every`-th frame twice (0 = never).
    pub dup_every: u64,
    /// Stall the relay for [`ProxyFaults::delay`] before forwarding
    /// every `delay_every`-th frame (0 = never) — later frames on the
    /// same connection queue behind it, like a congested link.
    pub delay_every: u64,
    /// How long a delayed frame waits.
    pub delay: Duration,
    /// Flip one payload byte of every `corrupt_every`-th frame
    /// (0 = never). Framing stays intact; the receiver's checksum
    /// catches it and the transport drops the frame — i.e. corruption
    /// on the wire degrades to loss, which the retry layer heals.
    pub corrupt_every: u64,
    /// Cut the connection after relaying this many frames in one
    /// direction (0 = never): the mid-run process-death fault.
    pub sever_after: u64,
}

impl ProxyFaults {
    /// `true` iff the plan injects no faults at all.
    pub fn is_clean(&self) -> bool {
        self.drop_every == 0
            && self.dup_every == 0
            && self.delay_every == 0
            && self.corrupt_every == 0
            && self.sever_after == 0
    }
}

struct ProxyInner {
    target: SocketAddr,
    faults: ProxyFaults,
    closed: AtomicBool,
    /// Both ends of every relayed connection, for [`FaultProxy::sever_all`].
    conns: Mutex<Vec<TcpStream>>,
    frames: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    severed: AtomicU64,
}

/// A frame-aware TCP relay between workers and a [`SocketHub`] that
/// injects [`ProxyFaults`]. Point workers at [`FaultProxy::addr`]
/// instead of the hub.
pub struct FaultProxy {
    inner: Arc<ProxyInner>,
    addr: SocketAddr,
}

impl FaultProxy {
    /// Start a relay to `target` (the hub's address) with `faults`.
    pub fn spawn(target: SocketAddr, faults: ProxyFaults) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ProxyInner {
            target,
            faults,
            closed: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            frames: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            severed: AtomicU64::new(0),
        });
        let acceptor = Arc::clone(&inner);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if acceptor.closed.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(inbound) = conn else { continue };
                let Ok(outbound) = TcpStream::connect(acceptor.target) else {
                    let _ = inbound.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = inbound.set_nodelay(true);
                let _ = outbound.set_nodelay(true);
                {
                    let mut conns = acceptor.conns.lock();
                    if let Ok(c) = inbound.try_clone() {
                        conns.push(c);
                    }
                    if let Ok(c) = outbound.try_clone() {
                        conns.push(c);
                    }
                }
                let (Ok(in_r), Ok(out_r)) = (inbound.try_clone(), outbound.try_clone()) else {
                    continue;
                };
                let up = Arc::clone(&acceptor);
                let down = Arc::clone(&acceptor);
                std::thread::spawn(move || relay(in_r, outbound, up));
                std::thread::spawn(move || relay(out_r, inbound, down));
            }
        });
        Ok(FaultProxy { inner, addr })
    }

    /// The address workers should connect to instead of the hub.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cut every relayed connection at once: the whole-world-death
    /// fault for the socket backend.
    pub fn sever_all(&self) {
        for conn in self.inner.conns.lock().iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Total frames seen by the relay (both directions).
    pub fn frames_relayed(&self) -> u64 {
        self.inner.frames.load(Ordering::SeqCst)
    }

    /// Frames swallowed by `drop_every`.
    pub fn frames_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::SeqCst)
    }

    /// Frames forwarded twice by `dup_every`.
    pub fn frames_duplicated(&self) -> u64 {
        self.inner.duplicated.load(Ordering::SeqCst)
    }

    /// Frames with a payload byte flipped by `corrupt_every`.
    pub fn frames_corrupted(&self) -> u64 {
        self.inner.corrupted.load(Ordering::SeqCst)
    }

    /// Connections cut by `sever_after`.
    pub fn severs(&self) -> u64 {
        self.inner.severed.load(Ordering::SeqCst)
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.sever_all();
    }
}

/// Relay frames `src → dst`, applying the plan's faults keyed by this
/// direction's frame counter.
fn relay(mut src: TcpStream, mut dst: TcpStream, inner: Arc<ProxyInner>) {
    let plan = inner.faults;
    let mut n: u64 = 0;
    let mut frames = FrameBuf::new();
    // An unparseable stream ends the connection like EOF does.
    while let Ok(frame) = frames.read(&mut src) {
        n += 1;
        inner.frames.fetch_add(1, Ordering::SeqCst);
        if plan.sever_after != 0 && n > plan.sever_after {
            inner.severed.fetch_add(1, Ordering::SeqCst);
            break;
        }
        if plan.drop_every != 0 && n.is_multiple_of(plan.drop_every) {
            inner.dropped.fetch_add(1, Ordering::SeqCst);
            continue;
        }
        if plan.corrupt_every != 0 && n.is_multiple_of(plan.corrupt_every) {
            // Flip a byte in the payload (or, for an empty payload, in
            // the checksum): framing stays intact, verification fails.
            let payload_len = frame.len() - FRAME_HEADER - FRAME_TRAILER;
            let at = if payload_len > 0 {
                FRAME_HEADER + (n as usize) % payload_len
            } else {
                FRAME_HEADER // first trailer byte
            };
            frame[at] ^= 0xA5;
            inner.corrupted.fetch_add(1, Ordering::SeqCst);
        }
        if plan.delay_every != 0 && n.is_multiple_of(plan.delay_every) && !plan.delay.is_zero() {
            std::thread::sleep(plan.delay);
        }
        let copies = if plan.dup_every != 0 && n.is_multiple_of(plan.dup_every) {
            inner.duplicated.fetch_add(1, Ordering::SeqCst);
            2
        } else {
            1
        };
        for _ in 0..copies {
            if dst.write_all(frame).is_err() {
                let _ = src.shutdown(Shutdown::Both);
                return;
            }
        }
    }
    let _ = dst.shutdown(Shutdown::Both);
    let _ = src.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    fn hub() -> SocketHub {
        SocketHub::bind("127.0.0.1:0").expect("bind hub")
    }

    fn connect(hub: &SocketHub) -> SocketPeer {
        SocketPeer::connect(&hub.addr().to_string()).expect("connect peer")
    }

    const DL: Duration = Duration::from_secs(10);

    #[test]
    fn handshake_assigns_sequential_ranks() {
        let hub = hub();
        let a = connect(&hub);
        let b = connect(&hub);
        let mut ranks = [a.rank(), b.rank()];
        ranks.sort_unstable();
        assert_eq!(ranks, [1, 2]);
        assert_eq!(hub.size(), 3);
        assert_eq!(hub.live_workers(), 2);
    }

    #[test]
    fn roundtrip_both_directions() {
        let hub = hub();
        let peer = connect(&hub);
        peer.send(0, 7, vec![1, 2, 3]).unwrap();
        let m = hub.recv_timeout(DL).unwrap();
        assert_eq!((m.from, m.tag, m.payload.as_slice()), (1, 7, &[1, 2, 3][..]));
        hub.send(1, 9, vec![4, 5]).unwrap();
        let m = peer.recv_timeout(DL).unwrap();
        assert_eq!((m.from, m.tag, m.payload.as_slice()), (0, 9, &[4, 5][..]));
    }

    #[test]
    fn late_joiner_receives_greetings() {
        let hub = hub();
        hub.add_greeting(42, b"job spec");
        let early = connect(&hub);
        let m = early.recv_timeout(DL).unwrap();
        assert_eq!((m.tag, m.payload.as_slice()), (42, &b"job spec"[..]));
        // A second greeting added later only reaches future joiners.
        let late = connect(&hub);
        let m = late.recv_timeout(DL).unwrap();
        assert_eq!(m.tag, 42);
    }

    #[test]
    fn dead_worker_fails_sends_typed() {
        let hub = hub();
        let peer = connect(&hub);
        hub.sever(1);
        // The worker sees a disconnect once the queue drains.
        let deadline = Instant::now() + DL;
        let err = loop {
            match peer.recv_timeout(Duration::from_millis(200)) {
                Ok(_) | Err(RecvError::Timeout) if Instant::now() < deadline => continue,
                Ok(_) => panic!("no disconnect before deadline"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, RecvError::Disconnected);
        assert_eq!(hub.send(1, 1, vec![]), Err(SendError::PeerDead(1)));
        // An unknown rank is dead too, not a panic.
        assert_eq!(hub.send(9, 1, vec![]), Err(SendError::PeerDead(9)));
    }

    #[test]
    fn worker_to_worker_sends_are_rejected() {
        let hub = hub();
        let a = connect(&hub);
        let _b = connect(&hub);
        assert!(matches!(a.send(2, 1, vec![]), Err(SendError::PeerDead(2))));
    }

    #[test]
    fn version_skewed_peer_is_rejected_typed() {
        let hub = hub();
        // Hand-build a HELLO whose version word is from the future.
        let mut frame = envelope(CTRL_HELLO, 0, &[]);
        frame[4..8].copy_from_slice(&(wire::VERSION + 1).to_le_bytes());
        let mut s = TcpStream::connect(hub.addr()).unwrap();
        s.write_all(&frame).unwrap();
        // The hub drops the connection without admitting us.
        s.set_read_timeout(Some(DL)).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "expected EOF");
        let deadline = Instant::now() + DL;
        while hub.version_rejects() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(hub.version_rejects(), 1);
        assert_eq!(hub.size(), 1, "rejected peer must not get a rank");
    }

    #[test]
    fn corrupt_frame_is_dropped_not_fatal() {
        let hub = hub();
        let peer = connect(&hub);
        // Corrupt a payload byte of a hand-built envelope.
        let mut bad = envelope(5, 1, b"payload");
        let at = FRAME_HEADER + 2;
        bad[at] ^= 0xFF;
        {
            // Write it raw on a second connection? No — same stream:
            // sneak it through the peer's own socket.
            let mut s = peer.stream.lock();
            s.write_all(&bad).unwrap();
        }
        peer.send(0, 6, b"good".to_vec()).unwrap();
        // The corrupt frame is invisible; the good one arrives.
        let m = hub.recv_timeout(DL).unwrap();
        assert_eq!((m.tag, m.payload.as_slice()), (6, &b"good"[..]));
        assert_eq!(hub.corrupt_drops(), 1);
    }

    /// A peer admitted by a hand-driven hub: the raw hub side of the
    /// connection, for writing bytes in any pattern.
    fn raw_hub() -> (SocketPeer, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || SocketPeer::connect(&addr).unwrap());
        let (mut hub, _) = listener.accept().unwrap();
        hub.set_nodelay(true).unwrap();
        let hello = read_frame(&mut FrameBuf::new(), &mut hub);
        assert!(matches!(
            hello,
            FrameRead::Msg(Message {
                tag: CTRL_HELLO,
                ..
            })
        ));
        let welcome = envelope(CTRL_WELCOME, 0, &Encoder::new().usize(1).finish());
        hub.write_all(&welcome).unwrap();
        (peer.join().unwrap(), hub)
    }

    #[test]
    fn a_frame_written_byte_by_byte_arrives_whole_after_timeouts() {
        let (peer, mut hub) = raw_hub();
        let frame = envelope(7, 0, &(0..40).collect::<Vec<u8>>());
        let (last, head) = frame.split_last().unwrap();
        for &b in head {
            hub.write_all(&[b]).unwrap();
            // Each pause is the receive timeout itself.
            assert_eq!(
                peer.recv_timeout(Duration::from_millis(1)),
                Err(RecvError::Timeout)
            );
        }
        hub.write_all(&[*last]).unwrap();
        let m = peer.recv_timeout(DL).unwrap();
        assert_eq!((m.from, m.tag), (0, 7));
        assert_eq!(m.payload, (0..40).collect::<Vec<u8>>());
        // No desync: the next frame, written whole, follows intact.
        hub.write_all(&envelope(8, 0, b"next")).unwrap();
        let m = peer.recv_timeout(DL).unwrap();
        assert_eq!((m.tag, m.payload.as_slice()), (8, &b"next"[..]));
        assert_eq!(peer.corrupt_drops(), 0);
    }

    #[test]
    fn frames_larger_than_the_read_buffer_arrive_whole() {
        let (peer, mut hub) = raw_hub();
        let sizes = [3 * READ_ROOM, 10, READ_ROOM - 1, 2 * READ_ROOM + 7];
        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|b| (b * 31 + i) as u8).collect())
            .collect();
        let writer = std::thread::spawn(move || {
            let frames: Vec<_> = (0..)
                .zip(&payloads)
                .map(|(t, p)| envelope(t, 0, p))
                .collect();
            hub.write_all(&frames.concat()).unwrap();
            payloads
        });
        let got: Vec<Message> = (0..sizes.len())
            .map(|_| peer.recv_timeout(DL).unwrap())
            .collect();
        let payloads = writer.join().unwrap();
        for (t, (m, p)) in (0..).zip(got.iter().zip(&payloads)) {
            assert_eq!((m.tag, &m.payload), (t, p));
        }
    }

    #[test]
    fn a_corrupt_frame_is_counted_and_the_next_one_arrives() {
        let (peer, mut hub) = raw_hub();
        let mut bad = envelope(5, 0, b"payload");
        bad[FRAME_HEADER + 3] ^= 0xA5;
        hub.write_all(&[bad, envelope(6, 0, b"good")].concat())
            .unwrap();
        let m = peer.recv_timeout(DL).unwrap();
        assert_eq!((m.tag, m.payload.as_slice()), (6, &b"good"[..]));
        assert_eq!(peer.corrupt_drops(), 1);
    }

    #[test]
    fn frames_buffered_before_eof_arrive_before_disconnected() {
        let (peer, mut hub) = raw_hub();
        let cut = envelope(3, 0, b"never whole");
        let bytes = [
            envelope(1, 0, b"a"),
            envelope(2, 0, b"b"),
            cut[..9].to_vec(),
        ]
        .concat();
        hub.write_all(&bytes).unwrap();
        drop(hub);
        for tag in [1, 2] {
            assert_eq!(peer.recv_timeout(DL).unwrap().tag, tag);
        }
        assert_eq!(peer.recv_timeout(DL), Err(RecvError::Disconnected));
        assert_eq!(peer.recv_timeout(DL), Err(RecvError::Disconnected));
        assert_eq!(peer.try_recv(), None);
    }

    #[test]
    fn try_recv_never_blocks() {
        let (peer, mut hub) = raw_hub();
        let frame = envelope(4, 0, b"late");
        for bytes in [&[][..], &frame[..10]] {
            hub.write_all(bytes).unwrap();
            let t = Instant::now();
            for _ in 0..100 {
                assert_eq!(peer.try_recv(), None);
            }
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "100 probes took {:?}",
                t.elapsed()
            );
        }
        hub.write_all(&frame[10..]).unwrap();
        let deadline = Instant::now() + DL;
        let m = loop {
            if let Some(m) = peer.try_recv() {
                break m;
            }
            assert!(
                Instant::now() < deadline,
                "the completed frame never arrived"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!((m.tag, m.payload.as_slice()), (4, &b"late"[..]));
        // The descriptor is blocking again: a send and a timed receive work.
        peer.send(0, 9, vec![1; 100_000]).unwrap();
        let got = read_frame(&mut FrameBuf::new(), &mut hub);
        assert!(matches!(got, FrameRead::Msg(Message { tag: 9, .. })));
        assert_eq!(
            peer.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
    }

    #[test]
    fn proxy_drop_and_dup_schedule_is_deterministic() {
        let hub = hub();
        let proxy = FaultProxy::spawn(
            hub.addr(),
            ProxyFaults {
                drop_every: 3,
                dup_every: 4,
                ..ProxyFaults::default()
            },
        )
        .unwrap();
        let peer = SocketPeer::connect(&proxy.addr().to_string()).unwrap();
        // Frame 1 is the HELLO (relayed). Worker frames 2..=8 follow:
        // drops at 3 and 6, dup at 4 and 8.
        for i in 1..=7u32 {
            peer.send(0, i, vec![]).unwrap();
        }
        let mut got = Vec::new();
        let deadline = Instant::now() + DL;
        while got.len() < 7 && Instant::now() < deadline {
            if let Ok(m) = hub.recv_timeout(Duration::from_millis(100)) {
                got.push(m.tag);
            }
        }
        assert_eq!(got, vec![1, 3, 3, 4, 6, 7, 7]);
        assert_eq!(proxy.frames_dropped(), 2);
        assert_eq!(proxy.frames_duplicated(), 2);
    }

    #[test]
    fn proxy_corruption_degrades_to_loss() {
        let hub = hub();
        let proxy = FaultProxy::spawn(
            hub.addr(),
            ProxyFaults {
                corrupt_every: 2,
                ..ProxyFaults::default()
            },
        )
        .unwrap();
        let peer = SocketPeer::connect(&proxy.addr().to_string()).unwrap();
        // HELLO is frame 1; worker frame 2 (tag 1) is corrupted, frame
        // 3 (tag 2) passes.
        peer.send(0, 1, b"abc".to_vec()).unwrap();
        peer.send(0, 2, b"def".to_vec()).unwrap();
        let m = hub.recv_timeout(DL).unwrap();
        assert_eq!(m.tag, 2, "corrupted frame must have been dropped");
        assert_eq!(proxy.frames_corrupted(), 1);
        let deadline = Instant::now() + DL;
        while hub.corrupt_drops() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(hub.corrupt_drops(), 1);
    }

    #[test]
    fn proxy_sever_kills_the_connection() {
        let hub = hub();
        let proxy = FaultProxy::spawn(
            hub.addr(),
            ProxyFaults {
                sever_after: 2,
                ..ProxyFaults::default()
            },
        )
        .unwrap();
        let peer = SocketPeer::connect(&proxy.addr().to_string()).unwrap();
        peer.send(0, 1, vec![]).unwrap(); // frame 2: relayed
        let m = hub.recv_timeout(DL).unwrap();
        assert_eq!(m.tag, 1);
        peer.send(0, 2, vec![]).unwrap(); // frame 3: severs instead
        let deadline = Instant::now() + DL;
        let err = loop {
            match peer.recv_timeout(Duration::from_millis(200)) {
                Ok(_) | Err(RecvError::Timeout) if Instant::now() < deadline => continue,
                Ok(_) => panic!("no disconnect before deadline"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, RecvError::Disconnected);
        assert!(proxy.severs() >= 1);
    }

    /// Bytes off a stream in pieces of at most `step`, as a socket hands
    /// them over.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        given: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len() - self.given);
            out[..n].copy_from_slice(&self.bytes[self.given..self.given + n]);
            self.given += n;
            Ok(n)
        }
    }

    /// Every frame `FrameBuf` cuts from `bytes` (read `step` at a time)
    /// and how the stream ended, checking after each read that the
    /// buffer never outgrew the bytes received.
    fn cut(bytes: &[u8], step: usize) -> (Vec<Vec<u8>>, Option<WireError>) {
        let mut src = Trickle {
            bytes,
            step,
            given: 0,
        };
        let mut frames = FrameBuf::new();
        let mut got = Vec::new();
        let end = loop {
            let read = frames.read(&mut src).map(|f| f.to_vec());
            assert!(
                frames.buf.len() <= READ_ROOM + 2 * src.given,
                "{} bytes buffered for {} received",
                frames.buf.len(),
                src.given
            );
            match read {
                Ok(frame) => got.push(frame),
                Err(end) => break end,
            }
        };
        (got, end)
    }

    /// A frame the decoders accept is one our encoder sealed: it opens to
    /// an envelope that re-encodes to the same bytes.
    fn authentic(frame: &[u8]) -> bool {
        open(frame).is_some_and(|m| envelope(m.tag, m.from, &m.payload) == frame)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Sealed envelopes with the front one mutated and never
        /// re-sealed (bytes flipped, cut, extended, a hostile length
        /// word) or replaced by random bytes, through the three frame
        /// readers: a typed error or an authentic frame, never a panic,
        /// and the stream buffer holds no more than twice what arrived.
        #[test]
        fn unsealed_frames_fail_typed_and_allocate_only_what_arrived(
            payloads in proptest::collection::vec(proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..48), 1..4),
            ops in proptest::collection::vec((0u8..6, proptest::arbitrary::any::<u32>()), 0..4),
            junk in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..40),
            step in 1usize..80,
        ) {
            let mut front = envelope(0, 1, &payloads[0]);
            for &(op, arg) in &ops {
                let pick = |len: usize| arg as usize % len.max(1);
                match op {
                    0 => {
                        let i = pick(front.len());
                        if let Some(b) = front.get_mut(i) {
                            *b ^= (arg >> 8) as u8 | 1;
                        }
                    }
                    1 => front.truncate(pick(front.len() + 1)),
                    2 => front.extend(arg.to_le_bytes()),
                    3 | 4 if front.len() >= FRAME_HEADER => {
                        let was = u32::from_le_bytes(front[8..12].try_into().unwrap());
                        let len = if op == 3 { arg } else { was.wrapping_add(arg % 33).wrapping_sub(16) };
                        front[8..12].copy_from_slice(&len.to_le_bytes());
                    }
                    5 => front = junk.clone(),
                    _ => {}
                }
            }
            let mut stream = front.clone();
            for (i, p) in payloads.iter().enumerate().skip(1) {
                stream.extend(envelope(i as u32, 1, p));
            }

            // The stateless readers, on every prefix of the stream.
            for n in 0..=stream.len().min(96) {
                let head = &stream[..n];
                if let Ok(body) = frame_body_len(&head[..n.min(FRAME_HEADER)]) {
                    proptest::prop_assert!(body >= FRAME_TRAILER);
                }
                if Decoder::new_framed(head).is_ok() {
                    proptest::prop_assert!(authentic(head), "a mutated frame was accepted");
                }
            }

            // The stream parser: every frame it cuts is delimited by a
            // header that validates; its checksum decides the rest.
            let (frames, end) = cut(&stream, step);
            for frame in &frames {
                let body = frame_body_len(&frame[..FRAME_HEADER]);
                proptest::prop_assert_eq!(body, Ok(frame.len() - FRAME_HEADER));
                if open(frame).is_some() {
                    proptest::prop_assert!(authentic(frame), "a mutated frame was accepted");
                }
            }
            if ops.is_empty() {
                proptest::prop_assert_eq!(frames.len(), payloads.len());
                proptest::prop_assert_eq!(end, None);
                for (i, (frame, p)) in frames.iter().zip(&payloads).enumerate() {
                    proptest::prop_assert_eq!(frame, &envelope(i as u32, 1, p));
                }
            }
        }
    }

    /// A header claiming 4 GiB, then a few hundred KiB of junk: the
    /// buffer grows with the junk, not with the claim, and the stream
    /// ends at EOF without a frame.
    #[test]
    fn a_hostile_length_word_grows_the_buffer_only_as_bytes_arrive() {
        let mut stream = envelope(7, 1, &[]);
        stream[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        stream.extend((0..300_000u32).map(|i| i as u8));
        for step in [1 << 10, 1 << 16, 1 << 20] {
            let (frames, end) = cut(&stream, step);
            assert!(frames.is_empty());
            assert_eq!(end, None, "end of stream, not a header error");
        }
    }
}
