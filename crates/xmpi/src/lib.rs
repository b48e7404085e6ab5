//! # repro-xmpi — a message-passing substrate
//!
//! The paper's third parallelisation level runs over MPI on the DAS-2
//! cluster (§4.3). No MPI runtime (or 72-node Myrinet cluster) exists
//! here, so this crate supplies the substrate the distributed engine is
//! written against:
//!
//! * [`Comm`] — the rank/send/recv interface, deliberately shaped like
//!   the subset of MPI the paper uses (blocking receive on "any source",
//!   tagged messages, one process per rank);
//! * [`thread`] — a real backend: every rank is an OS thread, messages
//!   travel over the in-process channels of [`chan`]. Functional runs
//!   and tests use this; its [`thread::FaultPlan`] injects drops,
//!   duplicates, delays, payload corruption and whole-rank crashes.
//! * [`socket`] — the multi-process backend: a TCP star of worker
//!   processes around a master hub, sharing [`wire`]'s framing with the
//!   simulator. Workers join and leave at any time, and a frame-aware
//!   [`socket::FaultProxy`] ports the chaos apparatus to real sockets.
//! * [`virtual_time`] — a deterministic discrete-event backend: ranks
//!   are actors on a virtual clock, message delivery costs latency plus
//!   size/bandwidth, and handlers charge explicit compute time. The
//!   Figure 8 cluster experiments run here, which is how a single
//!   machine reproduces 128-processor scaling curves (see DESIGN.md's
//!   substitution table).
//! * [`wire`] — a minimal byte codec for message payloads (the engines
//!   exchange task ids, scores and bottom rows; no serde needed).
//! * [`collectives`] — the one collective the engines use, the master's
//!   acceptance broadcast ([`broadcast_from`]).
//!
//! Timeouts are first-class: a blocking receive with a deadline returns
//! [`RecvError::Timeout`] instead of hanging, so an engine facing a
//! dead peer degrades into a reported error (exercised by the fault-
//! injection tests).

#![warn(missing_docs)]

pub mod chan;
pub mod collectives;
pub mod socket;
pub mod thread;
pub mod virtual_time;
pub mod wire;

pub use collectives::broadcast_from;

/// Process identifier within a world, `0 .. size`.
pub type Rank = usize;

/// A received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub from: Rank,
    /// Application-defined tag.
    pub tag: u32,
    /// Payload bytes (see [`wire`]).
    pub payload: Vec<u8>,
}

/// Receive failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived before the deadline.
    Timeout,
    /// Every peer's sending endpoint is gone: the world shut down.
    Disconnected,
}

/// Send failure modes. A send that fails this way was *not* delivered;
/// plain message loss (injected drops, network loss) stays invisible to
/// the sender, exactly like MPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination endpoint is dead (crashed or torn down).
    PeerDead(Rank),
    /// This endpoint itself has crashed; it can no longer send.
    SelfDead,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::PeerDead(rank) => write!(f, "peer rank {rank} is dead"),
            SendError::SelfDead => write!(f, "this endpoint has crashed"),
        }
    }
}

impl std::error::Error for SendError {}

/// Blanket impl so `&C` works wherever a [`Comm`] is expected.
impl<C: Comm + ?Sized> Comm for &C {
    fn rank(&self) -> Rank {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn send(&self, to: Rank, tag: u32, payload: Vec<u8>) -> Result<(), SendError> {
        (**self).send(to, tag, payload)
    }
    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Message, RecvError> {
        (**self).recv_timeout(timeout)
    }
    fn try_recv(&self) -> Option<Message> {
        (**self).try_recv()
    }
}

/// The MPI-like communication interface (blocking flavour).
pub trait Comm {
    /// This process's rank.
    fn rank(&self) -> Rank;

    /// Number of ranks in the world.
    fn size(&self) -> usize;

    /// Send `payload` to `to` with `tag`. Sends never block (buffered,
    /// like small-message MPI sends in practice). A send to a dead
    /// endpoint is reported with [`SendError`]; ordinary message loss
    /// is not (the sender cannot tell).
    fn send(&self, to: Rank, tag: u32, payload: Vec<u8>) -> Result<(), SendError>;

    /// Block until a message arrives from any source, with a deadline.
    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Message, RecvError>;

    /// Non-blocking probe-and-receive.
    fn try_recv(&self) -> Option<Message>;
}
