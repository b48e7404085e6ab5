//! Collective operations over a [`Comm`].
//!
//! The paper's engine needs exactly one collective — the master's
//! acceptance broadcast, [`broadcast_from`] — and this module holds only
//! that one.

use crate::Comm;

/// Send `payload` with `tag` from this rank to every *other* rank.
/// Returns the number of ranks the message was handed to — dead peers
/// are skipped, so a caller tracking liveness can compare against
/// `size() - 1`.
pub fn broadcast_from<C: Comm>(comm: &C, tag: u32, payload: &[u8]) -> usize {
    let mut delivered = 0;
    for rank in 0..comm.size() {
        if rank != comm.rank() && comm.send(rank, tag, payload.to_vec()).is_ok() {
            delivered += 1;
        }
    }
    delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ThreadComm;
    use std::time::Duration;

    const DL: Duration = Duration::from_secs(10);

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let world = ThreadComm::world(4);
        broadcast_from(&world[1], 9, b"hi");
        for (i, c) in world.iter().enumerate() {
            if i == 1 {
                assert!(c.try_recv().is_none());
            } else {
                let m = c.recv_timeout(DL).unwrap();
                assert_eq!((m.from, m.tag, m.payload.as_slice()), (1, 9, &b"hi"[..]));
            }
        }
    }
}
