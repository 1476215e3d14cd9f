//! Point-to-point protocols over an [`AsyncComm`] endpoint.
//!
//! Four protocols, mirroring what production MPI libraries do:
//!
//! * **Eager** — the payload rides the small-message control plane
//!   (copied through shared-memory slots, or inlined on the wire).
//! * **ShmCopy** — the two-copy bulk path: copy into a shared staging
//!   area, post, copy out. Cross-node this maps onto the fabric as a
//!   one-sided push.
//! * **RendezvousCma** — intra-node: the sender exposes its buffer and
//!   posts an RTS control message carrying the token; the receiver
//!   issues a single-copy kernel-assisted read and answers with a FIN.
//!   This is exactly the RTS/CTS overhead the paper's native collectives
//!   avoid (§III, Fig 9).
//! * **NetRendezvous** — cross-node large-message handshake: RTS → CTS →
//!   bulk push. Every message pays a full fabric round trip before data
//!   flows, which is why flat single-level collectives degrade with
//!   process count (§VII-G, Fig 17).
//!
//! [`send`]/[`recv`]/[`sendrecv`] resolve `RendezvousCma` to
//! `NetRendezvous` automatically when the peers sit on different nodes
//! (both sides compute this locally, so they always agree).

use kacc_comm::{AsyncComm, BufId, CommError, RemoteToken, Result, Tag};

/// Point-to-point transfer protocol. Sender and receiver must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Payload inlined on the control plane.
    Eager,
    /// Two-copy staging (shared memory intra-node, fabric push across).
    ShmCopy,
    /// RTS / single-copy CMA read / FIN rendezvous (intra-node only;
    /// auto-downgrades to [`Protocol::NetRendezvous`] across nodes).
    RendezvousCma,
    /// RTS / CTS / bulk-push rendezvous over the fabric.
    NetRendezvous,
}

impl Protocol {
    /// The protocol a CMA-capable library picks for `len` bytes, given
    /// its eager/rendezvous threshold (the paper cites ≥ 16 KiB as the
    /// kernel-assisted sweet spot for pt2pt).
    pub fn for_len(len: usize, rndv_threshold: usize) -> Protocol {
        if len < rndv_threshold {
            Protocol::Eager
        } else {
            Protocol::RendezvousCma
        }
    }
}

/// Reserved tag classes for pt2pt framing.
const CLASS_DATA: u32 = 48;
const CLASS_RTS: u32 = 49;
const CLASS_FIN: u32 = 50;
const CLASS_CTS: u32 = 51;

fn data_tag(user: u16) -> Tag {
    Tag::internal(CLASS_DATA, user as u32)
}
fn rts_tag(user: u16) -> Tag {
    Tag::internal(CLASS_RTS, user as u32)
}
fn fin_tag(user: u16) -> Tag {
    Tag::internal(CLASS_FIN, user as u32)
}
fn cts_tag(user: u16) -> Tag {
    Tag::internal(CLASS_CTS, user as u32)
}

/// Kernel-assisted copies cannot cross node boundaries; both ends of a
/// cross-node CMA rendezvous deterministically resolve to the network
/// rendezvous instead.
fn effective<C: AsyncComm>(comm: &C, peer: usize, proto: Protocol) -> Protocol {
    if proto == Protocol::RendezvousCma && comm.node_of(peer) != comm.node_of(comm.rank()) {
        Protocol::NetRendezvous
    } else {
        proto
    }
}

// The send path is split into phases so `sendrecv` can interleave its
// two directions without deadlocking:
//   post     — non-blocking announcement / payload push
//   complete — blocking part of the send (wait CTS/FIN, push data)
// and the receive path into:
//   serve    — react to the peer's announcement (read + FIN, or CTS)
//   finish   — collect the data

async fn post_send<C: AsyncComm>(
    comm: &mut C,
    to: usize,
    tag: u16,
    buf: BufId,
    off: usize,
    len: usize,
    proto: Protocol,
) -> Result<()> {
    match proto {
        Protocol::Eager => {
            let mut payload = vec![0u8; len];
            comm.read_local(buf, off, &mut payload)?;
            comm.ctrl_send(to, data_tag(tag), &payload).await
        }
        Protocol::ShmCopy => comm.shm_send_data(to, data_tag(tag), buf, off, len).await,
        Protocol::RendezvousCma => {
            let token = comm.expose(buf).await?;
            let mut rts = token.to_bytes().to_vec();
            rts.extend_from_slice(&(off as u64).to_le_bytes());
            rts.extend_from_slice(&(len as u64).to_le_bytes());
            comm.ctrl_send(to, rts_tag(tag), &rts).await
        }
        Protocol::NetRendezvous => {
            comm.ctrl_send(to, rts_tag(tag), &(len as u64).to_le_bytes())
                .await
        }
    }
}

async fn complete_send<C: AsyncComm>(
    comm: &mut C,
    to: usize,
    tag: u16,
    buf: BufId,
    off: usize,
    len: usize,
    proto: Protocol,
) -> Result<()> {
    match proto {
        Protocol::Eager | Protocol::ShmCopy => Ok(()),
        Protocol::RendezvousCma => {
            let fin = comm.ctrl_recv(to, fin_tag(tag)).await?;
            if fin.is_empty() {
                Ok(())
            } else {
                Err(CommError::Protocol("unexpected FIN payload".into()))
            }
        }
        Protocol::NetRendezvous => {
            let cts = comm.ctrl_recv(to, cts_tag(tag)).await?;
            if !cts.is_empty() {
                return Err(CommError::Protocol("unexpected CTS payload".into()));
            }
            comm.shm_send_data(to, data_tag(tag), buf, off, len).await
        }
    }
}

async fn serve_recv<C: AsyncComm>(
    comm: &mut C,
    from: usize,
    tag: u16,
    buf: BufId,
    off: usize,
    len: usize,
    proto: Protocol,
) -> Result<()> {
    match proto {
        Protocol::Eager | Protocol::ShmCopy => Ok(()),
        Protocol::RendezvousCma => {
            let rts = comm.ctrl_recv(from, rts_tag(tag)).await?;
            let (token, roff, rlen) = parse_rts(&rts)?;
            if rlen != len {
                return Err(CommError::Truncated {
                    wanted: len,
                    got: rlen,
                });
            }
            comm.cma_read(token, roff, buf, off, len).await?;
            comm.ctrl_send(from, fin_tag(tag), &[]).await
        }
        Protocol::NetRendezvous => {
            let rts = comm.ctrl_recv(from, rts_tag(tag)).await?;
            if rts.len() != 8 {
                return Err(CommError::Protocol("bad network RTS".into()));
            }
            let rlen = u64::from_le_bytes(rts.try_into().expect("length checked above")) as usize;
            if rlen != len {
                return Err(CommError::Truncated {
                    wanted: len,
                    got: rlen,
                });
            }
            comm.ctrl_send(from, cts_tag(tag), &[]).await
        }
    }
}

async fn finish_recv<C: AsyncComm>(
    comm: &mut C,
    from: usize,
    tag: u16,
    buf: BufId,
    off: usize,
    len: usize,
    proto: Protocol,
) -> Result<()> {
    match proto {
        Protocol::Eager => {
            let payload = comm.ctrl_recv(from, data_tag(tag)).await?;
            if payload.len() != len {
                return Err(CommError::Truncated {
                    wanted: len,
                    got: payload.len(),
                });
            }
            comm.write_local(buf, off, &payload)
        }
        Protocol::ShmCopy | Protocol::NetRendezvous => {
            comm.shm_recv_data(from, data_tag(tag), buf, off, len).await
        }
        Protocol::RendezvousCma => Ok(()),
    }
}

/// Send `len` bytes from `buf[off..]` to rank `to`.
pub async fn send<C: AsyncComm>(
    comm: &mut C,
    to: usize,
    tag: u16,
    buf: BufId,
    off: usize,
    len: usize,
    proto: Protocol,
) -> Result<()> {
    let proto = effective(comm, to, proto);
    post_send(comm, to, tag, buf, off, len, proto).await?;
    complete_send(comm, to, tag, buf, off, len, proto).await
}

/// Receive `len` bytes into `buf[off..]` from rank `from`.
pub async fn recv<C: AsyncComm>(
    comm: &mut C,
    from: usize,
    tag: u16,
    buf: BufId,
    off: usize,
    len: usize,
    proto: Protocol,
) -> Result<()> {
    let proto = effective(comm, from, proto);
    serve_recv(comm, from, tag, buf, off, len, proto).await?;
    finish_recv(comm, from, tag, buf, off, len, proto).await
}

/// Deadlock-free combined send+receive (the engine of exchange
/// patterns). Phases are ordered so that every blocking wait depends
/// only on a phase its peer has already executed, which makes arbitrary
/// cycles of `sendrecv` safe for every protocol mix.
#[allow(clippy::too_many_arguments)]
pub async fn sendrecv<C: AsyncComm>(
    comm: &mut C,
    to: usize,
    sbuf: BufId,
    soff: usize,
    slen: usize,
    from: usize,
    rbuf: BufId,
    roff: usize,
    rlen: usize,
    tag: u16,
    proto: Protocol,
) -> Result<()> {
    let sproto = effective(comm, to, proto);
    let rproto = effective(comm, from, proto);
    post_send(comm, to, tag, sbuf, soff, slen, sproto).await?;
    serve_recv(comm, from, tag, rbuf, roff, rlen, rproto).await?;
    complete_send(comm, to, tag, sbuf, soff, slen, sproto).await?;
    finish_recv(comm, from, tag, rbuf, roff, rlen, rproto).await
}

fn parse_rts(rts: &[u8]) -> Result<(RemoteToken, usize, usize)> {
    if rts.len() != RemoteToken::WIRE_LEN + 16 {
        return Err(CommError::Protocol(format!("bad RTS length {}", rts.len())));
    }
    let token = RemoteToken::from_bytes(rts).ok_or(CommError::Protocol("bad RTS token".into()))?;
    let off = u64::from_le_bytes(rts[16..24].try_into().expect("length checked above")) as usize;
    let len = u64::from_le_bytes(rts[24..32].try_into().expect("length checked above")) as usize;
    Ok((token, off, len))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use kacc_machine::{run_polled_cluster, run_polled_team, PolledComm};
    use kacc_model::{ArchProfile, FabricParams};

    fn ping(proto: Protocol, len: usize) {
        let (_, results) = run_polled_team(&ArchProfile::broadwell(), 2, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 0 {
                let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let sb = comm.alloc_with(&data).unwrap();
                send(comm, 1, 3, sb, 0, len, proto).await.unwrap();
                Vec::new()
            } else {
                let rb = comm.alloc(len);
                recv(comm, 0, 3, rb, 0, len, proto).await.unwrap();
                comm.read_all(rb).unwrap()
            }
        });
        let expect: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        assert_eq!(results[1], expect, "{proto:?} corrupted data");
    }

    #[test]
    fn all_protocols_deliver() {
        for proto in [Protocol::Eager, Protocol::ShmCopy, Protocol::RendezvousCma] {
            ping(proto, 1);
            ping(proto, 4096);
            ping(proto, 100_000);
        }
    }

    #[test]
    fn rendezvous_downgrades_across_nodes() {
        // A CMA rendezvous between nodes must silently become a network
        // rendezvous and still deliver.
        let (_, results) = run_polled_cluster(
            &ArchProfile::knl(),
            2,
            2,
            FabricParams::ib_edr(),
            |rank| async move {
                let comm = &mut PolledComm::new(rank);
                if rank == 0 {
                    let sb = comm.alloc_with(&[0x5A; 70_000]).unwrap();
                    send(comm, 3, 1, sb, 0, 70_000, Protocol::RendezvousCma)
                        .await
                        .unwrap();
                    Vec::new()
                } else if rank == 3 {
                    let rb = comm.alloc(70_000);
                    recv(comm, 0, 1, rb, 0, 70_000, Protocol::RendezvousCma)
                        .await
                        .unwrap();
                    comm.read_all(rb).unwrap()
                } else {
                    Vec::new()
                }
            },
        );
        assert_eq!(results[3], vec![0x5A; 70_000]);
    }

    /// One `len`-byte message from rank 0 to rank 1 of a two-node
    /// cluster; returns the run's end time.
    fn cross_node_ns(fabric: FabricParams, len: usize, proto: Protocol) -> u64 {
        let (run, _) =
            run_polled_cluster(&ArchProfile::knl(), 2, 1, fabric, move |rank| async move {
                let comm = &mut PolledComm::new(rank);
                let buf = comm.alloc(len);
                if rank == 0 {
                    send(comm, 1, 0, buf, 0, len, proto).await.unwrap();
                } else {
                    recv(comm, 0, 0, buf, 0, len, proto).await.unwrap();
                }
            });
        run.end_ns
    }

    #[test]
    fn net_rendezvous_pays_fabric_round_trip() {
        // The cross-node handshake must cost at least 3 fabric
        // latencies (RTS + CTS + data) more than a raw push.
        let fabric = FabricParams::ib_edr();
        let alpha = fabric.alpha_ns as u64;
        let len = 64 * 1024;
        let rndv = cross_node_ns(fabric.clone(), len, Protocol::RendezvousCma);
        let push = cross_node_ns(fabric, len, Protocol::ShmCopy);
        assert!(
            rndv >= push + 2 * alpha,
            "rendezvous {rndv} vs push {push} (alpha {alpha})"
        );
    }

    #[test]
    fn rendezvous_costs_more_control_than_native_read() {
        // The RTS/CTS pair should show up as extra latency relative to a
        // bare cma_read of the same size (Fig 9's CMA-pt2pt vs CMA-coll).
        let arch = ArchProfile::knl();
        let len = 256 * 1024;
        let (pt2pt_run, _) = run_polled_team(&arch, 2, move |rank| async move {
            let comm = &mut PolledComm::new(rank);
            let buf = comm.alloc(len);
            if rank == 0 {
                send(comm, 1, 0, buf, 0, len, Protocol::RendezvousCma)
                    .await
                    .unwrap();
            } else {
                recv(comm, 0, 0, buf, 0, len, Protocol::RendezvousCma)
                    .await
                    .unwrap();
            }
        });
        let (native_run, _) = run_polled_team(&arch, 2, move |rank| async move {
            let mut comm = PolledComm::new(rank);
            if rank == 0 {
                let sb = comm.alloc(len);
                let tok = comm.expose(sb).await.unwrap();
                comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())
                    .await
                    .unwrap();
                comm.wait_notify(1, Tag::user(2)).await.unwrap();
            } else {
                let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
                let tok = RemoteToken::from_bytes(&raw).unwrap();
                let rb = comm.alloc(len);
                comm.cma_read(tok, 0, rb, 0, len).await.unwrap();
                comm.notify(0, Tag::user(2)).await.unwrap();
            }
        });
        assert!(
            pt2pt_run.end_ns > native_run.end_ns,
            "rendezvous {} should exceed native {}",
            pt2pt_run.end_ns,
            native_run.end_ns
        );
    }

    /// Every rank sends right and receives from left; returns the first
    /// received byte per rank.
    async fn ring_exchange(rank: usize, p: usize, len: usize, proto: Protocol) -> u8 {
        let comm = &mut PolledComm::new(rank);
        let sb = comm.alloc_with(&vec![rank as u8; len]).unwrap();
        let rb = comm.alloc(len);
        let (right, left) = ((rank + 1) % p, (rank + p - 1) % p);
        sendrecv(comm, right, sb, 0, len, left, rb, 0, len, 9, proto)
            .await
            .unwrap();
        comm.read_all(rb).unwrap()[0]
    }

    #[test]
    fn sendrecv_cycles_do_not_deadlock() {
        // A full exchange ring, all protocols.
        for proto in [Protocol::Eager, Protocol::ShmCopy, Protocol::RendezvousCma] {
            let p = 6;
            let (_, results) = run_polled_team(&ArchProfile::broadwell(), p, move |rank| {
                ring_exchange(rank, p, 2048, proto)
            });
            for (me, got) in results.iter().enumerate() {
                assert_eq!(*got as usize, (me + p - 1) % p, "{proto:?}");
            }
        }
    }

    #[test]
    fn sendrecv_cycles_do_not_deadlock_across_nodes() {
        // Exchange ring spanning two nodes: some directions resolve to
        // network rendezvous, some to intra-node CMA.
        let p = 6;
        let (_, results) = run_polled_cluster(
            &ArchProfile::knl(),
            2,
            3,
            FabricParams::ib_edr(),
            move |rank| ring_exchange(rank, p, 50_000, Protocol::RendezvousCma),
        );
        for (me, got) in results.iter().enumerate() {
            assert_eq!(*got as usize, (me + p - 1) % p);
        }
    }

    #[test]
    fn protocol_threshold_selection() {
        assert_eq!(Protocol::for_len(1024, 16384), Protocol::Eager);
        assert_eq!(Protocol::for_len(16384, 16384), Protocol::RendezvousCma);
    }

    #[test]
    fn truncated_rendezvous_is_detected() {
        let (_, results) = run_polled_team(&ArchProfile::broadwell(), 2, |rank| async move {
            let comm = &mut PolledComm::new(rank);
            if rank == 0 {
                let sb = comm.alloc(64);
                send(comm, 1, 0, sb, 0, 64, Protocol::RendezvousCma)
                    .await
                    .is_ok()
            } else {
                let rb = comm.alloc(128);
                // Expecting 128 bytes but the sender offers 64.
                let r = recv(comm, 0, 0, rb, 0, 128, Protocol::RendezvousCma).await;
                // Release the sender (it blocks on FIN) before checking.
                comm.ctrl_send(0, fin_tag(0), &[]).await.unwrap();
                matches!(
                    r,
                    Err(CommError::Truncated {
                        wanted: 128,
                        got: 64
                    })
                )
            }
        });
        assert!(results[1], "receiver must detect truncation");
    }
}
