//! The point-to-point plans on the simulated machine: every algorithm
//! moves the right bytes under every protocol, in place or not; a CMA
//! rendezvous runs over the fabric between nodes; the handshakes cost
//! what §III and §VII-G say they cost; and a short rendezvous is a typed
//! error.

use kacc_collectives::execute_polled;
use kacc_collectives::pt2pt::{run_polled, Algo, Protocol};
use kacc_collectives::verify::{
    alltoall_expected, alltoall_sendbuf, contribution, diff, gather_expected, scatter_expected,
    scatter_sendbuf,
};
use kacc_collectives::Bindings;
use kacc_comm::{tagclass, CommError, RemoteToken, Tag};
use kacc_machine::{run_polled_cluster, run_polled_team, PolledComm};
use kacc_model::{ArchProfile, FabricParams};

/// Run `algo` on this rank with the caller's buffers (the own block in
/// the receive buffer when `in_place`) and return what the rank must
/// check: its data buffer (Bcast) or receive buffer, if it has one.
async fn body(
    rank: usize,
    p: usize,
    algo: Algo,
    proto: Protocol,
    count: usize,
    in_place: bool,
) -> Option<Vec<u8>> {
    let comm = &mut PolledComm::new(rank);
    let mut alloc_with = |data: &[u8]| comm.alloc_with(data).unwrap();
    let (sb, rb) = match algo {
        Algo::Bcast { root } => {
            let data = if rank == root {
                contribution(root, count)
            } else {
                vec![0; count]
            };
            (Some(alloc_with(&data)), None)
        }
        Algo::Scatter { root } | Algo::FlatScatter { root } if rank == root => {
            let rb = (!in_place).then(|| alloc_with(&vec![0; count]));
            (Some(alloc_with(&scatter_sendbuf(p, count))), rb)
        }
        Algo::Scatter { .. } | Algo::FlatScatter { .. } => {
            (None, Some(alloc_with(&vec![0; count])))
        }
        Algo::Gather { root } | Algo::FlatGather { root } if rank == root => {
            let mut all = vec![0; p * count];
            let sb = if in_place {
                all[rank * count..][..count].copy_from_slice(&contribution(rank, count));
                None
            } else {
                Some(alloc_with(&contribution(rank, count)))
            };
            (sb, Some(alloc_with(&all)))
        }
        Algo::Gather { .. } | Algo::FlatGather { .. } => {
            (Some(alloc_with(&contribution(rank, count))), None)
        }
        Algo::Allgather if in_place => {
            let mut all = vec![0; p * count];
            all[rank * count..][..count].copy_from_slice(&contribution(rank, count));
            (None, Some(alloc_with(&all)))
        }
        Algo::Allgather => (
            Some(alloc_with(&contribution(rank, count))),
            Some(alloc_with(&vec![0; p * count])),
        ),
        Algo::Alltoall if in_place => (None, Some(alloc_with(&alltoall_sendbuf(rank, p, count)))),
        Algo::Alltoall => (
            Some(alloc_with(&alltoall_sendbuf(rank, p, count))),
            Some(alloc_with(&vec![0; p * count])),
        ),
    };
    run_polled(comm, algo, proto, sb, rb, count).await.unwrap();
    let out = match algo {
        Algo::Bcast { .. } => sb,
        _ => rb,
    };
    out.map(|b| comm.read_all(b).unwrap())
}

/// What rank `r`'s checked buffer must hold.
fn expected(algo: Algo, p: usize, r: usize, count: usize) -> Vec<u8> {
    match algo {
        Algo::Bcast { root } => contribution(root, count),
        Algo::Scatter { .. } | Algo::FlatScatter { .. } => scatter_expected(r, count),
        Algo::Gather { .. } | Algo::FlatGather { .. } | Algo::Allgather => {
            gather_expected(p, count)
        }
        Algo::Alltoall => alltoall_expected(r, p, count),
    }
}

fn algos(root: usize) -> [Algo; 7] {
    [
        Algo::Bcast { root },
        Algo::Scatter { root },
        Algo::Gather { root },
        Algo::FlatScatter { root },
        Algo::FlatGather { root },
        Algo::Allgather,
        Algo::Alltoall,
    ]
}

#[test]
fn every_algorithm_delivers_under_every_protocol() {
    let arch = ArchProfile::broadwell();
    let count = 1234;
    for p in [2usize, 5, 8] {
        for root in [0, p - 1] {
            for algo in algos(root) {
                for proto in [Protocol::Eager, Protocol::ShmCopy, Protocol::RendezvousCma] {
                    for in_place in [false, true] {
                        let (run, results) = run_polled_team(&arch, p, move |rank| {
                            body(rank, p, algo, proto, count, in_place)
                        });
                        let ctx = format!("{algo:?} {proto:?} p={p} in_place={in_place}");
                        assert_eq!(run.mail_pending, 0, "{ctx}: messages left behind");
                        for (r, got) in results.iter().enumerate() {
                            let Some(got) = got else { continue };
                            if let Some(d) = diff(got, &expected(algo, p, r, count)) {
                                panic!("{ctx} rank {r}: {d}");
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_cma_rendezvous_between_nodes_runs_over_the_fabric() {
    // Two nodes of three: the ring, the flat gather and the pairwise
    // exchange cross the node boundary, where both ends resolve the CMA
    // rendezvous to the network one, and stay on CMA within a node.
    let count = 50_000;
    for algo in [
        Algo::Allgather,
        Algo::FlatGather { root: 4 },
        Algo::Alltoall,
    ] {
        let (_, results) = run_polled_cluster(
            &ArchProfile::knl(),
            2,
            3,
            FabricParams::ib_edr(),
            move |rank| body(rank, 6, algo, Protocol::RendezvousCma, count, false),
        );
        for (r, got) in results.iter().enumerate() {
            let Some(got) = got else { continue };
            if let Some(d) = diff(got, &expected(algo, 6, r, count)) {
                panic!("{algo:?} rank {r}: {d}");
            }
        }
    }
}

/// One `len`-byte message from rank 0 to rank 1 of a two-node cluster
/// (rank 0's own block stays in place); returns the run's end time.
fn cross_node_ns(len: usize, proto: Protocol) -> u64 {
    let algo = Algo::FlatScatter { root: 0 };
    let fabric = FabricParams::ib_edr();
    let (run, _) = run_polled_cluster(&ArchProfile::knl(), 2, 1, fabric, move |rank| {
        body(rank, 2, algo, proto, len, true)
    });
    run.end_ns
}

#[test]
fn a_network_rendezvous_pays_a_fabric_round_trip() {
    // RTS and CTS cost at least two fabric latencies more than the push.
    let alpha = FabricParams::ib_edr().alpha_ns as u64;
    let len = 64 * 1024;
    let rndv = cross_node_ns(len, Protocol::RendezvousCma);
    let push = cross_node_ns(len, Protocol::ShmCopy);
    assert!(
        rndv >= push + 2 * alpha,
        "rendezvous {rndv} vs push {push} (alpha {alpha})"
    );
}

#[test]
fn a_cma_rendezvous_costs_more_than_a_native_read() {
    // Fig 9's CMA-pt2pt vs CMA-coll: the RTS and FIN make one message
    // slower than a bare read of the same size behind a token.
    let arch = ArchProfile::knl();
    let len = 256 * 1024;
    let algo = Algo::FlatScatter { root: 0 };
    let (pt2pt, _) = run_polled_team(&arch, 2, move |rank| {
        body(rank, 2, algo, Protocol::RendezvousCma, len, true)
    });
    let (native, _) = run_polled_team(&arch, 2, move |rank| async move {
        let mut comm = PolledComm::new(rank);
        if rank == 0 {
            let sb = comm.alloc(2 * len);
            let tok = comm.expose(sb).await.unwrap();
            comm.ctrl_send(1, Tag::user(1), &tok.to_bytes())
                .await
                .unwrap();
            comm.wait_notify(1, Tag::user(2)).await.unwrap();
        } else {
            let raw = comm.ctrl_recv(0, Tag::user(1)).await.unwrap();
            let tok = RemoteToken::from_bytes(&raw).unwrap();
            let rb = comm.alloc(len);
            comm.cma_read(tok, len, rb, 0, len).await.unwrap();
            comm.notify(0, Tag::user(2)).await.unwrap();
        }
    });
    assert!(
        pt2pt.end_ns > native.end_ns,
        "rendezvous {} should exceed native {}",
        pt2pt.end_ns,
        native.end_ns
    );
}

#[test]
fn a_short_rendezvous_is_a_typed_truncation() {
    // Rank 0's plan offers 64 bytes, rank 1's expects 128.
    let (_, results) = run_polled_team(&ArchProfile::broadwell(), 2, |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let count = if rank == 0 { 64 } else { 128 };
        let plan = Algo::FlatScatter { root: 0 }.compile(
            2,
            rank,
            &|_| 0,
            count,
            Protocol::RendezvousCma,
            rank == 0,
        );
        let bind = Bindings {
            send: (rank == 0).then(|| comm.alloc(2 * count)),
            recv: (rank == 1).then(|| comm.alloc(count)),
        };
        let r = execute_polled(comm, &plan, &bind).await.map(drop);
        if rank == 1 {
            // Release the sender, which waits for the FIN.
            let fin = Tag::internal(tagclass::PT2PT_FIN, 26);
            comm.notify(0, fin).await.unwrap();
        }
        r
    });
    assert_eq!(results[0], Ok(()));
    assert_eq!(
        results[1],
        Err(CommError::Truncated {
            wanted: 128,
            got: 64
        })
    );
}

#[test]
fn a_missing_buffer_is_refused_before_any_traffic() {
    let (run, results) = run_polled_team(&ArchProfile::broadwell(), 4, |rank| async move {
        let comm = &mut PolledComm::new(rank);
        let algo = Algo::Gather { root: 0 };
        run_polled(comm, algo, Protocol::Eager, None, None, 64)
            .await
            .map(drop)
    });
    let refused = |msg: &str| Err(CommError::Protocol(msg.into()));
    assert_eq!(results[0], refused("root gather needs recvbuf"));
    for got in &results[1..] {
        assert_eq!(*got, refused("non-root gather needs sendbuf"));
    }
    assert_eq!(run.end_ns, 0);
}
