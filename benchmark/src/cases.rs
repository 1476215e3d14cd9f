//! One (collective, algorithm) pair and the three ways the benchmark runs
//! it: on the polled simulator, through the blocking entry points (thread
//! and forked-CMA transports), and as a survivable operation. Root is
//! always rank 0. Buffer `a` is the send side (the only buffer of a
//! bcast), `b` the receive side.

use crate::api::{
    allgather, allgather_polled, alltoall, alltoall_polled, bcast, bcast_polled, combine, gather,
    gatherv_polled, reduce, reduce_polled, scatter, scatter_polled, verify, AllgatherAlgo,
    AlltoallAlgo, BcastAlgo, BufId, Comm, CommError, Dtype, GatherAlgo, PolledComm, ReduceAlgo,
    ReduceOp, ScatterAlgo, SurvivableOp,
};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Case {
    Scatter(ScatterAlgo),
    Gather(GatherAlgo),
    Bcast(BcastAlgo),
    Allgather(AllgatherAlgo),
    Alltoall(AlltoallAlgo),
    Reduce(ReduceAlgo),
}

impl Case {
    /// `coll/algo`, the first two parts of a point's span name.
    pub fn label(self) -> String {
        let (coll, algo) = match self {
            Case::Scatter(a) => ("scatter", format!("{a:?}")),
            Case::Gather(a) => ("gather", format!("{a:?}")),
            Case::Bcast(a) => ("bcast", format!("{a:?}")),
            Case::Allgather(a) => ("allgather", format!("{a:?}")),
            Case::Alltoall(a) => ("alltoall", format!("{a:?}")),
            Case::Reduce(a) => ("reduce", format!("{a:?}")),
        };
        let algo: String = algo.chars().filter(|c| !c.is_whitespace()).collect();
        format!("{coll}/{algo}")
    }

    /// Lengths of buffers `a` and `b` on `rank` (None: not bound there).
    pub fn buf_lens(self, rank: usize, p: usize, eta: usize) -> (Option<usize>, Option<usize>) {
        let root = rank == 0;
        match self {
            Case::Scatter(_) => (root.then_some(p * eta), Some(eta)),
            Case::Gather(_) => (Some(eta), root.then_some(p * eta)),
            Case::Bcast(_) => (Some(eta), None),
            Case::Allgather(_) => (Some(eta), Some(p * eta)),
            Case::Alltoall(_) => (Some(p * eta), Some(p * eta)),
            Case::Reduce(_) => (Some(eta), root.then_some(eta)),
        }
    }

    /// Initial contents of buffer `a` on `rank`, where it is bound.
    pub fn fill_a(self, rank: usize, p: usize, eta: usize) -> Option<Vec<u8>> {
        match self {
            Case::Scatter(_) => (rank == 0).then(|| verify::scatter_sendbuf(p, eta)),
            Case::Gather(_) | Case::Allgather(_) | Case::Reduce(_) => {
                Some(verify::contribution(rank, eta))
            }
            Case::Bcast(_) => Some(if rank == 0 {
                verify::contribution(0, eta)
            } else {
                vec![0; eta]
            }),
            Case::Alltoall(_) => Some(verify::alltoall_sendbuf(rank, p, eta)),
        }
    }

    /// What `rank` must hold afterwards, in buffer `a` (`true`) or `b`.
    pub fn expected(self, rank: usize, p: usize, eta: usize) -> Option<(bool, Vec<u8>)> {
        let root = rank == 0;
        match self {
            Case::Scatter(_) => Some((false, verify::scatter_expected(rank, eta))),
            Case::Gather(_) => root.then(|| (false, verify::gather_expected(p, eta))),
            Case::Bcast(_) => Some((true, verify::contribution(0, eta))),
            Case::Allgather(_) => Some((false, verify::gather_expected(p, eta))),
            Case::Alltoall(_) => Some((false, verify::alltoall_expected(rank, p, eta))),
            Case::Reduce(_) => root.then(|| {
                let mut acc = verify::contribution(0, eta);
                for r in 1..p {
                    combine(
                        &mut acc,
                        &verify::contribution(r, eta),
                        Dtype::U64,
                        ReduceOp::Sum,
                    );
                }
                (false, acc)
            }),
        }
    }

    /// Run on the polled simulator; returns the executor's step count.
    pub async fn polled(
        self,
        comm: &mut PolledComm,
        a: Option<BufId>,
        b: Option<BufId>,
        eta: usize,
    ) -> Result<u64, CommError> {
        let need = |x: Option<BufId>| x.ok_or(CommError::Protocol("buffer not bound".into()));
        let report = match self {
            Case::Scatter(algo) => scatter_polled(comm, algo, a, b, eta, 0).await?,
            Case::Gather(algo) => {
                let counts = vec![eta; comm.size()];
                gatherv_polled(comm, algo, a, b, &counts, None, 0).await?
            }
            Case::Bcast(algo) => bcast_polled(comm, algo, need(a)?, eta, 0).await?,
            Case::Allgather(algo) => allgather_polled(comm, algo, a, need(b)?, eta).await?,
            Case::Alltoall(algo) => alltoall_polled(comm, algo, a, need(b)?, eta).await?,
            Case::Reduce(algo) => {
                reduce_polled(comm, algo, need(a)?, b, eta, Dtype::U64, ReduceOp::Sum, 0).await?
            }
        };
        Ok(report.map_or(0, |r| r.steps))
    }

    /// Run through the blocking entry points on any real transport.
    pub fn blocking<C: Comm + ?Sized>(
        self,
        comm: &mut C,
        a: Option<BufId>,
        b: Option<BufId>,
        eta: usize,
    ) -> Result<(), CommError> {
        let need = |x: Option<BufId>| x.ok_or(CommError::Protocol("buffer not bound".into()));
        match self {
            Case::Scatter(algo) => scatter(comm, algo, a, b, eta, 0),
            Case::Gather(algo) => gather(comm, algo, a, b, eta, 0),
            Case::Bcast(algo) => bcast(comm, algo, need(a)?, eta, 0),
            Case::Allgather(algo) => allgather(comm, algo, a, need(b)?, eta),
            Case::Alltoall(algo) => alltoall(comm, algo, a, need(b)?, eta),
            Case::Reduce(algo) => {
                reduce(comm, algo, need(a)?, b, eta, Dtype::U64, ReduceOp::Sum, 0)
            }
        }
    }

    /// The same pair as a survivable operation.
    pub fn survivable(self, count: usize) -> SurvivableOp {
        let root = 0;
        match self {
            Case::Scatter(algo) => SurvivableOp::Scatter { algo, count, root },
            Case::Gather(algo) => SurvivableOp::Gather { algo, count, root },
            Case::Bcast(algo) => SurvivableOp::Bcast { algo, count, root },
            Case::Allgather(algo) => SurvivableOp::Allgather { algo, count },
            Case::Alltoall(algo) => SurvivableOp::Alltoall { algo, count },
            Case::Reduce(algo) => SurvivableOp::Reduce {
                algo,
                count,
                dtype: Dtype::U64,
                op: ReduceOp::Sum,
                root,
            },
        }
    }
}
