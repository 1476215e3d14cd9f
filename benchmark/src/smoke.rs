//! Correctness smoke, run inside set-up: every (collective, algorithm) a
//! workload times is first run at p = 8 with real buffers on the polled
//! simulator and on the thread transport, and every byte is checked with
//! `kacc_collectives::verify`. A mismatch aborts before anything is timed.

use crate::api::{
    baseline, run_polled_team, run_threads, AllgatherAlgo, AlltoallAlgo, ArchProfile, BcastAlgo,
    BufId, Coll, Comm, CommExt, GatherAlgo, Library, PolledComm, ScatterAlgo, Tuner,
};
use crate::cases::Case;
use crate::points::{Kind, Point};

const P: usize = 8;
/// Just over a page, and not a multiple of one.
const ETA: usize = 4096 + 64;

fn check(what: &str, rank: usize, case: Case, got: &[u8]) -> Result<(), String> {
    match case.expected(rank, P, ETA) {
        Some((_, want)) if want != got => Err(format!(
            "{what}: {} delivered wrong bytes to rank {rank}",
            case.label()
        )),
        _ => Ok(()),
    }
}

fn result_buf(case: Case, rank: usize, a: Option<BufId>, b: Option<BufId>) -> Option<BufId> {
    case.expected(rank, P, ETA)
        .and_then(|(in_a, _)| if in_a { a } else { b })
}

fn polled(case: Case) -> Result<(), String> {
    let (_, outs) = run_polled_team(&ArchProfile::broadwell(), P, move |rank| async move {
        let mut comm = PolledComm::new(rank);
        let (_, lb) = case.buf_lens(rank, P, ETA);
        let a = case
            .fill_a(rank, P, ETA)
            .map(|d| comm.alloc_with(&d).expect("alloc"));
        let b = lb.map(|n| comm.alloc(n));
        case.polled(&mut comm, a, b, ETA)
            .await
            .map_err(|e| e.to_string())?;
        match result_buf(case, rank, a, b) {
            Some(buf) => comm.read_all(buf).map_err(|e| e.to_string()),
            None => Ok(Vec::new()),
        }
    });
    for (rank, got) in outs.into_iter().enumerate() {
        check("polled simulator", rank, case, &got?)?;
    }
    Ok(())
}

/// Bind buffers on a blocking transport, run `f`, read the result back.
fn blocking_with<C: Comm>(
    comm: &mut C,
    case: Case,
    f: impl FnOnce(&mut C, Option<BufId>, Option<BufId>) -> Result<(), String>,
) -> Result<Vec<u8>, String> {
    let rank = comm.rank();
    let (_, lb) = case.buf_lens(rank, P, ETA);
    let a = case.fill_a(rank, P, ETA).map(|d| comm.alloc_with(&d));
    let b = lb.map(|n| comm.alloc(n));
    f(comm, a, b)?;
    match result_buf(case, rank, a, b) {
        Some(buf) => comm.read_all(buf).map_err(|e| e.to_string()),
        None => Ok(Vec::new()),
    }
}

fn threads(case: Case) -> Result<(), String> {
    let outs = run_threads(P, |comm| {
        blocking_with(comm, case, |c, a, b| {
            case.blocking(c, a, b, ETA).map_err(|e| e.to_string())
        })
    });
    for (rank, got) in outs.into_iter().enumerate() {
        check("thread transport", rank, case, &got?)?;
    }
    Ok(())
}

/// A persona picks its own algorithm; the buffers and the expected bytes
/// are those of the collective, whichever algorithm moved them.
fn persona(coll: Coll, lib: Library) -> Result<(), String> {
    let case = match coll {
        Coll::Bcast => Case::Bcast(BcastAlgo::DirectRead),
        Coll::Scatter => Case::Scatter(ScatterAlgo::ParallelRead),
        Coll::Gather => Case::Gather(GatherAlgo::ParallelWrite),
        Coll::Allgather => Case::Allgather(AllgatherAlgo::Bruck),
        Coll::Alltoall => Case::Alltoall(AlltoallAlgo::Pairwise),
    };
    let arch = ArchProfile::broadwell();
    let outs = run_threads(P, |comm| {
        let tuner = Tuner::new(&arch);
        blocking_with(comm, case, |c, a, b| {
            let need = |x: Option<BufId>| x.ok_or_else(|| "buffer not bound".to_string());
            match coll {
                Coll::Bcast => baseline::bcast(c, lib, &tuner, need(a)?, ETA, 0),
                Coll::Scatter => baseline::scatter(c, lib, &tuner, a, b, ETA, 0),
                Coll::Gather => baseline::gather(c, lib, &tuner, a, b, ETA, 0),
                Coll::Allgather => baseline::allgather(c, lib, &tuner, a, need(b)?, ETA),
                Coll::Alltoall => baseline::alltoall(c, lib, &tuner, a, need(b)?, ETA),
            }
            .map_err(|e| e.to_string())
        })
    });
    for (rank, got) in outs.into_iter().enumerate() {
        let what = format!("{} persona on threads", lib.label());
        check(&what, rank, case, &got?)?;
    }
    Ok(())
}

/// Smoke every distinct (collective, algorithm) among `cases` and every
/// distinct persona among `points`; returns how many checks ran.
pub fn run(cases: &[Case], points: &[Point]) -> Result<u64, String> {
    let mut checks = 0;
    let mut seen: Vec<Case> = Vec::new();
    for &case in cases {
        if !seen.contains(&case) {
            seen.push(case);
            polled(case)?;
            threads(case)?;
            checks += 2;
        }
    }
    let mut personas: Vec<(Coll, Library)> = Vec::new();
    for pt in points {
        if let Kind::Persona { coll, lib } = pt.kind {
            if !personas.contains(&(coll, lib)) {
                personas.push((coll, lib));
                persona(coll, lib)?;
                checks += 1;
            }
        }
    }
    Ok(checks)
}

/// The (collective, algorithm) pairs a point list times.
pub fn cases_of(points: &[Point]) -> Vec<Case> {
    points
        .iter()
        .filter_map(|pt| match &pt.kind {
            Kind::Polled { case } | Kind::Survivable { case, .. } => Some(*case),
            _ => None,
        })
        .collect()
}
