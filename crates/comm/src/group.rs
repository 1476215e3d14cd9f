//! Sub-communicators: run collectives over a subset of ranks.
//!
//! [`SubComm`] re-ranks a member subset of a parent [`Comm`] the way
//! `MPI_Comm_split` does. Disjoint subgroups can run collectives
//! *concurrently* without tag collisions because control-plane matching
//! is keyed by source rank, and disjoint groups have disjoint sources.
//!
//! Buffer handles and remote tokens pass straight through to the parent
//! transport (tokens already carry the owner's parent rank), so
//! kernel-assisted operations work unchanged.

use crate::{BufId, Comm, CommError, RemoteToken, Result, Tag, Topology};

/// Validate a member list against a parent domain of `p` ranks: the list
/// must be non-empty, in-range, duplicate-free, and contain the calling
/// endpoint `me`. Returns `me`'s index within the list (its subgroup
/// rank). Shared by [`SubComm::new`] and the membership layer's
/// shrink-and-re-execute path, so both agree on what a legal survivor
/// set is.
pub fn validate_members(p: usize, me: usize, members: &[usize]) -> Result<usize> {
    if members.is_empty() {
        return Err(CommError::Protocol("empty subgroup".into()));
    }
    if members.iter().any(|&m| m >= p) {
        return Err(CommError::Protocol("subgroup member outside parent".into()));
    }
    let mut seen = members.to_vec();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err(CommError::Protocol("duplicate subgroup member".into()));
    }
    members
        .iter()
        .position(|&m| m == me)
        .ok_or(CommError::Protocol(
            "caller is not a subgroup member".into(),
        ))
}

/// A re-ranked view over a subset of a parent communicator's ranks.
pub struct SubComm<'a, C: Comm + ?Sized> {
    parent: &'a mut C,
    /// Parent ranks of the members, in subgroup rank order.
    members: Vec<usize>,
    /// This endpoint's rank within the subgroup.
    my_rank: usize,
}

impl<'a, C: Comm + ?Sized> SubComm<'a, C> {
    /// View `parent` as a communicator over `members` (parent ranks,
    /// already ordered). The calling endpoint's parent rank must be a
    /// member. Membership must be identical on every member.
    pub fn new(parent: &'a mut C, members: Vec<usize>) -> Result<SubComm<'a, C>> {
        let my_rank = validate_members(parent.size(), parent.rank(), &members)?;
        Ok(SubComm {
            parent,
            members,
            my_rank,
        })
    }

    /// Split by color/key, like `MPI_Comm_split`: every parent rank
    /// supplies a `(color, key)`; ranks sharing this endpoint's color
    /// form the subgroup, ordered by `(key, parent rank)`. Collective
    /// over the parent (everyone must call it).
    pub fn split(parent: &'a mut C, color: u64, key: u64) -> Result<SubComm<'a, C>> {
        let mut payload = color.to_le_bytes().to_vec();
        payload.extend_from_slice(&key.to_le_bytes());
        let all = crate::smcoll::sm_allgather(parent, &payload)?;
        let mut mine: Vec<(u64, usize)> = Vec::new();
        for (r, blob) in all.iter().enumerate() {
            if blob.len() != 16 {
                return Err(CommError::Protocol("bad split payload".into()));
            }
            let c = u64::from_le_bytes(blob[..8].try_into().expect("slice length fixed"));
            let k = u64::from_le_bytes(blob[8..].try_into().expect("slice length fixed"));
            if c == color {
                mine.push((k, r));
            }
        }
        mine.sort_unstable();
        SubComm::new(parent, mine.into_iter().map(|(_, r)| r).collect())
    }

    /// Parent rank of subgroup rank `r`.
    pub fn parent_rank(&self, r: usize) -> usize {
        self.members[r]
    }

    /// The member list (parent ranks, subgroup order).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Borrow the parent communicator (e.g. for inter-group traffic
    /// between phases).
    pub fn parent(&mut self) -> &mut C {
        self.parent
    }
}

impl<C: Comm + ?Sized> Comm for SubComm<'_, C> {
    fn rank(&self) -> usize {
        self.my_rank
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn topology(&self) -> Topology {
        // Socket classifications remain exact when the subgroup is a
        // contiguous block of parent ranks (the node-subgroup case);
        // otherwise they are approximations.
        self.parent.topology()
    }

    fn node_of(&self, rank: usize) -> usize {
        self.parent.node_of(self.members[rank])
    }

    fn alloc(&mut self, len: usize) -> BufId {
        self.parent.alloc(len)
    }

    fn free(&mut self, buf: BufId) -> Result<()> {
        self.parent.free(buf)
    }

    fn buf_len(&self, buf: BufId) -> Result<usize> {
        self.parent.buf_len(buf)
    }

    fn write_local(&mut self, buf: BufId, off: usize, data: &[u8]) -> Result<()> {
        self.parent.write_local(buf, off, data)
    }

    fn read_local(&self, buf: BufId, off: usize, out: &mut [u8]) -> Result<()> {
        self.parent.read_local(buf, off, out)
    }

    fn copy_local(
        &mut self,
        src: BufId,
        src_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.parent.copy_local(src, src_off, dst, dst_off, len)
    }

    fn expose(&mut self, buf: BufId) -> Result<RemoteToken> {
        // Tokens carry the *parent* rank; cma ops translate nothing.
        self.parent.expose(buf)
    }

    fn cma_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        self.parent.cma_read(token, remote_off, dst, dst_off, len)
    }

    fn cma_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.parent.cma_write(token, remote_off, src, src_off, len)
    }

    fn ctrl_send(&mut self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        let to = *self.members.get(to).ok_or(CommError::BadRank(to))?;
        self.parent.ctrl_send(to, tag, data)
    }

    fn ctrl_recv(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>> {
        let from = *self.members.get(from).ok_or(CommError::BadRank(from))?;
        self.parent.ctrl_recv(from, tag)
    }

    fn ctrl_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        timeout_ns: u64,
    ) -> Result<Option<Vec<u8>>> {
        let from = *self.members.get(from).ok_or(CommError::BadRank(from))?;
        self.parent.ctrl_recv_deadline(from, tag, timeout_ns)
    }

    fn sleep_ns(&mut self, ns: u64) {
        self.parent.sleep_ns(ns);
    }

    fn shm_fallback_read(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        dst: BufId,
        dst_off: usize,
        len: usize,
    ) -> Result<()> {
        // Tokens carry parent ranks; nothing to translate.
        self.parent
            .shm_fallback_read(token, remote_off, dst, dst_off, len)
    }

    fn shm_fallback_write(
        &mut self,
        token: RemoteToken,
        remote_off: usize,
        src: BufId,
        src_off: usize,
        len: usize,
    ) -> Result<()> {
        self.parent
            .shm_fallback_write(token, remote_off, src, src_off, len)
    }

    fn shm_send_data(
        &mut self,
        to: usize,
        tag: Tag,
        src: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        let to = *self.members.get(to).ok_or(CommError::BadRank(to))?;
        self.parent.shm_send_data(to, tag, src, off, len)
    }

    fn shm_recv_data(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
    ) -> Result<()> {
        let from = *self.members.get(from).ok_or(CommError::BadRank(from))?;
        self.parent.shm_recv_data(from, tag, dst, off, len)
    }

    fn shm_recv_deadline(
        &mut self,
        from: usize,
        tag: Tag,
        dst: BufId,
        off: usize,
        len: usize,
        timeout_ns: u64,
    ) -> Result<bool> {
        let from = *self.members.get(from).ok_or(CommError::BadRank(from))?;
        self.parent
            .shm_recv_deadline(from, tag, dst, off, len, timeout_ns)
    }

    fn time_ns(&self) -> u64 {
        self.parent.time_ns()
    }

    fn tracer(&self) -> kacc_trace::Tracer {
        self.parent.tracer()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    use crate::stub::StubComm;

    #[test]
    fn membership_is_validated() {
        let mut c = StubComm { rank: 2, size: 8 };
        assert!(SubComm::new(&mut c, vec![]).is_err());
        assert!(SubComm::new(&mut c, vec![0, 9]).is_err(), "out of range");
        assert!(SubComm::new(&mut c, vec![0, 0, 2]).is_err(), "duplicate");
        assert!(
            SubComm::new(&mut c, vec![0, 1]).is_err(),
            "caller not a member"
        );
        let sub = SubComm::new(&mut c, vec![4, 2, 7]).unwrap();
        assert_eq!(sub.rank(), 1);
        assert_eq!(sub.size(), 3);
        assert_eq!(sub.parent_rank(0), 4);
        assert_eq!(sub.parent_rank(2), 7);
    }

    #[test]
    fn validate_members_returns_subgroup_rank() {
        assert_eq!(validate_members(8, 2, &[4, 2, 7]), Ok(1));
        assert_eq!(validate_members(8, 7, &[4, 2, 7]), Ok(2));
        assert!(validate_members(8, 0, &[]).is_err());
        assert!(validate_members(8, 0, &[0, 8]).is_err());
        assert!(validate_members(8, 0, &[0, 1, 1]).is_err());
        assert!(validate_members(8, 3, &[0, 1]).is_err());
    }

    #[test]
    fn rank_translation_bounds_checked() {
        let mut c = StubComm { rank: 0, size: 4 };
        let mut sub = SubComm::new(&mut c, vec![0, 3]).unwrap();
        assert!(sub.ctrl_send(1, Tag::user(0), &[]).is_ok());
        assert_eq!(
            sub.ctrl_send(2, Tag::user(0), &[]),
            Err(CommError::BadRank(2))
        );
        assert_eq!(sub.ctrl_recv(5, Tag::user(0)), Err(CommError::BadRank(5)));
    }
}
