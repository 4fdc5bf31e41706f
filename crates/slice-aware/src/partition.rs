//! Slice partitioning for multi-tenant hosts (paper §7, future work).
//!
//! "Slice isolation can also be employed in hypervisors (e.g., KVM) to
//! allocate different LLC slices to different virtual machines." A
//! [`SlicePartitioner`] plays that hypervisor role: it owns the slice
//! inventory, grants each tenant a disjoint slice set, and hands out
//! per-tenant allocators whose memory maps only to the tenant's slices —
//! so a tenant's LLC footprint is physically confined without CAT.

use crate::alloc::{AllocError, SliceAllocator, SliceBuffer};
use llc_sim::addr::PhysAddr;
use std::collections::HashMap;
use std::fmt;

/// A tenant identifier.
pub(crate) type TenantId = u32;

/// Partitioning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A requested slice is already granted to another tenant.
    SliceTaken {
        /// The contested slice.
        slice: usize,
        /// Its current owner.
        owner: TenantId,
    },
    /// The tenant id is already registered.
    DuplicateTenant(TenantId),
    /// The tenant is unknown.
    NoSuchTenant(TenantId),
    /// No slice granted to this tenant.
    EmptyGrant,
    /// The underlying allocator ran out of lines.
    Alloc(AllocError),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::SliceTaken { slice, owner } => {
                write!(f, "slice {slice} already granted to tenant {owner}")
            }
            PartitionError::DuplicateTenant(t) => write!(f, "tenant {t} already registered"),
            PartitionError::NoSuchTenant(t) => write!(f, "no tenant {t}"),
            PartitionError::EmptyGrant => write!(f, "tenant holds no slices"),
            PartitionError::Alloc(e) => write!(f, "allocation failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<AllocError> for PartitionError {
    fn from(e: AllocError) -> Self {
        PartitionError::Alloc(e)
    }
}

/// The hypervisor-side slice inventory and per-tenant grants.
pub struct SlicePartitioner<F> {
    alloc: SliceAllocator<F>,
    slices: usize,
    owner: Vec<Option<TenantId>>,
    grants: HashMap<TenantId, Vec<usize>>,
}

impl<F> fmt::Debug for SlicePartitioner<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlicePartitioner")
            .field("slices", &self.slices)
            .field("tenants", &self.grants.len())
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(PhysAddr) -> usize> SlicePartitioner<F> {
    /// A partitioner over `slices` slices backed by `alloc`.
    pub fn new(alloc: SliceAllocator<F>, slices: usize) -> Self {
        Self {
            alloc,
            slices,
            owner: vec![None; slices],
            grants: HashMap::new(),
        }
    }

    /// Grants `slices` exclusively to `tenant`.
    ///
    /// # Errors
    ///
    /// Fails without side effects when the tenant exists or any slice is
    /// taken.
    pub fn grant(&mut self, tenant: TenantId, slices: &[usize]) -> Result<(), PartitionError> {
        if self.grants.contains_key(&tenant) {
            return Err(PartitionError::DuplicateTenant(tenant));
        }
        for &s in slices {
            assert!(s < self.slices, "slice out of range");
            if let Some(owner) = self.owner[s] {
                return Err(PartitionError::SliceTaken { slice: s, owner });
            }
        }
        for &s in slices {
            self.owner[s] = Some(tenant);
        }
        self.grants.insert(tenant, slices.to_vec());
        Ok(())
    }

    /// Revokes a tenant's grant, freeing its slices for new grants.
    ///
    /// Memory already allocated stays allocated (the underlying
    /// allocator never frees), mirroring a teardown where the hugepage is
    /// returned wholesale.
    pub fn revoke(&mut self, tenant: TenantId) -> Result<Vec<usize>, PartitionError> {
        let slices = self
            .grants
            .remove(&tenant)
            .ok_or(PartitionError::NoSuchTenant(tenant))?;
        for &s in &slices {
            self.owner[s] = None;
        }
        Ok(slices)
    }

    /// The slices granted to `tenant`.
    pub fn slices_of(&self, tenant: TenantId) -> Option<&[usize]> {
        self.grants.get(&tenant).map(Vec::as_slice)
    }

    /// Slices not granted to anyone.
    pub fn free_slices(&self) -> Vec<usize> {
        (0..self.slices)
            .filter(|&s| self.owner[s].is_none())
            .collect()
    }

    /// Allocates `lines` cache lines for `tenant`, spread round-robin
    /// over its granted slices.
    pub fn alloc_for(
        &mut self,
        tenant: TenantId,
        lines: usize,
    ) -> Result<SliceBuffer, PartitionError> {
        let slices = self
            .grants
            .get(&tenant)
            .ok_or(PartitionError::NoSuchTenant(tenant))?
            .clone();
        if slices.is_empty() {
            return Err(PartitionError::EmptyGrant);
        }
        Ok(self.alloc.alloc_lines_multi(&slices, lines)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::hash::{SliceHash, XorSliceHash};
    use llc_sim::mem::PhysMem;

    fn partitioner() -> SlicePartitioner<impl FnMut(PhysAddr) -> usize> {
        let mut mem = PhysMem::new(32 << 20);
        let region = mem.alloc(16 << 20, 1 << 20).unwrap();
        let h = XorSliceHash::haswell_8slice();
        // The PhysMem handle can drop: a Region is plain address
        // bookkeeping and these tests only inspect addresses.
        drop(mem);
        SlicePartitioner::new(SliceAllocator::new(region, move |pa| h.slice_of(pa)), 8)
    }

    #[test]
    fn grants_are_exclusive() {
        let mut p = partitioner();
        p.grant(1, &[0, 1]).unwrap();
        let err = p.grant(2, &[1, 2]).unwrap_err();
        assert_eq!(err, PartitionError::SliceTaken { slice: 1, owner: 1 });
        // The failed grant must not have claimed slice 2.
        assert_eq!(p.owner[2], None);
        p.grant(2, &[2, 3]).unwrap();
        assert_eq!(p.owner[2], Some(2));
    }

    #[test]
    fn tenant_memory_stays_in_its_slices() {
        let mut p = partitioner();
        p.grant(7, &[4, 5]).unwrap();
        p.grant(9, &[0]).unwrap();
        let h = XorSliceHash::haswell_8slice();
        let a = p.alloc_for(7, 200).unwrap();
        for &pa in a.lines() {
            assert!([4, 5].contains(&h.slice_of(pa)));
        }
        let b = p.alloc_for(9, 100).unwrap();
        for &pa in b.lines() {
            assert_eq!(h.slice_of(pa), 0);
        }
    }

    #[test]
    fn tenants_never_share_lines() {
        let mut p = partitioner();
        p.grant(1, &[0, 2]).unwrap();
        p.grant(2, &[1, 3]).unwrap();
        let a = p.alloc_for(1, 500).unwrap();
        let b = p.alloc_for(2, 500).unwrap();
        let set: std::collections::HashSet<_> = a.lines().iter().collect();
        assert!(b.lines().iter().all(|pa| !set.contains(pa)));
    }

    #[test]
    fn revoke_frees_slices() {
        let mut p = partitioner();
        p.grant(1, &[6, 7]).unwrap();
        assert_eq!(p.free_slices().len(), 6);
        let freed = p.revoke(1).unwrap();
        assert_eq!(freed, vec![6, 7]);
        assert_eq!(p.free_slices().len(), 8);
        p.grant(2, &[6]).unwrap();
        assert_eq!(p.owner[6], Some(2));
    }

    #[test]
    fn errors_are_reported() {
        let mut p = partitioner();
        p.grant(1, &[0]).unwrap();
        assert_eq!(
            p.grant(1, &[1]).unwrap_err(),
            PartitionError::DuplicateTenant(1)
        );
        assert_eq!(
            p.alloc_for(5, 1).unwrap_err(),
            PartitionError::NoSuchTenant(5)
        );
        assert_eq!(p.revoke(5).unwrap_err(), PartitionError::NoSuchTenant(5));
        p.grant(3, &[]).unwrap();
        assert_eq!(p.alloc_for(3, 1).unwrap_err(), PartitionError::EmptyGrant);
    }

    #[test]
    fn slices_of_reports_grant() {
        let mut p = partitioner();
        p.grant(4, &[1, 3, 5]).unwrap();
        assert_eq!(p.slices_of(4), Some(&[1usize, 3, 5][..]));
        assert_eq!(p.slices_of(8), None);
    }
}
