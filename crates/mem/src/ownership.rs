//! The trusted hardware's page-ownership tracking (§4.1).
//!
//! "The hardware maintains another bitmap which tracks which physical RAM
//! pages have been allocated to a network function." `nf_launch` consults
//! this structure to reject launches whose page table references pages
//! already bound to a live function; `nf_teardown` releases them after
//! scrubbing.
//!
//! This is a range encoding of that bitmap: each successful claim is one
//! entry `first granule → (end granule, owner)`, and claims never
//! overlap. A launch, an attest-time coverage check and a teardown cost
//! a few tree operations per claim instead of one per 4 KiB granule.

use std::collections::BTreeMap;

use snic_types::{ByteSize, NfId, SnicError};

use crate::phys::PAGE_GRANULE;

/// Page-granular ownership map over physical memory.
#[derive(Debug, Default)]
pub struct PageOwnership {
    /// First granule of each claim → (one past its last granule, owner).
    /// The claimed granule ranges are disjoint and non-empty.
    claims: BTreeMap<u64, (u64, NfId)>,
}

impl PageOwnership {
    /// An empty map (all pages unowned, i.e. NIC-OS-accessible).
    pub fn new() -> PageOwnership {
        PageOwnership::default()
    }

    /// Claim `base..base+len` for `owner`.
    ///
    /// Fails with [`SnicError::PageOwned`] (naming the first conflicting
    /// page and its owner) if any page is already claimed — even by the
    /// same NF, since `nf_launch` walks each page exactly once.
    pub fn claim(&mut self, base: u64, len: u64, owner: NfId) -> Result<(), SnicError> {
        let first = base / PAGE_GRANULE;
        let last = (base + len).div_ceil(PAGE_GRANULE);
        if first >= last {
            return Ok(());
        }
        // The claim covering `first`, else the lowest one starting inside.
        let conflict = self
            .claims
            .range(..=first)
            .next_back()
            .filter(|(_, &(end, _))| end > first)
            .map(|(_, &(_, o))| (first, o))
            .or_else(|| {
                self.claims
                    .range(first + 1..last)
                    .next()
                    .map(|(&g, &(_, o))| (g, o))
            });
        if let Some((g, existing)) = conflict {
            return Err(SnicError::PageOwned {
                addr: g * PAGE_GRANULE,
                owner: existing,
            });
        }
        self.claims.insert(first, (last, owner));
        Ok(())
    }

    /// Release every page owned by `owner`; returns the count released.
    pub fn release_owner(&mut self, owner: NfId) -> usize {
        let mut released = 0;
        self.claims.retain(|&g, &mut (end, o)| {
            if o == owner {
                released += end - g;
            }
            o != owner
        });
        released as usize
    }

    /// Owner of the page containing `addr`, if any.
    pub fn owner_of(&self, addr: u64) -> Option<NfId> {
        let g = addr / PAGE_GRANULE;
        self.claims
            .range(..=g)
            .next_back()
            .filter(|(_, &(end, _))| end > g)
            .map(|(_, &(_, o))| o)
    }

    /// Total bytes currently owned by `owner`.
    pub fn owned_bytes(&self, owner: NfId) -> ByteSize {
        ByteSize(
            self.claims
                .iter()
                .filter(|(_, &(_, o))| o == owner)
                .map(|(&g, &(end, _))| (end - g) * PAGE_GRANULE)
                .sum(),
        )
    }

    /// Total bytes owned by any NF.
    pub fn total_owned(&self) -> ByteSize {
        ByteSize(
            self.claims
                .iter()
                .map(|(&g, &(end, _))| (end - g) * PAGE_GRANULE)
                .sum(),
        )
    }

    /// The owned address space as maximal `(base, len, owner)` ranges,
    /// sorted by base — adjacent same-owner granules are coalesced. This
    /// is the verifier's view of the ownership map.
    pub fn owned_ranges(&self) -> Vec<(u64, u64, NfId)> {
        let mut out: Vec<(u64, u64, NfId)> = Vec::with_capacity(self.claims.len());
        for (&g, &(end, owner)) in &self.claims {
            let (base, len) = (g * PAGE_GRANULE, (end - g) * PAGE_GRANULE);
            match out.last_mut() {
                Some((b, l, o)) if *o == owner && *b + *l == base => *l += len,
                _ => out.push((base, len, owner)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_then_conflict() {
        let mut o = PageOwnership::new();
        o.claim(0x10_000, 0x4000, NfId(1)).unwrap();
        match o.claim(0x12_000, 0x1000, NfId(2)) {
            Err(SnicError::PageOwned { owner, .. }) => assert_eq!(owner, NfId(1)),
            other => panic!("expected PageOwned, got {other:?}"),
        }
    }

    #[test]
    fn self_conflict_also_rejected() {
        let mut o = PageOwnership::new();
        o.claim(0, 0x1000, NfId(1)).unwrap();
        assert!(o.claim(0, 0x1000, NfId(1)).is_err());
    }

    #[test]
    fn failed_claim_leaves_no_partial_state() {
        let mut o = PageOwnership::new();
        o.claim(0x4000, 0x1000, NfId(1)).unwrap();
        // This claim overlaps at its tail; the head pages must not leak.
        assert!(o.claim(0x2000, 0x3000, NfId(2)).is_err());
        assert_eq!(o.owner_of(0x2000), None);
        assert_eq!(o.owner_of(0x3000), None);
    }

    #[test]
    fn release_frees_only_one_owner() {
        let mut o = PageOwnership::new();
        o.claim(0, 0x2000, NfId(1)).unwrap();
        o.claim(0x10_000, 0x2000, NfId(2)).unwrap();
        let released = o.release_owner(NfId(1));
        assert_eq!(released, 2);
        assert_eq!(o.owner_of(0), None);
        assert_eq!(o.owner_of(0x10_000), Some(NfId(2)));
    }

    #[test]
    fn owned_bytes_accounting() {
        let mut o = PageOwnership::new();
        o.claim(0, 3 * PAGE_GRANULE, NfId(9)).unwrap();
        assert_eq!(o.owned_bytes(NfId(9)), ByteSize(3 * PAGE_GRANULE));
        assert_eq!(o.owned_bytes(NfId(1)), ByteSize::ZERO);
        assert_eq!(o.total_owned(), ByteSize(3 * PAGE_GRANULE));
    }

    #[test]
    fn owned_ranges_coalesce_per_owner() {
        let mut o = PageOwnership::new();
        o.claim(0, 2 * PAGE_GRANULE, NfId(1)).unwrap();
        o.claim(2 * PAGE_GRANULE, PAGE_GRANULE, NfId(2)).unwrap();
        o.claim(10 * PAGE_GRANULE, PAGE_GRANULE, NfId(1)).unwrap();
        assert_eq!(
            o.owned_ranges(),
            vec![
                (0, 2 * PAGE_GRANULE, NfId(1)),
                (2 * PAGE_GRANULE, PAGE_GRANULE, NfId(2)),
                (10 * PAGE_GRANULE, PAGE_GRANULE, NfId(1)),
            ]
        );
    }

    #[test]
    fn partial_page_claims_round_up() {
        let mut o = PageOwnership::new();
        // One byte still claims its whole granule.
        o.claim(PAGE_GRANULE, 1, NfId(3)).unwrap();
        assert_eq!(o.owner_of(PAGE_GRANULE + 100), Some(NfId(3)));
        assert!(o.claim(PAGE_GRANULE + 200, 8, NfId(4)).is_err());
    }
}
