//! The range-encoded [`PageOwnership`] against a per-granule model.
//!
//! The model is the literal bitmap reading of §4.1: one `HashMap` entry
//! per owned 4 KiB granule. Random claim/release sequences — overlapping,
//! adjacent, unaligned and zero-length claims included — must give the
//! same answer from both after every step.

use std::collections::HashMap;

use proptest::prelude::*;
use snic_mem::phys::PAGE_GRANULE;
use snic_mem::PageOwnership;
use snic_types::{ByteSize, NfId, SnicError};

/// Granule index → owner.
#[derive(Default)]
struct GranuleModel {
    owners: HashMap<u64, NfId>,
}

impl GranuleModel {
    fn claim(&mut self, base: u64, len: u64, owner: NfId) -> Result<(), SnicError> {
        let first = base / PAGE_GRANULE;
        let last = (base + len).div_ceil(PAGE_GRANULE);
        for g in first..last {
            if let Some(&existing) = self.owners.get(&g) {
                return Err(SnicError::PageOwned {
                    addr: g * PAGE_GRANULE,
                    owner: existing,
                });
            }
        }
        for g in first..last {
            self.owners.insert(g, owner);
        }
        Ok(())
    }

    fn release_owner(&mut self, owner: NfId) -> usize {
        let before = self.owners.len();
        self.owners.retain(|_, &mut o| o != owner);
        before - self.owners.len()
    }

    fn owner_of(&self, addr: u64) -> Option<NfId> {
        self.owners.get(&(addr / PAGE_GRANULE)).copied()
    }

    fn owned_bytes(&self, owner: NfId) -> ByteSize {
        ByteSize(self.owners.values().filter(|&&o| o == owner).count() as u64 * PAGE_GRANULE)
    }

    fn total_owned(&self) -> ByteSize {
        ByteSize(self.owners.len() as u64 * PAGE_GRANULE)
    }

    fn owned_ranges(&self) -> Vec<(u64, u64, NfId)> {
        let mut granules: Vec<(u64, NfId)> = self.owners.iter().map(|(&g, &o)| (g, o)).collect();
        granules.sort_unstable_by_key(|&(g, _)| g);
        let mut out: Vec<(u64, u64, NfId)> = Vec::new();
        for (g, owner) in granules {
            let base = g * PAGE_GRANULE;
            match out.last_mut() {
                Some((b, l, o)) if *o == owner && *b + *l == base => *l += PAGE_GRANULE,
                _ => out.push((base, PAGE_GRANULE, owner)),
            }
        }
        out
    }
}

#[derive(Debug, Clone)]
enum Op {
    Claim { base: u64, len: u64, owner: u64 },
    Release { owner: u64 },
}

/// Addresses within 48 granules and lengths up to 8 granules, so claims
/// collide, abut and nest often. A claim starts on a granule boundary,
/// one byte past it, mid-granule or one byte short of the next; its
/// length is whole granules (zero included), one byte more or one less.
fn op() -> impl Strategy<Value = Op> {
    let claim = (0u64..48, 0u64..4, 0u64..9, 0u64..3, 1u64..5).prop_map(
        |(g, off_sel, len_g, len_sel, owner)| {
            let off = [0, 1, PAGE_GRANULE / 2, PAGE_GRANULE - 1][off_sel as usize];
            let len = match len_sel {
                0 => len_g * PAGE_GRANULE,
                1 => len_g * PAGE_GRANULE + 1,
                _ => (len_g * PAGE_GRANULE).saturating_sub(1),
            };
            Op::Claim {
                base: g * PAGE_GRANULE + off,
                len,
                owner,
            }
        },
    );
    let release = (1u64..5).prop_map(|owner| Op::Release { owner });
    prop_oneof![claim.clone(), claim.clone(), claim, release]
}

fn assert_same(real: &PageOwnership, model: &GranuleModel) {
    assert_eq!(real.owned_ranges(), model.owned_ranges());
    assert_eq!(real.total_owned(), model.total_owned());
    for owner in 0..5 {
        assert_eq!(
            real.owned_bytes(NfId(owner)),
            model.owned_bytes(NfId(owner))
        );
    }
    for g in 0..60 {
        for addr in [g * PAGE_GRANULE, g * PAGE_GRANULE + PAGE_GRANULE - 1] {
            assert_eq!(real.owner_of(addr), model.owner_of(addr), "addr {addr:#x}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn range_map_matches_granule_model(ops in proptest::collection::vec(op(), 1..40)) {
        let (mut real, mut model) = (PageOwnership::new(), GranuleModel::default());
        for op in ops {
            match op {
                Op::Claim { base, len, owner } => {
                    let owner = NfId(owner);
                    prop_assert_eq!(
                        real.claim(base, len, owner),
                        model.claim(base, len, owner),
                        "claim({:#x}, {:#x}, {:?})", base, len, owner
                    );
                }
                Op::Release { owner } => {
                    prop_assert_eq!(
                        real.release_owner(NfId(owner)),
                        model.release_owner(NfId(owner))
                    );
                }
            }
            assert_same(&real, &model);
        }
    }
}
