//! The flat clause arena.
//!
//! Every clause of three or more literals, and every learnt clause, lives
//! in one contiguous `Vec<u32>`; a [`ClauseRef`] is a word offset into it.
//! The propagate loop walks watch lists that dereference straight into
//! this one flat array, so clause headers and literals share cache lines
//! instead of chasing a pointer per clause.  Binary problem clauses are not
//! stored here at all: the solver keeps each one as two watches whose
//! blocker is the clause's other literal.
//!
//! Layout, addressed by `ClauseRef = r`:
//!
//! ```text
//! problem clause:  data[r] = meta     size | flags
//!                  data[r+1..] = lits (at least 3)
//!
//! learnt clause:   data[r] = meta     size | flags (LEARNT set)
//!                  data[r+1] = lbd | tier (top 2 bits)
//!                  data[r+2] = activity (f32 bits)
//!                  data[r+3] = touched (conflict timestamp)
//!                  data[r+4..] = lits (at least 2)
//! ```
//!
//! Deletion sets a tombstone bit and books the clause's words as waste;
//! nothing is freed until [`ClauseArena::reloc`]-driven mark-compact GC
//! (run by the solver once the waste fraction crosses a threshold) copies
//! the live clauses into a fresh vector.  Relocation writes a forwarding
//! header into the old arena, so a clause referenced from several places
//! (two watch lists, a reason slot, a ref list) is copied exactly once.

use crate::lit::Lit;

/// Reference to a clause: its word offset in the arena.  Always below
/// [`CREF_LIMIT`].
pub(crate) type ClauseRef = u32;
/// Clause references stay below this, which leaves the top bit of a
/// reference word free for the solver's binary-reason tag.
pub(crate) const CREF_LIMIT: u32 = 1 << 31;
pub(crate) const REASON_NONE: ClauseRef = u32::MAX;

const SIZE_BITS: u32 = 28;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
const LEARNT_BIT: u32 = 1 << 28;
const DELETED_BIT: u32 = 1 << 29;
/// Forwarding sentinel written over a relocated clause's meta word during
/// GC.  Never a valid meta: bits 30/31 are reserved-zero in live headers.
const FORWARDED: u32 = u32::MAX;

/// Learnt-database tiers (glucose-style), stored in the LBD word.
pub(crate) const TIER_CORE: u32 = 0;
pub(crate) const TIER_MID: u32 = 1;
pub(crate) const TIER_LOCAL: u32 = 2;

const LBD_BITS: u32 = 30;
const LBD_MASK: u32 = (1 << LBD_BITS) - 1;

const HDR_PROBLEM: usize = 1;
const HDR_LEARNT: usize = 4;

#[inline]
fn header_len(meta: u32) -> usize {
    if meta & LEARNT_BIT != 0 {
        HDR_LEARNT
    } else {
        HDR_PROBLEM
    }
}

pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words unreachable through any live clause: tombstoned clauses.
    wasted: usize,
}

impl ClauseArena {
    pub(crate) fn new() -> ClauseArena {
        ClauseArena {
            data: Vec::new(),
            wasted: 0,
        }
    }

    /// Total arena size in words (live + waste).
    #[inline]
    pub(crate) fn len_words(&self) -> usize {
        self.data.len()
    }

    /// Words currently unreachable (reclaimed by the next GC).
    #[inline]
    pub(crate) fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Allocates a clause and returns its reference.  Learnt clauses get
    /// their tier from `lbd` (≤3 core, ≤6 tier2, else local).  Problem
    /// clauses have at least 3 literals, learnt ones at least 2, so every
    /// clause spans at least 4 words.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= if learnt { 2 } else { 3 });
        debug_assert!(lits.len() <= SIZE_MASK as usize);
        assert!(self.data.len() < CREF_LIMIT as usize, "clause arena full");
        let r = self.data.len() as ClauseRef;
        let meta = lits.len() as u32 | if learnt { LEARNT_BIT } else { 0 };
        self.data.push(meta);
        if learnt {
            let tier = tier_for_lbd(lbd);
            self.data.push((lbd & LBD_MASK) | (tier << LBD_BITS));
            self.data.push(0f32.to_bits());
            self.data.push(0); // touched
        }
        for &l in lits {
            self.data.push(l.index() as u32);
        }
        r
    }

    #[inline]
    pub(crate) fn len(&self, r: ClauseRef) -> usize {
        (self.data[r as usize] & SIZE_MASK) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, r: ClauseRef) -> bool {
        self.data[r as usize] & LEARNT_BIT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, r: ClauseRef) -> bool {
        self.data[r as usize] & DELETED_BIT != 0
    }

    /// Tombstones the clause and books its words as waste.
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        let meta = self.data[r as usize];
        debug_assert_eq!(meta & DELETED_BIT, 0);
        self.data[r as usize] = meta | DELETED_BIT;
        self.wasted += header_len(meta) + (meta & SIZE_MASK) as usize;
    }

    #[inline]
    fn lits_start(&self, r: ClauseRef) -> usize {
        r as usize + header_len(self.data[r as usize])
    }

    #[inline]
    pub(crate) fn lits(&self, r: ClauseRef) -> &[Lit] {
        let len = self.len(r);
        let start = self.lits_start(r);
        let words = &self.data[start..start + len];
        // SAFETY: `Lit` is `#[repr(transparent)]` over `u32`.
        unsafe { std::slice::from_raw_parts(words.as_ptr() as *const Lit, len) }
    }

    #[inline]
    pub(crate) fn lit_at(&self, r: ClauseRef, k: usize) -> Lit {
        debug_assert!(k < self.len(r));
        Lit::from_index(self.data[self.lits_start(r) + k] as usize)
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, r: ClauseRef, i: usize, j: usize) {
        let start = self.lits_start(r);
        self.data.swap(start + i, start + j);
    }

    #[inline]
    pub(crate) fn lbd(&self, r: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(r));
        self.data[r as usize + 1] & LBD_MASK
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, r: ClauseRef, lbd: u32) {
        debug_assert!(self.is_learnt(r));
        let w = &mut self.data[r as usize + 1];
        *w = (*w & !LBD_MASK) | (lbd & LBD_MASK);
    }

    #[inline]
    pub(crate) fn tier(&self, r: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(r));
        self.data[r as usize + 1] >> LBD_BITS
    }

    #[inline]
    pub(crate) fn set_tier(&mut self, r: ClauseRef, tier: u32) {
        debug_assert!(self.is_learnt(r));
        debug_assert!(tier <= TIER_LOCAL);
        let w = &mut self.data[r as usize + 1];
        *w = (*w & LBD_MASK) | (tier << LBD_BITS);
    }

    #[inline]
    pub(crate) fn activity(&self, r: ClauseRef) -> f32 {
        debug_assert!(self.is_learnt(r));
        f32::from_bits(self.data[r as usize + 2])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, r: ClauseRef, a: f32) {
        debug_assert!(self.is_learnt(r));
        self.data[r as usize + 2] = a.to_bits();
    }

    #[inline]
    pub(crate) fn touched(&self, r: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(r));
        self.data[r as usize + 3]
    }

    #[inline]
    pub(crate) fn set_touched(&mut self, r: ClauseRef, t: u32) {
        debug_assert!(self.is_learnt(r));
        self.data[r as usize + 3] = t;
    }

    /// Relocates the clause into `to` (mark-compact GC).  Returns the new
    /// reference, or `None` for tombstoned clauses (the reference should be
    /// dropped).  A forwarding header is written into the old arena so
    /// later references to the same clause resolve to one copy.
    pub(crate) fn reloc(&mut self, r: ClauseRef, to: &mut Vec<u32>) -> Option<ClauseRef> {
        let meta = self.data[r as usize];
        if meta == FORWARDED {
            return Some(self.data[r as usize + 1]);
        }
        if meta & DELETED_BIT != 0 {
            return None;
        }
        let total = header_len(meta) + (meta & SIZE_MASK) as usize;
        let nr = to.len() as ClauseRef;
        to.extend_from_slice(&self.data[r as usize..r as usize + total]);
        // Every live clause spans at least 4 words (1-word problem header +
        // 3 literals, or 4-word learnt header + 2), so the forwarding pair
        // always fits.
        self.data[r as usize] = FORWARDED;
        self.data[r as usize + 1] = nr;
        Some(nr)
    }

    /// Replaces the arena contents after a GC sweep.
    pub(crate) fn replace(&mut self, data: Vec<u32>) {
        self.data = data;
        self.wasted = 0;
    }
}

/// Tier assignment by LBD: glue clauses are kept forever, mid-LBD clauses
/// survive while recently used, the rest are aggressively reduced.
#[inline]
pub(crate) fn tier_for_lbd(lbd: u32) -> u32 {
    if lbd <= 3 {
        TIER_CORE
    } else if lbd <= 6 {
        TIER_MID
    } else {
        TIER_LOCAL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(ids: &[i32]) -> Vec<Lit> {
        ids.iter()
            .map(|&i| Lit::new(Var(i.unsigned_abs() - 1), i < 0))
            .collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[1, -2, 3]), false, 0);
        let c2 = a.alloc(&lits(&[2, 4]), true, 5);
        assert_eq!(a.lits(c1), lits(&[1, -2, 3]).as_slice());
        assert_eq!(a.lits(c2), lits(&[2, 4]).as_slice());
        assert!(!a.is_learnt(c1));
        assert!(a.is_learnt(c2));
        assert_eq!(a.lbd(c2), 5);
        assert_eq!(a.tier(c2), TIER_MID);
        assert_eq!(a.wasted_words(), 0);
        // A 1-word problem header, a 4-word learnt header.
        assert_eq!((c1, c2), (0, 4));
        assert_eq!(a.len_words(), (1 + 3) + (4 + 2));
    }

    #[test]
    fn delete_books_waste() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[1, 2, 3, 4]), false, 0);
        let c2 = a.alloc(&lits(&[1, 2, 3]), true, 7);
        a.delete(c2);
        assert!(a.is_deleted(c2));
        assert!(!a.is_deleted(c1));
        assert_eq!(a.wasted_words(), HDR_LEARNT + 3);
        a.delete(c1);
        assert_eq!(a.wasted_words(), HDR_LEARNT + 3 + HDR_PROBLEM + 4);
    }

    #[test]
    fn reloc_forwards_and_drops_tombstones() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[1, 2, 3]), false, 0);
        let c2 = a.alloc(&lits(&[3, 4, 5]), true, 4);
        let c3 = a.alloc(&lits(&[1, -5, 6]), false, 0);
        a.delete(c2);
        let mut to = Vec::new();
        let n1 = a.reloc(c1, &mut to).unwrap();
        assert_eq!(a.reloc(c2, &mut to), None);
        let n3 = a.reloc(c3, &mut to).unwrap();
        // A second relocation of the same clause hits the forwarding header.
        assert_eq!(a.reloc(c1, &mut to), Some(n1));
        assert_eq!(a.reloc(c3, &mut to), Some(n3));
        let saved1 = lits(&[1, 2, 3]);
        let saved3 = lits(&[1, -5, 6]);
        a.replace(to);
        assert_eq!(a.lits(n1), saved1.as_slice());
        assert_eq!(a.lits(n3), saved3.as_slice());
        assert_eq!(a.wasted_words(), 0);
        // Two 1-word problem headers with 3 literals each; the tombstoned
        // learnt clause is gone.
        assert_eq!(a.len_words(), (1 + 3) + (1 + 3));
    }

    #[test]
    fn tier_and_activity_round_trip() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[1, 2, 3]), true, 9);
        assert_eq!(a.tier(c), TIER_LOCAL);
        a.set_tier(c, TIER_MID);
        assert_eq!(a.tier(c), TIER_MID);
        assert_eq!(a.lbd(c), 9, "tier write must not clobber the LBD");
        a.set_lbd(c, 2);
        assert_eq!(a.lbd(c), 2);
        assert_eq!(a.tier(c), TIER_MID, "LBD write must not clobber the tier");
        a.set_activity(c, 1.5);
        assert_eq!(a.activity(c), 1.5);
        a.set_touched(c, 777);
        assert_eq!(a.touched(c), 777);
    }
}
