//! The pooled watch lists.
//!
//! Every literal's watch list is one power-of-two block inside a single
//! `Vec<Watch>` pool, and each literal has an 8-byte [`Head`]: the block's
//! offset, plus the list's length and the block's size class packed into
//! one word.  A `Vec` per literal would cost a 24-byte header for each one
//! and a separate heap allocation per list; the synthesis solver of a large
//! CEGIS run holds hundreds of thousands of literals, most with a handful
//! of watches.
//!
//! A list that outgrows its block moves to a block of the next class, and
//! the old block goes onto its class's free list for the next list that
//! needs that class.  The last block of the pool grows in place instead.
//! The pool itself grows by an eighth of its length at a time (at least 64
//! watches) rather than doubling, so its spare capacity stays within an
//! eighth of what it holds.
//!
//! The list operations keep the order a `Vec` would: [`WatchStore::push`]
//! appends, the propagate walk removes a watch by moving the list's last
//! watch into the hole (as `swap_remove` does), and
//! [`WatchStore::retain`] keeps order.
//!
//! **Waste bound.**  [`WatchStore::retain`] (run by the clause-arena GC)
//! finishes with a repack that slides every block to the front of the pool
//! in offset order, shrinks it to the smallest class holding its list,
//! gives up the blocks of empty lists and empties the free lists.  Right
//! after a repack each block is less than twice its list's length, so the
//! pool holds less than twice the watches.  Between repacks a list's block
//! is less than twice the longest that list has been, and the blocks
//! released since the repack total less than the blocks in use (each
//! list's released blocks halve in size down the chain it grew through),
//! so the pool stays under four times the sum of those longest lengths.

use crate::arena::ClauseRef;
use crate::lit::Lit;
use std::ops::{Index, IndexMut};

/// One watch: a clause to visit when the watched literal becomes false.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Watch {
    /// The watched clause, or the solver's sentinel for a binary problem
    /// clause.
    pub(crate) cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watch list walk can skip it.
    /// For a binary problem clause it is always the other literal.
    pub(crate) blocker: Lit,
}

/// Bits of [`Head::meta`] that hold the size class; the length takes the
/// rest.
const CLASS_BITS: u32 = 5;
const CLASS_MASK: u32 = (1 << CLASS_BITS) - 1;
/// The largest size class: blocks of `1 << 26` watches, so a list's length
/// (at most its block's size) stays below `1 << 27` and fits the 27 length
/// bits.
const MAX_CLASS: u32 = 32 - CLASS_BITS;
const CLASSES: usize = MAX_CLASS as usize + 1;

/// End of a free list.
const NO_BLOCK: u32 = u32::MAX;

/// The pool (and the heads) grow by this fraction of their length at a
/// time: an eighth.
const GROWTH_DIV: usize = 8;
/// Fewest elements the pool or the heads grow by, so small stores do not
/// reallocate for every block.
const MIN_GROWTH: usize = 64;

/// Watches in a block of size class `class`: none for class 0 (no block),
/// `1 << (class - 1)` above it.
#[inline]
fn cap(class: u32) -> usize {
    (1usize << class) >> 1
}

/// The smallest size class whose blocks hold `len >= 1` watches.
fn class_for(len: usize) -> u32 {
    1 + len.next_power_of_two().trailing_zeros()
}

/// A literal's list: where its block starts, and its length and size class.
#[derive(Clone, Copy, Default)]
struct Head {
    offset: u32,
    /// `len << CLASS_BITS | class`.
    meta: u32,
}

impl Head {
    fn new(offset: usize, len: usize, class: u32) -> Head {
        debug_assert!(len <= cap(class) && class <= MAX_CLASS);
        Head {
            offset: offset as u32,
            meta: ((len as u32) << CLASS_BITS) | class,
        }
    }

    #[inline]
    fn len(self) -> usize {
        (self.meta >> CLASS_BITS) as usize
    }

    #[inline]
    fn class(self) -> u32 {
        self.meta & CLASS_MASK
    }
}

/// Grows `v`'s capacity, when it lacks room for `extra` more elements, by
/// the largest of `extra`, an eighth of its length and [`MIN_GROWTH`]: a
/// bounded factor, not doubling.
fn reserve_bounded<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / GROWTH_DIV).max(MIN_GROWTH));
    }
}

/// The watch lists of every literal, in one pool.
pub(crate) struct WatchStore {
    /// Every block, live or free.  Together they tile the pool.
    pool: Vec<Watch>,
    /// Indexed by literal.
    heads: Vec<Head>,
    /// Per size class, the offset of the first released block, or
    /// [`NO_BLOCK`].  A free block's first watch holds the offset of the
    /// next one in its `cref`.
    free: [u32; CLASSES],
}

impl WatchStore {
    pub(crate) fn new() -> WatchStore {
        WatchStore {
            pool: Vec::new(),
            heads: Vec::new(),
            free: [NO_BLOCK; CLASSES],
        }
    }

    /// Adds the two (empty) lists of a new variable's literals.
    pub(crate) fn add_var(&mut self) {
        reserve_bounded(&mut self.heads, 2);
        self.heads.push(Head::default());
        self.heads.push(Head::default());
    }

    /// Number of literals, two per variable.
    pub(crate) fn num_lits(&self) -> usize {
        self.heads.len()
    }

    /// `lit`'s list.
    pub(crate) fn list(&self, lit: Lit) -> &[Watch] {
        let h = self.heads[lit.index()];
        &self.pool[h.offset as usize..h.offset as usize + h.len()]
    }

    /// Bytes of the heads and the pool, free blocks included.  Like the
    /// clause arena's size, it leaves out the pool's spare capacity.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Head>() * self.heads.len()
            + std::mem::size_of::<Watch>() * self.pool.len()
    }

    /// Appends `w` to `lit`'s list.
    #[inline]
    pub(crate) fn push(&mut self, lit: Lit, w: Watch) {
        let i = lit.index();
        let h = self.heads[i];
        if h.len() == cap(h.class()) {
            self.grow(i);
        }
        let h = &mut self.heads[i];
        self.pool[h.offset as usize + h.len()] = w;
        h.meta += 1 << CLASS_BITS;
    }

    /// Moves list `i`, which fills its block, to a block twice the size.
    fn grow(&mut self, i: usize) {
        let h = self.heads[i];
        let (len, class) = (h.len(), h.class());
        assert!(class < MAX_CLASS, "watch list of {len} watches is full");
        let from = h.offset as usize;
        let offset = if class > 0 && from + cap(class) == self.pool.len() {
            // The last block extends in place.
            self.extend_pool(cap(class));
            from
        } else {
            let to = self.alloc(class + 1);
            self.pool.copy_within(from..from + len, to);
            if class > 0 {
                self.release(from, class);
            }
            to
        };
        self.heads[i] = Head::new(offset, len, class + 1);
    }

    /// A block of size class `class`: a released one, or a new one at the
    /// end of the pool.
    fn alloc(&mut self, class: u32) -> usize {
        let first = self.free[class as usize];
        if first != NO_BLOCK {
            self.free[class as usize] = self.pool[first as usize].cref;
            return first as usize;
        }
        let offset = self.pool.len();
        self.extend_pool(cap(class));
        offset
    }

    fn release(&mut self, offset: usize, class: u32) {
        self.pool[offset].cref = self.free[class as usize];
        self.free[class as usize] = offset as u32;
    }

    fn extend_pool(&mut self, n: usize) {
        let len = self.pool.len() + n;
        assert!(len <= u32::MAX as usize, "watch pool full");
        reserve_bounded(&mut self.pool, n);
        self.pool.resize(
            len,
            Watch {
                cref: 0,
                blocker: Lit::from_index(0),
            },
        );
    }

    /// The pool positions `start..end` of `lit`'s list, for a walk that
    /// reads and writes them through indexing and may end the list early
    /// with [`WatchStore::set_end`].  They stay valid while watches are
    /// pushed onto other lists, even when that grows the pool; pushing onto
    /// `lit`'s own list may move it.
    #[inline]
    pub(crate) fn span(&self, lit: Lit) -> (usize, usize) {
        let h = self.heads[lit.index()];
        (h.offset as usize, h.offset as usize + h.len())
    }

    /// Cuts `lit`'s list to end at pool position `end` (see
    /// [`WatchStore::span`]).
    #[inline]
    pub(crate) fn set_end(&mut self, lit: Lit, end: usize) {
        let h = &mut self.heads[lit.index()];
        let start = h.offset as usize;
        debug_assert!(start <= end && end <= start + h.len());
        *h = Head::new(start, end - start, h.class());
    }

    /// Keeps, in every list and in order, the watches for which `keep`
    /// returns true (it may also update them), then repacks the pool (see
    /// the module docs).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut Watch) -> bool) {
        for h in &mut self.heads {
            let start = h.offset as usize;
            let mut end = start;
            for pos in start..start + h.len() {
                let mut w = self.pool[pos];
                if keep(&mut w) {
                    self.pool[end] = w;
                    end += 1;
                }
            }
            *h = Head::new(start, end - start, h.class());
        }
        self.repack();
    }

    /// Slides every block to the front of the pool, in offset order,
    /// shrunk to the smallest class that holds its list.  Empty lists give
    /// their blocks up and the free lists are dropped.  A block never moves
    /// up or grows, so it never overwrites one not yet moved.
    fn repack(&mut self) {
        let mut order: Vec<u32> = (0..self.heads.len() as u32)
            .filter(|&i| self.heads[i as usize].class() > 0)
            .collect();
        order.sort_unstable_by_key(|&i| self.heads[i as usize].offset);
        let mut end = 0;
        for i in order {
            let h = &mut self.heads[i as usize];
            let len = h.len();
            if len == 0 {
                *h = Head::default();
                continue;
            }
            let from = h.offset as usize;
            debug_assert!(end <= from);
            self.pool.copy_within(from..from + len, end);
            let class = class_for(len);
            *h = Head::new(end, len, class);
            end += cap(class);
        }
        self.pool.truncate(end);
        self.free = [NO_BLOCK; CLASSES];
    }
}

impl Index<usize> for WatchStore {
    type Output = Watch;

    /// The watch at a pool position from [`WatchStore::span`].
    #[inline]
    fn index(&self, pos: usize) -> &Watch {
        &self.pool[pos]
    }
}

impl IndexMut<usize> for WatchStore {
    #[inline]
    fn index_mut(&mut self, pos: usize) -> &mut Watch {
        &mut self.pool[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch(cref: u32, blocker: usize) -> Watch {
        Watch {
            cref,
            blocker: Lit::from_index(blocker),
        }
    }

    fn store(num_lits: usize) -> WatchStore {
        let mut s = WatchStore::new();
        for _ in 0..num_lits / 2 {
            s.add_var();
        }
        s
    }

    /// Checks every list against the model, and that the live and free
    /// blocks tile the pool exactly.
    fn check(s: &WatchStore, model: &[Vec<Watch>]) {
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        for (i, m) in model.iter().enumerate() {
            assert_eq!(s.list(Lit::from_index(i)), m.as_slice(), "list {i}");
            let h = s.heads[i];
            assert!(h.len() <= cap(h.class()));
            if h.class() > 0 {
                blocks.push((h.offset as usize, cap(h.class())));
            }
        }
        for class in 1..CLASSES as u32 {
            let mut off = s.free[class as usize];
            while off != NO_BLOCK {
                blocks.push((off as usize, cap(class)));
                off = s.pool[off as usize].cref;
            }
        }
        blocks.sort_unstable();
        let mut end = 0;
        for (off, len) in blocks {
            assert_eq!(off, end, "blocks overlap or leave a gap");
            end += len;
        }
        assert_eq!(end, s.pool.len(), "blocks do not tile the pool");
    }

    /// Random pushes, walks (keep, update the blocker in place, remove by
    /// moving the last watch into the hole, push onto another list, stop
    /// early) and order-preserving retains, against a `Vec` per literal.
    #[test]
    fn random_operations_match_a_vec_per_literal() {
        let mut rng = ph_bits::Rng::seed_from_u64(0x3a7c_0001);
        let n = 16;
        let mut s = store(n);
        let mut model: Vec<Vec<Watch>> = vec![Vec::new(); n];
        let mut next_cref = 0u32;
        let mut fresh = |rng: &mut ph_bits::Rng| {
            next_cref += 1;
            watch(next_cref, rng.gen_range(0..n))
        };
        let mut retains = 0;
        for step in 0..20_000 {
            let lit = rng.gen_range(0..n);
            match rng.gen_range(0..100u32) {
                0..=59 => {
                    let w = fresh(&mut rng);
                    s.push(Lit::from_index(lit), w);
                    model[lit].push(w);
                }
                60..=98 => {
                    let p = Lit::from_index(lit);
                    let (mut i, mut end) = s.span(p);
                    let mut k = 0;
                    while i < end {
                        assert_eq!(s[i], model[lit][k], "step {step}: walk read");
                        match rng.gen_range(0..10u32) {
                            0..=3 => {}
                            4..=5 => {
                                let b = Lit::from_index(rng.gen_range(0..n));
                                s[i].blocker = b;
                                model[lit][k].blocker = b;
                            }
                            6..=7 => {
                                end -= 1;
                                s[i] = s[end];
                                model[lit].swap_remove(k);
                                continue;
                            }
                            8 => {
                                let other = (lit + rng.gen_range(1..n)) % n;
                                let w = fresh(&mut rng);
                                s.push(Lit::from_index(other), w);
                                model[other].push(w);
                            }
                            _ => break,
                        }
                        i += 1;
                        k += 1;
                    }
                    s.set_end(p, end);
                }
                _ => {
                    retains += 1;
                    let salt = rng.next_u64() as u32;
                    let keep = |w: &mut Watch| {
                        w.blocker = Lit::from_index(w.blocker.index() ^ 1);
                        !(w.cref ^ salt).count_ones().is_multiple_of(3)
                    };
                    s.retain(keep);
                    for m in &mut model {
                        m.retain_mut(keep);
                    }
                    // Right after a repack every block is the smallest that
                    // holds its list.
                    for (i, m) in model.iter().enumerate() {
                        let h = s.heads[i];
                        let want = if m.is_empty() { 0 } else { class_for(m.len()) };
                        assert_eq!(h.class(), want, "list {i} after repack");
                    }
                }
            }
            check(&s, &model);
        }
        assert!(retains > 100);
        assert!(model.iter().map(Vec::len).sum::<usize>() > 100);
    }

    /// A block released by a list that grew is handed to the next list of
    /// its class, and the last block of the pool grows in place.
    #[test]
    fn freed_blocks_are_reused() {
        let mut s = store(4);
        let [a, b, c, d] = [0, 1, 2, 3].map(Lit::from_index);
        s.push(a, watch(1, 0));
        s.push(b, watch(2, 0));
        assert_eq!((s.span(a), s.span(b)), ((0, 1), (1, 2)));
        // `a` moves to a 2-block at the end; its 1-block goes free.
        s.push(a, watch(3, 0));
        assert_eq!(s.span(a), (2, 4));
        assert_eq!(s.pool.len(), 4);
        // `c` takes the freed block: the pool does not grow.
        s.push(c, watch(4, 0));
        assert_eq!(s.span(c), (0, 1));
        assert_eq!(s.pool.len(), 4);
        // `a` is the last block, so it grows in place.
        s.push(a, watch(5, 0));
        assert_eq!(s.span(a), (2, 5));
        assert_eq!(s.pool.len(), 6);
        // `b` grows into a new 2-block; `d` reuses `b`'s old one.
        s.push(b, watch(6, 0));
        assert_eq!(s.span(b), (6, 8));
        s.push(d, watch(7, 0));
        assert_eq!(s.span(d), (1, 2));
        assert_eq!(s.bytes(), 8 * (4 + 8));
        let got: Vec<u32> = [a, b, c, d]
            .iter()
            .flat_map(|&l| s.list(l).iter().map(|w| w.cref))
            .collect();
        assert_eq!(got, [1, 3, 5, 2, 6, 4, 7]);
    }

    /// A walk by pool position reads the right watches while pushes to
    /// other lists grow (and may reallocate) the pool under it.
    #[test]
    fn walk_survives_pool_growth() {
        let n = 64;
        let mut s = store(n);
        let p = Lit::from_index(0);
        let mine: Vec<Watch> = (0..40).map(|k| watch(k, 1)).collect();
        for &w in &mine {
            s.push(p, w);
        }
        let (mut i, end) = s.span(p);
        let (mut k, mut grown) = (0, 0);
        while i < end {
            assert_eq!(s[i], mine[k]);
            let before = s.pool.capacity();
            for other in 1..n {
                s.push(Lit::from_index(other), watch(1000 + k as u32, 0));
            }
            grown += usize::from(s.pool.capacity() != before);
            s[i].blocker = Lit::from_index(2);
            i += 1;
            k += 1;
        }
        assert!(grown > 1, "the pool never grew during the walk");
        assert!(s.list(p).iter().all(|w| w.blocker == Lit::from_index(2)));
        assert_eq!(s.list(Lit::from_index(n - 1)).len(), 40);
    }

    #[test]
    fn size_classes() {
        assert_eq!([0, 1, 2, 3, 4].map(cap), [0, 1, 2, 4, 8]);
        assert_eq!([1, 2, 3, 4, 5, 8, 9].map(class_for), [1, 2, 3, 3, 4, 4, 5]);
        assert_eq!(cap(MAX_CLASS), 1 << 26);
        // A full list of the largest class still fits the length bits.
        let h = Head::new(0, cap(MAX_CLASS), MAX_CLASS);
        assert_eq!((h.len(), h.class()), (1 << 26, MAX_CLASS));
    }
}
