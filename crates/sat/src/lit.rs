//! Variables and literals.
//!
//! A [`Var`] is an index into the solver's variable table; a [`Lit`] is a
//! variable plus a sign, packed into a single `u32` so literal arrays stay
//! cache-friendly (the usual MiniSat encoding: `lit = 2*var + sign`).

use std::fmt;
use std::ops::Not;

/// A propositional variable (0-based index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable with a polarity.  `2*var` is the positive literal,
/// `2*var + 1` the negative one.
///
/// `repr(transparent)` over the packed `u32` is a layout guarantee the
/// clause arena relies on: clause literals are stored as raw words in one
/// flat `Vec<u32>` and re-viewed as `&[Lit]` without copying.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = negated).
    #[inline]
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit((v.0 << 1) | negated as u32)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True when this is the negative literal.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index usable for watch lists (`0..2*num_vars`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::index`].
    #[inline]
    pub fn from_index(i: usize) -> Lit {
        Lit(i as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "¬" } else { "" },
            self.var().0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
        assert!(!Lit::pos(v).is_neg());
        assert!(Lit::neg(v).is_neg());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!Lit::neg(v), Lit::pos(v));
        assert_eq!(Lit::from_index(Lit::neg(v).index()), Lit::neg(v));
    }

    #[test]
    fn new_matches_pos_neg() {
        let v = Var(3);
        assert_eq!(Lit::new(v, false), Lit::pos(v));
        assert_eq!(Lit::new(v, true), Lit::neg(v));
    }
}
