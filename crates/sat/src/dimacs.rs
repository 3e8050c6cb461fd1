//! DIMACS CNF input/output.
//!
//! Lets the SAT substrate be exercised standalone against standard CNF
//! benchmarks, independent of the bit-vector layer.

use crate::{Lit, Solver, Var};

/// Parses DIMACS CNF text into a fresh [`Solver`].
///
/// Returns the solver and the number of variables declared in the header.
/// Lines starting with `c` are comments; the `p cnf <vars> <clauses>` header
/// is required before any clause.  Blank lines, CRLF line endings, clauses
/// spanning multiple lines, a missing trailing `0`/newline at end of input,
/// and the SATLIB `%` end-of-file marker are all tolerated.
///
/// # Errors
///
/// Returns a human-readable message on malformed input.
pub fn parse_dimacs(text: &str) -> Result<(Solver, usize), String> {
    let mut solver = Solver::new();
    let mut declared_vars: Option<usize> = None;
    let mut clause: Vec<Lit> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('%') {
            // SATLIB benchmark files end with a "%" marker followed by a
            // stray "0"; everything after it is padding.
            break;
        }
        if line.starts_with('p') {
            let mut parts = line.split_whitespace();
            let _p = parts.next();
            if parts.next() != Some("cnf") {
                return Err(format!("line {}: expected 'p cnf'", lineno + 1));
            }
            let nv: usize = parts
                .next()
                .ok_or_else(|| format!("line {}: missing var count", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            declared_vars = Some(nv);
            for _ in 0..nv {
                solver.new_var();
            }
            continue;
        }
        let nv =
            declared_vars.ok_or_else(|| format!("line {}: clause before header", lineno + 1))?;
        for tok in line.split_whitespace() {
            let v: i64 = tok
                .parse()
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if v == 0 {
                solver.add_clause(clause.drain(..));
            } else {
                let idx = v.unsigned_abs() as usize - 1;
                if idx >= nv {
                    return Err(format!("line {}: variable {v} out of range", lineno + 1));
                }
                clause.push(Lit::new(Var(idx as u32), v < 0));
            }
        }
    }
    if !clause.is_empty() {
        solver.add_clause(clause.drain(..));
    }
    Ok((solver, declared_vars.unwrap_or(0)))
}

/// Serializes the solver's problem clauses as DIMACS CNF text.
pub fn write_dimacs(solver: &Solver) -> String {
    let clauses = solver.export_clauses();
    let mut out = format!("p cnf {} {}\n", solver.num_vars(), clauses.len());
    for c in clauses {
        for l in c {
            let v = l.var().0 as i64 + 1;
            let signed = if l.is_neg() { -v } else { v };
            out.push_str(&signed.to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_sat() {
        let (mut s, nv) = parse_dimacs("c comment\np cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        assert_eq!(nv, 2);
        assert_eq!(s.solve(), Some(true));
        assert_eq!(s.value(Var(0)), Some(false));
        assert_eq!(s.value(Var(1)), Some(true));
    }

    #[test]
    fn parse_unsat() {
        let (mut s, _) = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        assert_eq!(s.solve(), Some(false));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_dimacs("1 2 0").is_err());
        assert!(parse_dimacs("p cnf 1 1\n5 0").is_err());
        assert!(parse_dimacs("p dnf 1 1\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "p cnf 3 3\n1 2 0\n-2 3 0\n-3 0\n";
        let (s, _) = parse_dimacs(text).unwrap();
        let out = write_dimacs(&s);
        let (mut s2, _) = parse_dimacs(&out).unwrap();
        assert_eq!(s2.solve(), Some(true));
    }

    #[test]
    fn clause_without_trailing_zero_at_eof() {
        let (mut s, _) = parse_dimacs("p cnf 1 1\n1").unwrap();
        assert_eq!(s.solve(), Some(true));
        assert_eq!(s.value(Var(0)), Some(true));
    }

    #[test]
    fn tolerates_blank_lines_comments_and_crlf() {
        let text = "c header comment\r\n\r\np cnf 3 2\r\nc mid comment\r\n1 -2 0\r\n\r\n2 3 0\r\n";
        let (mut s, nv) = parse_dimacs(text).unwrap();
        assert_eq!(nv, 3);
        assert_eq!(s.solve(), Some(true));
    }

    #[test]
    fn tolerates_clause_spanning_lines_and_missing_final_newline() {
        // One clause split across two lines, a second with no trailing 0 or
        // newline at end of input.
        let (mut s, _) = parse_dimacs("p cnf 3 2\n1\n-2 0\n2 3").unwrap();
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.solve(), Some(true));
    }

    #[test]
    fn tolerates_satlib_percent_eof_marker() {
        let (mut s, _) = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n%\n0\n\n").unwrap();
        assert_eq!(s.solve(), Some(true));
        assert_eq!(s.value(Var(1)), Some(true));
    }

    /// Round-trip: parse → write → parse must preserve the clause set
    /// exactly (as sets of sorted literal vectors), including level-0 units.
    #[test]
    fn roundtrip_preserves_clause_set() {
        let mut rng = ph_bits::Rng::seed_from_u64(0xd1_3ac5);
        for _ in 0..50 {
            let nv = rng.gen_range(2..=9usize);
            let nc = rng.gen_range(1..=nv * 3);
            let mut text = format!("p cnf {nv} {nc}\n");
            for _ in 0..nc {
                let len = rng.gen_range(1..=3usize);
                for _ in 0..len {
                    let v = rng.gen_range(1..=nv) as i64;
                    let signed = if rng.gen_bool(0.5) { -v } else { v };
                    text.push_str(&format!("{signed} "));
                }
                text.push_str("0\n");
            }
            let Ok((s1, nv1)) = parse_dimacs(&text) else {
                continue;
            };
            let out1 = write_dimacs(&s1);
            let (s2, nv2) = parse_dimacs(&out1).unwrap();
            assert_eq!(nv1, nv2);
            let norm = |s: &Solver| {
                let mut cs: Vec<Vec<i64>> = write_dimacs(s)
                    .lines()
                    .skip(1)
                    .map(|l| {
                        let mut c: Vec<i64> = l
                            .split_whitespace()
                            .map(|t| t.parse::<i64>().unwrap())
                            .filter(|&x| x != 0)
                            .collect();
                        c.sort_unstable();
                        c
                    })
                    .collect();
                cs.sort();
                cs
            };
            assert_eq!(norm(&s1), norm(&s2), "round-trip changed clause set");
        }
    }
}
