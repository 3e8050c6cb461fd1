//! DIMACS CNF input/output.
//!
//! Lets the SAT substrate be exercised standalone against standard CNF
//! benchmarks, independent of the bit-vector layer.

use crate::{Lit, Solver, Var};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// The process-wide CNF dump directory (see [`set_cnf_dump_dir`]).
static DUMP_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Makes every later [`dump_cnf_if_requested`] call write its query under
/// `dir`, and turns simplification off in every solver created or
/// reconfigured from then on, so the dumps hold the raw blasted CNF rather
/// than an already-simplified database.  Set once per process, before any
/// solving; returns `false` (and changes nothing) if a directory was
/// already set.
pub fn set_cnf_dump_dir(dir: impl Into<PathBuf>) -> bool {
    DUMP_DIR.set(dir.into()).is_ok()
}

/// The directory set by [`set_cnf_dump_dir`], if any.
pub(crate) fn cnf_dump_dir() -> Option<&'static Path> {
    DUMP_DIR.get().map(PathBuf::as_path)
}

/// When a dump directory is set ([`set_cnf_dump_dir`]), writes the
/// solver's current clause database — plus the query's assumptions, as `c`
/// comments — to `<dir>/query-<n>.cnf` for offline replay (`cnf_replay`).
/// A no-op otherwise.
///
/// `ph-smt` calls this on every `check` query.
pub fn dump_cnf_if_requested(solver: &Solver, assumptions: &[Lit]) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let Some(dir) = cnf_dump_dir() else {
        return;
    };
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut text = String::new();
    if !assumptions.is_empty() {
        text.push_str("c assumptions:");
        for l in assumptions {
            let v = l.var().0 as i64 + 1;
            text.push(' ');
            text.push_str(&(if l.is_neg() { -v } else { v }).to_string());
        }
        text.push('\n');
    }
    text.push_str(&write_dimacs(solver));
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(format!("query-{n:05}.cnf")), text);
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

    #[test]
    fn dump_cnf_hook_writes_numbered_queries() {
        // The only test in this binary that sets the process-wide
        // directory.
        let dir = std::env::temp_dir().join(format!("ph_dump_cnf_test_{}", std::process::id()));
        assert!(set_cnf_dump_dir(&dir));
        let (s, _) = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        dump_cnf_if_requested(&s, &[]);
        dump_cnf_if_requested(&s, &[Lit::neg(Var(1))]);
        let q0 = std::fs::read_to_string(dir.join("query-00000.cnf")).unwrap();
        let q1 = std::fs::read_to_string(dir.join("query-00001.cnf")).unwrap();
        let (mut reparsed, _) = parse_dimacs(&q0).unwrap();
        assert_eq!(reparsed.solve(), Some(true));
        assert!(q1.starts_with("c assumptions: -2\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
