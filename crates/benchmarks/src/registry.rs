//! The Table 3 case list: base benchmarks plus their rewrite variants.

use crate::rewrite;
use crate::suite;
use ph_ir::ParserSpec;

/// One evaluated case (a Table 3 row).
#[derive(Clone, Debug)]
pub struct Case {
    /// Row label, e.g. `"Parse Ethernet + R1"`.
    pub name: String,
    /// The (possibly rewritten) specification.
    pub spec: ParserSpec,
    /// Whether the spec contains loops.
    pub loopy: bool,
}

fn case(name: impl Into<String>, spec: ParserSpec) -> Case {
    let loopy = !ph_ir::analysis::is_loop_free(&spec);
    Case {
        name: name.into(),
        spec,
        loopy,
    }
}

/// Builds the full evaluation registry in Table 3 row order.
pub fn registry() -> Vec<Case> {
    let mut out = Vec::new();

    let eth = suite::parse_ethernet();
    out.push(case(eth.name, eth.spec.clone()));
    out.push(case(
        "Parse Ethernet + R1",
        rewrite::r1_add_redundant(&eth.spec),
    ));
    out.push(case(
        "Parse Ethernet - R3",
        rewrite::r3_merge_entries(&eth.spec),
    ));
    out.push(case(
        "Parse Ethernet + R2",
        rewrite::r2_add_unreachable(&eth.spec),
    ));

    let icmp = suite::parse_icmp();
    out.push(case(icmp.name, icmp.spec.clone()));
    out.push(case(
        "Parse icmp + R5",
        rewrite::r5_split_states(&icmp.spec),
    ));
    out.push(case(
        "Parse icmp - R3",
        rewrite::r3_merge_entries(&icmp.spec),
    ));

    let mpls = suite::parse_mpls();
    out.push(case(mpls.name, mpls.spec.clone()));
    out.push(case(
        "Parse MPLS + unroll loop",
        ph_core::cegis::unroll_spec(&mpls.spec, 6),
    ));
    out.push(case(
        "Parse MPLS - R1",
        rewrite::r1_remove_redundant(&mpls.spec),
    ));
    out.push(case(
        "Parse MPLS + R1",
        rewrite::r1_add_redundant(&mpls.spec),
    ));

    let ltk = suite::large_tran_key();
    out.push(case(ltk.name, ltk.spec.clone()));
    out.push(case(
        "Large tran key + R4",
        rewrite::r4_split_key(&ltk.spec, 8),
    ));
    out.push(case(
        "Large tran key + R1 + R4",
        rewrite::r4_split_key(&rewrite::r1_add_redundant(&ltk.spec), 8),
    ));
    out.push(case(
        "Large tran key + R3 + R4",
        rewrite::r4_split_key(&rewrite::r3_split_entries(&ltk.spec), 8),
    ));

    let mks = suite::multi_key_same_field();
    out.push(case(mks.name, mks.spec.clone()));
    out.push(case(
        "Multi-key (same) - R5",
        rewrite::r5_merge_states(&mks.spec),
    ));
    out.push(case(
        "Multi-key (same) - R5 - R3",
        rewrite::r3_merge_entries(&rewrite::r5_merge_states(&mks.spec)),
    ));

    let mkd = suite::multi_key_diff_fields();
    out.push(case(mkd.name, mkd.spec.clone()));
    out.push(case(
        "Multi-keys (diff) + R5",
        rewrite::r5_split_states(&mkd.spec),
    ));
    out.push(case(
        "Multi-keys (diff) - R5",
        rewrite::r5_merge_states(&mkd.spec),
    ));

    let pure = suite::pure_extraction();
    out.push(case(pure.name, pure.spec.clone()));
    out.push(case(
        "Pure Extraction + state merging",
        rewrite::r5_merge_states(&pure.spec),
    ));

    let sai1 = suite::sai_v1();
    out.push(case(sai1.name, sai1.spec.clone()));
    out.push(case("Sai V1 + R2", rewrite::r2_add_unreachable(&sai1.spec)));

    let sai2 = suite::sai_v2();
    out.push(case(sai2.name, sai2.spec.clone()));
    out.push(case(
        "Sai V2 + R1 + R2",
        rewrite::r2_add_unreachable(&rewrite::r1_add_redundant(&sai2.spec)),
    ));

    let dash = suite::dash_v2();
    out.push(case(dash.name, dash.spec.clone()));
    out.push(case(
        "Dash V2 + R1 + R2",
        rewrite::r2_add_unreachable(&rewrite::r1_add_redundant(&dash.spec)),
    ));

    out
}

/// The Table 4 motivating-example cases.
pub fn motivating_examples() -> Vec<Case> {
    vec![
        case("Large tran key", suite::large_tran_key().spec),
        case("ME-1", suite::me1_entry_merging().spec),
        case("ME-2", suite::me2_key_splitting().spec),
        case("ME-3", suite::me3_redundant_entries().spec),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_validates() {
        let cases = registry();
        assert!(
            cases.len() >= 25,
            "expected a full registry, got {}",
            cases.len()
        );
        for c in &cases {
            assert!(c.spec.validate().is_ok(), "{}", c.name);
        }
        // Exactly the MPLS family is loopy (unrolled variant is not).
        let loopy: Vec<&str> = cases
            .iter()
            .filter(|c| c.loopy)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(
            loopy,
            vec!["Parse MPLS", "Parse MPLS - R1", "Parse MPLS + R1"]
        );
    }

    #[test]
    fn variants_differ_from_bases() {
        let cases = registry();
        let by_name = |n: &str| cases.iter().find(|c| c.name == n).unwrap();
        assert_ne!(
            by_name("Parse Ethernet").spec,
            by_name("Parse Ethernet + R1").spec
        );
        assert_ne!(
            by_name("Large tran key").spec,
            by_name("Large tran key + R4").spec
        );
        assert_ne!(
            by_name("Pure Extraction states").spec,
            by_name("Pure Extraction + state merging").spec
        );
    }

    #[test]
    fn motivating_examples_present() {
        let me = motivating_examples();
        assert_eq!(me.len(), 4);
    }
}
