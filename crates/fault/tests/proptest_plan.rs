//! Property tests for the fault-plan file format: `FaultPlan::parse`
//! returns `Ok` or `Err` on any input and never panics, and a generated
//! plan survives `parse(format(p))` with an identical `format`.

use kacc_fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
use proptest::prelude::*;

/// The grammar's tokens plus a few near-misses.
const TOKENS: &[&str] = &[
    "seed ",
    "rule ",
    "# ",
    "\n",
    " ",
    "=",
    ",",
    "*",
    "/",
    ".",
    "-",
    "e",
    "ops=",
    "ranks=",
    "peers=",
    "prob=",
    "max=",
    "after=",
    "kind=",
    "frac=",
    "errno=",
    "rank=",
    "ns=",
    "truncate",
    "transient",
    "perm_denied",
    "peer_dead",
    "delay",
    "cma_read",
    "shm_send",
    "0",
    "1",
    "7",
    "0.5",
    "1e9",
    "NaN",
    "inf",
    "18446744073709551616",
    "é",
];

/// A plan file of grammar tokens and raw bytes (decoded lossily).
fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..TOKENS.len() + 1, any::<u8>()), 0..64).prop_map(|parts| {
        let mut bytes = Vec::new();
        for (i, raw) in parts {
            match TOKENS.get(i) {
                Some(t) => bytes.extend_from_slice(t.as_bytes()),
                None => bytes.push(raw),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

fn kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (0usize..8, 1usize..8).prop_map(|(numer, denom)| FaultKind::Truncate { numer, denom }),
        any::<i32>().prop_map(|errno| FaultKind::Transient { errno }),
        Just(FaultKind::PermDenied),
        (0usize..256).prop_map(|rank| FaultKind::PeerDead { rank }),
        any::<u64>().prop_map(|ns| FaultKind::Delay { ns }),
    ]
}

fn rule() -> impl Strategy<Value = FaultRule> {
    let ranks = || proptest::collection::vec(0usize..1024, 0..4);
    (
        (kind(), 0u32..=1_000_000),
        proptest::collection::vec(0usize..FaultOp::ALL.len(), 0..4),
        (ranks(), ranks()),
        (proptest::bool::ANY, any::<u32>(), any::<u64>()),
    )
        .prop_map(|((kind, ppm), ops, (ranks, peers), (capped, max, after))| {
            let ops: Vec<FaultOp> = ops.into_iter().map(|i| FaultOp::ALL[i]).collect();
            let mut r = FaultRule::new(kind, f64::from(ppm) / 1_000_000.0)
                .ops_mask(&ops)
                .ranks_mask(&ranks)
                .after(after);
            r.peers = peers;
            if capped {
                r = r.max(max);
            }
            r
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn parse_never_panics_on_token_soup(text in soup()) {
        let _ = FaultPlan::parse(&text);
    }

    #[test]
    fn a_generated_plan_survives_format_and_parse(
        seed in any::<u64>(),
        rules in proptest::collection::vec(rule(), 0..6),
    ) {
        let plan = rules.into_iter().fold(FaultPlan::new(seed), FaultPlan::rule);
        let text = plan.format();
        let back = FaultPlan::parse(&text);
        prop_assert!(back.is_ok(), "{:?} on\n{}", back.err(), text);
        let back = back.expect("checked above");
        prop_assert_eq!(back.format(), text);
        prop_assert_eq!(back.seed, plan.seed);
        prop_assert_eq!(back.rules, plan.rules);
    }
}
