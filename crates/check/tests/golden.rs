//! Golden-fixture suite for the lint rules.
//!
//! Every `tests/fixtures/*.rs` file declares, on its first line, the
//! workspace path it should be linted *as* (`//@ path: crates/...` — the
//! path decides the crate kind and hot-path predicate), and annotates each
//! expected diagnostic with a `//~ rule-name [rule-name...]` marker on the
//! violating line. The harness diffs the (line, rule) multiset the linter
//! produces against the markers, so a fixture fails on false negatives AND
//! false positives.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use bikecap_check::{lint_source, Rule};

/// Every rule must have at least one true-positive marker across the suite.
const ALL_RULES: &[Rule] = &[
    Rule::NoUnwrap,
    Rule::NoExpect,
    Rule::NoPanic,
    Rule::NoIndex,
    Rule::NoLossyCast,
    Rule::BackpressureDoc,
    Rule::AtomicCheckpointWrite,
    Rule::NoPrintln,
    Rule::NoRawSpawn,
    Rule::NoGlobalSinkInstall,
    Rule::NoAllocInHotPath,
    Rule::UnsafeContract,
    Rule::LockOrder,
    Rule::NondetFloatReduction,
];

#[test]
fn golden_fixtures_match_expected_diagnostics() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut fixtures = 0usize;
    let mut covered: BTreeSet<String> = BTreeSet::new();

    let mut paths: Vec<_> = fs::read_dir(&dir)
        .expect("tests/fixtures exists")
        .map(|e| e.expect("read_dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();

    for path in paths {
        let src = fs::read_to_string(&path).expect("fixture readable");
        let declared = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ path: "))
            .unwrap_or_else(|| panic!("{}: first line must be `//@ path: ...`", path.display()))
            .trim()
            .to_string();

        let mut expected: Vec<(usize, String)> = Vec::new();
        for (idx, l) in src.lines().enumerate() {
            if let Some(pos) = l.find("//~") {
                for rule in l[pos + 3..].split_whitespace() {
                    covered.insert(rule.to_string());
                    expected.push((idx + 1, rule.to_string()));
                }
            }
        }

        let mut actual: Vec<(usize, String)> = lint_source(&declared, &src)
            .into_iter()
            .map(|f| (f.line, f.rule.name().to_string()))
            .collect();
        expected.sort();
        actual.sort();
        assert_eq!(
            actual,
            expected,
            "fixture {} (linted as {declared})",
            path.display()
        );
        fixtures += 1;
    }

    assert!(fixtures >= 16, "expected at least 16 fixtures, found {fixtures}");
    let missing: Vec<&str> = ALL_RULES
        .iter()
        .map(|r| r.name())
        .filter(|name| !covered.contains(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "rules without a golden true positive: {missing:?}"
    );
}
