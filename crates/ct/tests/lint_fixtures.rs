//! Positive and negative lint fixtures: each rule must fire on the
//! violating source and stay quiet on the constant-time rewrite.
//!
//! Fixture sources are string literals, so the workspace-wide scan (see
//! `workspace_lint.rs`) never sees them — the scrubber blanks string
//! contents before any rule runs.

use falcon_ct::{CallAllowlist, FileOutcome, Rule, SourceFile, Violation};

fn lint_source(file: &str, src: &str, allow: &CallAllowlist) -> FileOutcome {
    falcon_ct::lint_source(&SourceFile::new(file, src), allow)
}

fn audit_source(file: &str, src: &str) -> Vec<Violation> {
    falcon_ct::audit::audit_source(&SourceFile::new(file, src))
}

fn audit_rules_of(src: &str) -> Vec<Rule> {
    audit_source("crates/x/src/fixture.rs", src).iter().map(|v| v.rule).collect()
}

fn rules_of(src: &str) -> Vec<Rule> {
    let out = lint_source("fixture.rs", src, &CallAllowlist::workspace_default());
    out.violations.iter().map(|v| v.rule).collect()
}

fn assert_clean(src: &str) {
    let out = lint_source("fixture.rs", src, &CallAllowlist::workspace_default());
    assert!(out.violations.is_empty(), "expected clean, got: {:#?}", out.violations);
}

#[test]
fn secret_branch_on_if() {
    let src = "// ct: secret(key)\nif key > 0 { x = 1; }\n// ct: end\n";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch]);
}

#[test]
fn secret_branch_on_while_and_match() {
    let src = "// ct: secret(k)\nwhile k != 0 { }\nmatch k { _ => {} }\n// ct: end\n";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch, Rule::SecretBranch]);
}

#[test]
fn secret_branch_on_range_for_but_not_slice_for() {
    // A secret range bound is a data-dependent trip count…
    let tainted_range = "// ct: secret(n)\nfor i in 0..n { }\n// ct: end\n";
    assert_eq!(rules_of(tainted_range), vec![Rule::SecretBranch]);
    // …but iterating a secret-valued slice of public length is fine.
    let slice = "// ct: secret(buf)\nfor b in buf.iter() { }\n// ct: end\n";
    assert_clean(slice);
}

#[test]
fn short_circuit_booleans_are_branches() {
    let src = "// ct: secret(a)\nlet ok = a > 0 && flag;\n// ct: end\n";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch]);
    // The constant-time idiom passes.
    assert_clean("// ct: secret(a)\nlet ok = (a > 0) & flag;\n// ct: end\n");
}

#[test]
fn secret_index_flags_index_not_base() {
    // Secret used as the index: flagged.
    let bad = "// ct: secret(j)\nlet v = table[j];\n// ct: end\n";
    assert_eq!(rules_of(bad), vec![Rule::SecretIndex]);
    // Secret-valued base with a public index: fixed address, clean.
    assert_clean("// ct: secret(buf)\nlet v = buf[3];\n// ct: end\n");
}

#[test]
fn secret_divmod() {
    let src = "// ct: secret(x)\nlet q = x / 3;\nlet r = x % 3;\n// ct: end\n";
    assert_eq!(rules_of(src), vec![Rule::SecretDivMod, Rule::SecretDivMod]);
    // Division inside a string or on an untainted line is fine.
    assert_clean("// ct: secret(x)\nlet msg = \"a/b\";\nlet half = n / 2;\n// ct: end\n");
}

#[test]
fn secret_call_respects_allowlist() {
    let bad = "// ct: secret(x)\nlet y = mystery(x);\n// ct: end\n";
    assert_eq!(rules_of(bad), vec![Rule::SecretCall]);
    // Allowlisted and constructor calls pass.
    assert_clean("// ct: secret(x)\nlet y = x.wrapping_neg();\nlet z = Fpr(x);\n// ct: end\n");
    // A custom allowlist can admit local helpers.
    let allow = CallAllowlist::workspace_default().with("mystery");
    let out = lint_source("fixture.rs", bad, &allow);
    assert!(out.violations.is_empty());
}

#[test]
fn unsafe_flagged_everywhere() {
    // Outside any region.
    let src = "fn f() { let p = unsafe { *ptr }; }\n";
    assert_eq!(rules_of(src), vec![Rule::UnsafeCode]);
}

#[test]
fn unsafe_code_defers_to_audit_in_allowed_modules() {
    // Inside an allowlisted SIMD module the blanket unsafe-code rule
    // stands down — the unsafe-audit pass owns the file and demands a
    // `// SAFETY:` comment per block, which this bare fixture lacks.
    let src = "fn f() { let p = unsafe { *ptr }; }\n";
    let out = lint_source("crates/core/src/cpa/simd.rs", src, &CallAllowlist::workspace_default());
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    let audit = audit_source("crates/core/src/cpa/simd.rs", src);
    assert!(audit.iter().any(|v| v.rule == Rule::UnsafeAudit), "{audit:?}");
}

#[test]
fn taint_propagates_through_bindings() {
    // y inherits x's taint through the let, so the branch on y fires.
    let src = "// ct: secret(x)\nlet y = x + 1;\nif y > 0 { }\n// ct: end\n";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch]);
    // Compound assignment also propagates.
    let src2 = "// ct: secret(x)\nlet mut acc = 0;\nacc += x;\nif acc > 0 { }\n// ct: end\n";
    assert_eq!(rules_of(src2), vec![Rule::SecretBranch]);
    // Destructuring taints every bound name.
    let src3 = "// ct: secret(pair)\nlet (a, b) = pair;\nif b == 0 { }\n// ct: end\n";
    assert_eq!(rules_of(src3), vec![Rule::SecretBranch]);
}

#[test]
fn allow_suppresses_one_line() {
    // Trailing form.
    let t = "// ct: secret(x)\nif x > 0 { } // ct: allow(documented rejection)\n// ct: end\n";
    assert_clean(t);
    // Standalone form applies to the next code line only.
    let s = "// ct: secret(x)\n// ct: allow(documented rejection)\nif x > 0 { }\nif x < 0 { }\n// ct: end\n";
    assert_eq!(rules_of(s), vec![Rule::SecretBranch]);
}

#[test]
fn multiline_statement_is_scanned_as_one() {
    // Regression for the pre-v2 scanner, which checked physical lines:
    // a condition split across lines hid the secret comparison from the
    // branch rule because `if (` and `key > 0` never met.
    let src = "\
// ct: secret(key)
if (flag
    && key > 0)
{
    x = 1;
}
// ct: end
";
    let rules = rules_of(src);
    assert!(rules.contains(&Rule::SecretBranch), "{rules:?}");

    // A multi-line binding chain still propagates taint into the branch.
    let chained = "\
// ct: secret(k)
let y = k
    + offset;
if y > 0 { }
// ct: end
";
    assert_eq!(rules_of(chained), vec![Rule::SecretBranch]);
}

#[test]
fn planted_map_iteration_fixture_is_flagged() {
    // The deliberately wrong pattern the determinism lint exists for:
    // iterating a randomised-order map while building a result.
    let src = "\
fn tally(hits: HashMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, _) in hits.iter() {
        out.push(k.clone());
    }
    out
}
";
    let rules = audit_rules_of(src);
    assert!(rules.contains(&Rule::DetMapIter), "{rules:?}");

    // The ordered rewrite is quiet.
    let fixed = src.replace("HashMap", "BTreeMap");
    assert!(!audit_rules_of(&fixed).contains(&Rule::DetMapIter));
}

#[test]
fn planted_unsafe_without_safety_comment_is_flagged() {
    // In an allowlisted SIMD module, `unsafe` is admitted only with a
    // `// SAFETY:` justification directly above.
    let bare = "fn load(p: *const f64) -> f64 {\n    unsafe { *p }\n}\n";
    let v = audit_source("crates/fpr/src/simd/mod.rs", bare);
    assert!(v.iter().any(|x| x.rule == Rule::UnsafeAudit), "{v:?}");

    let justified = "\
fn load(p: *const f64) -> f64 {
    // SAFETY: caller guarantees p is aligned and in-bounds.
    unsafe { *p }
}
";
    let v = audit_source("crates/fpr/src/simd/mod.rs", justified);
    assert!(v.is_empty(), "{v:?}");

    // Outside the allowlist even a justified block is rejected.
    let v = audit_source("crates/falcon/src/fft.rs", justified);
    assert!(v.iter().any(|x| x.rule == Rule::UnsafeAudit), "{v:?}");
}

#[test]
fn public_field_paths_are_exempt_from_taint() {
    // `sk` is secret, but `sk.logn` is declared public: branching on the
    // public projection is fine while the secret fields still fire.
    let src = "\
// ct: secret(sk)
// ct: public(sk.logn)
if sk.logn() > 9 { }
// ct: end
";
    assert_clean(src);
    // The other fields of the same value stay tainted.
    let mixed = "\
// ct: secret(sk)
// ct: public(sk.logn)
if sk.logn() > 9 { }
if sk.f > 0 { }
// ct: end
";
    assert_eq!(rules_of(mixed), vec![Rule::SecretBranch]);
}

#[test]
fn public_paths_do_not_sanitize_derived_bindings() {
    // Copying a *secret* projection into a local keeps the taint; only
    // the declared public path itself is exempt.
    let src = "\
// ct: secret(sk)
// ct: public(sk.logn)
let c = sk.f;
if c > 0 { }
// ct: end
";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch]);
}

#[test]
fn reassignment_kills_taint() {
    // Flow sensitivity: rebinding a tainted local to a public value
    // clears it, so the later branch is clean…
    let killed = "\
// ct: secret(k)
let mut x = k;
x = 0;
if x > 0 { }
// ct: end
";
    assert_clean(killed);
    // …but a *use* before the kill still fires, and a compound
    // assignment (`+=`) is a gen, not a kill.
    let compound = "\
// ct: secret(k)
let mut x = 0;
x += k;
x = x + 1;
if x > 0 { }
// ct: end
";
    assert_eq!(rules_of(compound), vec![Rule::SecretBranch]);
}

#[test]
fn conditional_kill_does_not_sanitize() {
    // A kill inside a braced arm merges with the fall-through state at
    // the closing brace (union-join): `x` may still be secret after the
    // `if`, so the branch fires.
    let src = "\
// ct: secret(k)
let mut x = k;
if flag {
    x = 0;
}
if x > 0 { }
// ct: end
";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch]);
}

#[test]
fn field_and_index_stores_are_not_kills() {
    // `buf[i] = 0` and `s.a = 0` overwrite one lane, not the binding —
    // the whole value stays tainted.
    let src = "\
// ct: secret(buf)
buf[0] = 0;
if buf[1] > 0 { }
// ct: end
";
    assert_eq!(rules_of(src), vec![Rule::SecretBranch]);
}

#[test]
fn annotation_errors() {
    // Empty allow reason.
    assert_eq!(rules_of("// ct: allow()\n"), vec![Rule::Annotation]);
    // Unknown directive (typo cannot silently disable checking).
    assert_eq!(rules_of("// ct: secert(x)\n"), vec![Rule::Annotation]);
    // Unbalanced end.
    assert_eq!(rules_of("// ct: end\n"), vec![Rule::Annotation]);
    // Region left open at EOF.
    assert_eq!(rules_of("// ct: secret(x)\nlet y = x;\n"), vec![Rule::Annotation]);
}

#[test]
fn debug_asserts_are_exempt() {
    let src = "// ct: secret(m)\ndebug_assert!(m == 0 || m > 7, \"bad\");\n// ct: end\n";
    assert_clean(src);
}

#[test]
fn checks_stop_at_region_end() {
    let src = "// ct: secret(x)\nlet y = x;\n// ct: end\nif y > 0 { }\n";
    assert_clean(src);
}

#[test]
fn doc_comment_directives_are_inert() {
    let src = "/// Example: `// ct: secret(x)` opens a region.\nfn f() {}\n";
    assert_clean(src);
}

#[test]
fn violations_carry_location_and_fingerprint() {
    let src = "// ct: secret(k)\nlet a = 1;\nif k > 0 { }\n// ct: end\n";
    let out = lint_source("crates/x/src/f.rs", src, &CallAllowlist::workspace_default());
    assert_eq!(out.violations.len(), 1);
    let v = &out.violations[0];
    assert_eq!((v.file.as_str(), v.line), ("crates/x/src/f.rs", 3));
    assert_eq!(v.fingerprint().len(), 16);
    assert_eq!(out.regions, 1);
    // Display is file:line: [rule] message.
    let shown = v.to_string();
    assert!(shown.starts_with("crates/x/src/f.rs:3: [secret-branch]"), "{shown}");
}

#[test]
fn tree_scan_skips_nested_cargo_workspaces() {
    // A subdirectory whose manifest declares its own `[workspace]` is a
    // separate build (like `attackbench/`), outside this workspace's
    // contract; a plain member crate is scanned.
    let root = std::env::temp_dir().join(format!("falcon-ct-nested-{}", std::process::id()));
    let leaky = "// ct: secret(k)\nif k > 0 { }\n// ct: end\n";
    for (dir, manifest) in [("member", "[package]\n"), ("nested", "[package]\n\n[workspace]\n")] {
        std::fs::create_dir_all(root.join(dir).join("src")).unwrap();
        std::fs::write(root.join(dir).join("Cargo.toml"), manifest).unwrap();
        std::fs::write(root.join(dir).join("src/lib.rs"), leaky).unwrap();
    }
    let out = falcon_ct::lint_tree(&root, &CallAllowlist::workspace_default()).unwrap();
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.files, 1);
    let files: Vec<&str> = out.violations.iter().map(|v| v.file.as_str()).collect();
    assert_eq!(files, ["member/src/lib.rs"]);
}
