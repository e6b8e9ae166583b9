//! The fig9 toggle registry stays in step with `Techniques::without`.
//!
//! `fig9_techniques --list` is what the CI ablation smoke loops over, so a
//! registry key that `without` rejects (a retired toggle) or that ablates
//! nothing (an alias) would otherwise surface only in that minutes-long
//! release run.

use hare_core::Techniques;
use std::process::Command;

#[test]
fn every_registered_toggle_ablates_something() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9_techniques"))
        .arg("--list")
        .output()
        .expect("run fig9_techniques --list");
    assert!(out.status.success(), "--list failed: {out:?}");
    let keys: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 key list")
        .lines()
        .map(str::to_owned)
        .collect();
    assert!(!keys.is_empty(), "empty registry");
    for key in &keys {
        let t = std::panic::catch_unwind(|| Techniques::without(key))
            .unwrap_or_else(|_| panic!("registry key {key:?} is not a technique"));
        assert_ne!(t, Techniques::default(), "{key:?} disables nothing");
    }
    let mut unique = keys.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), keys.len(), "duplicate registry keys");
}
