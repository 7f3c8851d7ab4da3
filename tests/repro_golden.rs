//! Pins the output of `repro`: the FNV-1a digest of `repro all` stdout at a
//! fixed scale, and agreement between `all` and every suite target run on
//! its own.
//!
//! `all` renders Table VII and Figs. 10–16 from shared sweeps, while a
//! single target runs only its own; both paths must print the same text.
//! A change that moves any number fails here.  Re-bless [`ALL_DIGEST`] only
//! for an intended change, and say in CHANGES.md which figures moved and why.

use std::process::Command;

use shm_bench::fnv1a64;

/// Trace scale of the pinned run: the whole test takes about 15 s in a
/// debug build on a 2-core host.
const SCALE: &str = "0.05";

/// FNV-1a 64 of `repro all --scale 0.05` stdout.
const ALL_DIGEST: u64 = 0x9250_cc1e_e870_889d;

/// Targets that `all` renders from its shared sweeps.
const SHARED_TARGETS: [&str; 8] = [
    "table7", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];

/// Runs `repro <target> --scale SCALE --jobs 2` and returns its stdout.
/// `SHM_*` knobs are cleared so the caller's environment cannot shape the
/// simulated system.
fn repro(target: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args([target, "--scale", SCALE, "--jobs", "2"]);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SHM_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {target} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// `all` cut at its `== … ==` headings; each piece keeps the blank line
/// that precedes its heading, as a single target prints it.
fn sections(all: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = vec![0];
    starts.extend(all.match_indices("\n\n== ").map(|(i, _)| i + 1));
    starts.push(all.len());
    starts.windows(2).map(|w| &all[w[0]..w[1]]).collect()
}

#[test]
fn repro_all_output_is_pinned_and_matches_every_single_target() {
    let all = repro("all");
    assert_eq!(
        fnv1a64(all.as_bytes()),
        ALL_DIGEST,
        "repro all --scale {SCALE} output changed (digest {:016x}):\n{all}",
        fnv1a64(all.as_bytes())
    );
    // `all` ends with the shared targets, one section each, in this order.
    let sections = sections(&all);
    let shared = &sections[sections.len() - SHARED_TARGETS.len()..];
    for (target, section) in SHARED_TARGETS.iter().zip(shared) {
        assert_eq!(
            repro(target),
            *section,
            "repro {target} differs from its section of repro all"
        );
    }
}
