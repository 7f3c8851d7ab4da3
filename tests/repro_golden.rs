//! Pins the output of `repro`: the FNV-1a digest of `repro all` stdout at a
//! fixed scale, and agreement between `all` and every suite target run on
//! its own.
//!
//! `all` renders Table VII and Figs. 10–16 from shared sweeps, while a
//! single target runs only its own; both paths must print the same text.
//! A change that moves any number fails here.  Re-bless [`ALL_DIGEST`] only
//! for an intended change, and say in CHANGES.md which figures moved and why.

use std::process::Command;

use gpu_types::fnv1a64;

/// Trace scale of the pinned run: the whole test takes about 15 s in a
/// debug build on a 2-core host.
const SCALE: &str = "0.05";

/// FNV-1a 64 of `repro all --scale 0.05` stdout.
const ALL_DIGEST: u64 = 0x9250_cc1e_e870_889d;

/// FNV-1a 64 of `repro all --scale 0.25` stdout at any `--jobs`: the larger
/// pinned run, too slow for a debug test build, so it is `#[ignore]`d and
/// run with `cargo test --release --test repro_golden -- --ignored`.
const ALL_DIGEST_QUARTER: u64 = 0x406f_0b36_9931_954b;

/// Targets that `all` renders from its shared sweeps.
const SHARED_TARGETS: [&str; 8] = [
    "table7", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];

/// Runs `repro <target> --scale <scale> --jobs <jobs>` and returns its
/// stdout.  `SHM_*` knobs are cleared so the caller's environment cannot
/// shape the simulated system.
fn repro_at(target: &str, scale: &str, jobs: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args([target, "--scale", scale, "--jobs", jobs]);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SHM_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {target} --jobs {jobs} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro prints UTF-8")
}

/// [`repro_at`] at the pinned [`SCALE`] on two workers.
fn repro(target: &str) -> String {
    repro_at(target, SCALE, "2")
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

/// The serial run and a four-worker run print the same pinned bytes: the
/// work-stealing pool reassembles results in submission order.
#[test]
#[ignore = "slow in a debug build; run with --release -- --ignored"]
fn repro_all_at_quarter_scale_is_pinned() {
    for jobs in ["1", "4"] {
        let all = repro_at("all", "0.25", jobs);
        assert_eq!(
            fnv1a64(all.as_bytes()),
            ALL_DIGEST_QUARTER,
            "repro all --scale 0.25 --jobs {jobs} output changed (digest {:016x})",
            fnv1a64(all.as_bytes())
        );
    }
}
