//! Seeded fuzz loops over the command line's untrusted inputs.
//!
//! Mutated, truncated and random request traces (binary and CSV) go
//! through `paba workload inspect` and `paba simulate --workload trace`,
//! and random token sequences through [`Args::parse`]. Every input must
//! come back as `Ok` or `Err`, never as a panic; a truncated binary trace
//! must always be an `Err`.

use crate::args::Args;
use crate::commands::run;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Network flags matching the seed traces' shape (n = 16, K = 6).
const SHAPE: &str = "--side 4 --files 6 --cache 2";

/// Cases per trace format.
const CASES: usize = 200;

fn args(s: &str) -> Args {
    Args::parse(s.split_whitespace().map(String::from)).unwrap()
}

/// Run `cmd` and report whether it returned `Ok`; a panic fails the test
/// naming the case.
fn ok_without_panic(cmd: &str, case: &str) -> bool {
    catch_unwind(AssertUnwindSafe(|| run(&args(cmd))))
        .unwrap_or_else(|_| panic!("`{cmd}` panicked on {case}"))
        .is_ok()
}

/// Run the three trace commands on `path`; whether any returned `Ok`.
fn any_ok(path: &Path, case: &str) -> bool {
    let p = path.display();
    let mut any = false;
    for cmd in [
        format!("workload inspect --trace {p}"),
        format!("simulate {SHAPE} --runs 1 --workload trace --trace {p}"),
        format!("simulate {SHAPE} --runs 1 --requests 20 --workload trace --trace {p} --cycle"),
    ] {
        any |= ok_without_panic(&cmd, case);
    }
    any
}

/// A valid trace of the seed shape, written by `workload generate`.
fn seed_trace(dir: &Path, name: &str) -> Vec<u8> {
    let path = dir.join(name);
    let cmd = format!(
        "workload generate {SHAPE} --requests 40 --out {}",
        path.display()
    );
    run(&args(&cmd)).unwrap();
    std::fs::read(path).unwrap()
}

/// One mutation of `base`: a strict prefix (`true`), or a copy with
/// overwritten bytes, appended garbage, or random bytes (`false`).
fn mutate(base: &[u8], alphabet: &[u8], rng: &mut SmallRng) -> (Vec<u8>, bool) {
    let byte = |rng: &mut SmallRng| alphabet[rng.gen_range(0..alphabet.len())];
    match rng.gen_range(0..4) {
        0 => (base[..rng.gen_range(0..base.len())].to_vec(), true),
        1 => {
            let mut out = base.to_vec();
            for _ in 0..rng.gen_range(1..=4) {
                let i = rng.gen_range(0..out.len());
                out[i] = byte(rng);
            }
            (out, false)
        }
        2 => {
            let mut out = base.to_vec();
            out.extend((0..rng.gen_range(1..16)).map(|_| byte(rng)));
            (out, false)
        }
        _ => (
            (0..rng.gen_range(0..64)).map(|_| byte(rng)).collect(),
            false,
        ),
    }
}

#[test]
fn trace_inputs_never_panic() {
    let dir = std::env::temp_dir().join(format!("paba_cli_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bytes: Vec<u8> = (0..=255).collect();
    let text = b"0123456789,=nk-origin file\n\r \xff";
    for (name, alphabet, seed) in [("seed.trace", &bytes[..], 1u64), ("seed.csv", &text[..], 2)] {
        let base = seed_trace(&dir, name);
        assert!(any_ok(&dir.join(name), "the seed trace"));
        let binary = name.ends_with(".trace");
        let case_path = dir.join(format!("case_{name}"));
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..CASES {
            let (input, truncated) = mutate(&base, alphabet, &mut rng);
            std::fs::write(&case_path, &input).unwrap();
            let case = format!("{name} case {i} ({} bytes)", input.len());
            let ok = any_ok(&case_path, &case);
            if binary && truncated {
                assert!(!ok, "truncated binary trace accepted: {case}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_argv_never_panics_the_parser() {
    const TOKENS: [&str; 16] = [
        "simulate",
        "workload",
        "inspect",
        "--side",
        "--side=",
        "--=",
        "--",
        "-",
        "=",
        "",
        "--runs=3=4",
        "3",
        "--cycle",
        "--seed",
        "é",
        "--é=x",
    ];
    let mut rng = SmallRng::seed_from_u64(3);
    for i in 0..2_000 {
        let argv: Vec<String> = (0..rng.gen_range(0..8))
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())].to_string())
            .collect();
        let parsed = catch_unwind(|| Args::parse(argv.clone()));
        assert!(parsed.is_ok(), "case {i}: Args::parse panicked on {argv:?}");
    }
}
