//! Records the toolchain and build flags in the binary, for the machine
//! stamp printed with every result.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let native = flags.split('\x1f').any(|f| f.contains("target-cpu=native"));
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU_NATIVE={native}");

    // The commit is known only when the benchmark builds inside a git
    // checkout; an exported source tree reports "unknown".
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = repo.join(".git").join("HEAD");
    let commit = if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(r) = std::fs::read_to_string(&head)
            .ok()
            .and_then(|h| h.trim().strip_prefix("ref: ").map(|r| repo.join(".git").join(r)))
        {
            println!("cargo:rerun-if-changed={}", r.display());
        }
        Command::new("git")
            .arg("-C")
            .arg(&repo)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    } else {
        "unknown".to_string()
    };
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
