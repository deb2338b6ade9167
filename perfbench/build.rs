//! Records the compiler version and, when the checkout is a git
//! repository, the commit, so every result names the build it came from.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit());
    println!("cargo:rerun-if-changed=build.rs");
}

/// The commit named by `../.git/HEAD`, read without leaving the checkout.
fn commit() -> String {
    let git = Path::new("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            println!("cargo:rerun-if-changed=../.git/{reference}");
            std::fs::read_to_string(git.join(reference))
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string())
        }
        None => head.to_string(),
    }
}
