//! Records the compiler version and the `target-cpu` codegen flag, so every
//! result names the toolchain and ISA it was measured with.

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

    // Cargo hands the effective rustflags (from `.cargo/config.toml` or
    // RUSTFLAGS) to build scripts separated by 0x1f.
    // The flag arrives as `-C` `target-cpu=X` or as `-Ctarget-cpu=X`; the
    // last one wins, as it does for rustc.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let cpu = flags
        .split('\x1f')
        .filter_map(|p| p.trim_start_matches("-C").strip_prefix("target-cpu="))
        .next_back()
        .unwrap_or("default");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
