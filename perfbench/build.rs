//! Build-time half of the machine fingerprint: the rustc that compiled
//! the benchmark, the git commit when the tree is a checkout, and a
//! digest of every source file that goes into the benchmark binary (the
//! workspace, its vendored crates and the benchmark's own sources), so
//! that runs of different code are told apart even where no git
//! metadata exists.

use std::path::Path;
use std::process::Command;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Paths are relative to this package. Cargo re-runs the script when
    // any of them changes (a directory counts when a file in it does).
    let mut watched: Vec<String> = [
        "../crates",
        "../vendor",
        "../Cargo.toml",
        "../Cargo.lock",
        "../.cargo",
        "../src",
        "src",
        "build.rs",
        "Cargo.toml",
        "Cargo.lock",
    ]
    .map(String::from)
    .to_vec();
    // A new commit moves HEAD or the branch it names. Only existing
    // files are watched: a missing one would re-run the script on every
    // build.
    let head = root.join(".git/HEAD");
    if head.exists() {
        watched.push("../.git/HEAD".into());
        let text = std::fs::read_to_string(&head).unwrap_or_default();
        if let Some(reference) = text.trim().strip_prefix("ref: ") {
            for file in [format!(".git/{reference}"), ".git/packed-refs".into()] {
                if root.join(&file).exists() {
                    watched.push(format!("../{file}"));
                }
            }
        }
    }
    for path in &watched {
        println!("cargo:rerun-if-changed={path}");
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Only ask git when the tree itself is a checkout: otherwise git would
    // search upwards and could report some enclosing repository's commit.
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(&root)
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "src", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    for extra in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo/config.toml",
        "perfbench/build.rs",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        files.push(root.join(extra));
    }
    files.sort();
    // FNV-1a over (relative path, contents) of every source file.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(path);
        }
    }
}
