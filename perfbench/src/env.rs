//! The environment stamp printed with every result: source revision,
//! CPU, core count, detected target features and build flags.
//!
//! Everything is read from inside the checkout or from the CPU itself
//! (CPUID), never from files elsewhere on the host.

use std::fs;

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One JSON object describing where and how the run happened.
pub fn stamp() -> String {
    let rustflags = std::env::var("RUSTFLAGS")
        .or_else(|_| std::env::var("CARGO_ENCODED_RUSTFLAGS"))
        .unwrap_or_default();
    format!(
        "{{\"git_rev\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \"llc_bytes\": {}, \
         \"detected_features\": \"{}\", \"compiled_features\": \"{}\", \"rustflags\": \"{}\", \
         \"profile\": \"{}\"}}",
        wino_obs::json_escape(&git_rev()),
        wino_obs::json_escape(&cpu_model()),
        nproc(),
        llc_bytes(),
        detected_features().join(","),
        compiled_features().join(","),
        wino_obs::json_escape(&rustflags),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

/// The commit the checkout's `.git` names, or `unknown` when the
/// benchmark runs from a plain file tree.
fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_owned();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_owned()
}

/// Assumed last-level cache size when the CPU does not report one.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// Size of the largest cache the CPU reports through the deterministic
/// cache-parameter leaf (Intel leaf 4, AMD leaf 0x8000_001D).
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> usize {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    let leaf = if __cpuid(0).eax >= 4 && __cpuid_count(4, 0).eax & 0x1f != 0 {
        4
    } else if __cpuid(0x8000_0000).eax >= 0x8000_001D {
        0x8000_001D
    } else {
        return FALLBACK_LLC_BYTES;
    };
    let mut largest = 0usize;
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        largest = largest.max(ways * partitions * line * sets);
    }
    if largest == 0 {
        FALLBACK_LLC_BYTES
    } else {
        largest
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> usize {
    FALLBACK_LLC_BYTES
}

#[cfg(target_arch = "x86_64")]
fn detected_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    macro_rules! probe {
        ($($f:tt),*) => {$(
            if std::arch::is_x86_feature_detected!($f) {
                found.push($f);
            }
        )*};
    }
    probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512vl");
    found
}

#[cfg(not(target_arch = "x86_64"))]
fn detected_features() -> Vec<&'static str> {
    Vec::new()
}

/// Vector features the benchmark (and the library it links) was
/// compiled to use unconditionally.
fn compiled_features() -> Vec<&'static str> {
    let mut on = Vec::new();
    macro_rules! compiled {
        ($($f:tt),*) => {$(
            if cfg!(target_feature = $f) {
                on.push($f);
            }
        )*};
    }
    compiled!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    on
}
