//! Facts about the host and the build, recorded with every result.

/// Cache sizes in bytes by level, from the processor itself (CPUID
/// leaf 4 on Intel, 0x8000_001D on AMD), so no system file is read.
#[cfg(target_arch = "x86_64")]
pub fn cache_bytes(level: u32) -> Option<u64> {
    use std::arch::x86_64::__cpuid_count;
    let vendor = __cpuid_count(0, 0);
    let amd = vendor.ebx == u32::from_le_bytes(*b"Auth");
    let leaf = if amd { 0x8000_001D } else { 4 };
    let mut total = None;
    for sub in 0..16 {
        // Past the last cache the leaf reports type 0, which ends the loop.
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        // Data (1) or unified (3) caches of the requested level.
        if (r.eax >> 5) & 0x7 == level && (kind == 1 || kind == 3) {
            let ways = u64::from((r.ebx >> 22) + 1);
            let partitions = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
            let line = u64::from((r.ebx & 0xfff) + 1);
            let sets = u64::from(r.ecx) + 1;
            total = Some(ways * partitions * line * sets);
        }
    }
    total
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cache_bytes(_level: u32) -> Option<u64> {
    None
}

/// The host and build facts as JSON object members.
pub fn facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cache = |level| cache_bytes(level).map_or("null".to_string(), |b| b.to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("l2_bytes", cache(2)),
        ("l3_bytes", cache(3)),
        ("rustc", crate::json_str(env!("PERFBENCH_RUSTC"))),
        ("commit", crate::json_str(env!("PERFBENCH_COMMIT"))),
    ]
}
