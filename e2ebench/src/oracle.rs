//! Correctness oracles: answers the benchmark computes independently
//! of the path under measurement.

use moas_history::HistorySnapshot;

/// FNV-1a over every conflict record's prefix, origins, episodes and
/// flap count — corroboration deliberately excluded, so a federated
/// fold and a single-collector fold of the same stream digest equal.
/// Returns `(digest, records)`.
pub fn conflict_digest(snap: &HistorySnapshot) -> (u32, usize) {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |s: &str| {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    };
    let records = snap.conflicts().records();
    for r in records.values() {
        eat(&r.prefix.to_string());
        for o in &r.origins {
            eat(&o.value().to_string());
        }
        for e in &r.episodes {
            eat(&format!("{}-{:?}", e.opened_at, e.closed_at));
        }
        eat(&r.flap_count.to_string());
    }
    (h, records.len())
}
