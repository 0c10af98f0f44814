//! Memoizing result cache: in-memory for one process, optionally on disk.
//!
//! The disk layer is the seed of the sweep server's shared cache
//! (ROADMAP item 2): one JSON file per cell under
//! `<dir>/<CACHE_VERSION>/<hash>.json` carrying the full canonical key,
//! which is verified on load so a hash collision or a stale schema can
//! never serve the wrong result. A damaged entry of any kind is a miss. Bump [`CACHE_VERSION`] whenever a change
//! affects golden outputs — old entries then simply stop resolving.

use crate::cell::CellSpec;
use minijson::{json, FromJson, ToJson};
use sim::RunResult;
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache format/semantics version. Part of the on-disk path: bump it when
/// a simulator change intentionally alters results (the golden snapshots
/// will have been regenerated too) and every old entry is invalidated at
/// once.
pub const CACHE_VERSION: &str = "v1";

/// Schema tag inside every cache file.
pub const CACHE_SCHEMA: &str = "redhip-sweep-cache/v1";

/// Largest cache file read; entries are a few KiB, so anything larger is
/// damaged and a miss, and a loaded entry never costs more than this.
const MAX_ENTRY_BYTES: u64 = 1 << 20;

/// Hit/miss counters (atomic: workers store from many threads).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Served from the in-process map.
    pub memory_hits: AtomicU64,
    /// Served from a disk file.
    pub disk_hits: AtomicU64,
    /// Not found anywhere (the cell was simulated).
    pub misses: AtomicU64,
    /// Results written to disk.
    pub disk_stores: AtomicU64,
}

impl CacheCounters {
    /// Total hits, memory + disk.
    pub fn hits(&self) -> u64 {
        self.memory_hits.load(Ordering::Relaxed) + self.disk_hits.load(Ordering::Relaxed)
    }
}

/// A memoizing map from canonical cell key to [`RunResult`].
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<HashMap<String, RunResult>>,
    disk: Option<PathBuf>,
    /// Counters for dedup accounting and the acceptance tests.
    pub counters: CacheCounters,
}

impl ResultCache {
    /// Process-local cache only.
    pub fn in_memory() -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: None,
            counters: CacheCounters::default(),
        }
    }

    /// Cache backed by `dir` (the versioned subdirectory is appended
    /// here). The directory is created lazily on first store.
    pub fn with_disk(dir: PathBuf) -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: Some(dir.join(CACHE_VERSION)),
            counters: CacheCounters::default(),
        }
    }

    fn disk_path(&self, hash: u64) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("{hash:016x}.json")))
    }

    /// Looks `spec`'s result up, memory first, then disk. A disk hit is
    /// promoted into memory.
    pub fn lookup(&self, spec: &CellSpec) -> Option<RunResult> {
        let key = spec.canonical_key();
        if let Some(r) = self.memory.lock().expect("cache poisoned").get(&key) {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(r.clone());
        }
        if let Some(path) = self.disk_path(spec.content_hash()) {
            if let Some(r) = load_entry(&path, &key, spec) {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.memory
                    .lock()
                    .expect("cache poisoned")
                    .insert(key, r.clone());
                return Some(r);
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `spec`'s freshly simulated result. The disk entry embeds
    /// the cell's manifest — only [`metrics::RunManifest::to_json`]'s
    /// job-count-invariant fields, since cache directories are
    /// byte-compared across `--jobs`; `load_entry` ignores it.
    pub fn store(&self, spec: &CellSpec, result: &RunResult) {
        let key = spec.canonical_key();
        self.memory
            .lock()
            .expect("cache poisoned")
            .insert(key.clone(), result.clone());
        if let Some(path) = self.disk_path(spec.content_hash()) {
            let doc = json!({
                "schema": CACHE_SCHEMA,
                "key": key.as_str(),
                "result": result.to_json(),
                "manifest": spec.manifest().to_json(),
            });
            if let Some(dir) = path.parent() {
                if std::fs::create_dir_all(dir).is_err() {
                    return; // cache is best-effort; the sweep still runs
                }
            }
            // Write-then-rename so a concurrent reader never sees a torn
            // file (two processes racing on the same cell write identical
            // bytes anyway).
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if std::fs::write(&tmp, doc.pretty()).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
                self.counters.disk_stores.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Loads one cache file, returning `None` (a miss) on any mismatch or
/// parse problem rather than failing the sweep. Whatever the file holds,
/// the read is bounded by [`MAX_ENTRY_BYTES`], and a result is served
/// only if it has `spec`'s core and level counts, the shapes the figure
/// code indexes by.
fn load_entry(path: &Path, key: &str, spec: &CellSpec) -> Option<RunResult> {
    let mut text = String::new();
    std::fs::File::open(path)
        .ok()?
        .take(MAX_ENTRY_BYTES + 1)
        .read_to_string(&mut text)
        .ok()?;
    if text.len() as u64 > MAX_ENTRY_BYTES {
        return None;
    }
    let doc = minijson::parse(&text).ok()?;
    if doc.get("schema")?.as_str()? != CACHE_SCHEMA {
        return None;
    }
    if doc.get("key")?.as_str()? != key {
        return None; // hash collision or stale entry
    }
    let r = RunResult::from_json(doc.get("result")?).ok()?;
    let levels = spec.cfg.platform.levels.len();
    let shaped = r.refs_per_core.len() == spec.cfg.platform.cores
        && r.hierarchy.levels.len() == levels
        && r.energy.dynamic_by_level_j.len() == levels
        && r.energy.leakage_by_level_j.len() == levels;
    shaped.then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSpec;
    use sim::{Mechanism, SimConfig};
    use workloads::{Benchmark, Scale};

    fn tiny_spec() -> CellSpec {
        let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), Mechanism::Redhip);
        cfg.refs_per_core = 800;
        cfg.recalib_period = Some(256);
        CellSpec::new(&cfg, Benchmark::Mcf, Scale::Smoke)
    }

    /// A fresh scratch directory under the temp dir, emptied first.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The disk entry `spec` is stored under in `dir`.
    fn entry_path(dir: &Path, spec: &CellSpec) -> PathBuf {
        dir.join(CACHE_VERSION)
            .join(format!("{:016x}.json", spec.content_hash()))
    }

    #[test]
    fn memory_roundtrip_counts_hits() {
        let cache = ResultCache::in_memory();
        let spec = tiny_spec();
        assert!(cache.lookup(&spec).is_none());
        let r = spec.simulate();
        cache.store(&spec, &r);
        let back = cache.lookup(&spec).expect("hit");
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(cache.counters.hits(), 1);
        assert_eq!(cache.counters.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disk_roundtrip_is_byte_exact() {
        let dir = scratch_dir("test");
        let spec = tiny_spec();
        let r = spec.simulate();
        {
            let cache = ResultCache::with_disk(dir.clone());
            cache.store(&spec, &r);
            assert_eq!(cache.counters.disk_stores.load(Ordering::Relaxed), 1);
        }
        // The entry embeds the deterministic manifest, and the loader,
        // which ignores it, still resolves the result below.
        let text = std::fs::read_to_string(entry_path(&dir, &spec)).expect("entry on disk");
        let doc = minijson::parse(&text).expect("entry parses");
        let manifest = doc.get("manifest").expect("manifest embedded");
        assert_eq!(
            manifest.get("schema").unwrap().as_str().unwrap(),
            "redhip-manifest/v1"
        );
        assert_eq!(
            manifest.get("mechanism").unwrap().as_str().unwrap(),
            "ReDHiP"
        );
        // A fresh cache (fresh process, conceptually) must rehydrate the
        // result so that its JSON re-serializes byte-identically — the
        // property the figure determinism guarantee rests on.
        let cache = ResultCache::with_disk(dir.clone());
        let back = cache.lookup(&spec).expect("disk hit");
        assert_eq!(cache.counters.disk_hits.load(Ordering::Relaxed), 1);
        assert_eq!(back.to_json().pretty(), r.to_json().pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_in_file_is_a_miss() {
        let dir = scratch_dir("collide");
        let spec = tiny_spec();
        let mut other_cfg = spec.cfg.clone();
        other_cfg.refs_per_core += 1;
        let other = CellSpec::new(&other_cfg, Benchmark::Mcf, Scale::Smoke);
        ResultCache::with_disk(dir.clone()).store(&spec, &spec.simulate());
        // `other`'s file holding `spec`'s entry (a hash collision) must
        // not be served.
        std::fs::copy(entry_path(&dir, &spec), entry_path(&dir, &other)).unwrap();
        let cache = ResultCache::with_disk(dir.clone());
        assert!(cache.lookup(&other).is_none());
        assert!(cache.lookup(&spec).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The mutation kinds of [`damaged_entries_are_misses_never_panics`].
    const KINDS: [&str; 5] = [
        "truncation",
        "bit flip",
        "deep nesting",
        "oversized number",
        "oversized length",
    ];

    /// Applies mutation `kind` to a stored cache entry's text.
    fn mutate(clean: &str, kind: usize, rng: &mut mem_trace::rng::Rng64) -> Vec<u8> {
        let mut b = clean.as_bytes().to_vec();
        match kind {
            0 => b.truncate(rng.gen_index(b.len())),
            1 => {
                for _ in 0..1 + rng.gen_index(4) {
                    let i = rng.gen_index(b.len());
                    b[i] ^= 1 << rng.gen_index(8);
                }
            }
            2 => {
                // Either a bare run of `[` or a closed, well-formed nest in
                // place of one value.
                let depth = 200 + rng.gen_index(200_000);
                if rng.gen_bool(0.5) {
                    b = vec![b'['; depth];
                } else {
                    let i = clean.find(": ").unwrap() + 2;
                    let nest = "[".repeat(depth) + &"]".repeat(depth);
                    b.splice(i..i, nest.bytes().chain(*b", "));
                }
            }
            3 => {
                let digits: Vec<usize> = (0..b.len()).filter(|&i| b[i].is_ascii_digit()).collect();
                let at = digits[rng.gen_index(digits.len())];
                let big = match rng.gen_index(3) {
                    0 => "18446744073709551616".to_string(),
                    1 => "1e999".to_string(),
                    _ => "9".repeat(1 + rng.gen_index(5000)),
                };
                b.splice(at..at + 1, big.into_bytes());
            }
            _ => {
                // Lengthen an array the loader checks (per core, per level)
                // or pad the entry past the size cap.
                let field = [
                    "\"refs_per_core\": [",
                    "\"levels\": [",
                    "\"leakage_by_level_j\": [",
                ][rng.gen_index(3)];
                match clean.find(field) {
                    Some(i) if rng.gen_bool(0.8) => {
                        let i = i + field.len();
                        let copies = 1 + rng.gen_index(10_000);
                        let first = &clean[i..];
                        let item_end = first.find([',', ']']).unwrap_or(0);
                        let item = first[..item_end].trim();
                        let extra = format!("{item},").repeat(copies);
                        b.splice(i..i, extra.into_bytes());
                    }
                    _ => b.extend(std::iter::repeat_n(b' ', MAX_ENTRY_BYTES as usize)),
                }
            }
        }
        b
    }

    /// Seeded damage to a stored entry — truncations, bit flips, deep
    /// nesting, oversized numbers and oversized lengths — never panics
    /// the loader: every lookup is a miss or a result with the stored
    /// entry's core and level counts.
    #[test]
    fn damaged_entries_are_misses_never_panics() {
        let dir = scratch_dir("mutate");
        let spec = tiny_spec();
        let r = spec.simulate();
        ResultCache::with_disk(dir.clone()).store(&spec, &r);
        let path = entry_path(&dir, &spec);
        let clean = std::fs::read_to_string(&path).unwrap();
        let mut rng = mem_trace::rng::Rng64::seed_from_u64(0xCA5E);
        let mut misses = [0usize; KINDS.len()];
        for (kind, missed) in misses.iter_mut().enumerate() {
            for case in 0..60 {
                std::fs::write(&path, mutate(&clean, kind, &mut rng)).unwrap();
                match ResultCache::with_disk(dir.clone()).lookup(&spec) {
                    None => *missed += 1,
                    Some(got) => {
                        let what = format!("{} case {case}", KINDS[kind]);
                        assert_eq!(got.refs_per_core.len(), r.refs_per_core.len(), "{what}");
                        assert_eq!(
                            got.hierarchy.levels.len(),
                            r.hierarchy.levels.len(),
                            "{what}"
                        );
                    }
                }
            }
        }
        for (kind, missed) in misses.iter().enumerate() {
            assert!(*missed > 0, "no {} mutation was a miss", KINDS[kind]);
        }
        // Deep nesting and lengthened arrays never pass as an entry.
        assert_eq!(misses[2], 60);
        assert_eq!(misses[4], 60);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
