//! The `sdfr serve --cache-dir` persistent warm cache: file management for
//! the `sdfr-cache/1` journal.
//!
//! The wire format — checksummed records, torn-tail replay — lives in
//! [`sdfr_api::cache`]; this module owns the file: opening (and creating)
//! the cache directory, truncating a torn tail discovered at startup,
//! restoring replayed records into the server's [`SessionRegistry`], and
//! appending newly warmed sessions. Appends happen as one `write(2)` of a
//! full record line under a mutex and are *not* fsynced: the journal is a
//! cache, so the page cache's durability (surviving `kill -9`, not a power
//! cut) is exactly the right price point — losing the last records to an
//! outage costs recomputation, never correctness.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sdfr_analysis::registry::SessionRegistry;
use sdfr_analysis::{AnalysisSession, EngineArchive, SessionArtifacts};
use sdfr_api::cache::{CacheRecord, CachedOutcome, CachedResource};
use sdfr_graph::budget::{Budget, BudgetResource};
use sdfr_graph::SdfError;
use sdfr_maxplus::Rational;

use crate::CliError;

/// The journal file name inside `--cache-dir` (unsharded servers).
const JOURNAL_FILE: &str = "journal.sdfr-cache";

/// The journal file name of one fleet member: shards sharing a cache
/// directory (or a shard restarted under a different id after a ring
/// change) must never replay — or compact away — each other's records,
/// so the shard coordinate is part of the file name.
fn journal_file(shard: Option<(u32, u32)>) -> String {
    match shard {
        Some((id, n)) => format!("journal.shard-{id}-of-{n}.sdfr-cache"),
        None => JOURNAL_FILE.to_string(),
    }
}

/// The default `--cache-compact-bytes` threshold: once the journal file
/// grows past this, the next persist rewrites it keeping only records
/// whose registry key is still resident.
pub(crate) const DEFAULT_COMPACT_BYTES: u64 = 1 << 20;

/// A session-registry key as persisted: `(fingerprint, max_firings,
/// max_size)`.
type PersistKey = (u64, Option<u64>, Option<u64>);

/// The open cache journal: an append handle, the set of already persisted
/// keys (seeded from replay, so restarts never duplicate records), and the
/// observability counters `/v1/stats` reports.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    /// `None` after a write failure (or an injected torn write): the
    /// journal stops appending for the rest of the process, exactly as if
    /// the process had crashed mid-write — replay cleans up at next start.
    writer: Mutex<Option<File>>,
    persisted: Mutex<HashSet<PersistKey>>,
    /// Tear the Nth append mid-record (fault injection), 1-based.
    torn_write: Option<u64>,
    /// File size past which [`Self::maybe_compact`] rewrites the journal.
    compact_bytes: u64,
    /// Current journal file size (valid prefix at open, plus appends).
    bytes: AtomicU64,
    /// File size below which [`Self::maybe_compact`] skips without reading
    /// the file. Starts at `compact_bytes`; every scan (no-op or rewrite)
    /// raises it to the post-scan size plus `compact_bytes`, so a journal
    /// full of live records is re-scanned only after `compact_bytes` of
    /// fresh appends — never on every persist.
    compact_watermark: AtomicU64,
    appends: AtomicU64,
    loaded: AtomicU64,
    rejected: AtomicU64,
    appended: AtomicU64,
    compactions: AtomicU64,
    checkpoints_persisted: AtomicU64,
    checkpoints_restored: AtomicU64,
}

/// A point-in-time snapshot of the journal counters for `/v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct JournalStats {
    /// Sessions restored into the registry at startup.
    pub loaded: u64,
    /// Records dropped: torn/corrupt journal lines at startup, plus
    /// replayed records whose content no longer matches their fingerprint.
    pub rejected: u64,
    /// Records appended by this process.
    pub appended: u64,
    /// Journal rewrites that dropped records for no-longer-resident keys.
    pub compactions: u64,
    /// Appended records that carried an engine checkpoint.
    pub checkpoints_persisted: u64,
    /// Restored sessions that came up with an attached engine checkpoint.
    pub checkpoints_restored: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir`, replays it with
    /// torn-tail truncation, and returns the intact records for
    /// [`Self::restore_into`]. `torn_write` arms the fault-injection tear
    /// on the Nth append.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory or opening the file. A corrupt
    /// journal is *not* an error — the valid prefix is kept, the tail is
    /// truncated and logged.
    pub fn open(
        dir: &Path,
        torn_write: Option<u64>,
        compact_bytes: u64,
        shard: Option<(u32, u32)>,
    ) -> Result<(Journal, Vec<CacheRecord>), CliError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::io(format!("serve: cannot create cache dir {dir:?}: {e}")))?;
        let path = dir.join(journal_file(shard));
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CliError::io(format!("serve: cannot read {path:?}: {e}"))),
        };
        let replay = sdfr_api::cache::replay(&bytes);
        if replay.valid_len < bytes.len() {
            // Crash recovery: drop the torn/corrupt tail so the next append
            // starts at a record boundary.
            let keep = OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(replay.valid_len as u64));
            match keep {
                Ok(()) => eprintln!(
                    "sdfr serve: cache journal: truncated torn tail at byte {} ({} record(s) dropped)",
                    replay.valid_len, replay.rejected
                ),
                Err(e) => eprintln!("sdfr serve: cache journal: cannot truncate torn tail: {e}"),
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| CliError::io(format!("serve: cannot append to {path:?}: {e}")))?;
        let persisted = replay
            .records
            .iter()
            .map(|r| (r.fingerprint, r.max_firings, r.max_size))
            .collect();
        let journal = Journal {
            path,
            writer: Mutex::new(Some(file)),
            persisted: Mutex::new(persisted),
            torn_write,
            compact_bytes,
            bytes: AtomicU64::new(replay.valid_len as u64),
            compact_watermark: AtomicU64::new(compact_bytes),
            appends: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            rejected: AtomicU64::new(replay.rejected),
            appended: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            checkpoints_persisted: AtomicU64::new(0),
            checkpoints_restored: AtomicU64::new(0),
        };
        Ok((journal, replay.records))
    }

    /// Rebuilds a warm [`AnalysisSession`] from each replayed record and
    /// seeds `registry` with it: re-parse the carried graph content,
    /// deep-verify the fingerprint (a record whose content no longer
    /// hashes to its key is rejected, not trusted), rebuild the session
    /// under the recorded caps, and import the eigenvalue artifact. The
    /// first real request for restored content is then a registry *hit*
    /// with output byte-identical to the pre-crash response.
    pub fn restore_into(&self, records: &[CacheRecord], registry: &SessionRegistry) {
        for record in records {
            let (session, checkpoint) = match rebuild_session(record) {
                Ok(built) => built,
                Err(reason) => {
                    eprintln!(
                        "sdfr serve: cache journal: rejecting record for {}: {reason}",
                        record.name
                    );
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            if checkpoint {
                self.checkpoints_restored.fetch_add(1, Ordering::Relaxed);
            }
            if registry.restore(session) {
                self.loaded.fetch_add(1, Ordering::Relaxed);
            } else {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Appends one record, unless its key is already persisted (dedup
    /// across the process *and* across restarts — replay seeds the set) or
    /// the journal broke earlier. One `write_all` of the full line keeps
    /// the torn-tail window to a single record.
    pub fn persist(&self, record: &CacheRecord) {
        let key = (record.fingerprint, record.max_firings, record.max_size);
        {
            let mut persisted = self.persisted.lock().expect("journal key set poisoned");
            if !persisted.insert(key) {
                return;
            }
        }
        let mut writer = self.writer.lock().expect("journal writer poisoned");
        let Some(file) = writer.as_mut() else {
            return;
        };
        let mut line = record.to_json_line();
        line.push('\n');
        let n = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
        if self.torn_write == Some(n) {
            // Fault injection: write half the record and stop journaling,
            // as if the process died mid-append.
            let half = &line.as_bytes()[..line.len() / 2];
            let _ = file.write_all(half);
            let _ = file.flush();
            *writer = None;
            eprintln!(
                "sdfr serve: fault: tore journal append #{n} ({:?})",
                self.path
            );
            return;
        }
        match file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
            Ok(()) => {
                self.appended.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(line.len() as u64, Ordering::Relaxed);
                if record.engine.is_some() {
                    self.checkpoints_persisted.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) => {
                eprintln!("sdfr serve: cache journal: append failed, disabling: {e}");
                *writer = None;
            }
        }
    }

    /// Compacts the journal once it has grown past the configured
    /// threshold: replays the file and rewrites it keeping only records
    /// whose `(fingerprint, caps)` key is still
    /// [resident](SessionRegistry::contains) in `registry` — evicted
    /// sessions would be rebuilt cold anyway, so their records are pure
    /// bloat. Crash-safe by construction: the survivors are written to a
    /// sibling `journal.new` that is fsynced and then atomically renamed
    /// over the journal (with a best-effort directory sync), so a crash at
    /// any point leaves either the complete old file or the complete new
    /// one, never a mix.
    ///
    /// Either way the scan ends, the skip watermark moves to the post-scan
    /// size plus `compact_bytes`, so an all-live journal does not get
    /// re-read under the writer lock on every subsequent persist.
    pub fn maybe_compact(&self, registry: &SessionRegistry) {
        if self.bytes.load(Ordering::Relaxed) < self.compact_watermark.load(Ordering::Relaxed) {
            return;
        }
        let mut writer = self.writer.lock().expect("journal writer poisoned");
        if writer.is_none() {
            return; // journal already broken; leave the file for replay
        }
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sdfr serve: cache journal: compaction read failed: {e}");
                return;
            }
        };
        let replay = sdfr_api::cache::replay(&bytes);
        let live: Vec<&CacheRecord> = replay
            .records
            .iter()
            .filter(|r| registry.contains(r.fingerprint, r.max_firings, r.max_size))
            .collect();
        if live.len() == replay.records.len() {
            // Nothing stale: a rewrite would save no bytes. Remember the
            // scanned size so the next persists don't replay the whole file
            // again before it has grown another threshold's worth.
            let current = self.bytes.load(Ordering::Relaxed);
            self.compact_watermark.store(
                current.saturating_add(self.compact_bytes),
                Ordering::Relaxed,
            );
            return;
        }
        let mut out = String::new();
        for record in &live {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        let tmp = self.path.with_extension("new");
        let result = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(out.as_bytes())?;
            // Make the replacement durable *before* it takes the journal's
            // name: without this, a crash after the rename could surface a
            // renamed file with empty or partial contents.
            f.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            // Best-effort: persist the rename itself. Failure here only
            // risks replaying the pre-compaction journal after a crash.
            if let Some(dir) = self.path.parent() {
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            OpenOptions::new().append(true).open(&self.path)
        })();
        match result {
            Ok(file) => {
                *writer = Some(file);
                let mut persisted = self.persisted.lock().expect("journal key set poisoned");
                *persisted = live
                    .iter()
                    .map(|r| (r.fingerprint, r.max_firings, r.max_size))
                    .collect();
                drop(persisted);
                self.bytes.store(out.len() as u64, Ordering::Relaxed);
                self.compact_watermark.store(
                    (out.len() as u64).saturating_add(self.compact_bytes),
                    Ordering::Relaxed,
                );
                self.compactions.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("sdfr serve: cache journal: compaction failed, disabling: {e}");
                let _ = std::fs::remove_file(&tmp);
                *writer = None;
            }
        }
    }

    /// The journal counters for `/v1/stats`.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            checkpoints_persisted: self.checkpoints_persisted.load(Ordering::Relaxed),
            checkpoints_restored: self.checkpoints_restored.load(Ordering::Relaxed),
        }
    }
}

/// Rebuilds a warm [`AnalysisSession`] from one `sdfr-cache/1` record:
/// re-parse the carried graph content, deep-verify the fingerprint (a
/// record whose content no longer hashes to its key is rejected, not
/// trusted), rebuild the session under the recorded caps, and import the
/// eigenvalue artifact. Returns the session plus whether an engine
/// checkpoint came back with it — an undecodable checkpoint degrades to a
/// cold engine (logged) without rejecting the headline artifacts.
///
/// Shared by journal replay ([`Journal::restore_into`]) and the shard
/// archive handoff (`GET /v1/archive/<fp>` responses are exactly these
/// records), so both paths trust remote state under the same rules.
///
/// # Errors
///
/// A human-readable rejection reason (unparseable content, fingerprint
/// mismatch, artifact import refusal).
pub(crate) fn rebuild_session(
    record: &CacheRecord,
) -> Result<(Arc<AnalysisSession>, bool), String> {
    let graph = crate::parse_graph_content(&record.name, &record.content)
        .map(Arc::new)
        .map_err(|e| e.message)?;
    if graph.fingerprint() != record.fingerprint {
        return Err("fingerprint mismatch".into());
    }
    let mut budget = Budget::unlimited();
    if let Some(n) = record.max_firings {
        budget = budget.with_max_firings(n);
    }
    if let Some(n) = record.max_size {
        budget = budget.with_max_size(n);
    }
    let eigenvalue = match record.outcome {
        CachedOutcome::Period { num, den } => Ok(Some(Rational::new(num, den))),
        CachedOutcome::Unbounded => Ok(None),
        CachedOutcome::Exhausted {
            resource,
            spent,
            limit,
        } => Err(SdfError::Exhausted {
            resource: match resource {
                CachedResource::Firings => BudgetResource::Firings,
                CachedResource::Size => BudgetResource::Size,
            },
            spent,
            limit,
        }),
    };
    let session = Arc::new(AnalysisSession::with_budget(Arc::clone(&graph), budget));
    let artifacts = SessionArtifacts {
        fingerprint: record.fingerprint,
        eigenvalue,
        spent: record.spent,
        schedule_firings: record.schedule_firings,
    };
    if !session.import_artifacts(&artifacts) {
        return Err("artifact import refused".into());
    }
    let mut checkpoint = false;
    if let Some(wire) = &record.engine {
        checkpoint = EngineArchive::decode(wire, Arc::clone(&graph))
            .is_some_and(|archive| session.attach_archive(archive));
        if !checkpoint {
            eprintln!(
                "sdfr serve: cache journal: dropping undecodable engine state for {}",
                record.name
            );
        }
    }
    Ok((session, checkpoint))
}

/// Converts one warmed session into its journal record under `name` and
/// `content`, keyed by the session's own caps, with its engine checkpoint
/// when one exists. `None` when the session is not persistable: only
/// headline outcomes that are pure functions of `(content, caps)` — an
/// eigenvalue or a firings/size exhaustion — are worth journal bytes.
/// Anything else (still cold, graph-level errors that are cheap to
/// rediscover) is skipped.
pub(crate) fn record_for(
    name: &str,
    content: &str,
    session: &AnalysisSession,
) -> Option<CacheRecord> {
    let artifacts = session.export_artifacts()?;
    let outcome = match &artifacts.eigenvalue {
        Ok(Some(r)) => CachedOutcome::Period {
            num: r.numer(),
            den: r.denom(),
        },
        Ok(None) => CachedOutcome::Unbounded,
        Err(SdfError::Exhausted {
            resource,
            spent,
            limit,
        }) => CachedOutcome::Exhausted {
            resource: match resource {
                BudgetResource::Firings => CachedResource::Firings,
                BudgetResource::Size => CachedResource::Size,
                // Wall-clock and cancellation exhaustion cannot occur under
                // a content-addressable budget, and only those sessions are
                // offered for persistence.
                _ => return None,
            },
            spent: *spent,
            limit: *limit,
        },
        Err(_) => return None,
    };
    Some(CacheRecord {
        fingerprint: artifacts.fingerprint,
        max_firings: session.budget().max_firings(),
        max_size: session.budget().max_size(),
        name: name.to_string(),
        content: content.to_string(),
        outcome,
        spent: artifacts.spent,
        schedule_firings: artifacts.schedule_firings,
        engine: session.engine_archive().and_then(|a| a.encode()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_content() -> &'static str {
        "graph demo\nactor a 2\nactor b 3\nchannel a b 1 1 0\nchannel b a 1 1 1\n"
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdfr-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn warm_record() -> CacheRecord {
        let graph = crate::parse_graph_content("demo.sdf", demo_content()).unwrap();
        let session = AnalysisSession::new(graph);
        let _ = session.throughput().unwrap();
        record_for("demo.sdf", demo_content(), &session).unwrap()
    }

    #[test]
    fn journal_round_trips_across_reopen() {
        let dir = tempdir("roundtrip");
        let record = warm_record();
        {
            let (journal, replayed) =
                Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
            assert!(replayed.is_empty());
            journal.persist(&record);
            // Same key again: deduplicated, not re-appended.
            journal.persist(&record);
            assert_eq!(journal.stats().appended, 1);
        }
        let (journal, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0], record);
        let registry = SessionRegistry::new();
        journal.restore_into(&replayed, &registry);
        assert_eq!(journal.stats().loaded, 1);
        assert_eq!(journal.stats().rejected, 0);
        // The restored entry answers the next lookup as a warm hit.
        let graph = Arc::new(crate::parse_graph_content("demo.sdf", demo_content()).unwrap());
        let (session, lookup) = registry.lookup(&graph, &Budget::unlimited());
        assert_eq!(lookup, sdfr_analysis::registry::Lookup::Hit);
        assert!(session.throughput_is_warm());
        // Already persisted (seeded from replay): no duplicate append.
        journal.persist(&record);
        assert_eq!(journal.stats().appended, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_cold_start_is_clean() {
        let dir = tempdir("torn");
        let record = warm_record();
        {
            let (journal, _) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
            journal.persist(&record);
        }
        // Tear the file mid-record, as a crash mid-append would.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&bytes.clone()[..intact / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let (journal, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 1, "the intact record survives");
        assert_eq!(journal.stats().rejected, 1, "the torn tail is counted");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact as u64,
            "the file is truncated back to the record boundary"
        );
        // Appending after recovery lands at a clean boundary.
        let mut second = record.clone();
        second.max_firings = Some(10_000);
        journal.persist(&second);
        let (_, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_behaves_like_a_crash() {
        let dir = tempdir("fault");
        let record = warm_record();
        {
            let (journal, _) = Journal::open(&dir, Some(1), DEFAULT_COMPACT_BYTES, None).unwrap();
            journal.persist(&record);
            assert_eq!(
                journal.stats().appended,
                0,
                "the torn append is not counted"
            );
            // The journal is dead for this process: later persists are
            // dropped, like after a real crash.
            let mut second = record.clone();
            second.max_firings = Some(7);
            journal.persist(&second);
            assert_eq!(journal.stats().appended, 0);
        }
        let (journal, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert!(replayed.is_empty(), "half a record restores nothing");
        assert_eq!(journal.stats().rejected, 1);
        // And the file is clean again: a fresh append replays fine.
        journal.persist(&record);
        let (_, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_content_is_rejected_on_restore() {
        let record = warm_record();
        let mut forged = record.clone();
        forged.content = forged.content.replace("actor a 2", "actor a 9");
        let dir = tempdir("forged");
        let (journal, _) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        let registry = SessionRegistry::new();
        journal.restore_into(&[forged], &registry);
        assert_eq!(journal.stats().loaded, 0);
        assert_eq!(journal.stats().rejected, 1);
        assert!(registry.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_stale_records_and_survives_reopen() {
        let dir = tempdir("compact");
        let record = warm_record();
        let mut stale = record.clone();
        stale.max_firings = Some(10_000);
        {
            // Threshold 1: any non-empty journal is eligible for compaction.
            let (journal, _) = Journal::open(&dir, None, 1, None).unwrap();
            journal.persist(&record);
            journal.persist(&stale);
            // Only `record`'s key is resident; `stale`'s caps never were.
            let registry = SessionRegistry::new();
            journal.restore_into(std::slice::from_ref(&record), &registry);
            journal.maybe_compact(&registry);
            assert_eq!(journal.stats().compactions, 1);
            // Nothing stale left: a second pass is a no-op.
            journal.maybe_compact(&registry);
            assert_eq!(journal.stats().compactions, 1);
            // The journal still appends after the rewrite.
            journal.persist(&stale);
        }
        let (_, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 2, "live record plus the re-appended one");
        assert_eq!(replayed[0], record);
        assert!(
            !dir.join("journal.new").exists(),
            "no temp file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_op_compaction_scans_are_not_repeated() {
        let dir = tempdir("watermark");
        let record = warm_record();
        // Threshold 1: the first maybe_compact always scans.
        let (journal, _) = Journal::open(&dir, None, 1, None).unwrap();
        journal.persist(&record);
        let registry = SessionRegistry::new();
        journal.restore_into(std::slice::from_ref(&record), &registry);
        // Everything is live: the scan is a no-op and raises the watermark.
        journal.maybe_compact(&registry);
        assert_eq!(journal.stats().compactions, 0);
        // Until new bytes are appended, later calls skip the file replay
        // entirely — even against a registry that would drop every record.
        journal.maybe_compact(&SessionRegistry::new());
        assert_eq!(journal.stats().compactions, 0);
        {
            let (_, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
            assert_eq!(replayed.len(), 1, "the skipped scan rewrote nothing");
        }
        // A fresh append grows past the watermark and re-arms the scan.
        let mut second = record.clone();
        second.max_firings = Some(7);
        journal.persist(&second);
        journal.maybe_compact(&SessionRegistry::new());
        assert_eq!(journal.stats().compactions, 1);
        let (_, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert!(replayed.is_empty(), "nothing was resident");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_journals_are_never_compacted() {
        let dir = tempdir("nocompact");
        let record = warm_record();
        let (journal, _) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        journal.persist(&record);
        // An empty registry would drop everything — but the file is far
        // below the threshold, so nothing happens.
        journal.maybe_compact(&SessionRegistry::new());
        assert_eq!(journal.stats().compactions, 0);
        let (_, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        assert_eq!(replayed.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_checkpoints_round_trip_through_the_journal() {
        let dir = tempdir("checkpoint");
        let record = warm_record();
        assert!(
            record.engine.is_some(),
            "a warm unlimited session persists its engine checkpoint"
        );
        {
            let (journal, _) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
            journal.persist(&record);
            assert_eq!(journal.stats().checkpoints_persisted, 1);
        }
        let (journal, replayed) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        let registry = SessionRegistry::new();
        journal.restore_into(&replayed, &registry);
        assert_eq!(journal.stats().loaded, 1);
        assert_eq!(journal.stats().checkpoints_restored, 1);
        // The restored session carries a live archive, so token variants of
        // this graph can fork it instead of running cold.
        let graph = Arc::new(crate::parse_graph_content("demo.sdf", demo_content()).unwrap());
        let (session, _) = registry.lookup(&graph, &Budget::unlimited());
        assert!(session.engine_archive().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_engine_state_degrades_to_a_cold_checkpoint() {
        let dir = tempdir("badengine");
        let mut record = warm_record();
        record.engine = Some("sdfr-engine/1|not|a|real|archive".to_string());
        let (journal, _) = Journal::open(&dir, None, DEFAULT_COMPACT_BYTES, None).unwrap();
        let registry = SessionRegistry::new();
        journal.restore_into(std::slice::from_ref(&record), &registry);
        // The headline artifact still restores; only the checkpoint is lost.
        assert_eq!(journal.stats().loaded, 1);
        assert_eq!(journal.stats().checkpoints_restored, 0);
        let graph = Arc::new(crate::parse_graph_content("demo.sdf", demo_content()).unwrap());
        let (session, lookup) = registry.lookup(&graph, &Budget::unlimited());
        assert_eq!(lookup, sdfr_analysis::registry::Lookup::Hit);
        assert!(session.throughput_is_warm());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unpersistable_outcomes_are_skipped() {
        let graph = Arc::new(crate::parse_graph_content("demo.sdf", demo_content()).unwrap());
        // Still cold: nothing to persist.
        let cold = AnalysisSession::new(Arc::clone(&graph));
        assert!(record_for("demo.sdf", demo_content(), &cold).is_none());
        // Exhausted on firings: persisted as the exhaustion itself.
        let capped = AnalysisSession::with_budget(graph, Budget::unlimited().with_max_firings(1));
        let _ = capped.throughput().unwrap_err();
        let record = record_for("demo.sdf", demo_content(), &capped).unwrap();
        assert!(matches!(
            record.outcome,
            CachedOutcome::Exhausted {
                resource: CachedResource::Firings,
                ..
            }
        ));
    }
}
