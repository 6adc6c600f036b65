//! Persistent on-disk cache of recorded traces.
//!
//! Recording a trace — running an application over its input graph and
//! validating the output — is the only part of the study that cannot be
//! replayed cheaply, yet it is a pure function of (application, input).
//! A [`TraceCache`] persists each recorded [`Trace`] as one binary
//! `.trace.bin` file in a directory, keyed by a content hash of the
//! application name, the input specification (name, scale, generation
//! seed, and the generated graph's shape), and [`RECORDER_VERSION`], so
//! repeated studies and CLI invocations skip the `collect-traces` phase
//! entirely (`gpp study --trace-cache DIR`).
//!
//! Cache keys deliberately cover everything a trace depends on:
//!
//! * a different application, input, scale, or seed hashes to a
//!   different key, so distinct traces can never collide on a file;
//! * the application's
//!   [`content_version`](crate::app::Application::content_version) is
//!   folded in, so an app whose *definition* can change without a
//!   recompile — a DSL program — invalidates its own entries when
//!   edited instead of serving a stale trace;
//! * bumping [`RECORDER_VERSION`] (any change to the trace format or
//!   recording semantics) invalidates every existing entry;
//! * the generated graph's node and edge counts are mixed in as a guard
//!   against generator drift — if the same (name, scale, seed) ever
//!   produces a different graph, stale entries miss instead of
//!   replaying the wrong work.
//!
//! An entry is the trace's [`Trace::encode`] bytes: a magic tag,
//! [`RECORDER_VERSION`], the profile, call and item counts, the interned
//! profiles (every `f64` as its bits), the call table, the raw item
//! arena (each distinct frontier once: a call may share an earlier
//! call's range), and a trailing word-wise FNV-1a checksum of everything
//! before it. The round-trip is exact, so a dataset priced from cached
//! traces is byte-identical to a cold run. Loading streams the entry
//! through a 64 KiB buffer and decodes it as it reads, checking the
//! checksum at the end, so no copy of the whole file is held.
//!
//! Nothing on disk is trusted: [`TraceCache::load`] returns an entry
//! only if [`Trace::read_from`] accepts it — checksum, magic and version
//! match, every count fits the bytes, names are UTF-8, every profile id
//! is in range, and each call's range either starts where the fresh
//! ranges before it end or repeats an earlier call's range, the fresh
//! ones covering the arena exactly — so replay never indexes out of
//! bounds on a corrupt file. A missing entry is a miss;
//! one that exists but is rejected is a miss that also counts as
//! `trace_cache.rejected`, and is recorded afresh (and overwritten) like
//! any miss. Hits and misses themselves are span counts: the study's
//! `trace` spans, less the `record` spans of the misses.
//! [`TraceCache::store`] is best-effort and atomic (write to a temporary
//! file, then rename), so concurrent study workers and crashed runs
//! never leave a partial entry behind.

use std::fs::File;
use std::io::{self, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gpp_graph::rng::fnv1a;
use gpp_obs::metrics;
use gpp_sim::trace::{Trace, RECORDER_VERSION};

use crate::inputs::{StudyInput, StudyScale};

/// Bytes [`TraceCache::load`] buffers per read of an entry.
const READ_BUFFER: usize = 64 << 10;

/// A directory of encoded traces, keyed by trace content hash.
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
}

impl TraceCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the directory.
    pub fn new(dir: &Path) -> io::Result<TraceCache> {
        std::fs::create_dir_all(dir)?;
        Ok(TraceCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content key of one (application, input) trace: an FNV-1a hash
    /// over the application name, its
    /// [`content_version`](crate::app::Application::content_version),
    /// input name, scale, generation seed, graph shape, and
    /// [`RECORDER_VERSION`].
    ///
    /// `version` exists for applications whose *definition* can change
    /// without recompiling the crate — a DSL app folds a content hash of
    /// its program in here, so editing the program invalidates
    /// its entries instead of serving a stale trace.
    pub fn key(app: &str, version: u64, input: &StudyInput, scale: StudyScale, seed: u64) -> u64 {
        let scale_tag: u8 = match scale {
            StudyScale::Full => 0,
            StudyScale::Small => 1,
            StudyScale::Tiny => 2,
        };
        fnv1a(
            app.bytes()
                .chain([0])
                .chain(version.to_le_bytes())
                .chain(input.name.bytes())
                .chain([0, scale_tag])
                .chain(seed.to_le_bytes())
                .chain((input.graph.num_nodes() as u64).to_le_bytes())
                .chain((input.graph.num_edges() as u64).to_le_bytes())
                .chain(RECORDER_VERSION.to_le_bytes()),
        )
    }

    /// The on-disk path of one entry. The human-readable prefix is for
    /// directory listings; the hash alone keys the entry.
    pub fn entry_path(
        &self,
        app: &str,
        version: u64,
        input: &StudyInput,
        scale: StudyScale,
        seed: u64,
    ) -> PathBuf {
        let key = Self::key(app, version, input, scale, seed);
        self.dir
            .join(format!("{app}-{}-{key:016x}.trace.bin", input.name))
    }

    /// Loads the cached trace for one (application, input) pair, or
    /// `None` on any miss: an absent or unreadable entry, or one that
    /// [`Trace::read_from`] rejects (which also counts as
    /// `trace_cache.rejected`). The entry is decoded as it is read, so
    /// no copy of the whole file is held.
    pub fn load(
        &self,
        app: &str,
        version: u64,
        input: &StudyInput,
        scale: StudyScale,
        seed: u64,
    ) -> Option<Trace> {
        let file = File::open(self.entry_path(app, version, input, scale, seed)).ok()?;
        let len = file.metadata().ok()?.len();
        metrics::counter("trace_cache.bytes_read", len);
        let trace = Trace::read_from(BufReader::with_capacity(READ_BUFFER, file), len).ok()?;
        if trace.is_none() {
            metrics::counter("trace_cache.rejected", 1);
        }
        trace
    }

    /// Stores one recorded trace, atomically (temporary file + rename)
    /// so concurrent workers and interrupted runs never leave a partial
    /// entry. Best-effort: returns whether the entry was written, and
    /// never fails the study over a read-only or full cache directory.
    pub fn store(
        &self,
        app: &str,
        version: u64,
        input: &StudyInput,
        scale: StudyScale,
        seed: u64,
        trace: &Trace,
    ) -> bool {
        let bytes = trace.encode();
        metrics::counter("trace_cache.bytes_written", bytes.len() as u64);
        write_atomically(&self.entry_path(app, version, input, scale, seed), &bytes).is_ok()
    }
}

/// Creates the directory `path` goes in. A component that exists but is
/// not a directory is named, where `create_dir_all` would report only
/// that the file exists.
///
/// # Errors
///
/// Propagates the failure to create a directory.
pub fn create_parent_dir(path: &Path) -> io::Result<()> {
    let Some(dir) = path.parent() else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| {
        match dir
            .ancestors()
            .find(|a| a.metadata().is_ok_and(|m| !m.is_dir()))
        {
            Some(file) => io::Error::new(
                io::ErrorKind::NotADirectory,
                format!("{} is not a directory", file.display()),
            ),
            None => e,
        }
    })
}

/// Writes `bytes` to a temporary file beside `path`, then renames it
/// over `path`, so a reader sees either the old file or the whole new
/// one. The temporary file is removed if either step fails.
///
/// Only a regular file is replaced. A path that resolves to the
/// process's own stdout (`/dev/stdout`, whatever it is redirected to) is
/// written through stdout, after what the process printed before. An
/// existing device, FIFO or other non-regular file (`/dev/null`) is
/// written in place. A symlink stays a link: its target is replaced,
/// from a temporary file beside the target.
///
/// # Errors
///
/// Propagates the failure to write or rename, and fails on a dangling
/// symlink.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Ok(meta) = std::fs::metadata(path) {
        // Replacing or reopening stdout's file would lose or overwrite
        // what the process writes to stdout around this call.
        if is_stdout(&meta) {
            let mut stdout = io::stdout().lock();
            return stdout.write_all(bytes).and_then(|()| stdout.flush());
        }
        // Renaming over a device or a FIFO would replace it with a file.
        if !meta.is_file() {
            return std::fs::OpenOptions::new()
                .write(true)
                .open(path)?
                .write_all(bytes);
        }
    }
    let target = match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.is_symlink() => Some(std::fs::canonicalize(path)?),
        _ => None,
    };
    let path = target.as_deref().unwrap_or(path);
    // A process-wide counter keeps concurrent writes (and rewrites of
    // the same path) from colliding on the temporary name.
    static TMP_SERIAL: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Whether `meta` describes the file the process's stdout writes to.
#[cfg(unix)]
fn is_stdout(meta: &std::fs::Metadata) -> bool {
    use std::os::fd::AsFd as _;
    use std::os::unix::fs::MetadataExt as _;
    io::stdout()
        .as_fd()
        .try_clone_to_owned()
        .and_then(|fd| std::fs::File::from(fd).metadata())
        .is_ok_and(|out| (out.dev(), out.ino()) == (meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn is_stdout(_: &std::fs::Metadata) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::all_applications;
    use crate::inputs::study_inputs;
    use gpp_sim::exec::Executor as _;
    use gpp_sim::trace::Recorder;

    fn temp_cache(tag: &str) -> TraceCache {
        let dir =
            std::env::temp_dir().join(format!("gpp-trace-cache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TraceCache::new(&dir).expect("create cache dir")
    }

    #[test]
    fn round_trip_is_exact() {
        let cache = temp_cache("round-trip");
        let inputs = study_inputs(StudyScale::Tiny, 7);
        let input = &inputs[0];
        let apps = all_applications();
        let app = &apps[0];
        let mut rec = Recorder::new();
        app.run(&input.graph, &mut rec);
        let trace = rec.into_trace();

        let v = app.content_version();
        assert!(cache
            .load(app.name(), v, input, StudyScale::Tiny, 7)
            .is_none());
        assert!(cache.store(app.name(), v, input, StudyScale::Tiny, 7, &trace));
        let back = cache
            .load(app.name(), v, input, StudyScale::Tiny, 7)
            .expect("hit after store");
        assert_eq!(trace, back);
        // Exact at the byte level too, not just structurally.
        assert_eq!(trace.encode(), back.encode());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn keys_separate_every_dimension() {
        let inputs = study_inputs(StudyScale::Tiny, 7);
        let other_seed = study_inputs(StudyScale::Tiny, 8);
        let small = study_inputs(StudyScale::Small, 7);
        let base = TraceCache::key("bfs-wl", 0, &inputs[0], StudyScale::Tiny, 7);
        assert_ne!(
            base,
            TraceCache::key("bfs-td", 0, &inputs[0], StudyScale::Tiny, 7)
        );
        assert_ne!(
            base,
            TraceCache::key("bfs-wl", 1, &inputs[0], StudyScale::Tiny, 7)
        );
        assert_ne!(
            base,
            TraceCache::key("bfs-wl", 0, &inputs[1], StudyScale::Tiny, 7)
        );
        assert_ne!(
            base,
            TraceCache::key("bfs-wl", 0, &other_seed[0], StudyScale::Tiny, 8)
        );
        assert_ne!(
            base,
            TraceCache::key("bfs-wl", 0, &small[0], StudyScale::Small, 7)
        );
        // Deterministic across calls.
        assert_eq!(
            base,
            TraceCache::key("bfs-wl", 0, &inputs[0], StudyScale::Tiny, 7)
        );
    }

    #[test]
    fn editing_a_dsl_program_changes_the_key() {
        // The ISSUE-9 regression: before content versioning, two DSL
        // apps with the same name but different programs shared a cache
        // key, so editing a program could serve the old program's trace.
        let inputs = study_inputs(StudyScale::Tiny, 7);
        let apps = crate::dsl::dsl_applications();
        let versions: Vec<u64> = apps.iter().map(|a| a.content_version()).collect();
        // Every built-in program hashes differently.
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), versions.len());
        // A different version under the same app name is a different key
        // (and a different entry path, so the old file cannot be read).
        for (app, &v) in apps.iter().zip(&versions) {
            let base = TraceCache::key(app.name(), v, &inputs[0], StudyScale::Tiny, 7);
            let edited = TraceCache::key(app.name(), v ^ 1, &inputs[0], StudyScale::Tiny, 7);
            assert_ne!(base, edited, "{}", app.name());
        }
        // Stable across calls.
        for (app, &v) in apps.iter().zip(&versions) {
            assert_eq!(app.content_version(), v, "{}", app.name());
        }
        // Handwritten apps default to version 0.
        assert_eq!(all_applications()[0].content_version(), 0);
    }

    /// `body` (an encoding without its checksum) with a valid word-wise
    /// FNV-1a checksum appended, as the format in the module docs
    /// specifies — so a tampered entry gets past the checksum and
    /// reaches the structural checks.
    fn restamped(mut body: Vec<u8>) -> Vec<u8> {
        let (words, tail) = body.as_chunks::<8>();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in words
            .iter()
            .chain([&last, &(body.len() as u64).to_le_bytes()])
        {
            h = (h ^ u64::from_le_bytes(*word)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        body.extend_from_slice(&h.to_le_bytes());
        body
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = temp_cache("corrupt");
        let inputs = study_inputs(StudyScale::Tiny, 7);
        let input = &inputs[0];
        let mut rec = Recorder::new();
        let profile = gpp_sim::exec::KernelProfile::frontier("k");
        rec.kernel(&profile, &[gpp_sim::exec::WorkItem::new(3, 1)]);
        rec.kernel(&profile, &[gpp_sim::exec::WorkItem::new(2, 0)]);
        // A repeat: call 2 shares call 0's range.
        rec.kernel(&profile, &[gpp_sim::exec::WorkItem::new(3, 1)]);
        let trace = rec.into_trace();
        let good = trace.encode();
        let body = good[..good.len() - 8].to_vec();
        assert_eq!(
            restamped(body.clone()),
            good,
            "the helper matches the codec"
        );

        // Field offsets for this trace: a 32-byte header (magic, version,
        // three counts), one 62-byte profile ("k"), then three 20-byte
        // calls of (profile u32, start u64, len u64), then the two-item
        // arena.
        let call = |i: usize| 32 + 62 + 20 * i;
        let tamper = |at: usize, value: &[u8]| {
            let mut b = body.clone();
            b[at..at + value.len()].copy_from_slice(value);
            restamped(b)
        };
        let mut flipped = good.clone();
        flipped[40] ^= 0x01;
        let mut trailing = body.clone();
        trailing.extend_from_slice(&[0; 8]);
        let corrupt: Vec<(&str, Vec<u8>)> = vec![
            ("not an encoding", b"{not json".to_vec()),
            ("truncated", good[..good.len() / 2].to_vec()),
            ("one flipped byte", flipped),
            ("wrong magic", tamper(0, b"NOTRACE!")),
            ("recorder version 2", tamper(8, &2u32.to_le_bytes())),
            (
                "call range past the arena",
                tamper(call(1) + 12, &5u64.to_le_bytes()),
            ),
            (
                "profile id out of range",
                tamper(call(0), &1u32.to_le_bytes()),
            ),
            (
                "calls short of the arena",
                tamper(call(1) + 12, &0u64.to_le_bytes()),
            ),
            // Call 1 restarts at 0 yet still ends at the arena's end.
            (
                "non-contiguous calls",
                tamper(
                    call(1) + 4,
                    &[0u64.to_le_bytes(), 2u64.to_le_bytes()].concat(),
                ),
            ),
            ("trailing bytes", restamped(trailing)),
            // Calls 0 and 1 together are no one call's range.
            (
                "a repeat that is no earlier call's range",
                tamper(call(2) + 12, &2u64.to_le_bytes()),
            ),
            (
                "a repeat past the arena",
                tamper(call(2) + 4, &7u64.to_le_bytes()),
            ),
        ];

        metrics::set_enabled(true);
        let rejected = || {
            metrics::snapshot()
                .counters
                .get("trace_cache.rejected")
                .copied()
                .unwrap_or(0)
        };
        let before = rejected();
        // An absent entry is a plain miss, not a rejection.
        assert!(cache
            .load("bfs-wl", 0, input, StudyScale::Tiny, 7)
            .is_none());
        assert_eq!(rejected(), before);

        assert!(cache.store("bfs-wl", 0, input, StudyScale::Tiny, 7, &trace));
        let path = cache.entry_path("bfs-wl", 0, input, StudyScale::Tiny, 7);
        assert_eq!(std::fs::read(&path).unwrap(), good);
        for (what, bytes) in &corrupt {
            std::fs::write(&path, bytes).unwrap();
            assert!(
                cache
                    .load("bfs-wl", 0, input, StudyScale::Tiny, 7)
                    .is_none(),
                "{what} must load as a miss"
            );
        }
        assert_eq!(rejected() - before, corrupt.len() as u64);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[cfg(unix)]
    #[test]
    fn atomic_writes_through_a_symlink_keep_the_link() {
        let dir = std::env::temp_dir().join(format!("gpp-atomic-link-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let (real, link) = (dir.join("real.json"), dir.join("link.json"));
        std::fs::write(&real, "old").unwrap();
        std::os::unix::fs::symlink(&real, &link).unwrap();
        write_atomically(&link, b"new").unwrap();
        assert!(std::fs::symlink_metadata(&link).unwrap().is_symlink());
        assert_eq!(std::fs::read(&real).unwrap(), b"new");
        // A dangling link is an error, not a new regular file.
        std::fs::remove_file(&real).unwrap();
        assert!(write_atomically(&link, b"newer").is_err());
        assert!(std::fs::symlink_metadata(&link).unwrap().is_symlink());
        assert!(!real.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn atomic_writes_to_a_fifo_write_in_place() {
        use std::io::Read as _;
        use std::os::unix::fs::{FileTypeExt as _, OpenOptionsExt as _};
        /// Linux's `O_NONBLOCK`.
        const O_NONBLOCK: i32 = 0o4000;
        let dir = std::env::temp_dir().join(format!("gpp-atomic-fifo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("pipe");
        let made = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .unwrap();
        assert!(made.success());
        // Open the read end first, so opening the write end does not block.
        let mut reader = std::fs::OpenOptions::new()
            .read(true)
            .custom_flags(O_NONBLOCK)
            .open(&fifo)
            .unwrap();
        write_atomically(&fifo, b"through the pipe").unwrap();
        let kind = std::fs::symlink_metadata(&fifo).unwrap().file_type();
        assert!(kind.is_fifo());
        let mut got = Vec::new();
        reader.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"through the pipe");
        std::fs::remove_dir_all(&dir).ok();
    }
}
