//! Atomic file writes: temp-file-then-rename, so a crash never leaves a
//! torn file under the final name.
//!
//! Every store writer (JSON lines, `pufrec/1`, `pufchk/2` checkpoints)
//! writes through an [`AtomicFile`]: bytes stream into `<path>.tmp` in the
//! same directory, and only [`persist`](AtomicFile::persist) — flush, sync,
//! rename, sync the parent directory — makes them appear under the final
//! name. Readers therefore never see a half-written file at the final
//! path; an interrupted run leaves at most a `.tmp` that the resume
//! machinery can salvage or ignore.
//!
//! All I/O optionally routes through an [`IoPolicy`] (see
//! [`create_with`](AtomicFile::create_with)), which is how the store's
//! deterministic fault injection reaches the write path and how the
//! durability tests observe syscall ordering.

use super::iofault::{path_hash, IoPolicy};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A file that becomes visible at its final path only on [`persist`].
///
/// Dropping an unpersisted `AtomicFile` removes the temporary file, so an
/// error path cannot leave debris behind under either name — unless
/// [`keep_partial_on_drop`](Self::keep_partial_on_drop) marked the partial
/// bytes as salvageable (campaign outputs, whose `.tmp` is exactly what a
/// checkpoint resume re-reads).
///
/// [`persist`]: Self::persist
///
/// # Examples
///
/// ```no_run
/// use puftestbed::store::AtomicFile;
/// use std::io::Write;
///
/// let mut file = AtomicFile::create("out.jsonl")?;
/// file.write_all(b"...records...")?;
/// file.persist()?; // out.jsonl appears, complete, in one rename
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct AtomicFile {
    file: Option<File>,
    tmp: PathBuf,
    target: PathBuf,
    policy: Option<IoPolicy>,
    hash: u64,
    keep_partial: bool,
}

/// The temporary path an [`AtomicFile`] for `target` streams into
/// (`<target>.tmp`, in the same directory so the final rename cannot cross
/// filesystems).
pub fn tmp_path(target: &Path) -> PathBuf {
    let mut name = target.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// The directory whose entry for `target` the publishing rename mutates —
/// what [`AtomicFile::persist`] fsyncs last.
fn parent_dir(target: &Path) -> &Path {
    match target.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

impl AtomicFile {
    /// Starts an atomic write to `target`, creating (or truncating)
    /// `<target>.tmp`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the temporary file.
    pub fn create(target: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(target, None)
    }

    /// [`create`](Self::create) with every subsequent write, fsync, and
    /// rename routed through `policy` (fault injection and/or syscall
    /// tracing). `None` is byte-for-byte the plain path.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the temporary file.
    pub fn create_with(target: impl AsRef<Path>, policy: Option<IoPolicy>) -> io::Result<Self> {
        let target = target.as_ref().to_path_buf();
        let tmp = tmp_path(&target);
        let file = File::create(&tmp)?;
        let hash = path_hash(&target);
        Ok(Self {
            file: Some(file),
            tmp,
            target,
            policy,
            hash,
            keep_partial: false,
        })
    }

    /// Marks the temporary file as salvageable: an error (or drop without
    /// [`persist`](Self::persist)) leaves `<target>.tmp` on disk instead of
    /// deleting it. Campaign outputs use this so a run that *fails* — not
    /// just one that is killed — still leaves the partial bytes a
    /// checkpoint resume needs.
    #[must_use]
    pub fn keep_partial_on_drop(mut self) -> Self {
        self.keep_partial = true;
        self
    }

    /// The final path this file will appear at.
    pub fn target(&self) -> &Path {
        &self.target
    }

    /// Pushes buffered bytes to the OS so they survive the *process* dying
    /// (durability against machine crash additionally needs the sync in
    /// [`persist`](Self::persist)). The campaign calls this before writing
    /// a checkpoint, so a checkpoint never claims records the output file
    /// does not yet hold.
    ///
    /// # Errors
    ///
    /// Returns the flush error, if any.
    pub fn flush_os(&mut self) -> io::Result<()> {
        self.file
            .as_mut()
            .expect("file present until persist")
            .flush()
    }

    /// Completes the write: flush, sync the file, rename it to the final
    /// path, then sync the parent directory so the rename itself survives
    /// a machine crash (a rename is only as durable as the directory entry
    /// holding it).
    ///
    /// # Errors
    ///
    /// Returns the first flush/sync/rename error; on error the temporary
    /// file is removed (kept if
    /// [`keep_partial_on_drop`](Self::keep_partial_on_drop) was set).
    pub fn persist(mut self) -> io::Result<()> {
        let keep = self.keep_partial;
        let mut file = self.file.take().expect("persist consumes the file once");
        let result = file.flush().and_then(|()| match &self.policy {
            Some(p) => p.fsync(&self.target, &file),
            None => file.sync_all(),
        });
        drop(file);
        result
            .and_then(|()| match &self.policy {
                Some(p) => p.rename(&self.tmp, &self.target),
                None => fs::rename(&self.tmp, &self.target),
            })
            .and_then(|()| {
                let dir = parent_dir(&self.target);
                match &self.policy {
                    Some(p) => p.sync_dir(dir),
                    None => File::open(dir)?.sync_all(),
                }
            })
            .inspect_err(|_| {
                if !keep {
                    let _ = fs::remove_file(&self.tmp);
                }
            })
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let file = self.file.as_mut().expect("file present until persist");
        match &self.policy {
            Some(p) => p.write(&self.target, self.hash, file, buf),
            None => file.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_os()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.file.take().is_some() && !self.keep_partial {
            // Unpersisted: abandon the write and clean up the temp file.
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::iofault::IoEvent;

    fn temp_target(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pufchk_atomic_{}_{name}", std::process::id()))
    }

    #[test]
    fn persist_makes_the_bytes_appear_atomically() {
        let target = temp_target("persist");
        let mut file = AtomicFile::create(&target).unwrap();
        file.write_all(b"hello").unwrap();
        assert!(!target.exists(), "target must not exist before persist");
        assert!(tmp_path(&target).exists());
        file.persist().unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"hello");
        assert!(!tmp_path(&target).exists());
        fs::remove_file(&target).unwrap();
    }

    #[test]
    fn dropping_without_persist_leaves_nothing() {
        let target = temp_target("drop");
        let mut file = AtomicFile::create(&target).unwrap();
        file.write_all(b"torn").unwrap();
        drop(file);
        assert!(!target.exists());
        assert!(!tmp_path(&target).exists());
    }

    #[test]
    fn keep_partial_preserves_the_tmp_for_salvage() {
        let target = temp_target("keep");
        let mut file = AtomicFile::create(&target).unwrap().keep_partial_on_drop();
        file.write_all(b"partial records").unwrap();
        drop(file);
        assert!(!target.exists());
        assert_eq!(fs::read(tmp_path(&target)).unwrap(), b"partial records");
        fs::remove_file(tmp_path(&target)).unwrap();
    }

    #[test]
    fn persist_overwrites_a_previous_file() {
        let target = temp_target("overwrite");
        fs::write(&target, b"old").unwrap();
        let mut file = AtomicFile::create(&target).unwrap();
        file.write_all(b"new").unwrap();
        file.persist().unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new");
        fs::remove_file(&target).unwrap();
    }

    #[test]
    fn persist_syncs_file_then_renames_then_syncs_directory() {
        // The durability contract, asserted on the recorded syscall order:
        // the parent directory is synced *after* the rename — without it a
        // machine crash can forget the rename even though the file's own
        // bytes were synced.
        let target = temp_target("ordering");
        let policy = IoPolicy::recording();
        let mut file = AtomicFile::create_with(&target, Some(policy.clone())).unwrap();
        file.write_all(b"bytes").unwrap();
        file.persist().unwrap();
        let events = policy.events();
        assert_eq!(
            events,
            vec![
                IoEvent::Write {
                    path: target.clone(),
                    bytes: 5
                },
                IoEvent::FsyncFile {
                    path: target.clone()
                },
                IoEvent::Rename {
                    from: tmp_path(&target),
                    to: target.clone()
                },
                IoEvent::FsyncDir {
                    path: std::env::temp_dir()
                },
            ]
        );
        fs::remove_file(&target).unwrap();
    }
}
