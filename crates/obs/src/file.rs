//! Crash-safe file replacement: the workspace's one writer for files
//! that must never be seen half-written (result-cache cells, live
//! checkpoints).

use std::ffi::{OsStr, OsString};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process call counter; with the pid it makes every temp name
/// unique, so two writers of one path never share a temp file.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replaces the file at `path` with `bytes` so that a reader, or a
/// crash, sees either the old content or the new, never a mix.
///
/// Creates the parent directory, writes a temp file next to `path`,
/// syncs it, renames it over `path`, and on Unix syncs the directory so
/// the rename itself survives a crash. The temp name is `path`'s file
/// name plus `.<pid>.<n>.tmp`, unique per process and per call. If any
/// step fails the temp file is removed and `path` is left as it was.
///
/// # Errors
///
/// Returns the first I/O failure (or `InvalidInput` when `path` has no
/// file name).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{}: no file name to write", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(temp_name(name));
    let written = write_synced(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| sync_dir(dir));
    if written.is_err() {
        // Absent once the rename succeeded; nothing to clean up then.
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn temp_name(name: &OsStr) -> PathBuf {
    // lint:allow(ordering-relaxed) — the counter only has to hand out distinct values; no memory is published through it
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = OsString::from(name);
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// The rename lives in the directory's entries: sync them too, or a
/// crash can lose the publish after the file itself is durable. Only
/// Unix opens a directory as a file that can be synced.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::atomic_write;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("airguard-obs-atomic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entries(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn overwrite_replaces_the_content() {
        let dir = scratch("overwrite");
        let path = dir.join("nested").join("a.cell");
        atomic_write(&path, b"first, and longer").expect("first write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read back"), b"second");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_successful_write_leaves_exactly_one_file() {
        let dir = scratch("single");
        for i in 0..5u8 {
            atomic_write(&dir.join("ckpt-1.ckpt"), &[i; 64]).expect("write");
        }
        assert_eq!(entries(&dir), ["ckpt-1.ckpt"]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_failing_rename_is_an_error_and_leaves_no_temp_file() {
        // A non-empty directory cannot be replaced by a file.
        let dir = scratch("rename");
        let target = dir.join("occupied");
        std::fs::create_dir_all(target.join("inner")).expect("make target dir");
        atomic_write(&target, b"payload").expect_err("rename must fail");
        assert_eq!(entries(&dir), ["occupied"], "temp file left behind");
        assert!(target.join("inner").is_dir(), "target was disturbed");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_path_without_a_file_name_is_rejected() {
        let err = atomic_write(std::path::Path::new("/"), b"x").expect_err("no name");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
