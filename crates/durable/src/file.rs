//! The real-file [`Storage`] backend — the **one sanctioned
//! filesystem boundary** in the workspace.
//!
//! Everything above this file is deterministic and fs-free; lint rule
//! R8 enforces that no other module in the mechanism crates touches
//! `std::fs` (this file is path-allowlisted, as the thread boundary in
//! `serve/src/edge.rs` is exempt from the clippy thread and lock bans). Keeping the boundary to one
//! module means the fault model in [`crate::fault::FaultStorage`]
//! only has to imitate the behaviors visible through the [`Storage`]
//! trait, and every consumer above can be chaos-tested without a
//! disk.
//!
//! Durability mapping: `append` goes through a cached
//! `O_APPEND`-style handle and lands in the OS page cache; `flush`
//! calls `sync_all` (fsync) — the same barrier the WAL's commit
//! protocol assumes. `truncate` and `remove` sync before returning so
//! recovery's torn-tail cuts are themselves crash-safe.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::storage::{Storage, StorageError};

fn io_error(segment: &str, error: &std::io::Error) -> StorageError {
    if error.kind() == std::io::ErrorKind::NotFound {
        StorageError::NotFound {
            segment: segment.to_string(),
        }
    } else if matches!(error.raw_os_error(), Some(code) if code == 28) {
        // ENOSPC maps to the same refusal the fault backend injects.
        StorageError::NoSpace {
            segment: segment.to_string(),
        }
    } else {
        StorageError::Io {
            segment: segment.to_string(),
            detail: error.to_string(),
        }
    }
}

/// Directory-backed segment store: each segment is one file under the
/// root directory.
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
    /// Cached append handles so repeated appends don't reopen files;
    /// `flush` syncs through the same handle that wrote.
    handles: BTreeMap<String, File>,
}

impl FileStorage {
    /// Opens (creating if needed) the directory that holds segments.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the directory cannot be
    /// created or is not accessible.
    #[must_use = "an unopened store has no directory to write to"]
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_error("<root>", &e))?;
        Ok(Self {
            root,
            handles: BTreeMap::new(),
        })
    }

    /// The backing directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, segment: &str) -> PathBuf {
        self.root.join(segment)
    }

    fn handle(&mut self, segment: &str) -> Result<&mut File, StorageError> {
        if !self.handles.contains_key(segment) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(segment))
                .map_err(|e| io_error(segment, &e))?;
            self.handles.insert(segment.to_string(), file);
        }
        match self.handles.get_mut(segment) {
            Some(file) => Ok(file),
            None => Err(StorageError::Io {
                segment: segment.to_string(),
                detail: "append handle vanished".to_string(),
            }),
        }
    }
}

impl Storage for FileStorage {
    fn segments(&mut self) -> Result<Vec<String>, StorageError> {
        let entries = fs::read_dir(&self.root).map_err(|e| io_error("<root>", &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_error("<root>", &e))?;
            if entry.path().is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&mut self, segment: &str) -> Result<Vec<u8>, StorageError> {
        fs::read(self.path(segment)).map_err(|e| io_error(segment, &e))
    }

    fn append(&mut self, segment: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.handle(segment)?
            .write_all(bytes)
            .map_err(|e| io_error(segment, &e))
    }

    fn flush(&mut self, segment: &str) -> Result<(), StorageError> {
        if !self.path(segment).exists() {
            return Ok(());
        }
        self.handle(segment)?
            .sync_all()
            .map_err(|e| io_error(segment, &e))
    }

    fn truncate(&mut self, segment: &str, len: u64) -> Result<(), StorageError> {
        // Drop the append handle first: its kernel offset would
        // otherwise point past the new end.
        self.handles.remove(segment);
        let file = OpenOptions::new()
            .write(true)
            .open(self.path(segment))
            .map_err(|e| io_error(segment, &e))?;
        let current = file.metadata().map_err(|e| io_error(segment, &e))?.len();
        if len < current {
            file.set_len(len).map_err(|e| io_error(segment, &e))?;
        }
        file.sync_all().map_err(|e| io_error(segment, &e))
    }

    fn remove(&mut self, segment: &str) -> Result<(), StorageError> {
        self.handles.remove(segment);
        match fs::remove_file(self.path(segment)) {
            Ok(()) => Ok(()),
            // Idempotent like the trait demands: a compaction retry
            // must not fail on an already-removed segment.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_error(segment, &e)),
        }
    }
}
