//! File-backed memory: a thin, dependency-free `mmap` wrapper.
//!
//! The decomposition storage model writes every dimensional fragment as one
//! contiguous run of `f64`s — a layout that maps 1:1 onto file-backed
//! memory. [`MappedRegion`] maps a whole store file read-only into the
//! address space (via a minimal `extern "C"` binding to `mmap`/`munmap`;
//! std already links libc on the platforms we target), so a [`crate::Column`]
//! can *view* its fragment in the page cache instead of owning a heap copy:
//! collections larger than RAM become servable, and a cold open touches only
//! the metadata pages until a search faults the data in.
//!
//! Where real mapping is unavailable (non-unix targets, big-endian machines
//! whose in-memory `f64` layout differs from the little-endian file format,
//! 32-bit ABIs whose `off_t` does not match this binding's `i64` offset, or
//! an allocation-granularity misalignment), callers fall back to buffered
//! reads — [`StorageBackend::Mapped`] is a *request*, the store reports the
//! backend actually in effect.

use crate::error::{Result, VdError};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// How a persisted store's column data should be materialised in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageBackend {
    /// Decode every fragment into owned heap `Vec<f64>`s (always available).
    #[default]
    Heap,
    /// View the fragments through a read-only file mapping: zero-copy, lazy
    /// page-in, shareable across processes through the page cache. Falls
    /// back to buffered reads where mapping is unsupported.
    Mapped,
}

impl StorageBackend {
    /// The backend selected by the `VDSTORE_BACKEND` environment variable
    /// (`heap`, `mmap`/`mapped`), or [`StorageBackend::default_for_platform`]
    /// when unset or unrecognised. This is the switch the CI matrix flips to
    /// run the whole test suite against both backends.
    pub fn from_env() -> Self {
        match std::env::var("VDSTORE_BACKEND").as_deref() {
            Ok("heap") => StorageBackend::Heap,
            Ok("mmap") | Ok("mapped") => StorageBackend::Mapped,
            _ => Self::default_for_platform(),
        }
    }

    /// [`StorageBackend::Mapped`] where zero-copy mapping is supported
    /// (64-bit little-endian unix), [`StorageBackend::Heap`] elsewhere.
    pub fn default_for_platform() -> Self {
        if Self::mapping_supported() {
            StorageBackend::Mapped
        } else {
            StorageBackend::Heap
        }
    }

    /// Whether this platform can honour [`StorageBackend::Mapped`] with a
    /// real zero-copy mapping (as opposed to the buffered-read fallback).
    ///
    /// Requires unix (for `mmap`), little-endian (the file format's `f64`s
    /// are read in place) and a 64-bit target — the hand-rolled binding
    /// declares the file offset as `i64`, which matches `off_t` only on
    /// LP64 ABIs, so 32-bit targets take the buffered-read fallback.
    pub fn mapping_supported() -> bool {
        cfg!(all(unix, target_endian = "little", target_pointer_width = "64"))
    }
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// A read-only, file-backed memory region, unmapped on drop.
///
/// The region is immutable and private to this mapping (`PROT_READ`), so
/// sharing it across threads is safe; columns hold it behind an [`Arc`] and
/// carve their fragment sub-slices out of it.
#[derive(Debug)]
pub struct MappedRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is owned by this struct alone (the pointer is never
// duplicated outside it), so moving the struct moves unique ownership of
// the region to another thread.
unsafe impl Send for MappedRegion {}
// SAFETY: the region is mapped PROT_READ and never handed out mutably, so
// concurrent reads from any thread are safe.
unsafe impl Sync for MappedRegion {}

impl MappedRegion {
    /// Maps `path` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// [`VdError::Io`] when the file cannot be opened/statted or the
    /// platform refuses the mapping (including platforms without `mmap` —
    /// the caller is expected to fall back to buffered reads).
    pub fn map_file(path: &Path) -> Result<Arc<MappedRegion>> {
        let file =
            File::open(path).map_err(|e| VdError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| VdError::Io(format!("stat {}: {e}", path.display())))?
            .len();
        let len = usize::try_from(len)
            .map_err(|_| VdError::Io(format!("{} too large to map", path.display())))?;
        Self::map(&file, len, path)
    }

    #[cfg(unix)]
    fn map(file: &File, len: usize, path: &Path) -> Result<Arc<MappedRegion>> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty file maps to an empty region.
            return Ok(Arc::new(MappedRegion { ptr: std::ptr::null(), len: 0 }));
        }
        // SAFETY: fd is a valid open file descriptor for the duration of the
        // call; a fresh shared read-only mapping of it aliases nothing we
        // hand out mutably.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED || ptr.is_null() {
            return Err(VdError::Io(format!("mmap {} ({len} bytes) failed", path.display())));
        }
        Ok(Arc::new(MappedRegion { ptr: ptr as *const u8, len }))
    }

    #[cfg(not(unix))]
    fn map(_file: &File, _len: usize, path: &Path) -> Result<Arc<MappedRegion>> {
        Err(VdError::Io(format!("mmap unsupported on this platform ({})", path.display())))
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr..ptr+len is a live PROT_READ mapping for &self's life.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Views `count` `f64`s starting at `byte_offset` directly in the
    /// mapping (zero-copy).
    ///
    /// # Errors
    ///
    /// [`VdError::Io`] when the range falls outside the mapping or the
    /// mapped address is not 8-byte aligned for `f64` access (mappings are
    /// page-aligned, so this only requires `byte_offset % 8 == 0` — the
    /// store format pads its data region accordingly).
    pub fn f64_slice(&self, byte_offset: usize, count: usize) -> Result<&[f64]> {
        let bytes = count
            .checked_mul(8)
            .and_then(|b| b.checked_add(byte_offset))
            .ok_or_else(|| VdError::Io("mapped f64 range overflows".into()))?;
        if bytes > self.len {
            return Err(VdError::Io(format!(
                "mapped f64 range {byte_offset}+{count}x8 exceeds region of {} bytes",
                self.len
            )));
        }
        if count == 0 {
            return Ok(&[]);
        }
        let start = self.ptr.wrapping_add(byte_offset);
        if !(start as usize).is_multiple_of(std::mem::align_of::<f64>()) {
            return Err(VdError::Io(format!(
                "mapped f64 range at byte offset {byte_offset} is not 8-byte aligned"
            )));
        }
        // SAFETY: range checked above, alignment checked above, the mapping
        // outlives the borrow, and (on the little-endian targets that take
        // this path) any 8 bytes are a valid f64 bit pattern.
        unsafe { Ok(std::slice::from_raw_parts(start as *const f64, count)) }
    }
}

impl Drop for MappedRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            unsafe {
                sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("vdstore_mmap_{name}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn backend_env_switch() {
        // from_env falls back to the platform default on unset/garbage; the
        // explicit values are covered by the CI matrix setting the variable.
        let default = StorageBackend::default_for_platform();
        assert_eq!(
            default,
            if StorageBackend::mapping_supported() {
                StorageBackend::Mapped
            } else {
                StorageBackend::Heap
            }
        );
        assert_eq!(StorageBackend::default(), StorageBackend::Heap);
    }

    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    #[test]
    fn map_file_round_trips_bytes_and_f64s() {
        let mut contents = Vec::new();
        for v in [1.5f64, -2.25, 0.0, 1e300] {
            contents.extend_from_slice(&v.to_le_bytes());
        }
        let path = temp_file("roundtrip", &contents);
        let region = MappedRegion::map_file(&path).unwrap();
        assert_eq!(region.len(), 32);
        assert!(!region.is_empty());
        assert_eq!(region.as_bytes(), &contents[..]);
        assert_eq!(region.f64_slice(0, 4).unwrap(), &[1.5, -2.25, 0.0, 1e300]);
        assert_eq!(region.f64_slice(8, 2).unwrap(), &[-2.25, 0.0]);
        assert_eq!(region.f64_slice(8, 0).unwrap(), &[] as &[f64]);
        // out of range and misaligned accesses are errors, not UB
        assert!(matches!(region.f64_slice(0, 5), Err(VdError::Io(_))));
        assert!(matches!(region.f64_slice(4, 1), Err(VdError::Io(_))));
        assert!(matches!(region.f64_slice(usize::MAX, 2), Err(VdError::Io(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn empty_and_missing_files() {
        let path = temp_file("empty", &[]);
        let region = MappedRegion::map_file(&path).unwrap();
        assert!(region.is_empty());
        assert_eq!(region.as_bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(MappedRegion::map_file(&path), Err(VdError::Io(_))));
    }
}
