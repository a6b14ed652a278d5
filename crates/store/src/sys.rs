//! A thin `extern "C"` shim over the three Linux syscalls the store
//! needs — `mmap` / `munmap` / `madvise` — bound directly against the
//! libc std already links, so the out-of-core path costs no crates.io
//! dependency. This mirrors the epoll shim in `pasco_server::sys`: the
//! workspace's second (and only other) sanctioned `unsafe` module.
//!
//! The unsafety is confined to the raw calls, the one fill of an
//! anonymous mapping ([`Mmap::from_bytes`]) and the typed
//! reinterpretation of mapped bytes: everything is wrapped in an owned
//! [`Mmap`] that unmaps on drop and exposes a safe, checked surface.
//! Typed access goes through [`Sections`], which owns the `Mmap` and
//! resolves a table of `(offset, bytes)` sections **once**, or through
//! [`Mmap::slice_at`], one view borrowed from the mapping: bounds and
//! 8-byte alignment are verified before any slice is fabricated, the
//! views live and die with the mapping they were cut from, and every bit
//! pattern is a valid [`Pod`] value, so no accessor can mint an invalid
//! value — corrupt files yield garbage *numbers*, never undefined
//! behaviour. Resolving reads no mapped byte, so it faults no page in.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "pasco_store's zero-copy loader is built on mmap and requires Linux \
     (the workspace's deployment and CI target)"
);

#[cfg(not(target_endian = "little"))]
compile_error!(
    "the PASCOSH1 shard format is little-endian and is reinterpreted in \
     place; a big-endian host would need a byte-swapping loader"
);

use std::fs::File;
use std::io;
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MADV_RANDOM: c_int = 1;
const MADV_WILLNEED: c_int = 3;
const MADV_DONTNEED: c_int = 4;

/// Alignment every resolved section must have: the format's
/// `SECTION_ALIGN`, which is also the widest element type's.
const ALIGN: usize = crate::format::SECTION_ALIGN as usize;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

/// A read-only private memory mapping that unmaps on drop: a file
/// ([`Mmap::map_readonly`]) or a copy of bytes already in memory
/// ([`Mmap::from_bytes`]).
///
/// A file mapping is `PROT_READ | MAP_PRIVATE`: nothing can write through
/// it, and writes to the file by other processes are not required to be
/// visible, so the byte slice it exposes is stable for the mapping's
/// lifetime (the standard mmap caveat applies: truncating the file
/// underneath a live mapping is an external-process fault the kernel
/// reports as `SIGBUS`, the same contract every mmap consumer accepts).
/// An anonymous mapping is filled once, before the `Mmap` value exists,
/// and no method writes through `ptr` afterwards.
pub struct Mmap {
    /// Base address; never null for a non-empty mapping.
    ptr: *mut c_void,
    len: usize,
    /// True for a file mapping: only its pages may be dropped, because
    /// only they fault back in with the same bytes.
    file: bool,
}

/// Element types a mapped view may be read as: plain old data of
/// alignment at most 8 for which every bit pattern is a valid value.
pub trait Pod: Copy + sealed::Sealed {}

mod sealed {
    pub trait Sealed {}
}

macro_rules! pod {
    ($($t:ty),*) => {$(impl sealed::Sealed for $t {} impl Pod for $t {})*};
}
pod!(u16, u32, u64, usize, f64);

// SAFETY: the mapping is immutable for the whole lifetime of the value —
// PROT_READ for a file; for an anonymous one the only write is the fill
// in `from_bytes`, which completes before the value is constructed, so it
// happens-before every access through it — and `ptr` is private to a
// module with no writing method: shared references are valid from any
// thread.
unsafe impl Send for Mmap {}
// SAFETY: as above — &Mmap only ever reads.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps the entire `file` read-only. An empty file maps to an empty
    /// (allocation-free) `Mmap`.
    pub fn map_readonly(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file exceeds the address space",
            ));
        }
        let ptr = Self::map_private(len as usize, Some(file))?;
        Ok(Mmap { ptr, len: len as usize, file: true })
    }

    /// The one `mmap` call: `len` fresh private bytes — `file`'s, read-only,
    /// or anonymous zeroes, writable until the constructor is done with
    /// them. Null (and no syscall) for `len == 0`.
    fn map_private(len: usize, file: Option<&File>) -> io::Result<*mut c_void> {
        if len == 0 {
            return Ok(std::ptr::null_mut());
        }
        let (prot, flags, fd) = match file {
            Some(file) => (PROT_READ, MAP_PRIVATE, file.as_raw_fd()),
            None => (PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1),
        };
        // SAFETY: mmap with a null hint (and no MAP_FIXED) touches none of
        // our memory; it returns MAP_FAILED (-1) or a fresh page-aligned
        // mapping of `len` bytes we then own exclusively.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, fd, 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr)
    }

    /// A private anonymous mapping holding a copy of `bytes` — the same
    /// page-aligned, unmapped-on-drop memory a file mapping is, so an
    /// image that arrived over the wire is used exactly like one read
    /// from disk. Empty input maps to an empty `Mmap`.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Mmap> {
        let len = bytes.len();
        let ptr = Self::map_private(len, None)?;
        if len > 0 {
            // SAFETY: `ptr` is valid for `len` writable bytes (just mapped),
            // `bytes` for `len` readable ones, and a fresh mapping cannot
            // overlap a live borrow. This is the mapping's only write, and
            // it ends before the `Mmap` is built.
            unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr as *mut u8, len) };
        }
        Ok(Mmap { ptr, len, file: false })
    }

    /// The page size a range given to [`Mmap::drop_pages`] starts on a
    /// multiple of: Linux's on x86-64 and most aarch64 kernels.
    pub const PAGE: usize = 4096;

    /// The `count` `T`s at byte `offset`, when they lie inside the mapping
    /// and start on an 8-byte boundary.
    pub fn slice_at<T: Pod>(&self, offset: usize, count: usize) -> Option<&[T]> {
        let base = self.checked(offset, count.checked_mul(size_of::<T>())?)?;
        // SAFETY: `checked` put the `count · size_of::<T>()` bytes at `base`
        // inside the mapping (or answered a dangling aligned address for an
        // empty range) on an 8-byte boundary, which aligns every `Pod`
        // type; every bit pattern is a valid `T`; the mapping is immutable
        // and lives as long as the borrow of `self`.
        Some(unsafe { std::slice::from_raw_parts(base as *const T, count) })
    }

    /// Drops the pages holding bytes `range` of a file mapping from the
    /// process's resident set (`MADV_DONTNEED`); a no-op on an anonymous
    /// one, or when `range` does not start on a page (the kernel refuses).
    /// A private file mapping is never written, so a dropped page faults
    /// back in from the page cache or the file with the same bytes and
    /// every live view stays valid — the drop costs only a refault.
    pub fn drop_pages(&self, range: Range<usize>) {
        let (start, end) = (range.start, range.end.min(self.len));
        if self.file && start < end {
            // SAFETY: `[start, end)` lies inside a live mapping we own;
            // DONTNEED on a private, never-written file mapping only unmaps
            // pages that refault with identical contents, so no borrowed
            // view observes a change. A failure is ignorable: the advice
            // only lowers residency.
            let _ =
                unsafe { madvise(self.ptr.wrapping_byte_add(start), end - start, MADV_DONTNEED) };
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes as a slice.
    pub fn as_bytes(&self) -> &[u8] {
        if self.is_empty() {
            return &[];
        }
        // SAFETY: `ptr` is a live readable mapping of exactly `len`
        // bytes, never written while `self` lives; u8 has no alignment
        // or validity requirements.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// Advises the kernel that access will be random (walk lookups), so
    /// readahead is not wasted on pages the walk never touches.
    pub fn advise_random(&self) {
        self.advise(MADV_RANDOM);
    }

    /// Advises the kernel to start paging the mapping in (a sequential
    /// verify or a full scan benefits from readahead).
    pub fn advise_willneed(&self) {
        self.advise(MADV_WILLNEED);
    }

    fn advise(&self, advice: c_int) {
        if self.len == 0 {
            return;
        }
        // SAFETY: `ptr`/`len` describe a live mapping we own; madvise is
        // a hint and cannot invalidate it. A failure is ignorable by
        // contract (the advice is an optimisation, not a correctness
        // requirement).
        let _ = unsafe { madvise(self.ptr, self.len, advice) };
    }

    /// The one bounds and alignment check: the address of the `bytes`
    /// bytes at `offset`, when they lie inside the mapping and start on
    /// an [`ALIGN`] boundary. An empty range answers a dangling aligned
    /// address (never null — an empty mapping has no base to offset).
    fn checked(&self, offset: usize, bytes: usize) -> Option<*const u8> {
        if offset.checked_add(bytes)? > self.len {
            return None;
        }
        if bytes == 0 {
            return Some(std::ptr::without_provenance(ALIGN));
        }
        let base = (self.ptr as *const u8).wrapping_add(offset);
        (base as usize).is_multiple_of(ALIGN).then_some(base)
    }
}

/// A mapping together with `N` sections of it resolved **once**: each
/// `(offset, bytes)` pair is bounds- and alignment-checked when the value
/// is built, and every later [`Sections::u64s`] / [`Sections::u32s`] /
/// [`Sections::f64s`] is two loads and a shift — what a resident `Vec`
/// costs per lookup.
///
/// The resolved addresses cannot dangle or be paired with another
/// mapping: they are private, cut from the `Mmap` this value owns, which
/// is never handed out mutably and unmaps only when the whole value
/// drops. Every section must start on an 8-byte boundary, so any of them
/// may be read at any of the three element types without undefined
/// behaviour — the wrong one yields garbage *numbers*, like a corrupt file.
pub struct Sections<const N: usize> {
    map: Mmap,
    /// `(base, bytes)`: [`ALIGN`]ed, `[base, base + bytes)` inside `map`.
    views: [(*const u8, usize); N],
}

// SAFETY: the views point into `map`, which is immutable for its whole
// lifetime and Send + Sync itself; they are only ever read through &self.
unsafe impl<const N: usize> Send for Sections<N> {}
// SAFETY: as above.
unsafe impl<const N: usize> Sync for Sections<N> {}

impl<const N: usize> Sections<N> {
    /// Resolves the `(offset, bytes)` table against `map`, or names the
    /// first entry that is out of bounds or not 8-byte aligned.
    pub fn resolve(map: Mmap, table: [(usize, usize); N]) -> Result<Self, usize> {
        let mut views = [(std::ptr::null(), 0); N];
        for (i, &(offset, bytes)) in table.iter().enumerate() {
            views[i] = (map.checked(offset, bytes).ok_or(i)?, bytes);
        }
        Ok(Sections { map, views })
    }

    /// The mapping the sections were cut from.
    pub fn map(&self) -> &Mmap {
        &self.map
    }

    /// Section `sec` as `u64`s.
    #[inline]
    pub fn u64s(&self, sec: usize) -> &[u64] {
        self.view(sec)
    }

    /// Section `sec` as `u32`s.
    #[inline]
    pub fn u32s(&self, sec: usize) -> &[u32] {
        self.view(sec)
    }

    /// Section `sec` as `f64`s (every bit pattern is a valid `f64`).
    #[inline]
    pub fn f64s(&self, sec: usize) -> &[f64] {
        self.view(sec)
    }

    /// Private: the public wrappers restrict `T` to plain-old-data types
    /// of alignment ≤ 8 for which any bit pattern is valid.
    #[inline]
    fn view<T: Copy>(&self, sec: usize) -> &[T] {
        let (base, bytes) = self.views[sec];
        // SAFETY: `resolve` put [base, base + bytes) inside `self.map` (or
        // at a dangling aligned address when empty) on an 8-byte boundary,
        // which aligns it for T; the element count rounds down, so the
        // slice ends inside the range. The mapping is live and immutable
        // for as long as `self` — its only owner — is, and the borrow is
        // tied to &self.
        unsafe { std::slice::from_raw_parts(base as *const T, bytes / std::mem::size_of::<T>()) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: `ptr`/`len` describe the mapping created by one of the
        // two constructors and not yet unmapped; after this the struct
        // is gone, so no dangling access can follow.
        let _ = unsafe { munmap(self.ptr, self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> File {
        let path = std::env::temp_dir().join(format!("pasco_store_sys_{name}"));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        f.flush().unwrap();
        File::open(&path).unwrap()
    }

    #[test]
    fn maps_a_real_file_and_reads_it_back() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096 + 17).collect();
        let f = temp_file("roundtrip", &payload);
        // The file mapping and the anonymous copy are one kind of value.
        for m in [Mmap::map_readonly(&f).unwrap(), Mmap::from_bytes(&payload).unwrap()] {
            assert_eq!(m.len(), payload.len());
            assert_eq!(m.as_bytes(), &payload[..]);
            m.advise_random();
            m.advise_willneed();
            assert_eq!(m.slice_at::<u16>(8, 2), Some(&[0x0908, 0x0b0a][..]));
            assert_eq!(m.slice_at::<u16>(2, 1), None, "misaligned");
            assert_eq!(m.slice_at::<u64>(4096, 3), None, "past the end");
            // A dropped file page faults back in with the same bytes; an
            // anonymous mapping keeps its pages.
            m.drop_pages(0..m.len());
            assert_eq!(m.as_bytes(), &payload[..]);
            // Page-aligned, so aligned offsets resolve to aligned views.
            let s = Sections::resolve(m, [(8, 16)]).unwrap();
            assert_eq!(s.u64s(0), &[0x0f0e_0d0c_0b0a_0908, 0x1716_1514_1312_1110]);
        }
        assert!(Mmap::from_bytes(b"").unwrap().is_empty());
    }

    #[test]
    fn empty_file_maps_empty() {
        let f = temp_file("empty", b"");
        let m = Mmap::map_readonly(&f).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.as_bytes(), b"");
        let s = Sections::resolve(m, [(0, 0)]).expect("an empty section of an empty map");
        assert_eq!(s.u64s(0), &[] as &[u64]);
        let m = Mmap::map_readonly(&f).unwrap();
        assert_eq!(Sections::resolve(m, [(0, 8)]).err(), Some(0));
    }

    #[test]
    fn sections_decode_little_endian_values() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xdead_beef_u32.to_le_bytes());
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&1.5f64.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes());
        let f = temp_file("typed", &bytes);
        let m = Mmap::map_readonly(&f).unwrap();
        let s = Sections::resolve(m, [(0, 8), (8, 8), (16, 8), (24, 4)]).unwrap();
        assert_eq!(s.map().len(), 28);
        assert_eq!(s.u32s(0), &[0xdead_beef, 7]);
        assert_eq!(s.u64s(1), &[u64::MAX]);
        assert_eq!(s.f64s(2), &[1.5]);
        // A 4-byte section holds one u32 and no (partial) u64.
        assert_eq!(s.u32s(3), &[9]);
        assert_eq!(s.u64s(3), &[] as &[u64]);
    }

    #[test]
    fn sections_reject_out_of_bounds_and_misalignment() {
        let f = temp_file("bounds", &[0u8; 64]);
        let refused = |entry: (usize, usize)| {
            let m = Mmap::map_readonly(&f).unwrap();
            Sections::resolve(m, [(0, 64), entry]).err()
        };
        // Out of bounds: length, offset, and overflowing combinations.
        assert_eq!(refused((0, 72)), Some(1));
        assert_eq!(refused((64, 8)), Some(1));
        assert_eq!(refused((usize::MAX, 8)), Some(1));
        assert_eq!(refused((8, usize::MAX)), Some(1));
        // Misaligned: mappings are page-aligned, so only multiples of 8
        // start a section — whatever its element type.
        assert_eq!(refused((4, 8)), Some(1));
        assert_eq!(refused((3, 8)), Some(1));
        assert_eq!(refused((2, 4)), Some(1));
        // Aligned, in-bounds sections resolve, to the end of the file.
        assert_eq!(refused((8, 56)), None);
        assert_eq!(refused((64, 0)), None);
        let m = Mmap::map_readonly(&f).unwrap();
        let s = Sections::resolve(m, [(8, 56), (56, 4)]).unwrap();
        assert_eq!(s.u64s(0), &[0u64; 7]);
        assert_eq!(s.u32s(1), &[0u32]);
    }
}
