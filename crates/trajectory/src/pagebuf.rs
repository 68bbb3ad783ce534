//! Arrays that hand their memory back when dropped.
//!
//! An index over a live database is rebuilt whole at every compaction,
//! and its columns are megabytes each. Left to the allocator, glibc
//! serves the first such buffer from its own mapping, raises its mmap
//! threshold past that size when the buffer is freed, and serves every
//! later one from the heap, where a retired generation's index leaves
//! holes the next one does not fit: the process's resident set grows
//! with every fold although what is live does not.
//!
//! [`PageBuf`] is a growable array of plain values that takes a buffer
//! of at least [`MAP_MIN_BYTES`] straight from the kernel as an
//! anonymous mapping and unmaps it on drop, so nothing it frees reaches
//! the allocator's heuristics. Smaller buffers stay on the heap, as a
//! `Vec` would. Off unix every buffer is on the heap.

use std::alloc::{self, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Buffers of at least this many bytes get their own anonymous mapping
/// (on unix targets); smaller ones are heap allocations.
pub const MAP_MIN_BYTES: usize = 1 << 20;

/// Raw libc symbols for memory mappings. This workspace builds offline,
/// so there is no `libc` crate; the snapshot reader's file mappings use
/// the same block.
#[cfg(unix)]
pub(crate) mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 2;

    /// `MAP_ANONYMOUS` differs per OS; 0 where it is not known here, and
    /// page buffers then stay on the heap.
    #[cfg(all(
        any(target_os = "linux", target_os = "android"),
        not(any(target_arch = "mips", target_arch = "mips64"))
    ))]
    pub const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(all(
        any(target_os = "linux", target_os = "android"),
        any(target_arch = "mips", target_arch = "mips64")
    ))]
    pub const MAP_ANONYMOUS: c_int = 0x800;
    #[cfg(any(
        target_vendor = "apple",
        target_os = "freebsd",
        target_os = "openbsd",
        target_os = "netbsd",
        target_os = "dragonfly"
    ))]
    pub const MAP_ANONYMOUS: c_int = 0x1000;
    #[cfg(not(any(
        target_os = "linux",
        target_os = "android",
        target_vendor = "apple",
        target_os = "freebsd",
        target_os = "openbsd",
        target_os = "netbsd",
        target_os = "dragonfly"
    )))]
    pub const MAP_ANONYMOUS: c_int = 0;

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

    /// `MAP_POPULATE` (Linux only; 0 elsewhere, where pages are faulted
    /// in one by one as they are first written).
    #[cfg(all(
        any(target_os = "linux", target_os = "android"),
        not(any(target_arch = "mips", target_arch = "mips64"))
    ))]
    pub const MAP_POPULATE: c_int = 0x8000;
    #[cfg(all(
        any(target_os = "linux", target_os = "android"),
        any(target_arch = "mips", target_arch = "mips64")
    ))]
    pub const MAP_POPULATE: c_int = 0x10000;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const MAP_POPULATE: c_int = 0;

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// Whether a buffer of `bytes` is its own mapping.
fn mapped(bytes: usize) -> bool {
    #[cfg(unix)]
    let maps = sys::MAP_ANONYMOUS != 0;
    #[cfg(not(unix))]
    let maps = false;
    maps && bytes >= MAP_MIN_BYTES
}

/// Values whose all-zero bit pattern is a valid value, so a
/// [`PageBuf::zeroed`] buffer can be read before it is written.
///
/// # Safety
/// An implementor must be valid for every bit pattern of all zeros.
pub unsafe trait Zeroable: Copy {}

// SAFETY: all-zero bits are 0 and 0.0.
unsafe impl Zeroable for u32 {}
unsafe impl Zeroable for u64 {}
unsafe impl Zeroable for f64 {}

/// A growable array of plain (`Copy`) values whose storage is an
/// anonymous mapping of its own from [`MAP_MIN_BYTES`] on, and a heap
/// allocation below. It derefs to a slice; growth moves it to a fresh
/// allocation of twice the capacity, chosen by the same rule, and frees
/// the old one at once.
pub struct PageBuf<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
}

// SAFETY: a `PageBuf` owns its values exactly as a `Vec` does.
unsafe impl<T: Copy + Send> Send for PageBuf<T> {}
// SAFETY: shared access hands out `&[T]` only.
unsafe impl<T: Copy + Sync> Sync for PageBuf<T> {}

impl<T: Copy> PageBuf<T> {
    /// An empty buffer; allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// An empty buffer with room for `cap` values. A mapping's untouched
    /// pages cost no resident memory, so a generous capacity is cheap.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            ptr: allocate(cap, Fill::Reserve),
            len: 0,
            cap,
        }
    }

    /// An empty buffer with room for `cap` values that the caller is
    /// about to write, every one of them.
    fn for_writing(cap: usize) -> Self {
        Self {
            ptr: allocate(cap, Fill::Written),
            len: 0,
            cap,
        }
    }

    /// Number of values.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no values.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the storage is an anonymous mapping of its own rather
    /// than a heap allocation.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        mapped(bytes_of::<T>(self.cap))
    }

    /// Appends `value`.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len == self.cap {
            self.grow(1);
        }
        // SAFETY: `len < cap`, so the slot is inside the allocation.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Appends every value of `values`.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        if self.cap - self.len < values.len() {
            self.grow(values.len());
        }
        // SAFETY: the allocation has room for `values.len()` more values,
        // and a borrowed slice cannot overlap storage `self` owns mutably.
        unsafe {
            std::ptr::copy_nonoverlapping(
                values.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                values.len(),
            );
        }
        self.len += values.len();
    }

    /// Moves the values to an allocation with room for `additional` more
    /// (at least twice the current capacity).
    #[cold]
    fn grow(&mut self, additional: usize) {
        let needed = self.len.checked_add(additional).expect("capacity overflow");
        let mut next = Self::with_capacity(needed.max(2 * self.cap).max(8));
        next.extend_from_slice(self);
        *self = next;
    }
}

impl<T: Zeroable> PageBuf<T> {
    /// `len` zero values, for a build that fills them in place. A mapped
    /// buffer comes zeroed from the kernel, a heap one from `calloc`.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        Self {
            ptr: allocate(len, Fill::Zeroed),
            len,
            cap: len,
        }
    }
}

/// Bytes of `cap` values of `T`.
fn bytes_of<T>(cap: usize) -> usize {
    cap.checked_mul(std::mem::size_of::<T>())
        .expect("capacity overflow")
}

/// What a new allocation is for.
#[derive(Clone, Copy, PartialEq)]
enum Fill {
    /// Room that may never be used: a mapping's pages are left to be
    /// faulted in as they are first written.
    Reserve,
    /// Every value is about to be written: a mapping is populated at
    /// once, one call instead of a page fault per page.
    Written,
    /// As `Written`, and read as zeros until then.
    Zeroed,
}

/// Storage for `cap` values of `T`: a fresh anonymous mapping when
/// [`mapped`] (zero-filled, as every anonymous mapping is), otherwise the
/// heap (zero-filled for [`Fill::Zeroed`]).
fn allocate<T>(cap: usize, fill: Fill) -> NonNull<T> {
    assert!(
        std::mem::size_of::<T>() > 0,
        "page buffers hold sized values"
    );
    if cap == 0 {
        return NonNull::dangling();
    }
    let layout = Layout::array::<T>(cap).expect("capacity overflow");
    #[cfg(unix)]
    if mapped(layout.size()) {
        let populate = if fill == Fill::Reserve {
            0
        } else {
            sys::MAP_POPULATE
        };
        // SAFETY: a fresh private read-write anonymous mapping; the
        // result is checked against MAP_FAILED before use, and a page
        // alignment satisfies every `T` a buffer holds.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                layout.size(),
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | populate,
                -1,
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            alloc::handle_alloc_error(layout);
        }
        return NonNull::new(ptr.cast()).unwrap_or_else(|| alloc::handle_alloc_error(layout));
    }
    // SAFETY: `layout` has a non-zero size (cap > 0, sized T).
    let ptr = unsafe {
        if fill == Fill::Zeroed {
            alloc::alloc_zeroed(layout)
        } else {
            alloc::alloc(layout)
        }
    };
    NonNull::new(ptr.cast()).unwrap_or_else(|| alloc::handle_alloc_error(layout))
}

impl<T: Copy> Drop for PageBuf<T> {
    fn drop(&mut self) {
        if self.cap == 0 {
            return;
        }
        let layout = Layout::array::<T>(self.cap).expect("checked at allocation");
        #[cfg(unix)]
        if mapped(layout.size()) {
            // SAFETY: `ptr`/`layout.size()` are the mapping `allocate`
            // made for this capacity, unmapped exactly once.
            unsafe { sys::munmap(self.ptr.as_ptr().cast(), layout.size()) };
            return;
        }
        // SAFETY: `allocate` took this block from the heap with `layout`.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast(), layout) };
    }
}

impl<T: Copy> Deref for PageBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the first `len` values are initialized, and `ptr` is
        // non-null and aligned (dangling only when `cap` is 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> DerefMut for PageBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the access unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Default for PageBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Clone for PageBuf<T> {
    /// An independent copy of the values, its storage chosen for its own
    /// length.
    fn clone(&self) -> Self {
        let mut copy = Self::for_writing(self.len);
        copy.extend_from_slice(self);
        copy
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for PageBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Copy> Extend<T> for PageBuf<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy> FromIterator<T> for PageBuf<T> {
    /// Collects with the iterator's lower size bound as the starting
    /// capacity, so an exact-size iterator allocates once, and that once
    /// populated.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut buf = match iter.size_hint() {
            (lower, Some(upper)) if lower == upper => Self::for_writing(lower),
            (lower, _) => Self::with_capacity(lower),
        };
        buf.extend(iter);
        buf
    }
}

impl<T: Copy> From<Vec<T>> for PageBuf<T> {
    fn from(values: Vec<T>) -> Self {
        let mut buf = Self::for_writing(values.len());
        buf.extend_from_slice(&values);
        buf
    }
}
