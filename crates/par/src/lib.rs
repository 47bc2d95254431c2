//! Deterministic scoped parallelism on a persistent worker pool.
//!
//! The workspace's hot kernels (Monte Carlo yield simulation, local-yield
//! candidate evaluation, the experiment runner) are embarrassingly
//! parallel. This crate gives them one shared, lazily-initialized pool of
//! worker threads — std-only, no external dependencies — with these
//! scoped primitives:
//!
//! - [`par_map`]: map a function over a slice, results in input order;
//! - [`par_chunks`]: map a function over contiguous chunks of a slice;
//! - [`join`]: run two independent closures, one of them on a worker.
//!
//! All are **deterministic**: every index is computed by exactly one
//! worker and written to its own result slot, so the returned vector is
//! bit-identical regardless of how many threads execute it (including
//! one). Reductions built on top of them stay deterministic as long as
//! they combine results in index order (or are exact, like integer sums).
//!
//! The pool is sized from `std::thread::available_parallelism()` and can
//! be overridden with the `QPD_THREADS` environment variable (read once,
//! at first use) or per-scope with [`with_threads`]. The calling thread
//! always participates in the work, so `QPD_THREADS=1` runs everything
//! inline on the caller with no queueing overhead.
//!
//! # Helping
//!
//! A caller whose region still has items running on workers does not
//! idle: while it waits it runs queued pool jobs of its own *region
//! tree*, and it sleeps only when none is queued. It wakes when its
//! region completes or when a job is submitted; there is no timed
//! polling. So a region opened on a worker (say, the side of a [`join`]
//! that went to the pool) gets the blocked caller's core instead of
//! running alone.
//!
//! A region opened outside any region starts a tree; every region opened
//! while a thread works for that tree (as the owner, on a pool job, or
//! helping) joins it. An owner leaves other trees' jobs to the workers:
//! running one would hold its own caller back for unrelated work, and
//! the other tree's owner, finding nothing of its own to help with,
//! would idle until that job ended. Concurrent callers, such as the
//! daemon's request threads, therefore never run each other's work.
//!
//! A starved pool still cannot deadlock a caller. An owner claims and
//! runs every unclaimed item of its own region before it waits, so a
//! region completes with no worker at all, and waiting only covers items
//! other threads have started. Helping cannot close a cycle either: if a
//! thread waits on a region whose item runs, lower in its stack, on a
//! second thread that is itself waiting, that second thread opened its
//! region above the item, so after the first region opened. Following
//! waits from thread to thread reaches ever later regions, so the chain
//! ends at a thread that is running.
//!
//! # Worked example
//!
//! Estimate π by splitting a deterministic quasi-random scan into chunks,
//! then mapping a transform over the per-chunk tallies. The result is the
//! same for any thread count:
//!
//! ```
//! // 20,000 lattice points, tested for membership in the unit circle.
//! let points: Vec<u64> = (0..20_000).collect();
//! let hits = qpd_par::par_chunks(&points, 1024, |_chunk_index, chunk| {
//!     chunk
//!         .iter()
//!         .filter(|&&i| {
//!             let x = (i % 200) as f64 / 200.0;
//!             let y = (i / 200) as f64 / 100.0;
//!             x * x + y * y <= 1.0
//!         })
//!         .count() as u64
//! });
//! // Index-ordered results: an exact sum is thread-count invariant.
//! let total: u64 = hits.iter().sum();
//! let pi = 4.0 * total as f64 / 20_000.0;
//! assert!((pi - std::f64::consts::PI).abs() < 0.05);
//!
//! // The same computation pinned to one thread is bit-identical.
//! let serial = qpd_par::with_threads(1, || {
//!     qpd_par::par_chunks(&points, 1024, |_, chunk| chunk.len() as u64)
//! });
//! assert_eq!(serial.iter().sum::<u64>(), 20_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard ceiling on pool workers; `QPD_THREADS` and [`with_threads`]
/// requests are clamped to it.
const MAX_THREADS: usize = 256;

/// A queued pool job and the region tree it works for.
struct Job {
    tree: u64,
    run: Box<dyn FnOnce() + Send>,
}

/// The job queue shared by all persistent workers and blocked owners.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Idle workers wait here for a job.
    ready: Condvar,
    /// Owners blocked in [`TaskState::wait`] wait here for a job of their
    /// tree or for their region to complete; both are signalled with the
    /// queue lock taken, so neither wake-up can fall between a waiter's
    /// check and its sleep.
    blocked: Condvar,
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            blocked: Condvar::new(),
        })
    })
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.ready.wait(queue).expect("pool queue poisoned");
            }
        };
        TREE.with(|tree| tree.set(job.tree));
        // Jobs never unwind: `TaskState::drain` catches panics itself.
        (job.run)();
        TREE.with(|tree| tree.set(0));
    }
}

/// Grows the persistent pool to at least `n` workers (lazily: the first
/// parallel call spawns them). Spawn failures degrade gracefully — the
/// caller drains whatever the pool does not.
fn ensure_workers(n: usize) {
    static SPAWNED: Mutex<usize> = Mutex::new(0);
    let mut spawned = SPAWNED.lock().expect("worker counter poisoned");
    while *spawned < n.min(MAX_THREADS) {
        let shared = Arc::clone(shared());
        let builder = std::thread::Builder::new().name(format!("qpd-par-{spawned}"));
        if builder.spawn(move || worker_loop(shared)).is_err() {
            break;
        }
        *spawned += 1;
    }
}

/// Queues `jobs` for the pool, waking one idle worker per job and every
/// blocked owner (each looks for jobs of its own tree).
fn submit(jobs: impl IntoIterator<Item = Job>) {
    let shared = shared();
    let mut queue = shared.queue.lock().expect("pool queue poisoned");
    let before = queue.len();
    queue.extend(jobs);
    for _ in before..queue.len() {
        shared.ready.notify_one();
    }
    shared.blocked.notify_all();
}

/// Parses a `QPD_THREADS`-style value: a positive integer, clamped to
/// [`MAX_THREADS`]; anything else means "not configured".
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_THREADS))
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_threads(std::env::var("QPD_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        })
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// The region tree this thread works for, or 0 outside any region.
    static TREE: Cell<u64> = const { Cell::new(0) };
}

/// The tree a region opened on this thread joins: the thread's own, or
/// a new one outside any region.
fn region_tree() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    match TREE.with(Cell::get) {
        0 => NEXT.fetch_add(1, Ordering::Relaxed),
        tree => tree,
    }
}

/// The thread count parallel primitives will use on this thread: the
/// innermost [`with_threads`] override, else `QPD_THREADS` (read once),
/// else `std::thread::available_parallelism()`.
pub fn threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or_else(default_threads)
}

/// Runs `f` with the effective thread count pinned to `n` on the calling
/// thread. Parallel calls made directly by `f` observe it, and so does
/// the side of a [`join`] that runs on a worker; the items of a
/// [`par_map`]-style region that run on workers, and jobs this thread
/// helps with while it waits, see their own thread's count. The
/// previous value is restored afterwards, including on unwind.
///
/// This is the in-process equivalent of setting `QPD_THREADS=n`, and what
/// the determinism tests use to prove thread-count invariance.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|cell| cell.replace(Some(n.min(MAX_THREADS)))));
    f()
}

/// Progress of one scoped parallel region, guarded by a single mutex:
/// the work items are chunky (thousands of Monte Carlo trials each), so
/// per-item locking is noise.
struct Progress {
    /// Next unclaimed index; monotonically non-decreasing.
    next: usize,
    /// Claimed indices whose execution has finished (successfully or not).
    finished: usize,
    /// Whether any item panicked (stops further claims).
    panicked: bool,
    /// First panic payload, for the owner to rethrow.
    payload: Option<Box<dyn Any + Send>>,
}

/// One scoped parallel region. `work` borrows the owner's stack; the
/// owner must not return before every claimed index has finished
/// (enforced by [`TaskState::wait`]). Helpers that arrive late claim
/// nothing and never dereference `work`.
struct TaskState {
    work: *const (dyn Fn(usize) + Sync),
    len: usize,
    progress: Mutex<Progress>,
}

// SAFETY: `work` is only dereferenced between a successful claim and the
// matching `finished` increment, and the owning stack frame outlives all
// claims (it blocks in `wait` until `finished == next`).
unsafe impl Send for TaskState {}
unsafe impl Sync for TaskState {}

impl TaskState {
    /// Claims and runs indices until none remain (or a panic is seen).
    /// Both the owner and pool helpers run this; it never unwinds.
    fn drain(&self) {
        loop {
            let index = {
                let mut p = self.progress.lock().expect("task progress poisoned");
                if p.panicked || p.next >= self.len {
                    break;
                }
                let index = p.next;
                p.next += 1;
                index
            };
            // SAFETY: the owner is still inside `run_indexed` (it cannot
            // pass `wait` while our claim is unfinished), so `work` is live.
            let work = unsafe { &*self.work };
            let result = catch_unwind(AssertUnwindSafe(|| work(index)));
            let mut p = self.progress.lock().expect("task progress poisoned");
            p.finished += 1;
            if let Err(payload) = result {
                p.panicked = true;
                if p.payload.is_none() {
                    p.payload = Some(payload);
                }
            }
            if Self::complete(&p, self.len) {
                drop(p);
                // Taking the queue lock orders this wake-up after the
                // owner's check in `wait`; see `Shared::blocked`.
                let shared = shared();
                let _queue = shared.queue.lock().expect("pool queue poisoned");
                shared.blocked.notify_all();
            }
        }
    }

    /// Whether every claimed index has finished and no further claims
    /// are possible. Once true it stays true.
    fn complete(p: &Progress, len: usize) -> bool {
        p.finished == p.next && (p.next >= len || p.panicked)
    }

    /// Blocks until the region is complete, running queued pool jobs of
    /// `tree` meanwhile (see the crate docs on helping), then returns the
    /// first panic payload, if any.
    fn wait(&self, tree: u64) -> Option<Box<dyn Any + Send>> {
        let shared = shared();
        let mut queue = shared.queue.lock().expect("pool queue poisoned");
        while !Self::complete(&self.progress.lock().expect("task progress poisoned"), self.len) {
            let mine = queue.iter().position(|job| job.tree == tree);
            queue = match mine.and_then(|i| queue.remove(i)) {
                Some(job) => {
                    drop(queue);
                    // Jobs never unwind: `TaskState::drain` catches panics.
                    (job.run)();
                    shared.queue.lock().expect("pool queue poisoned")
                }
                None => shared.blocked.wait(queue).expect("pool queue poisoned"),
            };
        }
        drop(queue);
        self.progress.lock().expect("task progress poisoned").payload.take()
    }
}

/// A raw pointer that may cross threads: each claimed index writes a
/// distinct slot, so concurrent use is race-free.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper — and with it the `Send`/`Sync` impls — not the raw field.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Runs one scoped region: `work(0..len)` on the caller and `helpers`
/// pool jobs. The caller first runs `owner` (catching its panic), then
/// claims whatever indices remain, then waits, helping with its tree,
/// until every claimed index has finished. Returns `owner`'s outcome and
/// the first panic payload of `work`, if any.
fn run_region<T>(
    len: usize,
    helpers: usize,
    work: &(dyn Fn(usize) + Sync),
    owner: impl FnOnce() -> T,
) -> (std::thread::Result<T>, Option<Box<dyn Any + Send>>) {
    // SAFETY: erase the borrow's lifetime so pool workers can hold the
    // pointer. `wait` below keeps this frame alive past every dereference,
    // and nothing between here and it can unwind (`owner` is caught).
    let work: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work) };
    let state = Arc::new(TaskState {
        work,
        len,
        progress: Mutex::new(Progress { next: 0, finished: 0, panicked: false, payload: None }),
    });
    let tree = region_tree();
    ensure_workers(helpers);
    submit((0..helpers).map(|_| {
        let helper = Arc::clone(&state);
        Job { tree, run: Box::new(move || helper.drain()) }
    }));
    // Nothing below unwinds, so the thread's tree is restored on return.
    let outer = TREE.with(|t| t.replace(tree));
    let owned = catch_unwind(AssertUnwindSafe(owner));
    state.drain();
    let panic = state.wait(tree);
    TREE.with(|t| t.set(outer));
    (owned, panic)
}

/// Computes `f(0..len)` into a vector, fanning the indices out over the
/// pool. Results are written to per-index slots, so the output does not
/// depend on the thread count. Panics from `f` are forwarded to the
/// caller after all in-flight work has drained.
fn run_indexed<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads();
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }

    let mut slots: Vec<MaybeUninit<R>> = Vec::with_capacity(len);
    slots.resize_with(len, MaybeUninit::uninit);
    let out = SendPtr(slots.as_mut_ptr());
    let work = move |i: usize| {
        // SAFETY: each index is claimed exactly once; distinct slots.
        unsafe { (*out.get().add(i)).write(f(i)) };
    };
    let (_, panic) = run_region(len, (threads - 1).min(len - 1), &work, || ());
    if let Some(payload) = panic {
        // `slots` drops without running destructors of initialized
        // elements; leaking on the panic path is acceptable.
        resume_unwind(payload);
    }

    // No panic: every index in 0..len was claimed and finished, so every
    // slot is initialized.
    let mut slots = ManuallyDrop::new(slots);
    let (ptr, length, capacity) = (slots.as_mut_ptr(), slots.len(), slots.capacity());
    // SAFETY: Vec<MaybeUninit<R>> and Vec<R> share layout; all slots are
    // initialized; ptr/length/capacity come from the original vector.
    unsafe { Vec::from_raw_parts(ptr as *mut R, length, capacity) }
}

/// Maps `f` over `items` on the pool, returning results in input order.
///
/// Deterministic: the output is identical for any thread count. The
/// calling thread participates, so this never blocks on pool capacity.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed(items.len(), |i| f(&items[i]))
}

/// Maps `f` over contiguous chunks of `items` (each of `chunk_len`
/// elements; the last may be shorter), passing the chunk index and the
/// chunk. Results are in chunk order, so concatenating them reproduces
/// the serial iteration order exactly.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn par_chunks<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    run_indexed(chunks.len(), |i| f(i, chunks[i]))
}

/// Maps `f` over disjoint *mutable* chunks of `items` (each of
/// `chunk_len` elements; the last may be shorter), passing the chunk
/// index and the chunk. The chunks partition `items`, each is visited by
/// exactly one worker, and results come back in chunk order.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn par_chunks_mut<T, R, F>(items: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let parts: Vec<(SendPtr<T>, usize)> =
        items.chunks_mut(chunk_len).map(|c| (SendPtr(c.as_mut_ptr()), c.len())).collect();
    run_indexed(parts.len(), |i| {
        let (ref ptr, len) = parts[i];
        // SAFETY: the chunks are disjoint subslices of `items` (pointer
        // provenance preserved via SendPtr), each index is claimed by
        // exactly one worker, and the caller blocks until all work
        // finishes — standard scoped split-at-mut.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get(), len) };
        f(i, chunk)
    })
}

/// Computes `f(i)` for every `i in 0..len` on the pool, returning results
/// in index order — the batch-shaped fan-out for callers whose work units
/// are a flat grid (e.g. candidate-group x RNG-chunk cells) rather than a
/// slice. Deterministic: the output is identical for any thread count,
/// and the calling thread participates, so this never blocks on pool
/// capacity.
pub fn par_indices<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed(len, f)
}

/// Runs `a` and `b`, which may overlap, and returns both results in
/// that order.
///
/// `a` runs on the caller; `b` is offered to the pool and runs on the
/// first worker to take it, or on the caller after `a` if none has.
/// While `b` runs elsewhere the caller helps with queued pool jobs of
/// its tree, so regions that `b` opens get the caller's core once `a` is
/// done. The side that runs on a worker sees the caller's [`threads`].
/// With `threads() == 1` both run inline, `a` first.
///
/// A panic on either side is rethrown only after the other side has
/// finished; `a`'s panic wins if both panic.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let threads = threads();
    let (ra, rb) = if threads <= 1 {
        (catch_unwind(AssertUnwindSafe(a)), catch_unwind(AssertUnwindSafe(b)))
    } else {
        let b = Mutex::new(Some(b));
        let rb = Mutex::new(None);
        let work = |_: usize| {
            let b = b.lock().expect("join side poisoned").take().expect("claimed once");
            let out = with_threads(threads, b);
            *rb.lock().expect("join result poisoned") = Some(out);
        };
        let (ra, panic) = run_region(1, 1, &work, a);
        let rb = match panic {
            Some(payload) => Err(payload),
            None => Ok(rb.into_inner().expect("join result poisoned").expect("side ran")),
        };
        (ra, rb)
    };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn mix(i: u64) -> u64 {
        // SplitMix64 finalizer: cheap, deterministic per-index payload.
        let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..1_000).collect();
        let expected: Vec<u64> = items.iter().map(|&i| mix(i)).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || par_map(&items, |&i| mix(i)));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn indices_preserve_order_and_values() {
        let expected: Vec<u64> = (0..1_003).map(mix).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || par_indices(1_003, |i| mix(i as u64)));
            assert_eq!(got, expected, "threads = {threads}");
        }
        assert!(par_indices(0, |i| i).is_empty());
    }

    #[test]
    fn chunks_cover_exactly_once() {
        let items: Vec<u64> = (0..997).collect(); // prime: ragged tail
        for chunk_len in [1, 7, 64, 997, 2_000] {
            let sums = with_threads(4, || {
                par_chunks(&items, chunk_len, |_, chunk| chunk.iter().sum::<u64>())
            });
            assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>(), "len {chunk_len}");
            assert_eq!(sums.len(), items.len().div_ceil(chunk_len));
        }
    }

    #[test]
    fn chunk_indices_line_up() {
        let items: Vec<usize> = (0..100).collect();
        let firsts = with_threads(8, || par_chunks(&items, 16, |ci, chunk| (ci, chunk[0])));
        for (ci, first) in firsts {
            assert_eq!(first, ci * 16);
        }
    }

    #[test]
    fn chunks_mut_writes_every_slot() {
        let mut data = vec![0u64; 1_003];
        for threads in [1, 4] {
            data.iter_mut().for_each(|d| *d = 0);
            let lens = with_threads(threads, || {
                par_chunks_mut(&mut data, 64, |ci, chunk| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = mix((ci * 64 + j) as u64);
                    }
                    chunk.len()
                })
            });
            assert_eq!(lens.iter().sum::<usize>(), data.len());
            for (i, &d) in data.iter().enumerate() {
                assert_eq!(d, mix(i as u64), "slot {i} threads {threads}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: [u32; 0] = [];
        assert_eq!(par_map(&empty, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[5u32], |&x| x * 2), vec![10]);
        assert_eq!(par_chunks(&empty, 4, |_, c| c.len()), Vec::<usize>::new());
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let items: Vec<u64> = (0..5_000).collect();
        let baseline = with_threads(1, || par_map(&items, |&i| mix(i) as f64 / u64::MAX as f64));
        for threads in [2, 5, 8] {
            let other =
                with_threads(threads, || par_map(&items, |&i| mix(i) as f64 / u64::MAX as f64));
            assert!(
                baseline.iter().zip(&other).all(|(a, b)| a.to_bits() == b.to_bits()),
                "bitwise mismatch at {threads} threads"
            );
        }
    }

    #[test]
    fn nested_parallelism_completes() {
        let outer: Vec<u64> = (0..8).collect();
        let got = with_threads(4, || {
            par_map(&outer, |&o| {
                let inner: Vec<u64> = (0..64).map(|i| o * 64 + i).collect();
                par_map(&inner, |&i| mix(i)).iter().fold(0u64, |a, &x| a.wrapping_add(x))
            })
        });
        let expected: Vec<u64> = (0..8u64)
            .map(|o| (0..64).map(|i| mix(o * 64 + i)).fold(0u64, |a, x| a.wrapping_add(x)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let items: Vec<u64> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_map(&items, |&i| {
                    if i == 57 {
                        panic!("boom at {i}");
                    }
                    i
                })
            })
        }));
        let payload = result.expect_err("must propagate");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("boom at 57"), "got {message}");
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let before = threads();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_threads(7, || {
                assert_eq!(threads(), 7);
                panic!("unwind");
            })
        }));
        assert_eq!(threads(), before);
    }

    #[test]
    fn with_threads_nests() {
        with_threads(4, || {
            assert_eq!(threads(), 4);
            with_threads(2, || assert_eq!(threads(), 2));
            assert_eq!(threads(), 4);
        });
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..512).collect();
        with_threads(8, || {
            par_map(&items, |&i| hits[i].fetch_add(1, Ordering::Relaxed));
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn join_returns_both_values_in_order() {
        for n in [1, 2, 3, 8] {
            let (a, b) = with_threads(n, || {
                join(|| (0..1_000).map(mix).fold(0, u64::wrapping_add), || (mix(7), threads()))
            });
            assert_eq!(a, (0..1_000).map(mix).fold(0, u64::wrapping_add), "threads = {n}");
            assert_eq!(b, (mix(7), n), "the side sees the caller's count");
        }
    }

    #[test]
    fn join_rethrows_a_panic_after_the_other_side_finishes() {
        for threads in [1, 2, 8] {
            for panicking_side in ["a", "b"] {
                let finished = AtomicUsize::new(0);
                let slow = || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    with_threads(threads, || match panicking_side {
                        "a" => join(|| panic!("side a"), slow),
                        _ => join(slow, || panic!("side b")),
                    })
                }));
                let payload = result.expect_err("the panic propagates");
                let message = payload.downcast_ref::<&str>().expect("str payload");
                assert_eq!(*message, format!("side {panicking_side}"));
                assert_eq!(finished.load(Ordering::SeqCst), 1, "{panicking_side} @ {threads}");
            }
        }
    }

    #[test]
    fn nested_join_inside_par_map_completes() {
        let outer: Vec<u64> = (0..16).collect();
        let got = with_threads(4, || {
            par_map(&outer, |&o| {
                let (left, right) = join(
                    || par_map(&[o, o + 1], |&i| mix(i)),
                    || par_map(&[o + 2, o + 3], |&i| mix(i)),
                );
                left.into_iter().chain(right).fold(0u64, u64::wrapping_add)
            })
        });
        let expected: Vec<u64> =
            (0..16u64).map(|o| (o..o + 4).map(mix).fold(0u64, u64::wrapping_add)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("junk")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_threads(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        with_threads(0, || ());
    }
}
