//! Deterministic data-parallel execution substrate.
//!
//! Every primitive here has **the same observable output for every thread
//! count**, including 1. The recipe is always: partition the index space
//! into contiguous blocks, run blocks concurrently, and stitch per-block
//! results back together in block order. Nothing is reduced in completion
//! order, so floating-point results are bit-identical no matter how the
//! blocks were scheduled.
//!
//! Thread counts come from [`resolve_threads`]: an explicit config value
//! wins, then the `XATU_THREADS` environment variable, then all available
//! cores.
//!
//! With the `rayon` cargo feature the fork-join runs on rayon's scheduler;
//! by default it uses [`std::thread::scope`] with one thread per block.
//! The block structure — and therefore every result bit — is identical in
//! both modes.

/// Resolves an effective thread count from a config knob.
///
/// Precedence: `cfg_threads` if non-zero, else a positive integer in the
/// `XATU_THREADS` environment variable, else all available cores.
pub fn resolve_threads(cfg_threads: usize) -> usize {
    if cfg_threads > 0 {
        return cfg_threads;
    }
    if let Ok(v) = std::env::var("XATU_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Balanced contiguous partition of `n` items into at most `parts` blocks:
/// the first `n % parts` blocks get one extra item. Returns the block
/// boundaries as `(start, end)` pairs covering `0..n` in order.
pub fn block_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    block_ranges_into(n, parts, &mut ranges);
    ranges
}

/// [`block_ranges`] into a caller-owned buffer, so per-minute hot loops can
/// reuse one `Vec` instead of allocating a fresh partition every call. The
/// buffer is cleared first; its capacity is retained across calls.
pub fn block_ranges_into(n: usize, parts: usize, ranges: &mut Vec<(usize, usize)>) {
    ranges.clear();
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    for b in 0..parts {
        let len = base + usize::from(b < extra);
        if len == 0 {
            break;
        }
        ranges.push((start, start + len));
        start += len;
    }
}

/// Maps `f` over `items`, returning results in item order.
///
/// `f` receives the item's index alongside the item. With `threads <= 1`
/// (or one item) this is a plain sequential map; otherwise items are
/// processed in `threads` contiguous blocks. Output order — and every
/// output bit — is identical for all thread counts.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ranges = block_ranges(items.len(), threads);
    let mut blocks: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    for _ in 0..ranges.len() {
        blocks.push(Vec::new());
    }
    fork_join(&ranges, &mut blocks, |&(start, end), out| {
        out.reserve(end - start);
        for (i, item) in items.iter().enumerate().take(end).skip(start) {
            out.push(f(i, item));
        }
    });
    let mut result = Vec::with_capacity(items.len());
    for block in blocks {
        result.extend(block);
    }
    result
}

/// Processes `items` into the equally-sized `out` slice using per-block
/// worker state.
///
/// `workers.len()` defines the parallelism: items (and the matching `out`
/// slots) are partitioned into `workers.len()` contiguous blocks, and block
/// `b` runs sequentially on `workers[b]`. `f` receives the worker, the
/// item's global index, the item, and its output slot. Because each output
/// slot is written by exactly one block and blocks are index-ordered, the
/// filled `out` is identical for every worker count.
///
/// This is the trainer's primitive: workers hold reusable model clones and
/// `out` holds pooled per-sample gradient buffers.
pub fn par_zip_with_workers<W, T, U, F>(workers: &mut [W], items: &[T], out: &mut [U], f: F)
where
    W: Send,
    T: Sync,
    U: Send,
    F: Fn(&mut W, usize, &T, &mut U) + Sync,
{
    assert_eq!(items.len(), out.len(), "items/out length mismatch");
    assert!(!workers.is_empty(), "need at least one worker");
    if workers.len() == 1 || items.len() <= 1 {
        let w = &mut workers[0];
        for (i, (item, slot)) in items.iter().zip(out.iter_mut()).enumerate() {
            f(w, i, item, slot);
        }
        return;
    }
    let ranges = block_ranges(items.len(), workers.len());

    // Pair each active worker with its (range, output block). Output blocks
    // are disjoint `chunks_mut`-style splits along the same boundaries.
    let mut tasks: Vec<(&mut W, (usize, usize), &mut [U])> = Vec::with_capacity(ranges.len());
    {
        let mut rest = out;
        let mut consumed = 0;
        let mut worker_iter = workers.iter_mut();
        for &(start, end) in &ranges {
            let (block, tail) = rest.split_at_mut(end - consumed);
            rest = tail;
            consumed = end;
            let w = worker_iter.next().expect("more ranges than workers");
            tasks.push((w, (start, end), block));
        }
    }

    run_scoped(tasks, |(w, (start, end), block)| {
        for (offset, slot) in block.iter_mut().enumerate() {
            let i = start + offset;
            debug_assert!(i < end);
            f(w, i, &items[i], slot);
        }
    });
}

/// A persistent fork-join pool for steady-state allocation-free fan-out.
///
/// [`par_map`] and [`par_zip_with_workers`] spawn OS threads (or rayon
/// jobs) per call, which allocates every time — fine for training epochs,
/// fatal for the fleet's zero-allocation-per-minute contract at
/// `threads > 1`. `WorkerPool` keeps its workers parked on a condvar
/// between dispatches: after the pool is warm, [`WorkerPool::run_tasks`]
/// performs no heap allocation on the non-panicking path (Linux
/// mutex/condvar operations are futex syscalls, not allocations).
///
/// Scheduling is **fixed-assignment**: worker `w` always runs task
/// `w + 1` and the calling thread runs task 0 inline. Determinism never
/// depends on this — tasks must already be data-disjoint — but the fixed
/// map keeps dispatch trivially allocation-free (no work queue) and makes
/// task→thread placement reproducible.
///
/// A panicking task is caught, every other task still runs, and the panic
/// is re-raised on the calling thread once the dispatch completes (the
/// leader's own panic wins if both the leader and a worker panicked).
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: std::sync::Mutex<PoolState>,
    start: std::sync::Condvar,
    done: std::sync::Condvar,
}

struct PoolState {
    /// Bumped once per dispatch; workers run when they observe a new value.
    epoch: u64,
    shutdown: bool,
    job: Option<Job>,
    /// Workers yet to finish the current epoch (every worker checks in
    /// exactly once per epoch, with or without a task of its own).
    remaining: usize,
    /// First worker panic of the epoch, re-raised by the leader.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

/// Type-erased dispatch: a pointer to the leader's stack-held context and
/// a monomorphized trampoline that knows its real type.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
    ntasks: usize,
}

// SAFETY: `data` is only dereferenced through `call` between the epoch
// bump and the matching `remaining == 0` handshake, during which the
// leader keeps the pointee alive and blocked threads cannot observe a
// stale job (see `run_tasks`). The pointee's `T: Send` / `F: Sync`
// bounds are enforced by `run_tasks`'s signature.
unsafe impl Send for Job {}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new(0)
    }
}

impl WorkerPool {
    /// Creates a pool with `workers` parked worker threads. The pool can
    /// run `workers + 1` tasks per dispatch (the caller participates).
    pub fn new(workers: usize) -> Self {
        let mut pool = WorkerPool {
            shared: std::sync::Arc::new(PoolShared {
                state: std::sync::Mutex::new(PoolState {
                    epoch: 0,
                    shutdown: false,
                    job: None,
                    remaining: 0,
                    panic: None,
                }),
                start: std::sync::Condvar::new(),
                done: std::sync::Condvar::new(),
            }),
            handles: Vec::new(),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// Number of parked worker threads (capacity is `workers() + 1` tasks).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Grows the pool to at least `workers` worker threads. Shrinking is
    /// not supported; extra workers simply idle through epochs without a
    /// task. Cold path: spawning allocates.
    pub fn ensure_workers(&mut self, workers: usize) {
        while self.handles.len() < workers {
            let index = self.handles.len();
            // Late-joining workers must adopt the current epoch, not 0,
            // or they would "run" a dispatch that already finished.
            let seen = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .epoch;
            let shared = std::sync::Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("xatu-pool-{index}"))
                .spawn(move || worker_loop(&shared, index, seen))
                .expect("spawn pool worker thread");
            self.handles.push(handle);
        }
    }

    /// Runs `body` once per task: task 0 inline on the calling thread,
    /// task `i > 0` on worker `i - 1`. Blocks until **all** workers have
    /// checked in for this epoch, then re-raises any panic.
    ///
    /// Panics if `tasks.len()` exceeds `workers() + 1` — grow first with
    /// [`WorkerPool::ensure_workers`].
    pub fn run_tasks<T, F>(&self, tasks: &mut [T], body: &F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        assert!(
            n <= self.handles.len() + 1,
            "run_tasks: {n} tasks exceed pool capacity {}",
            self.handles.len() + 1
        );

        struct Ctx<'a, T, F> {
            base: *mut T,
            len: usize,
            body: &'a F,
        }
        unsafe fn call_one<T, F: Fn(&mut T)>(data: *const (), index: usize) {
            // SAFETY: `data` points at the leader's live `Ctx<T, F>` (the
            // leader blocks until every worker checks in, so the pointee
            // outlives every call), and the fixed worker↔task map hands
            // each in-bounds index to exactly one thread, making the
            // `&mut` below unique.
            let ctx = unsafe { &*data.cast::<Ctx<'_, T, F>>() };
            debug_assert!(index < ctx.len);
            (ctx.body)(unsafe { &mut *ctx.base.add(index) });
        }

        let ctx = Ctx {
            base: tasks.as_mut_ptr(),
            len: n,
            body,
        };
        let data = std::ptr::from_ref(&ctx).cast::<()>();
        {
            let mut g = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.epoch += 1;
            g.job = Some(Job {
                data,
                call: call_one::<T, F>,
                ntasks: n,
            });
            g.remaining = self.handles.len();
            self.shared.start.notify_all();
        }
        // The leader participates: task 0 runs here, not on a worker.
        let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: index 0 is in bounds (n >= 1) and reserved for the
            // leader; `ctx` is alive for the whole call.
            unsafe { call_one::<T, F>(data, 0) }
        }));
        let worker_panic = {
            let mut g = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while g.remaining > 0 {
                g = self
                    .shared
                    .done
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            g.job = None;
            g.panic.take()
        };
        if let Err(p) = leader {
            std::panic::resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            std::panic::resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize, mut seen: u64) {
    loop {
        let job = {
            let mut g = shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != seen {
                    break;
                }
                g = shared
                    .start
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            seen = g.epoch;
            g.job
                .expect("dispatch always publishes a job with its epoch")
        };
        // Task 0 belongs to the leader; worker `index` owns task `index + 1`.
        // Workers beyond the task count still check in below so the leader's
        // `remaining == 0` handshake proves no thread can touch the job.
        let task = index + 1;
        let result = if task < job.ntasks {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: the leader keeps `job.data` alive until every
                // worker (including this one) decrements `remaining`.
                unsafe { (job.call)(job.data, task) }
            }))
        } else {
            Ok(())
        };
        let mut g = shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(p) = result {
            if g.panic.is_none() {
                g.panic = Some(p);
            }
        }
        g.remaining -= 1;
        if g.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// Internal fork-join: runs `body` once per (range, output-block) pair,
/// concurrently.
fn fork_join<R, O, F>(ranges: &[R], outputs: &mut [O], body: F)
where
    R: Sync,
    O: Send,
    F: Fn(&R, &mut O) + Sync,
{
    debug_assert_eq!(ranges.len(), outputs.len());
    let tasks: Vec<(&R, &mut O)> = ranges.iter().zip(outputs.iter_mut()).collect();
    run_scoped(tasks, |(range, out)| body(range, out));
}

#[cfg(not(feature = "rayon"))]
fn run_scoped<Task, F>(tasks: Vec<Task>, body: F)
where
    Task: Send,
    F: Fn(Task) + Sync,
{
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(tasks.len());
        for task in tasks {
            handles.push(s.spawn(|| body(task)));
        }
        for h in handles {
            // Propagate worker panics (test assertions, arithmetic bugs)
            // instead of deadlocking or swallowing them.
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
    });
}

#[cfg(feature = "rayon")]
fn run_scoped<Task, F>(tasks: Vec<Task>, body: F)
where
    Task: Send,
    F: Fn(Task) + Sync,
{
    let body = &body;
    rayon::scope(|s| {
        for task in tasks {
            s.spawn(move |_| body(task));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_everything() {
        for n in 0..40 {
            for parts in 1..10 {
                let ranges = block_ranges(n, parts);
                let mut expected_start = 0;
                for &(start, end) in &ranges {
                    assert_eq!(start, expected_start);
                    assert!(end > start);
                    expected_start = end;
                }
                assert_eq!(expected_start, n);
                if n > 0 {
                    assert!(ranges.len() <= parts);
                    let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "unbalanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_for_all_thread_counts() {
        let items: Vec<u64> = (0..101).collect();
        let seq = par_map(1, &items, |i, &x| x * 31 + i as u64);
        for threads in [2, 3, 4, 8, 64] {
            let par = par_map(threads, &items, |i, &x| x * 31 + i as u64);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn par_map_float_sums_are_bit_identical() {
        // Per-item outputs are computed independently, so no float
        // reassociation can occur across thread counts.
        let items: Vec<f64> = (0..997).map(|i| (i as f64 * 0.7).sin()).collect();
        let seq = par_map(1, &items, |_, &x| x.exp().sqrt());
        for threads in [2, 5, 16] {
            let par = par_map(threads, &items, |_, &x| x.exp().sqrt());
            let same = seq
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn workers_fill_outputs_in_index_order() {
        let items: Vec<u64> = (0..57).collect();
        let mut out_seq = vec![0u64; items.len()];
        let mut one_worker = vec![0u64; 1];
        par_zip_with_workers(&mut one_worker, &items, &mut out_seq, |w, i, &x, slot| {
            *w += 1;
            *slot = x * 3 + i as u64;
        });
        for n_workers in [2usize, 3, 4, 9] {
            let mut workers = vec![0u64; n_workers];
            let mut out = vec![0u64; items.len()];
            par_zip_with_workers(&mut workers, &items, &mut out, |w, i, &x, slot| {
                *w += 1;
                *slot = x * 3 + i as u64;
            });
            assert_eq!(out, out_seq, "workers={n_workers}");
            // Every item was processed by exactly one worker.
            assert_eq!(workers.iter().sum::<u64>(), items.len() as u64);
        }
    }

    #[test]
    fn resolve_threads_prefers_config() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn block_ranges_into_reuses_buffer() {
        let mut buf = Vec::new();
        block_ranges_into(10, 3, &mut buf);
        assert_eq!(buf, block_ranges(10, 3));
        let cap = buf.capacity();
        block_ranges_into(7, 2, &mut buf);
        assert_eq!(buf, block_ranges(7, 2));
        assert!(buf.capacity() >= cap.min(2));
        block_ranges_into(0, 4, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn worker_pool_runs_every_task_once_and_is_reusable() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        // Repeated dispatches reuse the same parked workers.
        for round in 0u64..50 {
            let mut tasks: Vec<(usize, u64)> = (0..4).map(|i| (i, 0)).collect();
            pool.run_tasks(&mut tasks, &|t: &mut (usize, u64)| {
                t.1 = t.0 as u64 * 7 + round;
            });
            for (i, &(idx, v)) in tasks.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(v, i as u64 * 7 + round);
            }
        }
        // Fewer tasks than capacity: extra workers idle through the epoch.
        let mut small = vec![0u64; 2];
        pool.run_tasks(&mut small, &|v: &mut u64| *v = 11);
        assert_eq!(small, vec![11, 11]);
        // A single task runs inline on the leader.
        let mut one = vec![0u64; 1];
        pool.run_tasks(&mut one, &|v: &mut u64| *v = 5);
        assert_eq!(one, vec![5]);
        // Zero tasks is a no-op.
        pool.run_tasks(&mut Vec::<u64>::new(), &|_: &mut u64| unreachable!());
    }

    #[test]
    fn worker_pool_grows_on_demand() {
        let mut pool = WorkerPool::new(0);
        let mut tasks = vec![0u32; 1];
        pool.run_tasks(&mut tasks, &|v: &mut u32| *v += 1);
        assert_eq!(tasks, vec![1]);
        pool.ensure_workers(5);
        assert_eq!(pool.workers(), 5);
        let mut tasks = vec![0u32; 6];
        pool.run_tasks(&mut tasks, &|v: &mut u32| *v += 1);
        assert_eq!(tasks, vec![1; 6]);
    }

    #[test]
    fn worker_pool_tasks_see_disjoint_shards() {
        // Fleet-style: tasks own disjoint &mut slices of one arena.
        let pool = WorkerPool::new(3);
        let mut buf = vec![0u64; 23];
        let ranges = block_ranges(buf.len(), 4);
        let mut tasks: Vec<(usize, &mut [u64])> = Vec::new();
        let mut rest = buf.as_mut_slice();
        let mut consumed = 0;
        for &(start, end) in &ranges {
            let (block, tail) = rest.split_at_mut(end - consumed);
            rest = tail;
            consumed = end;
            tasks.push((start, block));
        }
        pool.run_tasks(&mut tasks, &|(start, block): &mut (usize, &mut [u64])| {
            for (offset, slot) in block.iter_mut().enumerate() {
                *slot = (*start + offset) as u64 * 3;
            }
        });
        drop(tasks);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i as u64 * 3);
        }
    }

    #[test]
    fn worker_pool_propagates_worker_panics() {
        let pool = {
            let mut p = WorkerPool::new(2);
            p.ensure_workers(2);
            p
        };
        let mut tasks = vec![0usize, 1, 2];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_tasks(&mut tasks, &|t: &mut usize| {
                assert!(*t != 1, "task 1 exploded");
            });
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool survives a panicking dispatch and keeps working.
        let mut tasks = vec![10usize, 11, 12];
        pool.run_tasks(&mut tasks, &|t: &mut usize| *t += 1);
        assert_eq!(tasks, vec![11, 12, 13]);
    }
}
