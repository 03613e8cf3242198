//! # `tivpar` — the shared parallel-execution layer
//!
//! Every headline analysis of the reproduced paper sits on an O(n³)
//! kernel — TIV severity, all-pairs shortest paths, the accuracy/recall
//! sweeps, matrix-factorization updates. They all parallelise the same
//! way: the output decomposes into rows (or items) that can be computed
//! independently. This crate owns that pattern so every kernel in the
//! workspace shares one implementation instead of hand-rolling thread
//! plumbing.
//!
//! Since the pool rewrite, the primitives execute on a **persistent
//! work-stealing thread pool** (see [`pool`]): workers are spawned
//! lazily on the first parallel region and reused for every region
//! after it, and each region's work is dealt as fine-grained chunks
//! into per-worker deques with stealing, so a skewed chunk cannot idle
//! the other workers. The first generation spawned fresh
//! `std::thread::scope` threads per call; the per-call spawn/join cost
//! and the static one-chunk-per-worker split were the two causes of
//! the scaling plateau documented in `docs/PERFORMANCE.md`.
//!
//! ## Design rules
//!
//! * **Deterministic result order.** Work is partitioned into
//!   *contiguous index ranges* and results are placed (or concatenated)
//!   by range, so the output is the same `Vec` a serial loop would
//!   produce. Stealing moves *execution* between workers, never the
//!   *placement* of a result — kernels built on these primitives are
//!   **bit-identical across thread counts** (enforced by property
//!   tests in `tivoid`).
//! * **Graceful 1-thread fallback.** When one worker suffices (or the
//!   machine has one core), the primitives run inline on the calling
//!   thread — no pool interaction, identical results.
//! * **Worker-count resolution.** Every primitive takes a `threads`
//!   argument: any positive value is used as-is (the per-call config
//!   override); `0` means *auto* — the [`THREADS_ENV`] environment
//!   variable (`TIV_THREADS`) if set, else
//!   [`std::thread::available_parallelism`].
//!
//! ```
//! // Square each row index, in parallel, in order.
//! let squares = tivpar::par_map_rows(6, 0, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
//!
//! // Fill a 3x4 row-major matrix, one row per work item.
//! let mut m = vec![0usize; 12];
//! tivpar::par_fill_rows(&mut m, 3, 2, |row, out| out.fill(row));
//! assert_eq!(m, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
//! ```
//!
//! The per-call override takes precedence over `TIV_THREADS`, and the
//! result does not depend on which is used:
//!
//! ```
//! let auto = tivpar::par_map_rows(100, 0, |i| (i as f64).sqrt());
//! for explicit in [1, 2, 4, 7] {
//!     // Explicit worker counts: same bits, different parallelism.
//!     let forced = tivpar::par_map_rows(100, explicit, |i| (i as f64).sqrt());
//!     assert_eq!(forced, auto);
//! }
//! ```

// tivlint: allow-file(unsafe-containment, "deny + one audited site-level allow instead of forbid: the pool's lifetime-erasing transmute (pool.rs SAFETY comment) is the crate's one exception, and forbid(unsafe_code) cannot be overridden at the site")
#![deny(unsafe_code)] // one audited exception in `pool`, see its SAFETY comment
#![deny(missing_docs)]

pub mod pool;

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// The environment variable consulted when a kernel is called with
/// `threads == 0`: set `TIV_THREADS=4` to cap the whole process at four
/// workers without touching any call site.
///
/// Read once per process (the first auto-resolving call) and cached;
/// changing the variable afterwards has no effect. The pool sizes
/// itself from resolved counts (a region asking for `w` workers
/// ensures `w - 1` pool threads exist), so `TIV_THREADS` also bounds
/// pool growth unless a per-call override asks for more.
pub const THREADS_ENV: &str = "TIV_THREADS";

/// `TIV_THREADS` parsed once; `None` when unset or unparsable.
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(THREADS_ENV).ok().and_then(|v| v.trim().parse().ok()).filter(|&t| t >= 1)
    })
}

/// Resolves a requested worker count to an effective one.
///
/// Precedence: an explicit `requested > 0` wins; then the
/// [`THREADS_ENV`] environment variable; then the machine's available
/// parallelism. Always returns at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(t) = env_threads() {
        return t;
    }
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

/// Splits `0..items` into contiguous ranges of `size` (last may be
/// short), in ascending order. Empty ranges are not produced.
fn ranges_of(items: usize, size: usize) -> Vec<Range<usize>> {
    let size = size.max(1);
    (0..items.div_ceil(size)).map(|c| (c * size)..((c + 1) * size).min(items)).collect()
}

/// Splits `0..items` into roughly `workers *`
/// [`pool::CHUNKS_PER_WORKER`] contiguous ranges — the *fine* layout
/// used by the row-oriented primitives. More chunks than workers is
/// what lets the pool steal around skewed row costs; the layout (and
/// therefore every merged result) still depends only on
/// `(items, workers)`, never on execution order.
fn fine_ranges(items: usize, workers: usize) -> Vec<Range<usize>> {
    ranges_of(items, items.div_ceil((workers * pool::CHUNKS_PER_WORKER).max(1)))
}

/// Runs `body(chunk_index)` for every chunk on the pool and then
/// collects each chunk's boxed result in index order. The collection
/// slot is the only shared mutable state; each chunk stores exactly
/// once, so the post-region unwraps cannot fail.
fn run_collect<R: Send>(workers: usize, chunks: usize, body: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    pool::run(workers, chunks, &|ci| {
        let value = body(ci);
        *slots[ci].lock().expect("slot lock") = Some(value);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("chunk completed"))
        .collect()
}

/// Maps `f` over `0..rows` with up to `threads` workers, returning the
/// results in index order (exactly `(0..rows).map(f).collect()`).
///
/// `threads` follows [`resolve_threads`]; with one effective worker the
/// map runs inline on the calling thread. Rows are dealt to the pool in
/// fine-grained chunks (see [`pool::CHUNKS_PER_WORKER`]) so uneven row
/// costs are balanced by stealing.
pub fn par_map_rows<R, F>(rows: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = resolve_threads(threads).min(rows.max(1));
    if workers <= 1 {
        return (0..rows).map(f).collect();
    }
    let ranges = fine_ranges(rows, workers);
    run_collect(workers, ranges.len(), |ci| ranges[ci].clone().map(&f).collect::<Vec<R>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Fills a row-major buffer in parallel: `out` is treated as `rows`
/// equal rows and `f(row_index, row_slice)` is called once per row,
/// rows dealt to the pool in fine-grained contiguous chunks.
///
/// # Panics
/// Panics when `out.len()` is not a multiple of `rows`.
pub fn par_fill_rows<T, F>(out: &mut [T], rows: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if rows == 0 {
        assert!(out.is_empty(), "non-empty buffer with zero rows");
        return;
    }
    assert_eq!(out.len() % rows, 0, "buffer length {} not divisible into {rows} rows", out.len());
    let cols = out.len() / rows;
    let workers = resolve_threads(threads).min(rows);
    if workers <= 1 || cols == 0 {
        // Inline path; split_at_mut (unlike chunks_mut) also handles a
        // zero-width buffer, calling f once per row with an empty slice.
        let mut rest = out;
        for i in 0..rows {
            let (row, tail) = rest.split_at_mut(cols);
            rest = tail;
            f(i, row);
        }
        return;
    }
    let ranges = fine_ranges(rows, workers);
    // Pre-split the buffer into one disjoint slice per chunk; each
    // chunk takes (and thereby uniquely owns) its slice when it runs.
    let mut slices: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    for range in &ranges {
        let (chunk, tail) = rest.split_at_mut((range.end - range.start) * cols);
        rest = tail;
        slices.push(Mutex::new(Some(chunk)));
    }
    pool::run(workers, ranges.len(), &|ci| {
        let chunk = slices[ci].lock().expect("slice lock").take().expect("chunk runs once");
        let base = ranges[ci].start;
        for (k, row) in chunk.chunks_mut(cols).enumerate() {
            f(base + k, row);
        }
    });
}

/// Like [`par_fill_rows`] but fills two row-major buffers in lockstep:
/// `f(row_index, a_row, b_row)` gets the matching row of each. The
/// buffers may have different column widths but must describe the same
/// number of rows.
///
/// # Panics
/// Panics when either buffer's length is not a multiple of `rows`.
pub fn par_fill_rows2<T, U, F>(a: &mut [T], b: &mut [U], rows: usize, threads: usize, f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    if rows == 0 || (a.is_empty() && b.is_empty()) {
        assert!(a.is_empty() && b.is_empty(), "non-empty buffers with zero rows");
        return;
    }
    assert_eq!(a.len() % rows, 0, "first buffer not divisible into {rows} rows");
    assert_eq!(b.len() % rows, 0, "second buffer not divisible into {rows} rows");
    let (ca, cb) = (a.len() / rows, b.len() / rows);
    fill_ragged2(a, b, rows, threads, (ca, cb), |_| 1, f);
}

/// Offset of the unordered pair `{i, j}` (`i <= j < n`) in a packed
/// upper triangle that includes the diagonal: row `i` holds the pairs
/// `(i, i..n)` and starts at `i·n − i(i−1)/2`.
///
/// This is the layout [`par_fill_upper2`] fills; a table that stores a
/// symmetric function of node pairs once keeps `k` slots per pair at
/// `upper_index(n, i, j) * k`.
///
/// ```
/// assert_eq!(tivpar::upper_index(4, 0, 0), 0);
/// assert_eq!(tivpar::upper_index(4, 1, 1), 4);
/// assert_eq!(tivpar::upper_index(4, 3, 3), 9); // the last of 4·5/2
/// ```
#[inline]
pub fn upper_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < n, "pair ({i},{j}) is not upper-triangular in {n} nodes");
    i * (2 * n + 1 - i) / 2 + (j - i)
}

/// Like [`par_fill_rows2`] over the packed upper triangle of an `n × n`
/// symmetric table (see [`upper_index`]): row `i` holds the `n − i`
/// pairs `(i, i..n)`, each `a.len() / (n(n+1)/2)` elements wide in `a`
/// and likewise in `b`. `f(i, a_row, b_row)` gets row `i`'s disjoint
/// slice of each buffer, so a parallel fill needs no second table.
///
/// Rows are dealt to the pool exactly as [`par_fill_rows2`] deals
/// them, so the (triangular) row-cost skew is left to stealing.
///
/// # Panics
/// Panics when either buffer's length is not a multiple of
/// `n(n+1)/2`.
pub fn par_fill_upper2<T, U, F>(a: &mut [T], b: &mut [U], n: usize, threads: usize, f: F)
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    let pairs = n * (n + 1) / 2;
    if pairs == 0 || (a.is_empty() && b.is_empty()) {
        assert!(a.is_empty() && b.is_empty(), "non-empty buffers with zero pairs");
        return;
    }
    assert_eq!(a.len() % pairs, 0, "first buffer not divisible into {pairs} pairs");
    assert_eq!(b.len() % pairs, 0, "second buffer not divisible into {pairs} pairs");
    fill_ragged2(a, b, n, threads, (a.len() / pairs, b.len() / pairs), |i| n - i, f);
}

/// The shared body of the two-buffer fills: row `i` takes the next
/// `units(i) · widths.0` elements of `a` and `units(i) · widths.1` of
/// `b`, and `f` runs once per row. Rows are dealt in
/// [`fine_ranges`] chunks, each pre-split into its own disjoint slices.
fn fill_ragged2<T, U, F>(
    a: &mut [T],
    b: &mut [U],
    rows: usize,
    threads: usize,
    (wa, wb): (usize, usize),
    units: impl Fn(usize) -> usize + Sync,
    f: F,
) where
    T: Send,
    U: Send,
    F: Fn(usize, &mut [T], &mut [U]) + Sync,
{
    let fill = |range: Range<usize>, mut rest_a: &mut [T], mut rest_b: &mut [U]| {
        for i in range {
            let (ra, tail_a) = rest_a.split_at_mut(units(i) * wa);
            let (rb, tail_b) = rest_b.split_at_mut(units(i) * wb);
            (rest_a, rest_b) = (tail_a, tail_b);
            f(i, ra, rb);
        }
    };
    let workers = resolve_threads(threads).min(rows);
    if workers <= 1 {
        fill(0..rows, a, b);
        return;
    }
    let ranges = fine_ranges(rows, workers);
    type Pair<'s, T, U> = Mutex<Option<(&'s mut [T], &'s mut [U])>>;
    let mut slices: Vec<Pair<'_, T, U>> = Vec::with_capacity(ranges.len());
    let (mut rest_a, mut rest_b) = (a, b);
    for range in &ranges {
        let len: usize = range.clone().map(&units).sum();
        let (chunk_a, tail_a) = rest_a.split_at_mut(len * wa);
        let (chunk_b, tail_b) = rest_b.split_at_mut(len * wb);
        (rest_a, rest_b) = (tail_a, tail_b);
        slices.push(Mutex::new(Some((chunk_a, chunk_b))));
    }
    pool::run(workers, ranges.len(), &|ci| {
        let (chunk_a, chunk_b) =
            slices[ci].lock().expect("slice lock").take().expect("chunk runs once");
        fill(ranges[ci].clone(), chunk_a, chunk_b);
    });
}

/// Sums `f(i)` over `0..rows` in parallel, folding the per-row values
/// **in index order** so the floating-point association — and therefore
/// the result, to the bit — is independent of the worker count.
///
/// Note this fixed association differs from a hand-written serial loop
/// that accumulates element-by-element inside each row; kernels that
/// migrate onto this primitive define their serial reference as the
/// same call with `threads == 1`.
pub fn par_sum_rows<F>(rows: usize, threads: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    par_map_rows(rows, threads, f).into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_explicit_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for items in [0usize, 1, 5, 16, 17, 100] {
            for size in [0usize, 1, 2, 4, 7, 32] {
                let ranges = ranges_of(items, size);
                assert_eq!(ranges.len(), items.div_ceil(size.max(1)));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap before {r:?}");
                    assert!(r.end > r.start, "empty range {r:?}");
                    next = r.end;
                }
                assert_eq!(next, items, "ranges must cover 0..{items}");
            }
        }
    }

    #[test]
    fn fine_ranges_cover_exactly_and_outnumber_workers() {
        for items in [0usize, 1, 5, 16, 17, 100, 1000] {
            for workers in [1usize, 2, 4, 7, 32] {
                let ranges = fine_ranges(items, workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap before {r:?}");
                    assert!(r.end > r.start, "empty range {r:?}");
                    next = r.end;
                }
                assert_eq!(next, items, "ranges must cover 0..{items}");
                // With plenty of items there must be more chunks than
                // workers, else stealing has nothing to balance.
                if items >= workers * pool::CHUNKS_PER_WORKER {
                    assert!(ranges.len() >= workers * pool::CHUNKS_PER_WORKER / 2);
                }
            }
        }
    }

    #[test]
    fn fine_ranges_depend_only_on_items_and_workers() {
        // The determinism argument requires the chunk layout to be a
        // pure function of (items, workers).
        assert_eq!(fine_ranges(1234, 4), fine_ranges(1234, 4));
        assert_ne!(fine_ranges(1234, 4).len(), 0);
    }

    #[test]
    fn map_rows_preserves_order_across_thread_counts() {
        let _pool = pool::test_lock();
        let serial: Vec<usize> = (0..103).map(|i| i * 31 % 17).collect();
        for t in [1usize, 2, 4, 7, 16] {
            assert_eq!(par_map_rows(103, t, |i| i * 31 % 17), serial);
        }
        assert_eq!(par_map_rows(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn fill_rows_matches_serial() {
        let _pool = pool::test_lock();
        let fill = |t: usize| {
            let mut buf = vec![0usize; 9 * 5];
            par_fill_rows(&mut buf, 9, t, |row, out| {
                for (c, v) in out.iter_mut().enumerate() {
                    *v = row * 100 + c;
                }
            });
            buf
        };
        let serial = fill(1);
        for t in [2usize, 3, 4, 8] {
            assert_eq!(fill(t), serial);
        }
    }

    #[test]
    fn fill_rows2_zips_matching_rows() {
        let _pool = pool::test_lock();
        let fill = |t: usize| {
            let mut a = vec![0u64; 7 * 3];
            let mut b = vec![0u8; 7 * 2];
            par_fill_rows2(&mut a, &mut b, 7, t, |row, ra, rb| {
                ra.fill(row as u64);
                rb.fill(row as u8 + 1);
            });
            (a, b)
        };
        let serial = fill(1);
        for t in [2usize, 4, 7] {
            assert_eq!(fill(t), serial);
        }
    }

    #[test]
    fn fill_upper2_hands_each_row_its_packed_slice() {
        let _pool = pool::test_lock();
        for n in [0usize, 1, 2, 5, 33] {
            let pairs = n * (n + 1) / 2;
            let fill = |t: usize| {
                let (mut a, mut b) = (vec![usize::MAX; pairs * 2], vec![0u8; pairs]);
                par_fill_upper2(&mut a, &mut b, n, t, |i, ra, rb| {
                    assert_eq!((ra.len(), rb.len()), (2 * (n - i), n - i), "row {i}");
                    for (c, (slot, tag)) in ra.chunks_mut(2).zip(rb).enumerate() {
                        slot[0] = upper_index(n, i, i + c);
                        slot[1] = i * 1000 + i + c;
                        *tag = 1;
                    }
                });
                (a, b)
            };
            let (a, b) = fill(1);
            // Every pair landed at its own index, exactly once.
            for i in 0..n {
                for j in i..n {
                    let p = upper_index(n, i, j);
                    assert_eq!((a[2 * p], a[2 * p + 1]), (p, i * 1000 + j), "pair ({i},{j})");
                }
            }
            assert!(b.iter().all(|&t| t == 1));
            for t in [2usize, 4, 7] {
                assert_eq!(fill(t), (a.clone(), b.clone()), "n = {n}, {t} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn fill_upper2_rejects_a_ragged_buffer() {
        let (mut a, mut b) = (vec![0u8; 7], vec![0u8; 6]);
        par_fill_upper2(&mut a, &mut b, 3, 1, |_, _, _| {});
    }

    #[test]
    fn sum_rows_bit_identical_across_thread_counts() {
        let _pool = pool::test_lock();
        // Values chosen so association would matter if it drifted.
        let f = |i: usize| 1.0 / (i as f64 + 1.0).powi(2);
        let serial = par_sum_rows(1000, 1, f);
        for t in [2usize, 3, 4, 7, 13] {
            assert_eq!(par_sum_rows(1000, t, f).to_bits(), serial.to_bits());
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let _pool = pool::test_lock();
        let mut empty: Vec<f64> = Vec::new();
        par_fill_rows(&mut empty, 0, 4, |_, _| unreachable!());
        // 5 rows x 0 cols: f still runs once per row, on empty slices.
        let zero_width_calls = std::sync::atomic::AtomicUsize::new(0);
        par_fill_rows(&mut empty, 5, 4, |_, row| {
            assert!(row.is_empty());
            zero_width_calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(zero_width_calls.load(std::sync::atomic::Ordering::Relaxed), 5);
        let mut b: Vec<u8> = Vec::new();
        par_fill_rows2(&mut empty, &mut b, 0, 4, |_, _, _| unreachable!());
        // One zero-width buffer: f still runs per row with an empty
        // slice on that side.
        let mut wide = vec![0u64; 3 * 2];
        let mut none: Vec<u8> = Vec::new();
        par_fill_rows2(&mut wide, &mut none, 3, 4, |row, ra, rb| {
            assert!(rb.is_empty());
            ra.fill(row as u64 + 1);
        });
        assert_eq!(wide, vec![1, 1, 2, 2, 3, 3]);
        assert_eq!(par_sum_rows(0, 4, |_| 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn fill_rows_rejects_ragged_buffer() {
        let mut buf = vec![0u8; 10];
        par_fill_rows(&mut buf, 3, 2, |_, _| {});
    }

    #[test]
    fn worker_panic_propagates() {
        let _pool = pool::test_lock();
        let caught = std::panic::catch_unwind(|| {
            par_map_rows(16, 4, |i| {
                assert!(i != 9, "poison row");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn primitives_reuse_pool_workers() {
        let _pool = pool::test_lock();
        // Warm the pool, then assert repeated kernel-style calls do not
        // spawn more threads (the pool-reuse regression at unit level;
        // the integration version in tivoid drives real kernels).
        let _ = par_map_rows(64, 4, |i| i);
        let spawned = pool::stats().spawned_total;
        for _ in 0..8 {
            let _ = par_map_rows(64, 4, |i| i);
            let mut buf = vec![0.0f64; 64 * 8];
            par_fill_rows(&mut buf, 64, 4, |r, row| row.fill(r as f64));
        }
        assert_eq!(pool::stats().spawned_total, spawned);
    }
}
