//! Scoped-thread work partitioning (std-only).
//!
//! Kernels split their output into bands (contiguous rows, or for the f32
//! convolution blocks of output pixels) and run one band per thread under
//! [`std::thread::scope`]. Each output element is produced by exactly one
//! thread with the same sequential accumulation order as the serial
//! kernel, so parallel results are bit-for-bit equal to serial ones.

use std::ops::Range;
use std::sync::OnceLock;

/// Worker-thread count: the `NGA_THREADS` environment variable if set to
/// a number (0 counts as 1), otherwise the machine's available
/// parallelism.
///
/// Both are read once per process, at the first call: later changes to
/// `NGA_THREADS` are not seen. (On Linux `available_parallelism` reads
/// cgroup quota files, which costs tens of microseconds per call.)
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "NGA_THREADS caps the worker count; results do not depend on it"
)]
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("NGA_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                |n| n.max(1),
            )
    })
}

/// Splits `0..n` into at most `parts` contiguous near-equal ranges
/// (never returns an empty range; may return fewer than `parts`).
#[must_use]
pub(crate) fn split_bands(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Output elements below which a banded kernel stays serial: under ~16k
/// outputs the per-thread spawn cost (15–45 µs for an empty scoped
/// spawn+join on a 2-vCPU Xeon VM) is comparable to the work itself.
const PARALLEL_MIN_OUTPUTS: usize = 16_384;

/// The bands a kernel with `outputs` output elements runs in, as ranges
/// over its `units` splittable units (rows, or pixel blocks): one band
/// `0..units` when a single thread is available or `outputs` is under
/// 16 384, otherwise one per worker thread, at most one per unit.
pub(crate) fn bands_for(outputs: usize, units: usize) -> Vec<Range<usize>> {
    // Size first: small kernels never pay for the thread-count lookup.
    if outputs < PARALLEL_MIN_OUTPUTS {
        let serial = 0..units;
        return vec![serial];
    }
    split_bands(units, num_threads())
}

/// Runs `f` on every work item and returns the results in item order:
/// a single item on the calling thread, more on one scoped thread each
/// while the caller waits. A panic in any item is re-raised here.
///
/// The caller takes no band itself: on a 2-vCPU Xeon VM, running the
/// first band on the caller made the banded `matmul8` and conv workloads
/// ~15 % slower than spawning every band (EXPERIMENTS.md).
pub(crate) fn run_bands<W: Send, R: Send>(work: Vec<W>, f: impl Fn(W) -> R + Sync) -> Vec<R> {
    if work.len() <= 1 {
        return work.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = work.into_iter().map(|w| s.spawn(move || f(w))).collect();
        workers
            .into_iter()
            // A band that panicked re-raises its panic here, exactly as
            // the scope would at exit.
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Runs `f(rows, band)` over contiguous row bands of `out`, in parallel
/// when the work is large enough, and returns each band's result in row
/// order.
///
/// `out` has `rows` rows of `row_len` elements. Bands are disjoint
/// `&mut` slices, so `f` needs no synchronisation. Falls back to one
/// serial call (`f(0..rows, out)`) when a single thread is available or
/// the matrix has fewer than 16 384 elements. Callers that reduce band
/// results (status counters) must use an order-independent fold, since
/// the band count depends on the thread count.
pub fn for_each_band<T: Send, R: Send, F>(
    out: &mut [T],
    rows: usize,
    row_len: usize,
    f: F,
) -> Vec<R>
where
    F: Fn(Range<usize>, &mut [T]) -> R + Sync,
{
    assert_eq!(out.len(), rows * row_len, "output shape mismatch");
    let mut rest = out;
    let work: Vec<_> = bands_for(rows * row_len, rows)
        .into_iter()
        .map(|band| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(band.len() * row_len);
            rest = tail;
            (band, head)
        })
        .collect();
    run_bands(work, |(band, slice)| f(band, slice))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_cover_exactly() {
        for n in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let bands = split_bands(n, parts);
                let mut next = 0;
                for b in &bands {
                    assert_eq!(b.start, next);
                    assert!(b.end > b.start, "no empty bands");
                    next = b.end;
                }
                assert_eq!(next, n, "bands cover 0..{n}");
            }
        }
    }

    #[test]
    fn for_each_band_touches_every_row_once() {
        let rows = 101;
        let row_len = 257;
        let mut out = vec![0u32; rows * row_len];
        for_each_band(&mut out, rows, row_len, |band, slice| {
            for (i, r) in band.enumerate() {
                for v in &mut slice[i * row_len..(i + 1) * row_len] {
                    *v += r as u32 + 1;
                }
            }
        });
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(out[r * row_len + c], r as u32 + 1);
            }
        }
    }

    #[test]
    fn for_each_band_returns_band_results_in_row_order() {
        for (rows, row_len) in [(3usize, 5usize), (101, 257)] {
            let mut out = vec![0u8; rows * row_len];
            let bands = for_each_band(&mut out, rows, row_len, |band, slice| {
                assert_eq!(slice.len(), band.len() * row_len);
                band
            });
            let mut next = 0;
            for b in &bands {
                assert_eq!(b.start, next, "bands are returned in row order");
                next = b.end;
            }
            assert_eq!(next, rows);
            if rows * row_len < PARALLEL_MIN_OUTPUTS {
                assert_eq!(bands.len(), 1, "small outputs stay serial");
            }
        }
    }

    #[test]
    fn bands_run_on_their_own_threads_and_one_band_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = run_bands(vec![0, 1, 2], |_| std::thread::current().id());
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&id| id != caller), "each band is spawned");
        assert_ne!(ids[0], ids[1], "one thread per band");
        assert_eq!(
            run_bands(vec![()], |()| std::thread::current().id()),
            [caller],
            "a single band spawns nothing"
        );
        assert!(run_bands(Vec::<u8>::new(), |_| ()).is_empty());
    }

    #[test]
    fn a_panicking_band_re_raises_on_the_caller() {
        let r = std::panic::catch_unwind(|| {
            run_bands(vec![0, 1], |i| assert_eq!(i, 0, "band {i} panics"));
        });
        assert!(r.is_err(), "a spawned band's panic reaches the caller");
    }
}
