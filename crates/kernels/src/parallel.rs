//! Scoped-thread work partitioning (std-only).
//!
//! Kernels split their output into contiguous row bands and run one band
//! per thread under [`std::thread::scope`]. Each output element is
//! produced by exactly one thread with the same sequential accumulation
//! order as the serial kernel, so parallel results are bit-for-bit equal
//! to serial ones.

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
pub fn split_bands(n: usize, parts: usize) -> Vec<Range<usize>> {
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
/// outputs the per-thread spawn cost (~10 µs) is comparable to the work
/// itself.
const PARALLEL_MIN_OUTPUTS: usize = 16_384;

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
    // Size first: small kernels never pay for the thread-count lookup.
    let threads = if rows * row_len < PARALLEL_MIN_OUTPUTS {
        1
    } else {
        num_threads().min(rows.max(1))
    };
    if threads <= 1 {
        return vec![f(0..rows, out)];
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut rest = out;
        let workers: Vec<_> = split_bands(rows, threads)
            .into_iter()
            .map(|band| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(band.len() * row_len);
                rest = tail;
                s.spawn(move || f(band, head))
            })
            .collect();
        workers
            .into_iter()
            // A band that panicked re-raises its panic here, exactly as
            // the scope would at exit.
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
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
}
