//! The one chunk scheduler under every order-preserving parallel phase
//! (the §3 crawl, the §5 active measurement).
//!
//! Work that is independent per item — every site visit seeds its own
//! RNG and runs in its own session — can be split anywhere; what must
//! not move is the *order* results are folded in, because sample
//! vectors and trace buffers concatenate. [`fold_chunks`] cuts the
//! items into contiguous chunks, lets workers claim them off a shared
//! counter, and hands the per-chunk results to `merge` in chunk order,
//! so the fold equals the sequential one at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fold `items` on up to `threads` scoped worker threads.
///
/// The slice is over-split into `threads × 4` contiguous chunks (fewer
/// when there are fewer items, one empty chunk when there are none) so
/// chunk-duration variance load-balances. Each worker thread builds
/// its state once with `make_worker`, then claims chunks and turns
/// each into a result with `run_chunk`; after every worker has joined,
/// `merge` receives the results in chunk order on the calling thread.
/// A panic in any closure propagates to the caller.
pub fn fold_chunks<T, W, A>(
    items: &[T],
    threads: usize,
    make_worker: impl Fn() -> W + Sync,
    run_chunk: impl Fn(&mut W, &[T]) -> A + Sync,
    mut merge: impl FnMut(A),
) where
    T: Sync,
    A: Send,
{
    let threads = threads.max(1);
    let n_chunks = (threads * 4).min(items.len()).max(1);
    let chunk_size = items.len().div_ceil(n_chunks);
    // `Relaxed` suffices: the counter publishes no data, it only hands
    // out distinct chunk numbers; results cross threads through the
    // slot mutexes and the scope join.
    let next_chunk = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<A>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_chunks) {
            scope.spawn(|| {
                let mut worker = make_worker();
                loop {
                    let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if chunk >= n_chunks {
                        break;
                    }
                    // Ceil-sized chunks can overrun the tail: clamp,
                    // leaving trailing chunks empty.
                    let start = (chunk * chunk_size).min(items.len());
                    let end = (start + chunk_size).min(items.len());
                    let result = run_chunk(&mut worker, &items[start..end]);
                    *slots[chunk]
                        .lock()
                        .expect("chunk slots are locked once each, never across a panic") =
                        Some(result);
                }
            });
        }
    });

    for slot in slots {
        merge(
            slot.into_inner()
                .expect("chunk slots are locked once each, never across a panic")
                .expect("every chunk was claimed and completed"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concatenation is associative but not commutative: any chunk
    /// merged out of order changes the string.
    fn concat(items: &[u32], threads: usize) -> String {
        let mut out = String::new();
        fold_chunks(
            items,
            threads,
            || (),
            |(), chunk| chunk.iter().map(|i| format!("{i},")).collect::<String>(),
            |part| out.push_str(&part),
        );
        out
    }

    #[test]
    fn equals_the_sequential_fold_at_any_thread_count() {
        for n in [0u32, 1, 7, 100] {
            let items: Vec<u32> = (0..n).collect();
            let want: String = items.iter().map(|i| format!("{i},")).collect();
            for threads in [1, 2, 8] {
                assert_eq!(
                    concat(&items, threads),
                    want,
                    "{n} items, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn builds_at_most_one_worker_per_thread_or_chunk() {
        for (n, threads) in [(0usize, 8usize), (1, 8), (7, 2), (100, 8), (100, 1)] {
            let items = vec![0u8; n];
            let made = AtomicUsize::new(0);
            let (mut chunks, mut covered) = (0, 0);
            fold_chunks(
                &items,
                threads,
                || made.fetch_add(1, Ordering::Relaxed),
                |_, chunk| chunk.len(),
                |len| {
                    chunks += 1;
                    covered += len;
                },
            );
            assert_eq!(covered, n, "chunks partition the items");
            assert_eq!(chunks, (threads * 4).min(n).max(1));
            let made = made.into_inner();
            assert!(
                (1..=threads.min(chunks)).contains(&made),
                "{n} items on {threads} threads made {made} workers for {chunks} chunks"
            );
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_chunk_propagates() {
        let items: Vec<u32> = (0..40).collect();
        fold_chunks(
            &items,
            2,
            || (),
            |(), chunk| assert!(!chunk.contains(&17), "chunk holding 17 dies"),
            |()| {},
        );
    }
}
