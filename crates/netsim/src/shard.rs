//! The one chunk scheduler under every parallel phase (the §3 crawl,
//! the §5 active and passive measurements, the serving engine's shards)
//! and the only place that starts threads.
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

/// Fold `items` on `threads` workers: the calling thread and
/// `threads − 1` scoped helpers.
///
/// The slice is over-split into `threads × 4` contiguous chunks (fewer
/// when there are fewer items, one empty chunk when there are none) so
/// chunk-duration variance load-balances. Each worker builds its state
/// once with `make_worker`, then claims chunks and turns each into a
/// result with `run_chunk`. `merge` receives the results in chunk order
/// on the calling thread, as soon as they can be: each time the caller
/// claims a chunk it first merges every finished result whose
/// predecessors have all merged, and it merges the rest once its own
/// worker is dropped and the helpers have joined. A result is thus
/// held only until the chunks ahead of it finish; on one thread,
/// `run 0, merge 0, run 1, merge 1, …`.
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
    let slot = |chunk: usize| {
        slots[chunk]
            .lock()
            .expect("chunk slots are never locked across a panic")
    };
    // The next unclaimed chunk, if any is left.
    let claim = || Some(next_chunk.fetch_add(1, Ordering::Relaxed)).filter(|&c| c < n_chunks);
    let run = |worker: &mut W, chunk: usize| {
        // Ceil-sized chunks can overrun the tail: clamp, leaving
        // trailing chunks empty.
        let start = (chunk * chunk_size).min(items.len());
        let end = (start + chunk_size).min(items.len());
        let result = run_chunk(worker, &items[start..end]);
        *slot(chunk) = Some(result);
    };
    // The first chunk not merged yet.
    let mut merged = 0;

    std::thread::scope(|scope| {
        for _ in 1..threads.min(n_chunks) {
            scope.spawn(|| {
                let mut worker = make_worker();
                while let Some(chunk) = claim() {
                    run(&mut worker, chunk);
                }
            });
        }
        let mut worker = make_worker();
        // Merging before running the claimed chunk leaves the last
        // merges until the worker is dropped: it is not alive beside
        // the grown total.
        while let Some(chunk) = claim() {
            while merged < chunk {
                let Some(result) = slot(merged).take() else {
                    break;
                };
                merge(result);
                merged += 1;
            }
            run(&mut worker, chunk);
        }
    });

    for chunk in merged..n_chunks {
        merge(
            slot(chunk)
                .take()
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

    /// One call the fold made, in the order it made them.
    #[derive(Debug, PartialEq)]
    enum Call {
        MakeWorker(std::thread::ThreadId),
        Run(usize),
        Merge(usize),
    }

    #[test]
    fn the_caller_works_and_merges_each_chunk_as_its_turn_comes() {
        let caller = std::thread::current().id();
        // 64 items cut evenly at every thread count: a chunk's number
        // is its first item over its length.
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 8] {
            let log = Mutex::new(Vec::new());
            let push = |call| log.lock().unwrap().push(call);
            fold_chunks(
                &items,
                threads,
                || push(Call::MakeWorker(std::thread::current().id())),
                |(), chunk| {
                    let n = chunk[0] / chunk.len();
                    push(Call::Run(n));
                    n
                },
                |n| {
                    assert_eq!(
                        std::thread::current().id(),
                        caller,
                        "merge {n} off the caller"
                    );
                    push(Call::Merge(n));
                },
            );
            let log = log.into_inner().unwrap();
            let n_chunks = threads * 4;
            assert!(
                log.contains(&Call::MakeWorker(caller)),
                "{threads} threads: {log:?}"
            );
            if threads == 1 {
                let mut want = vec![Call::MakeWorker(caller)];
                want.extend((0..n_chunks).flat_map(|n| [Call::Run(n), Call::Merge(n)]));
                assert_eq!(log, want);
            }
            let merges: Vec<usize> = log
                .iter()
                .filter_map(|c| match c {
                    Call::Merge(n) => Some(*n),
                    _ => None,
                })
                .collect();
            assert_eq!(merges, Vec::from_iter(0..n_chunks), "{threads} threads");
            for n in 0..n_chunks {
                let runs: Vec<usize> = (0..log.len()).filter(|&i| log[i] == Call::Run(n)).collect();
                let merge = log.iter().position(|c| *c == Call::Merge(n));
                assert!(
                    runs.len() == 1 && Some(runs[0]) < merge,
                    "{threads} threads: chunk {n} ran at {runs:?}, merged at {merge:?}"
                );
            }
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
