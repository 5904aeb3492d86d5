//! The workspace's one worker pool.
//!
//! Campaigns, corpus replays, workload suites and the MPI sweep all fan
//! independent simulated worlds out over OS threads. Each world depends
//! only on its index, so the one thing the pool must guarantee for the
//! result to be thread-count-invariant is *slot discipline*: item `i`'s
//! result lands at position `i`, whichever worker ran it and whenever.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `f(0), f(1), …, f(n - 1)` on up to `threads` worker threads
/// and returns the results in index order.
///
/// An atomic cursor hands out indices; each worker keeps its own
/// `(index, result)` pairs and hands them back when it joins, so there
/// is no shared result buffer to lock or poison. A panic inside `f` is
/// re-raised on the caller with its original payload once every worker
/// has joined.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::map_indexed;

    #[test]
    fn results_come_back_in_input_order_for_any_thread_count() {
        for threads in [0, 1, 3, 64] {
            for n in [0usize, 1, 7] {
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(map_indexed(n, threads, |i| i * i), want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "item four exploded")]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        map_indexed(7, 3, |i| assert!(i != 4, "item four exploded"));
    }
}
