//! Deterministic parallel execution for independent seeded cases.
//!
//! The sweep matrix is embarrassingly parallel: every `(scenario,
//! profile, seed)` cell builds its own [`axml_p2p::Sim`], runs it to
//! completion, and never shares state with any other cell. What is *not*
//! trivially parallel is keeping the outputs byte-identical to the
//! serial run — reports, FNV digests, merged counter snapshots, and
//! Prometheus expositions must not depend on which worker finished
//! first.
//!
//! [`par_map`] solves this with a strict split between **scheduling**
//! (nondeterministic, invisible) and **results** (deterministic,
//! canonical):
//!
//! - workers claim the next unclaimed item index from a shared atomic
//!   counter (self-scheduling work stealing — an idle worker always
//!   steals the globally next item, so no static sharding can leave a
//!   worker starved behind one slow case);
//! - each item runs entirely inside its worker thread — the `Sim`, its
//!   `Rc`-based observers, and every other non-`Send` structure are
//!   created, driven, and dropped without ever crossing threads; only
//!   the plain-data result is sent back over a channel, tagged with the
//!   item's index;
//! - the caller reassembles results **by index**, so the returned `Vec`
//!   is in item order no matter how the workers interleaved;
//!   [`par_each`] hands them to a consumer in that order as they come.
//!
//! Any fold over the returned `Vec` is therefore order-canonical: a
//! merge of snapshots, histograms, or digest text built left-to-right
//! over it is byte-identical for `jobs = 1` and `jobs = N`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// item order (index `i` of the output is `f(i, &items[i])`).
///
/// `jobs <= 1` (or a single item) runs inline on the calling thread with
/// no thread machinery at all — the parallel path must match *that*
/// byte-for-byte, not the other way around. The closure only needs to
/// produce a `Send` result; the values it builds internally (simulators,
/// `Rc` observers) never leave the worker.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    par_each(items, jobs, f, |_, r| out.push(r));
    out
}

/// [`par_map`] without the `Vec`: hands each result to `consume` on the
/// calling thread, in item order, as soon as every earlier item's result
/// has been handed over. A fold inside `consume` is as order-canonical as
/// one over [`par_map`]'s output, but only results that finished ahead of
/// a slower earlier item wait in memory — a sweep folds its cases as they
/// come instead of holding every case until the last one is done.
pub fn par_each<T, R, F, C>(items: &[T], jobs: usize, f: F, mut consume: C)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    C: FnMut(usize, R),
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        items.iter().enumerate().for_each(|(i, t)| consume(i, f(i, t)));
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // A send only fails if the receiver hung up, which
                // cannot happen while this scope is still collecting.
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Consume while workers run; results that arrive early wait, by
        // index, until the ones before them are in.
        let mut waiting: BTreeMap<usize, R> = BTreeMap::new();
        let mut due = 0;
        for (i, r) in rx {
            waiting.insert(i, r);
            while let Some(r) = waiting.remove(&due) {
                consume(due, r);
                due += 1;
            }
        }
        assert_eq!(due, items.len(), "every claimed index produced a result");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(&items, 1, |i, v| (i as u64) * 1000 + v * v);
        for jobs in [2, 4, 8] {
            assert_eq!(par_map(&items, jobs, |i, v| (i as u64) * 1000 + v * v), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, 8, |_, v| *v).is_empty());
        assert_eq!(par_map(&[7u32], 8, |_, v| v + 1), vec![8]);
    }

    #[test]
    fn oversubscription_is_harmless() {
        // More workers than items: extra workers find the counter
        // exhausted and exit immediately.
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map(&items, 64, |_, v| v * 2), vec![0, 2, 4]);
    }

    #[test]
    fn uneven_work_still_canonical() {
        // Make early items much slower than late ones so workers finish
        // wildly out of order; the output must not care.
        let items: Vec<u64> = (0..32).collect();
        let slow = |i: usize, v: &u64| {
            let spins = if i < 4 { 20_000 } else { 10 };
            let mut acc = *v;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let serial = par_map(&items, 1, slow);
        assert_eq!(par_map(&items, 8, slow), serial);
        // `par_each` hands the results over in the same order.
        let mut handed = Vec::new();
        par_each(&items, 8, slow, |i, r| handed.push((i, r)));
        assert!(handed.iter().enumerate().all(|(i, &(j, _))| i == j));
        assert_eq!(handed.into_iter().map(|(_, r)| r).collect::<Vec<_>>(), serial);
    }
}
