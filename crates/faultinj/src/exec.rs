//! Deterministic parallel execution engine for campaign fan-out.
//!
//! Every run in a campaign derives from an explicit per-run seed, so runs
//! are independent pure functions of their index. [`par_map`] exploits
//! that: a `std::thread::scope` worker pool pulls indices from a shared
//! atomic counter (work stealing — long runs never convoy short ones) and
//! writes each result into its index-order slot. Scheduling therefore
//! affects only *when* a result is computed, never *which* result lands
//! in which slot: output is bit-identical to the sequential path for any
//! thread count.
//!
//! Thread-count selection (`DIVERSEAV_THREADS`):
//! * unset/unparsable → `std::thread::available_parallelism()`
//! * `1` → the plain sequential loop (no threads spawned)
//! * `n > 1` → at most `n` scoped worker threads
//!
//! No dependencies beyond `std`; panics in workers propagate to the
//! caller when the scope joins.
//!
//! Observability: when `DIVERSEAV_TRACE` is on, each fan-out
//! pre-allocates an index-ordered [`SlotJournal`] and workers write
//! span begin/end plus a worker-id counter into the slot of the index
//! they claimed — lock-free, because the atomic index counter already
//! guarantees slot exclusivity. The journal is drained into the global
//! JSONL sink in index order after the scope joins, so recording never
//! adds hot-path synchronization and cannot perturb determinism (run
//! content stays a pure function of index; only timestamps and worker
//! ids vary between invocations).

use diverseav_obs::{journal, metrics, trace, SlotJournal};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The thread count selected by `DIVERSEAV_THREADS` (see module docs).
pub fn thread_count() -> usize {
    match std::env::var("DIVERSEAV_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => detected_parallelism(),
        },
        Err(_) => detected_parallelism(),
    }
}

/// Cores visible to this process (1 if detection fails).
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Map `f` over `items` with the environment-selected thread count,
/// preserving input order exactly (see module docs for the determinism
/// argument).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit thread count (1 → sequential loop).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    metrics::counter_add("exec.fan_outs", 1);
    metrics::counter_add("exec.items", n as u64);
    let journal = trace::enabled().then(|| SlotJournal::with_slots(n));
    // Item `i` on `worker`, bracketed by its journal span when tracing.
    let run = |i: usize, worker: usize| {
        let writer = journal.as_ref().map(|j| {
            let w = j.writer(i);
            w.span_begin("exec.item");
            w.counter("worker", worker as u64);
            w
        });
        let result = f(&items[i]);
        if let Some(w) = writer {
            w.span_end("exec.item");
        }
        result
    };
    if threads == 1 {
        let out = (0..n).map(|i| run(i, 0)).collect();
        drain_journal(journal);
        return out;
    }

    // Index-order result slots: workers race for *indices* (the atomic
    // counter), never for slots, so each slot mutex is uncontended.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (next, slots, run) = (&next, &slots, &run);
        for worker in 0..threads {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("result slot poisoned") = Some(run(i, worker));
            });
        }
    });
    drain_journal(journal);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("every index was claimed")
        })
        .collect()
}

/// Append a fan-out's slot events to the global JSONL sink, index-ordered.
fn drain_journal(journal: Option<SlotJournal>) {
    if let Some(j) = journal {
        for (i, events) in j.drain().into_iter().enumerate() {
            journal::append_slot_events("exec.par_map", i, &events);
        }
    }
}

/// Map `f` over `0..n` in parallel, preserving index order (convenience
/// for seeded-loop fan-out).
pub fn par_map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 33, 200] {
            let got = par_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn preserves_order_under_uneven_work() {
        // Later indices finish first; slots must still be index-ordered.
        let items: Vec<usize> = (0..16).collect();
        let got = par_map_with(4, &items, |&i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i
        });
        assert_eq!(got, items);
    }

    #[test]
    fn index_helper_matches_slice_form() {
        assert_eq!(par_map_indices(10, |i| i * 3), (0..10).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_clamps_to_items() {
        // 200 threads over 3 items must not panic or drop results.
        assert_eq!(par_map_with(200, &[1, 2, 3], |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn tracing_journals_every_item_without_changing_results() {
        let items: Vec<u64> = (0..9).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x + 10).collect();
        std::env::set_var("DIVERSEAV_TRACE", "1");
        let before = journal::len();
        let traced_seq = par_map_with(1, &items, |&x| x + 10);
        let traced_par = par_map_with(3, &items, |&x| x + 10);
        std::env::remove_var("DIVERSEAV_TRACE");
        assert_eq!(traced_seq, expected);
        assert_eq!(traced_par, expected);
        let new_lines: Vec<String> = journal::snapshot()
            .split_off(before)
            .into_iter()
            .filter(|l| l.contains("exec.par_map"))
            .collect();
        assert!(new_lines.len() >= 2 * items.len(), "one span line per traced item");
        assert!(new_lines[0].contains("\"span_begin\""));
    }
}
