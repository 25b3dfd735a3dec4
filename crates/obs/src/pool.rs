//! The workspace's task pool: scoped worker threads claim tasks from one
//! shared queue, run each under its own panic isolation, and hand the
//! results back in task order.
//!
//! The experiment engine feeds it the whole `(point, seed)` grid and the
//! spatial runner its interference components. Because there is one
//! queue and no per-batch barrier, a slow task never idles the other
//! workers while work remains.
//!
//! Determinism: each result is slotted by its task index, so the output
//! vector is identical to a serial run regardless of worker count or
//! interleaving.
//!
//! Panic isolation: each task runs under `catch_unwind`; a panicking
//! task becomes `Err(message)` in its slot and every other task still
//! runs. Results are published as each task finishes (not in a
//! per-worker batch at thread exit), so a worker thread dying abnormally
//! can lose only the task it was running, and that slot is filled with
//! an explicit error naming the task and the captured panic payload.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;

/// Runs `task` on every item of `tasks` across up to `workers` threads,
/// returning one result per item in item order. `workers` is clamped to
/// `[1, item count]`; with one worker the tasks run serially on the
/// caller's thread (same failure semantics, no thread spawn).
///
/// Items are moved into their task, so a task may consume owned state
/// (a component's node policies) as well as an index into shared state.
pub fn run_tasks<I, T, F>(tasks: I, workers: usize, task: F) -> Vec<Result<T, String>>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let tasks = tasks.into_iter();
    let count = tasks.len();
    let workers = workers.max(1).min(count.max(1));
    if workers <= 1 {
        return tasks.map(|item| run_one(&task, item)).collect();
    }

    let queue = Mutex::new(tasks.enumerate());
    let collected: Mutex<Vec<(usize, Result<T, String>)>> = Mutex::new(Vec::with_capacity(count));
    let harness_errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    // The queue guard drops with this statement: a task
                    // never runs while holding it.
                    let claimed = queue.lock().next();
                    let Some((i, item)) = claimed else { break };
                    let result = run_one(&task, item);
                    // Publish immediately: a completed task survives even
                    // if this worker thread later dies abnormally.
                    collected.lock().push((i, result));
                })
            })
            .collect();
        // Task panics are caught inside run_one, so a join failure means
        // the worker thread itself died (e.g. a panic while publishing).
        // Capture the payload so any slot the thread lost carries a real
        // diagnosis.
        handles
            .into_iter()
            .filter_map(|handle| handle.join().err())
            .map(|payload| panic_message(payload.as_ref()))
            .collect()
    });
    assemble(count, collected.into_inner(), &harness_errors)
}

/// Re-assembles out-of-order `(index, result)` pairs into task order,
/// filling any slot no worker reported with an explicit error that
/// names the task and includes whatever the harness captured about the
/// failure. Factored out of [`run_tasks`] so the lost-slot path is unit
/// testable without actually killing a worker thread.
fn assemble<T>(
    count: usize,
    collected: Vec<(usize, Result<T, String>)>,
    harness_errors: &[String],
) -> Vec<Result<T, String>> {
    let mut out: Vec<Option<Result<T, String>>> = (0..count).map(|_| None).collect();
    for (i, r) in collected {
        if let Some(slot) = out.get_mut(i) {
            *slot = Some(r);
        }
    }
    let context = if harness_errors.is_empty() {
        String::new()
    } else {
        format!(" ({})", harness_errors.join("; "))
    };
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(format!(
                    "task {i} lost: worker thread died before reporting it{context}"
                ))
            })
        })
        .collect()
}

/// Runs one task under `catch_unwind`, converting a panic payload into
/// an error message.
fn run_one<X, T, F>(task: &F, item: X) -> Result<T, String>
where
    F: Fn(X) -> T,
{
    catch_unwind(AssertUnwindSafe(|| task(item))).map_err(|payload| panic_message(payload.as_ref()))
}

/// Extracts the human-readable message from a panic payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::{assemble, panic_message, run_tasks};

    #[test]
    fn results_come_back_in_task_order() {
        for workers in [1, 2, 4, 8] {
            let out = run_tasks(0..20, workers, |i| i * 10);
            let values: Vec<usize> = out.into_iter().map(|r| r.expect("task ok")).collect();
            assert_eq!(values, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn owned_items_are_moved_into_their_tasks() {
        for workers in [1, 2, 4, 8] {
            let items: Vec<String> = (0..13).map(|i| format!("item-{i}")).collect();
            let out = run_tasks(items, workers, |s: String| s + "!");
            let values: Vec<String> = out.into_iter().map(|r| r.expect("task ok")).collect();
            let expected: Vec<String> = (0..13).map(|i| format!("item-{i}!")).collect();
            assert_eq!(values, expected, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_task_is_a_failed_cell_not_an_abort() {
        let out = run_tasks(0..5, 3, |i| {
            assert!(i != 2, "cell 2 exploded");
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                let msg = r.as_ref().expect_err("cell 2 failed");
                assert!(msg.contains("cell 2 exploded"), "got: {msg}");
            } else {
                assert_eq!(*r.as_ref().expect("other cells ok"), i);
            }
        }
    }

    #[test]
    fn many_panicking_tasks_all_get_explicit_slots() {
        // Regression for the silent-loss path: with frequent panics and
        // real concurrency, every slot must still come back filled with
        // either its value or the task's own panic message — never the
        // generic "lost" marker.
        for workers in [1, 2, 4, 8] {
            let out = run_tasks(0..50, workers, |i| {
                assert!(i % 3 != 0, "task {i} exploded");
                i
            });
            assert_eq!(out.len(), 50);
            for (i, r) in out.iter().enumerate() {
                if i % 3 == 0 {
                    let msg = r.as_ref().expect_err("multiple-of-3 tasks fail");
                    assert!(msg.contains(&format!("task {i} exploded")), "got: {msg}");
                    assert!(
                        !msg.contains("lost"),
                        "slot {i} was lost, not failed: {msg}"
                    );
                } else {
                    assert_eq!(*r.as_ref().expect("other tasks ok"), i);
                }
            }
        }
    }

    #[test]
    fn lost_slots_carry_task_index_and_harness_diagnosis() {
        // Simulates a worker dying after finishing tasks 0 and 2 but
        // before reporting task 1: the missing slot must say which task
        // vanished and why, instead of a generic marker.
        let collected = vec![(0usize, Ok(10u32)), (2, Ok(30))];
        let errors = vec!["worker panicked: allocator meltdown".to_owned()];
        let out = assemble(3, collected, &errors);
        assert_eq!(out[0], Ok(10));
        assert_eq!(out[2], Ok(30));
        let msg = out[1].as_ref().expect_err("slot 1 lost");
        assert!(msg.contains("task 1 lost"), "got: {msg}");
        assert!(msg.contains("allocator meltdown"), "got: {msg}");
    }

    #[test]
    fn panic_payloads_of_either_string_type_are_read() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_owned()), "owned");
        assert_eq!(panic_message(&7u32), "panic with non-string payload");
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<Result<u32, String>> = run_tasks(0..0, 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = run_tasks(0..2, 16, |i| i + 1);
        assert_eq!(out.len(), 2);
        assert!(out.into_iter().all(|r| r.is_ok()));
    }
}
