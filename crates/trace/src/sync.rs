//! The workspace's one lock discipline: a poisoned `Mutex` is taken anyway.
//!
//! A mutex is poisoned when a thread panicked while holding it. Every
//! critical section in the wire endpoints, the shard router, the work
//! queue and the sinks leaves its data valid at each step (counters,
//! maps and queues updated by single calls), so the panic that poisoned
//! the lock is that one thread's failure — already caught and reported as
//! an errored query where it happened — and not a reason for every later
//! caller to panic too. These are `Mutex::lock` and the `Condvar` waits
//! with the poison flag ignored.

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// `mutex.lock()`, poisoned or not.
#[inline]
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// `condvar.wait(guard)`, poisoned or not.
#[inline]
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(|p| p.into_inner())
}

/// `condvar.wait_timeout(guard, timeout)`, poisoned or not.
#[inline]
pub fn wait_timeout<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(|p| p.into_inner())
}

/// `condvar.wait_timeout_while(guard, timeout, condition)`, poisoned or
/// not.
#[inline]
pub fn wait_timeout_while<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
    condition: impl FnMut(&mut T) -> bool,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout_while(guard, timeout, condition)
        .unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A panic under the lock poisons it for `Mutex::lock` and changes
    /// nothing for `lock`: the data is what the panicking thread left.
    #[test]
    fn a_poisoned_mutex_is_taken_with_its_data_intact() {
        let shared = Arc::new((Mutex::new(7_u32), Condvar::new()));
        let poisoner = Arc::clone(&shared);
        let panicked = std::thread::spawn(move || {
            let mut guard = lock(&poisoner.0);
            *guard = 8;
            panic!("poison the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared.0.lock().is_err(), "the mutex is poisoned");

        let (mutex, condvar) = &*shared;
        assert_eq!(*lock(mutex), 8);
        let (guard, timeout) = wait_timeout(condvar, lock(mutex), Duration::ZERO);
        assert!(timeout.timed_out());
        let (guard, timeout) = wait_timeout_while(condvar, guard, Duration::ZERO, |n| *n == 8);
        assert!(timeout.timed_out());
        assert_eq!(*guard, 8);
        drop(guard);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut guard = lock(mutex);
                while *guard == 8 {
                    guard = wait(condvar, guard);
                }
                assert_eq!(*guard, 9);
            });
            *lock(mutex) = 9;
            condvar.notify_one();
        });
    }
}
