//! Shared by the daemon tests: a daemon thread the test is never tied to.

use std::thread::JoinHandle;

/// Moves `v` to the heap for the rest of the process, so a daemon on an
/// unscoped thread can borrow it.
pub fn leak<T>(v: T) -> &'static T {
    Box::leak(Box::new(v))
}

/// A daemon accept loop on its own unscoped thread.
///
/// In a `std::thread::scope`, a failed client assertion hangs the test: the
/// scope waits for the daemon, and the daemon waits in `accept` for
/// connections the failed client never opens. Here the assertion unwinds
/// out of the test at once, and [`Daemon::join`] waits for the daemon only
/// after every client has finished.
pub struct Daemon(JoinHandle<()>);

impl Daemon {
    pub fn spawn(run: impl FnOnce() + Send + 'static) -> Self {
        Self(std::thread::spawn(run))
    }

    /// Waits for the daemon to spend its connection budget and exit.
    pub fn join(self) {
        self.0
            .join()
            .expect("daemon exits once its connection budget is spent");
    }
}
