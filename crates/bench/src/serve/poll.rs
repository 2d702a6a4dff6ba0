//! Readiness waiting for the event loop: one `ppoll(2)` over the
//! listener, every connection that wants to read or write, and a wake
//! socket that the inference worker writes one byte to after each
//! finished batch. The poller thread therefore sleeps until something can
//! actually move — a request arrives, a socket drains, a batch lands or a
//! timer falls due — instead of ticking.
//!
//! `ppoll` rather than `poll`: its timeout is a `timespec`, so a
//! sub-millisecond flush deadline is waited out to the microsecond
//! instead of being rounded down to 0 (a spin) or up to a whole
//! millisecond (a late flush). Std has no poll surface and the workspace
//! has no libc crate, so the call is declared through `extern "C"`, as
//! `dader-serve` does for `signal(2)`. Off Linux the same API falls back
//! to a bounded sleep tick that reports every watched connection as
//! readable.

use std::net::TcpListener;
use std::time::Duration;

use super::conn::Stream;

pub(crate) use imp::{Poller, Waker};

#[cfg(any(target_os = "linux", target_os = "android"))]
mod imp {
    use std::io::{ErrorKind, Read, Write};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    use super::{Duration, Stream, TcpListener};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` (`time_t` is a `long` on Linux).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// The write end of the poller's wake socket; cheap to clone into the
    /// inference worker.
    #[derive(Clone)]
    pub(crate) struct Waker(Arc<UnixStream>);

    impl Waker {
        /// Make the poller's current or next wait return at once.
        pub(crate) fn wake(&self) {
            // Nonblocking: a full socket buffer already holds a wake-up
            // the poller has not consumed, so a dropped byte loses nothing.
            let _ = (&*self.0).write(&[1]);
        }
    }

    /// One pass's interest set and the readiness the last wait found.
    pub(crate) struct Poller {
        wake_rx: UnixStream,
        waker: Waker,
        fds: Vec<PollFd>,
        /// Connection id of each `fds` entry after the fixed ones (the
        /// wake socket, then the listener when it is watched).
        ids: Vec<usize>,
    }

    impl Poller {
        pub(crate) fn new() -> std::io::Result<Poller> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Poller {
                wake_rx: rx,
                waker: Waker(Arc::new(tx)),
                fds: Vec::new(),
                ids: Vec::new(),
            })
        }

        pub(crate) fn waker(&self) -> Waker {
            self.waker.clone()
        }

        /// Start the next interest set: the wake socket always, the
        /// listener when new connections are wanted.
        pub(crate) fn begin(&mut self, listener: Option<&TcpListener>) {
            self.fds.clear();
            self.ids.clear();
            self.push(self.wake_rx.as_raw_fd(), POLLIN);
            if let Some(l) = listener {
                self.push(l.as_raw_fd(), POLLIN);
            }
        }

        /// Watch connection `id` for readability and/or writability; a
        /// connection that wants neither is left out.
        pub(crate) fn watch(&mut self, id: usize, stream: &Stream, read: bool, write: bool) {
            let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
            if events != 0 {
                self.push(stream.as_raw_fd(), events);
                self.ids.push(id);
            }
        }

        fn push(&mut self, fd: RawFd, events: c_short) {
            self.fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
        }

        /// Block until a watched descriptor is ready, the waker fires or
        /// `timeout` passes, then consume any pending wake-ups. A signal
        /// interrupting the wait counts as a wake-up.
        pub(crate) fn wait(&mut self, timeout: Duration) -> std::io::Result<()> {
            let ts = Timespec {
                tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
                tv_nsec: timeout.subsec_nanos() as c_long,
            };
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` `pollfd`s whose descriptors stay open for the
            // call; `ts` outlives it; a null sigmask keeps the thread's.
            let n = unsafe {
                ppoll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    &ts,
                    std::ptr::null(),
                )
            };
            if n < 0 {
                let e = std::io::Error::last_os_error();
                return if e.kind() == ErrorKind::Interrupted {
                    Ok(())
                } else {
                    Err(e)
                };
            }
            if self.fds[0].revents != 0 {
                let mut buf = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
            }
            Ok(())
        }

        /// Connections watched for reading that the last wait found
        /// readable, hung up or in error (a read tells which).
        pub(crate) fn readable(&self) -> impl Iterator<Item = usize> + '_ {
            let fixed = self.fds.len() - self.ids.len();
            self.fds[fixed..]
                .iter()
                .zip(&self.ids)
                .filter(|(f, _)| f.events & POLLIN != 0 && f.revents & !POLLOUT != 0)
                .map(|(_, &id)| id)
        }
    }
}

#[cfg(not(any(target_os = "linux", target_os = "android")))]
mod imp {
    use super::{Duration, Stream, TcpListener};

    /// Longest single sleep of the fallback wait.
    const TICK: Duration = Duration::from_micros(200);

    /// No wake socket off Linux: the bounded tick notices finished
    /// batches instead.
    #[derive(Clone)]
    pub(crate) struct Waker;

    impl Waker {
        pub(crate) fn wake(&self) {}
    }

    /// Fallback poller: sleeps one bounded tick and reports every
    /// connection watched for reading as readable.
    pub(crate) struct Poller {
        ids: Vec<usize>,
    }

    impl Poller {
        pub(crate) fn new() -> std::io::Result<Poller> {
            Ok(Poller { ids: Vec::new() })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker
        }

        pub(crate) fn begin(&mut self, _listener: Option<&TcpListener>) {
            self.ids.clear();
        }

        pub(crate) fn watch(&mut self, id: usize, _stream: &Stream, read: bool, _write: bool) {
            if read {
                self.ids.push(id);
            }
        }

        pub(crate) fn wait(&mut self, timeout: Duration) -> std::io::Result<()> {
            let sleep = timeout.min(TICK);
            if !sleep.is_zero() {
                std::thread::sleep(sleep);
            }
            Ok(())
        }

        pub(crate) fn readable(&self) -> impl Iterator<Item = usize> + '_ {
            self.ids.iter().copied()
        }
    }
}

#[cfg(all(test, any(target_os = "linux", target_os = "android")))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    #[test]
    fn wait_honours_a_sub_millisecond_timeout() {
        let mut p = Poller::new().unwrap();
        p.begin(None);
        let t = Instant::now();
        p.wait(Duration::from_micros(300)).unwrap();
        let waited = t.elapsed();
        assert!(
            waited >= Duration::from_micros(300),
            "returned early: {waited:?}"
        );
        assert!(waited < Duration::from_millis(50), "overslept: {waited:?}");
    }

    #[test]
    fn waker_ends_a_long_wait_and_is_consumed() {
        let mut p = Poller::new().unwrap();
        let waker = p.waker();
        let t = Instant::now();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        p.begin(None);
        p.wait(Duration::from_secs(10)).unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "the wake byte ended the wait"
        );
        h.join().unwrap();
        // Consumed: the next wait runs to its timeout.
        p.begin(None);
        let t = Instant::now();
        p.wait(Duration::from_millis(30)).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn readable_names_only_connections_with_input() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _quiet_client = TcpStream::connect(addr).unwrap();
        let quiet = Stream::Tcp(listener.accept().unwrap().0);
        let mut loud_client = TcpStream::connect(addr).unwrap();
        let loud = Stream::Tcp(listener.accept().unwrap().0);
        loud_client.write_all(b"x\n").unwrap();
        let mut p = Poller::new().unwrap();
        p.begin(Some(&listener));
        p.watch(7, &quiet, true, false);
        p.watch(9, &loud, true, false);
        p.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(p.readable().collect::<Vec<_>>(), vec![9]);
    }
}
