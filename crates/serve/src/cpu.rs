//! Keeping a connection worker on its client's CPU.
//!
//! A `/predict` client and the worker answering it take turns: the client
//! writes a request and waits, the worker answers and waits. When the two
//! run on one CPU every hand-off is a wake-up on that CPU. When they run on
//! two, every request and every answer crosses between the CPUs, and each
//! CPU idles while the other side works. The kernel wakes a sleeping thread
//! on the CPU it last ran on, so a worker stays wherever it happened to
//! sleep; on the 2-vCPU benchmark host a saturated round of two
//! connections ran at 45–65k req/s with the pairs split and 100–135k with
//! each pair on one CPU, and which one a round got was chance
//! (DESIGN.md §14).
//!
//! [`follow`] moves the calling thread to the CPU the kernel received the
//! connection's latest bytes on (`SO_INCOMING_CPU`). For a loopback
//! connection that is the CPU the client sent them from; for a remote one
//! it is the CPU that took the network interrupt, which many connections
//! can share, so the server calls it for loopback peers only. The move is
//! one migration, not a pin: the thread's affinity mask is restored at
//! once, and the scheduler stays free to place the thread. On targets
//! other than Linux on x86-64 or AArch64 it does nothing.

use std::net::TcpStream;

/// Moves the calling thread to the CPU `stream`'s latest bytes arrived
/// on, if that is another CPU this thread may run on. Any failure leaves
/// the thread where it is.
pub(crate) fn follow(stream: &TcpStream) {
    imp::follow(stream);
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::ffi::{c_int, c_void};
    use std::mem::size_of;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    const SOL_SOCKET: c_int = 1;
    const SO_INCOMING_CPU: c_int = 49;

    /// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
    pub(super) type CpuSet = [u64; 16];

    extern "C" {
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The CPU `stream`'s latest bytes arrived on, if the kernel knows.
    pub(super) fn incoming(stream: &TcpStream) -> Option<usize> {
        let mut cpu: c_int = -1;
        let mut len = size_of::<c_int>() as u32;
        // SAFETY: `cpu` and `len` live across the call and `len` holds
        // `cpu`'s size, so the kernel writes at most that many bytes.
        let rc = unsafe {
            getsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_INCOMING_CPU,
                (&mut cpu as *mut c_int).cast(),
                &mut len,
            )
        };
        (rc == 0)
            .then_some(cpu)
            .and_then(|c| usize::try_from(c).ok())
    }

    /// The calling thread's affinity mask.
    pub(super) fn allowed() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a `cpu_set_t`-sized buffer; pid 0 names the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    fn set_allowed(mask: &CpuSet) -> bool {
        // SAFETY: as in `allowed`; the kernel only reads the mask.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) == 0 }
    }

    pub(super) fn follow(stream: &TcpStream) {
        let Some(cpu) = incoming(stream) else { return };
        // SAFETY: no arguments; returns -1 on failure.
        let Ok(here) = usize::try_from(unsafe { sched_getcpu() }) else {
            return;
        };
        if here == cpu || cpu >= 16 * 64 {
            return;
        }
        let Some(mask) = allowed() else { return };
        let (word, bit) = (cpu / 64, 1u64 << (cpu % 64));
        if mask[word] & bit == 0 {
            return;
        }
        let mut only: CpuSet = [0; 16];
        only[word] = bit;
        // Narrowing the mask to one CPU migrates the thread there before
        // the call returns; widening it again leaves the thread in place.
        if set_allowed(&only) {
            set_allowed(&mask);
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn follow(_: &std::net::TcpStream) {}
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A loopback connection reports the CPU its bytes arrived on, and
    /// following it leaves the thread's affinity mask as it was.
    #[test]
    fn follow_restores_the_affinity_mask() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (mut server, _) = l.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        server.read_exact(&mut got).unwrap();
        assert!(
            imp::incoming(&server).is_some(),
            "loopback bytes have an incoming CPU"
        );
        let before = imp::allowed().unwrap();
        follow(&server);
        assert_eq!(imp::allowed().unwrap(), before);
    }
}
