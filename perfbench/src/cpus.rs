//! Spreads a single-threaded client evenly over the CPUs the process may
//! run on.
//!
//! On a shared virtual machine each virtual CPU runs at its own speed,
//! which drifts with the load around it on the host. The
//! scheduler keeps an otherwise idle single thread on one CPU for long
//! stretches, so a single-threaded run would measure whichever CPU it
//! landed on. [`Rotation`] pins the calling thread to each allowed CPU
//! in turn, one round of operations at a time, so every run spends an
//! equal share of its time on every CPU. A round is long enough that the
//! one cold cache each move costs is a small part of it. The original
//! placement is restored on drop. Elsewhere than on Linux it does nothing.

/// Round-robin placement of the calling thread over its allowed CPUs.
pub struct Rotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
    next: usize,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The calling thread's allowed CPUs, or `None` where they cannot be read.
#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let status =
        unsafe { sys::sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (status == 0).then_some(set)
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

/// Restricts the calling thread to `set`; a failure leaves it where it was.
#[cfg(target_os = "linux")]
fn set(set: &CpuSet) {
    // SAFETY: `set` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe {
        sys::sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) {}

impl Rotation {
    /// A rotation over the calling thread's allowed CPUs.
    #[must_use]
    pub fn new() -> Self {
        let allowed = get().unwrap_or([0; 16]);
        let cpus = (0..1024)
            .filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        Rotation {
            allowed,
            cpus,
            next: 0,
        }
    }

    /// Moves the calling thread to the next allowed CPU in turn.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one);
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::new()
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            set(&self.allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rotation_visits_every_allowed_cpu_and_restores_the_placement() {
        let before = get();
        let mut rotation = Rotation::new();
        let mut visited: CpuSet = [0; 16];
        for _ in 0..rotation.cpus.len() {
            rotation.advance();
            if rotation.cpus.len() >= 2 {
                let now = get().expect("affinity readable after a move");
                assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
                for (seen, word) in visited.iter_mut().zip(now) {
                    *seen |= word;
                }
            }
        }
        if rotation.cpus.len() >= 2 {
            assert_eq!(Some(visited), before);
        }
        drop(rotation);
        assert_eq!(get(), before);
    }
}
