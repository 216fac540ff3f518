//! Per-cycle cache-port budgeting.
//!
//! The paper's load-execution bandwidth comes from a 2-way interleaved data cache (two
//! loads per cycle, one per bank), while store retirement and load re-execution share a
//! *single* read/write port — the contention SVW exists to relieve. These two tiny
//! budget trackers model exactly that.

use svw_isa::Addr;

/// A set of address-interleaved, single-access-per-cycle cache banks (the load
/// execution ports).
#[derive(Clone, Debug)]
pub struct BankedPorts {
    line_bytes: u64,
    banks: usize,
    /// Cycle number each bank was last used in.
    last_used: Vec<u64>,
}

impl BankedPorts {
    /// Creates `banks` banks interleaved at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or `line_bytes` is zero.
    pub fn new(banks: usize, line_bytes: u64) -> Self {
        let mut ports = BankedPorts {
            line_bytes,
            banks,
            last_used: Vec::new(),
        };
        ports.reset(banks, line_bytes);
        ports
    }

    /// Restores the all-banks-idle state for the given geometry, reusing the per-bank
    /// bookkeeping storage.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two or `line_bytes` is zero.
    pub fn reset(&mut self, banks: usize, line_bytes: u64) {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert!(line_bytes > 0, "interleave granularity must be non-zero");
        self.line_bytes = line_bytes;
        self.banks = banks;
        self.last_used.clear();
        self.last_used.resize(banks, u64::MAX);
    }

    /// The bank an address maps to.
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((addr / self.line_bytes) as usize) & (self.banks - 1)
    }

    /// Whether the bank for `addr` is still free during `cycle`.
    #[inline]
    pub fn is_free(&self, addr: Addr, cycle: u64) -> bool {
        self.last_used[self.bank_of(addr)] != cycle
    }

    /// Attempts to use the bank for `addr` during `cycle`. Returns `true` (and marks
    /// the bank busy for that cycle) if it was free.
    pub fn try_use(&mut self, addr: Addr, cycle: u64) -> bool {
        if !self.is_free(addr, cycle) {
            return false;
        }
        let b = self.bank_of(addr);
        self.last_used[b] = cycle;
        true
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }
}

/// A single structural resource usable by at most one requester per cycle, with the
/// caller responsible for offering it to requesters in priority order (the simulator
/// offers store commit first, then load re-execution, as the paper specifies).
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedPort {
    last_used: Option<u64>,
    uses: u64,
    conflicts: u64,
}

impl SharedPort {
    /// Creates an idle port.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the idle state (no uses, no conflicts).
    pub fn reset(&mut self) {
        *self = SharedPort::default();
    }

    /// Returns `true` if the port is free during `cycle`.
    pub fn is_free(&self, cycle: u64) -> bool {
        self.last_used != Some(cycle)
    }

    /// Attempts to acquire the port for `cycle`. Returns `true` on success.
    pub fn try_acquire(&mut self, cycle: u64) -> bool {
        if self.is_free(cycle) {
            self.last_used = Some(cycle);
            self.uses += 1;
            true
        } else {
            self.conflicts += 1;
            false
        }
    }

    /// Total successful acquisitions.
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// Total rejected acquisitions (a measure of port contention).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banked_ports_allow_one_access_per_bank_per_cycle() {
        let mut p = BankedPorts::new(2, 64);
        // 0x000 and 0x040 are adjacent lines → different banks.
        assert_ne!(p.bank_of(0x000), p.bank_of(0x040));
        assert!(p.try_use(0x000, 1));
        assert!(p.try_use(0x040, 1));
        // Same bank again in the same cycle: rejected.
        assert!(!p.is_free(0x080, 1));
        assert!(!p.try_use(0x080, 1));
        // Next cycle it frees up.
        assert!(p.is_free(0x080, 2));
        assert!(p.try_use(0x080, 2));
    }

    #[test]
    fn shared_port_single_use_per_cycle() {
        let mut p = SharedPort::new();
        assert!(p.is_free(5));
        assert!(p.try_acquire(5));
        assert!(!p.is_free(5));
        assert!(!p.try_acquire(5));
        assert!(p.try_acquire(6));
        assert_eq!(p.uses(), 2);
        assert_eq!(p.conflicts(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bank_count_panics() {
        let _ = BankedPorts::new(3, 64);
    }
}
