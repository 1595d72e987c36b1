//! The Arduino boards of the rig: slaves that own an SRAM, masters that
//! collect from them.

use crate::i2c::{Address, I2cBus, TransferError};
use pufbits::BitVec;
use rand::Rng;
use sramaging::{AgingSimulator, StressConditions};
use sramcell::{Environment, PowerUpKernel, SramArray, TechnologyProfile};
use std::fmt;

/// Identifier of a board in the rig (the paper's S0–S7 on layer 0 and
/// S16–S23 on layer 1; masters are M0 and M1).
///
/// # Examples
///
/// ```
/// let id = puftestbed::BoardId(3);
/// assert_eq!(id.to_string(), "S3");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoardId(pub u8);

impl fmt::Display for BoardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One slave board: an ATmega32u4 whose SRAM is the device under test.
///
/// The slave owns the full 2.5 KB array but only transmits the first
/// `read_bits` (the paper reads 1 KB = 8 192 bits), and carries its own
/// aging state so devices age independently.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use puftestbed::{BoardId, SlaveBoard};
/// use sramcell::TechnologyProfile;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let profile = TechnologyProfile::atmega32u4();
/// let mut board = SlaveBoard::new(BoardId(0), &profile, 2048, 1024, &mut rng);
/// let readout = board.power_cycle(&mut rng);
/// assert_eq!(readout.len(), 1024);
/// assert_eq!(board.cycles_completed(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlaveBoard {
    id: BoardId,
    sram: SramArray,
    aging: AgingSimulator,
    env: Environment,
    read_bits: usize,
    cycles_completed: u64,
}

impl SlaveBoard {
    /// Manufactures a slave board with a fresh SRAM of `sram_bits` cells, of
    /// which `read_bits` are read out per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `read_bits == 0` or `read_bits > sram_bits`.
    pub fn new<R: Rng + ?Sized>(
        id: BoardId,
        profile: &TechnologyProfile,
        sram_bits: usize,
        read_bits: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            read_bits > 0 && read_bits <= sram_bits,
            "read window {read_bits} invalid for SRAM of {sram_bits} bits"
        );
        Self {
            id,
            sram: SramArray::generate(profile, sram_bits, rng),
            aging: AgingSimulator::new(profile, StressConditions::paper_campaign(profile)),
            env: Environment::nominal(profile),
            read_bits,
            cycles_completed: 0,
        }
    }

    /// Board identifier.
    pub fn id(&self) -> BoardId {
        self.id
    }

    /// Read window width in bits.
    pub fn read_bits(&self) -> usize {
        self.read_bits
    }

    /// Power cycles performed (measured read-outs).
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// The device under test.
    pub fn sram(&self) -> &SramArray {
        &self.sram
    }

    /// The aging state.
    pub fn aging(&self) -> &AgingSimulator {
        &self.aging
    }

    /// Sets the operating environment: affects both the read-out noise and
    /// the BTI stress acceleration (the power-cycle duty is preserved).
    pub fn set_environment(&mut self, env: Environment) {
        self.env = env;
        let duty = self.aging.conditions().duty_on_fraction;
        self.aging.set_conditions(StressConditions::new(duty, env));
    }

    /// Performs one power cycle: powers the SRAM and captures the power-up
    /// pattern of the read window.
    pub fn power_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) -> BitVec {
        self.cycles_completed += 1;
        self.sram.power_up(&self.env, rng).prefix(self.read_bits)
    }

    /// Performs one power cycle through a batched [`PowerUpKernel`] — the
    /// campaign engine's fast path. Samples noise only for the read window
    /// instead of the whole array, and reuses the kernel's cached
    /// thresholds across cycles (aging invalidates them via the array's
    /// epoch). The kernel must be dedicated to this board.
    pub fn power_cycle_with<R: Rng + ?Sized>(
        &mut self,
        kernel: &mut PowerUpKernel,
        rng: &mut R,
    ) -> BitVec {
        self.cycles_completed += 1;
        kernel.power_up_prefix(&self.sram, &self.env, self.read_bits, rng)
    }

    /// Ages the board by `wall_years` of rig operation (the stress schedule
    /// is the paper's duty cycle at the board's environment).
    pub fn age(&mut self, wall_years: f64, substeps: u32) {
        self.aging.advance(&mut self.sram, wall_years, substeps);
    }

    /// Resets the power-cycle counter — how a campaign resume restores the
    /// one piece of board state that re-manufacture and aging replay do
    /// not re-derive.
    pub(crate) fn restore_cycles_completed(&mut self, cycles: u64) {
        self.cycles_completed = cycles;
    }
}

/// A master board: owns an I2C bus segment and collects read-outs from its
/// slaves, as M0 and M1 do in the paper's Algorithm 1.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use puftestbed::{BoardId, MasterBoard, SlaveBoard};
/// use sramcell::TechnologyProfile;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(6);
/// let profile = TechnologyProfile::atmega32u4();
/// let slave = SlaveBoard::new(BoardId(0), &profile, 512, 512, &mut rng);
/// let mut master = MasterBoard::new("M0", vec![slave]);
/// let readouts = master.collect_cycle(&mut rng)?;
/// assert_eq!(readouts.len(), 1);
/// assert_eq!(readouts[0].1.len(), 512);
/// # Ok::<(), puftestbed::i2c::TransferError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MasterBoard {
    name: String,
    slaves: Vec<SlaveBoard>,
    bus: I2cBus,
}

impl MasterBoard {
    /// Creates a master controlling `slaves` over an ideal bus.
    pub fn new(name: &str, slaves: Vec<SlaveBoard>) -> Self {
        Self::with_bus(name, slaves, I2cBus::ideal())
    }

    /// Creates a master with an explicit (possibly faulty) bus.
    pub fn with_bus(name: &str, slaves: Vec<SlaveBoard>, bus: I2cBus) -> Self {
        Self {
            name: name.to_string(),
            slaves,
            bus,
        }
    }

    /// Master name (`"M0"`, `"M1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The slaves under this master.
    pub fn slaves(&self) -> &[SlaveBoard] {
        &self.slaves
    }

    /// Mutable access to the slaves (aging, environment changes).
    pub fn slaves_mut(&mut self) -> &mut [SlaveBoard] {
        &mut self.slaves
    }

    /// Bus statistics.
    pub fn bus(&self) -> &I2cBus {
        &self.bus
    }

    /// I2C address assigned to slave index `i` (0x10 + i, as a rig would).
    fn slave_address(i: usize) -> Address {
        Address::new(0x10 + u8::try_from(i).expect("slave index fits u8"))
            .expect("slave addresses stay in the valid range")
    }

    /// Runs one collection cycle: every slave powers up, reads out, and
    /// ships its pattern to the master over I2C. Returns `(id, readout)`
    /// pairs in slave order.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransferError`] if the bus is faulty; the
    /// campaign layer decides whether to retry.
    pub fn collect_cycle<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<Vec<(BoardId, BitVec)>, TransferError> {
        let mut out = Vec::with_capacity(self.slaves.len());
        let mut bytes = Vec::new();
        for i in 0..self.slaves.len() {
            let readout = self.slaves[i].power_cycle(rng);
            bytes.clear();
            readout.to_bytes_into(&mut bytes);
            let received = self.bus.transfer(Self::slave_address(i), &bytes, rng)?;
            out.push((
                self.slaves[i].id(),
                BitVec::from_bytes_with_len(&received, readout.len()),
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> TechnologyProfile {
        TechnologyProfile::atmega32u4()
    }

    #[test]
    fn read_window_is_a_prefix_of_the_sram() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut board = SlaveBoard::new(BoardId(1), &profile(), 2048, 512, &mut rng);
        let r = board.power_cycle(&mut rng);
        assert_eq!(r.len(), 512);
        assert_eq!(board.sram().len(), 2048);
    }

    #[test]
    fn aging_affects_subsequent_readouts() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut board = SlaveBoard::new(BoardId(2), &profile(), 4096, 4096, &mut rng);
        let before = board.sram().clone();
        board.age(2.0, 24);
        assert_ne!(before, *board.sram());
        assert!(board.aging().stress_age_years() > 1.0);
    }

    #[test]
    fn master_collects_from_all_slaves_in_order() {
        let mut rng = StdRng::seed_from_u64(32);
        let slaves: Vec<SlaveBoard> = (0..8)
            .map(|i| SlaveBoard::new(BoardId(i), &profile(), 256, 256, &mut rng))
            .collect();
        let mut master = MasterBoard::new("M0", slaves);
        let readouts = master.collect_cycle(&mut rng).unwrap();
        assert_eq!(readouts.len(), 8);
        for (i, (id, bits)) in readouts.iter().enumerate() {
            assert_eq!(*id, BoardId(i as u8));
            assert_eq!(bits.len(), 256);
        }
        assert_eq!(master.bus().transactions(), 8);
        assert_eq!(master.bus().bytes_moved(), 8 * 32);
    }

    #[test]
    fn transport_preserves_readout_bits() {
        let mut rng = StdRng::seed_from_u64(33);
        let slave = SlaveBoard::new(BoardId(0), &profile(), 1000, 1000, &mut rng);
        // 1000 bits is not byte-aligned: transport must round-trip exactly.
        let mut master = MasterBoard::new("M0", vec![slave]);
        // Compare against a directly captured pattern using a cloned RNG.
        let mut rng_direct = rng.clone();
        let mut slave_copy = master.slaves()[0].clone();
        let direct = slave_copy.power_cycle(&mut rng_direct);
        let collected = master.collect_cycle(&mut rng).unwrap();
        assert_eq!(collected[0].1, direct);
    }

    #[test]
    fn faulty_bus_surfaces_errors() {
        let mut rng = StdRng::seed_from_u64(34);
        let slave = SlaveBoard::new(BoardId(0), &profile(), 128, 128, &mut rng);
        let mut master = MasterBoard::with_bus("M0", vec![slave], I2cBus::with_faults(1.0, 0.0));
        assert!(master.collect_cycle(&mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "read window")]
    fn oversized_read_window_rejected() {
        let mut rng = StdRng::seed_from_u64(35);
        SlaveBoard::new(BoardId(0), &profile(), 100, 200, &mut rng);
    }
}
