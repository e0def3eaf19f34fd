//! Classical bit-state simulation of reversible circuits.
//!
//! Reversible circuits over MPMCT gates permute classical basis states, so
//! simulation is exact bit manipulation — no amplitudes involved. States
//! over arbitrarily many lines are packed 64 lines per word, which keeps
//! simulation of the million-line hierarchical circuits of Table IV
//! tractable.

use crate::packed::PackedGate;

/// A classical assignment to the lines of a reversible circuit.
///
/// # Example
///
/// ```
/// use qda_rev::state::BitState;
///
/// let mut s = BitState::zeros(100);
/// s.set(70, true);
/// assert!(s.get(70));
/// assert!(!s.get(69));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitState {
    num_lines: usize,
    words: Vec<u64>,
}

impl BitState {
    /// The all-zero state on `num_lines` lines.
    pub fn zeros(num_lines: usize) -> Self {
        Self {
            num_lines,
            words: vec![0; num_lines.div_ceil(64).max(1)],
        }
    }

    /// Builds a state on `num_lines` lines from a ≤64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `x` has bits beyond `num_lines`.
    pub fn from_u64(num_lines: usize, x: u64) -> Self {
        if num_lines < 64 {
            assert!(x < (1u64 << num_lines), "value exceeds line count");
        }
        let mut s = Self::zeros(num_lines);
        s.words[0] = x;
        s
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Value of one line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn get(&self, line: usize) -> bool {
        assert!(line < self.num_lines, "line {line} out of range");
        (self.words[line >> 6] >> (line & 63)) & 1 == 1
    }

    /// Sets one line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn set(&mut self, line: usize, value: bool) {
        assert!(line < self.num_lines, "line {line} out of range");
        if value {
            self.words[line >> 6] |= 1 << (line & 63);
        } else {
            self.words[line >> 6] &= !(1 << (line & 63));
        }
    }

    /// Flips one line.
    pub fn flip(&mut self, line: usize) {
        assert!(line < self.num_lines, "line {line} out of range");
        self.words[line >> 6] ^= 1 << (line & 63);
    }

    /// Applies one packed gate in place: the firing test is a masked
    /// compare over the state words (`(state ^ pol) & ctrl == 0` per
    /// word) instead of a per-control loop.
    ///
    /// # Panics
    ///
    /// Panics if the gate's target is out of range.
    pub fn apply_packed(&mut self, gate: &PackedGate<'_>) {
        if gate.fires_words(&self.words) {
            self.flip(gate.target());
        }
    }

    /// Reads an unsigned integer from a slice of lines
    /// (`lines[0]` = least-significant bit).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 lines are requested.
    pub fn read_register(&self, lines: &[usize]) -> u64 {
        assert!(lines.len() <= 64, "register too wide");
        lines
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &l)| acc | (u64::from(self.get(l)) << i))
    }

    /// Writes an unsigned integer to a slice of lines.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 lines are addressed.
    pub fn write_register(&mut self, lines: &[usize], value: u64) {
        assert!(lines.len() <= 64, "register too wide");
        for (i, &l) in lines.iter().enumerate() {
            self.set(l, (value >> i) & 1 == 1);
        }
    }

    /// The state as a ≤64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if the state has more than 64 lines.
    pub fn to_u64(&self) -> u64 {
        assert!(self.num_lines <= 64, "state too wide for u64");
        self.words[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Control, Gate};
    use crate::packed::PackedGateBuf;

    #[test]
    fn round_trip_u64() {
        let s = BitState::from_u64(10, 0b1010011);
        assert_eq!(s.to_u64(), 0b1010011);
    }

    #[test]
    fn wide_states() {
        let mut s = BitState::zeros(200);
        s.set(0, true);
        s.set(64, true);
        s.set(199, true);
        assert!(s.get(0) && s.get(64) && s.get(199));
        assert!(!s.get(128));
        s.flip(64);
        assert!(!s.get(64));
    }

    #[test]
    fn gate_application_beyond_word_boundary() {
        let mut s = BitState::zeros(130);
        s.set(100, true);
        let g = PackedGateBuf::from_gate(&Gate::mct(vec![Control::positive(100)], 129));
        s.apply_packed(&g.view());
        assert!(s.get(129));
        let h = PackedGateBuf::from_gate(&Gate::mct(vec![Control::negative(100)], 128));
        s.apply_packed(&h.view());
        assert!(!s.get(128));
    }

    #[test]
    fn register_io() {
        let mut s = BitState::zeros(100);
        let reg: Vec<usize> = (90..98).collect();
        s.write_register(&reg, 0xA5);
        assert_eq!(s.read_register(&reg), 0xA5);
        // Scattered register.
        let scattered = [3usize, 70, 5, 99];
        s.write_register(&scattered, 0b1011);
        assert_eq!(s.read_register(&scattered), 0b1011);
        assert!(s.get(3) && s.get(70) && !s.get(5) && s.get(99));
    }
}
