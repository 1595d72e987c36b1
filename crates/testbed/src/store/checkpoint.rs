//! `pufchk/2`: the versioned binary campaign-checkpoint format.
//!
//! A checkpoint stores only what the `(config, seed)` pair does not
//! determine. Every board is manufactured from its own
//! [`board_stream_seed`](crate::board_stream_seed) stream and aging draws no
//! random numbers, so a board's cells and stress age at window `N` are a
//! pure function of `(config, seed, N)`. What remains is the scheduler
//! position, the summary counters and, per board, the RNG stream, the bus
//! counters, the power-cycle count and a 64-bit digest of the device state.
//! [`Campaign::resume`] re-manufactures the boards, replays the aging of
//! windows `0..next_window`, checks each board against its digest and then
//! restores the rest: the record stream of an interrupted-then-resumed run
//! is byte-identical to the uninterrupted run.
//!
//! # Wire format
//!
//! Same framing discipline as [`pufrec/1`](super::binary): magic, version,
//! explicit length, CRC-32 (shared [`crc32`] implementation). All integers
//! little-endian.
//!
//! ```text
//! offset  size  field
//! 0       6     magic "pufchk"
//! 6       2     version (u16, = 2)
//! 8       8     body length in bytes (u64)
//! 16      n     body
//! 16+n    4     CRC-32 (IEEE) over the body
//! ```
//!
//! Body layout (52 bytes, then 57 per board):
//!
//! ```text
//! config_hash u64 · seed u64 · next_window u32
//! summary { windows u32 · records u64 · dropped u64 · retries u64 }
//! board_count u32
//! per board:
//!   id u8 · cycles_completed u64
//!   rng { key u64 · counter u64 }
//!   bus { transactions u64 · failures u64 · bytes_moved u64 }
//!   state_digest u64
//! ```
//!
//! Decoding is strict: bad magic, an unsupported version (`pufchk/1` files
//! included), a truncated body, a CRC mismatch, or a board count that does
//! not match the body length are all typed [`CheckpointError`]s — a
//! checkpoint never half-loads.
//!
//! [`Campaign::resume`]: crate::Campaign::resume

use super::binary::crc32;
use crate::board::SlaveBoard;
use crate::campaign::{CampaignConfig, CampaignSummary, MeasurementPlan};
use crate::i2c::BusStats;
use crate::BoardId;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 6] = *b"pufchk";

/// Format version this module reads and writes.
pub const VERSION: u16 = 2;

/// Header length in bytes (magic + version + body length).
pub const HEADER_LEN: usize = 16;

/// Body bytes before the first board.
const BODY_FIXED: usize = 52;

/// Body bytes per board.
const BOARD_LEN: usize = 57;

/// Sanity cap on the declared body length: board ids are `u8`, so the
/// largest real body is `52 + 57 × 256` bytes.
const MAX_BODY: u64 = 1 << 16;

/// The complete serializable state of a campaign at a window boundary.
///
/// `config_hash` binds the state to the `(config, seed)` pair that produced
/// it; [`Campaign::resume`](crate::Campaign::resume) refuses a state whose
/// hash does not match the configuration it is given.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// Hash of the producing `(config, seed)` pair ([`config_hash`]).
    pub config_hash: u64,
    /// The campaign seed (also covered by the hash; kept readable for
    /// diagnostics).
    pub seed: u64,
    /// Index of the next evaluation window to execute (months are 0-based;
    /// `months + 1` means the campaign completed).
    pub next_window: u32,
    /// Summary counters accumulated so far.
    pub summary: CampaignSummary,
    /// Per-board states, in board-id order.
    pub boards: Vec<BoardState>,
}

/// One board's slice of a [`CampaignState`]: what re-manufacture and aging
/// replay cannot re-derive, plus a digest of what they can.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardState {
    /// The board's identity.
    pub id: BoardId,
    /// Power cycles performed so far.
    pub cycles_completed: u64,
    /// The shard RNG stream as `(key, counter)` ([`pufbits::PufRng`]).
    pub rng: (u64, u64),
    /// The shard's I2C bus counters.
    pub bus: BusStats,
    /// FNV-1a 64 digest of the board's cell mismatches and stress age; a
    /// resume whose replay lands anywhere else is refused.
    pub state_digest: u64,
}

/// Error reading, validating, or resuming from a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The bytes are not a well-formed `pufchk` checkpoint (bad magic,
    /// truncation, implausible length, CRC mismatch, non-finite floats).
    Corrupt(String),
    /// The file is a `pufchk` checkpoint of a version this build does not
    /// read.
    UnsupportedVersion(u16),
    /// The checkpoint was produced by a different `(config, seed)` pair
    /// than the resume attempt supplies.
    ConfigMismatch {
        /// Hash of the configuration the resume supplied.
        expected: u64,
        /// Hash stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint passed its CRC but does not fit the configuration:
    /// wrong board count or ids, a window index out of range, or a board
    /// whose replayed device state does not match its digest.
    StateMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config mismatch: resume config/seed hash to {expected:016x}, \
                 checkpoint was produced under {found:016x} — refusing to resume"
            ),
            CheckpointError::StateMismatch(msg) => {
                write!(f, "checkpoint state mismatch: {msg}")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

/// FNV-1a 64-bit hash of the complete `(config, seed)` pair.
///
/// Every field of [`CampaignConfig`] — including every field of the
/// technology profile and the optional environment — feeds the hash as
/// canonical little-endian bytes, so *any* configuration difference
/// (a changed fault rate, one more month, a recalibrated profile) makes a
/// resume attempt fail loudly instead of silently splicing incompatible
/// record streams.
///
/// The domain tag's version changes whenever the same `(config, seed)`
/// would simulate a different stream or the hashed fields change: `/2`
/// marked the exact Bernoulli power-up sampler, `/3` the removal of the
/// bus-level fault rates (transport faults come only from the
/// [`FaultPlan`](crate::FaultPlan)).
pub fn config_hash(config: &CampaignConfig, seed: u64) -> u64 {
    let mut h = Fnv::new();
    h.bytes(b"pufchk-config/3");
    h.u64(seed);
    h.u64(config.boards as u64);
    h.u64(config.sram_bits as u64);
    h.u64(config.read_bits as u64);
    let p = &config.profile;
    h.bytes(p.name.as_bytes());
    h.u64(p.name.len() as u64);
    h.u64(u64::from(p.node_nm));
    h.f64(p.vdd_v);
    h.f64(p.temp_c);
    h.f64(p.population.mu);
    h.f64(p.population.sigma);
    h.f64(p.noise_temp_coeff);
    h.f64(p.noise_ramp_coeff);
    h.f64(p.ramp_us);
    h.f64(p.bti_prefactor);
    h.f64(p.bti_exponent);
    h.f64(p.bti_activation_ev);
    h.f64(p.bti_voltage_gamma);
    h.f64(p.device_bias_sigma);
    h.f64(p.bti_bias_ratio);
    match config.environment {
        None => h.u64(0),
        Some(env) => {
            h.u64(1);
            h.f64(env.temp_c);
            h.f64(env.vdd_v);
            h.f64(env.ramp_us);
        }
    }
    h.u64(i64::from(config.start.year) as u64);
    h.u64(u64::from(config.start.month));
    h.u64(u64::from(config.start.day));
    h.u64(u64::from(config.months));
    h.u64(u64::from(config.reads_per_window));
    h.u64(match config.plan {
        MeasurementPlan::Windowed => 0,
        MeasurementPlan::Continuous => 1,
    });
    h.u64(u64::from(config.aging_substeps_per_month));
    h.u64(u64::from(config.i2c_retries));
    // A fault plan only feeds the hash when it schedules something; a
    // resume under a *changed* plan is refused because a non-empty plan
    // perturbs the hash.
    if !config.faults.is_empty() {
        h.bytes(b"faults");
        h.u64(config.faults.stable_hash());
    }
    h.finish()
}

/// FNV-1a 64 over a canonical byte stream.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over a board's evolving device state: every cell's mismatch
/// bits, in cell order, then the accumulated stress-age bits. The one
/// definition both [`Campaign::export_state`](crate::Campaign::export_state)
/// and [`Campaign::resume`](crate::Campaign::resume) use.
pub(crate) fn state_digest(board: &SlaveBoard) -> u64 {
    let mut h = Fnv::new();
    for cell in board.sram().cells() {
        h.f64(cell.mismatch());
    }
    h.f64(board.aging().stress_age_years());
    h.finish()
}

/// Encodes a campaign state into complete `pufchk/2` file bytes.
pub fn encode(state: &CampaignState) -> Vec<u8> {
    let mut body = Vec::with_capacity(BODY_FIXED + state.boards.len() * BOARD_LEN);
    body.extend_from_slice(&state.config_hash.to_le_bytes());
    body.extend_from_slice(&state.seed.to_le_bytes());
    body.extend_from_slice(&state.next_window.to_le_bytes());
    body.extend_from_slice(&state.summary.windows.to_le_bytes());
    body.extend_from_slice(&state.summary.records.to_le_bytes());
    body.extend_from_slice(&state.summary.dropped.to_le_bytes());
    body.extend_from_slice(&state.summary.retries.to_le_bytes());
    body.extend_from_slice(
        &(u32::try_from(state.boards.len()).expect("board count fits u32")).to_le_bytes(),
    );
    for b in &state.boards {
        body.push(b.id.0);
        body.extend_from_slice(&b.cycles_completed.to_le_bytes());
        body.extend_from_slice(&b.rng.0.to_le_bytes());
        body.extend_from_slice(&b.rng.1.to_le_bytes());
        body.extend_from_slice(&b.bus.transactions.to_le_bytes());
        body.extend_from_slice(&b.bus.failures.to_le_bytes());
        body.extend_from_slice(&b.bus.bytes_moved.to_le_bytes());
        body.extend_from_slice(&b.state_digest.to_le_bytes());
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Strict cursor over the checkpoint body: every read is bounds-checked and
/// a short read is a typed truncation error.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(CheckpointError::Corrupt(format!(
                "body truncated: needed {n} bytes at offset {}, body is {} bytes",
                self.pos,
                self.bytes.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Decodes complete `pufchk/2` file bytes into a campaign state.
///
/// # Errors
///
/// Returns [`CheckpointError::Corrupt`] on bad magic, truncation,
/// implausible lengths, a CRC mismatch, or a board count the body length
/// does not match, and [`CheckpointError::UnsupportedVersion`] on a
/// version this build does not read (`pufchk/1` included). Never returns a
/// partial state.
pub fn decode(bytes: &[u8]) -> Result<CampaignState, CheckpointError> {
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Corrupt(format!(
            "file too short for a header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..6] != MAGIC {
        return Err(CheckpointError::Corrupt(
            "bad magic (not a pufchk file)".into(),
        ));
    }
    let version = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let body_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if body_len > MAX_BODY {
        return Err(CheckpointError::Corrupt(format!(
            "implausible body length {body_len}"
        )));
    }
    let body_len = body_len as usize;
    let expected_total = HEADER_LEN + body_len + 4;
    if bytes.len() != expected_total {
        return Err(CheckpointError::Corrupt(format!(
            "file is {} bytes, header declares {expected_total}",
            bytes.len()
        )));
    }
    let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
    let stored_crc =
        u32::from_le_bytes(bytes[HEADER_LEN + body_len..].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored_crc != computed {
        return Err(CheckpointError::Corrupt(format!(
            "crc mismatch: stored {stored_crc:08x}, computed {computed:08x}"
        )));
    }

    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let config_hash = c.u64()?;
    let seed = c.u64()?;
    let next_window = c.u32()?;
    let summary = CampaignSummary {
        windows: c.u32()?,
        records: c.u64()?,
        dropped: c.u64()?,
        retries: c.u64()?,
    };
    let board_count = c.u32()?;
    // Boards are fixed-size, so the count must account for the rest of
    // the body exactly — checked before anything is allocated for them.
    if u64::from(board_count) * BOARD_LEN as u64 != (body.len() - c.pos) as u64 {
        return Err(CheckpointError::Corrupt(format!(
            "board count {board_count} does not match the {} body bytes after the header fields",
            body.len() - c.pos
        )));
    }
    let mut boards = Vec::with_capacity(board_count as usize);
    for _ in 0..board_count {
        boards.push(BoardState {
            id: BoardId(c.u8()?),
            cycles_completed: c.u64()?,
            rng: (c.u64()?, c.u64()?),
            bus: BusStats {
                transactions: c.u64()?,
                failures: c.u64()?,
                bytes_moved: c.u64()?,
            },
            state_digest: c.u64()?,
        });
    }
    Ok(CampaignState {
        config_hash,
        seed,
        next_window,
        summary,
        boards,
    })
}

/// Writes a checkpoint file atomically (temp-file-then-rename, synced):
/// an interrupted write leaves the previous checkpoint — or nothing —
/// under `path`, never a torn file. Returns the bytes written.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn write_file(path: &Path, state: &CampaignState) -> Result<u64, CheckpointError> {
    write_file_with(path, state, None)
}

/// [`write_file`] with the I/O routed through an optional
/// [`IoPolicy`](super::IoPolicy) — how checkpoint writes come under the
/// store's deterministic fault injection. A torn or unrenamed checkpoint
/// write is harmless by construction: the atomic write either publishes a
/// complete, CRC-valid file or leaves the previous generation in place.
///
/// # Errors
///
/// As [`write_file`], plus any injected fault.
pub fn write_file_with(
    path: &Path,
    state: &CampaignState,
    policy: Option<super::IoPolicy>,
) -> Result<u64, CheckpointError> {
    let bytes = encode(state);
    let mut file = super::AtomicFile::create_with(path, policy)?;
    file.write_all(&bytes)?;
    file.persist()?;
    Ok(bytes.len() as u64)
}

/// The on-disk path of checkpoint generation `generation` rotated out of
/// `path`: generation 0 is `path` itself (the newest), older generations
/// are `<path>.1`, `<path>.2`, …
pub fn generation_path(path: &Path, generation: u32) -> std::path::PathBuf {
    if generation == 0 {
        return path.to_path_buf();
    }
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{generation}"));
    std::path::PathBuf::from(name)
}

/// Rotates existing checkpoint generations down one slot ahead of a new
/// write (`path` → `<path>.1` → … → `<path>.{keep-1}`), best-effort: a
/// failed rename only costs an *old* generation, never the one about to
/// be written, so errors are deliberately swallowed. `keep <= 1` is a
/// no-op.
pub fn rotate_generations(path: &Path, keep: u32) {
    for generation in (0..keep.saturating_sub(1)).rev() {
        let from = generation_path(path, generation);
        if from.exists() {
            let _ = fs::rename(&from, generation_path(path, generation + 1));
        }
    }
}

/// Reads and fully validates a checkpoint file.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] if the file cannot be read, or the
/// decoding errors of [`decode`].
pub fn read_file(path: &Path) -> Result<CampaignState, CheckpointError> {
    decode(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> CampaignState {
        let boards = (0..3u8)
            .map(|i| BoardState {
                id: BoardId(i),
                cycles_completed: 1000 + u64::from(i),
                rng: (0xDEAD_BEEF + u64::from(i), 42),
                bus: BusStats {
                    transactions: 5000,
                    failures: 3,
                    bytes_moved: 640_000,
                },
                state_digest: 0x0F0E_0D0C_0B0A_0908 ^ u64::from(i),
            })
            .collect();
        CampaignState {
            config_hash: 0x0123_4567_89AB_CDEF,
            seed: 2017,
            next_window: 7,
            summary: CampaignSummary {
                windows: 7,
                records: 21_000,
                dropped: 12,
                retries: 30,
            },
            boards,
        }
    }

    /// Frames `body` as a checkpoint of `version` with a valid CRC.
    fn framed(version: u16, body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let state = sample_state();
        let bytes = encode(&state);
        assert_eq!(bytes[..6], MAGIC);
        assert_eq!(
            bytes.len(),
            HEADER_LEN + BODY_FIXED + state.boards.len() * BOARD_LEN + 4
        );
        assert_eq!(decode(&bytes).unwrap(), state);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = encode(&sample_state());
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&sample_state());
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "truncation at {len} accepted"
            );
        }
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let mut bytes = encode(&sample_state());
        bytes[6..8].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn pufchk_1_file_is_an_unsupported_version() {
        // A one-board `pufchk/1` body: the old fixed fields (with the sim
        // clock), then the board with its stress age and four cells.
        let mut body = Vec::new();
        for word in [0x0123_4567_89AB_CDEFu64, 2017, 1_486_512_000] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        body.extend_from_slice(&[0; 4 + 28]);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&[0; 1 + 8 + 16 + 24]);
        body.extend_from_slice(&1.75f64.to_bits().to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes());
        for _ in 0..8 {
            body.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        }
        assert!(matches!(
            decode(&framed(1, &body)),
            Err(CheckpointError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn declared_board_count_beyond_the_body_is_corrupt() {
        // The fixed fields with `u32::MAX` boards and no board bytes: the
        // CRC is valid, so only the count check stands between the decoder
        // and a 2^32-entry allocation.
        let bytes = encode(&sample_state());
        let mut body = bytes[HEADER_LEN..HEADER_LEN + BODY_FIXED].to_vec();
        body[BODY_FIXED - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&framed(VERSION, &body)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt(ref msg) if msg.contains("board count")),
            "unexpected error: {err}"
        );
        // One board short of the declared count is refused the same way.
        let mut body = bytes[HEADER_LEN..bytes.len() - 4 - BOARD_LEN].to_vec();
        body[BODY_FIXED - 4..BODY_FIXED].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode(&framed(VERSION, &body)),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn config_hash_sees_every_field() {
        let base = CampaignConfig::default();
        let seed = 7;
        let h0 = config_hash(&base, seed);
        assert_ne!(h0, config_hash(&base, 8), "seed must feed the hash");
        let variations: Vec<CampaignConfig> = vec![
            CampaignConfig {
                boards: 15,
                ..base.clone()
            },
            CampaignConfig {
                sram_bits: 1024,
                ..base.clone()
            },
            CampaignConfig {
                read_bits: 1024,
                ..base.clone()
            },
            CampaignConfig {
                months: 23,
                ..base.clone()
            },
            CampaignConfig {
                reads_per_window: 999,
                ..base.clone()
            },
            CampaignConfig {
                plan: MeasurementPlan::Continuous,
                ..base.clone()
            },
            CampaignConfig {
                aging_substeps_per_month: 5,
                ..base.clone()
            },
            CampaignConfig {
                i2c_retries: 4,
                ..base.clone()
            },
            CampaignConfig {
                start: crate::CalendarDate::new(2017, 2, 9),
                ..base.clone()
            },
            CampaignConfig {
                environment: Some(sramcell::Environment::nominal(&base.profile)),
                ..base.clone()
            },
            CampaignConfig {
                profile: sramcell::TechnologyProfile {
                    bti_prefactor: base.profile.bti_prefactor * 1.01,
                    ..base.profile.clone()
                },
                ..base.clone()
            },
            CampaignConfig {
                faults: crate::faults::FaultPlan {
                    brownouts: vec![crate::faults::Brownout {
                        board: None,
                        from_window: 0,
                        until_window: 0,
                    }],
                    ..crate::faults::FaultPlan::default()
                },
                ..base.clone()
            },
        ];
        for (i, v) in variations.iter().enumerate() {
            assert_ne!(
                config_hash(v, seed),
                h0,
                "variation {i} did not change the hash"
            );
        }
        // The empty fault plan must NOT perturb the hash.
        assert_eq!(
            config_hash(
                &CampaignConfig {
                    faults: crate::faults::FaultPlan::default(),
                    ..base.clone()
                },
                seed
            ),
            h0
        );
    }

    #[test]
    fn default_config_hash_is_pinned() {
        // Moves only with a deliberate domain-tag bump or a new config
        // field; `pufchk-config/1` gave 0x404d_3cd8_a049_202f here and
        // `pufchk-config/2` 0xcf8b_74d0_5583_5122.
        assert_eq!(
            config_hash(&CampaignConfig::default(), 2017),
            0x913d_78b0_f125_0a01
        );
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pufchk_test_{}.pufchk", std::process::id()));
        let state = sample_state();
        let bytes = write_file(&path, &state).unwrap();
        assert!(bytes > 0);
        assert!(!super::super::atomic::tmp_path(&path).exists());
        assert_eq!(read_file(&path).unwrap(), state);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_file(Path::new("/nonexistent/nope.pufchk")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
