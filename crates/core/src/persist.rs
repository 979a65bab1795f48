//! Durable checkpoints: a versioned binary wire format for
//! [`RunCheckpoint`] plus a crash-safe, directory-backed store.
//!
//! PR 8 made aborted runs resumable *in process*; this module makes
//! them survive the process. A [`DurableCheckpoint`] (a checkpoint
//! plus its serving identity: ticket and seed) encodes to a
//! self-describing blob, a [`CheckpointStore`] persists blobs keyed by
//! ticket, and the serving tier spills final-failure checkpoints
//! through it so [`crate::service::QueryPool::recover`] can resume
//! them after a crash — bit-equal to the uninterrupted run, because
//! decode reconstructs every field the resume contract depends on
//! verbatim.
//!
//! # Wire format (`SXCP`, version 1)
//!
//! Hand-rolled and dependency-free (the workspace builds offline). All
//! integers are little-endian.
//!
//! ```text
//! header   magic "SXCP" · version u16 · meta type tag u8 · meta size u8
//! section  id u8 · payload len u64 · payload · CRC-32(payload) u32
//!   1 IDENT    ticket, seed, num_vertices, iteration, edges_examined,
//!              prev_dir, fusion (present, dir, all-launched), one
//!              reserved byte, algorithm string
//!   2 META     element count · count × meta-size element bytes
//!   3 FRONTIER vertex count · count × u32
//!   4 LOG      record count · per-iteration records (31 bytes each)
//!   5 STATS    8 × u64 executor/traffic counters
//! trailer  CRC-32 of every preceding byte · u32
//! ```
//!
//! Sections appear exactly once, in order. The per-section CRCs
//! localize a diagnosis; the whole-file CRC catches anything they
//! cannot (bit flips in the framing itself). It cannot see a whole
//! framed section swapped for another valid one of the same length: a
//! section ends with its own CRC, and a CRC-32 register run over
//! `payload ‖ crc32(payload)` ends in a state that depends on the
//! payload's length, not its bytes. Such a splice is a well-framed
//! lie, caught (or not) by the cross-section checks below
//! (`tests/properties.rs`' `durable_checkpoint_section_splices_*`).
//! Every decode failure —
//! truncation at any byte offset, any single-bit flip, a version or
//! metadata-type skew — surfaces as a typed
//! [`SimdxError::CheckpointCorrupt`], never a panic and never a
//! silently-wrong restore; no length read from the blob is trusted
//! before it is checked against the bytes actually present, so a
//! corrupted length cannot drive an allocation, and no count is trusted
//! before it agrees with the other sections (one metadata element per
//! IDENT vertex, frontier vertices in range, one log record per
//! completed iteration), so a well-framed lie cannot index out of
//! bounds inside the engine.
//!
//! # Codec cost
//!
//! A checkpoint costs about what it moves. The CRC is slicing-by-8
//! (eight table lookups per 8-byte word, the same IEEE values as the
//! byte-at-a-time table), and every byte is hashed once: [`encode`]
//! writes each section's payload straight into the blob and hashes it
//! there, and both [`encode`] and [`decode`] derive the whole-file
//! trailer from the section CRCs and the framing bytes with a
//! zlib-style `crc32_combine` instead of a second pass. The format is
//! unchanged: the blob is byte-identical to the one earlier builds
//! wrote (`tests/durable_recovery.rs` pins a golden blob's length and
//! CRC). `encode` allocates once, the blob at its exact size; `decode`
//! allocates only what it returns, formatting diagnostics on the error
//! path only (`tests/steady_state_allocs.rs`).
//!
//! # Crash-safe writes
//!
//! [`DirStore`] writes blob → temp file → `fsync` → atomic rename →
//! directory `fsync`. A crash at any point leaves either the old state
//! or the new state, never a half-written checkpoint under the final
//! name; leftover temp files are ignored by [`DirStore::tickets`] and
//! overwritten by the next spill. Filenames are ticket-keyed
//! (`cp-<ticket>.sxcp`, zero-padded so lexicographic order is ticket
//! order).
//!
//! Storage faults enter where every store does: through
//! [`CheckpointStore`]. `tests/durable_recovery.rs` wraps a
//! [`DirStore`] in a store that fails its k-th `put` with
//! [`SimdxError::CheckpointIo`], or writes that blob truncated to half
//! or with its middle bit flipped, and pins that each surfaces as a
//! typed error — in `ServeReport::spill_failures` or
//! `RecoveryReport::skipped` — with the store still usable.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::checkpoint::{RunCheckpoint, RunState};
use crate::error::SimdxError;
use crate::filters::FilterKind;
use crate::jit::{ActivationLog, IterationRecord};
use simdx_gpu::executor::ExecutorStats;
use simdx_gpu::memory::TrafficCounter;
use simdx_graph::csr::Direction;
use simdx_graph::VertexId;

/// File magic: the first four bytes of every durable checkpoint.
pub(crate) const MAGIC: [u8; 4] = *b"SXCP";

/// Current wire-format schema version.
pub(crate) const VERSION: u16 = 1;

const SECTION_IDENT: u8 = 1;
const SECTION_META: u8 = 2;
const SECTION_FRONTIER: u8 = 3;
const SECTION_LOG: u8 = 4;
const SECTION_STATS: u8 = 5;

/// id + len prefix per section, CRC suffix per section.
const SECTION_OVERHEAD: usize = 1 + 8 + 4;
/// Bytes per serialized [`IterationRecord`].
const LOG_RECORD_BYTES: usize = 4 + 1 + 8 + 8 + 1 + 1 + 8;
/// Fixed IDENT payload ahead of the algorithm string.
const IDENT_FIXED_BYTES: usize = 8 + 4 + 4 + 4 + 8 + 1 + 1 + 1 + 1 + 1 + 4;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected, slicing-by-8)

/// The reflected IEEE 802.3 generator polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the register after byte `b` followed by `k`
/// zero bytes, so eight lookups advance the register a whole word.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 over `bytes` (IEEE polynomial — detects all single-bit
/// errors, which the corruption property test leans on).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues `crc`, the finished CRC-32 of some prefix, over `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a‖b)`.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let (words, tail) = bytes.as_chunks::<8>();
    for &w in words {
        let v = u64::from_le_bytes(w) ^ u64::from(crc);
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][(v >> 56) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `a · b` modulo the CRC polynomial, both in the reflected
/// representation (bit 31 is `x^0`).
const fn crc32_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    product
}

/// `CRC_X2N[k]` is `x^(2^k)` modulo the CRC polynomial.
const CRC_X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = crc32_mul(p, p);
        k += 1;
    }
    table
};

/// The CRC-32 of `a‖b` from `crc32(a)`, `crc32(b)` and `|b|`, without
/// reading either (zlib's `crc32_combine`): shifting `a`'s register
/// past `|b|` zero bytes is a multiplication by `x^(8·|b|)`, built from
/// `CRC_X2N` in `log2 |b|` steps.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let (mut n, mut k) = (len_b, 3); // 2^3 bits per byte
    while n != 0 {
        if n & 1 != 0 {
            shift = crc32_mul(CRC_X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    crc32_mul(shift, crc_a) ^ crc_b
}

/// Extends the whole-file CRC `file` over one framed section whose
/// payload CRC is already known: the id + length `prefix` and the CRC
/// suffix are hashed, the payload is combined in, never re-read.
fn crc32_after_section(file: u32, prefix: &[u8], payload_crc: u32, payload_len: usize) -> u32 {
    let file = crc32_combine(crc32_update(file, prefix), payload_crc, payload_len as u64);
    crc32_update(file, &payload_crc.to_le_bytes())
}

// ---------------------------------------------------------------------
// Metadata element codec

/// A metadata type the wire format can carry: fixed-size, tagged, with
/// an explicit little-endian byte codec. Implemented for the scalar
/// types the ACC programs in this workspace use (`u32`/`u64`,
/// `i32`/`i64`, `f32`/`f64`); floats travel as their IEEE-754 bits, so
/// the round trip is bit-exact (NaN payloads included).
pub trait PersistMeta: Copy {
    /// Type tag stored in the blob header; decode refuses a blob whose
    /// tag does not match the requested type.
    const TAG: u8;
    /// Serialized size in bytes.
    const SIZE: usize;
    /// Appends the little-endian encoding of `self`.
    fn write_le(self, out: &mut Vec<u8>);
    /// Decodes from exactly [`Self::SIZE`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! persist_meta_int {
    ($ty:ty, $tag:expr) => {
        impl PersistMeta for $ty {
            const TAG: u8 = $tag;
            const SIZE: usize = std::mem::size_of::<$ty>();
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$ty>()];
                buf.copy_from_slice(bytes);
                <$ty>::from_le_bytes(buf)
            }
        }
    };
}

persist_meta_int!(u32, 1);
persist_meta_int!(u64, 2);
persist_meta_int!(i32, 3);
persist_meta_int!(i64, 4);

impl PersistMeta for f32 {
    const TAG: u8 = 5;
    const SIZE: usize = 4;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(bytes);
        f32::from_bits(u32::from_le_bytes(buf))
    }
}

impl PersistMeta for f64 {
    const TAG: u8 = 6;
    const SIZE: usize = 8;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        f64::from_bits(u64::from_le_bytes(buf))
    }
}

// ---------------------------------------------------------------------
// Encode

/// A [`RunCheckpoint`] plus the serving identity the recovery path
/// needs: which ticket spilled it and which seed the query was rooted
/// at. This is the unit [`encode`]/[`decode`] round-trip and
/// [`CheckpointStore`] implementations persist.
#[derive(Clone, Debug)]
pub struct DurableCheckpoint<M: Copy> {
    /// The serving ticket that spilled this checkpoint
    /// ([`crate::service::QueryTicket::index`], widened).
    pub ticket: u64,
    /// The query's seed vertex (resume re-validates it against the
    /// bound graph).
    pub seed: VertexId,
    /// The boundary snapshot itself.
    pub checkpoint: RunCheckpoint<M>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends one framed section — id, payload length, payload, CRC — with
/// `write` putting the payload straight into `out`, and folds it into
/// the running whole-file CRC. The length is patched in after `write`
/// so the frame always matches the bytes actually written.
fn put_section(out: &mut Vec<u8>, file_crc: &mut u32, id: u8, write: impl FnOnce(&mut Vec<u8>)) {
    let head = out.len();
    out.push(id);
    put_u64(out, 0);
    let start = out.len();
    write(out);
    let len = out.len() - start;
    out[head + 1..start].copy_from_slice(&(len as u64).to_le_bytes());
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
    *file_crc = crc32_after_section(*file_crc, &out[head..start], crc, len);
}

fn dir_byte(dir: Direction) -> u8 {
    match dir {
        Direction::Push => 0,
        Direction::Pull => 1,
    }
}

fn filter_byte(filter: FilterKind) -> u8 {
    match filter {
        FilterKind::Online => 0,
        FilterKind::Ballot => 1,
    }
}

/// Serializes a durable checkpoint to its self-describing blob.
pub fn encode<M: PersistMeta>(frame: &DurableCheckpoint<M>) -> Vec<u8> {
    let cp = &frame.checkpoint;
    let state = &cp.state;
    let meta = state.meta.as_slice();
    let algo = cp.algorithm.as_bytes();

    let ident_len = IDENT_FIXED_BYTES + algo.len();
    let meta_len = 8 + meta.len() * M::SIZE;
    let frontier_len = 8 + state.frontier.len() * 4;
    let log_len = 8 + state.log.records.len() * LOG_RECORD_BYTES;
    let stats_len = 8 * 8;
    let total =
        8 + ident_len + meta_len + frontier_len + log_len + stats_len + 5 * SECTION_OVERHEAD + 4;
    let mut out = Vec::with_capacity(total);

    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, VERSION);
    out.push(M::TAG);
    out.push(M::SIZE as u8);
    let mut file_crc = crc32(&out);

    put_section(&mut out, &mut file_crc, SECTION_IDENT, |out| {
        put_u64(out, frame.ticket);
        put_u32(out, frame.seed);
        put_u32(out, cp.num_vertices);
        put_u32(out, state.iteration);
        put_u64(out, state.edges_examined);
        out.push(dir_byte(state.prev_dir));
        out.push(state.fusion.0.is_some() as u8);
        out.push(state.fusion.0.map_or(0, dir_byte));
        out.push(state.fusion.1 as u8);
        // Reserved: v1 blobs written before the metadata-layout axis
        // was removed carry the layout here (0 flat, 1 chunked).
        out.push(0);
        put_u32(out, algo.len() as u32);
        out.extend_from_slice(algo);
    });

    put_section(&mut out, &mut file_crc, SECTION_META, |out| {
        put_u64(out, meta.len() as u64);
        for &m in meta {
            m.write_le(out);
        }
    });

    put_section(&mut out, &mut file_crc, SECTION_FRONTIER, |out| {
        put_u64(out, state.frontier.len() as u64);
        for &v in &state.frontier {
            put_u32(out, v);
        }
    });

    put_section(&mut out, &mut file_crc, SECTION_LOG, |out| {
        put_u64(out, state.log.records.len() as u64);
        for rec in &state.log.records {
            put_u32(out, rec.iteration);
            out.push(dir_byte(rec.direction));
            put_u64(out, rec.frontier_len);
            put_u64(out, rec.degree_sum);
            out.push(filter_byte(rec.filter));
            out.push(rec.overflowed as u8);
            put_u64(out, rec.cycles);
        }
    });

    put_section(&mut out, &mut file_crc, SECTION_STATS, |out| {
        let stats = &state.stats;
        for v in [
            stats.total_cycles,
            stats.kernel_launches,
            stats.barrier_passes,
            stats.kernel_invocations,
            stats.traffic.coalesced_reads,
            stats.traffic.random_reads,
            stats.traffic.writes,
            stats.traffic.atomics,
        ] {
            put_u64(out, v);
        }
    });

    put_u32(&mut out, file_crc);
    out
}

// ---------------------------------------------------------------------
// Decode

fn corrupt(reason: impl Into<String>) -> SimdxError {
    SimdxError::CheckpointCorrupt {
        reason: reason.into(),
    }
}

/// Bounds-checked cursor over an untrusted blob: every read is
/// validated against the bytes actually present before a slice (let
/// alone an allocation) is produced.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

// Every `what` below is a diagnostic label, formatted only into an
// error: a successful decode allocates nothing but what it returns.
impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: impl fmt::Display) -> Result<&'a [u8], SimdxError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt(format!("{what}: length overflows at offset {}", self.pos)))?;
        if end > self.bytes.len() {
            return Err(corrupt(format!(
                "{what}: truncated at offset {} (need {n} bytes, {} left)",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: impl fmt::Display) -> Result<u8, SimdxError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: impl fmt::Display) -> Result<u16, SimdxError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: impl fmt::Display) -> Result<u32, SimdxError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: impl fmt::Display) -> Result<u64, SimdxError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Reads one framed section, verifies its CRC, folds it into the
/// running whole-file CRC `file_crc` (each byte is hashed once), and
/// returns its payload.
fn read_section<'a>(
    r: &mut Reader<'a>,
    file_crc: &mut u32,
    expect_id: u8,
) -> Result<&'a [u8], SimdxError> {
    let head = r.pos;
    let id = r.u8("section id")?;
    if id != expect_id {
        return Err(corrupt(format!(
            "expected section {expect_id}, found id {id}"
        )));
    }
    let len = r.u64("section length")?;
    // The length is untrusted until it fits the bytes present; a
    // flipped length bit must fail here, not drive an allocation.
    let len = usize::try_from(len).map_err(|_| corrupt("section length exceeds usize"))?;
    let prefix = &r.bytes[head..r.pos];
    let payload = r.take(len, format_args!("section {expect_id} payload"))?;
    let stored = r.u32(format_args!("section {expect_id} CRC"))?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(corrupt(format!(
            "section {expect_id} CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    *file_crc = crc32_after_section(*file_crc, prefix, computed, len);
    Ok(payload)
}

fn decode_dir(b: u8, what: impl fmt::Display) -> Result<Direction, SimdxError> {
    match b {
        0 => Ok(Direction::Push),
        1 => Ok(Direction::Pull),
        other => Err(corrupt(format!("{what}: bad direction byte {other}"))),
    }
}

fn decode_bool(b: u8, what: impl fmt::Display) -> Result<bool, SimdxError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(corrupt(format!("{what}: bad bool byte {other}"))),
    }
}

/// Deserializes a durable checkpoint, validating framing, CRCs,
/// version, metadata type and — since each section's CRC can be valid
/// while the sections disagree — the record's own invariants
/// (`RunCheckpoint::check_invariants`). Every failure is a typed
/// [`SimdxError::CheckpointCorrupt`]; this function never panics on
/// any input.
pub fn decode<M: PersistMeta>(bytes: &[u8]) -> Result<DurableCheckpoint<M>, SimdxError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(corrupt(format!(
            "bad magic {magic:02x?} (not a checkpoint)"
        )));
    }
    let version = r.u16("version")?;
    if version != VERSION {
        return Err(corrupt(format!(
            "schema version {version} (this build reads version {VERSION})"
        )));
    }
    let tag = r.u8("meta type tag")?;
    if tag != M::TAG {
        return Err(corrupt(format!(
            "metadata type tag {tag} does not match requested type (tag {})",
            M::TAG
        )));
    }
    let size = r.u8("meta size")?;
    if size as usize != M::SIZE {
        return Err(corrupt(format!(
            "metadata element size {size} does not match requested type ({} bytes)",
            M::SIZE
        )));
    }

    let mut file_crc = crc32(&bytes[..r.pos]);
    let ident = read_section(&mut r, &mut file_crc, SECTION_IDENT)?;
    let meta_bytes = read_section(&mut r, &mut file_crc, SECTION_META)?;
    let frontier_bytes = read_section(&mut r, &mut file_crc, SECTION_FRONTIER)?;
    let log_bytes = read_section(&mut r, &mut file_crc, SECTION_LOG)?;
    let stats_bytes = read_section(&mut r, &mut file_crc, SECTION_STATS)?;

    // Exactly the whole-file CRC may remain; stray trailing bytes are
    // as suspect as missing ones.
    if r.remaining() != 4 {
        return Err(corrupt(format!(
            "expected 4-byte whole-file CRC trailer, found {} trailing bytes",
            r.remaining()
        )));
    }
    let stored = r.u32("whole-file CRC")?;
    if stored != file_crc {
        return Err(corrupt(format!(
            "whole-file CRC mismatch (stored {stored:#010x}, computed {file_crc:#010x})"
        )));
    }

    // IDENT
    let mut ir = Reader {
        bytes: ident,
        pos: 0,
    };
    let ticket = ir.u64("ticket")?;
    let seed = ir.u32("seed")?;
    let num_vertices = ir.u32("num_vertices")?;
    let iteration = ir.u32("iteration")?;
    let edges_examined = ir.u64("edges_examined")?;
    let prev_dir = decode_dir(ir.u8("prev_dir")?, "prev_dir")?;
    let fusion_present = decode_bool(ir.u8("fusion present")?, "fusion present")?;
    let fusion_dir = ir.u8("fusion direction")?;
    let fusion_all = decode_bool(ir.u8("fusion all-launched")?, "fusion all-launched")?;
    // Reserved byte: older v1 writers stored the metadata layout here
    // (0 flat, 1 chunked). Element order was identical in both, so
    // either restores the same checkpoint; anything else is damage.
    match ir.u8("reserved layout byte")? {
        0 | 1 => {}
        other => return Err(corrupt(format!("bad reserved layout byte {other}"))),
    }
    let algo_len = ir.u32("algorithm length")? as usize;
    let algo = ir.take(algo_len, "algorithm string")?;
    let algorithm = std::str::from_utf8(algo)
        .map_err(|e| corrupt(format!("algorithm string is not UTF-8: {e}")))?
        .to_string();
    if ir.remaining() != 0 {
        return Err(corrupt(format!(
            "IDENT section has {} unread bytes",
            ir.remaining()
        )));
    }
    let fusion = (
        fusion_present
            .then(|| decode_dir(fusion_dir, "fusion direction"))
            .transpose()?,
        fusion_all,
    );

    // META
    let mut mr = Reader {
        bytes: meta_bytes,
        pos: 0,
    };
    let count = mr.u64("meta count")? as usize;
    let elems = mr.take(
        count
            .checked_mul(M::SIZE)
            .ok_or_else(|| corrupt("meta count overflows"))?,
        "meta elements",
    )?;
    if mr.remaining() != 0 {
        return Err(corrupt(format!(
            "META section has {} unread bytes",
            mr.remaining()
        )));
    }
    let meta: Vec<M> = elems.chunks_exact(M::SIZE).map(M::read_le).collect();

    // FRONTIER
    let mut fr = Reader {
        bytes: frontier_bytes,
        pos: 0,
    };
    let count = fr.u64("frontier count")? as usize;
    let verts = fr.take(
        count
            .checked_mul(4)
            .ok_or_else(|| corrupt("frontier count overflows"))?,
        "frontier vertices",
    )?;
    if fr.remaining() != 0 {
        return Err(corrupt(format!(
            "FRONTIER section has {} unread bytes",
            fr.remaining()
        )));
    }
    let frontier: Vec<u32> = verts
        .as_chunks::<4>()
        .0
        .iter()
        .map(|&v| u32::from_le_bytes(v))
        .collect();

    // LOG
    let mut lr = Reader {
        bytes: log_bytes,
        pos: 0,
    };
    let count = lr.u64("log record count")? as usize;
    let expect = count
        .checked_mul(LOG_RECORD_BYTES)
        .ok_or_else(|| corrupt("log record count overflows"))?;
    if lr.remaining() != expect {
        return Err(corrupt(format!(
            "LOG section holds {} bytes for {count} records (expected {expect})",
            lr.remaining()
        )));
    }
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let what = format_args!("log record {i}");
        records.push(IterationRecord {
            iteration: lr.u32(what)?,
            direction: decode_dir(lr.u8(what)?, what)?,
            frontier_len: lr.u64(what)?,
            degree_sum: lr.u64(what)?,
            filter: match lr.u8(what)? {
                0 => FilterKind::Online,
                1 => FilterKind::Ballot,
                other => return Err(corrupt(format!("{what}: bad filter byte {other}"))),
            },
            overflowed: decode_bool(lr.u8(what)?, what)?,
            cycles: lr.u64(what)?,
        });
    }
    let log = ActivationLog { records };

    // STATS
    let mut sr = Reader {
        bytes: stats_bytes,
        pos: 0,
    };
    let stats = ExecutorStats {
        total_cycles: sr.u64("total_cycles")?,
        kernel_launches: sr.u64("kernel_launches")?,
        barrier_passes: sr.u64("barrier_passes")?,
        kernel_invocations: sr.u64("kernel_invocations")?,
        traffic: TrafficCounter {
            coalesced_reads: sr.u64("coalesced_reads")?,
            random_reads: sr.u64("random_reads")?,
            writes: sr.u64("writes")?,
            atomics: sr.u64("atomics")?,
        },
    };
    if sr.remaining() != 0 {
        return Err(corrupt(format!(
            "STATS section has {} unread bytes",
            sr.remaining()
        )));
    }

    let checkpoint = RunCheckpoint {
        algorithm,
        num_vertices,
        state: RunState {
            meta,
            frontier,
            log,
            prev_dir,
            iteration,
            edges_examined,
            stats,
            fusion,
        },
    };
    // Every section's CRC can be valid while the sections disagree with
    // each other; the engine indexes by these, so they are checked here.
    checkpoint.check_invariants()?;
    Ok(DurableCheckpoint {
        ticket,
        seed,
        checkpoint,
    })
}

// ---------------------------------------------------------------------
// Store

/// Where durable checkpoints live: blobs keyed by serving ticket. The
/// trait works in bytes so stores stay object-safe and metadata-type
/// agnostic; [`encode`]/[`decode`] sit on top.
///
/// Contract: [`CheckpointStore::put`] is atomic — a concurrent crash
/// leaves either the previous blob or the new one, never a mix — and
/// every failure is a typed [`SimdxError::CheckpointIo`] (the store
/// stays usable afterwards).
pub trait CheckpointStore: Send + Sync {
    /// Persists `blob` under `ticket`, replacing any previous blob.
    fn put(&self, ticket: u64, blob: &[u8]) -> Result<(), SimdxError>;
    /// Reads the blob stored under `ticket`.
    fn get(&self, ticket: u64) -> Result<Vec<u8>, SimdxError>;
    /// Removes `ticket`'s blob; removing an absent ticket is not an
    /// error (recovery and spilling race benignly).
    fn remove(&self, ticket: u64) -> Result<(), SimdxError>;
    /// Every ticket with a persisted blob, ascending.
    fn tickets(&self) -> Result<Vec<u64>, SimdxError>;
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> SimdxError {
    SimdxError::CheckpointIo {
        reason: format!("{op} {}: {e}", path.display()),
    }
}

/// Directory-backed [`CheckpointStore`] with crash-safe writes; see
/// the module docs for the temp-file + `fsync` + rename protocol.
#[derive(Clone, Debug)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) the checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SimdxError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create checkpoint dir", &dir, &e))?;
        Ok(Self { dir })
    }

    fn blob_path(&self, ticket: u64) -> PathBuf {
        self.dir.join(format!("cp-{ticket:020}.sxcp"))
    }

    fn tmp_path(&self, ticket: u64) -> PathBuf {
        self.dir.join(format!(".cp-{ticket:020}.tmp"))
    }
}

impl CheckpointStore for DirStore {
    fn put(&self, ticket: u64, blob: &[u8]) -> Result<(), SimdxError> {
        use std::io::Write;

        let tmp = self.tmp_path(ticket);
        let path = self.blob_path(ticket);
        let mut file =
            std::fs::File::create(&tmp).map_err(|e| io_err("create temp blob", &tmp, &e))?;
        file.write_all(blob)
            .map_err(|e| io_err("write temp blob", &tmp, &e))?;
        // fsync before rename: the rename must never make a blob
        // visible whose bytes are still in the page cache only.
        file.sync_all()
            .map_err(|e| io_err("fsync temp blob", &tmp, &e))?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename blob into place", &path, &e))?;
        // fsync the directory so the rename itself is durable.
        match std::fs::File::open(&self.dir) {
            Ok(d) => d
                .sync_all()
                .map_err(|e| io_err("fsync checkpoint dir", &self.dir, &e))?,
            Err(e) => return Err(io_err("open checkpoint dir for fsync", &self.dir, &e)),
        }
        Ok(())
    }

    fn get(&self, ticket: u64) -> Result<Vec<u8>, SimdxError> {
        let path = self.blob_path(ticket);
        std::fs::read(&path).map_err(|e| io_err("read blob", &path, &e))
    }

    fn remove(&self, ticket: u64) -> Result<(), SimdxError> {
        let path = self.blob_path(ticket);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove blob", &path, &e)),
        }
    }

    fn tickets(&self) -> Result<Vec<u64>, SimdxError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| io_err("scan checkpoint dir", &self.dir, &e))?;
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan checkpoint dir", &self.dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            // Interrupted writes leave `.cp-*.tmp` files; they are not
            // checkpoints and the next put for that ticket replaces
            // them.
            let Some(ticket) = name
                .strip_prefix("cp-")
                .and_then(|rest| rest.strip_suffix(".sxcp"))
            else {
                continue;
            };
            if let Ok(ticket) = ticket.parse::<u64>() {
                out.push(ticket);
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

/// Encodes and persists one durable checkpoint.
pub(crate) fn spill<M: PersistMeta>(
    store: &dyn CheckpointStore,
    frame: &DurableCheckpoint<M>,
) -> Result<(), SimdxError> {
    store.put(frame.ticket, &encode(frame))
}

/// Reads and decodes one ticket's durable checkpoint.
pub(crate) fn load<M: PersistMeta>(
    store: &dyn CheckpointStore,
    ticket: u64,
) -> Result<DurableCheckpoint<M>, SimdxError> {
    let blob = store.get(ticket)?;
    let frame = decode::<M>(&blob)?;
    if frame.ticket != ticket {
        return Err(corrupt(format!(
            "blob stored under ticket {ticket} identifies itself as ticket {}",
            frame.ticket
        )));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample(ticket: u64) -> DurableCheckpoint<u32> {
        DurableCheckpoint {
            ticket,
            seed: 3,
            checkpoint: RunCheckpoint {
                algorithm: "levels".to_string(),
                num_vertices: 4,
                state: RunState {
                    meta: vec![0, 1, u32::MAX, u32::MAX],
                    frontier: vec![1, 3],
                    log: ActivationLog {
                        records: vec![IterationRecord {
                            iteration: 0,
                            direction: Direction::Push,
                            frontier_len: 1,
                            degree_sum: 2,
                            filter: FilterKind::Ballot,
                            overflowed: false,
                            cycles: 123,
                        }],
                    },
                    prev_dir: Direction::Pull,
                    iteration: 1,
                    edges_examined: 7,
                    stats: ExecutorStats {
                        total_cycles: 1234,
                        kernel_launches: 3,
                        barrier_passes: 2,
                        kernel_invocations: 5,
                        traffic: TrafficCounter {
                            coalesced_reads: 10,
                            random_reads: 11,
                            writes: 12,
                            atomics: 13,
                        },
                    },
                    fusion: (Some(Direction::Push), true),
                },
            },
        }
    }

    /// A unique scratch directory per test (no tempfile crate in the
    /// offline workspace).
    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // ORDERING: the counter only needs unique draws, not ordering.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("simdx-persist-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let frame = sample(42);
        let blob = encode(&frame);
        let back = decode::<u32>(&blob).expect("decode");
        assert_eq!(back.ticket, 42);
        assert_eq!(back.seed, 3);
        assert_eq!(back.checkpoint.algorithm, "levels");
        assert_eq!(back.checkpoint.num_vertices, 4);
        let (got, sent) = (&back.checkpoint.state, &frame.checkpoint.state);
        assert_eq!(got.meta, sent.meta);
        assert_eq!(got.frontier, vec![1, 3]);
        assert_eq!(got.log, sent.log);
        assert_eq!(got.prev_dir, Direction::Pull);
        assert_eq!(got.iteration, 1);
        assert_eq!(got.edges_examined, 7);
        assert_eq!(got.stats, sent.stats);
        assert_eq!(got.fusion, (Some(Direction::Push), true));
        // Re-encoding the decoded frame reproduces the blob verbatim.
        assert_eq!(encode(&back), blob);
    }

    /// `blob` with IDENT's reserved layout byte set to `value` and both
    /// CRCs that cover it recomputed, i.e. what a well-formed writer
    /// emitting that byte would have produced.
    fn patch_layout_byte(blob: &[u8], value: u8) -> Vec<u8> {
        let mut out = blob.to_vec();
        // 8-byte header, then IDENT (the first section): id u8, len u64.
        let payload = 8 + 1 + 8;
        let ident_len = u64::from_le_bytes(out[9..17].try_into().unwrap()) as usize;
        // The reserved byte sits just ahead of the u32 algorithm length.
        out[payload + IDENT_FIXED_BYTES - 4 - 1] = value;
        let section_crc = crc32(&out[payload..payload + ident_len]);
        out[payload + ident_len..payload + ident_len + 4]
            .copy_from_slice(&section_crc.to_le_bytes());
        let body = out.len() - 4;
        let file_crc = crc32(&out[..body]);
        out[body..].copy_from_slice(&file_crc.to_le_bytes());
        out
    }

    #[test]
    fn reserved_layout_byte_accepts_both_legacy_values_and_rejects_others() {
        let frame = sample(11);
        let blob = encode(&frame);
        assert_eq!(patch_layout_byte(&blob, 0), blob, "encode writes 0");
        // A blob spilled by a process that still had the chunked layout
        // carries 1; it restores the same checkpoint.
        let legacy = decode::<u32>(&patch_layout_byte(&blob, 1)).expect("layout byte 1");
        let current = decode::<u32>(&blob).expect("layout byte 0");
        assert_eq!(encode(&legacy), encode(&current));
        assert_eq!(legacy.checkpoint.state.meta, frame.checkpoint.state.meta);
        assert!(matches!(
            decode::<u32>(&patch_layout_byte(&blob, 2)),
            Err(SimdxError::CheckpointCorrupt { reason }) if reason.contains("layout byte 2")
        ));
    }

    #[test]
    fn float_meta_roundtrips_nan_bits() {
        let frame = DurableCheckpoint {
            ticket: 0,
            seed: 0,
            checkpoint: RunCheckpoint {
                algorithm: "pr".to_string(),
                num_vertices: 3,
                state: RunState::new(vec![0.25f32, f32::from_bits(0x7FC0_1234), -0.0], vec![0]),
            },
        };
        let back = decode::<f32>(&encode(&frame)).expect("decode");
        let meta = &back.checkpoint.state.meta;
        let bits: Vec<u32> = meta.iter().map(|m| m.to_bits()).collect();
        assert_eq!(
            bits,
            vec![0.25f32.to_bits(), 0x7FC0_1234, (-0.0f32).to_bits()]
        );
    }

    #[test]
    fn wrong_meta_type_version_and_magic_are_typed() {
        let blob = encode(&sample(1));
        // Wrong metadata type.
        assert!(matches!(
            decode::<f32>(&blob),
            Err(SimdxError::CheckpointCorrupt { reason }) if reason.contains("type tag")
        ));
        // Version skew.
        let mut skew = blob.clone();
        skew[4] = 9;
        assert!(matches!(
            decode::<u32>(&skew),
            Err(SimdxError::CheckpointCorrupt { reason }) if reason.contains("schema version")
        ));
        // Not a checkpoint at all.
        assert!(matches!(
            decode::<u32>(b"hello world, definitely not a checkpoint"),
            Err(SimdxError::CheckpointCorrupt { reason }) if reason.contains("magic")
        ));
        assert!(decode::<u32>(&[]).is_err());
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        let blob = encode(&sample(7));
        for len in 0..blob.len() {
            match decode::<u32>(&blob[..len]) {
                Err(SimdxError::CheckpointCorrupt { .. }) => {}
                other => panic!("truncation to {len} bytes: expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let blob = encode(&sample(9));
        for byte in 0..blob.len() {
            let mut flipped = blob.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(
                matches!(
                    decode::<u32>(&flipped),
                    Err(SimdxError::CheckpointCorrupt { .. })
                ),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn sections_that_disagree_are_corrupt_even_with_valid_crcs() {
        // Length lies with every CRC recomputed: `encode` frames
        // whatever it is given, so each blob below is well-formed
        // section by section and wrong only across sections.
        type Lie = fn(&mut RunCheckpoint<u32>);
        let lies: [(&str, Lie); 4] = [
            ("metadata holds 15", |cp| cp.state.meta.resize(15, 0)),
            ("metadata holds 2", |cp| cp.state.meta.truncate(2)),
            ("frontier vertex 4000000", |cp| {
                cp.state.frontier.push(4_000_000)
            }),
            ("log holds 1 records at iteration 3", |cp| {
                cp.state.iteration = 3
            }),
        ];
        for (expect, lie) in lies {
            let mut frame = sample(4);
            lie(&mut frame.checkpoint);
            match decode::<u32>(&encode(&frame)) {
                Err(SimdxError::CheckpointCorrupt { reason }) => {
                    assert!(reason.contains(expect), "{expect}: diagnosed as {reason}")
                }
                other => panic!("{expect}: expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn dir_store_puts_gets_lists_and_removes() {
        let dir = scratch_dir("store");
        let store = DirStore::open(&dir).expect("open");
        assert_eq!(store.tickets().expect("empty scan"), Vec::<u64>::new());
        spill(&store, &sample(5)).expect("spill 5");
        spill(&store, &sample(2)).expect("spill 2");
        assert_eq!(store.tickets().expect("scan"), vec![2, 5]);
        let back = load::<u32>(&store, 5).expect("load");
        assert_eq!(back.ticket, 5);
        // Overwrite is fine (a later boundary replaces an earlier one).
        spill(&store, &sample(5)).expect("re-spill");
        store.remove(5).expect("remove");
        store.remove(5).expect("second remove is not an error");
        assert_eq!(store.tickets().expect("scan"), vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_skips_temp_files_and_foreign_names() {
        let dir = scratch_dir("scan");
        let store = DirStore::open(&dir).expect("open");
        spill(&store, &sample(1)).expect("spill");
        std::fs::write(dir.join(".cp-00000000000000000009.tmp"), b"half a blob")
            .expect("write tmp");
        std::fs::write(dir.join("notes.txt"), b"unrelated").expect("write foreign");
        std::fs::write(dir.join("cp-notanumber.sxcp"), b"junk").expect("write junk");
        assert_eq!(store.tickets().expect("scan"), vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_of_missing_ticket_is_typed_io_error() {
        let dir = scratch_dir("missing");
        let store = DirStore::open(&dir).expect("open");
        assert!(matches!(
            store.get(99),
            Err(SimdxError::CheckpointIo { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_ticket_mismatch() {
        let dir = scratch_dir("mismatch");
        let store = DirStore::open(&dir).expect("open");
        // A blob identifying itself as ticket 3, filed under ticket 8.
        store.put(8, &encode(&sample(3))).expect("put");
        assert!(matches!(
            load::<u32>(&store, 8),
            Err(SimdxError::CheckpointCorrupt { reason }) if reason.contains("ticket")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_combine_joins_split_inputs() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for split in [0, 1, 7, 8, 9, 64, 150, 299, 300] {
            let (a, b) = data.split_at(split);
            let whole = crc32(&data);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split at {split}"
            );
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {split}");
        }
        assert_eq!(crc32_combine(crc32(b""), crc32(b""), 0), crc32(b""));
    }
}
