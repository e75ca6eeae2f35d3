//! Crash-safe checkpoint files (the `XCK1` container).
//!
//! Layout, all integers little-endian:
//!
//! ```text
//! magic   b"XCK1"              4 bytes
//! version u16                  CHECKPOINT_VERSION
//! kind    u8                   KIND_TRAINER | KIND_DETECTOR | KIND_AUTOENCODER
//! pad     u8                   0
//! len     u64                  payload length in bytes
//! payload [u8; len]            kind-specific body
//! check   u64                  FNV-1a over version..payload
//! ```
//!
//! Writes are crash-safe by construction: the whole file is assembled in
//! memory, written to `<path>.tmp`, and renamed over `path` — a reader
//! never sees a half-written checkpoint, only the previous complete one or
//! the new complete one. Every load re-verifies magic, version, kind,
//! length and checksum before any field is decoded, and the decoder
//! bounds-checks every read, so a truncated or bit-flipped file surfaces
//! as [`XatuError::CorruptCheckpoint`] instead of a panic or garbage
//! state.
//!
//! Floats are stored as `f64::to_bits`, which is what makes resume
//! bit-identical: a checkpoint round-trip is exact, never a decimal
//! approximation.

use crate::config::{LossKind, TimescaleMode};
use crate::error::{XatuError, CHECKPOINT_VERSION};
use std::path::Path;
use xatu_netflow::attack::AttackType;

/// Container magic.
pub const MAGIC: &[u8; 4] = b"XCK1";
/// `kind` byte for survival-trainer checkpoints.
pub const KIND_TRAINER: u8 = 1;
/// `kind` byte for online-detector checkpoints.
pub const KIND_DETECTOR: u8 = 2;
/// `kind` byte for autoencoder-trainer checkpoints.
pub const KIND_AUTOENCODER: u8 = 3;

/// FNV-1a over a byte slice (same constants as `xatu-obs`' digest).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Flat little-endian encoder / bounds-checked decoder.
// ---------------------------------------------------------------------------

/// Append-only payload encoder.
#[derive(Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    /// A fresh, empty payload.
    pub fn new() -> Self {
        Enc(Vec::new())
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a count-prefixed list of length-prefixed `f64` slices.
    fn f64_chunks(&mut self, chunks: &[Vec<f64>]) {
        self.u64(chunks.len() as u64);
        for chunk in chunks {
            self.f64s(chunk);
        }
    }

    /// Appends an `Option<u32>` as a presence byte plus the value.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }
}

/// Cursor-based decoder; every read is bounds-checked.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// True when every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed `f64` vector. The length is validated
    /// against the remaining bytes before allocating, so a corrupted
    /// length cannot trigger an absurd allocation.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.u64()? as usize;
        if n.checked_mul(8)
            .is_none_or(|b| b > self.bytes.len() - self.pos)
        {
            return Err(format!("f64 vector length {n} exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Reads a count-prefixed list of `f64` vectors. Each vector takes at
    /// least its 8-byte length, so the count is validated against the
    /// remaining bytes before the list is allocated.
    fn f64_chunks(&mut self) -> Result<Vec<Vec<f64>>, String> {
        let n = self.u64()?;
        if n > ((self.bytes.len() - self.pos) / 8) as u64 {
            return Err(format!("chunk count {n} exceeds payload"));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.f64s()?);
        }
        Ok(out)
    }

    /// Reads an `Option<u32>`.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            other => Err(format!("bad option tag {other}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Enum tags (stable wire values, independent of Rust enum layout).
// ---------------------------------------------------------------------------

/// Wire tag of an attack type (its index in [`AttackType::ALL`]).
pub fn attack_type_tag(t: AttackType) -> u8 {
    // The ALL order is the workspace-wide fixed order; an attack type is
    // always a member of its own ALL list.
    AttackType::ALL
        .iter()
        .position(|&x| x == t)
        .expect("in ALL") as u8
}

/// Decodes an attack-type tag.
pub fn attack_type_from_tag(tag: u8) -> Result<AttackType, String> {
    AttackType::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("bad attack-type tag {tag}"))
}

/// Wire tag of a timescale mode.
pub fn mode_tag(m: TimescaleMode) -> u8 {
    match m {
        TimescaleMode::All => 0,
        TimescaleMode::ShortOnly => 1,
        TimescaleMode::NoShort => 2,
        TimescaleMode::NoMedium => 3,
        TimescaleMode::NoLong => 4,
    }
}

/// Decodes a timescale-mode tag.
pub fn mode_from_tag(tag: u8) -> Result<TimescaleMode, String> {
    Ok(match tag {
        0 => TimescaleMode::All,
        1 => TimescaleMode::ShortOnly,
        2 => TimescaleMode::NoShort,
        3 => TimescaleMode::NoMedium,
        4 => TimescaleMode::NoLong,
        other => return Err(format!("bad timescale-mode tag {other}")),
    })
}

/// Wire tag of a loss kind.
pub fn loss_tag(l: LossKind) -> u8 {
    match l {
        LossKind::Survival => 0,
        LossKind::CrossEntropy => 1,
    }
}

/// Decodes a loss-kind tag.
pub fn loss_from_tag(tag: u8) -> Result<LossKind, String> {
    Ok(match tag {
        0 => LossKind::Survival,
        1 => LossKind::CrossEntropy,
        other => return Err(format!("bad loss-kind tag {other}")),
    })
}

// ---------------------------------------------------------------------------
// Container I/O.
// ---------------------------------------------------------------------------

/// Writes a complete container atomically: assemble in memory, write to
/// `<path>.tmp`, rename over `path`.
pub fn write_container(path: &Path, kind: u8, payload: &[u8]) -> Result<(), XatuError> {
    let mut body = Vec::with_capacity(payload.len() + 12);
    body.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    body.push(kind);
    body.push(0);
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(payload);
    let check = fnv1a64(&body);

    let mut file = Vec::with_capacity(body.len() + 12);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&body);
    file.extend_from_slice(&check.to_le_bytes());

    let tmp = tmp_path(path);
    std::fs::write(&tmp, &file).map_err(|e| XatuError::io(&tmp, "write", e))?;
    std::fs::rename(&tmp, path).map_err(|e| XatuError::io(path, "rename", e))?;
    Ok(())
}

/// The sibling temp path used by [`write_container`].
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".tmp");
    std::path::PathBuf::from(s)
}

/// Reads and fully validates a container, returning its payload.
pub fn read_container(path: &Path, expect_kind: u8) -> Result<Vec<u8>, XatuError> {
    let bytes = std::fs::read(path).map_err(|e| XatuError::io(path, "read", e))?;
    // magic(4) + version(2) + kind(1) + pad(1) + len(8) + check(8)
    if bytes.len() < 24 {
        return Err(XatuError::corrupt(
            path,
            "file shorter than the fixed header",
        ));
    }
    if &bytes[0..4] != MAGIC {
        return Err(XatuError::corrupt(path, "bad magic"));
    }
    let body = &bytes[4..bytes.len() - 8];
    let stored_check = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a64(body) != stored_check {
        return Err(XatuError::corrupt(path, "checksum mismatch"));
    }
    let version = u16::from_le_bytes([body[0], body[1]]);
    if version != CHECKPOINT_VERSION {
        return Err(XatuError::CheckpointVersion {
            path: path.display().to_string(),
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let kind = body[2];
    if kind != expect_kind {
        return Err(XatuError::corrupt(
            path,
            format!("kind byte {kind}, expected {expect_kind}"),
        ));
    }
    let len = u64::from_le_bytes(body[4..12].try_into().expect("8 bytes")) as usize;
    let payload = &body[12..];
    if payload.len() != len {
        return Err(XatuError::corrupt(
            path,
            format!("payload is {} bytes, header says {len}", payload.len()),
        ));
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// Trainer checkpoint.
// ---------------------------------------------------------------------------

/// The identity block that tells the two trainers' runs apart. Each
/// variant is written under its own `kind` byte with its own fields, so a
/// checkpoint of one trainer never resumes the other.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrainIdentity {
    /// The survival trainer ([`crate::trainer`]), kind [`KIND_TRAINER`].
    Survival {
        /// Loss kind.
        loss: LossKind,
        /// Number of training samples.
        sample_count: u64,
    },
    /// The companion trainer ([`crate::ae_trainer`]), kind
    /// [`KIND_AUTOENCODER`].
    Autoencoder {
        /// Number of benign training windows.
        window_count: u64,
        /// Frame width the model reconstructs.
        input_dim: u64,
        /// Latent width.
        hidden: u64,
    },
}

impl TrainIdentity {
    /// The container `kind` byte this trainer's checkpoints carry.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            TrainIdentity::Survival { .. } => KIND_TRAINER,
            TrainIdentity::Autoencoder { .. } => KIND_AUTOENCODER,
        }
    }
}

/// Everything needed to resume either trainer bit-identically: the run's
/// identity fields (to reject a checkpoint from a different run), the
/// current parameters, and the full Adam state. The shuffle RNG is *not*
/// stored — it is fast-forwarded on resume by replaying the completed
/// epochs' Fisher–Yates permutations, which depend only on the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerCheckpoint {
    /// Training seed (identity check).
    pub seed: u64,
    /// Learning-rate bits (identity check — exact, not approximate).
    pub lr_bits: u64,
    /// Batch size (identity check).
    pub batch_size: u64,
    /// What was trained on (identity check); decides the `kind` byte.
    pub identity: TrainIdentity,
    /// Total epochs the run is configured for.
    pub epochs_total: u64,
    /// Epochs fully completed before this checkpoint.
    pub epochs_done: u64,
    /// Flat model parameters in `Params::visit` order.
    pub params: Vec<f64>,
    /// Adam step counter.
    pub adam_t: u64,
    /// Adam first moments, per parameter chunk.
    pub adam_m: Vec<Vec<f64>>,
    /// Adam second moments, per parameter chunk.
    pub adam_v: Vec<Vec<f64>>,
}

impl TrainerCheckpoint {
    /// Every identity field as `(name, wire value, rendering)`, in wire
    /// order, then the parameter count.
    fn identity_fields(&self) -> Vec<(&'static str, u64, String)> {
        let count = |name, v: u64| (name, v, v.to_string());
        let lr = f64::from_bits(self.lr_bits).to_string();
        let mut f = vec![
            count("kind", self.identity.kind() as u64),
            count("seed", self.seed),
            ("learning rate", self.lr_bits, lr),
            count("batch size", self.batch_size),
        ];
        match self.identity {
            TrainIdentity::Survival { loss, sample_count } => f.extend([
                ("loss", loss_tag(loss) as u64, format!("{loss:?}")),
                count("sample count", sample_count),
            ]),
            TrainIdentity::Autoencoder {
                window_count,
                input_dim,
                hidden,
            } => f.extend([
                count("window count", window_count),
                count("input dim", input_dim),
                count("hidden", hidden),
            ]),
        }
        f.push(count("epoch budget", self.epochs_total));
        f.push(count("parameter count", self.params.len() as u64));
        f
    }

    /// Rejects this checkpoint unless it describes the run `run` (a fresh
    /// snapshot of it): the first identity field that differs is named in
    /// a [`XatuError::CheckpointMismatch`].
    pub(crate) fn check_resumes(&self, run: &Self, path: &Path) -> Result<(), XatuError> {
        let mut pairs = std::iter::zip(self.identity_fields(), run.identity_fields());
        match pairs.find(|(a, b)| a.1 != b.1) {
            Some(((name, _, a), (_, _, b))) => Err(XatuError::CheckpointMismatch {
                path: path.display().to_string(),
                reason: format!("{name} {a} != {b}"),
            }),
            None => Ok(()),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.seed);
        e.u64(self.lr_bits);
        e.u64(self.batch_size);
        match self.identity {
            TrainIdentity::Survival { loss, sample_count } => {
                e.u8(loss_tag(loss));
                e.u64(sample_count);
            }
            TrainIdentity::Autoencoder {
                window_count,
                input_dim,
                hidden,
            } => {
                for v in [window_count, input_dim, hidden] {
                    e.u64(v);
                }
            }
        }
        e.u64(self.epochs_total);
        e.u64(self.epochs_done);
        e.f64s(&self.params);
        e.u64(self.adam_t);
        e.f64_chunks(&self.adam_m);
        e.f64_chunks(&self.adam_v);
        e.into_bytes()
    }

    fn decode(kind: u8, d: &mut Dec<'_>) -> Result<Self, String> {
        // Fields are read in declaration order, which is wire order.
        let ck = TrainerCheckpoint {
            seed: d.u64()?,
            lr_bits: d.u64()?,
            batch_size: d.u64()?,
            identity: match kind {
                KIND_TRAINER => TrainIdentity::Survival {
                    loss: loss_from_tag(d.u8()?)?,
                    sample_count: d.u64()?,
                },
                KIND_AUTOENCODER => TrainIdentity::Autoencoder {
                    window_count: d.u64()?,
                    input_dim: d.u64()?,
                    hidden: d.u64()?,
                },
                other => return Err(format!("kind byte {other} is not a trainer checkpoint")),
            },
            epochs_total: d.u64()?,
            epochs_done: d.u64()?,
            params: d.f64s()?,
            adam_t: d.u64()?,
            adam_m: d.f64_chunks()?,
            adam_v: d.f64_chunks()?,
        };
        if ck.epochs_done > ck.epochs_total {
            return Err(format!(
                "epochs_done {} exceeds epochs_total {}",
                ck.epochs_done, ck.epochs_total
            ));
        }
        Ok(ck)
    }
}

/// Atomically writes a trainer checkpoint under its identity's `kind`.
pub fn save_trainer(path: &Path, ck: &TrainerCheckpoint) -> Result<(), XatuError> {
    write_container(path, ck.identity.kind(), &ck.encode())
}

/// Loads and validates a trainer checkpoint of container kind `kind`
/// ([`KIND_TRAINER`] or [`KIND_AUTOENCODER`]); a file of any other kind
/// is [`XatuError::CorruptCheckpoint`].
pub fn load_trainer(path: &Path, kind: u8) -> Result<TrainerCheckpoint, XatuError> {
    load(path, kind, |d| TrainerCheckpoint::decode(kind, d))
}

/// Reads a container of kind `kind` and decodes its whole payload.
fn load<T>(
    path: &Path,
    kind: u8,
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, String>,
) -> Result<T, XatuError> {
    let payload = read_container(path, kind)?;
    let mut d = Dec::new(&payload);
    let out = decode(&mut d).map_err(|e| XatuError::corrupt(path, e))?;
    if !d.finished() {
        return Err(XatuError::corrupt(path, "trailing bytes after payload"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Online-detector checkpoint.
// ---------------------------------------------------------------------------

/// One customer's row of one timescale's dual-state arena in the detector
/// core: both LSTM halves, their context ages and the reset period.
/// Loading validates the record before copying it into the arena.
#[derive(Clone, Debug, PartialEq)]
pub struct DualStateCheckpoint {
    /// Aged hidden state.
    pub aged_h: Vec<f64>,
    /// Aged cell state.
    pub aged_c: Vec<f64>,
    /// Fresh hidden state.
    pub fresh_h: Vec<f64>,
    /// Fresh cell state.
    pub fresh_c: Vec<f64>,
    /// Aged context length.
    pub aged_age: u32,
    /// Fresh context length.
    pub fresh_age: u32,
    /// Reset period.
    pub period: u32,
}

impl DualStateCheckpoint {
    fn encode(&self, e: &mut Enc) {
        e.f64s(&self.aged_h);
        e.f64s(&self.aged_c);
        e.f64s(&self.fresh_h);
        e.f64s(&self.fresh_c);
        e.u32(self.aged_age);
        e.u32(self.fresh_age);
        e.u32(self.period);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        Ok(DualStateCheckpoint {
            aged_h: d.f64s()?,
            aged_c: d.f64s()?,
            fresh_h: d.f64s()?,
            fresh_c: d.f64s()?,
            aged_age: d.u32()?,
            fresh_age: d.u32()?,
            period: d.u32()?,
        })
    }
}

/// One customer's full streaming state.
#[derive(Clone, Debug, PartialEq)]
pub struct CustomerCheckpoint {
    /// Customer address.
    pub addr: u32,
    /// Short / medium / long dual LSTM states.
    pub dual: [DualStateCheckpoint; 3],
    /// Rolling-survival state `(window, buf, head, filled, sum)`.
    pub survival: (u64, Vec<f64>, u64, u64, f64),
    /// Each timescale's open pooling bucket `(sum, count)`; empty and 0
    /// for a granularity-1 timescale, which keeps none.
    pub partial: [(Vec<f64>, u32); 3],
    /// Minute the active alert was raised, if one is open.
    pub active_since: Option<u32>,
    /// Consecutive quiet observations while an alert is open.
    pub quiet_run: u32,
    /// Last reported survival.
    pub last_survival: f64,
    /// Observations seen (warm-up accounting).
    pub observed: u32,
    /// Last sanitized frame (the zero-order-hold imputation source).
    pub last_frame: Vec<f64>,
    /// Consecutive imputed/stale steps.
    pub stale_run: u32,
    /// Newest minute observed, if any.
    pub last_minute: Option<u32>,
}

impl CustomerCheckpoint {
    fn encode(&self, e: &mut Enc) {
        e.u32(self.addr);
        for ds in &self.dual {
            ds.encode(e);
        }
        e.u64(self.survival.0);
        e.f64s(&self.survival.1);
        e.u64(self.survival.2);
        e.u64(self.survival.3);
        e.f64(self.survival.4);
        for (sum, count) in &self.partial {
            e.f64s(sum);
            e.u32(*count);
        }
        e.opt_u32(self.active_since);
        e.u32(self.quiet_run);
        e.f64(self.last_survival);
        e.u32(self.observed);
        e.f64s(&self.last_frame);
        e.u32(self.stale_run);
        e.opt_u32(self.last_minute);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        Ok(CustomerCheckpoint {
            addr: d.u32()?,
            dual: [
                DualStateCheckpoint::decode(d)?,
                DualStateCheckpoint::decode(d)?,
                DualStateCheckpoint::decode(d)?,
            ],
            survival: (d.u64()?, d.f64s()?, d.u64()?, d.u64()?, d.f64()?),
            partial: [
                (d.f64s()?, d.u32()?),
                (d.f64s()?, d.u32()?),
                (d.f64s()?, d.u32()?),
            ],
            active_since: d.opt_u32()?,
            quiet_run: d.u32()?,
            last_survival: d.f64()?,
            observed: d.u32()?,
            last_frame: d.f64s()?,
            stale_run: d.u32()?,
            last_minute: d.opt_u32()?,
        })
    }
}

/// A complete [`crate::fleet::FleetDetector`] snapshot: configuration,
/// model parameters, and every customer's streaming state (sorted by
/// address so the encoding is canonical regardless of hash-map order).
/// Telemetry is deliberately *not* checkpointed — counters restart at
/// zero on resume and cover the resumed segment only.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorCheckpoint {
    /// Attack type this detector serves.
    pub attack_type: AttackType,
    /// Calibrated alert threshold.
    pub threshold: f64,
    /// Rolling-survival window.
    pub window: u64,
    /// Quiet run required to end an alert.
    pub quiet: u32,
    /// Warm-up observations per customer.
    pub warmup: u32,
    /// Training context lengths (short, medium, long).
    pub ctx_lens: (u64, u64, u64),
    /// Force-end cap in minutes.
    pub max_alert_minutes: u32,
    /// Pooling granularities.
    pub timescales: (u32, u32, u32),
    /// Hidden units per LSTM.
    pub hidden: u64,
    /// Timescale mode.
    pub mode: TimescaleMode,
    /// Flat model parameters in `Params::visit` order.
    pub params: Vec<f64>,
    /// Per-customer states, sorted by address.
    pub customers: Vec<CustomerCheckpoint>,
}

impl DetectorCheckpoint {
    /// The record's XCK1 payload bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(attack_type_tag(self.attack_type));
        e.f64(self.threshold);
        e.u64(self.window);
        e.u32(self.quiet);
        e.u32(self.warmup);
        e.u64(self.ctx_lens.0);
        e.u64(self.ctx_lens.1);
        e.u64(self.ctx_lens.2);
        e.u32(self.max_alert_minutes);
        e.u32(self.timescales.0);
        e.u32(self.timescales.1);
        e.u32(self.timescales.2);
        e.u64(self.hidden);
        e.u8(mode_tag(self.mode));
        e.f64s(&self.params);
        e.u64(self.customers.len() as u64);
        for c in &self.customers {
            c.encode(&mut e);
        }
        e.into_bytes()
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, String> {
        let attack_type = attack_type_from_tag(d.u8()?)?;
        let threshold = d.f64()?;
        let window = d.u64()?;
        let quiet = d.u32()?;
        let warmup = d.u32()?;
        let ctx_lens = (d.u64()?, d.u64()?, d.u64()?);
        let max_alert_minutes = d.u32()?;
        let timescales = (d.u32()?, d.u32()?, d.u32()?);
        let hidden = d.u64()?;
        let mode = mode_from_tag(d.u8()?)?;
        let params = d.f64s()?;
        let n = d.u64()? as usize;
        let mut customers = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            customers.push(CustomerCheckpoint::decode(d)?);
        }
        Ok(DetectorCheckpoint {
            attack_type,
            threshold,
            window,
            quiet,
            warmup,
            ctx_lens,
            max_alert_minutes,
            timescales,
            hidden,
            mode,
            params,
            customers,
        })
    }
}

/// Atomically writes a detector checkpoint.
pub fn save_detector(path: &Path, ck: &DetectorCheckpoint) -> Result<(), XatuError> {
    write_container(path, KIND_DETECTOR, &ck.encode())
}

/// Loads and validates a detector checkpoint.
pub fn load_detector(path: &Path) -> Result<DetectorCheckpoint, XatuError> {
    load(path, KIND_DETECTOR, DetectorCheckpoint::decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xatu_ckpt_test_{}_{name}", std::process::id()));
        p
    }

    fn sample_trainer_ck() -> TrainerCheckpoint {
        TrainerCheckpoint {
            seed: 42,
            lr_bits: 0.01f64.to_bits(),
            batch_size: 8,
            identity: TrainIdentity::Survival {
                loss: LossKind::Survival,
                sample_count: 100,
            },
            epochs_total: 30,
            epochs_done: 12,
            params: vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE],
            adam_t: 150,
            adam_m: vec![vec![0.1, 0.2], vec![0.3]],
            adam_v: vec![vec![0.01, 0.02], vec![0.03]],
        }
    }

    #[test]
    fn trainer_checkpoint_roundtrips_exactly() {
        let path = tmp_file("trainer_rt");
        let ck = sample_trainer_ck();
        save_trainer(&path, &ck).unwrap();
        let back = load_trainer(&path, KIND_TRAINER).unwrap();
        assert_eq!(ck, back);
        // Bit-exactness, not just PartialEq.
        for (a, b) in ck.params.iter().zip(&back.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // No temp file left behind.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let path = tmp_file("corrupt");
        save_trainer(&path, &sample_trainer_ck()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match load_trainer(&path, KIND_TRAINER) {
            Err(XatuError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let path = tmp_file("trunc");
        save_trainer(&path, &sample_trainer_ck()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        assert!(matches!(
            load_trainer(&path, KIND_TRAINER),
            Err(XatuError::CorruptCheckpoint { .. })
        ));
        // Even a header-only stub fails cleanly.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            load_trainer(&path, KIND_TRAINER),
            Err(XatuError::CorruptCheckpoint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_reported_as_such() {
        let path = tmp_file("version");
        save_trainer(&path, &sample_trainer_ck()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Bump the version field (bytes 4..6) and re-checksum the body so
        // only the version check can fail.
        bytes[4] = 99;
        let body_end = bytes.len() - 8;
        let check = fnv1a64(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&check.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_trainer(&path, KIND_TRAINER),
            Err(XatuError::CheckpointVersion { found: 99, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let path = tmp_file("kind");
        save_trainer(&path, &sample_trainer_ck()).unwrap();
        assert!(matches!(
            read_container(&path, KIND_DETECTOR),
            Err(XatuError::CorruptCheckpoint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = tmp_file("missing_never_written");
        assert!(matches!(
            load_trainer(&path, KIND_TRAINER),
            Err(XatuError::Io { op: "read", .. })
        ));
    }

    #[test]
    fn absurd_vector_length_fails_before_allocating() {
        let path = tmp_file("bomb");
        // A payload claiming a u64::MAX-length f64 vector.
        let mut e = Enc::new();
        e.u64(1);
        e.u64(2);
        e.u64(3);
        e.u8(0);
        e.u64(4);
        e.u64(5);
        e.u64(5);
        e.u64(u64::MAX); // params length prefix
        write_container(&path, KIND_TRAINER, &e.into_bytes()).unwrap();
        assert!(matches!(
            load_trainer(&path, KIND_TRAINER),
            Err(XatuError::CorruptCheckpoint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn autoencoder_checkpoint_roundtrips_exactly() {
        let path = tmp_file("ae_rt");
        let ck = TrainerCheckpoint {
            seed: 3,
            lr_bits: 5e-3f64.to_bits(),
            batch_size: 4,
            identity: TrainIdentity::Autoencoder {
                window_count: 40,
                input_dim: 53,
                hidden: 8,
            },
            epochs_total: 12,
            epochs_done: 5,
            params: vec![0.25, -1.0, f64::MIN_POSITIVE, 0.0],
            adam_t: 50,
            adam_m: vec![vec![0.5], vec![-0.25, 0.125]],
            adam_v: vec![vec![0.01], vec![0.02, 0.03]],
        };
        save_trainer(&path, &ck).unwrap();
        let back = load_trainer(&path, KIND_AUTOENCODER).unwrap();
        assert_eq!(ck, back);
        // A trainer reader must reject the autoencoder kind byte.
        assert!(matches!(
            load_trainer(&path, KIND_TRAINER),
            Err(XatuError::CorruptCheckpoint { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    proptest::proptest! {
        /// XCK1 encode/decode of the autoencoder checkpoint is lossless
        /// for arbitrary field values, including non-round floats.
        #[test]
        fn autoencoder_checkpoint_proptest_roundtrip(
            seed in proptest::prelude::any::<u64>(),
            lr in -1e6f64..1e6,
            batch_size in 1u64..1024,
            window_count in 0u64..10_000,
            input_dim in 1u64..512,
            hidden in 1u64..256,
            epochs_done in 0u64..64,
            extra_epochs in 0u64..64,
            params in proptest::collection::vec(-1e9f64..1e9, 0..64),
            adam_t in proptest::prelude::any::<u64>(),
            m in proptest::collection::vec(
                proptest::collection::vec(-1e9f64..1e9, 0..8), 0..4),
        ) {
            let ck = TrainerCheckpoint {
                seed,
                lr_bits: lr.to_bits(),
                batch_size,
                identity: TrainIdentity::Autoencoder {
                    window_count,
                    input_dim,
                    hidden,
                },
                epochs_total: epochs_done + extra_epochs,
                epochs_done,
                params,
                adam_t,
                adam_m: m.clone(),
                adam_v: m,
            };
            let path = tmp_file(&format!("ae_prop_{seed}_{adam_t}"));
            save_trainer(&path, &ck).unwrap();
            let back = load_trainer(&path, KIND_AUTOENCODER).unwrap();
            std::fs::remove_file(&path).unwrap();
            proptest::prop_assert_eq!(&ck, &back);
            for (a, b) in ck.params.iter().zip(&back.params) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A head keeps its LSTM weights only in the served, transposed layout,
    /// so its checkpoint transposes them back: the parameters equal the
    /// trained model's bit for bit, and a restored head writes the same
    /// bytes again.
    #[test]
    fn served_head_checkpoints_the_trained_bits_and_restores_to_the_same_bytes() {
        use crate::fleet::FleetDetector;
        use crate::model::XatuModel;
        use xatu_features::frame::NUM_FEATURES;
        use xatu_netflow::addr::Ipv4;
        use xatu_nn::Params;
        let cfg = crate::XatuConfig {
            timescales: (1, 3, 6),
            hidden: 5,
            window: 6,
            ..crate::XatuConfig::smoke_test()
        };
        let mut model = XatuModel::new(&cfg);
        let mut trained = vec![0.0; model.param_count()];
        model.export_params_into(&mut trained);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.9, &cfg);
        for m in 0..20u32 {
            for c in 0..3u32 {
                let frame: Vec<f64> = (0..NUM_FEATURES)
                    .map(|k| {
                        if (k as u32 + m + c).is_multiple_of(9) {
                            0.3 * f64::from(c + 1)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                det.observe(Ipv4(10 + c), m, &frame)
                    .expect("minutes ascend");
            }
        }
        let ck = det.to_checkpoint();
        assert_eq!(
            ck.params.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            trained.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let bytes = ck.encode();
        let mut back = FleetDetector::from_checkpoint(&ck).expect("a fresh checkpoint restores");
        assert_eq!(back.to_checkpoint().encode(), bytes);
    }

    /// A real detector record with auxiliary-signal tails set in frames
    /// and open buckets, encoded, and where each customer record starts.
    fn tailed_detector_record() -> (Vec<u8>, Vec<usize>) {
        use crate::fleet::FleetDetector;
        use crate::model::XatuModel;
        use xatu_features::frame::{NUM_FEATURES, VOLUMETRIC_WIDTH};
        use xatu_netflow::addr::Ipv4;
        let cfg = crate::XatuConfig {
            timescales: (1, 3, 6),
            hidden: 2,
            window: 4,
            ..crate::XatuConfig::smoke_test()
        };
        let model = XatuModel::new(&cfg);
        let mut det = FleetDetector::new(model, AttackType::UdpFlood, 0.9, &cfg);
        for m in 0..14u32 {
            for c in 0..3u32 {
                let mut frame = vec![0.0; NUM_FEATURES];
                frame[(m + c) as usize % VOLUMETRIC_WIDTH] = 0.4;
                frame[NUM_FEATURES - 1] = -0.0;
                if (m + c) % 3 != 0 {
                    frame[VOLUMETRIC_WIDTH + (5 * m + c) as usize % 200] = 0.25 * f64::from(c);
                }
                det.observe(Ipv4(20 + c), m, &frame)
                    .expect("minutes ascend");
            }
        }
        let ck = det.to_checkpoint();
        let tailed = |row: &Vec<f64>| row.iter().skip(VOLUMETRIC_WIDTH).any(|v| v.to_bits() != 0);
        assert!(ck.customers.iter().all(|c| tailed(&c.last_frame)));
        assert!(ck.customers.iter().any(|c| tailed(&c.partial[2].0)));
        let mut starts = vec![DetectorCheckpoint {
            customers: Vec::new(),
            ..ck.clone()
        }
        .encode()
        .len()];
        for c in &ck.customers {
            let mut e = Enc::new();
            c.encode(&mut e);
            starts.push(starts[starts.len() - 1] + e.into_bytes().len());
        }
        starts.pop();
        (ck.encode(), starts)
    }

    /// Decodes `payload` as a detector record and restores it; a record
    /// that restores must write the same bytes again. Nothing may panic.
    fn decode_restore_reencode(payload: &[u8]) {
        let mut d = Dec::new(payload);
        let Ok(ck) = DetectorCheckpoint::decode(&mut d) else {
            return;
        };
        if !d.finished() {
            return;
        }
        if let Ok(mut det) = crate::fleet::FleetDetector::from_checkpoint(&ck) {
            assert!(
                det.to_checkpoint().encode() == payload,
                "a restored record wrote different bytes"
            );
        }
    }

    proptest::proptest! {
        /// Arbitrary payloads through the detector decoder and loader.
        #[test]
        fn detector_record_fuzz_arbitrary_payloads(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            decode_restore_reencode(&payload);
        }

        /// Single-byte mutations of a real record with tails set, a third
        /// of them in the header, a third in the customer records and a
        /// third anywhere (the model parameters fill most of the record).
        #[test]
        fn detector_record_fuzz_single_byte_mutations(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 12),
            flips in proptest::collection::vec(proptest::prelude::any::<u8>(), 12),
        ) {
            thread_local! {
                static RECORD: (Vec<u8>, Vec<usize>) = tailed_detector_record();
            }
            RECORD.with(|(good, starts)| {
                decode_restore_reencode(good);
                let head = starts[0];
                for (pick, flip) in picks.iter().zip(&flips) {
                    let at = match pick % 3 {
                        0 => (pick / 3) as usize % 96,
                        1 => head + (pick / 3) as usize % (good.len() - head),
                        _ => (pick / 3) as usize % good.len(),
                    };
                    let mut bad = good.clone();
                    bad[at] ^= flip | 1;
                    decode_restore_reencode(&bad);
                }
            });
        }
    }

    /// The fields a stray byte most often turns into a panic or a record
    /// that restores to different bytes — the header (shape, window,
    /// parameter count) and each customer's address — one bit at a time.
    #[test]
    fn detector_record_header_and_address_bit_flips() {
        let (good, starts) = tailed_detector_record();
        let header = 0..96;
        let addrs = starts.iter().flat_map(|&s| s..s + 4);
        for at in header.chain(addrs) {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                decode_restore_reencode(&bad);
            }
        }
    }

    thread_local! {
        /// Bytes this thread has asked the allocator for.
        static ASKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The system allocator, counting what each thread asks of it, so a
    /// decoder can be held to the length of its input.
    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`; the counter
    // is a const-initialized thread-local `Cell`, which never allocates.
    unsafe impl std::alloc::GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ASKED.try_with(|a| a.set(a.get() + layout.size()));
            // SAFETY: the caller's guarantees for `alloc` pass through.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ASKED.try_with(|a| a.set(a.get() + layout.size()));
            // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
            unsafe { std::alloc::System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            let _ = ASKED.try_with(|a| a.set(a.get() + new_size));
            // SAFETY: `ptr` came from `System` through this allocator, and
            // the caller's other guarantees for `realloc` pass through.
            unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System` through this allocator.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// `f()`, and the bytes this thread asked the allocator for meanwhile.
    fn asked_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = ASKED.with(|a| a.get());
        let out = f();
        (out, ASKED.with(|a| a.get()) - before)
    }

    /// One trainer under fuzz: the model a resume starts from (untrained,
    /// so a record that restores moves it), the run, and a record that
    /// run's [`crate::trainer::minibatch_loop`] wrote.
    struct TrainerFuzz<M> {
        fresh: M,
        run: crate::trainer::MinibatchRun,
        record: Vec<u8>,
    }

    /// Trains `model` two of three epochs through the one minibatch loop,
    /// on gradients that set every parameter chunk's moments, and keeps
    /// the checkpoint it wrote after the second.
    fn trainer_fuzz<M: xatu_nn::Params + Clone + Send>(
        mut model: M,
        identity: TrainIdentity,
    ) -> TrainerFuzz<M> {
        use crate::trainer::{minibatch_loop, MinibatchRun, TrainCheckpointSpec};
        let fresh = model.clone();
        let run = MinibatchRun {
            seed: 5,
            salt: 0,
            lr: 1e-2,
            batch_size: 2,
            epochs: 3,
            grad_clip: 1.0,
            threads: 1,
            identity,
        };
        // Tests run in parallel and each builds its own records: one
        // file per record.
        static BUILT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = BUILT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = tmp_file(&format!("trainer_fuzz_{n}"));
        let spec = TrainCheckpointSpec {
            path: &path,
            every_epochs: 1,
            resume: false,
            kill_after_epochs: Some(2),
        };
        let items: Vec<usize> = (0..4).collect();
        let step = |m: &mut M, &k: &usize, _: &mut ()| {
            let mut i = 0usize;
            m.visit(&mut |_, g| {
                for x in g {
                    *x = ((i * 7 + k) as f64 * 0.37).sin();
                    i += 1;
                }
            });
            1.0
        };
        let mut obs = xatu_obs::Registry::new();
        minibatch_loop(&mut model, &items, &run, &mut obs, Some(&spec), step).expect("trains");
        let record = read_container(&path, identity.kind()).expect("a checkpoint was written");
        std::fs::remove_file(&path).unwrap();
        TrainerFuzz { fresh, run, record }
    }

    /// The two trainers' records: the survival model's (kind 1) and the
    /// companion autoencoder's (kind 3).
    fn trainer_records() -> (
        TrainerFuzz<crate::model::XatuModel>,
        TrainerFuzz<xatu_nn::LstmAutoencoder>,
    ) {
        let cfg = crate::XatuConfig {
            timescales: (1, 3, 6),
            hidden: 2,
            ..crate::XatuConfig::smoke_test()
        };
        let survival = trainer_fuzz(
            crate::model::XatuModel::new(&cfg),
            TrainIdentity::Survival {
                loss: LossKind::Survival,
                sample_count: 4,
            },
        );
        let ae = xatu_nn::LstmAutoencoder::new(5, 3, &mut xatu_nn::init::Initializer::new(2));
        let autoencoder = trainer_fuzz(
            ae,
            TrainIdentity::Autoencoder {
                window_count: 4,
                input_dim: 5,
                hidden: 3,
            },
        );
        (survival, autoencoder)
    }

    fn param_bits(model: &mut impl xatu_nn::Params) -> Vec<u64> {
        let mut p = vec![0.0; model.param_count()];
        model.export_params_into(&mut p);
        p.iter().map(|v| v.to_bits()).collect()
    }

    /// Decodes `payload` as `f`'s kind of trainer record, at no more than
    /// three bytes asked of the allocator per byte of input (a moment
    /// chunk's 8-byte length decodes into a 24-byte `Vec`), and resumes
    /// `f`'s untrained model from it. A refused record leaves the model as
    /// it was; a record that resumes writes the same bytes again and its
    /// moments fit the model, so the next optimizer step runs. Nothing
    /// may panic. True if the record resumed.
    fn decode_resume_reencode<M: xatu_nn::Params + Clone>(
        f: &TrainerFuzz<M>,
        payload: &[u8],
    ) -> bool {
        let kind = f.run.identity.kind();
        let (decoded, asked) = asked_by(|| {
            let mut d = Dec::new(payload);
            TrainerCheckpoint::decode(kind, &mut d).map(|ck| (ck, d.finished()))
        });
        assert!(
            asked <= 3 * payload.len() + 1024,
            "decoding {} bytes asked for {asked}",
            payload.len()
        );
        let Ok((ck, true)) = decoded else {
            return false;
        };
        let mut model = f.fresh.clone();
        let before = param_bits(&mut model);
        let mut adam = xatu_nn::Adam::new(f.run.lr);
        match f.run.resume(&mut model, &mut adam, ck, Path::new("fuzzed")) {
            Err(_) => {
                assert!(
                    param_bits(&mut model) == before,
                    "a refused record changed the model"
                );
                false
            }
            Ok(done) => {
                let again = f.run.checkpoint(&mut model, &adam, done).encode();
                assert!(again == payload, "a resumed record wrote different bytes");
                adam.step(&mut model);
                true
            }
        }
    }

    /// Single-byte mutations of `f`'s record: a third in the identity
    /// header, a third in the optimizer state (the step count, the moment
    /// chunk counts and lengths) and a third anywhere.
    fn byte_mutations<M: xatu_nn::Params + Clone>(f: &TrainerFuzz<M>, picks: &[u64], flips: &[u8]) {
        let good = &f.record;
        let mut d = Dec::new(good);
        let ck = TrainerCheckpoint::decode(f.run.identity.kind(), &mut d).expect("decodes");
        let chunks = |c: &[Vec<f64>]| 8 + c.iter().map(|v| 8 + 8 * v.len()).sum::<usize>();
        let state = 8 + chunks(&ck.adam_m) + chunks(&ck.adam_v);
        let params = good.len() - state - 8 * (ck.params.len() + 1);
        for (pick, flip) in picks.iter().zip(flips) {
            let at = (pick / 3) as usize;
            let at = match pick % 3 {
                0 => at % params,
                1 => good.len() - state + at % state,
                _ => at % good.len(),
            };
            let mut bad = good.clone();
            bad[at] ^= flip | 1;
            decode_resume_reencode(f, &bad);
        }
    }

    /// `f`'s record decoded, changed field by field and encoded again: the
    /// moment chunks re-cut (same count, wrong lengths), one dropped from
    /// the second moments only, one dropped from or added to both, a
    /// parameter or a moment set to `value`, the step count set to `at % 3`.
    fn field_mutation<M: xatu_nn::Params + Clone>(f: &TrainerFuzz<M>, op: u8, at: u64, value: f64) {
        let mut d = Dec::new(&f.record);
        let mut ck = TrainerCheckpoint::decode(f.run.identity.kind(), &mut d).expect("decodes");
        let at = at as usize;
        let n = ck.adam_m.len();
        let set = |c: &mut Vec<Vec<f64>>| {
            let total = c.iter().map(Vec::len).sum::<usize>();
            let x = c.iter_mut().flatten().nth(at % total);
            *x.expect("in range") = value;
        };
        match op {
            0 => {
                let i = at % (n - 1);
                for c in [&mut ck.adam_m, &mut ck.adam_v] {
                    let moved = c[i].pop().expect("a non-empty chunk");
                    c[i + 1].push(moved);
                }
            }
            1 => drop(ck.adam_v.pop()),
            2 => {
                ck.adam_m.remove(at % n);
                ck.adam_v.remove(at % n);
            }
            3 => {
                ck.adam_m.push(vec![0.5; 1 + at % 3]);
                ck.adam_v.push(vec![0.5; 1 + at % 3]);
            }
            4 => {
                let i = at % ck.params.len();
                ck.params[i] = value;
            }
            5 => set(&mut ck.adam_m),
            6 => set(&mut ck.adam_v),
            _ => ck.adam_t = (at % 3) as u64,
        }
        decode_resume_reencode(f, &ck.encode());
    }

    thread_local! {
        static TRAINER_RECORDS: (
            TrainerFuzz<crate::model::XatuModel>,
            TrainerFuzz<xatu_nn::LstmAutoencoder>,
        ) = trainer_records();
    }

    proptest::proptest! {
        /// Arbitrary payloads through both trainer decoders and resumes.
        #[test]
        fn trainer_record_fuzz_arbitrary_payloads(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            TRAINER_RECORDS.with(|(survival, ae)| {
                decode_resume_reencode(survival, &payload);
                decode_resume_reencode(ae, &payload);
            });
        }

        /// Single-byte mutations of a real record of each kind.
        #[test]
        fn trainer_record_fuzz_single_byte_mutations(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 8),
            flips in proptest::collection::vec(proptest::prelude::any::<u8>(), 8),
        ) {
            TRAINER_RECORDS.with(|(survival, ae)| {
                assert!(decode_resume_reencode(survival, &survival.record));
                assert!(decode_resume_reencode(ae, &ae.record));
                byte_mutations(survival, &picks, &flips);
                byte_mutations(ae, &picks, &flips);
            });
        }

        /// Field mutations of a real record of each kind: well-formed
        /// records the resume must refuse, or restore exactly.
        #[test]
        fn trainer_record_fuzz_field_mutations(
            op in 0u8..8,
            at in proptest::prelude::any::<u64>(),
            value_sel in 0usize..4,
        ) {
            let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0][value_sel];
            TRAINER_RECORDS.with(|(survival, ae)| {
                field_mutation(survival, op, at, value);
                field_mutation(ae, op, at, value);
            });
        }
    }

    /// A record with no customers bounds its window by nothing in its own
    /// data, so the loader bounds it: at 2^40 the first customer added
    /// would size a survival ring of 8 TB, and past 2^32/3 the longest
    /// imputed gap (`3 × window`) no longer fits a `u32`. The largest
    /// window allowed restores and takes a customer.
    #[test]
    fn detector_record_window_is_bounded() {
        use crate::fleet::FleetDetector;
        use crate::model::XatuModel;
        use xatu_netflow::addr::Ipv4;
        let cfg = crate::XatuConfig {
            hidden: 2,
            ..crate::XatuConfig::smoke_test()
        };
        let mut det = FleetDetector::new(XatuModel::new(&cfg), AttackType::UdpFlood, 0.9, &cfg);
        let mut ck = det.to_checkpoint();
        assert!(ck.customers.is_empty());
        for window in [1 << 40, u64::MAX, (1 << 32) / 3 + 1, (1 << 15) + 1, 0] {
            ck.window = window;
            let bytes = ck.encode();
            let mut d = Dec::new(&bytes);
            let decoded = DetectorCheckpoint::decode(&mut d).expect("a well-formed record");
            match FleetDetector::from_checkpoint(&decoded) {
                Err(XatuError::InvalidCheckpoint { reason }) => {
                    assert!(reason.contains("survival window"), "{reason}")
                }
                other => panic!("window {window}: {:?}", other.map(|_| ())),
            }
        }
        ck.window = 1 << 15;
        let mut back = FleetDetector::from_checkpoint(&ck).expect("the largest window restores");
        back.add_customer(Ipv4(7));
        assert_eq!(back.to_checkpoint().customers[0].survival.1.len(), 1 << 15);
    }

    #[test]
    fn enum_tags_roundtrip() {
        for t in AttackType::ALL {
            assert_eq!(attack_type_from_tag(attack_type_tag(t)).unwrap(), t);
        }
        for m in [
            TimescaleMode::All,
            TimescaleMode::ShortOnly,
            TimescaleMode::NoShort,
            TimescaleMode::NoMedium,
            TimescaleMode::NoLong,
        ] {
            assert_eq!(mode_from_tag(mode_tag(m)).unwrap(), m);
        }
        for l in [LossKind::Survival, LossKind::CrossEntropy] {
            assert_eq!(loss_from_tag(loss_tag(l)).unwrap(), l);
        }
        assert!(attack_type_from_tag(200).is_err());
        assert!(mode_from_tag(200).is_err());
        assert!(loss_from_tag(200).is_err());
    }
}
