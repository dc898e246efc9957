//! The on-disk trace format: a versioned header followed by a tagged,
//! varint/delta-encoded event stream.
//!
//! Layout (all multi-byte integers are LEB128 varints unless noted):
//!
//! ```text
//! header   := magic "FPXT" | version u16-LE | arch u8 | fast_math u8
//!           | program (len-prefixed UTF-8)
//! kernels  := count | kernel*
//! kernel   := name (len-prefixed UTF-8) | num_regs | num_instrs | checksum
//! events   := event* eof
//! event    := TAG_LAUNCH_START kernel_id plain_cycles nblocks block_cycles*
//!           | TAG_VISIT flags pc-delta(zigzag) [block warp exec guarded]
//!             nvalues value*
//!           | TAG_LAUNCH_END
//! eof      := TAG_EOF total_visits
//! ```
//!
//! Visit compression exploits two regularities of the stream. Visits are
//! drained in ⟨block, seq⟩ order, so consecutive visits usually share
//! their block/warp/mask context (`FLAG_SAME_CTX` elides it), and an
//! `After` visit usually directly follows its `Before` twin at the same
//! pc with near-identical register values — `FLAG_XOR_VALUES` stores the
//! element-wise XOR against the previous visit's values, which varint
//! encoding collapses to one byte per unchanged register.
//!
//! Versioning policy: the magic identifies the family, `VERSION` the
//! layout. Readers reject any version other than their own with
//! [`TraceError::Version`] — there is no "best effort" parse of a
//! mismatched layout, because misinterpreting raw register bits would
//! silently fabricate exception records.

use fpx_sim::gpu::Arch;
use fpx_sim::hooks::When;

/// File magic: identifies an fpx execution trace.
pub const MAGIC: [u8; 4] = *b"FPXT";
/// Current layout version. Bump on any layout change.
pub const VERSION: u16 = 1;

const TAG_LAUNCH_START: u8 = 1;
const TAG_VISIT: u8 = 2;
const TAG_LAUNCH_END: u8 = 3;
const TAG_EOF: u8 = 4;

const FLAG_AFTER: u8 = 1 << 0;
const FLAG_EXCEPTIONAL: u8 = 1 << 1;
const FLAG_SAME_CTX: u8 = 1 << 2;
const FLAG_XOR_VALUES: u8 = 1 << 3;

/// Why a trace could not be read. Every malformed input maps to one of
/// these — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the `FPXT` magic.
    BadMagic,
    /// The file is an fpx trace, but of an unsupported layout version.
    Version { found: u16, supported: u16 },
    /// The stream ended mid-structure.
    Truncated,
    /// A structurally invalid stream (bad tag, out-of-range id, …).
    Corrupt(String),
    /// Replay was handed kernels that do not match the recorded program.
    KernelMismatch { kernel: String, reason: String },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an fpx trace (bad magic)"),
            TraceError::Version { found, supported } => write!(
                f,
                "unsupported trace version {found} (this build reads version {supported})"
            ),
            TraceError::Truncated => write!(f, "trace file is truncated"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::KernelMismatch { kernel, reason } => write!(
                f,
                "kernel `{kernel}` does not match the recorded program: {reason}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Identity of one kernel referenced by the trace. Replay re-derives the
/// actual SASS from the program named in the header; these fields let it
/// verify the code it rebuilt is the code that was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelMeta {
    pub name: String,
    pub num_regs: u16,
    pub num_instrs: u32,
    /// FNV-1a over the kernel's disassembly (see [`kernel_checksum`]).
    pub checksum: u64,
}

/// One recorded instrumented-instruction visit: everything an injected
/// device function could observe, minus the state it never reads.
/// `values` holds the raw 32-bit register bits for each referenced
/// register of the instruction at `pc` (in the canonical order
/// [`crate::record::referenced_regs`] defines) × each guarded lane:
/// register-major, so a register's guarded lanes are one contiguous run
/// that records and replays as a row copy. The wire stays lane-major
/// (see [`wire_order`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Visit {
    pub pc: u32,
    pub when: When,
    pub block: u32,
    pub warp: u8,
    pub exec_mask: u32,
    pub guarded_mask: u32,
    /// Some referenced register held a NaN/INF/subnormal at visit time
    /// (recorder-side classification; drives Chrome-trace instants).
    pub exceptional: bool,
    pub values: Vec<u32>,
}

/// One recorded kernel launch: which kernel ran, what the uninstrumented
/// execution cost (derived during recording), per-block cycles for
/// the SM timeline, and every instrumentation visit in serial
/// ⟨block, seq⟩ order.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchTrace {
    /// Index into [`Trace::kernels`].
    pub kernel: u32,
    /// Cycles the uninstrumented launch took (per-launch plain profile).
    pub plain_cycles: u64,
    /// Plain-execution cycles per thread block, indexed by block id.
    pub block_cycles: Vec<u64>,
    pub visits: Vec<Visit>,
}

/// A complete recorded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub arch: Arch,
    pub fast_math: bool,
    /// What was recorded: a suite program name or a `.sass` path.
    pub program: String,
    pub kernels: Vec<KernelMeta>,
    pub launches: Vec<LaunchTrace>,
}

impl Trace {
    /// Total visits across all launches.
    pub fn total_visits(&self) -> u64 {
        self.launches.iter().map(|l| l.visits.len() as u64).sum()
    }

    /// Serialize to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.out.extend_from_slice(&MAGIC);
        w.out.extend_from_slice(&VERSION.to_le_bytes());
        w.out.push(match self.arch {
            Arch::Turing => 0,
            Arch::Ampere => 1,
        });
        w.out.push(self.fast_math as u8);
        w.str(&self.program);
        w.varint(self.kernels.len() as u64);
        for k in &self.kernels {
            w.str(&k.name);
            w.varint(k.num_regs as u64);
            w.varint(k.num_instrs as u64);
            w.varint(k.checksum);
        }
        for l in &self.launches {
            w.out.push(TAG_LAUNCH_START);
            w.varint(l.kernel as u64);
            w.varint(l.plain_cycles);
            w.varint(l.block_cycles.len() as u64);
            for &c in &l.block_cycles {
                w.varint(c);
            }
            let mut prev: Option<&Visit> = None;
            for v in &l.visits {
                w.visit(v, prev);
                prev = Some(v);
            }
            w.out.push(TAG_LAUNCH_END);
        }
        w.out.push(TAG_EOF);
        w.varint(self.total_visits());
        w.out
    }

    /// Parse the on-disk format. Rejects wrong magic/version and any
    /// structural damage with a typed [`TraceError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(TraceError::Version {
                found: version,
                supported: VERSION,
            });
        }
        let arch = match r.byte()? {
            0 => Arch::Turing,
            1 => Arch::Ampere,
            a => return Err(TraceError::Corrupt(format!("unknown arch byte {a}"))),
        };
        let fast_math = match r.byte()? {
            0 => false,
            1 => true,
            b => return Err(TraceError::Corrupt(format!("bad fast_math byte {b}"))),
        };
        let program = r.str()?;
        let kernels = r.kernel_metas(bytes.len())?;
        let nkernels = kernels.len();
        let mut launches = Vec::new();
        let mut visits_seen = 0u64;
        loop {
            match r.byte()? {
                TAG_LAUNCH_START => {
                    let kernel: u32 = r.varint_as("launch kernel index")?;
                    if kernel as usize >= kernels.len() {
                        return Err(TraceError::Corrupt(format!(
                            "launch references kernel {kernel} of {nkernels}"
                        )));
                    }
                    let plain_cycles = r.varint()?;
                    let nblocks: usize = r.varint_as("block count")?;
                    if nblocks > bytes.len() {
                        return Err(TraceError::Corrupt(format!("block count {nblocks}")));
                    }
                    let mut block_cycles = Vec::with_capacity(nblocks);
                    for _ in 0..nblocks {
                        block_cycles.push(r.varint()?);
                    }
                    let mut visits = Vec::new();
                    loop {
                        match r.byte()? {
                            TAG_VISIT => {
                                let v = r.visit(visits.last())?;
                                visits.push(v);
                            }
                            TAG_LAUNCH_END => break,
                            t => {
                                return Err(TraceError::Corrupt(format!(
                                    "unexpected tag {t} inside launch"
                                )))
                            }
                        }
                    }
                    visits_seen += visits.len() as u64;
                    launches.push(LaunchTrace {
                        kernel,
                        plain_cycles,
                        block_cycles,
                        visits,
                    });
                }
                TAG_EOF => {
                    let declared = r.varint()?;
                    if declared != visits_seen {
                        return Err(TraceError::Corrupt(format!(
                            "EOF declares {declared} visits, stream holds {visits_seen}"
                        )));
                    }
                    break;
                }
                t => return Err(TraceError::Corrupt(format!("unexpected top-level tag {t}"))),
            }
        }
        Ok(Trace {
            arch,
            fast_math,
            program,
            kernels,
            launches,
        })
    }
}

/// FNV-1a over a kernel's name, register count, and full disassembly —
/// the identity check that keeps replay from feeding a trace through the
/// wrong (e.g. re-edited) kernel. Delegates to the canonical
/// [`KernelCode::checksum`](fpx_sass::kernel::KernelCode::checksum), which
/// `fpx-nvbit` also uses to key its pre-decoded instrumentation cache —
/// the two layers deliberately share one fingerprint.
pub fn kernel_checksum(code: &fpx_sass::kernel::KernelCode) -> u64 {
    code.checksum()
}

/// How a visit's `values` are laid out. The wire is lane-major (lane
/// `k`'s registers, then lane `k+1`'s); storage is register-major, so
/// wire value `k·n + j` (lane `k`, register `j` of `n`) sits at
/// `j·lanes + k`. A length that is no whole number of lanes (only a
/// corrupt trace has one; replay rejects it) is kept in wire order.
#[derive(Clone, Copy, PartialEq)]
struct Layout {
    lanes: usize,
    nregs: usize,
}

impl Layout {
    fn of(len: usize, guarded_mask: u32) -> Self {
        let lanes = guarded_mask.count_ones() as usize;
        if lanes != 0 && len.is_multiple_of(lanes) {
            Layout {
                lanes,
                nregs: len / lanes,
            }
        } else {
            Layout {
                lanes: 1,
                nregs: len,
            }
        }
    }

    /// `values` (register-major) into `wire` (lane-major).
    fn to_wire(self, values: &[u32], wire: &mut Vec<u32>) {
        wire.clear();
        for k in 0..self.lanes {
            wire.extend((0..self.nregs).map(|j| values[j * self.lanes + k]));
        }
    }

    /// `wire` (lane-major) into register-major values.
    fn to_storage(self, wire: &[u32]) -> Vec<u32> {
        let mut values = Vec::with_capacity(wire.len());
        for j in 0..self.nregs {
            values.extend((0..self.lanes).map(|k| wire[k * self.nregs + j]));
        }
        values
    }
}

/// The previous visit's values in wire order, as XOR coding pairs them:
/// `scratch` when it holds exactly that visit (the usual case, since
/// visits are coded in sequence), else rebuilt from `prev`.
fn prev_wire<'s>(prev: &Visit, scratch: &'s mut Vec<u32>) -> &'s [u32] {
    if scratch.len() != prev.values.len() {
        Layout::of(prev.values.len(), prev.guarded_mask).to_wire(&prev.values, scratch);
    }
    scratch
}

/// Varint byte-stream writer, shared with the cache-entry format in
/// [`crate::cache`].
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) out: Vec<u8>,
    /// The previous and the current visit's values in wire order.
    wire: (Vec<u32>, Vec<u32>),
}

impl Writer {
    pub(crate) fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                break;
            }
            self.out.push(byte | 0x80);
        }
    }

    fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn visit(&mut self, v: &Visit, prev: Option<&Visit>) {
        let mut flags = 0u8;
        if v.when == When::After {
            flags |= FLAG_AFTER;
        }
        if v.exceptional {
            flags |= FLAG_EXCEPTIONAL;
        }
        let same_ctx = prev.is_some_and(|p| {
            p.block == v.block
                && p.warp == v.warp
                && p.exec_mask == v.exec_mask
                && p.guarded_mask == v.guarded_mask
        });
        if same_ctx {
            flags |= FLAG_SAME_CTX;
        }
        let xor = prev.is_some_and(|p| p.values.len() == v.values.len() && !v.values.is_empty());
        if xor {
            flags |= FLAG_XOR_VALUES;
        }
        self.out.push(TAG_VISIT);
        self.out.push(flags);
        self.zigzag(v.pc as i64 - prev.map_or(0, |p| p.pc as i64));
        if !same_ctx {
            self.varint(v.block as u64);
            self.out.push(v.warp);
            self.varint(v.exec_mask as u64);
            self.varint(v.guarded_mask as u64);
        }
        self.varint(v.values.len() as u64);
        let (mut prev_scratch, mut cur) = std::mem::take(&mut self.wire);
        Layout::of(v.values.len(), v.guarded_mask).to_wire(&v.values, &mut cur);
        match prev.filter(|_| xor) {
            Some(p) => {
                let pw = prev_wire(p, &mut prev_scratch);
                for (&val, &pv) in cur.iter().zip(pw) {
                    self.varint((val ^ pv) as u64);
                }
            }
            None => {
                for &val in &cur {
                    self.varint(val as u64);
                }
            }
        }
        self.wire = (cur, prev_scratch);
    }
}

/// Varint byte-stream reader, shared with the cache-entry format in
/// [`crate::cache`].
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    /// The previous and the current visit's values in wire order.
    wire: (Vec<u32>, Vec<u32>),
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            wire: Default::default(),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn byte(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(TraceError::Corrupt("varint overflows u64".into()));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Result<i64, TraceError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// A varint that must fit `T`; anything wider is corruption, never a
    /// silent truncation.
    pub(crate) fn varint_as<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, TraceError> {
        let v = self.varint()?;
        T::try_from(v).map_err(|_| TraceError::Corrupt(format!("{what} {v} out of range")))
    }

    /// The kernel-metadata table shared by traces and cache entries.
    pub(crate) fn kernel_metas(&mut self, total_len: usize) -> Result<Vec<KernelMeta>, TraceError> {
        let nkernels: usize = self.varint_as("kernel count")?;
        if nkernels > total_len {
            return Err(TraceError::Corrupt(format!("kernel count {nkernels}")));
        }
        let mut kernels = Vec::with_capacity(nkernels);
        for _ in 0..nkernels {
            kernels.push(KernelMeta {
                name: self.str()?,
                num_regs: self.varint_as("register count")?,
                num_instrs: self.varint_as("instruction count")?,
                checksum: self.varint()?,
            });
        }
        Ok(kernels)
    }

    pub(crate) fn str(&mut self) -> Result<String, TraceError> {
        let len: usize = self.varint_as("string length")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::Corrupt("string is not UTF-8".into()))
    }

    /// Decode one visit body (the `TAG_VISIT` byte is already consumed).
    fn visit(&mut self, prev: Option<&Visit>) -> Result<Visit, TraceError> {
        let flags = self.byte()?;
        let delta = self.zigzag()?;
        let pc = prev
            .map_or(0, |p| p.pc as i64)
            .checked_add(delta)
            .and_then(|pc| u32::try_from(pc).ok())
            .ok_or_else(|| TraceError::Corrupt(format!("visit pc delta {delta}")))?;
        let (block, warp, exec_mask, guarded_mask) = if flags & FLAG_SAME_CTX != 0 {
            let p = prev.ok_or_else(|| {
                TraceError::Corrupt("first visit of a launch claims SAME_CTX".into())
            })?;
            (p.block, p.warp, p.exec_mask, p.guarded_mask)
        } else {
            (
                self.varint_as("visit block")?,
                self.byte()?,
                self.varint_as("exec mask")?,
                self.varint_as("guarded mask")?,
            )
        };
        let n: usize = self.varint_as("value count")?;
        if n > self.buf.len() {
            return Err(TraceError::Corrupt(format!("visit claims {n} values")));
        }
        let xor = flags & FLAG_XOR_VALUES != 0;
        if xor && prev.map_or(0, |p| p.values.len()) != n {
            return Err(TraceError::Corrupt("XOR_VALUES length mismatch".into()));
        }
        let (mut prev_scratch, mut cur) = std::mem::take(&mut self.wire);
        cur.clear();
        match prev.filter(|_| xor) {
            Some(p) => {
                let pw = prev_wire(p, &mut prev_scratch);
                for &pv in pw {
                    cur.push(self.varint_as::<u32>("register value")? ^ pv);
                }
            }
            None => {
                for _ in 0..n {
                    cur.push(self.varint_as("register value")?);
                }
            }
        }
        let values = Layout::of(n, guarded_mask).to_storage(&cur);
        self.wire = (cur, prev_scratch);
        Ok(Visit {
            pc,
            when: if flags & FLAG_AFTER != 0 {
                When::After
            } else {
                When::Before
            },
            block,
            warp,
            exec_mask,
            guarded_mask,
            exceptional: flags & FLAG_EXCEPTIONAL != 0,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            arch: Arch::Ampere,
            fast_math: false,
            program: "unit".into(),
            kernels: vec![KernelMeta {
                name: "k0".into(),
                num_regs: 8,
                num_instrs: 5,
                checksum: 0xdead_beef,
            }],
            launches: vec![LaunchTrace {
                kernel: 0,
                plain_cycles: 1234,
                block_cycles: vec![600, 634],
                visits: vec![
                    Visit {
                        pc: 2,
                        when: When::Before,
                        block: 0,
                        warp: 0,
                        exec_mask: u32::MAX,
                        guarded_mask: u32::MAX,
                        exceptional: false,
                        values: vec![0x3f80_0000, 0x7fc0_0000],
                    },
                    Visit {
                        pc: 2,
                        when: When::After,
                        block: 0,
                        warp: 0,
                        exec_mask: u32::MAX,
                        guarded_mask: u32::MAX,
                        exceptional: true,
                        values: vec![0x7fc0_0000, 0x7fc0_0000],
                    },
                ],
            }],
        }
    }

    /// A trace header with one kernel declaring `num_regs`, as raw varints.
    fn header_with_regs(num_regs: u64) -> Writer {
        let mut w = Writer::default();
        w.out.extend_from_slice(&MAGIC);
        w.out.extend_from_slice(&VERSION.to_le_bytes());
        w.out.extend_from_slice(&[1, 0]); // Ampere, no fast math
        w.str("prog");
        w.varint(1);
        w.str("k");
        w.varint(num_regs);
        w.varint(3);
        w.varint(0xabc);
        w
    }

    fn finish(mut w: Writer) -> Vec<u8> {
        w.out.push(TAG_EOF);
        w.varint(0);
        w.out
    }

    #[test]
    fn rejects_a_launch_kernel_index_past_u32() {
        // 2^32 used to truncate to kernel 0 and pass the bounds check.
        let launch = |kernel: u64| {
            let mut w = header_with_regs(8);
            w.out.push(TAG_LAUNCH_START);
            w.varint(kernel);
            w.varint(100); // plain cycles
            w.varint(0); // no blocks
            w.out.push(TAG_LAUNCH_END);
            finish(w)
        };
        assert_eq!(Trace::from_bytes(&launch(0)).unwrap().launches.len(), 1);
        assert!(matches!(
            Trace::from_bytes(&launch(1 << 32)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_a_register_count_past_u16() {
        // 65 546 used to truncate to 10 registers.
        assert_eq!(
            Trace::from_bytes(&finish(header_with_regs(65_535)))
                .unwrap()
                .kernels[0]
                .num_regs,
            65_535
        );
        assert!(matches!(
            Trace::from_bytes(&finish(header_with_regs(65_546))),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn round_trips() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn adjacent_before_after_compresses() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        // The After visit rides on SAME_CTX + XOR: tag, flags, pc-delta 0,
        // nvalues, one changed + one unchanged value — well under a raw
        // encoding of two masks and two u32 values.
        assert!(bytes.len() < 80, "{} bytes", bytes.len());
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(Trace::from_bytes(b"NOPE....."), Err(TraceError::BadMagic));
        assert_eq!(Trace::from_bytes(b""), Err(TraceError::Truncated));
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = sample_trace().to_bytes();
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Version {
                found: 0xffff,
                supported: VERSION
            })
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample_trace().to_bytes();
        for cut in 0..bytes.len() {
            let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated | TraceError::Corrupt(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_flipped_tag_bytes() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            // Any single-byte corruption must produce an error or a
            // different trace — never a panic.
            let _ = Trace::from_bytes(&bad);
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::default();
            w.varint(v);
            let mut r = Reader::new(&w.out);
            assert_eq!(r.varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            let mut w = Writer::default();
            w.zigzag(v);
            let mut r = Reader::new(&w.out);
            assert_eq!(r.zigzag().unwrap(), v);
        }
    }
}
