//! Record-once, replay-everywhere execution traces.
//!
//! The kernel sequence an application executes — which frontiers it
//! processes, with which degrees and worklist pushes — depends only on the
//! application and its input graph, *not* on the chip or the optimisation
//! configuration (the optimisations of the study are semantics-preserving
//! program transformations). The study exploits this: each (application,
//! input) pair is executed once against a [`Recorder`], and the recorded
//! [`Trace`] is then replayed against every chip × configuration cell,
//! which only re-prices the same work.
//!
//! # Storage layout
//!
//! A trace is stored structure-of-arrays: one contiguous [`WorkItem`]
//! arena shared by every recorded call, a small table of interned
//! [`KernelProfile`]s (one per distinct kernel name), and a per-call
//! record holding a profile id plus an `(start, len)` range into the
//! arena. Recording `k` calls therefore costs one amortised arena
//! allocation rather than `k` heap vectors and `k` profile clones.
//! [`Trace::call`] and [`Trace::calls`] present the familiar per-call
//! view as cheap borrows into the arena.
//!
//! Frontiers are interned like profiles: a call whose items equal an
//! earlier call's — of any kernel — shares that call's range instead of
//! copying the items again. Topology-driven kernels launch over the same
//! frontier every iteration, so the arena holds each distinct frontier
//! once. Every call's range is therefore either *fresh*, starting where
//! the arena's earlier fresh ranges end (the fresh ranges cover the arena
//! exactly and in order), or a *repeat* of an earlier call's range.
//! [`Trace::num_items`] and [`Trace::num_edges`] count the work of every
//! call, repeats included; [`Trace::items`] and [`Trace::arena_bytes`]
//! report the stored arena, which holds fewer items.
//!
//! Replay cost is further reduced by pre-aggregating each recorded
//! frontier per (workgroup size, subgroup size) pair into a
//! [`crate::exec::RowTable`]: distinct workgroup rows once, calls as row
//! ids. Tables for *all* geometries a chip set needs are built in a
//! single pass over the arena ([`crate::exec::RowTableBuilder`]; a
//! repeated call copies its source call's row ids instead): each
//! item is classified once into a degree bin whose class is known in
//! advance for every geometry, and the bin summaries fold into each
//! geometry's workgroups at chunk boundaries, so aggregation cost is
//! O(items) plus a per-chunk fold. A [`CompiledTrace`] keeps its built
//! tables in one locked list and builds all that a request lacks in one
//! such pass, so each geometry is built at most once however many
//! threads replay it; call [`CompiledTrace::precompile_all`] for the
//! run's chip set first, so the parallel section only looks tables up.
//!
//! [`CompiledTrace::replay`] prices one (chip, configuration) through a
//! [`crate::exec::Session`] — the scalar reference, which also returns
//! the run's cost attribution.
//! [`CompiledTrace::replay_all_configs_many_chips`] prices every
//! configuration for every chip of a [`ChipBatch`] (a geometry family) in
//! one walk per geometry; the study, the sweep and the cloud pricing all
//! go through it, and [`CompiledTrace::replay_all_configs`] is its
//! one-chip form.
//!
//! # Binary encoding
//!
//! [`Trace::encode`] writes a trace as one little-endian byte string for
//! the persistent trace cache, and [`Trace::decode`] reads it back
//! exactly (every `f64` travels as its bits); [`Trace::read_from`] does
//! the same from a reader, decoding as the bytes stream in:
//!
//! | field | bytes |
//! |---|---|
//! | magic tag `GPPTRACE` | 8 |
//! | [`RECORDER_VERSION`] | 4 (`u32`) |
//! | profile, call and item counts | 4 + 8 + 8 (`u32`, `u64`, `u64`) |
//! | per profile: name length, UTF-8 name, the seven `f64` cost fields as bits, `irregular` | 4 + n + 56 + 1 |
//! | per call: profile id, arena start, length (a fresh or a repeated range) | 4 + 8 + 8 |
//! | the item arena as `(degree, pushes)` pairs | 8 per item |
//! | word-wise FNV-1a checksum of everything before it | 8 |
//!
//! The item count is the arena's, not the calls' total. A decoded trace
//! is trusted by replay, which indexes the profile table and the arena
//! without further checks, so decoding validates every invariant replay
//! relies on — among them that each call's range is fresh or repeats an
//! earlier call's — and returns `None`, never panics, on any violation.
//!
//! # Example
//!
//! ```
//! use gpp_sim::chip::ChipProfile;
//! use gpp_sim::exec::{Executor, KernelProfile, Machine, WorkItem};
//! use gpp_sim::opts::OptConfig;
//! use gpp_sim::trace::{CompiledTrace, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.kernel(&KernelProfile::frontier("bfs"), &[WorkItem::new(5, 2); 100]);
//! let compiled = CompiledTrace::new(rec.into_trace());
//!
//! let machine = Machine::new(ChipProfile::r9());
//! let (stats, breakdown) = compiled.replay(&machine, OptConfig::baseline());
//! assert_eq!(stats.kernels, 1);
//! assert!((breakdown.total() - stats.time_ns).abs() < 1e-9 * stats.time_ns);
//!
//! // One traversal prices every configuration of the study space.
//! let all = compiled.replay_all_configs(&machine);
//! assert_eq!(all[OptConfig::baseline().index()], stats);
//! ```

use std::collections::HashMap;
use std::io::{self, Read};
use std::sync::{Arc, Mutex};

use gpp_obs::metrics;
use gpp_obs::CostBreakdown;

use crate::chip::{ChipBatch, ChipProfile};
use crate::exec::{
    BatchGroupPricer, Executor, KernelProfile, Machine, RowTable, RowTableBuilder, RunStats,
    WorkItem,
};
use crate::opts::{all_configs, OptConfig, NUM_CONFIGS};

/// Version stamp of the recorded trace format and recording semantics.
///
/// Any change to the arena layout, the binary encoding, the interning
/// rules, or what a [`Recorder`] captures per call must bump this
/// constant; persistent trace caches key on it and [`Trace::decode`]
/// checks it, so stale on-disk traces are invalidated rather than
/// silently replayed.
pub const RECORDER_VERSION: u32 = 4;

/// Leading tag of an encoded trace (see the module docs).
const MAGIC: [u8; 8] = *b"GPPTRACE";
/// Encoded bytes before the first profile: magic, version, and the
/// profile, call and item counts.
const HEADER_BYTES: usize = 8 + 4 + 4 + 8 + 8;
/// Encoded bytes of one call record: profile id, arena start, length.
const CALL_BYTES: usize = 4 + 8 + 8;
/// Encoded bytes of one [`WorkItem`]: degree, pushes.
const ITEM_BYTES: usize = 4 + 4;
/// Encoded bytes of one profile besides its name: name length, the seven
/// `f64` cost fields, `irregular`.
const PROFILE_FIXED_BYTES: usize = 4 + 7 * 8 + 1;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One recorded call: an interned profile id plus the `(start, len)`
/// range of its frontier in the shared item arena, fresh or shared with
/// an earlier call (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CallRecord {
    profile: u32,
    start: usize,
    len: usize,
}

/// A borrowed view of one recorded kernel invocation.
#[derive(Debug, Clone, Copy)]
pub struct TraceCall<'a> {
    /// The kernel's operation-count profile.
    pub profile: &'a KernelProfile,
    /// The frontier it processed (a slice of the trace's item arena).
    pub items: &'a [WorkItem],
}

/// A recorded application run: the exact sequence of kernel invocations
/// with their frontiers, stored structure-of-arrays (see the module
/// docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Every distinct frontier, back to back in first-call order.
    items: Vec<WorkItem>,
    /// Per-call profile id and arena range, in execution order.
    calls: Vec<CallRecord>,
    /// Interned profiles; `CallRecord::profile` indexes this table.
    profiles: Vec<KernelProfile>,
}

impl Trace {
    /// The `i`-th recorded kernel invocation.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_kernels()`.
    pub fn call(&self, i: usize) -> TraceCall<'_> {
        let c = &self.calls[i];
        TraceCall {
            profile: &self.profiles[c.profile as usize],
            items: &self.items[c.start..c.start + c.len],
        }
    }

    /// The recorded kernel invocations, in execution order.
    pub fn calls(&self) -> impl ExactSizeIterator<Item = TraceCall<'_>> + '_ {
        self.calls.iter().map(|c| TraceCall {
            profile: &self.profiles[c.profile as usize],
            items: &self.items[c.start..c.start + c.len],
        })
    }

    /// The whole item arena: every distinct frontier once, back to back.
    /// A repeated frontier is stored once, so this can hold fewer items
    /// than [`Trace::num_items`] counts.
    pub fn items(&self) -> &[WorkItem] {
        &self.items
    }

    /// The interned kernel profiles, one per distinct kernel name.
    pub fn profiles(&self) -> &[KernelProfile] {
        &self.profiles
    }

    /// Number of recorded kernel invocations.
    pub fn num_kernels(&self) -> usize {
        self.calls.len()
    }

    /// Total work items over all invocations, a repeated frontier counted
    /// at every call: the work done, not the arena's length.
    pub fn num_items(&self) -> usize {
        self.calls.iter().map(|c| c.len).sum()
    }

    /// Total edges over all invocations, a repeated frontier counted at
    /// every call.
    pub fn num_edges(&self) -> u64 {
        self.calls()
            .map(|call| call.items.iter().map(|i| u64::from(i.degree)).sum::<u64>())
            .sum()
    }

    /// Bytes held by the item arena (capacity, not length): the dominant
    /// memory cost of a trace. The arena stores each distinct frontier
    /// once, so this falls when calls repeat a frontier.
    pub fn arena_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<WorkItem>()
    }

    /// Encodes the trace in the binary layout of the module docs;
    /// [`Trace::decode`] reads it back exactly.
    pub fn encode(&self) -> Vec<u8> {
        let names: usize = self.profiles.iter().map(|p| p.name.len()).sum();
        let len = HEADER_BYTES
            + self.profiles.len() * PROFILE_FIXED_BYTES
            + names
            + self.calls.len() * CALL_BYTES
            + self.items.len() * ITEM_BYTES
            + 8;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&RECORDER_VERSION.to_le_bytes());
        out.extend_from_slice(&len_u32(self.profiles.len()).to_le_bytes());
        out.extend_from_slice(&(self.calls.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.items.len() as u64).to_le_bytes());
        for p in &self.profiles {
            out.extend_from_slice(&len_u32(p.name.len()).to_le_bytes());
            out.extend_from_slice(p.name.as_bytes());
            // The order `decode` reads them in.
            for x in [
                p.alu_per_edge,
                p.reads_per_edge,
                p.writes_per_edge,
                p.atomics_per_edge,
                p.alu_per_node,
                p.reads_per_node,
                p.writes_per_node,
            ] {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            out.push(u8::from(p.irregular));
        }
        for c in &self.calls {
            out.extend_from_slice(&c.profile.to_le_bytes());
            out.extend_from_slice(&(c.start as u64).to_le_bytes());
            out.extend_from_slice(&(c.len as u64).to_le_bytes());
        }
        let arena = out.len();
        out.resize(arena + self.items.len() * ITEM_BYTES, 0);
        let (slots, _) = out[arena..].as_chunks_mut::<ITEM_BYTES>();
        for (slot, item) in slots.iter_mut().zip(&self.items) {
            *slot = (u64::from(item.degree) | u64::from(item.pushes) << 32).to_le_bytes();
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Decodes bytes written by [`Trace::encode`], or returns `None` if
    /// they are not a valid encoding: a checksum, magic or
    /// [`RECORDER_VERSION`] mismatch, a count that overruns the bytes, a
    /// name that is not UTF-8, an `irregular` byte other than 0 or 1, a
    /// profile id out of range, a call range that neither starts at the
    /// arena end so far nor repeats an earlier call's range, fresh ranges
    /// that do not cover the arena exactly, or bytes trailing the arena.
    /// Never panics, and allocates nothing a count claims until the bytes
    /// for it are known to be there.
    pub fn decode(bytes: &[u8]) -> Option<Trace> {
        Trace::read_from(bytes, bytes.len() as u64).ok().flatten()
    }

    /// [`Trace::decode`] over the `len` bytes `source` holds, streamed
    /// through a small buffer instead of read whole: `Ok(None)` where
    /// `decode` returns `None`, an error if reading fails. The checksum
    /// is checked after the rest, and `len` bounds every count, so
    /// nothing is allocated that `len` bytes could not hold.
    ///
    /// # Errors
    ///
    /// Propagates the failure to read `source`, including its ending
    /// before `len` bytes.
    pub fn read_from(source: impl Read, len: u64) -> io::Result<Option<Trace>> {
        let Some(body) = usize::try_from(len).ok().and_then(|n| n.checked_sub(8)) else {
            return Ok(None);
        };
        let mut r = Reader {
            source,
            left: body,
            sum: Checksum::new(),
            error: None,
        };
        let trace = r.trace();
        if let Some(e) = r.error {
            return Err(e);
        }
        let Some(trace) = trace else {
            return Ok(None);
        };
        let mut sum = [0u8; 8];
        r.source.read_exact(&mut sum)?;
        // Nothing may follow the checksum.
        let valid = r.sum.finish() == u64::from_le_bytes(sum) && r.source.read(&mut [0])? == 0;
        Ok(valid.then_some(trace))
    }
}

/// Per call, the earlier call whose range it repeats (`None` for a fresh
/// range, which starts where the fresh ranges before it end), and the end
/// of the last fresh range: the arena length the calls need. Returns
/// `None` if some call's range is neither fresh nor a repeat, or the
/// fresh ranges overflow.
fn call_sources(calls: &[CallRecord]) -> Option<(Vec<Option<usize>>, usize)> {
    // (start, len, call) of each fresh range: sorted, as each starts
    // where the previous one ends.
    let mut fresh: Vec<(usize, usize, usize)> = Vec::new();
    let mut end = 0usize;
    let sources = calls
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if c.start == end {
                end = end.checked_add(c.len)?;
                fresh.push((c.start, c.len, i));
                return Some(None);
            }
            let at = fresh
                .binary_search_by_key(&(c.start, c.len), |&(start, len, _)| (start, len))
                .ok()?;
            Some(Some(fresh[at].2))
        })
        .collect::<Option<_>>()?;
    Some((sources, end))
}

fn len_u32(len: usize) -> u32 {
    u32::try_from(len).expect("profile tables and kernel names stay below 2^32")
}

/// Word-wise FNV-1a over `bytes`: each little-endian 8-byte word (the
/// last one zero-padded), then the byte length. Every step is a bijection
/// of the running state, so changing any single word always changes the
/// sum, and the length word keeps zero padding from hiding a truncation.
fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] fed in pieces of any length.
struct Checksum {
    state: u64,
    /// The bytes of the word not yet complete.
    pending: [u8; 8],
    filled: usize,
    len: u64,
}

impl Checksum {
    fn new() -> Checksum {
        Checksum {
            state: FNV_OFFSET,
            pending: [0; 8],
            filled: 0,
            len: 0,
        }
    }

    fn word(&mut self, word: [u8; 8]) {
        self.state = (self.state ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let n = bytes.len().min(8 - self.filled);
            self.pending[self.filled..self.filled + n].copy_from_slice(&bytes[..n]);
            self.filled += n;
            bytes = &bytes[n..];
            if self.filled < 8 {
                return;
            }
            self.word(self.pending);
        }
        let (words, tail) = bytes.as_chunks::<8>();
        for &w in words {
            self.word(w);
        }
        self.pending[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    fn finish(mut self) -> u64 {
        self.pending[self.filled..].fill(0);
        self.word(self.pending);
        self.word(self.len.to_le_bytes());
        self.state
    }
}

/// Bytes of the item arena [`Trace::read_from`] reads at a time.
const ITEM_CHUNK: usize = 64 << 10;

/// The encoding [`Trace::read_from`] has not consumed yet, bar the
/// trailing checksum: every read is bounded by the `left` bytes and
/// yields `None` past them, or on a read error, which it keeps.
struct Reader<R> {
    source: R,
    left: usize,
    sum: Checksum,
    error: Option<io::Error>,
}

impl<R: Read> Reader<R> {
    /// The encoded trace, checksum aside.
    fn trace(&mut self) -> Option<Trace> {
        if self.array()? != MAGIC || self.u32()? != RECORDER_VERSION {
            return None;
        }
        let n_profiles = self.u32()? as usize;
        let n_calls = usize::try_from(self.u64()?).ok()?;
        let n_items = usize::try_from(self.u64()?).ok()?;

        if n_profiles > self.left / PROFILE_FIXED_BYTES {
            return None;
        }
        let mut profiles = Vec::with_capacity(n_profiles);
        for _ in 0..n_profiles {
            let name_len = self.u32()? as usize;
            let name = String::from_utf8(self.bytes(name_len)?).ok()?;
            // Struct fields evaluate in source order: `encode`'s order.
            profiles.push(KernelProfile {
                name,
                alu_per_edge: self.f64()?,
                reads_per_edge: self.f64()?,
                writes_per_edge: self.f64()?,
                atomics_per_edge: self.f64()?,
                alu_per_node: self.f64()?,
                reads_per_node: self.f64()?,
                writes_per_node: self.f64()?,
                irregular: match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            });
        }

        // The call table and the arena fill the rest exactly.
        let rest = n_calls
            .checked_mul(CALL_BYTES)?
            .checked_add(n_items.checked_mul(ITEM_BYTES)?)?;
        if rest != self.left {
            return None;
        }
        let mut calls = Vec::with_capacity(n_calls);
        for _ in 0..n_calls {
            let profile = self.u32()?;
            let start = usize::try_from(self.u64()?).ok()?;
            let len = usize::try_from(self.u64()?).ok()?;
            if profile as usize >= profiles.len() {
                return None;
            }
            calls.push(CallRecord {
                profile,
                start,
                len,
            });
        }
        if call_sources(&calls)?.1 != n_items {
            return None;
        }
        let mut items = Vec::with_capacity(n_items);
        let mut chunk = vec![0u8; self.left.min(ITEM_CHUNK)];
        while self.left > 0 {
            let n = self.left.min(ITEM_CHUNK);
            self.fill(&mut chunk[..n])?;
            let (words, _) = chunk[..n].as_chunks::<ITEM_BYTES>();
            items.extend(words.iter().map(|w| {
                let w = u64::from_le_bytes(*w);
                WorkItem::new(w as u32, (w >> 32) as u32)
            }));
        }
        Some(Trace {
            items,
            calls,
            profiles,
        })
    }

    /// Fills `buf` from the source and adds it to the checksum.
    fn fill(&mut self, buf: &mut [u8]) -> Option<()> {
        self.left = self.left.checked_sub(buf.len())?;
        if let Err(e) = self.source.read_exact(buf) {
            self.error = Some(e);
            return None;
        }
        self.sum.update(buf);
        Some(())
    }

    fn bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        if n > self.left {
            return None;
        }
        let mut buf = vec![0; n];
        self.fill(&mut buf)?;
        Some(buf)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let mut buf = [0; N];
        self.fill(&mut buf)?;
        Some(buf)
    }

    fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

/// An [`Executor`] that records instead of timing.
///
/// Frontiers append into one shared arena and profiles are interned by
/// kernel name, so recording is one amortised allocation per call; a
/// frontier equal to an earlier call's shares its range instead. See the
/// module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    trace: Trace,
    // Kernel name -> index into trace.profiles.
    interned: HashMap<String, u32>,
    // `frontier_key` -> the calls, most recent last, whose fresh ranges
    // hold a frontier with that key.
    frontiers: HashMap<u64, Vec<usize>>,
}

/// Fresh ranges kept per frontier key: a bound on the comparisons one
/// call can make when distinct frontiers share a key.
const FRONTIER_CANDIDATES: usize = 4;

/// A cheap key for a non-empty frontier: its length and at most 17 items
/// spread evenly over it. Equal frontiers have equal keys, so a key
/// match is only a candidate, confirmed by comparing the items.
fn frontier_key(items: &[WorkItem]) -> u64 {
    const SAMPLES: usize = 16;
    let step = (items.len() / SAMPLES).max(1);
    items
        .iter()
        .step_by(step)
        .take(SAMPLES)
        .chain(items.last())
        .fold(items.len() as u64, |h, item| {
            let word = u64::from(item.degree) | u64::from(item.pushes) << 32;
            (h.rotate_left(29) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        })
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Consumes the recorder, returning the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Executor for Recorder {
    fn kernel(&mut self, profile: &KernelProfile, items: &[WorkItem]) {
        let id = match self.interned.get(&profile.name) {
            Some(&id) => {
                // Interning merges calls by name; two kernels sharing a
                // name but differing structurally would silently collapse
                // into one profile, so that is a recording bug.
                debug_assert_eq!(
                    &self.trace.profiles[id as usize], profile,
                    "kernel {:?} re-recorded with a structurally different profile",
                    profile.name
                );
                id
            }
            None => {
                let id = u32::try_from(self.trace.profiles.len()).expect("< 2^32 distinct kernels");
                self.trace.profiles.push(profile.clone());
                self.interned.insert(profile.name.clone(), id);
                id
            }
        };
        let Trace {
            items: arena,
            calls,
            ..
        } = &mut self.trace;
        // An empty frontier is an empty fresh range, with nothing to share.
        let mut start = arena.len();
        if !items.is_empty() {
            let candidates = self.frontiers.entry(frontier_key(items)).or_default();
            let repeat = candidates
                .iter()
                .map(|&j| calls[j])
                .find(|c| c.len == items.len() && arena[c.start..c.start + c.len] == *items);
            match repeat {
                Some(c) => start = c.start,
                None => {
                    if candidates.len() == FRONTIER_CANDIDATES {
                        candidates.remove(0);
                    }
                    candidates.push(calls.len());
                    arena.extend_from_slice(items);
                }
            }
        }
        calls.push(CallRecord {
            profile: id,
            start,
            len: items.len(),
        });
    }
}

/// Groups the study's configuration space by the *effective* workgroup
/// size on `chip` (requested size clamped to the chip limit). Each group
/// shares one aggregation geometry and one batched evaluation per call.
///
/// This is the single source of truth for which geometries a chip needs:
/// [`CompiledTrace::replay_all_configs`],
/// [`CompiledTrace::replay_all_configs_many_chips`] and
/// [`CompiledTrace::precompile_all`] all derive their workgroup sizes
/// from it, so they can never drift apart.
///
/// The partition depends on the chip only through
/// [`ChipProfile::max_workgroup_size`] (the sole input to the per-config
/// clamp). Pricing groups once per (pair, chip batch), so the 96-item
/// loop is not worth a cache.
pub fn geometry_groups(chip: &ChipProfile) -> Vec<(u32, Vec<OptConfig>)> {
    let max_wg = chip.max_workgroup_size();
    let mut groups: Vec<(u32, Vec<OptConfig>)> = Vec::new();
    for cfg in all_configs() {
        let wg_size = cfg.workgroup_size().min(max_wg);
        match groups.iter_mut().find(|(g, _)| *g == wg_size) {
            Some((_, v)) => v.push(cfg),
            None => groups.push((wg_size, vec![cfg])),
        }
    }
    groups
}

/// An aggregation geometry: (workgroup size, subgroup size).
type Geometry = (u32, u32);

/// A trace plus its per-(workgroup size, subgroup size) aggregations,
/// built on first use and kept, ready for cheap replay on any chip and
/// configuration.
///
/// The built [`RowTable`]s sit in one list behind one [`Mutex`], so
/// replay methods take `&self` and a compiled trace can be shared across
/// threads. Each request builds the geometries it lacks in one arena pass
/// under the lock, so each is built at most once.
#[derive(Debug)]
pub struct CompiledTrace {
    trace: Trace,
    // A table's calls are the trace's calls.
    tables: Mutex<Vec<(Geometry, Arc<RowTable>)>>,
}

impl CompiledTrace {
    /// Wraps a trace for replay.
    pub fn new(trace: Trace) -> Self {
        CompiledTrace {
            trace,
            tables: Mutex::default(),
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The row tables of `keys`, in key order. Every key not built yet is
    /// built first, all of them in one pass over the item arena (a
    /// repeated call copies its source call's rows).
    fn tables(&self, keys: &[Geometry]) -> Vec<Arc<RowTable>> {
        let mut tables = self.tables.lock().expect("no geometry build panicked");
        let mut missing: Vec<Geometry> = Vec::new();
        for &key in keys {
            if !missing.contains(&key) && !tables.iter().any(|(k, _)| *k == key) {
                missing.push(key);
            }
        }
        if !missing.is_empty() {
            metrics::counter("replay.geometry_builds", missing.len() as u64);
            let mut builder = RowTableBuilder::new(&missing);
            let (sources, _) = call_sources(&self.trace.calls)
                .expect("recorded and decoded traces are well formed");
            for (call, source) in self.trace.calls().zip(sources) {
                match source {
                    Some(j) => builder.repeat_call(j),
                    None => builder.push_call(call.items),
                }
            }
            let built = builder.finish().into_iter().map(Arc::new);
            tables.extend(missing.into_iter().zip(built));
        }
        keys.iter()
            .map(|key| {
                let at = tables.iter().position(|(k, _)| k == key);
                Arc::clone(&tables[at.expect("every key is built")].1)
            })
            .collect()
    }

    /// Builds the aggregations for every geometry any of `machines` can
    /// use (the effective workgroup sizes of [`geometry_groups`] on each
    /// chip) in one pass over the item arena, so later replays never
    /// build. Idempotent.
    pub fn precompile_all(&self, machines: &[Machine]) {
        let keys: Vec<Geometry> = machines
            .iter()
            .flat_map(|machine| {
                let sg_size = machine.chip().subgroup_size.max(1);
                geometry_groups(machine.chip())
                    .into_iter()
                    .map(move |(wg_size, _)| (wg_size, sg_size))
            })
            .collect();
        self.tables(&keys);
    }

    /// Replays the trace on `machine` under `config`, returning the same
    /// statistics a live [`crate::exec::Session`] would produce plus the
    /// per-mechanism [`CostBreakdown`] of the whole run, whose
    /// [`CostBreakdown::total`] equals `time_ns` within floating-point
    /// round-off.
    ///
    /// The first replay for a given (workgroup size, subgroup size) pair
    /// builds the aggregation; subsequent replays reuse it.
    pub fn replay(&self, machine: &Machine, config: OptConfig) -> (RunStats, CostBreakdown) {
        metrics::counter("replay.configs_priced", 1);
        let mut session = machine.session(config);
        let sg_size = machine.chip().subgroup_size.max(1);
        let table = self
            .tables(&[(session.workgroup_size(), sg_size)])
            .swap_remove(0);
        for (i, call) in self.trace.calls().enumerate() {
            session.kernel_aggregated(call.profile, &table.expand(i));
        }
        let breakdown = *session.breakdown();
        (session.finish(), breakdown)
    }

    /// Replays the trace under *every* configuration of the study space,
    /// returning statistics indexed by [`OptConfig::index`]: a one-chip
    /// [`CompiledTrace::replay_all_configs_many_chips`]. Each entry is
    /// bit-identical to the corresponding [`CompiledTrace::replay`] call.
    ///
    /// # Panics
    ///
    /// Panics if `machine`'s chip fails [`ChipProfile::validate`].
    pub fn replay_all_configs(&self, machine: &Machine) -> Vec<RunStats> {
        let batch = ChipBatch::new(vec![machine.chip().clone()]);
        self.replay_all_configs_many_chips(&batch).swap_remove(0)
    }

    /// Replays the trace under every configuration for *every* chip of a
    /// [`ChipBatch`] while walking each call's aggregate rows only once
    /// per geometry, whatever the number of device-pass slots, via a
    /// per-group `BatchGroupPricer` that caches every
    /// frontier-independent term (pass preludes and cost coefficients
    /// per interned kernel profile, per-chip capacity and launch/barrier
    /// overheads) across the trace's calls, and prices each distinct
    /// (kernel profile, row) pair of the geometry's [`RowTable`] once,
    /// within a fixed per-pricer memory budget. The `replay.rows_walked`
    /// counter adds the rows walked and `replay.rows_priced` the lane
    /// entries written, once per call of this function.
    /// This is the one whole-space pricing path. Returns one
    /// [`OptConfig::index`]-indexed statistics vector per chip, in batch
    /// order; every entry is bit-identical
    /// (`f64::to_bits` on `time_ns`, equal integer counters) to
    /// `self.replay(&Machine::new(chip), cfg)` for that chip and
    /// configuration.
    ///
    /// Device times accumulate call by call into a flat
    /// configuration-major buffer in a session's exact expression
    /// order; the integer counters are a closed-form function of the
    /// call count (every call is one kernel; `oitergb` launches once and
    /// pays a global barrier per later call, other configurations launch
    /// per call) and so are filled in directly at scatter time.
    pub fn replay_all_configs_many_chips(&self, batch: &ChipBatch) -> Vec<Vec<RunStats>> {
        let chips = batch.chips();
        let n_chips = chips.len();
        metrics::counter("replay.chip_batches", 1);
        metrics::counter("replay.configs_priced", (NUM_CONFIGS * n_chips) as u64);
        let sg_size = batch.subgroup_size();
        let mut out = vec![vec![RunStats::default(); NUM_CONFIGS]; n_chips];
        let (mut rows_walked, mut rows_priced) = (0u64, 0u64);
        // All chips of a batch share max_workgroup_size, hence the same
        // geometry grouping; any member stands for the batch.
        let groups = geometry_groups(&chips[0]);
        let keys: Vec<Geometry> = groups.iter().map(|(wg, _)| (*wg, sg_size)).collect();
        for ((wg_size, configs), table) in groups.iter().zip(self.tables(&keys)) {
            let mut pricer = BatchGroupPricer::new(batch, *wg_size, configs);
            let mut times = vec![0.0f64; configs.len() * n_chips];
            for (call_idx, call) in self.trace.calls().enumerate() {
                rows_walked +=
                    pricer.accumulate_call(call_idx, call.profile, &table, configs, &mut times)
                        as u64;
            }
            rows_priced += pricer.rows_priced;
            let n_calls = self.trace.num_kernels() as u64;
            for (k, cfg) in configs.iter().enumerate() {
                let (launches, global_barriers) = if cfg.oitergb {
                    (u64::from(n_calls > 0), n_calls.saturating_sub(1))
                } else {
                    (n_calls, 0)
                };
                let idx = cfg.index();
                for (c, stats) in out.iter_mut().enumerate() {
                    stats[idx] = RunStats {
                        time_ns: times[k * n_chips + c],
                        kernels: n_calls,
                        launches,
                        global_barriers,
                    };
                }
            }
        }
        metrics::counter("replay.rows_walked", rows_walked);
        metrics::counter("replay.rows_priced", rows_priced);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{study_chips, ChipProfile};
    use crate::exec::Session;
    use gpp_graph::rng::for_cases;

    fn sample_trace() -> Trace {
        let mut rec = Recorder::new();
        let profile = KernelProfile::frontier("bfs");
        for iter in 0..10u32 {
            let items: Vec<WorkItem> = (0..500)
                .map(|i| WorkItem::new(1 + (i * iter) % 97, (i % 3 == 0) as u32))
                .collect();
            rec.kernel(&profile, &items);
        }
        rec.into_trace()
    }

    #[test]
    fn recorder_captures_calls_in_order() {
        let trace = sample_trace();
        assert_eq!(trace.num_kernels(), 10);
        assert_eq!(trace.num_items(), 5_000);
        assert!(trace.num_edges() > 0);
        assert_eq!(trace.call(0).items.len(), 500);
        assert_eq!(trace.calls().len(), 10);
        assert_eq!(trace.calls().last().unwrap().items.len(), 500);
    }

    #[test]
    fn recorder_interns_profiles_by_name() {
        let trace = sample_trace();
        // Ten calls of the same kernel intern to a single profile...
        assert_eq!(trace.profiles().len(), 1);
        // ...into one contiguous arena covering every call.
        assert_eq!(trace.items().len(), 5_000);
        for (i, call) in trace.calls().enumerate() {
            assert!(std::ptr::eq(call.profile, &trace.profiles()[0]));
            assert_eq!(call.items, &trace.items()[i * 500..(i + 1) * 500]);
        }

        let mut rec = Recorder::new();
        rec.kernel(&KernelProfile::frontier("a"), &[WorkItem::new(1, 0)]);
        rec.kernel(&KernelProfile::frontier("b"), &[WorkItem::new(2, 0)]);
        rec.kernel(&KernelProfile::frontier("a"), &[WorkItem::new(3, 0)]);
        let trace = rec.into_trace();
        assert_eq!(trace.profiles().len(), 2);
        assert_eq!(trace.call(0).profile.name, "a");
        assert_eq!(trace.call(2).profile.name, "a");
        assert!(std::ptr::eq(trace.call(0).profile, trace.call(2).profile));
    }

    #[test]
    fn recorder_stores_a_repeated_frontier_once() {
        // A, B, A, B over one item set: one arena range, four calls of work.
        let items: Vec<WorkItem> = (0..300).map(|i| WorkItem::new(i % 7, i % 2)).collect();
        let (a, b) = (KernelProfile::frontier("a"), KernelProfile::frontier("b"));
        let mut rec = Recorder::new();
        for profile in [&a, &b, &a, &b] {
            rec.kernel(profile, &items);
        }
        let trace = rec.into_trace();
        assert_eq!(trace.items(), &items[..]);
        assert_eq!(trace.num_kernels(), 4);
        assert_eq!(trace.num_items(), 4 * items.len());
        let edges: u64 = items.iter().map(|i| u64::from(i.degree)).sum();
        assert_eq!(trace.num_edges(), 4 * edges);
        for (call, name) in trace.calls().zip(["a", "b", "a", "b"]) {
            assert_eq!(call.profile.name, name);
            assert!(std::ptr::eq(call.items, trace.items()));
        }

        // A frontier differing in one unsampled item is stored afresh.
        let mut other = items.clone();
        other[1].pushes += 1;
        let mut rec = Recorder::new();
        rec.kernel(&a, &items);
        rec.kernel(&a, &other);
        rec.kernel(&b, &other);
        let trace = rec.into_trace();
        assert_eq!(trace.items().len(), 2 * items.len());
        assert_eq!(trace.call(1).items, &other[..]);
        assert!(std::ptr::eq(trace.call(1).items, trace.call(2).items));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "structurally different profile")]
    fn interning_rejects_same_name_different_structure() {
        let mut rec = Recorder::new();
        rec.kernel(&KernelProfile::frontier("bfs"), &[WorkItem::new(1, 0)]);
        let mut other = KernelProfile::frontier("bfs");
        other.alu_per_edge += 1.0;
        rec.kernel(&other, &[WorkItem::new(1, 0)]);
    }

    /// Several profiles with awkward cost bits, an empty frontier, items
    /// at the integer extremes, and shared ranges: a frontier repeated
    /// back to back, one repeated across two profiles (A, B, A, B) and a
    /// repeated empty frontier.
    fn varied_trace() -> Trace {
        let mut rec = Recorder::new();
        let mut odd = KernelProfile::frontier("scan-σ");
        odd.alu_per_edge = -0.0;
        odd.reads_per_node = f64::MIN_POSITIVE / 2.0;
        odd.writes_per_edge = f64::INFINITY;
        odd.irregular = false;
        let bfs = KernelProfile::frontier("bfs");
        let pair = [WorkItem::new(0, u32::MAX), WorkItem::new(7, 2)];
        rec.kernel(&bfs, &[WorkItem::new(3, 1)]);
        rec.kernel(&odd, &[]);
        rec.kernel(&KernelProfile::frontier(""), &[WorkItem::new(u32::MAX, 0)]);
        rec.kernel(&odd, &pair);
        rec.kernel(&odd, &pair);
        for profile in [&bfs, &odd, &bfs, &odd] {
            rec.kernel(profile, &[WorkItem::new(3, 1)]);
        }
        rec.kernel(&odd, &[]);
        rec.into_trace()
    }

    #[test]
    fn varied_trace_shares_its_repeated_ranges() {
        let trace = varied_trace();
        assert_eq!(trace.num_kernels(), 10);
        assert_eq!(trace.num_items(), 10);
        // One item, one more, then the pair: the repeats add nothing,
        // and each empty frontier is an empty fresh range.
        assert_eq!(trace.items().len(), 4);
        let (sources, end) = call_sources(&trace.calls).expect("well formed");
        assert_eq!(end, 4);
        let mut want = vec![None; 4];
        want.extend([Some(3), Some(0), Some(0), Some(0), Some(0), None]);
        assert_eq!(sources, want);
    }

    #[test]
    fn trace_codec_round_trips_exactly() {
        for trace in [sample_trace(), varied_trace(), Trace::default()] {
            let bytes = trace.encode();
            let back = Trace::decode(&bytes).expect("a fresh encoding decodes");
            assert_eq!(trace, back);
            assert_eq!(bytes, back.encode());
            // Decoded arenas are allocated to their exact size.
            assert_eq!(back.arena_bytes(), std::mem::size_of_val(back.items()));
        }
    }

    #[test]
    fn every_truncation_and_extension_is_rejected() {
        let bytes = varied_trace().encode();
        for len in 0..bytes.len() {
            assert!(Trace::decode(&bytes[..len]).is_none(), "truncated to {len}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(Trace::decode(&longer).is_none());
    }

    /// A source that hands out at most `step` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_streams_in_pieces_and_tells_short_sources_apart() {
        let trace = varied_trace();
        let bytes = trace.encode();
        let len = bytes.len() as u64;
        // Pieces that split words, names and items anywhere.
        for step in [1, 3, 8, 13, ITEM_CHUNK] {
            let back = Trace::read_from(
                Trickle {
                    bytes: &bytes,
                    step,
                },
                len,
            )
            .unwrap();
            assert_eq!(back.as_ref(), Some(&trace), "step {step}");
        }
        // A source that ends early fails to read; one that runs on is
        // rejected like any trailing bytes.
        assert!(Trace::read_from(&bytes[..bytes.len() - 1], len).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(Trace::read_from(&longer[..], len).unwrap(), None);
    }

    /// `body` framed by a valid checksum, as [`Trace::encode`] ends.
    fn stamped(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes() {
        for_cases(0x7d01, 256, |rng| {
            let raw: Vec<u8> = (0..rng.gen_range(256))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let _ = Trace::decode(&raw);
            // The same bytes behind a valid header and checksum reach the
            // structural checks instead of stopping at the checksum.
            let mut framed = MAGIC.to_vec();
            framed.extend_from_slice(&RECORDER_VERSION.to_le_bytes());
            framed.extend_from_slice(&raw);
            let _ = Trace::decode(&stamped(framed));
            // A valid encoding with one byte replaced and re-stamped
            // either is rejected or re-encodes to exactly those bytes.
            let mut body = varied_trace().encode();
            body.truncate(body.len() - 8);
            let at = rng.next_u64() as usize % body.len();
            body[at] = rng.next_u64() as u8;
            let bytes = stamped(body);
            if let Some(trace) = Trace::decode(&bytes) {
                assert_eq!(trace.encode(), bytes);
            }
        });
    }

    /// `sample_trace`'s frontiers, then each again under two kernels in
    /// turn, back to back at the end: a trace with repeated calls.
    fn repeating_trace() -> Trace {
        let sample = sample_trace();
        let mut rec = Recorder::new();
        let other = KernelProfile::frontier("pr");
        for call in sample.calls() {
            rec.kernel(call.profile, call.items);
        }
        for i in (0..sample.num_kernels()).rev() {
            let call = sample.call(i);
            rec.kernel(&other, call.items);
            rec.kernel(call.profile, call.items);
        }
        let last = sample.call(0).items;
        rec.kernel(&other, last);
        let trace = rec.into_trace();
        assert_eq!(trace.items(), sample.items());
        trace
    }

    #[test]
    fn replay_matches_live_session_on_all_chips_and_configs() {
        let trace = repeating_trace();
        for chip in study_chips() {
            let machine = Machine::new(chip.clone());
            let compiled = CompiledTrace::new(trace.clone());
            for cfg in all_configs().into_iter().step_by(7) {
                let mut live = machine.session(cfg);
                for call in trace.calls() {
                    Session::kernel(&mut live, call.profile, call.items);
                }
                let live_stats = live.finish();
                let replay_stats = compiled.replay(&machine, cfg).0;
                assert_eq!(live_stats, replay_stats, "{} {cfg}", chip.name);
            }
        }
    }

    #[test]
    fn replay_is_repeatable() {
        let compiled = CompiledTrace::new(sample_trace());
        let machine = Machine::new(ChipProfile::mali());
        let a = compiled.replay(&machine, OptConfig::baseline());
        let b = compiled.replay(&machine, OptConfig::baseline());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_replays_to_zero_kernels() {
        let compiled = CompiledTrace::new(Trace::default());
        let machine = Machine::new(ChipProfile::m4000());
        let stats = compiled.replay(&machine, OptConfig::baseline()).0;
        assert_eq!(stats.kernels, 0);
        assert_eq!(stats.time_ns, 0.0);
    }

    /// Number of distinct geometries aggregated so far.
    fn built(compiled: &CompiledTrace) -> usize {
        compiled.tables.lock().unwrap().len()
    }

    #[test]
    fn compilation_is_cached_per_geometry() {
        let compiled = CompiledTrace::new(sample_trace());
        let m1 = Machine::new(ChipProfile::m4000()); // sg 32
        let m2 = Machine::new(ChipProfile::r9()); // sg 64
        compiled.replay(&m1, OptConfig::baseline());
        compiled.replay(&m2, OptConfig::baseline());
        compiled.replay(&m1, OptConfig::from_index(1)); // sz256 -> new wg size
        assert_eq!(built(&compiled), 3);
    }

    #[test]
    fn precompile_covers_all_geometries_of_a_chip() {
        let compiled = CompiledTrace::new(sample_trace());
        let machine = Machine::new(ChipProfile::gtx1080());
        compiled.precompile_all(std::slice::from_ref(&machine));
        assert_eq!(built(&compiled), 2); // wg 128 and 256
        compiled.precompile_all(std::slice::from_ref(&machine)); // idempotent
        assert_eq!(built(&compiled), 2);
    }

    #[test]
    fn geometry_groups_cover_all_configs_exactly_once() {
        for chip in study_chips() {
            let groups = geometry_groups(&chip);
            let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
            assert_eq!(total, NUM_CONFIGS, "{}", chip.name);
            for (wg_size, configs) in groups.iter() {
                assert!(*wg_size <= chip.max_workgroup_size());
                for cfg in configs {
                    assert_eq!(
                        *wg_size,
                        cfg.workgroup_size().min(chip.max_workgroup_size())
                    );
                }
            }
        }
    }

    #[test]
    fn precompile_builds_the_same_geometries_replay_uses() {
        // The drift bug the shared helper removes: precompile_all must cover
        // exactly what replay_all_configs will ask for — no more, no
        // fewer — on every study chip.
        let trace = sample_trace();
        for chip in study_chips() {
            let machine = Machine::new(chip.clone());
            let compiled = CompiledTrace::new(trace.clone());
            compiled.precompile_all(std::slice::from_ref(&machine));
            let precompiled = built(&compiled);
            assert_eq!(precompiled, geometry_groups(&chip).len(), "{}", chip.name);
            compiled.replay_all_configs(&machine);
            assert_eq!(
                built(&compiled),
                precompiled,
                "replay built geometries precompile missed on {}",
                chip.name
            );
        }
    }

    #[test]
    fn precompile_all_is_one_arena_pass_for_a_chip_set() {
        let trace = repeating_trace();
        let machines: Vec<Machine> = study_chips().into_iter().map(Machine::new).collect();
        let compiled = CompiledTrace::new(trace.clone());
        compiled.precompile_all(&machines);
        let per_chip = CompiledTrace::new(trace);
        for machine in &machines {
            per_chip.precompile_all(std::slice::from_ref(machine));
        }
        assert_eq!(built(&compiled), built(&per_chip));
        // And the aggregations themselves are identical.
        for machine in &machines {
            assert_eq!(
                compiled.replay_all_configs(machine),
                per_chip.replay_all_configs(machine),
                "{}",
                machine.chip().name
            );
        }
    }

    #[test]
    fn replay_all_configs_matches_individual_replays_on_every_study_chip() {
        let trace = sample_trace();
        for chip in study_chips() {
            let machine = Machine::new(chip.clone());
            let compiled = CompiledTrace::new(trace.clone());
            let all = compiled.replay_all_configs(&machine);
            assert_eq!(all.len(), NUM_CONFIGS);
            for cfg in all_configs() {
                let single = compiled.replay(&machine, cfg).0;
                assert_eq!(all[cfg.index()], single, "{} {cfg}", chip.name);
            }
        }
    }

    #[test]
    fn many_chips_replay_is_bit_identical_to_per_chip_replay() {
        // Chip-major replay must agree bit-for-bit with the scalar
        // per-configuration replay on every chip of every geometry
        // family, duplicates and interpolated blends included.
        let trace = sample_trace();
        let compiled = CompiledTrace::new(trace);
        let mut chips = study_chips();
        chips.push(ChipProfile::gtx1080()); // duplicate
        chips.push(ChipProfile::interpolate(
            &ChipProfile::m4000(),
            &ChipProfile::gtx1080(),
            0.5,
        ));
        for batch in ChipBatch::partition(&chips) {
            let many = compiled.replay_all_configs_many_chips(&batch);
            assert_eq!(many.len(), batch.len());
            for (chip, stats) in batch.chips().iter().zip(&many) {
                let machine = Machine::new(chip.clone());
                let single: Vec<RunStats> = all_configs()
                    .into_iter()
                    .map(|cfg| compiled.replay(&machine, cfg).0)
                    .collect();
                assert_eq!(stats.len(), single.len());
                for (cfg, (m, s)) in all_configs().into_iter().zip(stats.iter().zip(&single)) {
                    assert_eq!(
                        m.time_ns.to_bits(),
                        s.time_ns.to_bits(),
                        "{} {cfg}",
                        chip.name
                    );
                    assert_eq!(m.kernels, s.kernels, "{} {cfg}", chip.name);
                    assert_eq!(m.launches, s.launches, "{} {cfg}", chip.name);
                    assert_eq!(m.global_barriers, s.global_barriers, "{} {cfg}", chip.name);
                }
            }
        }
    }

    #[test]
    fn geometry_groups_depend_only_on_the_effective_workgroup_size() {
        let a = geometry_groups(&ChipProfile::m4000());
        assert_eq!(a, geometry_groups(&ChipProfile::gtx1080()));
        assert_eq!(a, geometry_groups(&ChipProfile::mali())); // MALI also clamps to 256
        let narrow = geometry_groups(
            &ChipProfile::builder("NARROW", crate::chip::Vendor::Arm)
                .max_threads_per_cu(128)
                .build(),
        );
        assert_eq!(narrow.len(), 1, "128-thread chips have one geometry");
    }

    #[test]
    fn replay_breakdown_sums_to_total() {
        let trace = sample_trace();
        for chip in study_chips() {
            let machine = Machine::new(chip.clone());
            let compiled = CompiledTrace::new(trace.clone());
            for cfg in all_configs().into_iter().step_by(11) {
                let (stats, b) = compiled.replay(&machine, cfg);
                let rel = (b.total() - stats.time_ns).abs() / stats.time_ns;
                assert!(
                    rel < 1e-9,
                    "{} {cfg}: breakdown {} vs {}",
                    chip.name,
                    b.total(),
                    stats.time_ns
                );
            }
        }
    }

    #[test]
    fn replay_all_configs_on_empty_trace() {
        let compiled = CompiledTrace::new(Trace::default());
        let machine = Machine::new(ChipProfile::iris6100());
        for stats in compiled.replay_all_configs(&machine) {
            assert_eq!(stats.kernels, 0);
            assert_eq!(stats.time_ns, 0.0);
        }
    }

    #[test]
    fn shared_replay_across_threads_is_deterministic() {
        let compiled = CompiledTrace::new(sample_trace());
        let machine = Machine::new(ChipProfile::hd5500());
        let serial: Vec<RunStats> = all_configs()
            .into_iter()
            .map(|cfg| compiled.replay(&machine, cfg).0)
            .collect();
        let (compiled, machine) = (Arc::new(compiled), Arc::new(machine));
        let handles: Vec<_> = all_configs()
            .into_iter()
            .map(|cfg| {
                let (compiled, machine) = (Arc::clone(&compiled), Arc::clone(&machine));
                std::thread::spawn(move || compiled.replay(&machine, cfg).0)
            })
            .collect();
        let parallel: Vec<RunStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(serial, parallel);
    }
}
