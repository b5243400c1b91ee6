//! # nw-apps — the out-of-core parallel application workload
//!
//! The seven programs of the paper's Table 2, reimplemented as
//! deterministic SPMD *reference generators*: each processor's kernel
//! is a lazy stream of [`Action`]s (compute bursts, cache-line reads
//! and writes into a shared virtual address space, and barriers). The
//! machine model in `nwcache-core` executes these streams against the
//! simulated memory hierarchy and VM system.
//!
//! | Program | Description | Input (full scale) | Data |
//! |---------|-------------|--------------------|------|
//! | Em3d    | Electromagnetic wave propagation | 32 K nodes, 5% remote, 10 iters | ~2.5 MB |
//! | FFT     | 1D Fast Fourier Transform | 64 K points | ~3.1 MB |
//! | Gauss   | Unblocked Gaussian elimination | 570 x 512 doubles | ~2.3 MB |
//! | LU      | Blocked LU factorization | 576 x 576 doubles | ~2.7 MB |
//! | Mg      | 3D Poisson multigrid | 32 x 32 x 64, 10 iters | ~2.4 MB |
//! | Radix   | Integer radix sort | 320 K keys, radix 1024 | ~2.6 MB |
//! | SOR     | Successive over-relaxation | 640 x 512 floats, 10 iters | ~2.6 MB |
//!
//! All applications `mmap` their data in the paper — i.e. they access
//! it through the virtual memory system, which is precisely what the
//! streams model. A `scale` parameter shrinks every input (for tests
//! and quick benches) while preserving the access-pattern shape.
//!
//! ```
//! use nw_apps::{build, Action, AppId};
//!
//! // Four processors run a small SOR; streams are lazy.
//! let app = build(AppId::Sor, 4, 0.05, 42);
//! assert_eq!(app.streams.len(), 4);
//! let first: Vec<Action> = app.streams.into_iter().next().unwrap().take(5).collect();
//! // A stencil update: three reads, compute, then the write.
//! assert!(matches!(first[0], Action::Read(_)));
//! assert!(matches!(first[3], Action::Compute(_)));
//! assert!(matches!(first[4], Action::Write(_)));
//! ```

#![forbid(unsafe_code)]

pub mod em3d;
pub mod fft;
pub mod gauss;
pub mod layout;
pub mod lu;
pub mod mg;
pub mod radix;
pub mod sor;
pub mod synth;

/// A global cache-line index (byte address / 64).
pub type Line = u64;

/// Cache-line size in bytes, shared with `nw-memhier`.
pub const LINE_BYTES: u64 = 64;

/// One step of a processor's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Run for this many pcycles without touching shared memory.
    Compute(u32),
    /// Load from a shared cache line.
    Read(Line),
    /// Store to a shared cache line.
    Write(Line),
    /// Global barrier with a sequential id; every processor emits the
    /// same barrier ids in the same order.
    Barrier(u32),
}

nw_sim::persist!(enum Action {
    0 => Compute(c),
    1 => Read(line),
    2 => Write(line),
    3 => Barrier(id),
});

/// Actions an [`ActionStream`] generates per refill of its buffer.
const BATCH: usize = 64;

/// Fills a batch buffer from a concrete generator. Object-safe, so one
/// dynamic call produces a whole batch while the generator runs by
/// internal iteration (`try_fold` through its `FlatMap`/`Chain`
/// layers), not one virtual `next()` per action.
trait Refill: Send {
    fn refill(&mut self, buf: &mut [Action; BATCH]) -> usize;
}

impl<I: Iterator<Item = Action> + Send> Refill for I {
    fn refill(&mut self, buf: &mut [Action; BATCH]) -> usize {
        let mut n = 0;
        self.take(BATCH).for_each(|a| {
            buf[n] = a;
            n += 1;
        });
        n
    }
}

/// A lazily generated per-processor action stream. Exhaustion means
/// the processor is done.
///
/// The stream yields exactly its generator's sequence, but pulls it
/// `BATCH` actions at a time into a fixed buffer; `next()` is then an
/// indexed load. Generators are pure functions of the workload build,
/// so generating ahead of consumption changes nothing observable.
pub struct ActionStream {
    source: Box<dyn Refill>,
    buf: [Action; BATCH],
    /// Next buffered action to yield.
    pos: usize,
    /// Buffered actions (`pos..len` are still unread).
    len: usize,
    /// The generator returned a short batch: it is finished.
    exhausted: bool,
}

impl ActionStream {
    /// Actions generated per refill (a constant of the design, not a
    /// tuning knob).
    pub const BATCH: usize = BATCH;

    /// Wrap a generator.
    pub fn new(actions: impl Iterator<Item = Action> + Send + 'static) -> Self {
        ActionStream {
            source: Box::new(actions),
            buf: [Action::Compute(0); BATCH],
            pos: 0,
            len: 0,
            exhausted: false,
        }
    }

    /// Refill the buffer; `None` once the generator is finished.
    #[inline(never)]
    fn refill(&mut self) -> Option<()> {
        if self.exhausted {
            return None;
        }
        self.len = self.source.refill(&mut self.buf);
        self.pos = 0;
        self.exhausted = self.len < BATCH;
        (self.len > 0).then_some(())
    }
}

impl Iterator for ActionStream {
    type Item = Action;

    #[inline]
    fn next(&mut self) -> Option<Action> {
        if self.pos == self.len {
            self.refill()?;
        }
        let a = self.buf[self.pos];
        self.pos += 1;
        Some(a)
    }
}

/// A fully built application instance: one stream per processor.
pub struct AppBuild {
    /// Application name (lower case, as in the paper's tables).
    pub name: &'static str,
    /// Total shared data footprint in bytes.
    pub data_bytes: u64,
    /// One action stream per processor.
    pub streams: Vec<ActionStream>,
}

impl AppBuild {
    /// Build from fully materialized per-processor action vectors.
    /// This is the replay hook: a recorded or generated trace becomes
    /// an ordinary application the machine model cannot distinguish
    /// from a hand-written kernel.
    pub fn from_actions(
        name: &'static str,
        data_bytes: u64,
        actions: Vec<Vec<Action>>,
    ) -> AppBuild {
        AppBuild {
            name,
            data_bytes,
            streams: actions
                .into_iter()
                .map(|v| ActionStream::new(v.into_iter()))
                .collect(),
        }
    }

    /// Drain every stream into concrete action vectors. This is the
    /// recorder hook: it captures the exact per-processor order the
    /// simulator would consume, at the `AppBuild`/`Action` boundary.
    pub fn into_actions(self) -> (&'static str, u64, Vec<Vec<Action>>) {
        (
            self.name,
            self.data_bytes,
            self.streams.into_iter().map(|s| s.collect()).collect(),
        )
    }
}

/// The seven applications of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Electromagnetic wave propagation on a bipartite graph.
    Em3d,
    /// 1D fast Fourier transform.
    Fft,
    /// Unblocked Gaussian elimination.
    Gauss,
    /// Blocked LU factorization.
    Lu,
    /// 3D Poisson solver using multigrid.
    Mg,
    /// Integer radix sort.
    Radix,
    /// Successive over-relaxation.
    Sor,
}

impl AppId {
    /// All applications, in the paper's table order.
    pub const ALL: [AppId; 7] = [
        AppId::Em3d,
        AppId::Fft,
        AppId::Gauss,
        AppId::Lu,
        AppId::Mg,
        AppId::Radix,
        AppId::Sor,
    ];

    /// Lower-case name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Em3d => "em3d",
            AppId::Fft => "fft",
            AppId::Gauss => "gauss",
            AppId::Lu => "lu",
            AppId::Mg => "mg",
            AppId::Radix => "radix",
            AppId::Sor => "sor",
        }
    }

    /// Parse a name (as printed by [`AppId::name`]).
    pub fn from_name(s: &str) -> Option<AppId> {
        AppId::ALL.iter().copied().find(|a| a.name() == s)
    }
}

/// Build application `app` for `nprocs` processors at `scale` (1.0 =
/// the paper's full input) with deterministic randomness from `seed`.
///
/// # Panics
/// Panics if `nprocs` is zero or `scale` is not in `(0, 1]`.
pub fn build(app: AppId, nprocs: usize, scale: f64, seed: u64) -> AppBuild {
    assert!(nprocs > 0, "need at least one processor");
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    match app {
        AppId::Em3d => em3d::build(nprocs, scale, seed),
        AppId::Fft => fft::build(nprocs, scale, seed),
        AppId::Gauss => gauss::build(nprocs, scale, seed),
        AppId::Lu => lu::build(nprocs, scale, seed),
        AppId::Mg => mg::build(nprocs, scale, seed),
        AppId::Radix => radix::build(nprocs, scale, seed),
        AppId::Sor => sor::build(nprocs, scale, seed),
    }
}

/// Scale an integer dimension, keeping at least `min`.
pub(crate) fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale) as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Drain a stream into per-kind counts plus the barrier sequence.
    fn summarize(s: ActionStream) -> (u64, u64, u64, Vec<u32>) {
        let (mut c, mut r, mut w) = (0u64, 0u64, 0u64);
        let mut barriers = Vec::new();
        for a in s {
            match a {
                Action::Compute(_) => c += 1,
                Action::Read(_) => r += 1,
                Action::Write(_) => w += 1,
                Action::Barrier(id) => barriers.push(id),
            }
        }
        (c, r, w, barriers)
    }

    /// Per-stream `(length, FNV-1a digest)` of an action sequence, each
    /// action encoded as a tag byte and its payload as a `u64` (LE).
    fn digest(b: AppBuild) -> Vec<(u64, u64)> {
        b.streams
            .into_iter()
            .map(|s| {
                let mut bytes = Vec::new();
                let mut n = 0u64;
                for a in s {
                    let (tag, v) = match a {
                        Action::Compute(c) => (0u8, c as u64),
                        Action::Read(l) => (1, l),
                        Action::Write(l) => (2, l),
                        Action::Barrier(id) => (3, id as u64),
                    };
                    bytes.push(tag);
                    bytes.extend(v.to_le_bytes());
                    n += 1;
                }
                (n, nw_sim::ckpt::fnv1a(&bytes))
            })
            .collect()
    }

    #[test]
    fn batched_streams_yield_the_generators_sequences() {
        // Digests of every app's streams (3 procs, scale 0.05, seed 7)
        // and a synth kernel, recorded when each generator was consumed
        // one `next()` at a time through a boxed iterator. No length is
        // a multiple of the batch size, so every stream ends mid-batch.
        #[rustfmt::skip]
        let expect: [(&str, [(u64, u64); 3]); 8] = [
            ("em3d", [(0x13ed4, 0xb0538bbc1c750b39), (0x13ed4, 0xe59cec05e7d9acf5), (0x13ed4, 0x5844d32c0faf4e0d)]),
            ("fft", [(0x2372, 0xfd467840ab71a9e8), (0x2372, 0x85a4db9b31cac158), (0x2372, 0x648f2e868a4179dc)]),
            ("gauss", [(0x14775, 0x3322da80443e95d3), (0x14010, 0xe17c7cc6010d69de), (0x143ca, 0xf4f0cace20284292)]),
            ("lu", [(0x2958, 0x0c8b0a260da579bd), (0x26b8, 0x01b1b053b64e0f3d), (0x26b8, 0x9a7c57f2b079311d)]),
            ("mg", [(0x505a, 0x0d1a4211de981d9a), (0x4ef2, 0x4e438bf9a353c38c), (0x4452, 0x14ff05433adb4fcc)]),
            ("radix", [(0x5151, 0x2181e9feac1b509e), (0x514e, 0xb1c123f6e7ade0af), (0x514e, 0x7b0994441206b4e3)]),
            ("sor", [(0x4b0a, 0x86ad8f6e6277743a), (0x4b0a, 0x3f5ada2350d4a42e), (0x497a, 0xab51915960468eba)]),
            ("synth", [(0x2007, 0x64945340e8bf7b3d), (0x2001, 0x3c1cce0714396f7e), (0x2001, 0x245b4941e4eec28c)]),
        ];
        for (name, want) in expect {
            let b = match AppId::from_name(name) {
                Some(app) => build(app, 3, 0.05, 7),
                None => synth::build(
                    synth::SynthConfig {
                        data_bytes: 256 * 1024,
                        random_frac: 0.3,
                        iters: 3,
                        ..Default::default()
                    },
                    3,
                    7,
                ),
            };
            let got = digest(b);
            for (n, _) in &got {
                assert_ne!(n % BATCH as u64, 0, "{name}: ends on a batch boundary");
            }
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn batching_preserves_any_stream_length() {
        // Lengths on, just before and just after batch boundaries,
        // through both `ActionStream::new` and `from_actions`.
        let action = |i: usize| match i % 4 {
            0 => Action::Read(i as Line),
            1 => Action::Compute(i as u32),
            2 => Action::Write(i as Line * 3),
            _ => Action::Barrier(i as u32),
        };
        for len in [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH, 3 * BATCH + 7] {
            let plain: Vec<Action> = (0..len).map(action).collect();
            let batched: Vec<Action> = ActionStream::new((0..len).map(action)).collect();
            assert_eq!(batched, plain, "len {len}");
            let mut s = ActionStream::new((0..len).map(action));
            for _ in 0..len {
                assert!(s.next().is_some());
            }
            assert_eq!(s.next(), None, "len {len}: exhausted");
            assert_eq!(s.next(), None, "len {len}: stays exhausted");
            let b = AppBuild::from_actions("t", 64, vec![plain.clone(), plain[..len / 2].to_vec()]);
            let (_, _, replayed) = b.into_actions();
            assert_eq!(
                replayed,
                vec![plain.clone(), plain[..len / 2].to_vec()],
                "len {len}"
            );
        }
    }

    #[test]
    fn recorder_hooks_roundtrip() {
        let (name, bytes, actions) = build(AppId::Gauss, 2, 0.05, 11).into_actions();
        let again = AppBuild::from_actions(name, bytes, actions.clone());
        assert_eq!(again.name, "gauss");
        assert_eq!(again.data_bytes, bytes);
        let replayed: Vec<Vec<Action>> =
            again.streams.into_iter().map(|s| s.collect()).collect();
        assert_eq!(replayed, actions);
    }

    #[test]
    fn names_roundtrip() {
        for app in AppId::ALL {
            assert_eq!(AppId::from_name(app.name()), Some(app));
        }
        assert_eq!(AppId::from_name("nope"), None);
    }

    #[test]
    fn all_apps_build_at_small_scale() {
        for app in AppId::ALL {
            let b = build(app, 4, 0.05, 42);
            assert_eq!(b.streams.len(), 4, "{}", b.name);
            assert!(b.data_bytes > 0, "{}", b.name);
        }
    }

    #[test]
    fn barrier_sequences_agree_across_procs() {
        for app in AppId::ALL {
            let b = build(app, 4, 0.05, 7);
            let mut seqs = Vec::new();
            for s in b.streams {
                let (_, _, _, barriers) = summarize(s);
                seqs.push(barriers);
            }
            for s in &seqs[1..] {
                assert_eq!(s, &seqs[0], "{}: procs disagree on barriers", app.name());
            }
            assert!(!seqs[0].is_empty(), "{}: no barriers", app.name());
            // Barrier ids strictly increase.
            for w in seqs[0].windows(2) {
                assert!(w[0] < w[1], "{}: barrier ids not increasing", app.name());
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for app in AppId::ALL {
            let a = build(app, 2, 0.05, 99);
            let b = build(app, 2, 0.05, 99);
            for (sa, sb) in a.streams.into_iter().zip(b.streams) {
                let va: Vec<Action> = sa.take(5000).collect();
                let vb: Vec<Action> = sb.take(5000).collect();
                assert_eq!(va, vb, "{}", app.name());
            }
        }
    }

    #[test]
    fn every_app_reads_and_writes() {
        for app in AppId::ALL {
            let b = build(app, 2, 0.05, 1);
            let mut reads = 0;
            let mut writes = 0;
            for s in b.streams {
                let (_, r, w, _) = summarize(s);
                reads += r;
                writes += w;
            }
            assert!(reads > 0, "{} never reads", app.name());
            assert!(writes > 0, "{} never writes", app.name());
        }
    }

    #[test]
    fn accesses_stay_inside_data_footprint() {
        for app in AppId::ALL {
            let b = build(app, 3, 0.05, 5);
            let max_line = b.data_bytes.div_ceil(LINE_BYTES);
            for s in b.streams {
                for a in s {
                    if let Action::Read(l) | Action::Write(l) = a {
                        assert!(
                            l < max_line,
                            "{}: line {l} beyond footprint {max_line}",
                            b.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_scale_footprints_match_table2() {
        // Paper Table 2 data sizes in MB; allow 15% slack.
        let expect: HashMap<AppId, f64> = [
            (AppId::Em3d, 2.5),
            (AppId::Fft, 3.1),
            (AppId::Gauss, 2.3),
            (AppId::Lu, 2.7),
            (AppId::Mg, 2.4),
            (AppId::Radix, 2.6),
            (AppId::Sor, 2.6),
        ]
        .into_iter()
        .collect();
        for app in AppId::ALL {
            let b = build(app, 8, 1.0, 0);
            let mb = b.data_bytes as f64 / (1024.0 * 1024.0);
            let want = expect[&app];
            assert!(
                (mb - want).abs() / want < 0.15,
                "{}: footprint {mb:.2} MB vs paper {want} MB",
                app.name()
            );
        }
    }

    #[test]
    fn different_procs_touch_different_lines_mostly() {
        // Partitioned apps: the write sets of different processors
        // must be (nearly) disjoint.
        for app in [AppId::Sor, AppId::Gauss, AppId::Fft] {
            let b = build(app, 4, 0.05, 3);
            let mut write_sets: Vec<std::collections::HashSet<Line>> = Vec::new();
            for s in b.streams {
                let mut set = std::collections::HashSet::new();
                for a in s {
                    if let Action::Write(l) = a {
                        set.insert(l);
                    }
                }
                write_sets.push(set);
            }
            for i in 0..write_sets.len() {
                for j in i + 1..write_sets.len() {
                    let inter = write_sets[i].intersection(&write_sets[j]).count();
                    let min = write_sets[i].len().min(write_sets[j].len()).max(1);
                    assert!(
                        inter * 10 < min,
                        "{}: procs {i}/{j} share {inter} written lines",
                        app.name()
                    );
                }
            }
        }
    }
}
