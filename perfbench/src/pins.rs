//! Pinned outputs for the default seed.
//!
//! Each entry is the FNV-1a 64 digest of a cell's `RunSummary` JSON, or
//! of a layer kernel's checksum, for `batch::DEFAULT_SEED`. Any change
//! to a simulated result moves a digest and fails the benchmark. After
//! a deliberate model change, regenerate the table with
//! `--emit-pins` on each workload at the default seed with `--trace 1`
//! and say why in the change's description.

use crate::stats::fnv64;
use std::sync::Mutex;

/// When `Some`, [`check`] records digests instead of checking them.
static EMIT: Mutex<Option<Vec<(String, u64)>>> = Mutex::new(None);

pub fn start_emitting() {
    *EMIT.lock().expect("pin recorder lock") = Some(Vec::new());
}

pub fn emitting() -> bool {
    EMIT.lock().expect("pin recorder lock").is_some()
}

/// The recorded `(label, digest)` pairs, as lines of [`PINS`] source.
pub fn emitted() -> Option<String> {
    let guard = EMIT.lock().expect("pin recorder lock");
    let pins = guard.as_ref()?;
    let mut seen = std::collections::BTreeMap::new();
    for (label, digest) in pins {
        seen.insert(label.clone(), *digest);
    }
    Some(
        seen.iter()
            .map(|(l, d)| format!("    (\"{l}\", 0x{d:016x}),\n"))
            .collect(),
    )
}

/// Check `output` against the digest pinned for `label`.
pub fn check(label: &str, output: &str) -> Result<(), String> {
    let got = fnv64(output.as_bytes());
    if let Some(rec) = EMIT.lock().expect("pin recorder lock").as_mut() {
        rec.push((label.to_string(), got));
        return Ok(());
    }
    match PINS.iter().find(|p| p.0 == label) {
        Some(&(_, want)) if want == got => Ok(()),
        Some(&(_, want)) => Err(format!(
            "{label}: output digest {got:016x} differs from the pinned {want:016x}"
        )),
        None => Err(format!("{label}: no pinned digest")),
    }
}

/// `(label, digest)` for the default seed.
const PINS: &[(&str, u64)] = &[
    ("ooc_write/canary/ooc.0/standard", 0xd913c622fe2e0e0d),
    ("ooc_write/kernel/ckpt", 0xcae1cf549cd5d850),
    ("ooc_write/kernel/disk.ctrl", 0x0a6eff556465850f),
    ("ooc_write/kernel/memhier.dir", 0x72cab3e73469cdda),
    ("ooc_write/kernel/memhier.probe", 0x6e155e78f33acb39),
    ("ooc_write/kernel/mesh.send", 0x0c60487891b9e169),
    ("ooc_write/kernel/proto.frame", 0x708d8a469f1dfb08),
    ("ooc_write/kernel/ring.op", 0x18b99f938252a4da),
    ("ooc_write/kernel/summary.json", 0xadeef69b6f7ab9d4),
    ("ooc_write/ooc.0/nwcache", 0x68a5f479243e17d0),
    ("ooc_write/ooc.0/standard", 0xd913c622fe2e0e0d),
    ("ooc_write/ooc.1/nwcache", 0xbee5a4bef9fa9131),
    ("ooc_write/ooc.1/standard", 0xd221a59427b946bd),
    ("ooc_write/ooc.10/nwcache", 0x520fe236e4452a22),
    ("ooc_write/ooc.10/standard", 0xc2de9ae8d93d784d),
    ("ooc_write/ooc.11/nwcache", 0x87abcd281138ecfc),
    ("ooc_write/ooc.11/standard", 0x287857fbcdfcb747),
    ("ooc_write/ooc.2/nwcache", 0xf0ecebe10afc4568),
    ("ooc_write/ooc.2/standard", 0x725709657bb221ae),
    ("ooc_write/ooc.3/nwcache", 0x356a19d4e671d0e2),
    ("ooc_write/ooc.3/standard", 0x6032322f3a9be997),
    ("ooc_write/ooc.4/nwcache", 0x96e5b4a260730fc3),
    ("ooc_write/ooc.4/standard", 0x9a88802e0a3bad89),
    ("ooc_write/ooc.5/nwcache", 0xd5d55fc522653bd1),
    ("ooc_write/ooc.5/standard", 0x52219fcff5997e76),
    ("ooc_write/ooc.6/nwcache", 0xd5cab23bb529140c),
    ("ooc_write/ooc.6/standard", 0x9b0d59b4ce500aa4),
    ("ooc_write/ooc.7/nwcache", 0x9591623244a680bf),
    ("ooc_write/ooc.7/standard", 0xbcfd6fd131ca89ac),
    ("ooc_write/ooc.8/nwcache", 0xde55c32a9f83e638),
    ("ooc_write/ooc.8/standard", 0x006f3fe006b1d467),
    ("ooc_write/ooc.9/nwcache", 0x61759c8e687323a1),
    ("ooc_write/ooc.9/standard", 0x8e3387c279865142),
    ("paper/canary/lu/nwcache", 0x0e50954f01e25424),
    ("paper/em3d/nwcache", 0x9d2d868669a54fd8),
    ("paper/em3d/standard", 0x44f266b6e3939e3b),
    ("paper/fft/nwcache", 0x4a96b525592884e8),
    ("paper/fft/standard", 0x2025045d481d1e27),
    ("paper/gauss/nwcache", 0xc552eff2e1f0ea56),
    ("paper/gauss/standard", 0x3758cdb8aa2d288a),
    ("paper/kernel/ckpt", 0x3b47c420053289d1),
    ("paper/kernel/disk.ctrl", 0xdf93a7986e35ab39),
    ("paper/kernel/memhier.dir", 0xa9e301e77374d3a3),
    ("paper/kernel/memhier.probe", 0x6bc70cc1866f4275),
    ("paper/kernel/mesh.send", 0x12d35b4ff3c81a81),
    ("paper/kernel/proto.frame", 0xd767d92a1daea894),
    ("paper/kernel/ring.op", 0x4c90273e459949a2),
    ("paper/kernel/summary.json", 0xfd5deef3e2109ac8),
    ("paper/lu/nwcache", 0x0e50954f01e25424),
    ("paper/lu/standard", 0x537f6addd0692588),
    ("paper/mg/nwcache", 0xafa016333ebbcf74),
    ("paper/mg/standard", 0xaeb4bf02d00c5876),
    ("paper/radix/nwcache", 0xe499db5ebf04e894),
    ("paper/radix/standard", 0x87ad1b74e719d1a9),
    ("paper/sor/nwcache", 0xa61a6a9c7bd5e106),
    ("paper/sor/standard", 0x208ad055b187901f),
    ("served/em3d/nwcache", 0xe133eecd998f3742),
    ("served/em3d/standard", 0xe3f4cd38993cd937),
    ("served/fft/nwcache", 0xcbcdba3103818d68),
    ("served/fft/standard", 0x07f24c063429d5ea),
    ("served/gauss/nwcache", 0xcdeaab3cbce3cebe),
    ("served/gauss/standard", 0xcb5f62bff62d4a7c),
    ("served/kernel/ckpt", 0x29dde4d6feb15eed),
    ("served/kernel/disk.ctrl", 0x6fc90d170b6181cd),
    ("served/kernel/memhier.dir", 0x1af46daecabdb208),
    ("served/kernel/memhier.probe", 0x2d8482a984354b70),
    ("served/kernel/mesh.send", 0x757ef33a19100efe),
    ("served/kernel/proto.frame", 0x9677f4565941852a),
    ("served/kernel/ring.op", 0xf5b740d1010cce4e),
    ("served/kernel/summary.json", 0xfc1342361574ad62),
    ("served/lu/nwcache", 0x091b288a2fb6c09c),
    ("served/lu/standard", 0xbffa80fd6fa590fb),
    ("served/mg/nwcache", 0x34fe71f1c3297a4d),
    ("served/mg/standard", 0xe18197a614c7b961),
    ("served/radix/nwcache", 0xf5ef9933614c793f),
    ("served/radix/standard", 0x8d4772648f4b6848),
    ("served/sor/nwcache", 0x2d53a5ae825c9867),
    ("served/sor/standard", 0x1c7e2b4a6553b5a0),
];
