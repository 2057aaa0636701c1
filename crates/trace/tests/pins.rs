//! Pins the interpreter's exact event streams.
//!
//! Every case traces one kernel under one schedule and folds each event of
//! each processor's stream, epoch by epoch, into a 64-bit FNV-1a digest over
//! a canonical little-endian encoding: the event's tag and every field it
//! carries (address, read kind and distance, version, cost, lock, event and
//! index). Any change to any stream changes the digest, so an interpreter
//! change that must not alter the traces has to leave every pin as it is.
//! On a mismatch the failure message prints the whole table as it now reads.

use tpi_compiler::{mark_program, CompilerOptions};
use tpi_mem::ReadKind;
use tpi_trace::{generate_trace, EpochExecKind, Event, SchedulePolicy, Trace, TraceOptions};
use tpi_workloads::{Kernel, Scale};

/// 64-bit FNV-1a (stable across hosts and toolchains, unlike
/// `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn kind(&mut self, kind: ReadKind) {
        match kind {
            ReadKind::Plain => self.u8(0),
            ReadKind::TimeRead { distance } => {
                self.u8(1);
                // Widened back to the four bytes the pins were computed
                // over, as the versions below are to eight.
                self.u32(u32::from(distance));
            }
            ReadKind::Bypass => self.u8(2),
            ReadKind::Critical => self.u8(3),
        }
    }

    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::Compute(cost) => {
                self.u8(0);
                self.u32(cost);
            }
            Event::Read {
                addr,
                kind,
                version,
            } => {
                self.u8(1);
                self.u64(addr.0);
                self.kind(kind);
                self.u64(u64::from(version));
            }
            Event::Write { addr, version } => {
                self.u8(2);
                self.u64(addr.0);
                self.u64(u64::from(version));
            }
            Event::CriticalWrite { addr, version } => {
                self.u8(3);
                self.u64(addr.0);
                self.u64(u64::from(version));
            }
            Event::AcquireLock(lock) => {
                self.u8(4);
                self.u32(lock);
            }
            Event::ReleaseLock(lock) => {
                self.u8(5);
                self.u32(lock);
            }
            Event::PostEvent { event, index } => {
                self.u8(6);
                self.u32(event);
                self.i64(index);
            }
            Event::WaitEvent { event, index } => {
                self.u8(7);
                self.u32(event);
                self.i64(index);
            }
        }
    }
}

/// The digest of every event stream of `trace`.
fn digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.u32(trace.num_procs);
    h.u64(trace.epochs.len() as u64);
    for e in &trace.epochs {
        h.u64(e.epoch.0);
        match e.kind {
            EpochExecKind::Serial => h.u8(0),
            EpochExecKind::Doall { iterations } => {
                h.u8(1);
                h.u64(iterations);
            }
        }
        h.u64(e.per_proc.len() as u64);
        for (p, evs) in e.per_proc.iter().enumerate() {
            h.u64(p as u64);
            h.u64(evs.len() as u64);
            for ev in evs {
                h.event(ev);
            }
        }
    }
    h.0
}

/// The schedules every test-scale kernel runs under, with their case labels.
const POLICIES: [(&str, SchedulePolicy); 4] = [
    ("block", SchedulePolicy::StaticBlock),
    ("cyclic", SchedulePolicy::StaticCyclic),
    ("dynamic2", SchedulePolicy::Dynamic { chunk: 2 }),
    (
        "migrating2",
        SchedulePolicy::DynamicMigrating {
            chunk: 2,
            migrate_per_1024: 256,
        },
    ),
];

/// Every pinned case: (name, kernel, scale, options).
fn cases() -> Vec<(String, Kernel, Scale, TraceOptions)> {
    let mut out = Vec::new();
    for k in Kernel::ALL.into_iter().chain(Kernel::EXTENDED) {
        for procs in [1, 3, 16] {
            for (label, policy) in POLICIES {
                for rotate_serial in [false, true] {
                    let name = format!(
                        "{}/test/p{procs}/{label}/{}",
                        k.name(),
                        if rotate_serial { "rotate" } else { "pinned" }
                    );
                    let opts = TraceOptions {
                        num_procs: procs,
                        policy,
                        rotate_serial,
                        ..TraceOptions::default()
                    };
                    out.push((name, k, Scale::Test, opts));
                }
            }
        }
    }
    for k in Kernel::ALL {
        let name = format!("{}/paper/p16/block/pinned", k.name());
        out.push((name, k, Scale::Paper, TraceOptions::default()));
    }
    out
}

#[test]
fn event_streams_match_their_pins() {
    let mut actual = Vec::new();
    for (name, k, scale, opts) in cases() {
        let prog = k.build(scale);
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &opts)
            .unwrap_or_else(|e| panic!("{name}: kernels are race-free: {e}"));
        assert_eq!(
            trace.stats,
            Trace::compute_stats(&trace.epochs),
            "{name}: the stats counted while tracing must equal a recount"
        );
        actual.push((name, digest(&trace)));
    }
    let expected: Vec<(String, u64)> = PINS.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    if actual != expected {
        let changed: Vec<&str> = actual
            .iter()
            .filter(|(n, d)| !PINS.contains(&(n.as_str(), *d)))
            .map(|(n, _)| n.as_str())
            .collect();
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!(
            "{} of {} event streams differ from their pins: {changed:?}\n\
             the table now reads:\n{table}",
            changed.len(),
            actual.len()
        );
    }
}

/// The pinned digests, in `cases()` order.
const PINS: &[(&str, u64)] = &[
    ("SPEC77/test/p1/block/pinned", 0xd46ac4fd9a32253e),
    ("SPEC77/test/p1/block/rotate", 0xd46ac4fd9a32253e),
    ("SPEC77/test/p1/cyclic/pinned", 0xd46ac4fd9a32253e),
    ("SPEC77/test/p1/cyclic/rotate", 0xd46ac4fd9a32253e),
    ("SPEC77/test/p1/dynamic2/pinned", 0x0aa0fa0694ad4e2e),
    ("SPEC77/test/p1/dynamic2/rotate", 0x0aa0fa0694ad4e2e),
    ("SPEC77/test/p1/migrating2/pinned", 0x0aa0fa0694ad4e2e),
    ("SPEC77/test/p1/migrating2/rotate", 0x0aa0fa0694ad4e2e),
    ("SPEC77/test/p3/block/pinned", 0xe0971bea0d41c089),
    ("SPEC77/test/p3/block/rotate", 0xe0971bea0d41c089),
    ("SPEC77/test/p3/cyclic/pinned", 0x779462b8bb1dbca1),
    ("SPEC77/test/p3/cyclic/rotate", 0x779462b8bb1dbca1),
    ("SPEC77/test/p3/dynamic2/pinned", 0x23de778ae4ba7709),
    ("SPEC77/test/p3/dynamic2/rotate", 0x23de778ae4ba7709),
    ("SPEC77/test/p3/migrating2/pinned", 0x9edbc9c283aa8eb8),
    ("SPEC77/test/p3/migrating2/rotate", 0x9edbc9c283aa8eb8),
    ("SPEC77/test/p16/block/pinned", 0x0775ecc685ba09ca),
    ("SPEC77/test/p16/block/rotate", 0x0775ecc685ba09ca),
    ("SPEC77/test/p16/cyclic/pinned", 0x0775ecc685ba09ca),
    ("SPEC77/test/p16/cyclic/rotate", 0x0775ecc685ba09ca),
    ("SPEC77/test/p16/dynamic2/pinned", 0xbf6c8f0cf2ca0c7a),
    ("SPEC77/test/p16/dynamic2/rotate", 0xbf6c8f0cf2ca0c7a),
    ("SPEC77/test/p16/migrating2/pinned", 0x2a64aebb3fd5a1a7),
    ("SPEC77/test/p16/migrating2/rotate", 0x2a64aebb3fd5a1a7),
    ("OCEAN/test/p1/block/pinned", 0x4c71c70bf4c6a193),
    ("OCEAN/test/p1/block/rotate", 0x4c71c70bf4c6a193),
    ("OCEAN/test/p1/cyclic/pinned", 0x4c71c70bf4c6a193),
    ("OCEAN/test/p1/cyclic/rotate", 0x4c71c70bf4c6a193),
    ("OCEAN/test/p1/dynamic2/pinned", 0xbbeba2839cbf5a93),
    ("OCEAN/test/p1/dynamic2/rotate", 0xbbeba2839cbf5a93),
    ("OCEAN/test/p1/migrating2/pinned", 0xbbeba2839cbf5a93),
    ("OCEAN/test/p1/migrating2/rotate", 0xbbeba2839cbf5a93),
    ("OCEAN/test/p3/block/pinned", 0xc0c7a62ee2b253ba),
    ("OCEAN/test/p3/block/rotate", 0xc0c7a62ee2b253ba),
    ("OCEAN/test/p3/cyclic/pinned", 0x592074236cc2f5d2),
    ("OCEAN/test/p3/cyclic/rotate", 0x592074236cc2f5d2),
    ("OCEAN/test/p3/dynamic2/pinned", 0x6d207b8bc2b0fb7a),
    ("OCEAN/test/p3/dynamic2/rotate", 0x6d207b8bc2b0fb7a),
    ("OCEAN/test/p3/migrating2/pinned", 0x3027e3abfcb76a51),
    ("OCEAN/test/p3/migrating2/rotate", 0x3027e3abfcb76a51),
    ("OCEAN/test/p16/block/pinned", 0xdc1465b916e23d23),
    ("OCEAN/test/p16/block/rotate", 0xdc1465b916e23d23),
    ("OCEAN/test/p16/cyclic/pinned", 0xdc1465b916e23d23),
    ("OCEAN/test/p16/cyclic/rotate", 0xdc1465b916e23d23),
    ("OCEAN/test/p16/dynamic2/pinned", 0x876fca65257bd323),
    ("OCEAN/test/p16/dynamic2/rotate", 0x876fca65257bd323),
    ("OCEAN/test/p16/migrating2/pinned", 0x105d3b8f3f736613),
    ("OCEAN/test/p16/migrating2/rotate", 0x105d3b8f3f736613),
    ("FLO52/test/p1/block/pinned", 0xb1ee24c46d5f0be4),
    ("FLO52/test/p1/block/rotate", 0xb1ee24c46d5f0be4),
    ("FLO52/test/p1/cyclic/pinned", 0xb1ee24c46d5f0be4),
    ("FLO52/test/p1/cyclic/rotate", 0xb1ee24c46d5f0be4),
    ("FLO52/test/p1/dynamic2/pinned", 0x06566e0b6bcbf984),
    ("FLO52/test/p1/dynamic2/rotate", 0x06566e0b6bcbf984),
    ("FLO52/test/p1/migrating2/pinned", 0x06566e0b6bcbf984),
    ("FLO52/test/p1/migrating2/rotate", 0x06566e0b6bcbf984),
    ("FLO52/test/p3/block/pinned", 0x8c1fd97aa9a59006),
    ("FLO52/test/p3/block/rotate", 0x31ae43917ad437e6),
    ("FLO52/test/p3/cyclic/pinned", 0xdc3e295a56009926),
    ("FLO52/test/p3/cyclic/rotate", 0x4426e1aa189f1e06),
    ("FLO52/test/p3/dynamic2/pinned", 0xda87d5099d0fd112),
    ("FLO52/test/p3/dynamic2/rotate", 0xe5d25c7ffb331262),
    ("FLO52/test/p3/migrating2/pinned", 0xba379bc80c55ec08),
    ("FLO52/test/p3/migrating2/rotate", 0x86edc7f9cdbb54c8),
    ("FLO52/test/p16/block/pinned", 0x067297111bc998d7),
    ("FLO52/test/p16/block/rotate", 0xb8636e5a21a6c4d7),
    ("FLO52/test/p16/cyclic/pinned", 0x067297111bc998d7),
    ("FLO52/test/p16/cyclic/rotate", 0xb8636e5a21a6c4d7),
    ("FLO52/test/p16/dynamic2/pinned", 0xfffb7b70b0693f17),
    ("FLO52/test/p16/dynamic2/rotate", 0x2efa7083a407e417),
    ("FLO52/test/p16/migrating2/pinned", 0x42936a16f38557d5),
    ("FLO52/test/p16/migrating2/rotate", 0x1cad762d0b59b0d5),
    ("QCD2/test/p1/block/pinned", 0x650f861a47f86940),
    ("QCD2/test/p1/block/rotate", 0x650f861a47f86940),
    ("QCD2/test/p1/cyclic/pinned", 0x650f861a47f86940),
    ("QCD2/test/p1/cyclic/rotate", 0x650f861a47f86940),
    ("QCD2/test/p1/dynamic2/pinned", 0x6c1bd1a9a717e418),
    ("QCD2/test/p1/dynamic2/rotate", 0x6c1bd1a9a717e418),
    ("QCD2/test/p1/migrating2/pinned", 0x6c1bd1a9a717e418),
    ("QCD2/test/p1/migrating2/rotate", 0x6c1bd1a9a717e418),
    ("QCD2/test/p3/block/pinned", 0x26438db44a8786cc),
    ("QCD2/test/p3/block/rotate", 0x26438db44a8786cc),
    ("QCD2/test/p3/cyclic/pinned", 0xd5dbb7fb172b798c),
    ("QCD2/test/p3/cyclic/rotate", 0xd5dbb7fb172b798c),
    ("QCD2/test/p3/dynamic2/pinned", 0xfd3ca1fa5eea0404),
    ("QCD2/test/p3/dynamic2/rotate", 0xfd3ca1fa5eea0404),
    ("QCD2/test/p3/migrating2/pinned", 0xf7465e5dd84eaaf8),
    ("QCD2/test/p3/migrating2/rotate", 0xf7465e5dd84eaaf8),
    ("QCD2/test/p16/block/pinned", 0xaaaf93923f597817),
    ("QCD2/test/p16/block/rotate", 0xaaaf93923f597817),
    ("QCD2/test/p16/cyclic/pinned", 0xc14ef5e95a215373),
    ("QCD2/test/p16/cyclic/rotate", 0xc14ef5e95a215373),
    ("QCD2/test/p16/dynamic2/pinned", 0xb25dca02324e0b4f),
    ("QCD2/test/p16/dynamic2/rotate", 0xb25dca02324e0b4f),
    ("QCD2/test/p16/migrating2/pinned", 0x9fe25b2d0e925a67),
    ("QCD2/test/p16/migrating2/rotate", 0x9fe25b2d0e925a67),
    ("TRFD/test/p1/block/pinned", 0x0e745b20bfc08348),
    ("TRFD/test/p1/block/rotate", 0x0e745b20bfc08348),
    ("TRFD/test/p1/cyclic/pinned", 0x0e745b20bfc08348),
    ("TRFD/test/p1/cyclic/rotate", 0x0e745b20bfc08348),
    ("TRFD/test/p1/dynamic2/pinned", 0x782e0a0b0fe7adb8),
    ("TRFD/test/p1/dynamic2/rotate", 0x782e0a0b0fe7adb8),
    ("TRFD/test/p1/migrating2/pinned", 0x782e0a0b0fe7adb8),
    ("TRFD/test/p1/migrating2/rotate", 0x782e0a0b0fe7adb8),
    ("TRFD/test/p3/block/pinned", 0xaeb129b29d8c3ca9),
    ("TRFD/test/p3/block/rotate", 0xaeb129b29d8c3ca9),
    ("TRFD/test/p3/cyclic/pinned", 0x6643044e00626c81),
    ("TRFD/test/p3/cyclic/rotate", 0x6643044e00626c81),
    ("TRFD/test/p3/dynamic2/pinned", 0x73205e2c9e6d45d9),
    ("TRFD/test/p3/dynamic2/rotate", 0x73205e2c9e6d45d9),
    ("TRFD/test/p3/migrating2/pinned", 0x7c52e3e7ef25a3e2),
    ("TRFD/test/p3/migrating2/rotate", 0x7c52e3e7ef25a3e2),
    ("TRFD/test/p16/block/pinned", 0x3a23d4c4c8c64b62),
    ("TRFD/test/p16/block/rotate", 0x3a23d4c4c8c64b62),
    ("TRFD/test/p16/cyclic/pinned", 0x3a23d4c4c8c64b62),
    ("TRFD/test/p16/cyclic/rotate", 0x3a23d4c4c8c64b62),
    ("TRFD/test/p16/dynamic2/pinned", 0x9e8ee5364571ddb6),
    ("TRFD/test/p16/dynamic2/rotate", 0x9e8ee5364571ddb6),
    ("TRFD/test/p16/migrating2/pinned", 0x4b4f2eebd6cbccfe),
    ("TRFD/test/p16/migrating2/rotate", 0x4b4f2eebd6cbccfe),
    ("ARC2D/test/p1/block/pinned", 0xeef4ef84866fee7b),
    ("ARC2D/test/p1/block/rotate", 0xeef4ef84866fee7b),
    ("ARC2D/test/p1/cyclic/pinned", 0xeef4ef84866fee7b),
    ("ARC2D/test/p1/cyclic/rotate", 0xeef4ef84866fee7b),
    ("ARC2D/test/p1/dynamic2/pinned", 0x893d40295df1c6b3),
    ("ARC2D/test/p1/dynamic2/rotate", 0x893d40295df1c6b3),
    ("ARC2D/test/p1/migrating2/pinned", 0x893d40295df1c6b3),
    ("ARC2D/test/p1/migrating2/rotate", 0x893d40295df1c6b3),
    ("ARC2D/test/p3/block/pinned", 0xebb2b2dcbdea57ea),
    ("ARC2D/test/p3/block/rotate", 0xebb2b2dcbdea57ea),
    ("ARC2D/test/p3/cyclic/pinned", 0xc5b8ece25d652e66),
    ("ARC2D/test/p3/cyclic/rotate", 0xc5b8ece25d652e66),
    ("ARC2D/test/p3/dynamic2/pinned", 0x77119eebf88ee74a),
    ("ARC2D/test/p3/dynamic2/rotate", 0x77119eebf88ee74a),
    ("ARC2D/test/p3/migrating2/pinned", 0xa5176ffd217adef3),
    ("ARC2D/test/p3/migrating2/rotate", 0xa5176ffd217adef3),
    ("ARC2D/test/p16/block/pinned", 0xee445c291efdb5e7),
    ("ARC2D/test/p16/block/rotate", 0xee445c291efdb5e7),
    ("ARC2D/test/p16/cyclic/pinned", 0xee445c291efdb5e7),
    ("ARC2D/test/p16/cyclic/rotate", 0xee445c291efdb5e7),
    ("ARC2D/test/p16/dynamic2/pinned", 0x46982c0faa4564fb),
    ("ARC2D/test/p16/dynamic2/rotate", 0x46982c0faa4564fb),
    ("ARC2D/test/p16/migrating2/pinned", 0xf8312f7a15d65a23),
    ("ARC2D/test/p16/migrating2/rotate", 0xf8312f7a15d65a23),
    ("MDG/test/p1/block/pinned", 0x9f6d1c0bf0b84bb8),
    ("MDG/test/p1/block/rotate", 0x9f6d1c0bf0b84bb8),
    ("MDG/test/p1/cyclic/pinned", 0x9f6d1c0bf0b84bb8),
    ("MDG/test/p1/cyclic/rotate", 0x9f6d1c0bf0b84bb8),
    ("MDG/test/p1/dynamic2/pinned", 0x085809ac40dadb98),
    ("MDG/test/p1/dynamic2/rotate", 0x085809ac40dadb98),
    ("MDG/test/p1/migrating2/pinned", 0x085809ac40dadb98),
    ("MDG/test/p1/migrating2/rotate", 0x085809ac40dadb98),
    ("MDG/test/p3/block/pinned", 0xe2cad213a88f9ed6),
    ("MDG/test/p3/block/rotate", 0xb34df930c0d0711e),
    ("MDG/test/p3/cyclic/pinned", 0xbfe604c9219e07ca),
    ("MDG/test/p3/cyclic/rotate", 0x835f5e3f12bed6f2),
    ("MDG/test/p3/dynamic2/pinned", 0xfa7f016c3d0bebc2),
    ("MDG/test/p3/dynamic2/rotate", 0x508ffed489290cca),
    ("MDG/test/p3/migrating2/pinned", 0x070aaab672cf8396),
    ("MDG/test/p3/migrating2/rotate", 0x8fbc207c860686ee),
    ("MDG/test/p16/block/pinned", 0x56ffa410b568ca81),
    ("MDG/test/p16/block/rotate", 0x4fcba2ce56179c31),
    ("MDG/test/p16/cyclic/pinned", 0xa9090791418b8505),
    ("MDG/test/p16/cyclic/rotate", 0xef355f767a755e05),
    ("MDG/test/p16/dynamic2/pinned", 0xfea00b9a41edbad9),
    ("MDG/test/p16/dynamic2/rotate", 0x9912cf6ec99d8fa9),
    ("MDG/test/p16/migrating2/pinned", 0xa38e369d7e9c70e5),
    ("MDG/test/p16/migrating2/rotate", 0xdb9da6e2af9267a5),
    ("FSHARE/test/p1/block/pinned", 0xe5195edaac7def2b),
    ("FSHARE/test/p1/block/rotate", 0xe5195edaac7def2b),
    ("FSHARE/test/p1/cyclic/pinned", 0xe5195edaac7def2b),
    ("FSHARE/test/p1/cyclic/rotate", 0xe5195edaac7def2b),
    ("FSHARE/test/p1/dynamic2/pinned", 0x2604ac7edc1e77bb),
    ("FSHARE/test/p1/dynamic2/rotate", 0x2604ac7edc1e77bb),
    ("FSHARE/test/p1/migrating2/pinned", 0x2604ac7edc1e77bb),
    ("FSHARE/test/p1/migrating2/rotate", 0x2604ac7edc1e77bb),
    ("FSHARE/test/p3/block/pinned", 0x06bbe991a90763d6),
    ("FSHARE/test/p3/block/rotate", 0x06bbe991a90763d6),
    ("FSHARE/test/p3/cyclic/pinned", 0xab453b7ff07e60fa),
    ("FSHARE/test/p3/cyclic/rotate", 0xab453b7ff07e60fa),
    ("FSHARE/test/p3/dynamic2/pinned", 0xd82f3927beb1309a),
    ("FSHARE/test/p3/dynamic2/rotate", 0xd82f3927beb1309a),
    ("FSHARE/test/p3/migrating2/pinned", 0x0084f351a47b8ec4),
    ("FSHARE/test/p3/migrating2/rotate", 0x0084f351a47b8ec4),
    ("FSHARE/test/p16/block/pinned", 0xd1e388333f4f3f53),
    ("FSHARE/test/p16/block/rotate", 0xd1e388333f4f3f53),
    ("FSHARE/test/p16/cyclic/pinned", 0xb22f04fdef10201b),
    ("FSHARE/test/p16/cyclic/rotate", 0xb22f04fdef10201b),
    ("FSHARE/test/p16/dynamic2/pinned", 0x5b940f0c27c315ef),
    ("FSHARE/test/p16/dynamic2/rotate", 0x5b940f0c27c315ef),
    ("FSHARE/test/p16/migrating2/pinned", 0xcdfbfc9dfbe96281),
    ("FSHARE/test/p16/migrating2/rotate", 0xcdfbfc9dfbe96281),
    ("LDREUSE/test/p1/block/pinned", 0x26f125787c790881),
    ("LDREUSE/test/p1/block/rotate", 0x26f125787c790881),
    ("LDREUSE/test/p1/cyclic/pinned", 0x26f125787c790881),
    ("LDREUSE/test/p1/cyclic/rotate", 0x26f125787c790881),
    ("LDREUSE/test/p1/dynamic2/pinned", 0xa2ddad7994861751),
    ("LDREUSE/test/p1/dynamic2/rotate", 0xa2ddad7994861751),
    ("LDREUSE/test/p1/migrating2/pinned", 0xa2ddad7994861751),
    ("LDREUSE/test/p1/migrating2/rotate", 0xa2ddad7994861751),
    ("LDREUSE/test/p3/block/pinned", 0x8e98842f493b5413),
    ("LDREUSE/test/p3/block/rotate", 0x8e98842f493b5413),
    ("LDREUSE/test/p3/cyclic/pinned", 0x03b5d36f4b117dbf),
    ("LDREUSE/test/p3/cyclic/rotate", 0x03b5d36f4b117dbf),
    ("LDREUSE/test/p3/dynamic2/pinned", 0xe751a701fcb1b6cb),
    ("LDREUSE/test/p3/dynamic2/rotate", 0xe751a701fcb1b6cb),
    ("LDREUSE/test/p3/migrating2/pinned", 0xc0f2f1e7067c6113),
    ("LDREUSE/test/p3/migrating2/rotate", 0xc0f2f1e7067c6113),
    ("LDREUSE/test/p16/block/pinned", 0x0439d98671e62246),
    ("LDREUSE/test/p16/block/rotate", 0x0439d98671e62246),
    ("LDREUSE/test/p16/cyclic/pinned", 0x968c803156b791a6),
    ("LDREUSE/test/p16/cyclic/rotate", 0x968c803156b791a6),
    ("LDREUSE/test/p16/dynamic2/pinned", 0x9b63fefacfcf6d16),
    ("LDREUSE/test/p16/dynamic2/rotate", 0x9b63fefacfcf6d16),
    ("LDREUSE/test/p16/migrating2/pinned", 0x7afbb8f04e76c8a6),
    ("LDREUSE/test/p16/migrating2/rotate", 0x7afbb8f04e76c8a6),
    ("MIGRATE/test/p1/block/pinned", 0x67e8a334fec83caa),
    ("MIGRATE/test/p1/block/rotate", 0x67e8a334fec83caa),
    ("MIGRATE/test/p1/cyclic/pinned", 0x67e8a334fec83caa),
    ("MIGRATE/test/p1/cyclic/rotate", 0x67e8a334fec83caa),
    ("MIGRATE/test/p1/dynamic2/pinned", 0x00bfa14755fdf78a),
    ("MIGRATE/test/p1/dynamic2/rotate", 0x00bfa14755fdf78a),
    ("MIGRATE/test/p1/migrating2/pinned", 0x00bfa14755fdf78a),
    ("MIGRATE/test/p1/migrating2/rotate", 0x00bfa14755fdf78a),
    ("MIGRATE/test/p3/block/pinned", 0x2a09df2ed244e592),
    ("MIGRATE/test/p3/block/rotate", 0x2a09df2ed244e592),
    ("MIGRATE/test/p3/cyclic/pinned", 0xf63de3b11dc06a7e),
    ("MIGRATE/test/p3/cyclic/rotate", 0xf63de3b11dc06a7e),
    ("MIGRATE/test/p3/dynamic2/pinned", 0x882c3d9f28ee678a),
    ("MIGRATE/test/p3/dynamic2/rotate", 0x882c3d9f28ee678a),
    ("MIGRATE/test/p3/migrating2/pinned", 0x80ca0d681b1b2a2a),
    ("MIGRATE/test/p3/migrating2/rotate", 0x80ca0d681b1b2a2a),
    ("MIGRATE/test/p16/block/pinned", 0xe9c8a80472fe9c6f),
    ("MIGRATE/test/p16/block/rotate", 0xe9c8a80472fe9c6f),
    ("MIGRATE/test/p16/cyclic/pinned", 0xa787d781ea28ad3f),
    ("MIGRATE/test/p16/cyclic/rotate", 0xa787d781ea28ad3f),
    ("MIGRATE/test/p16/dynamic2/pinned", 0x2625f3c33eff7727),
    ("MIGRATE/test/p16/dynamic2/rotate", 0x2625f3c33eff7727),
    ("MIGRATE/test/p16/migrating2/pinned", 0x36ad254e93727aa7),
    ("MIGRATE/test/p16/migrating2/rotate", 0x36ad254e93727aa7),
    ("SPEC77/paper/p16/block/pinned", 0xae8f9db81a9fccb2),
    ("OCEAN/paper/p16/block/pinned", 0x4e2ae44d0ae6993f),
    ("FLO52/paper/p16/block/pinned", 0xa9ee69e048179f1a),
    ("QCD2/paper/p16/block/pinned", 0x6a455d5b615157f4),
    ("TRFD/paper/p16/block/pinned", 0x915dc9d68f00fdb9),
    ("ARC2D/paper/p16/block/pinned", 0x9985faf5616a7e4c),
];
