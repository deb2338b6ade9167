//! Property-style tests over the invariants DESIGN.md calls out: datatype
//! size/extent algebra, pack/unpack round trips, group set algebra,
//! reduction correctness against a serial fold, object serialization
//! round trips, and the buffer byte views against the per-element
//! encoding.
//!
//! The build environment has no crates.io mirror, so instead of proptest
//! these run each property over a deterministic pseudo-random sample
//! (a fixed-seed xorshift generator) — the same shape of coverage, fully
//! reproducible, no external dependency.

use mpi_native::{pack, DatatypeDef, Group, Op, PredefinedOp, PrimitiveKind};
use mpijava::buffer::{bytes_to_elements, elements_to_bytes};
use mpijava::serial::{deserialize, serialize};
use mpijava::{BufferElement, Datatype};

/// Deterministic xorshift64* generator: the "arbitrary input" source.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn isize_in(&mut self, lo: isize, hi: isize) -> isize {
        lo + (self.next_u64() as usize % (hi - lo) as usize) as isize
    }

    fn i32_in(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

const CASES: usize = 64;

/// size(contiguous(n, T)) == n * size(T) and extents compose the same way.
#[test]
fn contiguous_datatype_algebra() {
    let mut g = Gen::new(0xC047);
    for _ in 0..CASES {
        let count = g.usize_in(1, 50);
        let base = Datatype::double();
        let derived = Datatype::contiguous(count, &base).unwrap();
        assert_eq!(derived.size(), count * base.size());
        assert_eq!(derived.extent(), count as isize * base.extent());
    }
}

/// A vector type selects exactly count*blocklength elements regardless of
/// stride, and its extent equals the span implied by the stride.
#[test]
fn vector_datatype_size_is_stride_independent() {
    let mut g = Gen::new(0x7EC7);
    for _ in 0..CASES {
        let count = g.usize_in(1, 8);
        let blocklength = g.usize_in(1, 8);
        let extra_stride = g.isize_in(0, 8);
        let stride = blocklength as isize + extra_stride;
        let v = Datatype::vector(count, blocklength, stride, &Datatype::int()).unwrap();
        assert_eq!(v.size(), count * blocklength * 4);
        let span = ((count as isize - 1) * stride + blocklength as isize) * 4;
        assert_eq!(v.extent(), span);
    }
}

/// pack followed by unpack restores exactly the selected elements and
/// never touches the holes.
#[test]
fn pack_unpack_roundtrip_indexed() {
    let mut g = Gen::new(0xD00D);
    for _ in 0..CASES {
        // Build non-overlapping blocks by laying them out cumulatively.
        let n_blocks = g.usize_in(1, 5);
        let mut blocklengths = Vec::new();
        let mut displacements = Vec::new();
        let mut cursor = 0isize;
        for _ in 0..n_blocks {
            let len = g.usize_in(1, 4);
            let gap = g.usize_in(0, 4);
            displacements.push(cursor + gap as isize);
            blocklengths.push(len);
            cursor += (gap + len) as isize;
        }
        let dt = DatatypeDef::basic(PrimitiveKind::Int)
            .indexed(&blocklengths, &displacements)
            .unwrap();
        let total_elems = cursor as usize + 4;
        let original: Vec<u8> = (0..total_elems as i32 * 4).map(|i| i as u8).collect();
        let packed = pack::pack(&original, 0, 1, &dt).unwrap();
        assert_eq!(packed.len(), dt.size());

        let mut restored = vec![0u8; original.len()];
        pack::unpack(&packed, &mut restored, 0, 1, &dt).unwrap();
        // Pack the restored buffer again: must equal the first packing.
        let repacked = pack::pack(&restored, 0, 1, &dt).unwrap();
        assert_eq!(packed, repacked);
    }
}

/// Group set algebra: union/intersection/difference behave like the
/// corresponding operations on sets of world ranks.
#[test]
fn group_set_algebra() {
    use std::collections::BTreeSet;
    let mut g = Gen::new(0x6209);
    for _ in 0..CASES {
        let a: BTreeSet<usize> = (0..g.usize_in(0, 10)).map(|_| g.usize_in(0, 16)).collect();
        let b: BTreeSet<usize> = (0..g.usize_in(0, 10)).map(|_| g.usize_in(0, 16)).collect();
        let ga = Group::from_ranks(a.iter().copied().collect()).unwrap();
        let gb = Group::from_ranks(b.iter().copied().collect()).unwrap();

        let union: BTreeSet<usize> = ga.union(&gb).ranks().iter().copied().collect();
        let expected_union: BTreeSet<usize> = a.union(&b).copied().collect();
        assert_eq!(union, expected_union);

        let inter: BTreeSet<usize> = ga.intersection(&gb).ranks().iter().copied().collect();
        let expected_inter: BTreeSet<usize> = a.intersection(&b).copied().collect();
        assert_eq!(inter, expected_inter);

        let diff: BTreeSet<usize> = ga.difference(&gb).ranks().iter().copied().collect();
        let expected_diff: BTreeSet<usize> = a.difference(&b).copied().collect();
        assert_eq!(diff, expected_diff);

        // Membership / rank translation consistency.
        for (idx, &world) in ga.ranks().iter().enumerate() {
            assert_eq!(ga.rank_of(world), Some(idx));
        }
    }
}

/// Engine reductions agree with a straightforward serial fold.
#[test]
fn reductions_match_serial_fold() {
    let mut g = Gen::new(0xF01D);
    for _ in 0..CASES {
        let n_contrib = g.usize_in(1, 6);
        let contributions: Vec<Vec<i32>> = (0..n_contrib)
            .map(|_| (0..4).map(|_| g.i32_in(-1000, 1000)).collect())
            .collect();
        for op in [PredefinedOp::Sum, PredefinedOp::Max, PredefinedOp::Min] {
            let engine_op = Op::Predefined(op);
            let mut acc: Vec<u8> = contributions[0]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            for c in &contributions[1..] {
                let bytes: Vec<u8> = c.iter().flat_map(|v| v.to_le_bytes()).collect();
                engine_op
                    .apply(&bytes, &mut acc, PrimitiveKind::Int, 4)
                    .unwrap();
            }
            let got: Vec<i32> = acc
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for i in 0..4 {
                let column: Vec<i32> = contributions.iter().map(|c| c[i]).collect();
                let expected = match op {
                    PredefinedOp::Sum => column.iter().sum::<i32>(),
                    PredefinedOp::Max => *column.iter().max().unwrap(),
                    PredefinedOp::Min => *column.iter().min().unwrap(),
                    _ => unreachable!(),
                };
                assert_eq!(got[i], expected, "op {op:?} column {i}");
            }
        }
    }
}

/// The object serializer round-trips arbitrary nested payloads.
#[test]
fn serialization_roundtrip() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let mut g = Gen::new(0x5E41);
    for _ in 0..CASES {
        let ints: Vec<i64> = (0..g.usize_in(0, 20))
            .map(|_| g.next_u64() as i64)
            .collect();
        let text: String = (0..g.usize_in(0, 40))
            .map(|_| ALPHABET[g.usize_in(0, ALPHABET.len())] as char)
            .collect();
        let flag = if g.bool() { Some(g.bool()) } else { None };
        let value = (ints.clone(), text.clone(), flag);
        let bytes = serialize(&value);
        let back: (Vec<i64>, String, Option<bool>) = deserialize(&bytes).unwrap();
        assert_eq!(back, value);
    }
}

/// Status counts divide bytes exactly or report None, never panic.
#[test]
fn status_count_partial_instances() {
    for bytes in 0usize..256 {
        let info = mpi_native::StatusInfo {
            source: 0,
            tag: 0,
            count_bytes: bytes,
            cancelled: false,
            index: 0,
        };
        for kind in [
            PrimitiveKind::Byte,
            PrimitiveKind::Int,
            PrimitiveKind::Double,
        ] {
            match info.count(kind) {
                Some(n) => assert_eq!(n * kind.size(), bytes),
                None => assert_ne!(bytes % kind.size(), 0),
            }
        }
    }
}

/// The per-element encoding the byte views must reproduce.
fn per_element_bytes<T: BufferElement>(elems: &[T]) -> Vec<u8> {
    let width = T::width();
    let mut out = vec![0u8; elems.len() * width];
    for (chunk, e) in out.chunks_exact_mut(width).zip(elems) {
        e.write_le(chunk);
    }
    out
}

/// `elements_to_bytes` / `bytes_to_elements` (byte views where the type
/// has them) agree byte for byte with `write_le` / `read_le` element by
/// element: random buffers seeded with `specials`, nonzero offsets, and
/// random wire bytes that may end in a partial element.
fn views_match_per_element_encoding<T: BufferElement>(
    seed: u64,
    specials: &[T],
    sample: impl Fn(&mut Gen) -> T,
) {
    let mut g = Gen::new(seed);
    let width = T::width();
    for _ in 0..CASES {
        let len = g.usize_in(1, 48);
        let mut buf: Vec<T> = (0..len).map(|_| sample(&mut g)).collect();
        for &special in specials {
            let at = g.usize_in(0, len);
            buf[at] = special;
        }
        let offset = g.usize_in(0, len + 1);
        let count = g.usize_in(0, len - offset + 1);
        assert_eq!(
            elements_to_bytes(&buf, offset, count),
            per_element_bytes(&buf[offset..offset + count]),
            "{:?}: send side, offset {offset}, count {count}",
            T::KIND
        );
        if let Some(view) = T::byte_view(&buf) {
            assert_eq!(view, per_element_bytes(&buf), "{:?}: read view", T::KIND);
        }

        let wire_len = g.usize_in(0, (len - offset + 1) * width);
        let wire: Vec<u8> = (0..wire_len).map(|_| g.next_u64() as u8).collect();
        let mut got = buf.clone();
        let n = bytes_to_elements(&mut got, offset, &wire);
        let mut want = buf.clone();
        let n_want = (wire_len / width).min(len - offset);
        for (e, chunk) in want[offset..offset + n_want]
            .iter_mut()
            .zip(wire.chunks_exact(width))
        {
            *e = T::read_le(chunk);
        }
        assert_eq!(n, n_want, "{:?}: elements written", T::KIND);
        assert_eq!(
            per_element_bytes(&got),
            per_element_bytes(&want),
            "{:?}: receive side, offset {offset}, {wire_len} wire bytes",
            T::KIND
        );
    }
}

#[test]
fn byte_views_match_the_per_element_encoding() {
    views_match_per_element_encoding(0xB1, &[i8::MIN, -1], |g| g.next_u64() as i8);
    views_match_per_element_encoding(0xB2, &[u8::MAX], |g| g.next_u64() as u8);
    views_match_per_element_encoding(0xB3, &[i16::MIN, -1], |g| g.next_u64() as i16);
    views_match_per_element_encoding(0xB4, &[u16::MAX], |g| g.next_u64() as u16);
    views_match_per_element_encoding(0xB5, &[i32::MIN, -1], |g| g.next_u64() as i32);
    views_match_per_element_encoding(0xB6, &[i64::MIN, i64::MAX, -1], |g| g.next_u64() as i64);
    views_match_per_element_encoding(
        0xB7,
        &[
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFF80_0001),
            -0.0,
        ],
        |g| f32::from_bits(g.next_u64() as u32),
    );
    views_match_per_element_encoding(
        0xB8,
        &[
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF0_0000_0000_0001),
            -0.0,
        ],
        |g| f64::from_bits(g.next_u64()),
    );
    views_match_per_element_encoding(0xB9, &[true, false], |g| g.bool());
    views_match_per_element_encoding(0xBA, &['\u{1F600}', '\u{10FFFF}', '\u{FFFF}'], |g| {
        char::from_u32(g.next_u64() as u32 % 0x11_0000).unwrap_or('\u{D7FF}')
    });
}

#[test]
fn view_coverage_and_the_bool_and_char_exceptions() {
    // Read and write views for the fixed-width primitives.
    assert!(f64::byte_view(&[1.0]).is_some() && f64::byte_view_mut(&mut [1.0]).is_some());
    assert!(i8::byte_view(&[1]).is_some() && i8::byte_view_mut(&mut [1]).is_some());
    // bool is read-only: a wire byte of 0x02 must still read as `true`.
    assert_eq!(bool::byte_view(&[true, false]), Some(&[1u8, 0][..]));
    assert!(bool::byte_view_mut(&mut [false]).is_none());
    let mut flags = [false; 3];
    assert_eq!(bytes_to_elements(&mut flags, 0, &[0x02, 0x00, 0xFF]), 3);
    assert_eq!(flags, [true, false, true]);
    // char is 4 bytes in memory but 2 on the wire: no views, and code
    // points outside the BMP are truncated like a Java cast to char.
    assert!(char::byte_view(&['a']).is_none());
    assert!(char::byte_view_mut(&mut ['a']).is_none());
    assert_eq!(
        elements_to_bytes(&['\u{1F600}', 'A'], 0, 2),
        [0x00, 0xF6, 0x41, 0x00]
    );
    let mut chars = ['\0'; 2];
    bytes_to_elements(&mut chars, 0, &[0x00, 0xF6, 0x41, 0x00]);
    assert_eq!(chars, ['\u{F600}', 'A']);
}
