//! Message buffers with Java-array semantics.
//!
//! In mpiJava every communication call takes `(Object buf, int offset,
//! int count, Datatype datatype, ...)` where `buf` must be a
//! one-dimensional Java array of a primitive type (the paper, §2). This
//! module gives the Rust binding the same shape: the [`BufferElement`]
//! trait marks the Rust element types that correspond to the Java
//! primitive element types of Figure 2, and provides the byte views the
//! simulated JNI layer marshals across the boundary.

use mpi_native::PrimitiveKind;

/// Marker + byte-view trait for element types usable in message buffers.
///
/// The Java `char` (UTF-16 code unit) maps to `u16`; Java `byte` to `i8`
/// (with `u8` also accepted for convenience); `boolean` to `bool`.
pub trait BufferElement: Copy + Default + Send + Sync + 'static {
    /// The MPI basic datatype this element corresponds to (paper Figure 2).
    const KIND: PrimitiveKind;

    /// Serialize one element into little-endian bytes.
    fn write_le(&self, out: &mut [u8]);
    /// Deserialize one element from little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;

    /// Read view: `elems` as their wire bytes, without a copy, when the
    /// in-memory representation already is the little-endian wire
    /// encoding. `None` means callers fall back to [`write_le`] per
    /// element.
    ///
    /// [`write_le`]: BufferElement::write_le
    fn byte_view(_elems: &[Self]) -> Option<&[u8]> {
        None
    }

    /// Write view: `elems` as mutable wire bytes, when every byte pattern
    /// is a valid element. `None` means callers fall back to
    /// [`read_le`](BufferElement::read_le) per element.
    fn byte_view_mut(_elems: &mut [Self]) -> Option<&mut [u8]> {
        None
    }

    /// Width of one element in bytes.
    fn width() -> usize {
        Self::KIND.size()
    }

    /// The [`Datatype`](crate::Datatype) inferred for buffers of this
    /// element type. This is what lets the idiomatic API ([`crate::rs`])
    /// drop the explicit `Datatype` argument from every call site:
    /// `world.send(&buf, dest, tag)` sends `buf.len()` elements of
    /// `T::datatype()`.
    fn datatype() -> crate::datatype::Datatype {
        crate::datatype::Datatype::of_kind(Self::KIND)
    }
}

macro_rules! impl_buffer_element {
    ($($ty:ty => $kind:expr),* $(,)?) => {$(
        impl BufferElement for $ty {
            const KIND: PrimitiveKind = $kind;
            fn write_le(&self, out: &mut [u8]) {
                out[..std::mem::size_of::<$ty>()].copy_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes[..std::mem::size_of::<$ty>()].try_into().unwrap())
            }
            #[cfg(target_endian = "little")]
            fn byte_view(elems: &[Self]) -> Option<&[u8]> {
                // SAFETY: a primitive integer or float has no padding, so
                // all `size_of_val(elems)` bytes behind the pointer are
                // initialized; on a little-endian target they are exactly
                // `to_le_bytes` of each element. `u8` has alignment 1, and
                // the view borrows `elems`, so it cannot outlive it.
                Some(unsafe {
                    std::slice::from_raw_parts(elems.as_ptr().cast(), std::mem::size_of_val(elems))
                })
            }
            #[cfg(target_endian = "little")]
            fn byte_view_mut(elems: &mut [Self]) -> Option<&mut [u8]> {
                // SAFETY: as in `byte_view`; in addition every byte
                // pattern is a valid value of this type, so any bytes
                // written through the view leave valid elements behind,
                // and the exclusive borrow of `elems` makes the view the
                // only access while it lives.
                Some(unsafe {
                    std::slice::from_raw_parts_mut(
                        elems.as_mut_ptr().cast(),
                        std::mem::size_of_val(elems),
                    )
                })
            }
        }
    )*}
}

impl_buffer_element!(
    i8 => PrimitiveKind::Byte,
    u8 => PrimitiveKind::Byte,
    i16 => PrimitiveKind::Short,
    u16 => PrimitiveKind::Char,
    i32 => PrimitiveKind::Int,
    i64 => PrimitiveKind::Long,
    f32 => PrimitiveKind::Float,
    f64 => PrimitiveKind::Double,
);

impl BufferElement for bool {
    // Read view only: a received byte other than 0 or 1 is not a valid
    // `bool`, so receives keep the element loop, which reads any nonzero
    // byte as `true`.
    const KIND: PrimitiveKind = PrimitiveKind::Boolean;
    fn write_le(&self, out: &mut [u8]) {
        out[0] = *self as u8;
    }
    fn read_le(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
    fn byte_view(elems: &[Self]) -> Option<&[u8]> {
        // SAFETY: `bool` is one byte holding 0 or 1 — exactly its wire
        // encoding, on any target. `u8` has alignment 1, and the view
        // borrows `elems`, so it cannot outlive it.
        Some(unsafe { std::slice::from_raw_parts(elems.as_ptr().cast(), elems.len()) })
    }
}

impl BufferElement for char {
    // Java's char is a UTF-16 code unit; mpiJava sends it as MPI.CHAR
    // (2 bytes). Characters outside the BMP are truncated exactly as a
    // Java cast to char would truncate them. A Rust `char` is 4 bytes in
    // memory, so neither byte view exists.
    const KIND: PrimitiveKind = PrimitiveKind::Char;
    fn write_le(&self, out: &mut [u8]) {
        let code = *self as u32 as u16;
        out[..2].copy_from_slice(&code.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        let code = u16::from_le_bytes(bytes[..2].try_into().unwrap());
        char::from_u32(code as u32).unwrap_or('\u{FFFD}')
    }
}

/// Convert `buf[offset..]` (element indices, like the Java `offset`
/// argument) to a little-endian byte image covering `elem_count` elements.
///
/// This is the simulated `Get*ArrayRegion`. For every type with a
/// [`byte_view`](BufferElement::byte_view) — all but `char` — it is one
/// block copy of the view; `char` converts element by element.
pub fn elements_to_bytes<T: BufferElement>(buf: &[T], offset: usize, elem_count: usize) -> Vec<u8> {
    let elems = &buf[offset..offset + elem_count];
    if let Some(bytes) = T::byte_view(elems) {
        return bytes.to_vec();
    }
    let width = T::width();
    let mut out = vec![0u8; elem_count * width];
    for (chunk, e) in out.chunks_exact_mut(width).zip(elems) {
        e.write_le(chunk);
    }
    out
}

/// Convert the whole slice to bytes (no offset).
pub fn slice_to_bytes<T: BufferElement>(buf: &[T]) -> Vec<u8> {
    elements_to_bytes(buf, 0, buf.len())
}

/// Scatter little-endian `bytes` back into `buf[offset..]`.
/// Returns the number of whole elements written; a trailing partial
/// element in `bytes` is ignored.
///
/// This is the simulated `Set*ArrayRegion`. For every type with a
/// [`byte_view_mut`](BufferElement::byte_view_mut) it is one block copy;
/// `bool` (any nonzero byte reads as `true`) and `char` convert element
/// by element.
pub fn bytes_to_elements<T: BufferElement>(buf: &mut [T], offset: usize, bytes: &[u8]) -> usize {
    let width = T::width();
    let n = (bytes.len() / width).min(buf.len().saturating_sub(offset));
    let elems = &mut buf[offset..offset + n];
    if let Some(view) = T::byte_view_mut(elems) {
        view.copy_from_slice(&bytes[..n * width]);
        return n;
    }
    for (e, chunk) in elems.iter_mut().zip(bytes.chunks_exact(width)) {
        *e = T::read_le(chunk);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_kinds_match_figure_2() {
        assert_eq!(<i8 as BufferElement>::KIND, PrimitiveKind::Byte);
        assert_eq!(<u16 as BufferElement>::KIND, PrimitiveKind::Char);
        assert_eq!(<bool as BufferElement>::KIND, PrimitiveKind::Boolean);
        assert_eq!(<i16 as BufferElement>::KIND, PrimitiveKind::Short);
        assert_eq!(<i32 as BufferElement>::KIND, PrimitiveKind::Int);
        assert_eq!(<i64 as BufferElement>::KIND, PrimitiveKind::Long);
        assert_eq!(<f32 as BufferElement>::KIND, PrimitiveKind::Float);
        assert_eq!(<f64 as BufferElement>::KIND, PrimitiveKind::Double);
        assert_eq!(<char as BufferElement>::KIND, PrimitiveKind::Char);
    }

    #[test]
    fn roundtrip_every_type() {
        let ints = [1i32, -7, i32::MAX];
        let bytes = elements_to_bytes(&ints, 0, 3);
        let mut back = [0i32; 3];
        assert_eq!(bytes_to_elements(&mut back, 0, &bytes), 3);
        assert_eq!(back, ints);

        let doubles = [3.5f64, -0.25, f64::MIN_POSITIVE];
        let bytes = elements_to_bytes(&doubles, 0, 3);
        let mut back = [0f64; 3];
        bytes_to_elements(&mut back, 0, &bytes);
        assert_eq!(back, doubles);

        let bools = [true, false, true];
        let bytes = elements_to_bytes(&bools, 0, 3);
        let mut back = [false; 3];
        bytes_to_elements(&mut back, 0, &bytes);
        assert_eq!(back, bools);
    }

    #[test]
    fn offsets_select_a_window() {
        let data = [10i32, 20, 30, 40, 50];
        let bytes = elements_to_bytes(&data, 1, 3);
        let mut back = [0i32; 5];
        bytes_to_elements(&mut back, 2, &bytes);
        assert_eq!(back, [0, 0, 20, 30, 40]);
    }

    #[test]
    fn chars_round_trip_like_java_chars() {
        let chars = ['H', 'i', '!'];
        let bytes = elements_to_bytes(&chars, 0, 3);
        assert_eq!(bytes.len(), 6);
        let mut back = ['\0'; 3];
        bytes_to_elements(&mut back, 0, &bytes);
        assert_eq!(back, chars);
    }

    #[test]
    fn short_byte_input_writes_partial_elements() {
        let mut buf = [0i32; 4];
        let n = bytes_to_elements(&mut buf, 0, &elements_to_bytes(&[7i32, 8], 0, 2));
        assert_eq!(n, 2);
        assert_eq!(buf, [7, 8, 0, 0]);
    }
}
