//! The workspace's one byte codec: an append-only big-endian writer, a
//! bounds-checked cursor, and one declared layout per binary record.
//!
//! Wire messages, run-journal checkpoints and the `MLPR` recorded trace
//! are all [`ByteLayout`] values. A record is declared once, with
//! [`byte_layout!`](crate::byte_layout) around its own struct or enum
//! declaration, and both halves of its codec are generated from that one
//! list of fields, so they cannot disagree. What a field's type puts on
//! the wire:
//!
//! * `u8`, `u16`, `u32`, `u64`: fixed-width big-endian; `usize` as `u64`;
//!   `f32`, `f64`: their IEEE-754 bit patterns;
//! * `bool`: one byte, 0 or 1 — a *flag*, whose declaration names the
//!   label any other byte's error carries;
//! * `Option<T>`: a flag, then `T` when it is 1;
//! * `String`: a `u32` byte length, then UTF-8;
//! * `Vec<T>`: a `u32` item count, then the items. The count is checked
//!   against the bytes that remain, at `T::MIN_BYTES` each, before the
//!   list is allocated;
//! * `[T; N]` and tuples: their items in order, with no count;
//! * a declared struct: its fields in declaration order (wire order);
//! * a declared enum: a `u8` tag, then the variant's fields. A tag no
//!   variant declares — a retired one included — is an error.
//!
//! Like [`crate::crc`] this lives in the leaf crate so every codec can
//! reach it. Everything a field calls is `#[inline]`: the workspace builds
//! without LTO, and a call per field across the crate boundary would cost
//! more than the field. The framing around a record (the `MLPR` magic,
//! version and CRC trailer, a run journal's format byte, a wire frame's
//! seal) is written by hand around the declared body.

use crate::crc::crc32;

/// Why a [`ByteReader`] refused a buffer. Each codec converts this into
/// its own error type (`WireError::Protocol`, `CodecError`, the run
/// journal's `LoadGenError::Journal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteError {
    /// The buffer ended before the value (or the counted items) did.
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Cursor position the need arose at.
        offset: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A string field is not UTF-8.
    Utf8,
    /// Bytes remain after the last field.
    Trailing(usize),
    /// A flag holds a byte other than 0 or 1.
    Invalid {
        /// Which field.
        what: &'static str,
        /// What it held.
        value: u64,
    },
    /// A tagged record's tag names no variant.
    UnknownTag {
        /// Which record.
        what: &'static str,
        /// The tag.
        tag: u8,
    },
}

impl std::fmt::Display for ByteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByteError::Truncated {
                wanted,
                offset,
                remaining,
            } => write!(
                f,
                "payload truncated: wanted {wanted} bytes at offset {offset}, {remaining} remain"
            ),
            ByteError::Utf8 => write!(f, "invalid UTF-8 in string field"),
            ByteError::Trailing(1) => write!(f, "1 trailing byte"),
            ByteError::Trailing(n) => write!(f, "{n} trailing bytes"),
            ByteError::Invalid { what, value } => write!(f, "invalid {what} {value}"),
            ByteError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
        }
    }
}

impl std::error::Error for ByteError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// An encoder whose first four bytes are reserved for the checksum
    /// [`ByteWriter::into_sealed`] patches in, with room for a sealed
    /// frame of `capacity` bytes (the checksum included), so a caller
    /// that knows the frame's size never regrows the buffer.
    pub fn sealed(capacity: usize) -> Self {
        let mut w = Self::with_capacity(capacity);
        w.put_bytes(&[0; 4]);
        w
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes an encoder made by [`ByteWriter::sealed`], returning
    /// `crc32(body) || body` with no second buffer.
    pub fn into_sealed(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf[4..]);
        self.buf[..4].copy_from_slice(&crc.to_be_bytes());
        self.buf
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a big-endian `u16` (framing: the `MLPR` version).
    pub fn put_u16(&mut self, v: u16) {
        v.put(self);
    }

    /// Appends a big-endian `u32` (framing: the `MLPR` trailer).
    pub fn put_u32(&mut self, v: u32) {
        v.put(self);
    }
}

/// Cursor-based decoder. Every accessor checks bounds; nothing here
/// panics or allocates ahead of the bytes that justify it.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self, wanted: usize) -> ByteError {
        ByteError::Truncated {
            wanted,
            offset: self.pos,
            remaining: self.remaining(),
        }
    }

    /// Reads `n` raw bytes; a failed read consumes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Truncated`] when fewer remain.
    #[inline]
    fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    #[inline]
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        Ok(self
            .get_bytes(N)?
            .try_into()
            .expect("get_bytes(N) is N long"))
    }

    /// Reads a big-endian `u16` (framing: the `MLPR` version).
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Truncated`] when fewer than two bytes remain.
    pub fn get_u16(&mut self) -> Result<u16, ByteError> {
        u16::get(self)
    }

    /// Asserts the buffer was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError::Trailing`] if bytes remain.
    pub fn finish(self) -> Result<(), ByteError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ByteError::Trailing(n)),
        }
    }
}

/// A value with one byte layout: what [`byte_layout!`](crate::byte_layout)
/// generates for a declared record, and what this module implements for
/// the types its fields use (see the module docs for each one's bytes).
pub trait ByteLayout: Sized {
    /// The least bytes one encoded value occupies: what a list's count is
    /// checked against before the list is allocated.
    const MIN_BYTES: usize;

    /// A declared record's rows of its layout table, as its module docs
    /// show them; empty for the built-in types.
    const LAYOUT: &'static str = "";

    /// Appends the value.
    fn put(&self, w: &mut ByteWriter);

    /// Reads a value.
    ///
    /// # Errors
    ///
    /// Returns [`ByteError`] on truncation, a flag other than 0/1, an
    /// unknown tag, a count the remaining bytes cannot hold or bad UTF-8.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError>;

    /// [`ByteLayout::get`] for a field declared with a flag label: a flag
    /// byte other than 0/1 is refused as [`ByteError::Invalid`] naming
    /// `what`.
    ///
    /// # Errors
    ///
    /// As [`ByteLayout::get`].
    #[inline]
    fn get_flag(r: &mut ByteReader<'_>, _what: &'static str) -> Result<Self, ByteError> {
        Self::get(r)
    }

    /// The value alone in a buffer of its own.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Reads a buffer that holds one value and nothing after it.
    ///
    /// # Errors
    ///
    /// As [`ByteLayout::get`], plus [`ByteError::Trailing`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, ByteError> {
        let mut r = ByteReader::new(bytes);
        let value = Self::get(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

macro_rules! big_endian {
    ($($ty:ty),+) => {$(
        impl ByteLayout for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();

            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.put_bytes(&self.to_be_bytes());
            }

            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
                Ok(<$ty>::from_be_bytes(r.get_array()?))
            }
        }
    )+};
}

big_endian!(u8, u16, u32, u64, f32, f64);

impl ByteLayout for usize {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        (*self as u64).put(w);
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        Ok(u64::get(r)? as usize)
    }
}

impl ByteLayout for bool {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        u8::from(*self).put(w);
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        Self::get_flag(r, "flag")
    }

    #[inline]
    fn get_flag(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ByteError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ByteError::Invalid {
                what,
                value: u64::from(other),
            }),
        }
    }
}

impl<T: ByteLayout> ByteLayout for Option<T> {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(value) = self {
            value.put(w);
        }
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        Self::get_flag(r, "flag")
    }

    #[inline]
    fn get_flag(r: &mut ByteReader<'_>, what: &'static str) -> Result<Self, ByteError> {
        bool::get_flag(r, what)?.then(|| T::get(r)).transpose()
    }
}

impl ByteLayout for String {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        (self.len() as u32).put(w);
        w.put_bytes(self.as_bytes());
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        let len = u32::get(r)? as usize;
        std::str::from_utf8(r.get_bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| ByteError::Utf8)
    }
}

impl<T: ByteLayout> ByteLayout for Vec<T> {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        (self.len() as u32).put(w);
        for item in self {
            item.put(w);
        }
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        const { assert!(T::MIN_BYTES > 0, "a list item must occupy bytes") };
        let count = u32::get(r)? as usize;
        let wanted = count.saturating_mul(T::MIN_BYTES);
        if wanted > r.remaining() {
            return Err(r.truncated(wanted));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: ByteLayout + Copy + Default, const N: usize> ByteLayout for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        for item in self {
            item.put(w);
        }
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r)?;
        }
        Ok(items)
    }
}

macro_rules! tuple {
    ($($ty:ident $value:ident),+) => {
        impl<$($ty: ByteLayout),+> ByteLayout for ($($ty,)+) {
            const MIN_BYTES: usize = 0 $(+ $ty::MIN_BYTES)+;

            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                let ($($value,)+) = self;
                $($value.put(w);)+
            }

            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, ByteError> {
                Ok(($($ty::get(r)?,)+))
            }
        }
    };
}

tuple!(A a, B b);
tuple!(A a, B b, C c);

/// Declares a binary record once and generates its [`ByteLayout`].
///
/// It wraps the record's own declaration, docs and derives included:
///
/// * a struct with named fields, listed in wire order;
/// * an enum with a `u8` tag per variant: `Variant = tag` for a unit
///   variant, `Variant(Type) = tag`, or `Variant { fields } = tag`. The
///   header names the record in an unknown tag's error and lists the
///   tags no variant may take again: `pub enum Message: "message",
///   retired [4, 6] { … }`. Two variants sharing a tag, or a variant
///   taking a retired one, fail to compile. The enum also gets
///   `tag_name()`, its variant's name for diagnostics.
///
/// A field is `name: Type`, with one of two suffixes:
///
/// * `= "label"` on a flag (`bool`, `Option<T>`) names the field in a
///   bad flag's error ("invalid completion error flag 2");
/// * `as Wire { to, from }` spells the layout of a type that cannot
///   implement [`ByteLayout`] itself (one from a crate below this one, or
///   a second layout for a built-in type): `to: fn(&Type) -> Wire` and
///   `from: fn(Wire) -> Type`.
///
/// [`ByteLayout::MIN_BYTES`] is the sum of the fields' (the tag plus the
/// smallest variant for an enum), and [`ByteLayout::LAYOUT`] renders the
/// declaration as Markdown table rows: `` | `Record` | `field: Type`, … | ``
/// for a struct, `` | tag | `Variant` | fields | `` per tag for an enum.
#[macro_export]
macro_rules! byte_layout {
    (@min $ty:ty) => {
        <$ty as $crate::bytes::ByteLayout>::MIN_BYTES
    };
    (@min $ty:ty as $wire:ty { $to:expr, $from:expr }) => {
        <$wire as $crate::bytes::ByteLayout>::MIN_BYTES
    };
    (@put $w:ident, $value:expr, $ty:ty) => {
        $crate::bytes::ByteLayout::put($value, $w)
    };
    (@put $w:ident, $value:expr, $ty:ty as $wire:ty { $to:expr, $from:expr }) => {{
        let to: fn(&$ty) -> $wire = $to;
        $crate::bytes::ByteLayout::put(&to($value), $w)
    }};
    (@get $r:ident, $ty:ty) => {
        <$ty as $crate::bytes::ByteLayout>::get($r)?
    };
    (@get $r:ident, $ty:ty = $label:literal) => {
        <$ty as $crate::bytes::ByteLayout>::get_flag($r, $label)?
    };
    (@get $r:ident, $ty:ty as $wire:ty { $to:expr, $from:expr }) => {{
        let from: fn($wire) -> $ty = $from;
        from(<$wire as $crate::bytes::ByteLayout>::get($r)?)
    }};
    (@field $field:ident $ty:ty) => {
        concat!("`", stringify!($field), ": ", stringify!($ty), "`")
    };
    (@field $field:ident $ty:ty as $wire:ty { $to:expr, $from:expr }) => {
        concat!("`", stringify!($field), ": ", stringify!($ty), " as ", stringify!($wire), "`")
    };
    (@join) => {
        "(empty)"
    };
    (@join $first:expr $(, $rest:expr)*) => {
        concat!($first $(, ", ", $rest)*)
    };
    (@pattern $bind:ident, $name:ident :: $variant:ident) => {
        $name::$variant
    };
    (@pattern $bind:ident, $name:ident :: $variant:ident ($inner:ty)) => {
        $name::$variant($bind)
    };
    (@pattern $bind:ident, $name:ident :: $variant:ident { $($field:ident),* }) => {
        $name::$variant { $($field),* }
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                $field_vis:vis $field:ident: $ty:ty
                $(= $label:literal)?
                $(as $wire:ty { $to:expr, $from:expr $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty,)*
        }

        impl $crate::bytes::ByteLayout for $name {
            const MIN_BYTES: usize =
                0 $(+ $crate::byte_layout!(@min $ty $(as $wire { $to, $from })?))*;

            const LAYOUT: &'static str = concat!(
                "| `", stringify!($name), "` | ",
                $crate::byte_layout!(@join $($crate::byte_layout!(
                    @field $field $ty $(as $wire { $to, $from })?
                )),*),
                " |\n",
            );

            #[inline]
            fn put(&self, w: &mut $crate::bytes::ByteWriter) {
                $($crate::byte_layout!(
                    @put w, &self.$field, $ty $(as $wire { $to, $from })?
                );)*
            }

            #[inline]
            fn get(
                r: &mut $crate::bytes::ByteReader<'_>,
            ) -> Result<Self, $crate::bytes::ByteError> {
                Ok($name {
                    $($field: $crate::byte_layout!(
                        @get r, $ty $(= $label)? $(as $wire { $to, $from })?
                    ),)*
                })
            }
        }
    };
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident: $what:literal $(, retired [$($retired:literal),*])? {
            $(
                $(#[$variant_attr:meta])*
                $variant:ident
                $(($inner:ty))?
                $({
                    $(
                        $(#[$field_attr:meta])*
                        $field:ident: $ty:ty
                        $(= $label:literal)?
                        $(as $wire:ty { $to:expr, $from:expr $(,)? })?
                    ),* $(,)?
                })?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $(
                $(#[$variant_attr])*
                $variant $(($inner))? $({ $($(#[$field_attr])* $field: $ty,)* })?,
            )*
        }

        const _: () = {
            let live: &[u8] = &[$($tag),*];
            let all: &[u8] = &[$($tag,)* $($($retired),*)?];
            let mut i = 0;
            while i < live.len() {
                let mut j = i + 1;
                while j < all.len() {
                    assert!(all[i] != all[j], "a tag is declared twice or retired");
                    j += 1;
                }
                i += 1;
            }
        };

        impl $name {
            /// The variant's name, for diagnostics.
            pub fn tag_name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => stringify!($variant),)*
                }
            }
        }

        impl $crate::bytes::ByteLayout for $name {
            const MIN_BYTES: usize = {
                let mut least = usize::MAX;
                $(
                    let size = 0 $(+ <$inner as $crate::bytes::ByteLayout>::MIN_BYTES)?
                        $($(+ $crate::byte_layout!(@min $ty $(as $wire { $to, $from })?))*)?;
                    if size < least {
                        least = size;
                    }
                )*
                1 + least
            };

            const LAYOUT: &'static str = concat!(
                $(
                    "| ", stringify!($tag), " | `", stringify!($variant), "` | ",
                    $crate::byte_layout!(@join
                        $(concat!("`", stringify!($inner), "`"))?
                        $($($crate::byte_layout!(
                            @field $field $ty $(as $wire { $to, $from })?
                        )),*)?
                    ),
                    " |\n",
                )*
                $($("| ", stringify!($retired), " | — | retired: an unknown tag |\n",)*)?
            );

            #[inline]
            fn put(&self, w: &mut $crate::bytes::ByteWriter) {
                match self {
                    $($crate::byte_layout!(
                        @pattern value, $name::$variant $(($inner))? $({ $($field),* })?
                    ) => {
                        <u8 as $crate::bytes::ByteLayout>::put(&$tag, w);
                        $(<$inner as $crate::bytes::ByteLayout>::put(value, w);)?
                        $($($crate::byte_layout!(
                            @put w, $field, $ty $(as $wire { $to, $from })?
                        );)*)?
                    })*
                }
            }

            #[inline]
            fn get(
                r: &mut $crate::bytes::ByteReader<'_>,
            ) -> Result<Self, $crate::bytes::ByteError> {
                Ok(match <u8 as $crate::bytes::ByteLayout>::get(r)? {
                    $($tag => $name::$variant
                        $((<$inner as $crate::bytes::ByteLayout>::get(r)?))?
                        $({$($field: $crate::byte_layout!(
                            @get r, $ty $(= $label)? $(as $wire { $to, $from })?
                        ),)*})?,)*
                    tag => return Err($crate::bytes::ByteError::UnknownTag { what: $what, tag }),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::byte_layout! {
        /// A record with one field of each kind.
        #[derive(Debug, Clone, PartialEq)]
        struct Sample {
            tag: u8,
            small: u16,
            count: u32,
            big: u64,
            ratio: f32,
            precise: f64,
            name: String,
            flag: bool = "sample flag",
            at: Option<u64> = "at flag",
            pair: (u64, usize),
            words: [u32; 2],
            items: Vec<u16>,
            nanos: u64 as [u8; 8] { |v| v.to_be_bytes(), u64::from_be_bytes },
        }
    }

    crate::byte_layout! {
        /// A tagged record with a retired tag.
        #[derive(Debug, Clone, PartialEq)]
        enum Shape: "shape", retired [2] {
            Point = 1,
            Circle(u32) = 3,
            Rect { w: u16, h: u16 } = 4,
        }
    }

    fn sample() -> Sample {
        Sample {
            tag: 7,
            small: 1_000,
            count: 70_000,
            big: u64::MAX - 3,
            ratio: 0.25,
            precise: -0.125,
            name: "schnell".into(),
            flag: true,
            at: Some(5),
            pair: (1, 2),
            words: [3, 4],
            items: vec![258, 3],
            nanos: 9,
        }
    }

    #[test]
    fn a_declared_struct_puts_its_fields_in_order() {
        let bytes = sample().to_bytes();
        let mut expected = vec![7, 3, 232, 0, 1, 17, 112];
        expected.extend((u64::MAX - 3).to_be_bytes());
        expected.extend(0.25f32.to_bits().to_be_bytes());
        expected.extend((-0.125f64).to_bits().to_be_bytes());
        expected.extend([0, 0, 0, 7]);
        expected.extend(b"schnell");
        expected.extend([1, 1, 0, 0, 0, 0, 0, 0, 0, 5]);
        expected.extend([0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]);
        expected.extend([0, 0, 0, 3, 0, 0, 0, 4]);
        expected.extend([0, 0, 0, 2, 1, 2, 0, 3]);
        expected.extend([0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(bytes, expected);
        assert_eq!(Sample::from_bytes(&bytes), Ok(sample()));
        assert_eq!(Sample::MIN_BYTES, bytes.len() - 7 - 8 - 4);
    }

    #[test]
    fn the_layout_table_renders_the_declaration() {
        assert_eq!(
            Sample::LAYOUT,
            "| `Sample` | `tag: u8`, `small: u16`, `count: u32`, `big: u64`, `ratio: f32`, \
             `precise: f64`, `name: String`, `flag: bool`, `at: Option<u64>`, \
             `pair: (u64, usize)`, `words: [u32; 2]`, `items: Vec<u16>`, \
             `nanos: u64 as [u8; 8]` |\n"
        );
        assert_eq!(
            Shape::LAYOUT,
            "| 1 | `Point` | (empty) |\n| 3 | `Circle` | `u32` |\n\
             | 4 | `Rect` | `w: u16`, `h: u16` |\n| 2 | — | retired: an unknown tag |\n"
        );
        assert_eq!(Shape::MIN_BYTES, 1);
        assert_eq!(Shape::Rect { w: 1, h: 2 }.tag_name(), "Rect");
    }

    #[test]
    fn a_tagged_record_refuses_an_undeclared_or_retired_tag() {
        for shape in [Shape::Point, Shape::Circle(9), Shape::Rect { w: 1, h: 2 }] {
            assert_eq!(Shape::from_bytes(&shape.to_bytes()), Ok(shape));
        }
        assert_eq!(Shape::Rect { w: 1, h: 2 }.to_bytes(), [4, 0, 1, 0, 2]);
        for tag in [0, 2, 5, 255] {
            let err = Shape::from_bytes(&[tag]).unwrap_err();
            assert_eq!(err, ByteError::UnknownTag { what: "shape", tag });
            assert_eq!(err.to_string(), format!("unknown shape tag {tag}"));
        }
    }

    #[test]
    fn truncation_names_wanted_offset_and_remaining() {
        let bytes = (1u8, 42u64).to_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        u8::get(&mut r).unwrap();
        let err = u64::get(&mut r).unwrap_err();
        assert_eq!(
            err,
            ByteError::Truncated {
                wanted: 8,
                offset: 1,
                remaining: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "payload truncated: wanted 8 bytes at offset 1, 4 remain"
        );
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn trailing_bytes_bad_flags_and_bad_utf8_rejected() {
        let mut bad_flag = sample().to_bytes();
        bad_flag[7 + 8 + 4 + 8 + 4 + 7] = 2;
        let err = Sample::from_bytes(&bad_flag).unwrap_err();
        assert_eq!(err.to_string(), "invalid sample flag 2");
        assert_eq!(
            Option::<u8>::get_flag(&mut ByteReader::new(&[3]), "at flag"),
            Err(ByteError::Invalid {
                what: "at flag",
                value: 3
            })
        );
        assert_eq!(u8::from_bytes(&[9, 9]), Err(ByteError::Trailing(1)));
        assert_eq!(ByteError::Trailing(1).to_string(), "1 trailing byte");
        assert_eq!(ByteError::Trailing(2).to_string(), "2 trailing bytes");
        assert_eq!(
            String::from_bytes(&[0, 0, 0, 2, 0xff, 0xfe]),
            Err(ByteError::Utf8)
        );
    }

    #[test]
    fn a_count_is_checked_against_the_bytes_that_remain() {
        // Claims 2^32-1 sixteen-byte items with four bytes behind it.
        let bytes = [0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4];
        assert_eq!(
            Vec::<(u64, u64)>::from_bytes(&bytes),
            Err(ByteError::Truncated {
                wanted: (u32::MAX as usize) * 16,
                offset: 4,
                remaining: 4
            })
        );
    }

    #[test]
    fn sealed_writer_prefixes_the_crc_of_the_body() {
        let mut w = ByteWriter::sealed(64);
        String::from("body").put(&mut w);
        let body = String::from("body").to_bytes();
        let sealed = w.into_sealed();
        assert_eq!(sealed[..4], crc32(&body).to_be_bytes());
        assert_eq!(sealed[4..], body[..]);
    }
}
