//! The dynamic value type used for invocation arguments, results, object
//! state, and event payloads — the "parameters of the invocation" carried
//! in thread attributes (paper §2).
//!
//! Includes a compact self-describing binary codec ([`Value::encode`] /
//! [`Value::decode`]) used to store object state in DSM segments.
//!
//! Byte payloads are [`Bytes`] — shared immutable buffers whose clones
//! are refcount bumps. A raised event's payload fans out to N group
//! members, a root node's timer list, and the retransmit queue without
//! ever copying payload bytes (DESIGN.md §3g); [`Value::decode_shared`]
//! extends the zero-copy property through decoding.

use doct_net::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes: a shared immutable buffer, cloned by refcount bump.
    Bytes(Bytes),
    /// Ordered list.
    List(Vec<Value>),
    /// String-keyed map (ordered for determinism).
    Map(BTreeMap<String, Value>),
}

/// Error decoding a [`Value`] from bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub(crate) String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value decode error: {}", self.0)
    }
}

impl Error for DecodeError {}

impl Value {
    /// Shorthand for an empty map.
    pub fn map() -> Value {
        Value::Map(BTreeMap::new())
    }

    /// Borrow as bool, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as integer, if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow as float, accepting ints too.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Borrow as string slice, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as byte slice, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b.as_slice()),
            _ => None,
        }
    }

    /// Borrow the shared buffer itself, if this is a [`Value::Bytes`].
    /// Cloning the returned [`Bytes`] shares the allocation.
    pub fn as_shared_bytes(&self) -> Option<&Bytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Borrow as list, if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow as map, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable map access, if this is a [`Value::Map`].
    pub fn as_map_mut(&mut self) -> Option<&mut BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Map field lookup: `value.get("key")`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Insert into a map value; turns `Null` into a map first.
    ///
    /// # Panics
    ///
    /// Panics if `self` is neither `Null` nor a `Map`.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        if matches!(self, Value::Null) {
            *self = Value::map();
        }
        self.as_map_mut()
            .expect("Value::set requires a Map or Null value")
            .insert(key.into(), value.into());
        self
    }

    /// True if `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Estimated wire size in bytes (for network statistics).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Bytes(b) => 5 + b.len(),
            Value::List(l) => 5 + l.iter().map(Value::wire_size).sum::<usize>(),
            Value::Map(m) => {
                5 + m
                    .iter()
                    .map(|(k, v)| 5 + k.len() + v.wire_size())
                    .sum::<usize>()
            }
        }
    }

    /// Encode to the compact binary form used for DSM-resident state.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(false) => out.push(1),
            Value::Bool(true) => out.push(2),
            Value::Int(i) => {
                out.push(3);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(x) => {
                out.push(4);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(5);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(6);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b.as_slice());
            }
            Value::List(l) => {
                out.push(7);
                out.extend_from_slice(&(l.len() as u32).to_le_bytes());
                for v in l {
                    v.encode_into(out);
                }
            }
            Value::Map(m) => {
                out.push(8);
                out.extend_from_slice(&(m.len() as u32).to_le_bytes());
                for (k, v) in m {
                    out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    v.encode_into(out);
                }
            }
        }
    }

    /// Decode a value previously produced by [`Value::encode`].
    ///
    /// Byte payloads are copied out of the borrowed input (charging the
    /// [`Bytes`] deep-copy counter); use [`Value::decode_shared`] when
    /// the caller owns the frame as a [`Bytes`] buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or malformed input, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Value, DecodeError> {
        Self::decode_inner(bytes, None)
    }

    /// Decode from a shared buffer: every [`Value::Bytes`] in the result
    /// is a zero-copy slice view into `buf`'s backing allocation, so a
    /// frame received off the wire decodes without copying payload bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or malformed input, or trailing bytes.
    pub fn decode_shared(buf: &Bytes) -> Result<Value, DecodeError> {
        Self::decode_inner(buf.as_slice(), Some(buf))
    }

    fn decode_inner(bytes: &[u8], backing: Option<&Bytes>) -> Result<Value, DecodeError> {
        let mut cursor = Cursor {
            bytes,
            backing,
            pos: 0,
        };
        let v = cursor.value()?;
        if cursor.pos != bytes.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after value",
                bytes.len() - cursor.pos
            )));
        }
        Ok(v)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    /// When decoding from a shared buffer (`bytes == backing.as_slice()`),
    /// byte payloads become slice views of it instead of copies.
    backing: Option<&'a Bytes>,
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(DecodeError(format!(
                "truncated: need {n} bytes at {}",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?.to_vec();
        String::from_utf8(raw).map_err(|e| DecodeError(e.to_string()))
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        let tag = self.take(1)?[0];
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Bool(false),
            2 => Value::Bool(true),
            3 => Value::Int(i64::from_le_bytes(self.take(8)?.try_into().expect("8"))),
            4 => Value::Float(f64::from_le_bytes(self.take(8)?.try_into().expect("8"))),
            5 => Value::Str(self.string()?),
            6 => {
                let len = self.u32()? as usize;
                let start = self.pos;
                let backing = self.backing;
                let raw = self.take(len)?;
                Value::Bytes(match backing {
                    Some(b) => b.slice(start..start + len),
                    None => Bytes::copy_from_slice(raw),
                })
            }
            7 => {
                let len = self.u32()? as usize;
                let mut l = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    l.push(self.value()?);
                }
                Value::List(l)
            }
            8 => {
                let len = self.u32()? as usize;
                let mut m = BTreeMap::new();
                for _ in 0..len {
                    let k = self.string()?;
                    m.insert(k, self.value()?);
                }
                Value::Map(m)
            }
            t => return Err(DecodeError(format!("unknown tag {t}"))),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(l) => {
                f.write_str("[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Null
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        // Zero-copy: the vector becomes the shared backing store.
        Value::Bytes(Bytes::from_vec(b))
    }
}
impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value::Bytes(b)
    }
}
impl From<Vec<Value>> for Value {
    fn from(l: Vec<Value>) -> Self {
        Value::List(l)
    }
}
impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Self {
        Value::Map(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let mut v = Value::map();
        v.set("name", "worker");
        v.set("count", 42i64);
        v.set("ratio", 0.5f64);
        v.set("flag", true);
        v.set("blob", vec![1u8, 2, 3]);
        v.set(
            "nested",
            Value::List(vec![Value::Null, Value::Int(-7), Value::Str("x".into())]),
        );
        v
    }

    #[test]
    fn encode_decode_round_trip() {
        let v = sample();
        let bytes = v.encode();
        assert_eq!(Value::decode(&bytes).unwrap(), v);
    }

    #[test]
    fn scalar_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Bytes(Bytes::new()),
            Value::List(vec![]),
            Value::map(),
        ] {
            assert_eq!(Value::decode(&v.encode()).unwrap(), v, "{v:?}");
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = sample().encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(Value::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Value::Int(1).encode();
        bytes.push(0);
        assert!(Value::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(Value::decode(&[99]).is_err());
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Int(3).as_str(), None);
        assert!(Value::Null.is_null());
        let v = sample();
        assert_eq!(v.get("count").and_then(Value::as_int), Some(42));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn set_on_null_creates_map() {
        let mut v = Value::Null;
        v.set("a", 1i64);
        assert_eq!(v.get("a").and_then(Value::as_int), Some(1));
    }

    #[test]
    #[should_panic(expected = "requires a Map")]
    fn set_on_scalar_panics() {
        let mut v = Value::Int(1);
        v.set("a", 2i64);
    }

    #[test]
    fn display_is_readable() {
        let v = Value::List(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(v.to_string(), "[1, \"x\"]");
        assert_eq!(Value::from(vec![0u8; 4]).to_string(), "<4 bytes>");
    }

    #[test]
    fn bytes_round_trip_over_shared_buffers() {
        let mut v = Value::map();
        v.set("blob", vec![9u8; 256]);
        v.set(
            "nested",
            Value::List(vec![Value::from(vec![1u8, 2, 3]), Value::Int(5)]),
        );
        let frame = Bytes::from_vec(v.encode());
        // Copying decode still round-trips.
        assert_eq!(Value::decode(frame.as_slice()).unwrap(), v);
        // Shared decode round-trips too, and every Bytes leaf is a view
        // into the frame's allocation — zero payload bytes copied.
        let shared = Value::decode_shared(&frame).unwrap();
        assert_eq!(shared, v);
        let blob = shared.get("blob").and_then(Value::as_shared_bytes).unwrap();
        assert!(Bytes::ptr_eq(blob, &frame), "leaf must view the frame");
        assert_eq!(blob.as_slice(), &[9u8; 256][..]);
        let nested = shared.get("nested").and_then(Value::as_list).unwrap();
        let inner = nested[0].as_shared_bytes().unwrap();
        assert!(Bytes::ptr_eq(inner, &frame));
        assert_eq!(inner.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn decode_shared_rejects_malformed_input_like_decode() {
        let bytes = sample().encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            let buf = Bytes::from_vec(bytes[..cut].to_vec());
            assert!(Value::decode_shared(&buf).is_err(), "cut at {cut}");
        }
        let mut trailing = Value::Int(1).encode();
        trailing.push(0);
        assert!(Value::decode_shared(&Bytes::from_vec(trailing)).is_err());
    }

    #[test]
    fn wire_size_tracks_content() {
        assert!(Value::Str("hello".into()).wire_size() > Value::Str("".into()).wire_size());
        assert!(sample().wire_size() > 40);
    }
}
