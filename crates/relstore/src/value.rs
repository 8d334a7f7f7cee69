//! Typed values, schemas, and the row / key byte encodings.
//!
//! Rows are stored with a compact tagged encoding. Index keys use a
//! different, *order-preserving* encoding: comparing encoded keys with
//! `memcmp` is equivalent to comparing the typed values, which is what lets
//! the B+tree stay type-agnostic.

use crate::{Result, StoreError};
use std::cmp::Ordering;
use std::fmt;
use temporal::Date;

/// The column types the engine supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Double,
    /// Variable-length UTF-8 string.
    Str,
    /// Day-granularity date (ArchIS `tstart`/`tend` columns).
    Date,
    /// Variable-length binary (BlockZIP BLOB columns).
    Blob,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Day-granularity date.
    Date(Date),
    /// Binary large object.
    Blob(Vec<u8>),
}

impl Value {
    /// The value's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Blob(_) => Some(DataType::Blob),
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date content, if this is a `Date`.
    pub fn as_date(&self) -> Option<Date> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Numeric view (Int and Double both qualify), used by aggregates.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// SQL-style three-valued comparison: NULL compares as unknown (`None`).
    /// Int and Double compare numerically with each other.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Double(a), Value::Double(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Double(b)) => (*a as f64).partial_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Blob(a), Value::Blob(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order for sorting (NULLs first, then by type tag, then value).
    /// Used by `ORDER BY`, join keys and `GROUP BY`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Double(_) => 1,
                Value::Str(_) => 2,
                Value::Date(_) => 3,
                Value::Blob(_) => 4,
            }
        }
        match self.sql_cmp(other) {
            Some(o) => o,
            None => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                _ => tag(self).cmp(&tag(other)),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns, in order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Column index or a [`StoreError::NotFound`].
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| StoreError::NotFound(format!("column {name}")))
    }

    /// Check a row against the schema (arity and non-NULL types).
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(StoreError::SchemaMismatch(format!(
                "expected {} columns, got {}",
                self.arity(),
                row.len()
            )));
        }
        for (v, f) in row.iter().zip(&self.fields) {
            if let Some(dt) = v.data_type() {
                if dt != f.dtype {
                    return Err(StoreError::SchemaMismatch(format!(
                        "column {} expects {:?}, got {:?}",
                        f.name, f.dtype, dt
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Row encoding (compact, tagged)
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DATE: u8 = 4;
const TAG_BLOB: u8 = 5;

/// Serialize a row for heap/B+tree storage.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * row.len());
    out.extend_from_slice(&(row.len() as u16).to_be_bytes());
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Value::Double(d) => {
                out.push(TAG_DOUBLE);
                out.extend_from_slice(&d.to_bits().to_be_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.day_number().to_be_bytes());
            }
            Value::Blob(b) => {
                out.push(TAG_BLOB);
                out.extend_from_slice(&(b.len() as u32).to_be_bytes());
                out.extend_from_slice(b);
            }
        }
    }
    out
}

/// Deserialize a row produced by [`encode_row`].
pub fn decode_row(data: &[u8]) -> Result<Vec<Value>> {
    let mut row = Vec::new();
    decode_row_into(data, &mut row)?;
    Ok(row)
}

/// Like [`decode_row`], but decodes into a caller-supplied buffer so scans
/// and bulk decoders (block decompression) recycle row allocations instead
/// of growing a fresh `Vec` per row. Values are overwritten in place: a
/// string or blob column refills the buffer the previous row left in that
/// position, so decoding row after row of one table allocates nothing once
/// the buffer has grown. On error the buffer's contents are unspecified.
pub fn decode_row_into(data: &[u8], row: &mut Vec<Value>) -> Result<()> {
    let mut r = Reader { data, pos: 0 };
    let n = u16::from_be_bytes(r.array()?) as usize;
    row.truncate(n);
    for i in 0..n {
        let old = row.get_mut(i);
        let v = match r.array::<1>()? {
            [TAG_NULL] => Value::Null,
            [TAG_INT] => Value::Int(i64::from_be_bytes(r.array()?)),
            [TAG_DOUBLE] => Value::Double(f64::from_bits(u64::from_be_bytes(r.array()?))),
            [TAG_STR] => {
                let len = u32::from_be_bytes(r.array()?) as usize;
                let s = std::str::from_utf8(r.take(len)?).map_err(|_| {
                    StoreError::corrupt(crate::CorruptObject::Row, "invalid utf-8 in row")
                })?;
                if let Some(Value::Str(buf)) = old {
                    buf.clear();
                    buf.push_str(s);
                    continue;
                }
                Value::Str(s.to_string())
            }
            [TAG_DATE] => Value::Date(Date::from_day_number(i32::from_be_bytes(r.array()?))),
            [TAG_BLOB] => {
                let len = u32::from_be_bytes(r.array()?) as usize;
                let b = r.take(len)?;
                if let Some(Value::Blob(buf)) = old {
                    buf.clear();
                    buf.extend_from_slice(b);
                    continue;
                }
                Value::Blob(b.to_vec())
            }
            [t] => {
                return Err(StoreError::corrupt(
                    crate::CorruptObject::Row,
                    format!("unknown value tag {t}"),
                ))
            }
        };
        match old {
            Some(slot) => *slot = v,
            None => row.push(v),
        }
    }
    Ok(())
}

/// A cursor over an encoded row; running past the end is a corrupt row.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, k: usize) -> Result<&'a [u8]> {
        let s = self
            .data
            .get(self.pos..self.pos + k)
            .ok_or_else(|| StoreError::corrupt(crate::CorruptObject::Row, "truncated row"))?;
        self.pos += k;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Key encoding (order-preserving)
// ---------------------------------------------------------------------------

/// Append the order-preserving encoding of one value to `out`.
///
/// Properties: for values of the same type, `memcmp` of encodings matches
/// [`Value::total_cmp`]; across types, the type tag dominates; NULL sorts
/// before everything. Strings are escaped (`0x00 → 0x00 0xFF`) and
/// terminated with `0x00 0x00` so that no string encoding is a strict
/// prefix of another and composite keys compare field-by-field.
pub fn encode_key_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Value::Double(d) => {
            // Doubles get their own tag: ArchIS never mixes Int and Double
            // in one indexed column, so cross-type key order is irrelevant.
            out.push(0x02);
            let bits = d.to_bits();
            let ordered = if d.is_sign_negative() {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Value::Str(s) => {
            out.push(0x03);
            for &b in s.as_bytes() {
                if b == 0 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(b);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
        Value::Date(d) => {
            out.push(0x04);
            out.extend_from_slice(&((d.day_number() as u32) ^ (1 << 31)).to_be_bytes());
        }
        Value::Blob(b) => {
            out.push(0x05);
            for &x in b {
                if x == 0 {
                    out.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    out.push(x);
                }
            }
            out.extend_from_slice(&[0x00, 0x00]);
        }
    }
}

/// Order-preserving encoding of a composite key.
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 12);
    for v in values {
        encode_key_value(v, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    #[test]
    fn row_roundtrip_all_types() {
        let row = vec![
            Value::Int(-42),
            Value::Str("Sr Engineer".into()),
            Value::Date(d("1995-10-01")),
            Value::Null,
            Value::Double(1.5),
            Value::Blob(vec![0, 1, 2, 255]),
        ];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn empty_row_roundtrip() {
        assert_eq!(decode_row(&encode_row(&[])).unwrap(), Vec::<Value>::new());
    }

    /// Decoding into a used buffer overwrites every position, whatever
    /// the previous row held there and however long it was.
    #[test]
    fn decode_into_reused_buffer_matches_fresh_decode() {
        let rows = [
            vec![Value::Str("long name".into()), Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Str("x".into())],
            vec![
                Value::Str("y".into()),
                Value::Blob(vec![1, 2]),
                Value::Date(d("1995-01-01")),
                Value::Double(0.5),
            ],
            vec![Value::Blob(vec![9]), Value::Str(String::new())],
            vec![],
        ];
        let mut buf = Vec::new();
        for row in rows.iter().chain(rows.iter().rev()) {
            decode_row_into(&encode_row(row), &mut buf).unwrap();
            assert_eq!(&buf, row);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[0, 3, 1, 2]).is_err(), "truncated int");
        assert!(decode_row(&[0, 1, 99]).is_err(), "unknown tag");
    }

    #[test]
    fn key_order_ints() {
        let vals = [-100i64, -1, 0, 1, 5, 1_000_000];
        for w in vals.windows(2) {
            let a = encode_key(&[Value::Int(w[0])]);
            let b = encode_key(&[Value::Int(w[1])]);
            assert!(a < b, "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn key_order_dates() {
        let a = encode_key(&[Value::Date(d("1994-05-06"))]);
        let b = encode_key(&[Value::Date(d("1995-05-06"))]);
        assert!(a < b);
    }

    #[test]
    fn key_order_strings_with_prefixes() {
        let a = encode_key(&[Value::Str("a".into())]);
        let ab = encode_key(&[Value::Str("ab".into())]);
        let b = encode_key(&[Value::Str("b".into())]);
        assert!(a < ab && ab < b);
        // NUL-escape keeps ordering and injectivity.
        let nul = encode_key(&[Value::Str("a\0b".into())]);
        assert!(a < nul && nul < ab);
    }

    #[test]
    fn key_order_composite_field_by_field() {
        let k1 = encode_key(&[Value::Str("a".into()), Value::Int(2)]);
        let k2 = encode_key(&[Value::Str("a".into()), Value::Int(10)]);
        let k3 = encode_key(&[Value::Str("ab".into()), Value::Int(0)]);
        assert!(k1 < k2 && k2 < k3);
    }

    #[test]
    fn key_null_sorts_first() {
        let n = encode_key(&[Value::Null]);
        let i = encode_key(&[Value::Int(i64::MIN)]);
        assert!(n < i);
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Str("1".into())), None);
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Str("abc".into()).sql_cmp(&Value::Str("abd".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn schema_lookup_and_check() {
        let s = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("tstart", DataType::Date),
        ]);
        assert_eq!(s.index_of("name"), Some(1));
        assert!(s.require("missing").is_err());
        assert!(s
            .check_row(&[
                Value::Int(1),
                Value::Str("Bob".into()),
                Value::Date(d("1995-01-01"))
            ])
            .is_ok());
        assert!(s.check_row(&[Value::Int(1)]).is_err(), "arity");
        assert!(
            s.check_row(&[
                Value::Str("x".into()),
                Value::Str("Bob".into()),
                Value::Null
            ])
            .is_err(),
            "type"
        );
        assert!(
            s.check_row(&[Value::Null, Value::Null, Value::Null])
                .is_ok(),
            "NULL fits any column"
        );
    }
}
