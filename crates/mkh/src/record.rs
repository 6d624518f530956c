//! Records: ordered value tuples matching a schema.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A record `r = <r_1, …, r_n>` — one value per schema field, in schema
/// order.
///
/// The values live behind an `Arc`, so a clone is a refcount bump: a
/// record copied out of a cached page into a query result shares the
/// page's value storage instead of reallocating it. `Hash`, `Eq` and
/// `Debug` see only the value slice, exactly as a `Vec<Value>` would.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    values: Arc<[Value]>,
}

impl Record {
    /// Builds a record from values (validated against a schema at hash
    /// time, so records stay schema-independent data).
    pub fn new(values: Vec<Value>) -> Self {
        Record {
            values: values.into(),
        }
    }

    /// The field values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at field index `i`, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

/// Collects values into a record. From an exact-size source (a mapped
/// range, `Vec::drain`) the value storage is allocated once, at its
/// final size, where [`Record::new`] moves an existing `Vec` into a new
/// allocation — the page decoder builds records this way.
impl FromIterator<Value> for Record {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Record {
            values: values.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let r = Record::new(vec![Value::Int(1), "x".into()]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(0), Some(&Value::Int(1)));
        assert_eq!(r.get(2), None);
        assert_eq!(r.to_string(), "<1, \"x\">");
        let r2: Record = vec![Value::Int(1), "x".into()].into();
        assert_eq!(r, r2);
    }

    #[test]
    fn collected_record_equals_built_record() {
        let values = vec![Value::Int(1), "y".into()];
        let mut scratch = values.clone();
        let collected: Record = scratch.drain(..).collect();
        assert!(scratch.is_empty());
        assert_eq!(collected, Record::new(values));
    }

    #[test]
    fn clone_shares_value_storage() {
        let r = Record::new(vec![Value::Int(7), "shared".into()]);
        let c = r.clone();
        assert_eq!(r.values().as_ptr(), c.values().as_ptr());
        assert_eq!(r, c);
    }

    /// A record hashes exactly like its value slice, so report checksums
    /// built from record hashes do not depend on the storage type.
    #[test]
    fn hash_equals_hash_of_value_slice() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let values = vec![Value::Int(-3), "x".into(), Value::Bytes(vec![1, 2])];
        let r = Record::new(values.clone());
        assert_eq!(hash_of(&r), hash_of(values.as_slice()));
        assert_eq!(hash_of(&r), hash_of(&values));
        assert_eq!(format!("{r:?}"), format!("Record {{ values: {values:?} }}"));
    }
}
