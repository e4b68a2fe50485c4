//! Record schemas: ordered, named, typed columns.

use crate::error::{Error, Result};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered list of fields. Cheap to clone (the field list is shared).
///
/// Column lookup is case-insensitive, matching SQL identifier resolution in
/// the S3 Select dialect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema {
            fields: Arc::new(fields),
        }
    }

    /// Build from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect())
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Case-insensitive index lookup.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Schema::index_of`] but returns a bind error naming the column.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            Error::Bind(format!(
                "unknown column `{name}` (have: {})",
                self.fields
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
    }

    pub fn dtype_of(&self, idx: usize) -> DataType {
        self.fields[idx].dtype
    }

    /// A new schema keeping only the given column indices, in order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Concatenate two schemas (used by joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields().to_vec();
        fields.extend(other.fields().iter().cloned());
        Schema::new(fields)
    }

    /// Names of all columns, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_pairs(&[
            ("c_custkey", DataType::Int),
            ("c_name", DataType::Str),
            ("c_acctbal", DataType::Float),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("C_CUSTKEY"), Some(0));
        assert_eq!(s.index_of("c_AcctBal"), Some(2));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn resolve_reports_candidates() {
        let err = sample().resolve("nope").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope"));
        assert!(msg.contains("c_custkey"));
    }

    #[test]
    fn project_preserves_order() {
        let p = sample().project(&[2, 0]);
        assert_eq!(p.names(), vec!["c_acctbal", "c_custkey"]);
        assert_eq!(p.dtype_of(0), DataType::Float);
    }

    #[test]
    fn join_concatenates() {
        let a = sample();
        let b = Schema::from_pairs(&[("o_orderkey", DataType::Int)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        assert_eq!(j.index_of("o_orderkey"), Some(3));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            sample().to_string(),
            "(c_custkey INT, c_name STRING, c_acctbal FLOAT)"
        );
    }
}
