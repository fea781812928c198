//! The catalog of stored relations.

use std::collections::BTreeMap;

use eram_storage::{HeapFile, Schema};

/// Named base relations.
///
/// A relation may be *stored* (backed by a [`HeapFile`]) or
/// *declared* (schema only — enough for expression validation and
/// planning in tests).
#[derive(Default)]
pub struct Catalog {
    stored: BTreeMap<String, HeapFile>,
    declared: BTreeMap<String, Schema>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a stored relation. Replaces any previous entry with
    /// the same name.
    pub fn register(&mut self, name: impl Into<String>, file: HeapFile) {
        let name = name.into();
        self.declared.remove(&name);
        self.stored.insert(name, file);
    }

    /// Registers a schema-only relation (validation without data).
    pub fn register_schema(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into();
        self.stored.remove(&name);
        self.declared.insert(name, schema);
    }

    /// The heap file of a stored relation.
    pub fn relation(&self, name: &str) -> Option<&HeapFile> {
        self.stored.get(name)
    }

    /// The schema of a relation (stored or declared).
    pub fn schema_of(&self, name: &str) -> Option<&Schema> {
        self.stored
            .get(name)
            .map(|f| f.schema())
            .or_else(|| self.declared.get(name))
    }

    /// Names of all relations, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .stored
            .keys()
            .chain(self.declared.keys())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.stored.len() + self.declared.len()
    }

    /// True if no relation is registered.
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty() && self.declared.is_empty()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("stored", &self.stored.keys().collect::<Vec<_>>())
            .field("declared", &self.declared.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eram_storage::{ColumnType, DeviceProfile, Disk, SimClock, Tuple, Value};
    use std::sync::Arc;

    #[test]
    fn declared_and_stored_relations() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![("a", ColumnType::Int)]);
        c.register_schema("decl", schema.clone());
        assert!(c.schema_of("decl").is_some());
        assert!(c.relation("decl").is_none());

        let disk = Disk::new(
            Arc::new(SimClock::new()),
            DeviceProfile::sun_3_60().without_jitter(),
            0,
        );
        let hf = HeapFile::load(
            disk,
            schema,
            (0..3).map(|i| Tuple::new(vec![Value::Int(i)])),
        )
        .unwrap();
        c.register("base", hf);
        assert!(c.relation("base").is_some());
        assert_eq!(c.schema_of("base").unwrap().arity(), 1);
        assert_eq!(c.names(), vec!["base", "decl"]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn register_replaces_declared() {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![("a", ColumnType::Int)]);
        c.register_schema("r", schema.clone());
        let disk = Disk::new(
            Arc::new(SimClock::new()),
            DeviceProfile::sun_3_60().without_jitter(),
            0,
        );
        let hf = HeapFile::load(disk, schema, std::iter::empty::<Tuple>()).unwrap();
        c.register("r", hf);
        assert_eq!(c.len(), 1);
        assert!(c.relation("r").is_some());
    }

    #[test]
    fn missing_names_return_none() {
        let c = Catalog::new();
        assert!(c.schema_of("x").is_none());
        assert!(c.relation("x").is_none());
        assert!(c.is_empty());
    }
}
