//! `name value` text records: the metadata kept beside each cached
//! input.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Named numbers, kept in name order.
#[derive(Debug, Default, Clone)]
pub struct Meta(pub BTreeMap<String, f64>);

impl Meta {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`; panics if absent (a missing input field is
    /// a broken cache entry, never a measurement).
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("input metadata lacks {name}"))
    }

    pub fn render(&self) -> String {
        self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
    }

    pub fn parse(text: &str) -> Meta {
        let mut meta = Meta::default();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                if let Ok(v) = v.trim().parse() {
                    meta.set(k, v);
                }
            }
        }
        meta
    }

    pub fn load(path: &Path) -> io::Result<Meta> {
        Ok(Meta::parse(&std::fs::read_to_string(path)?))
    }

    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}
