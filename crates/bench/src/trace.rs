//! The one reader of `CDCL_TRACE` JSONL lines, shared by `trace-summary`
//! and `trace-query`: each non-blank line is one JSON event, read through
//! the typed accessors of [`serde::Value`].

use serde::Value;

/// What a pass over trace lines saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineCounts {
    /// Lines that parsed as JSON events.
    pub events: usize,
    /// Non-blank lines that did not parse (a healthy trace has zero).
    pub malformed: usize,
}

impl LineCounts {
    /// Parses one trace line into its event and tallies it; `None` for a
    /// blank (untallied) or malformed line.
    pub fn event(&mut self, line: &str) -> Option<Value> {
        if line.trim().is_empty() {
            return None;
        }
        match serde_json::from_str::<Value>(line) {
            Ok(v) => {
                self.events += 1;
                Some(v)
            }
            Err(_) => {
                self.malformed += 1;
                None
            }
        }
    }
}
