//! The one JSON writer of the bench binaries that commit a `BENCH_*.json`
//! file (`bench_alloc`, `bench_faults`, `bench_scenarios`).
//!
//! A hand-rolled layout rather than a serializer's, so committed files
//! diff line by line: an [`Value::Obj`] puts one key per line, an
//! [`Value::Row`] keeps its keys on one line (one table row per line), an
//! array of objects puts one element per line and an array of scalars
//! stays on one line. Numbers are written as their caller formats them.

/// A JSON value in the bench files' layout.
#[derive(Clone, Debug)]
pub enum Value {
    /// A number (or `null`), already formatted.
    Num(String),
    /// A string, written quoted; it must need no escaping.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An array.
    Arr(Vec<Value>),
    /// An object with one key per line.
    Obj(Vec<(&'static str, Value)>),
    /// An object on one line.
    Row(Vec<(&'static str, Value)>),
}

impl Value {
    /// A number in its `Display` form.
    pub fn num(v: impl std::fmt::Display) -> Value {
        Value::Num(v.to_string())
    }

    /// A float with `places` decimals, or `null` when it is not finite
    /// (JSON has no NaN).
    pub fn fixed(v: f64, places: usize) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v:.places$}"))
        } else {
            Value::Num("null".into())
        }
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The document: the value and a final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => {
                debug_assert!(!s.contains(['"', '\\']), "unescaped string {s:?}");
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Row(fields) => {
                out.push('{');
                for (k, (key, v)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{key}\": "));
                    v.write(out, indent);
                }
                out.push('}');
            }
            Value::Obj(fields) => {
                let items = fields.iter().map(|(key, v)| (Some(*key), v));
                block(out, indent, ('{', '}'), items);
            }
            Value::Arr(items) if items.iter().any(Value::is_object) => {
                block(out, indent, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Value::Arr(items) => {
                out.push('[');
                for (k, v) in items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    v.write(out, indent);
                }
                out.push(']');
            }
        }
    }

    fn is_object(&self) -> bool {
        matches!(self, Value::Obj(_) | Value::Row(_))
    }
}

/// One item per line, indented two spaces past `indent`, between the
/// brackets.
fn block<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'static str>, &'a Value)>,
) {
    out.push(open);
    out.push('\n');
    for (k, (key, v)) in items.enumerate() {
        if k > 0 {
            out.push_str(",\n");
        }
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            out.push_str(&format!("\"{key}\": "));
        }
        v.write(out, indent + 2);
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_the_committed_files() {
        let doc = Value::Obj(vec![
            ("seed", Value::num(9)),
            ("wins", Value::Arr(vec![Value::str("a"), Value::str("b")])),
            ("none", Value::Arr(vec![])),
            (
                "rows",
                Value::Arr(vec![
                    Value::Row(vec![("x", Value::fixed(1.0, 2)), ("y", Value::Bool(true))]),
                    Value::Row(vec![("x", Value::fixed(f64::NAN, 2))]),
                ]),
            ),
            (
                "nested",
                Value::Arr(vec![Value::Obj(vec![
                    ("name", Value::str("n")),
                    ("rows", Value::Arr(vec![Value::Row(vec![])])),
                ])]),
            ),
        ]);
        let want = "{\n  \"seed\": 9,\n  \"wins\": [\"a\", \"b\"],\n  \"none\": [],\n  \
                    \"rows\": [\n    {\"x\": 1.00, \"y\": true},\n    {\"x\": null}\n  ],\n  \
                    \"nested\": [\n    {\n      \"name\": \"n\",\n      \"rows\": [\n        \
                    {}\n      ]\n    }\n  ]\n}\n";
        assert_eq!(doc.render(), want);
    }
}
