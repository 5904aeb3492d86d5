//! The one JSON writer behind every byte-stable report: the scenario
//! goldens, `BENCH_chaos.json`, `BENCH_mpi.json`, the SLO and metrics
//! exports and the lint report.
//!
//! It owns the pretty layout those files share, so no report spells out
//! a brace, a comma or an indent: block objects ([`object`]) and row
//! arrays ([`rows`]) put one element per line, two spaces per depth;
//! inline ones ([`inline_object`], [`inline_array`]) read
//! `{"k": v, "k": v}` and `[a, b]`. The caller picks the layout of each
//! container; the writer has no mode. Every value goes through the
//! sealed [`Value`] trait, which the unsigned integers, `bool`, strings,
//! `Option`s (`None` is `null`) and the containers implement, and floats
//! do not: a report cannot carry digits that depend on the platform.
//!
//! A float is not a [`Value`]:
//!
//! ```compile_fail
//! let _ = ftgm_sim::json::document(|o| {
//!     o.field("ratio", 0.5_f64);
//! });
//! ```

use std::fmt::Write as _;

/// The output, and the depth of the block container being filled.
pub struct Writer {
    out: String,
    depth: usize,
}

impl Writer {
    fn newline(&mut self) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", self.depth));
    }

    /// Writes one container between `open` and `close`; `fill` writes
    /// its elements. A block container's closing bracket gets a line of
    /// its own, also when it is empty.
    fn nest(&mut self, [open, close]: [char; 2], inline: bool, fill: impl FnOnce(Level<'_>)) {
        self.out.push(open);
        if !inline {
            self.depth += 1;
        }
        fill(Level { w: &mut *self, inline, empty: true });
        if !inline {
            self.depth = self.depth.saturating_sub(1);
            self.newline();
        }
        self.out.push(close);
    }

    /// A JSON string literal: quotes, backslashes and control characters
    /// escaped, everything else as is.
    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// One container being filled, and whether it has an element yet.
struct Level<'a> {
    w: &'a mut Writer,
    inline: bool,
    empty: bool,
}

impl Level<'_> {
    /// Starts the next element: a comma after the previous one, then a
    /// space (inline) or a fresh indented line (block).
    fn next(&mut self) -> &mut Writer {
        if !self.empty {
            self.w.out.push_str(if self.inline { ", " } else { "," });
        }
        if !self.inline {
            self.w.newline();
        }
        self.empty = false;
        self.w
    }
}

/// An object being filled by the closure given to [`object`] or
/// [`inline_object`].
pub struct Object<'a>(Level<'a>);

impl Object<'_> {
    /// Writes `"key": value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        let w = self.0.next();
        w.string(key);
        w.out.push_str(": ");
        value.write(w);
        self
    }
}

/// An array being filled by the closure given to [`rows`] or
/// [`inline_array`].
pub struct Array<'a>(Level<'a>);

impl Array<'_> {
    /// Writes one element.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        value.write(self.0.next());
        self
    }
}

mod sealed {
    pub trait Sealed {}
}

/// What a report may hold. Sealed, so no float can be made one.
pub trait Value: sealed::Sealed {
    /// Appends the value at the writer's depth.
    fn write(&self, w: &mut Writer);
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Value for $t {
            fn write(&self, w: &mut Writer) {
                let _ = write!(w.out, "{self}");
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

impl sealed::Sealed for bool {}
impl Value for bool {
    fn write(&self, w: &mut Writer) {
        w.out.push_str(if *self { "true" } else { "false" });
    }
}

impl sealed::Sealed for str {}
impl Value for str {
    fn write(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl sealed::Sealed for String {}
impl Value for String {
    fn write(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl<T: Value + ?Sized> sealed::Sealed for &T {}
impl<T: Value + ?Sized> Value for &T {
    fn write(&self, w: &mut Writer) {
        (**self).write(w);
    }
}

impl<T: Value> sealed::Sealed for Option<T> {}
impl<T: Value> Value for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write(w),
            None => w.out.push_str("null"),
        }
    }
}

/// An object value: [`object`] or [`inline_object`].
pub struct ObjectValue<F> {
    inline: bool,
    fields: F,
}

impl<F: Fn(&mut Object<'_>)> sealed::Sealed for ObjectValue<F> {}
impl<F: Fn(&mut Object<'_>)> Value for ObjectValue<F> {
    fn write(&self, w: &mut Writer) {
        w.nest(['{', '}'], self.inline, |l| (self.fields)(&mut Object(l)));
    }
}

/// An array value: [`rows`] or [`inline_array`].
pub struct ArrayValue<F> {
    inline: bool,
    items: F,
}

impl<F: Fn(&mut Array<'_>)> sealed::Sealed for ArrayValue<F> {}
impl<F: Fn(&mut Array<'_>)> Value for ArrayValue<F> {
    fn write(&self, w: &mut Writer) {
        w.nest(['[', ']'], self.inline, |l| (self.items)(&mut Array(l)));
    }
}

/// A block object: one field per line.
pub fn object<F: Fn(&mut Object<'_>)>(fields: F) -> ObjectValue<F> {
    ObjectValue { inline: false, fields }
}

/// An inline object: `{"k": v, "k": v}`.
pub fn inline_object<F: Fn(&mut Object<'_>)>(fields: F) -> ObjectValue<F> {
    ObjectValue { inline: true, fields }
}

/// A row array: one element per line, `[\n<indent>]` when empty.
pub fn rows<F: Fn(&mut Array<'_>)>(items: F) -> ArrayValue<F> {
    ArrayValue { inline: false, items }
}

/// An inline array: `[a, b]`.
pub fn inline_array<F: Fn(&mut Array<'_>)>(items: F) -> ArrayValue<F> {
    ArrayValue { inline: true, items }
}

/// A standalone document: the block object `fields` writes, and a
/// trailing newline.
pub fn document(fields: impl Fn(&mut Object<'_>)) -> String {
    let mut w = Writer { out: String::new(), depth: 0 };
    object(fields).write(&mut w);
    w.out.push('\n');
    w.out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `value` written at the top (depth 0) and two block levels down.
    fn both(value: impl Value) -> [String; 2] {
        [0, 2].map(|depth| {
            let mut w = Writer { out: String::new(), depth };
            value.write(&mut w);
            w.out
        })
    }

    #[test]
    fn block_containers_put_one_element_per_line() {
        let obj = object(|o| {
            o.field("a", 1u8).field("b", true);
            o.field("load", object(|l| {
                l.field("gm", None::<u64>);
            }));
        });
        assert_eq!(
            both(obj),
            [
                "{\n  \"a\": 1,\n  \"b\": true,\n  \"load\": {\n    \"gm\": null\n  }\n}",
                "{\n      \"a\": 1,\n      \"b\": true,\n      \"load\": {\n        \
                 \"gm\": null\n      }\n    }",
            ]
        );
        let arr = rows(|a| {
            a.item("x").item(u64::MAX);
        });
        assert_eq!(
            both(arr),
            [
                "[\n  \"x\",\n  18446744073709551615\n]",
                "[\n      \"x\",\n      18446744073709551615\n    ]",
            ]
        );
        assert_eq!(both(rows(|_| {})), ["[\n]", "[\n    ]"]);
        assert_eq!(both(object(|_| {})), ["{\n}", "{\n    }"]);
    }

    #[test]
    fn inline_containers_ignore_depth() {
        let obj = inline_object(|o| {
            o.field("k", 1u32).field("s", "v").field("none", None::<u8>);
        });
        let want = "{\"k\": 1, \"s\": \"v\", \"none\": null}";
        assert_eq!(both(obj), [want, want]);
        let arr = inline_array(|a| {
            a.item(1usize).item(false);
        });
        assert_eq!(both(arr), ["[1, false]", "[1, false]"]);
        assert_eq!(both(inline_array(|_| {})), ["[]", "[]"]);
    }

    #[test]
    fn rows_of_inline_objects_hold_inline_arrays() {
        let hops = [("a.rs", "run"), ("b.rs", "push")];
        let v = rows(|a| {
            a.item(inline_object(|f| {
                f.field("rule", "R7").field("chain", inline_array(|c| {
                    for (file, symbol) in hops {
                        c.item(inline_object(|h| {
                            h.field("file", file).field("symbol", symbol);
                        }));
                    }
                }));
            }));
        });
        let row = "{\"rule\": \"R7\", \"chain\": [{\"file\": \"a.rs\", \"symbol\": \"run\"}, \
                   {\"file\": \"b.rs\", \"symbol\": \"push\"}]}";
        assert_eq!(both(v), [format!("[\n  {row}\n]"), format!("[\n      {row}\n    ]")]);
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let [s, _] = both("say \"hi\",\ttab\nline \\ back\u{1}\r");
        assert_eq!(s, r#""say \"hi\",\ttab\nline \\ back\u0001\r""#);
        let [s, _] = both(String::from("crates/gm/src/recovery.rs → fn"));
        assert_eq!(s, "\"crates/gm/src/recovery.rs → fn\"");
    }
}
