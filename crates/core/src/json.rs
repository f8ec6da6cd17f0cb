//! Self-contained JSON support: value model, parser, writer, and
//! serialization of every persistable core type.
//!
//! The workspace builds in fully offline environments, so it cannot rely on
//! `serde`/`serde_json`; this module provides the small subset the project
//! needs — diagram/card/library persistence and the machine-readable output
//! of `gabm lint --format json`. The encoding matches what the previous
//! serde derives produced (externally tagged enums, unit variants as bare
//! strings), so documents written by earlier versions load unchanged.

use crate::card::{
    Characteristic, CharacteristicClass, DefinitionCard, ParamDecl, PinDecl, PinDomain,
};
use crate::diagram::{
    FunctionalDiagram, InterfacePort, Net, NetId, ParameterDecl, PortRef, SymbolId,
};
use crate::library::{ModelEntry, ModelLibrary, ParameterSet};
use crate::quantity::{Dimension, Quantity};
use crate::symbol::{FuncKind, PortDirection, PropertyValue, SimVar, Symbol, SymbolKind};
use std::collections::BTreeMap;
use std::fmt;

/// A JSON document. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Errors from parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Text was not syntactically valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Valid JSON that does not match the expected shape.
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Schema(msg) => write!(f, "JSON schema error: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

pub(crate) fn schema(msg: impl Into<String>) -> JsonError {
    JsonError::Schema(msg.into())
}

impl Value {
    /// Builds an object value from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// Field of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] if missing or not an object.
    pub fn req(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| schema(format!("missing field '{key}'")))
    }

    /// The number held, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string held, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The bool held, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array held, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields held, if any.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    pub(crate) fn num(&self) -> Result<f64, JsonError> {
        self.as_f64().ok_or_else(|| schema("expected a number"))
    }

    pub(crate) fn str(&self) -> Result<&str, JsonError> {
        self.as_str().ok_or_else(|| schema("expected a string"))
    }

    pub(crate) fn arr(&self) -> Result<&[Value], JsonError> {
        self.as_array().ok_or_else(|| schema("expected an array"))
    }

    pub(crate) fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        let n = self.req(key)?.num()?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(schema(format!("field '{key}' is not an unsigned integer")));
        }
        Ok(n as usize)
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// [`JsonError::Parse`] with the byte offset of the failure.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Renders with two-space indentation (for human-facing output).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&format_json_number(*n)),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Value::Object(fields) => {
                write_seq(out, indent, '{', '}', fields.len(), |out, i, ind| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if ind.is_some() {
                        out.push(' ');
                    }
                    v.write(out, ind);
                })
            }
        }
    }
}

impl fmt::Display for Value {
    /// Compact (single-line) rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        write!(f, "{out}")
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// Formats a finite `f64` as a JSON number that parses back exactly
/// (Rust's shortest-roundtrip `Display`, with exponent notation for
/// extreme magnitudes). Non-finite values have no JSON encoding and are
/// written as `null`.
fn format_json_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let a = v.abs();
    if a != 0.0 && !(1e-5..1e17).contains(&a) {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a matching \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        return Err(self.err("lone surrogate in \\u escape"));
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

/// Conversion into a JSON [`Value`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// Conversion back from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Decodes `value`.
    ///
    /// # Errors
    ///
    /// [`JsonError::Schema`] if the value does not have the expected shape.
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

/// Serializes to a compact JSON string.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes to indented JSON.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parses and decodes in one step.
///
/// # Errors
///
/// [`JsonError`] on malformed text or mismatched shape.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Value::parse(text)?)
}

// ---------------------------------------------------------------------------
// Primitive impls.

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value.num()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value.as_bool().ok_or_else(|| schema("expected a bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(value.str()?.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value.arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::Null => Ok(None),
            v => Ok(Some(T::from_json(v)?)),
        }
    }
}

// ---------------------------------------------------------------------------
// Quantities.

impl ToJson for Dimension {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("m", Value::Number(self.m as f64)),
            ("kg", Value::Number(self.kg as f64)),
            ("s", Value::Number(self.s as f64)),
            ("a", Value::Number(self.a as f64)),
            ("k", Value::Number(self.k as f64)),
        ])
    }
}

impl FromJson for Dimension {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let exp = |key: &str| -> Result<i8, JsonError> {
            let n = value.req(key)?.num()?;
            if n.fract() != 0.0 || !(-128.0..=127.0).contains(&n) {
                return Err(schema(format!("dimension exponent '{key}' out of range")));
            }
            Ok(n as i8)
        };
        Ok(Dimension::new(
            exp("m")?,
            exp("kg")?,
            exp("s")?,
            exp("a")?,
            exp("k")?,
        ))
    }
}

impl ToJson for Quantity {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("value", Value::Number(self.value)),
            ("dimension", self.dimension.to_json()),
        ])
    }
}

impl FromJson for Quantity {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(Quantity::new(
            value.req("value")?.num()?,
            Dimension::from_json(value.req("dimension")?)?,
        ))
    }
}

// ---------------------------------------------------------------------------
// Symbols.

/// Encodes a C-like enum as its variant name; decodes by exact match.
macro_rules! string_enum_json {
    ($ty:ty { $($variant:ident),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant),)+
                };
                Value::string(name)
            }
        }

        impl FromJson for $ty {
            fn from_json(value: &Value) -> Result<Self, JsonError> {
                match value.str()? {
                    $(stringify!($variant) => Ok(<$ty>::$variant),)+
                    other => Err(schema(format!(
                        concat!("unknown ", stringify!($ty), " '{}'"),
                        other
                    ))),
                }
            }
        }
    };
}

string_enum_json!(PortDirection {
    Input,
    Output,
    Bidir
});
string_enum_json!(SimVar {
    Time,
    Temperature,
    TimeStep
});
string_enum_json!(FuncKind {
    Sin,
    Cos,
    Exp,
    Ln,
    Abs,
    Sqrt,
    Tanh,
    Atan,
    Min,
    Max,
    Pow,
});
string_enum_json!(PinDomain {
    Electrical,
    RotationalMechanical,
    Thermal,
});
string_enum_json!(CharacteristicClass {
    Primary,
    SecondOrder
});

impl ToJson for PropertyValue {
    fn to_json(&self) -> Value {
        match self {
            PropertyValue::Number(v) => Value::object(vec![("Number", Value::Number(*v))]),
            PropertyValue::Param(p) => Value::object(vec![("Param", Value::string(p))]),
            PropertyValue::NegParam(p) => Value::object(vec![("NegParam", Value::string(p))]),
        }
    }
}

impl FromJson for PropertyValue {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        if let Some(v) = value.get("Number") {
            Ok(PropertyValue::Number(v.num()?))
        } else if let Some(v) = value.get("Param") {
            Ok(PropertyValue::Param(v.str()?.to_string()))
        } else if let Some(v) = value.get("NegParam") {
            Ok(PropertyValue::NegParam(v.str()?.to_string()))
        } else {
            Err(schema("unknown PropertyValue variant"))
        }
    }
}

impl ToJson for SymbolKind {
    fn to_json(&self) -> Value {
        let tagged = |tag: &str, fields: Vec<(&str, Value)>| {
            Value::object(vec![(tag, Value::object(fields))])
        };
        match self {
            SymbolKind::Pin { name } => tagged("Pin", vec![("name", Value::string(name))]),
            SymbolKind::Probe { quantity } => {
                tagged("Probe", vec![("quantity", quantity.to_json())])
            }
            SymbolKind::Generator { quantity } => {
                tagged("Generator", vec![("quantity", quantity.to_json())])
            }
            SymbolKind::Parameter { param, dimension } => tagged(
                "Parameter",
                vec![
                    ("param", Value::string(param)),
                    ("dimension", dimension.to_json()),
                ],
            ),
            SymbolKind::SimVariable { var } => tagged("SimVariable", vec![("var", var.to_json())]),
            SymbolKind::Constant { value } => {
                tagged("Constant", vec![("value", Value::Number(*value))])
            }
            SymbolKind::Gain => Value::string("Gain"),
            SymbolKind::Limiter => Value::string("Limiter"),
            SymbolKind::Differentiator => Value::string("Differentiator"),
            SymbolKind::Integrator => Value::string("Integrator"),
            SymbolKind::Delay => Value::string("Delay"),
            SymbolKind::UnitDelay => Value::string("UnitDelay"),
            SymbolKind::TransferFunction { num, den } => tagged(
                "TransferFunction",
                vec![("num", num.to_json()), ("den", den.to_json())],
            ),
            SymbolKind::Adder { signs } => tagged("Adder", vec![("signs", signs.to_json())]),
            SymbolKind::Multiplier { ops } => tagged("Multiplier", vec![("ops", ops.to_json())]),
            SymbolKind::Separator => Value::string("Separator"),
            SymbolKind::Function { func } => tagged("Function", vec![("func", func.to_json())]),
            SymbolKind::Hierarchical { name, diagram } => tagged(
                "Hierarchical",
                vec![
                    ("name", Value::string(name)),
                    ("diagram", diagram.to_json()),
                ],
            ),
        }
    }
}

impl FromJson for SymbolKind {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        if let Some(unit) = value.as_str() {
            return match unit {
                "Gain" => Ok(SymbolKind::Gain),
                "Limiter" => Ok(SymbolKind::Limiter),
                "Differentiator" => Ok(SymbolKind::Differentiator),
                "Integrator" => Ok(SymbolKind::Integrator),
                "Delay" => Ok(SymbolKind::Delay),
                "UnitDelay" => Ok(SymbolKind::UnitDelay),
                "Separator" => Ok(SymbolKind::Separator),
                other => Err(schema(format!("unknown SymbolKind '{other}'"))),
            };
        }
        let fields = value
            .as_object()
            .ok_or_else(|| schema("SymbolKind must be a string or one-key object"))?;
        let (tag, body) = fields
            .first()
            .ok_or_else(|| schema("empty SymbolKind object"))?;
        match tag.as_str() {
            "Pin" => Ok(SymbolKind::Pin {
                name: body.req("name")?.str()?.to_string(),
            }),
            "Probe" => Ok(SymbolKind::Probe {
                quantity: Dimension::from_json(body.req("quantity")?)?,
            }),
            "Generator" => Ok(SymbolKind::Generator {
                quantity: Dimension::from_json(body.req("quantity")?)?,
            }),
            "Parameter" => Ok(SymbolKind::Parameter {
                param: body.req("param")?.str()?.to_string(),
                dimension: Dimension::from_json(body.req("dimension")?)?,
            }),
            "SimVariable" => Ok(SymbolKind::SimVariable {
                var: SimVar::from_json(body.req("var")?)?,
            }),
            "Constant" => Ok(SymbolKind::Constant {
                value: body.req("value")?.num()?,
            }),
            "TransferFunction" => Ok(SymbolKind::TransferFunction {
                num: Vec::from_json(body.req("num")?)?,
                den: Vec::from_json(body.req("den")?)?,
            }),
            "Adder" => Ok(SymbolKind::Adder {
                signs: Vec::from_json(body.req("signs")?)?,
            }),
            "Multiplier" => Ok(SymbolKind::Multiplier {
                ops: Vec::from_json(body.req("ops")?)?,
            }),
            "Function" => Ok(SymbolKind::Function {
                func: FuncKind::from_json(body.req("func")?)?,
            }),
            "Hierarchical" => Ok(SymbolKind::Hierarchical {
                name: body.req("name")?.str()?.to_string(),
                diagram: Box::new(FunctionalDiagram::from_json(body.req("diagram")?)?),
            }),
            other => Err(schema(format!("unknown SymbolKind '{other}'"))),
        }
    }
}

impl ToJson for Symbol {
    fn to_json(&self) -> Value {
        let properties = Value::Object(
            self.properties
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Value::object(vec![
            ("id", Value::Number(self.id as f64)),
            ("kind", self.kind.to_json()),
            ("properties", properties),
            ("label", self.label.to_json()),
        ])
    }
}

impl FromJson for Symbol {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut properties = BTreeMap::new();
        for (k, v) in value
            .req("properties")?
            .as_object()
            .ok_or_else(|| schema("'properties' must be an object"))?
        {
            properties.insert(k.clone(), PropertyValue::from_json(v)?);
        }
        Ok(Symbol {
            id: value.usize_field("id")?,
            kind: SymbolKind::from_json(value.req("kind")?)?,
            properties,
            label: Option::from_json(value.req("label")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Diagrams.

impl ToJson for PortRef {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("symbol", Value::Number(self.symbol.0 as f64)),
            ("port", Value::Number(self.port as f64)),
        ])
    }
}

impl FromJson for PortRef {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(PortRef {
            symbol: SymbolId(value.usize_field("symbol")?),
            port: value.usize_field("port")?,
        })
    }
}

impl ToJson for Net {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("id", Value::Number(self.id.0 as f64)),
            ("name", self.name.to_json()),
            ("ports", self.ports.to_json()),
        ])
    }
}

impl FromJson for Net {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(Net {
            id: NetId(value.usize_field("id")?),
            name: Option::from_json(value.req("name")?)?,
            ports: Vec::from_json(value.req("ports")?)?,
        })
    }
}

impl ToJson for InterfacePort {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", Value::string(&self.name)),
            ("direction", self.direction.to_json()),
            ("dimension", self.dimension.to_json()),
            ("inner", self.inner.to_json()),
        ])
    }
}

impl FromJson for InterfacePort {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(InterfacePort {
            name: value.req("name")?.str()?.to_string(),
            direction: PortDirection::from_json(value.req("direction")?)?,
            dimension: Option::from_json(value.req("dimension")?)?,
            inner: PortRef::from_json(value.req("inner")?)?,
        })
    }
}

impl ToJson for ParameterDecl {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", Value::string(&self.name)),
            ("default", Value::Number(self.default)),
            ("dimension", self.dimension.to_json()),
        ])
    }
}

impl FromJson for ParameterDecl {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ParameterDecl {
            name: value.req("name")?.str()?.to_string(),
            default: value.req("default")?.num()?,
            dimension: Dimension::from_json(value.req("dimension")?)?,
        })
    }
}

impl ToJson for FunctionalDiagram {
    fn to_json(&self) -> Value {
        // `nets` is written as a sparse array (merged nets leave `null`
        // holes) because `NetId`s index into it.
        let nets = Value::Array(self.nets_raw().iter().map(ToJson::to_json).collect());
        Value::object(vec![
            ("name", Value::string(self.name())),
            (
                "symbols",
                Value::Array(self.symbols().map(ToJson::to_json).collect()),
            ),
            ("nets", nets),
            ("interface", self.interface().to_vec().to_json()),
            ("parameters", self.parameters().to_vec().to_json()),
        ])
    }
}

impl FromJson for FunctionalDiagram {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        FunctionalDiagram::from_parts(
            value.req("name")?.str()?.to_string(),
            Vec::from_json(value.req("symbols")?)?,
            Vec::from_json(value.req("nets")?)?,
            Vec::from_json(value.req("interface")?)?,
            Vec::from_json(value.req("parameters")?)?,
        )
        .map_err(schema)
    }
}

// ---------------------------------------------------------------------------
// Definition cards.

impl ToJson for PinDecl {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", Value::string(&self.name)),
            ("domain", self.domain.to_json()),
            ("description", Value::string(&self.description)),
        ])
    }
}

impl FromJson for PinDecl {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(PinDecl {
            name: value.req("name")?.str()?.to_string(),
            domain: PinDomain::from_json(value.req("domain")?)?,
            description: value.req("description")?.str()?.to_string(),
        })
    }
}

impl ToJson for ParamDecl {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", Value::string(&self.name)),
            ("default", Value::Number(self.default)),
            ("dimension", self.dimension.to_json()),
            ("description", Value::string(&self.description)),
        ])
    }
}

impl FromJson for ParamDecl {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ParamDecl {
            name: value.req("name")?.str()?.to_string(),
            default: value.req("default")?.num()?,
            dimension: Dimension::from_json(value.req("dimension")?)?,
            description: value.req("description")?.str()?.to_string(),
        })
    }
}

impl ToJson for Characteristic {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", Value::string(&self.name)),
            ("class", self.class.to_json()),
            ("description", Value::string(&self.description)),
        ])
    }
}

impl FromJson for Characteristic {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(Characteristic {
            name: value.req("name")?.str()?.to_string(),
            class: CharacteristicClass::from_json(value.req("class")?)?,
            description: value.req("description")?.str()?.to_string(),
        })
    }
}

impl ToJson for DefinitionCard {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", Value::string(self.name())),
            ("description", Value::string(self.description())),
            (
                "symbol_art",
                self.symbol_art().map(str::to_string).to_json(),
            ),
            ("pins", self.pins().to_vec().to_json()),
            ("parameters", self.parameters().to_vec().to_json()),
            ("characteristics", self.characteristics().to_vec().to_json()),
        ])
    }
}

impl FromJson for DefinitionCard {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(DefinitionCard::from_parts(
            value.req("name")?.str()?.to_string(),
            value.req("description")?.str()?.to_string(),
            Option::from_json(value.req("symbol_art")?)?,
            Vec::from_json(value.req("pins")?)?,
            Vec::from_json(value.req("parameters")?)?,
            Vec::from_json(value.req("characteristics")?)?,
        ))
    }
}

// ---------------------------------------------------------------------------
// Libraries.

impl ToJson for ParameterSet {
    fn to_json(&self) -> Value {
        let values = Value::Object(
            self.values
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                .collect(),
        );
        Value::object(vec![
            ("name", Value::string(&self.name)),
            ("values", values),
            ("provenance", Value::string(&self.provenance)),
        ])
    }
}

impl FromJson for ParameterSet {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mut values = BTreeMap::new();
        for (k, v) in value
            .req("values")?
            .as_object()
            .ok_or_else(|| schema("'values' must be an object"))?
        {
            values.insert(k.clone(), v.num()?);
        }
        Ok(ParameterSet {
            name: value.req("name")?.str()?.to_string(),
            values,
            provenance: value.req("provenance")?.str()?.to_string(),
        })
    }
}

impl ToJson for ModelEntry {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("card", self.card.to_json()),
            ("diagram", self.diagram.to_json()),
            ("parameter_sets", self.parameter_sets.to_json()),
        ])
    }
}

impl FromJson for ModelEntry {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ModelEntry {
            card: DefinitionCard::from_json(value.req("card")?)?,
            diagram: FunctionalDiagram::from_json(value.req("diagram")?)?,
            parameter_sets: Vec::from_json(value.req("parameter_sets")?)?,
        })
    }
}

impl ToJson for ModelLibrary {
    fn to_json(&self) -> Value {
        Value::object(vec![(
            "entries",
            Value::Array(self.iter().map(ToJson::to_json).collect()),
        )])
    }
}

impl FromJson for ModelLibrary {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ModelLibrary::from_entries(Vec::from_json(
            value.req("entries")?,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" -12.5e-1 ").unwrap(), Value::Number(-1.25));
        assert_eq!(
            Value::parse(r#""a\nbé""#).unwrap(),
            Value::String("a\nbé".into())
        );
    }

    #[test]
    fn parse_nested() {
        let v = Value::parse(r#"{"a": [1, null, {"b": false}], "c": ""}"#).unwrap();
        assert_eq!(v.req("a").unwrap().arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some(""));
        assert!(v.get("zz").is_none());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"unterminated", "nul"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn writer_roundtrips_values() {
        let v = Value::parse(r#"{"s":"q\"\\","n":5e-12,"a":[true,null],"o":{}}"#).unwrap();
        let compact = v.to_string();
        assert_eq!(Value::parse(&compact).unwrap(), v);
        let pretty = v.to_pretty();
        assert_eq!(Value::parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn number_formatting_roundtrips() {
        for x in [0.0, -0.0, 1.0, 5e-12, 1.5e17, -3.25, 123456.789, 1e-300] {
            let s = format_json_number(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
        assert_eq!(format_json_number(f64::NAN), "null");
    }

    #[test]
    fn dimension_roundtrip() {
        let d = Dimension::VOLTAGE;
        let back: Dimension = from_str(&to_string(&d)).unwrap();
        assert_eq!(back, d);
    }
}
