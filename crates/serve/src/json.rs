//! The wire protocol's JSON reader: the workspace's one depth-bounded,
//! panic-free parser, which lives in [`tp_obs::json`] so the exporters'
//! `validate` runs the same code. Re-exported here for protocol users.

pub use tp_obs::json::{parse, JsonValue, MAX_DEPTH};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(
            r#"{"op":"move_pins","design":"usb","moves":[{"pin":3,"x":1.5,"y":-2e-1}],"id":7}"#,
        )
        .expect("valid");
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("move_pins"));
        assert_eq!(v.get("id").and_then(JsonValue::as_u64), Some(7));
        let moves = v.get("moves").and_then(JsonValue::as_array).expect("array");
        assert_eq!(moves[0].get("pin").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(moves[0].get("y").and_then(JsonValue::as_f64), Some(-0.2));
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""a\"b\\c\n\u0041""#).expect("valid");
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "01x",
            "-",
            "1.",
            ".5",
            "1e",
            "+4",
            "\"abc",
            "\"\\q\"",
            "{\"a\":1,}",
            "[1]extra",
            "nan",
            "Infinity",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }
}
