//! The ledger's JSON: a re-export of [`ct_tensor::codec::json`] under the
//! path the experiment code and the benchmark import. The tests pin the
//! behaviour those callers rely on.

pub use ct_tensor::codec::json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let src = r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\"y\\z","f":false}"#;
        let v = parse(src).unwrap();
        assert_eq!(parse(&v.emit()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"y\\z"));
    }

    #[test]
    fn emission_is_shortest_roundtrip() {
        assert_eq!(Json::Num(0.3f32 as f64).emit(), "0.30000001192092896");
        assert_eq!(Json::Num(400.0).emit(), "400");
        let v: f64 = "0.30000001192092896".parse().unwrap();
        assert_eq!(v as f32, 0.3f32);
    }

    #[test]
    fn non_finite_floats_quote_and_parse_back() {
        assert_eq!(emit_f64(f64::NAN), "\"NaN\"");
        assert_eq!(emit_f64(f64::INFINITY), "\"inf\"");
        let v = parse("{\"x\":\"NaN\",\"y\":\"-inf\"}").unwrap();
        assert!(v.get("x").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(v.get("y").unwrap().as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = Json::Str("héllo — ∑".to_string());
        assert_eq!(parse(&v.emit()).unwrap(), v);
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn as_u64_is_exact_for_integers() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(42.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
