//! Typed errors for the serving path.
//!
//! Every failure mode a caller can hit is a distinct variant, so clients
//! can distinguish *retry later* ([`ServeError::Backpressure`]) from
//! *fix your request* ([`ServeError::EmptyDocument`],
//! [`ServeError::VocabMismatch`]) from *operator error*
//! ([`ServeError::InvalidSnapshot`]).

use std::fmt;

/// Error returned by the serving engine and its front-ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is full. The request was **not**
    /// enqueued; the client should back off and retry. Carries the queue
    /// capacity so operators can see the configured bound in logs.
    Backpressure {
        /// Configured capacity of the request queue that rejected us.
        capacity: usize,
    },
    /// The engine has shut down; no further requests will be served.
    Closed,
    /// The document references a word id outside the model's vocabulary.
    VocabMismatch {
        /// Offending word id.
        word_id: u32,
        /// Vocabulary size of the serving snapshot.
        vocab_size: usize,
    },
    /// The document has no in-vocabulary tokens — there is nothing to
    /// infer a topic mixture from.
    EmptyDocument,
    /// A snapshot offered to [`crate::ServeEngine::swap_snapshot`] failed
    /// validation and was rejected; the engine keeps serving the previous
    /// snapshot. Carries the validator's reason.
    InvalidSnapshot(String),
    /// The request named a model the registry does not host.
    UnknownModel {
        /// The model name the request asked for.
        model: String,
    },
    /// A request line exceeded the transport's size limit. The oversized
    /// line was discarded; the connection stays open for further
    /// requests.
    RequestTooLarge {
        /// Configured per-line byte limit
        /// ([`crate::ProtocolLimits::max_request_bytes`]).
        limit: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Backpressure { capacity } => {
                write!(f, "request queue full (capacity {capacity}); retry later")
            }
            ServeError::Closed => write!(f, "serving engine is shut down"),
            ServeError::VocabMismatch {
                word_id,
                vocab_size,
            } => write!(
                f,
                "word id {word_id} out of range for vocabulary of {vocab_size}"
            ),
            ServeError::EmptyDocument => write!(f, "document has no in-vocabulary tokens"),
            ServeError::InvalidSnapshot(reason) => {
                write!(f, "rejected snapshot: {reason}")
            }
            ServeError::UnknownModel { model } => {
                write!(f, "no model named '{model}' is registered")
            }
            ServeError::RequestTooLarge { limit } => {
                write!(f, "request line exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Short machine-readable kind tag, used in the wire protocol's error
    /// responses.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Backpressure { .. } => "backpressure",
            ServeError::Closed => "closed",
            ServeError::VocabMismatch { .. } => "vocab_mismatch",
            ServeError::EmptyDocument => "empty_document",
            ServeError::InvalidSnapshot(_) => "invalid_snapshot",
            ServeError::UnknownModel { .. } => "unknown_model",
            ServeError::RequestTooLarge { .. } => "request_too_large",
        }
    }

    /// Render as the wire protocol's one-line error object,
    /// `{"error":"<kind>","message":"..."}`, with the message properly
    /// JSON-escaped (quotes, backslashes, and control characters survive
    /// as valid JSON — see [`ct_tensor::codec::json::push_json_str`]).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"error\":");
        ct_tensor::codec::json::push_json_str(&mut s, self.kind());
        s.push_str(",\"message\":");
        ct_tensor::codec::json::push_json_str(&mut s, &self.to_string());
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_json_escapes_hostile_messages() {
        // The historic bug: a backslash in an error message produced
        // invalid JSON, and quotes were lossily flattened to apostrophes.
        let e = ServeError::InvalidSnapshot("bad \"beta\" at C:\\models\\x\x01".into());
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"error\":\"invalid_snapshot\",\"message\":\"rejected snapshot: \
             bad \\\"beta\\\" at C:\\\\models\\\\x\\u0001\"}"
        );
    }

    #[test]
    fn error_json_kind_tags_cover_new_variants() {
        let unknown = ServeError::UnknownModel { model: "t1".into() };
        assert!(unknown
            .to_json()
            .starts_with("{\"error\":\"unknown_model\""));
        let huge = ServeError::RequestTooLarge { limit: 64 };
        let json = huge.to_json();
        assert!(
            json.starts_with("{\"error\":\"request_too_large\""),
            "{json}"
        );
        assert!(json.contains("64-byte limit"), "{json}");
    }
}
