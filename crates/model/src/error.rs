//! Error types shared across the model crate.

use std::fmt;

/// An error raised while parsing or validating a cellular identifier.
///
/// Parsing in this crate is strict: identifiers follow their 3GPP digit-string
/// grammar exactly (e.g. an IMSI is at most 15 digits, an MCC exactly 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input was empty where digits were required.
    Empty,
    /// The input contained a non-digit character at the given byte offset.
    NonDigit {
        /// Byte offset of the offending character.
        offset: usize,
    },
    /// The input had an invalid length for this identifier.
    BadLength {
        /// Name of the identifier being parsed (e.g. `"IMSI"`).
        what: &'static str,
        /// Expected length description (e.g. `"3 digits"`).
        expected: &'static str,
        /// Actual length found.
        found: usize,
    },
    /// A numeric field was outside its allowed range.
    OutOfRange {
        /// Name of the field (e.g. `"MCC"`).
        what: &'static str,
        /// Human-readable description of the allowed range.
        allowed: &'static str,
    },
    /// An IMEI check digit did not match the Luhn checksum.
    BadCheckDigit {
        /// The digit that was present.
        found: u8,
        /// The digit the Luhn algorithm expects.
        expected: u8,
    },
    /// An APN string violated the APN grammar.
    BadApn {
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// A binary stream did not open with the magic bytes of the format
    /// version this build reads.
    BadMagic {
        /// Name of the format (e.g. `"WTRCAT"`).
        format: &'static str,
        /// The version this build reads.
        expected: u8,
        /// The version the stream declares, if it opens with the format
        /// name.
        found: Option<u8>,
    },
    /// The MCC is syntactically valid but not allocated to any country in
    /// the registry.
    UnknownMcc(u16),
    /// The PLMN (MCC-MNC pair) is not present in the operator registry.
    UnknownPlmn {
        /// Mobile Country Code.
        mcc: u16,
        /// Mobile Network Code.
        mnc: u16,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty input"),
            ParseError::NonDigit { offset } => {
                write!(f, "non-digit character at offset {offset}")
            }
            ParseError::BadLength {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected {expected}, found {found}"),
            ParseError::OutOfRange { what, allowed } => {
                write!(f, "{what} out of range (allowed: {allowed})")
            }
            ParseError::BadCheckDigit { found, expected } => {
                write!(
                    f,
                    "IMEI check digit {found} does not match Luhn checksum {expected}"
                )
            }
            ParseError::BadApn { reason } => write!(f, "invalid APN: {reason}"),
            ParseError::BadMagic {
                format,
                expected,
                found: Some(found),
            } if found != expected => write!(
                f,
                "{format} version {found} is not supported (this build reads version {expected})"
            ),
            ParseError::BadMagic {
                format, expected, ..
            } => write!(
                f,
                "not a {format} version {expected} stream (bad magic bytes)"
            ),
            ParseError::UnknownMcc(mcc) => write!(f, "MCC {mcc} not allocated in registry"),
            ParseError::UnknownPlmn { mcc, mnc } => {
                write!(f, "PLMN {mcc}-{mnc:02} not present in operator registry")
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = ParseError::BadLength {
            what: "MCC",
            expected: "3 digits",
            found: 2,
        };
        assert_eq!(e.to_string(), "MCC: expected 3 digits, found 2");
        let e = ParseError::NonDigit { offset: 4 };
        assert!(e.to_string().contains("offset 4"));
        let e = ParseError::BadCheckDigit {
            found: 3,
            expected: 7,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('7'));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(ParseError::Empty);
        assert_eq!(e.to_string(), "empty input");
    }
}
