//! Error types for the simulation substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the simulation substrate.
///
/// All public fallible operations in this crate return
/// `Result<_, SimError>`. The type is `Send + Sync + 'static` so it can
/// flow through threaded Monte-Carlo harnesses unchanged.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A frame size of zero was requested; a frame must have at least
    /// one slot.
    EmptyFrame,
    /// A frame size exceeded the supported maximum
    /// ([`crate::ident::FrameSize::MAX`]).
    FrameTooLarge {
        /// The rejected frame size.
        requested: u64,
    },
    /// A slot index was outside the current frame.
    SlotOutOfRange {
        /// The rejected slot index.
        slot: u64,
        /// The frame size it was checked against.
        frame: u64,
    },
    /// A tag population was required to be non-empty.
    EmptyPopulation,
    /// Asked to remove more tags than the population holds.
    NotEnoughTags {
        /// Number of tags requested for removal.
        requested: usize,
        /// Number of tags actually present.
        available: usize,
    },
    /// A duplicate tag ID was inserted into a population that requires
    /// unique IDs.
    DuplicateTagId {
        /// The offending ID, in canonical hex form.
        id: String,
    },
    /// A probability parameter was outside `[0, 1]`.
    InvalidProbability {
        /// Name of the parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An SGTIN-96 field exceeded its encodable range.
    SgtinOutOfRange {
        /// Name of the field.
        field: &'static str,
        /// The rejected value.
        value: u128,
        /// Width available for the field, in bits.
        max_bits: u32,
    },
    /// A tag ID was decoded as SGTIN-96 but does not carry the SGTIN-96
    /// header (or uses an undefined partition).
    NotSgtin {
        /// The header byte found.
        header: u8,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyFrame => write!(f, "frame size must be at least one slot"),
            SimError::FrameTooLarge { requested } => {
                write!(f, "frame size {requested} exceeds the supported maximum")
            }
            SimError::SlotOutOfRange { slot, frame } => {
                write!(f, "slot index {slot} outside frame of {frame} slots")
            }
            SimError::EmptyPopulation => write!(f, "tag population is empty"),
            SimError::NotEnoughTags {
                requested,
                available,
            } => write!(
                f,
                "cannot remove {requested} tags from a population of {available}"
            ),
            SimError::DuplicateTagId { id } => {
                write!(f, "duplicate tag id {id} in population")
            }
            SimError::InvalidProbability { name, value } => {
                write!(f, "probability parameter `{name}` = {value} not in [0, 1]")
            }
            SimError::SgtinOutOfRange {
                field,
                value,
                max_bits,
            } => write!(
                f,
                "sgtin-96 field `{field}` = {value} does not fit in {max_bits} bits"
            ),
            SimError::NotSgtin { header } => write!(
                f,
                "tag id header {header:#04x} is not sgtin-96 (expected 0x30)"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let errors = [
            SimError::EmptyFrame,
            SimError::FrameTooLarge { requested: 1 << 40 },
            SimError::SlotOutOfRange { slot: 9, frame: 4 },
            SimError::EmptyPopulation,
            SimError::NotEnoughTags {
                requested: 5,
                available: 3,
            },
            SimError::DuplicateTagId {
                id: "0xdeadbeef".to_owned(),
            },
            SimError::InvalidProbability {
                name: "loss",
                value: 1.5,
            },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(!text.ends_with('.'), "trailing punctuation in: {text}");
            let first = text.chars().next().unwrap();
            assert!(first.is_lowercase(), "should start lowercase: {text}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(SimError::EmptyFrame);
        assert!(e.source().is_none());
    }
}
