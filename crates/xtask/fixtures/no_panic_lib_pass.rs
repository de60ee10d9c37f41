//! Expected-pass fixture for `no-panic-lib`: typed errors, doc
//! examples, `debug_assert!`, the allow escape hatch, and test code are
//! all fine.

/// Doc examples are comments to the lexer, so their panics never fire
/// the rule:
///
/// ```
/// let x: Option<u32> = Some(1);
/// assert_eq!(x.unwrap(), 1);
/// ```
pub fn load(input: Option<u32>) -> Result<u32, String> {
    debug_assert!(input.is_none() || input >= Some(0), "compiled out of release");
    debug_assert_eq!(input, input, "compiled out of release");
    debug_assert_ne!(input, Some(u32::MAX));
    input.ok_or_else(|| "missing input".to_string())
}

pub fn trusted(input: Option<u32>) -> u32 {
    // pcm-lint: allow(no-panic-lib) — fixture: demonstrates the justified-infallible escape hatch.
    input.unwrap()
}

pub fn checked(input: &[u8]) -> usize {
    // pcm-lint: allow(no-panic-lib) — fixture: the escape hatch covers assert_eq! too.
    assert_eq!(input.len(), 64);
    input.len()
}

// A string mentioning unwrap() must not trip the lexer either.
pub const HINT: &str = "never call unwrap() on user input";

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_freely() {
        assert!(super::load(None).is_err());
        super::load(Some(1)).unwrap();
        assert_eq!(super::trusted(Some(2)), 2);
        assert_ne!(super::trusted(Some(2)), 3);
        if false {
            panic!("unreachable but legal in tests");
        }
    }
}
