//! Word tokenization.

use crate::Tokenizer;

/// Tokenizer splitting a string into words.
///
/// By default words are maximal runs of alphanumeric characters; everything
/// else (whitespace, punctuation) is a delimiter. A custom delimiter
/// predicate can be supplied with [`WordTokenizer::with_delimiters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordTokenizer {
    delimiters: DelimiterRule,
    lowercase: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DelimiterRule {
    /// Split on anything that is not alphanumeric.
    NonAlphanumeric,
    /// Split on whitespace only.
    Whitespace,
    /// Split on an explicit character set.
    Chars(Vec<char>),
}

impl Default for WordTokenizer {
    fn default() -> Self {
        Self {
            delimiters: DelimiterRule::NonAlphanumeric,
            lowercase: false,
        }
    }
}

impl WordTokenizer {
    /// Tokenizer splitting on non-alphanumeric characters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizer splitting on whitespace only (punctuation is kept inside
    /// tokens).
    pub fn whitespace() -> Self {
        Self {
            delimiters: DelimiterRule::Whitespace,
            lowercase: false,
        }
    }

    /// Tokenizer splitting on the given delimiter characters.
    pub fn with_delimiters(delims: &[char]) -> Self {
        Self {
            delimiters: DelimiterRule::Chars(delims.to_vec()),
            lowercase: false,
        }
    }

    /// Lowercase every token as it is produced.
    pub fn lowercased(mut self) -> Self {
        self.lowercase = true;
        self
    }

    fn is_delim(&self, c: char) -> bool {
        match &self.delimiters {
            DelimiterRule::NonAlphanumeric => !c.is_alphanumeric(),
            DelimiterRule::Whitespace => c.is_whitespace(),
            DelimiterRule::Chars(set) => set.contains(&c),
        }
    }
}

impl Tokenizer for WordTokenizer {
    fn for_each_token(&self, s: &str, scratch: &mut String, emit: &mut dyn FnMut(&str)) {
        let mut start: Option<usize> = None;
        for (i, c) in s.char_indices() {
            if self.is_delim(c) {
                if let Some(st) = start.take() {
                    self.emit_word(&s[st..i], scratch, emit);
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(st) = start {
            self.emit_word(&s[st..], scratch, emit);
        }
    }
}

impl WordTokenizer {
    /// Emit one word: the borrowed span itself, unless lowercasing changes
    /// it, in which case the lowercased copy is built in `scratch`.
    ///
    /// Lowercasing is per `char` (`char::to_lowercase`), never
    /// `str::to_lowercase`: the latter maps a word-final `Σ` to `ς`, which
    /// would make a token depend on its neighbours.
    fn emit_word(&self, word: &str, scratch: &mut String, emit: &mut dyn FnMut(&str)) {
        if !self.lowercase {
            return emit(word);
        }
        scratch.clear();
        if word.is_ascii() {
            if !word.bytes().any(|b| b.is_ascii_uppercase()) {
                return emit(word);
            }
            scratch.push_str(word);
            scratch.make_ascii_lowercase();
        } else {
            for c in word.chars() {
                scratch.extend(c.to_lowercase());
            }
        }
        emit(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("Microsoft Corp."), vec!["Microsoft", "Corp"]);
        assert_eq!(t.tokenize("148th Ave, NE"), vec!["148th", "Ave", "NE"]);
    }

    #[test]
    fn whitespace_only_keeps_punctuation() {
        let t = WordTokenizer::whitespace();
        assert_eq!(t.tokenize("Corp. Inc"), vec!["Corp.", "Inc"]);
    }

    #[test]
    fn custom_delimiters() {
        let t = WordTokenizer::with_delimiters(&[',', ';']);
        assert_eq!(t.tokenize("a,b;c d"), vec!["a", "b", "c d"]);
    }

    #[test]
    fn empty_and_all_delims() {
        let t = WordTokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("  ,.;  ").is_empty());
    }

    #[test]
    fn lowercasing() {
        let t = WordTokenizer::new().lowercased();
        assert_eq!(t.tokenize("Microsoft CORP"), vec!["microsoft", "corp"]);
    }

    #[test]
    fn duplicates_preserved_in_order() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("a b a"), vec!["a", "b", "a"]);
    }

    #[test]
    fn lowercasing_is_per_char() {
        // No final-sigma rule: every Σ lowercases to σ.
        let t = WordTokenizer::new().lowercased();
        assert_eq!(t.tokenize("ΟΔΟΣ"), vec!["οδοσ"]);
        // 'İ' lowercases to two chars; the span grows.
        assert_eq!(t.tokenize("İx"), vec!["i\u{307}x"]);
    }

    #[test]
    fn unicode_words() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("café münchen"), vec!["café", "münchen"]);
    }
}
