//! The streaming tokenizers against a frozen oracle: verbatim copies of the
//! `Vec<String>`-building implementations the crate shipped before
//! `for_each_token`. Every tokenizer configuration must emit exactly the
//! oracle's tokens, in order, on seeded arbitrary UTF-8 and on the edge
//! cases lowercasing and char boundaries are known to trip over.

use ssjoin_prng::{Rng, StdRng};
use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Delims<'a> {
    NonAlphanumeric,
    Whitespace,
    Chars(&'a [char]),
}

fn oracle_words(s: &str, delims: Delims<'_>, lowercase: bool) -> Vec<String> {
    let is_delim = |c: char| match delims {
        Delims::NonAlphanumeric => !c.is_alphanumeric(),
        Delims::Whitespace => c.is_whitespace(),
        Delims::Chars(set) => set.contains(&c),
    };
    let mut out = Vec::new();
    let mut current = String::new();
    for c in s.chars() {
        if is_delim(c) {
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
        } else if lowercase {
            current.extend(c.to_lowercase());
        } else {
            current.push(c);
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

fn oracle_qgrams(s: &str, q: usize, pad: Option<char>) -> Vec<String> {
    fn windows_to_strings(chars: &[char], q: usize) -> Vec<String> {
        chars.windows(q).map(|w| w.iter().collect()).collect()
    }
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    match pad {
        Some(pad_char) => {
            let padding = vec![pad_char; q - 1];
            let mut padded = Vec::with_capacity(chars.len() + 2 * (q - 1));
            padded.extend_from_slice(&padding);
            padded.extend_from_slice(&chars);
            padded.extend_from_slice(&padding);
            windows_to_strings(&padded, q)
        }
        None => {
            if chars.len() < q {
                return vec![chars.iter().collect()];
            }
            windows_to_strings(&chars, q)
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// Arbitrary UTF-8: mostly any scalar value, with a bias towards ASCII,
/// whitespace, cased Greek/Latin letters and combining marks so words,
/// delimiters and lowercasing all get exercised.
fn random_utf8(rng: &mut StdRng, max_len: usize) -> String {
    const BIASED: &[char] = &[
        'a', 'Z', 'q', '0', '7', ' ', ' ', '\t', '\n', ',', ';', '.', '-', '#', 'Σ', 'σ', 'ς', 'Ο',
        'Δ', 'İ', 'ß', 'ẞ', 'Ǆ', '\u{301}', '\u{308}', '\u{200b}', '\u{a0}', '漢', '🦀', 'é',
    ];
    let len = rng.gen_range_inclusive(0..=max_len);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.6) {
                BIASED[rng.gen_index(BIASED.len())]
            } else {
                loop {
                    if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
                        break c;
                    }
                }
            }
        })
        .collect()
}

const EDGE_CASES: &[&str] = &[
    "",
    " ",
    "   ,.;  ",
    ",,,;;;",
    "ΟΔΟΣ",
    "ΟΔΟΣ ΟΔΟΣ.",
    "Σ",
    "ΑΣ Σ ΣΑ",
    "İ",
    "İSTANBUL İzmir",
    "e\u{301}cole",
    "\u{301}\u{301}",
    "a\u{308}b",
    "Straße STRASSE",
    "ǄUNGLA",
    "漢字 🦀crab",
    "Microsoft Corp.",
    "ab",
    "a",
    "Ab,Cd;eF gh",
];

fn tokens_of(t: &dyn Tokenizer, s: &str, scratch: &mut String) -> Vec<String> {
    let mut out = Vec::new();
    t.for_each_token(s, scratch, &mut |tok| out.push(tok.to_owned()));
    out
}

fn check_all(s: &str, scratch: &mut String) {
    let custom: &[char] = &[',', ';', ' '];
    let words: [(WordTokenizer, Delims<'_>); 3] = [
        (WordTokenizer::new(), Delims::NonAlphanumeric),
        (WordTokenizer::whitespace(), Delims::Whitespace),
        (
            WordTokenizer::with_delimiters(custom),
            Delims::Chars(custom),
        ),
    ];
    for (base, delims) in words {
        for lower in [false, true] {
            let t = if lower {
                base.clone().lowercased()
            } else {
                base.clone()
            };
            let want = oracle_words(s, delims, lower);
            assert_eq!(tokens_of(&t, s, scratch), want, "{t:?} on {s:?}");
            assert_eq!(t.tokenize(s), want, "{t:?} tokenize on {s:?}");
            assert_eq!(t.token_count(s), want.len(), "{t:?} count on {s:?}");
        }
    }
    for q in 1..=4 {
        for pad in [None, Some('#'), Some('§')] {
            let t = match pad {
                Some(c) => QGramTokenizer::padded(q, c),
                None => QGramTokenizer::new(q),
            };
            let want = oracle_qgrams(s, q, pad);
            assert_eq!(tokens_of(&t, s, scratch), want, "{t:?} on {s:?}");
            assert_eq!(t.tokenize(s), want, "{t:?} tokenize on {s:?}");
            assert_eq!(t.token_count(s), want.len(), "{t:?} count on {s:?}");
        }
    }
}

#[test]
fn streaming_tokenizers_match_oracle_on_edge_cases() {
    let mut scratch = String::new();
    for s in EDGE_CASES {
        check_all(s, &mut scratch);
    }
}

#[test]
fn streaming_tokenizers_match_oracle_on_arbitrary_utf8() {
    // One scratch buffer across every call: leftovers from an earlier
    // string must never leak into a later token.
    let mut scratch = String::from("stale scratch contents");
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(0x70CE ^ (seed * 0x9E37));
        let s = random_utf8(&mut rng, 40);
        check_all(&s, &mut scratch);
    }
}
