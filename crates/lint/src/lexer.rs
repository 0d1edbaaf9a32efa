//! A hand-rolled Rust surface lexer.
//!
//! The linter must run in an offline container, so there is no `syn` or
//! rustc internals to lean on. This module does the minimum lexical work
//! the rules need to be trustworthy on real code:
//!
//! * comments (line, nested block), string literals (plain, raw, byte),
//!   and char literals are **blanked out** of the code stream — a
//!   `partial_cmp` inside a doc comment or an error message must never
//!   fire a rule;
//! * comment text is collected per line so waiver comments can be parsed,
//!   and string-literal text so a rule can name a literal (a note key)
//!   without firing on prose;
//! * `#[cfg(test)]` / `#[test]` attributes and `mod tests` items open a
//!   brace-tracked *test scope*, and every line inside one is exempt from
//!   the rules (test code may panic and may be as nondeterministic as it
//!   likes).
//!
//! Columns are preserved: blanked regions are replaced by spaces, so a
//! finding's snippet and byte offsets still line up with the source.

/// One source line after lexing.
#[derive(Debug, Clone)]
pub struct Line {
    /// Source text with comments, string contents, and char literals
    /// replaced by spaces. Rules scan only this.
    pub code: String,
    /// Concatenated *implementation* comment text appearing on this line
    /// (without the `//` / `/*` delimiters). Waivers are parsed from
    /// this. Doc comments (`///`, `//!`, `/**`, `/*!`) are excluded so
    /// documentation may show waiver syntax without registering one.
    pub comment: String,
    /// The text of each string literal on this line, raw (escapes kept
    /// as written, delimiters dropped); a literal spanning lines gives
    /// each line its part.
    pub strings: Vec<String>,
    /// True when the line sits inside a `#[cfg(test)]` / `#[test]` /
    /// `mod tests` brace scope (or opens/closes one).
    pub in_test: bool,
}

#[derive(PartialEq)]
enum Mode {
    Code,
    /// The bool is true for doc comments, whose text is not collected.
    LineComment(bool),
    BlockComment(u32, bool),
    Str,
    RawStr(u32),
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex `source` into blanked per-line code + comment streams.
pub fn lex(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut strings: Vec<String> = Vec::new();
    // The open string literal's text on the current line.
    let mut literal: Option<String> = None;
    let mut mode = Mode::Code;
    let mut i = 0;
    let n = chars.len();

    macro_rules! flush_line {
        () => {
            if let Some(open) = literal.as_mut() {
                strings.push(std::mem::take(open));
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                strings: std::mem::take(&mut strings),
                in_test: false,
            });
        };
    }

    while i < n {
        let c = chars[i];
        if c == '\n' {
            if matches!(mode, Mode::LineComment(_)) {
                mode = Mode::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    let doc = matches!(chars.get(i + 2), Some(&'/') | Some(&'!'));
                    mode = Mode::LineComment(doc);
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    let doc = matches!(chars.get(i + 2), Some(&'*') | Some(&'!'))
                        && chars.get(i + 3) != Some(&'/');
                    mode = Mode::BlockComment(1, doc);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Str;
                    literal = Some(String::new());
                    code.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !matches!(chars.get(i.wrapping_sub(1)), Some(&p) if is_ident(p))
                {
                    // Possible raw/byte string prefix: r", r#", br", b", b'.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (c != 'b' || j > i + 1 || hashes == 0) {
                        // r"..", r#".."#, br".., b"..
                        let is_raw = c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r'));
                        if is_raw || hashes == 0 {
                            for _ in i..=j {
                                code.push(' ');
                            }
                            i = j + 1;
                            mode = if is_raw { Mode::RawStr(hashes) } else { Mode::Str };
                            literal = Some(String::new());
                            continue;
                        }
                    }
                    if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                        // Byte char literal b'x' / b'\n'.
                        code.push_str("  ");
                        i += 2;
                        i = skip_char_literal(&chars, i, &mut code);
                        continue;
                    }
                    code.push(c);
                    i += 1;
                } else if c == '\'' {
                    // Char literal or lifetime. A lifetime is `'ident` not
                    // followed by a closing quote; everything else here is
                    // a char literal.
                    let n1 = chars.get(i + 1).copied();
                    let n2 = chars.get(i + 2).copied();
                    let lifetime = matches!(n1, Some(a) if is_ident(a) || a == '_')
                        && n2 != Some('\'')
                        && n1 != Some('\\');
                    if lifetime {
                        code.push(c);
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                        i = skip_char_literal(&chars, i, &mut code);
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment(doc) => {
                if !doc {
                    comment.push(c);
                }
                code.push(' ');
                i += 1;
            }
            Mode::BlockComment(depth, doc) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1, doc);
                    }
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1, doc);
                    code.push_str("  ");
                    i += 2;
                } else {
                    if !doc {
                        comment.push(c);
                    }
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                let text = literal.get_or_insert_with(String::new);
                if c == '\\' {
                    // Consume the escaped char too — unless it is a line
                    // continuation, whose newline must still flush the line.
                    text.push(c);
                    if chars.get(i + 1) == Some(&'\n') {
                        code.push(' ');
                        i += 1;
                    } else {
                        text.extend(chars.get(i + 1));
                        code.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    strings.extend(literal.take());
                    mode = Mode::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    text.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes {
                            code.push(' ');
                        }
                        i += 1 + hashes as usize;
                        strings.extend(literal.take());
                        mode = Mode::Code;
                        continue;
                    }
                }
                literal.get_or_insert_with(String::new).push(c);
                code.push(' ');
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() || literal.is_some() {
        flush_line!();
    }

    mark_test_scopes(&mut lines);
    lines
}

/// Consume the body of a char literal starting just after the opening
/// quote, blanking it into `code`. Returns the index after the closing
/// quote.
fn skip_char_literal(chars: &[char], mut i: usize, code: &mut String) -> usize {
    if chars.get(i) == Some(&'\\') {
        code.push(' ');
        i += 1;
        // The escaped character itself (so `'\''` does not end early) …
        if chars.get(i).is_some() {
            code.push(' ');
            i += 1;
        }
        // … then anything up to the closing quote (covers `'\u{..}'`).
        while let Some(&c) = chars.get(i) {
            code.push(' ');
            i += 1;
            if c == '\'' {
                return i;
            }
        }
        return i;
    }
    if chars.get(i).is_some() {
        code.push(' ');
        i += 1;
    }
    if chars.get(i) == Some(&'\'') {
        code.push(' ');
        i += 1;
    }
    i
}

/// Second pass: mark lines inside `#[cfg(test)]` / `#[test]` / `mod tests`
/// brace scopes. An attribute arms a *pending* flag that attaches to the
/// next `{` (the item body); a `;` first (e.g. `#[cfg(test)] mod tests;` or
/// an attributed `use`) disarms it.
fn mark_test_scopes(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut stack: Vec<i64> = Vec::new();
    let mut pending = false;
    for line in lines.iter_mut() {
        let start_in_test = !stack.is_empty();
        let code = line.code.as_str();
        if code.contains("#[cfg(test)]")
            || code.contains("#[test]")
            || code.contains("#[cfg(all(test")
            || code.contains("#[cfg(any(test")
            || contains_mod_tests(code)
        {
            pending = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if pending {
                        stack.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if stack.last() == Some(&depth) {
                        stack.pop();
                    }
                }
                // Attribute attached to a braceless item.
                ';' if pending && stack.last() != Some(&(depth - 1)) => {
                    pending = false;
                }
                _ => {}
            }
        }
        line.in_test = start_in_test || !stack.is_empty();
    }
}

/// Word-boundary match for the conventional `mod tests` item.
fn contains_mod_tests(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("mod tests") {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + "mod tests".len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end] as char);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_comments_and_collects_text() {
        let lines = lex("let x = 1; // partial_cmp here\nlet y = 2;\n");
        assert!(!lines[0].code.contains("partial_cmp"));
        assert!(lines[0].comment.contains("partial_cmp"));
        assert!(lines[0].code.contains("let x = 1;"));
        assert_eq!(lines[1].comment, "");
    }

    #[test]
    fn blanks_block_comments_nested() {
        let lines = lex("a /* x /* y */ partial_cmp */ b\n");
        assert!(!lines[0].code.contains("partial_cmp"));
        assert!(lines[0].comment.contains("partial_cmp"));
        assert!(lines[0].code.contains('a') && lines[0].code.contains('b'));
    }

    #[test]
    fn blanks_strings_and_raw_strings() {
        let lines = lex("let s = \"partial_cmp\"; let r = r#\"f64::max\"#; done();\n");
        assert!(!lines[0].code.contains("partial_cmp"));
        assert!(!lines[0].code.contains("f64::max"));
        assert!(lines[0].code.contains("done();"));
    }

    #[test]
    fn string_literal_text_is_collected_per_line() {
        let lines = lex("f(\"a\\\"b\", r#\"c\"#, 'd'); // \"e\"\nlet s = \"one\ntwo\";\n");
        assert_eq!(lines[0].strings, ["a\\\"b", "c"]);
        assert_eq!(lines[1].strings, ["one"]);
        assert_eq!(lines[2].strings, ["two"]);
        assert!(lex("/// \"doc\"\nfn f() {}\n").iter().all(|l| l.strings.is_empty()));
    }

    #[test]
    fn string_escapes_do_not_terminate() {
        let lines = lex("let s = \"a\\\"partial_cmp\"; end()\n");
        assert!(!lines[0].code.contains("partial_cmp"));
        assert!(lines[0].code.contains("end()"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lines = lex("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\n'; g(); }\n");
        let code = &lines[0].code;
        assert!(code.contains("fn f<'a>(x: &'a str)"), "lifetimes survive: {code}");
        assert!(code.contains("g();"), "code after char literals survives: {code}");
        assert!(!code.contains('"'), "quote char literal blanked: {code}");
    }

    #[test]
    fn doc_comment_text_is_not_collected() {
        let lines = lex("//! module doc waiver-text\n/// item doc\n// real comment\nfn f() {}\n");
        assert_eq!(lines[0].comment, "");
        assert_eq!(lines[1].comment, "");
        assert!(lines[2].comment.contains("real comment"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_derail() {
        let lines = lex("let q = '\\''; after();\n");
        assert!(lines[0].code.contains("after();"), "got: {}", lines[0].code);
    }

    #[test]
    fn multiline_string_blanks_every_line() {
        let lines = lex("let s = \"first\npartial_cmp\nlast\"; tail();\n");
        assert!(!lines[1].code.contains("partial_cmp"));
        assert!(lines[2].code.contains("tail();"));
    }

    #[test]
    fn string_line_continuation_keeps_line_numbers() {
        let lines = lex("let s = \"one \\\n     two\";\nlet y = 3;\n");
        assert_eq!(lines.len(), 3);
        assert!(lines[2].code.contains("let y = 3;"));
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lines = lex(src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test, "closing brace line still counts as test");
        assert!(!lines[5].in_test);
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let src = "#[test]\nfn check() {\n    boom();\n}\nfn live() {}\n";
        let lines = lex(src);
        assert!(lines[2].in_test);
        assert!(!lines[4].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() { body(); }\n";
        let lines = lex(src);
        assert!(!lines[2].in_test, "the `;` must disarm the pending attribute");
    }

    #[test]
    fn mod_tests_without_attribute_is_marked() {
        let src = "mod tests {\n    fn t() {}\n}\n";
        let lines = lex(src);
        assert!(lines[1].in_test);
    }

    #[test]
    fn nested_test_scopes_close_at_the_right_brace() {
        let src = "mod outer {\n    #[cfg(test)]\n    mod tests {\n        fn t() {}\n    }\n    fn live() {}\n}\n";
        let lines = lex(src);
        assert!(lines[3].in_test);
        assert!(!lines[5].in_test, "sibling of the test mod is live code");
    }
}
