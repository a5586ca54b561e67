//! Seeded alpha-renaming: fresh variants of a program that check exactly
//! like it but share no definition name with it, so every definition misses
//! the daemon's per-definition verdict index.

use crate::stats::Rng;

/// The names a program defines, in program order.
pub fn def_names(source: &str) -> Result<Vec<String>, String> {
    let program = rel_syntax::parse_program(source).map_err(|e| e.to_string())?;
    Ok(program.iter().map(|d| d.name.name().to_string()).collect())
}

/// Appends `suffix` to every whole-identifier occurrence of each of
/// `names` in `source`: the `def` heads, the `fix` binders and every
/// (recursive or cross-definition) reference.
pub fn rename(source: &str, names: &[String], suffix: &str) -> String {
    let is_start = |c: char| c.is_alphabetic() || c == '_';
    let is_cont = |c: char| c.is_alphanumeric() || c == '_' || c == '\'';
    let mut out = String::with_capacity(source.len() + names.len() * 8 * suffix.len());
    let mut chars = source.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if !is_start(c) {
            out.push(c);
            continue;
        }
        let mut end = start + c.len_utf8();
        while let Some(&(i, next)) = chars.peek() {
            if !is_cont(next) {
                break;
            }
            end = i + next.len_utf8();
            chars.next();
        }
        let word = &source[start..end];
        out.push_str(word);
        if names.iter().any(|n| n == word) {
            out.push_str(suffix);
        }
    }
    out
}

/// Generates the renamed request programs of one run.
#[derive(Debug)]
pub struct VariantGen {
    rng: Rng,
    /// Seeded, so runs with different seeds rename differently.
    tag: u32,
    bases: Vec<(String, Vec<String>)>,
    issued: u64,
}

impl VariantGen {
    pub fn new(seed: u64, bases: &[&str]) -> Result<VariantGen, String> {
        let bases = bases
            .iter()
            .map(|src| Ok((src.to_string(), def_names(src)?)))
            .collect::<Result<_, String>>()?;
        let mut rng = Rng::new(seed);
        Ok(VariantGen {
            tag: rng.next_u64() as u32,
            rng,
            bases,
            issued: 0,
        })
    }

    /// The variant of base program `base` with serial number `serial`;
    /// distinct serials give distinct variants.
    pub fn variant(&self, base: usize, serial: u64) -> String {
        let (source, names) = &self.bases[base];
        rename(source, names, &format!("_{:x}v{serial}", self.tag))
    }

    /// Picks a base program at random and returns `(base index, its next
    /// variant)`.
    pub fn next_variant(&mut self) -> (usize, String) {
        let base = self.rng.below(self.bases.len());
        self.issued += 1;
        (base, self.variant(base, self.issued))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renames_whole_identifiers_only() {
        let src = "def app : t = fix app(u). app' (app u) apps;";
        let out = rename(src, &["app".to_string()], "_1");
        assert_eq!(out, "def app_1 : t = fix app_1(u). app' (app_1 u) apps;");
    }
}
