//! The `json_fresh` document generator.

use crate::gen::{Doc, Expect, Out, Rng};

/// The fixed object schema every document uses.
const KEYS: [&str; 12] = [
    "id", "name", "email", "score", "ratio", "active", "tags", "meta", "created", "ref", "note",
    "rank",
];
const DOC_BYTES: usize = 64 * 1024;
/// Lists stay short and nesting stays at most 4 deep, well below the
/// inputs whose recursive tree drop overflows the stack.
const MAX_ITEMS: usize = 256;

/// JSON documents for the `json.g` preset: arrays of objects over
/// [`KEYS`] whose numbers and strings never repeat within a run, so the
/// certifier's verdict cache misses on every value.
pub struct JsonGen {
    rng: Rng,
    /// Strictly increasing and mixed into every value.
    uniq: u64,
    docs: u64,
    bad_slot: u64,
}

impl JsonGen {
    pub fn new(seed: u64) -> JsonGen {
        JsonGen {
            rng: Rng::new(seed),
            uniq: 0,
            docs: 0,
            bad_slot: 0,
        }
    }

    /// A second generator whose values never meet this seed's request
    /// documents: the traced pass draws its stage documents from it, so
    /// the requests themselves stay those of the untraced run.
    pub fn stages(seed: u64) -> JsonGen {
        JsonGen {
            uniq: 1 << 40,
            ..JsonGen::new(!seed)
        }
    }

    /// The next request document: in every run of 16 documents exactly
    /// one, at a seeded position, has a malformed byte in its last KiB.
    pub fn request_doc(&mut self) -> Doc {
        if self.docs.is_multiple_of(16) {
            self.bad_slot = self.rng.below(16);
        }
        let bad = self.docs % 16 == self.bad_slot;
        self.docs += 1;
        self.doc(bad)
    }

    /// A document that always parses, for the traced stage split.
    pub fn clean_doc(&mut self) -> Doc {
        self.doc(false)
    }

    fn doc(&mut self, bad: bool) -> Doc {
        let mut o = Out::default();
        o.text.reserve(DOC_BYTES + 1024);
        o.tok("[");
        let mut items = 0;
        while items < MAX_ITEMS && o.text.len() < DOC_BYTES - 512 {
            if items > 0 {
                o.comma();
                o.ws("\n");
            }
            self.object(&mut o);
            items += 1;
        }
        o.tok("]");
        o.ws("\n");
        if !bad {
            return Doc {
                expect: Expect::Accept { tokens: o.tokens },
                text: o.text,
            };
        }
        // No token starts with '@', and right after a comma it is
        // outside every string: lexing must fail exactly there.
        let tail = o.text.len() - 1024;
        let sites: Vec<usize> = o.commas.iter().copied().filter(|&c| c >= tail).collect();
        let at = sites[self.rng.below(sites.len() as u64) as usize] + 1;
        o.text.insert(at, '@');
        Doc {
            text: o.text,
            expect: Expect::RejectLex { at },
        }
    }

    fn fresh(&mut self) -> u64 {
        self.uniq += 1;
        self.uniq
    }

    fn int(&mut self, o: &mut Out, sign: &str) {
        let u = self.fresh();
        let low = self.rng.below(1000);
        o.tok(&format!("{sign}{}", u * 1000 + low));
    }

    fn string(&mut self, o: &mut Out, prefix: &str) {
        let u = self.fresh();
        let n = 1 + self.rng.below(8);
        let mut s = format!("\"{prefix}");
        self.rng.letters(n, &mut s);
        s.push_str(&format!("-{u:x}\""));
        o.tok(&s);
    }

    fn object(&mut self, o: &mut Out) {
        o.tok("{");
        for (i, key) in KEYS.iter().enumerate() {
            if i > 0 {
                o.comma();
                o.ws(" ");
            }
            o.tok(&format!("\"{key}\""));
            o.tok(":");
            match *key {
                "id" => self.int(o, ""),
                "name" => self.string(o, "n"),
                "email" => {
                    let u = self.fresh();
                    let host = 10 + self.rng.below(90);
                    let mut s = String::from("\"");
                    let n = 3 + self.rng.below(6);
                    self.rng.letters(n, &mut s);
                    s.push_str(&format!(".{u}@mail{host}.example\""));
                    o.tok(&s);
                }
                "score" => {
                    let u = self.fresh();
                    let sign = if self.rng.below(4) == 0 { "-" } else { "" };
                    let frac = self.rng.below(1000);
                    o.tok(&format!("{sign}{u}.{frac:03}"));
                }
                "ratio" => {
                    let u = self.fresh();
                    let lead = 1 + self.rng.below(9);
                    let sign = ["", "+", "-"][self.rng.below(3) as usize];
                    let exp = 1 + self.rng.below(30);
                    o.tok(&format!("{lead}.{u}e{sign}{exp}"));
                }
                "active" => o.tok(if self.rng.below(2) == 0 {
                    "true"
                } else {
                    "false"
                }),
                "tags" => {
                    o.tok("[");
                    for j in 0..1 + self.rng.below(4) {
                        if j > 0 {
                            o.comma();
                        }
                        self.string(o, "t");
                    }
                    o.tok("]");
                }
                "meta" => {
                    o.tok("{");
                    o.tok("\"k\"");
                    o.tok(":");
                    self.int(o, "");
                    o.comma();
                    o.tok("\"pts\"");
                    o.tok(":");
                    o.tok("[");
                    for j in 0..3 {
                        if j > 0 {
                            o.comma();
                        }
                        self.int(o, "-");
                    }
                    o.tok("]");
                    o.comma();
                    o.tok("\"lbl\"");
                    o.tok(":");
                    self.string(o, "l");
                    o.tok("}");
                }
                "created" => {
                    let u = self.fresh();
                    let (m, d) = (1 + self.rng.below(12), 1 + self.rng.below(28));
                    let (h, s) = (self.rng.below(24), self.rng.below(3600));
                    o.tok(&format!(
                        "\"2026-{m:02}-{d:02}T{h:02}:{:02}:{:02}Z#{u}\"",
                        s / 60,
                        s % 60
                    ));
                }
                "ref" => {
                    if self.rng.below(3) == 0 {
                        o.tok("null");
                    } else {
                        self.int(o, "");
                    }
                }
                "note" => {
                    let u = self.fresh();
                    o.tok(&format!("\"line {u}\\n\\\"quoted\\\"\\t\\u00e9\\/end\""));
                }
                _ => self.int(o, "-"),
            }
        }
        o.tok("}");
    }
}
