//! Interned names.
//!
//! Every identifier in the compiler is interned into a global table and
//! referred to by a compact [`Name`] handle. Interned strings are leaked into
//! `'static` storage, which is the usual trade-off for a batch compiler: the
//! set of distinct identifiers is small and lives for the whole process.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// A handle to an interned identifier.
///
/// `Name`s are cheap to copy and compare; resolving one back to its string
/// takes the interner lock, so hot paths compare `Name`s instead.
///
/// # Examples
///
/// ```
/// use mini_ir::Name;
/// let a = Name::from("foo");
/// let b = Name::from("foo");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "foo");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strs: Vec<&'static str>,
}

static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();

fn interner() -> &'static Mutex<Interner> {
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            strs: Vec::new(),
        })
    })
}

impl Name {
    /// Interns `s` and returns its handle.
    pub fn intern(s: &str) -> Name {
        let mut i = interner().lock().expect("name interner poisoned");
        if let Some(&id) = i.map.get(s) {
            return Name(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = i.strs.len() as u32;
        i.strs.push(leaked);
        i.map.insert(leaked, id);
        Name(id)
    }

    /// Resolves the handle back to the interned string.
    pub fn as_str(self) -> &'static str {
        let i = interner().lock().expect("name interner poisoned");
        i.strs[self.0 as usize]
    }

    /// Returns a fresh name of the form `{base}${n}` guaranteed not to have
    /// been interned via a previous `fresh` call with the same counter.
    pub fn fresh(base: &str, n: u32) -> Name {
        Name::intern(&format!("{base}${n}"))
    }

    /// The raw handle index, for use as a dense map key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::intern(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::intern(&s)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({})", self.as_str())
    }
}

/// Well-known names used throughout the pipeline. Each is interned on
/// first use and then read without the interner lock.
pub mod std_names {
    use super::Name;
    use std::sync::OnceLock;

    macro_rules! known {
        ($($fn_name:ident => $text:expr;)*) => {
            $(
                #[doc = concat!("The interned name `", $text, "`.")]
                pub fn $fn_name() -> Name {
                    static NAME: OnceLock<Name> = OnceLock::new();
                    *NAME.get_or_init(|| Name::intern($text))
                }
            )*
        };
    }

    known! {
        init => "<init>";
        main => "main";
        apply => "apply";
        update => "update";
        length => "length";
        wildcard => "_";
        this_ => "this";
        outer => "$outer";
        eq_eq => "==";
        neq => "!=";
        get_class => "getClass";
        equals => "equals";
        to_string => "toString";
        println => "println";
        plus => "+";
        minus => "-";
        times => "*";
        div => "/";
        modulo => "%";
        lt => "<";
        gt => ">";
        le => "<=";
        ge => ">=";
        amp_amp => "&&";
        bar_bar => "||";
        bang => "!";
        any => "Any";
        any_ref => "AnyRef";
        nothing => "Nothing";
        null_ => "Null";
        unit => "Unit";
        int => "Int";
        boolean => "Boolean";
        string => "String";
        array => "Array";
        seq => "Seq";
        function0 => "Function0";
        function1 => "Function1";
        function2 => "Function2";
        object_ => "Object";
        root_pkg => "<root>";
        empty_pkg => "<empty>";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Name::intern("alpha");
        let b = Name::intern("alpha");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_names() {
        assert_ne!(Name::intern("x1"), Name::intern("x2"));
    }

    #[test]
    fn resolve_round_trips() {
        let n = Name::intern("round_trip_me");
        assert_eq!(n.as_str(), "round_trip_me");
        assert_eq!(n.to_string(), "round_trip_me");
    }

    #[test]
    fn fresh_names_embed_counter() {
        let n = Name::fresh("liftedTry", 7);
        assert_eq!(n.as_str(), "liftedTry$7");
    }

    #[test]
    fn std_names_are_stable() {
        assert_eq!(std_names::init().as_str(), "<init>");
        assert_eq!(std_names::apply(), Name::intern("apply"));
    }
}
