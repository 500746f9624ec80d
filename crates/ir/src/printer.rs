//! A source-like tree pretty-printer for debugging and golden tests.

use crate::symbol::SymbolTable;
use crate::tree::{TreeKind, TreeRef};
use crate::types::Type;

/// Renders `t` as indented pseudo-source.
///
/// The output is stable and intended for debugging and golden tests, not for
/// re-parsing. Symbols in both term and *type* position render as their
/// names (via [`print_type`]), never as raw ids: ids depend on allocation
/// order — and, under parallel compilation, on the worker id shard — while
/// names are reproducible, which is what lets the determinism property
/// tests compare printed output byte for byte across `jobs` values.
pub fn print_tree(t: &TreeRef, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    let mut p = Printer {
        symbols,
        out: &mut out,
        indent: 0,
    };
    p.tree(t);
    out
}

/// Renders a type with symbol references resolved to names through
/// `symbols` (the id-based [`std::fmt::Display`] on [`Type`] remains for
/// contexts without a table).
pub fn print_type(t: &Type, symbols: &SymbolTable) -> String {
    let mut out = String::new();
    type_into(t, symbols, &mut out);
    out
}

fn sym_name(symbols: &SymbolTable, sym: crate::SymbolId, out: &mut String) {
    if sym.exists() {
        out.push_str(symbols.sym(sym).name.as_str());
    } else {
        out.push_str("<none>");
    }
}

fn types_into(ts: &[Type], symbols: &SymbolTable, sep: &str, out: &mut String) {
    for (i, t) in ts.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        type_into(t, symbols, out);
    }
}

fn type_into(t: &Type, symbols: &SymbolTable, out: &mut String) {
    match t {
        Type::Class { sym, targs } => {
            sym_name(symbols, *sym, out);
            if !targs.is_empty() {
                out.push('[');
                types_into(targs, symbols, ", ", out);
                out.push(']');
            }
        }
        Type::TypeParam(s) => sym_name(symbols, *s, out),
        Type::TermRef(s) => {
            sym_name(symbols, *s, out);
            out.push_str(".type");
        }
        Type::Method { params, ret } => {
            for ps in params {
                out.push('(');
                types_into(ps, symbols, ", ", out);
                out.push(')');
            }
            type_into(ret, symbols, out);
        }
        Type::Poly {
            tparams,
            underlying,
        } => {
            out.push('[');
            for (i, tp) in tparams.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                sym_name(symbols, *tp, out);
            }
            out.push(']');
            type_into(underlying, symbols, out);
        }
        Type::ByName(t) => {
            out.push_str("=> ");
            type_into(t, symbols, out);
        }
        Type::Repeated(t) => {
            type_into(t, symbols, out);
            out.push('*');
        }
        Type::Array(t) => {
            out.push_str("Array[");
            type_into(t, symbols, out);
            out.push(']');
        }
        Type::Function { params, ret } => {
            out.push('(');
            types_into(params, symbols, ", ", out);
            out.push_str(") => ");
            type_into(ret, symbols, out);
        }
        Type::Or(a, b) => {
            type_into(a, symbols, out);
            out.push_str(" | ");
            type_into(b, symbols, out);
        }
        // Nullary structural types render exactly as their `Display`.
        other => out.push_str(&other.to_string()),
    }
}

struct Printer<'a> {
    symbols: &'a SymbolTable,
    out: &'a mut String,
    indent: usize,
}

impl Printer<'_> {
    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn name_of(&self, sym: crate::SymbolId) -> String {
        if sym.exists() {
            self.symbols.sym(sym).name.as_str().to_owned()
        } else {
            "<none>".to_owned()
        }
    }

    fn type_str(&self, t: &Type) -> String {
        print_type(t, self.symbols)
    }

    fn trees(&mut self, ts: &[TreeRef], sep: &str) {
        for (i, t) in ts.iter().enumerate() {
            if i > 0 {
                self.out.push_str(sep);
            }
            self.tree(t);
        }
    }

    fn tree(&mut self, t: &TreeRef) {
        match t.kind() {
            TreeKind::Empty => self.out.push_str("<empty>"),
            TreeKind::Literal { value } => self.out.push_str(&value.to_string()),
            TreeKind::Ident { sym } => self.out.push_str(&self.name_of(*sym)),
            TreeKind::Unresolved { name } => {
                self.out.push('?');
                self.out.push_str(name.as_str());
            }
            TreeKind::Select { qual, name, .. } => {
                self.tree(qual);
                self.out.push('.');
                self.out.push_str(name.as_str());
            }
            TreeKind::Apply { fun, args } => {
                self.tree(fun);
                self.out.push('(');
                self.trees(args, ", ");
                self.out.push(')');
            }
            TreeKind::TypeApply { fun, targs } => {
                self.tree(fun);
                self.out.push('[');
                for (i, ta) in targs.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    let t = self.type_str(ta);
                    self.out.push_str(&t);
                }
                self.out.push(']');
            }
            TreeKind::New { tpe } => {
                self.out.push_str("new ");
                let t = self.type_str(tpe);
                self.out.push_str(&t);
            }
            TreeKind::Assign { lhs, rhs } => {
                self.tree(lhs);
                self.out.push_str(" = ");
                self.tree(rhs);
            }
            TreeKind::Block { stats, expr } => {
                self.out.push('{');
                self.indent += 1;
                for s in stats {
                    self.nl();
                    self.tree(s);
                }
                self.nl();
                self.tree(expr);
                self.indent -= 1;
                self.nl();
                self.out.push('}');
            }
            TreeKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.out.push_str("if (");
                self.tree(cond);
                self.out.push_str(") ");
                self.tree(then_branch);
                if !else_branch.is_empty_tree() {
                    self.out.push_str(" else ");
                    self.tree(else_branch);
                }
            }
            TreeKind::Match { selector, cases } => {
                self.tree(selector);
                self.out.push_str(" match {");
                self.indent += 1;
                for c in cases {
                    self.nl();
                    self.tree(c);
                }
                self.indent -= 1;
                self.nl();
                self.out.push('}');
            }
            TreeKind::CaseDef { pat, guard, body } => {
                self.out.push_str("case ");
                self.tree(pat);
                if !guard.is_empty_tree() {
                    self.out.push_str(" if ");
                    self.tree(guard);
                }
                self.out.push_str(" => ");
                self.tree(body);
            }
            TreeKind::Bind { sym, pat } => {
                self.out.push_str(&self.name_of(*sym));
                self.out.push_str(" @ ");
                self.tree(pat);
            }
            TreeKind::Alternative { pats } => self.trees(pats, " | "),
            TreeKind::Typed { expr, tpe } => {
                self.out.push('(');
                self.tree(expr);
                self.out.push_str(": ");
                let t = self.type_str(tpe);
                self.out.push_str(&t);
                self.out.push(')');
            }
            TreeKind::Cast { expr, tpe } => {
                self.tree(expr);
                self.out.push_str(".asInstanceOf[");
                let t = self.type_str(tpe);
                self.out.push_str(&t);
                self.out.push(']');
            }
            TreeKind::IsInstance { expr, tpe } => {
                self.tree(expr);
                self.out.push_str(".isInstanceOf[");
                let t = self.type_str(tpe);
                self.out.push_str(&t);
                self.out.push(']');
            }
            TreeKind::While { cond, body } => {
                self.out.push_str("while (");
                self.tree(cond);
                self.out.push_str(") ");
                self.tree(body);
            }
            TreeKind::Try {
                block,
                cases,
                finalizer,
            } => {
                self.out.push_str("try ");
                self.tree(block);
                if !cases.is_empty() {
                    self.out.push_str(" catch {");
                    self.indent += 1;
                    for c in cases {
                        self.nl();
                        self.tree(c);
                    }
                    self.indent -= 1;
                    self.nl();
                    self.out.push('}');
                }
                if !finalizer.is_empty_tree() {
                    self.out.push_str(" finally ");
                    self.tree(finalizer);
                }
            }
            TreeKind::Throw { expr } => {
                self.out.push_str("throw ");
                self.tree(expr);
            }
            TreeKind::Return { expr, .. } => {
                self.out.push_str("return ");
                self.tree(expr);
            }
            TreeKind::Lambda { params, body } => {
                self.out.push('(');
                self.trees(params, ", ");
                self.out.push_str(") => ");
                self.tree(body);
            }
            TreeKind::Labeled { label, body } => {
                self.out.push_str(&self.name_of(*label));
                self.out.push_str(": ");
                self.tree(body);
            }
            TreeKind::JumpTo { label, args } => {
                self.out.push_str("jump ");
                self.out.push_str(&self.name_of(*label));
                self.out.push('(');
                self.trees(args, ", ");
                self.out.push(')');
            }
            TreeKind::SeqLiteral { elems, .. } => {
                self.out.push('[');
                self.trees(elems, ", ");
                self.out.push(']');
            }
            TreeKind::ValDef { sym, rhs } => {
                let flags = self.symbols.sym(*sym).flags;
                if flags.is(crate::Flags::MUTABLE) {
                    self.out.push_str("var ");
                } else if flags.is(crate::Flags::LAZY) {
                    self.out.push_str("lazy val ");
                } else {
                    self.out.push_str("val ");
                }
                self.out.push_str(&self.name_of(*sym));
                self.out.push_str(": ");
                let t = self.type_str(&self.symbols.info(*sym));
                self.out.push_str(&t);
                if !rhs.is_empty_tree() {
                    self.out.push_str(" = ");
                    self.tree(rhs);
                }
            }
            TreeKind::DefDef { sym, paramss, rhs } => {
                self.out.push_str("def ");
                self.out.push_str(&self.name_of(*sym));
                for ps in paramss {
                    self.out.push('(');
                    self.trees(ps, ", ");
                    self.out.push(')');
                }
                self.out.push_str(": ");
                let t = self.type_str(self.symbols.info(*sym).final_result());
                self.out.push_str(&t);
                if !rhs.is_empty_tree() {
                    self.out.push_str(" = ");
                    self.tree(rhs);
                }
            }
            TreeKind::ClassDef { sym, body } => {
                let flags = self.symbols.sym(*sym).flags;
                if flags.is(crate::Flags::TRAIT) {
                    self.out.push_str("trait ");
                } else {
                    self.out.push_str("class ");
                }
                self.out.push_str(&self.name_of(*sym));
                self.out.push_str(" {");
                self.indent += 1;
                for b in body {
                    self.nl();
                    self.tree(b);
                }
                self.indent -= 1;
                self.nl();
                self.out.push('}');
            }
            TreeKind::PackageDef { stats, .. } => {
                for (i, s) in stats.iter().enumerate() {
                    if i > 0 {
                        self.nl();
                    }
                    self.tree(s);
                }
            }
            TreeKind::This { .. } => self.out.push_str("this"),
            TreeKind::Super { .. } => self.out.push_str("super"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;

    #[test]
    fn prints_simple_expressions() {
        let mut ctx = Ctx::new();
        let one = ctx.lit_int(1);
        let two = ctx.lit_int(2);
        let blk = ctx.block(vec![one], two);
        let s = print_tree(&blk, &ctx.symbols);
        assert!(s.contains('1'));
        assert!(s.contains('2'));
        assert!(s.starts_with('{'));
    }

    #[test]
    fn prints_val_defs_with_symbols() {
        let mut ctx = Ctx::new();
        let root = ctx.symbols.builtins().root_pkg;
        let sym = ctx.symbols.new_term(
            root,
            crate::Name::from("answer"),
            crate::Flags::EMPTY,
            crate::Type::Int,
        );
        let rhs = ctx.lit_int(42);
        let vd = ctx.val_def(sym, rhs);
        let s = print_tree(&vd, &ctx.symbols);
        assert!(s.contains("val answer"));
        assert!(s.contains("42"));
    }
}
