//! Offline **type-check stub** for `serde_derive`.
//!
//! The stub `serde` traits carry only default methods, so a derive
//! here just emits an *empty* impl — all that takes from the input
//! token stream is the type name. `#[serde(...)]` attributes are
//! accepted and ignored. Generic types are rejected with a clear
//! message (this workspace derives only on concrete types).

use proc_macro::{TokenStream, TokenTree};

/// Extracts the identifier following `struct`/`enum`, skipping outer
/// attributes and visibility tokens.
fn type_name(input: TokenStream) -> String {
    let mut iter = input.into_iter().peekable();
    while let Some(tt) = iter.next() {
        match tt {
            // `#[...]`: consume the bracket group that follows.
            TokenTree::Punct(p) if p.as_char() == '#' => {
                let _ = iter.next();
            }
            TokenTree::Ident(id) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" || kw == "union" {
                    for tt2 in iter.by_ref() {
                        if let TokenTree::Ident(name) = tt2 {
                            if let Some(TokenTree::Punct(p)) = iter.peek() {
                                if p.as_char() == '<' {
                                    panic!(
                                        "offline serde stub: generic type `{name}` not \
                                         supported — hand-write the impl or extend the stub"
                                    );
                                }
                            }
                            return name.to_string();
                        }
                    }
                }
                // `pub`, `pub(crate)`, etc.: keep scanning.
            }
            _ => {}
        }
    }
    panic!("offline serde stub: no struct/enum name in derive input");
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl ::serde::Serialize for {name} {{}}")
        .parse()
        .expect("stub impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl<'de> ::serde::Deserialize<'de> for {name} {{}}")
        .parse()
        .expect("stub impl parses")
}
