#include "rdf/term.h"

#include <tuple>

#include "util/string_util.h"

namespace rdfrel::rdf {

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = TermKind::kIri;
  t.lexical_ = std::move(iri);
  return t;
}

Term Term::Literal(std::string lexical) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  return t;
}

Term Term::LangLiteral(std::string lexical, std::string lang) {
  Term t = Literal(std::move(lexical));
  t.language_ = std::move(lang);
  return t;
}

Term Term::TypedLiteral(std::string lexical, std::string datatype_iri) {
  Term t = Literal(std::move(lexical));
  t.datatype_ = std::move(datatype_iri);
  return t;
}

Term Term::BlankNode(std::string label) {
  Term t;
  t.kind_ = TermKind::kBlankNode;
  t.lexical_ = std::move(label);
  return t;
}

std::string Term::ToNTriples() const {
  switch (kind_) {
    case TermKind::kIri:
      return "<" + lexical_ + ">";
    case TermKind::kBlankNode:
      return "_:" + lexical_;
    case TermKind::kLiteral: {
      std::string out = std::string("\"").append(NtEscape(lexical_)) + "\"";
      if (!language_.empty()) {
        out += "@" + language_;
      } else if (!datatype_.empty()) {
        out += "^^<" + datatype_ + ">";
      }
      return out;
    }
  }
  return "";
}

std::string Term::DictionaryKey() const {
  // Prefix with a kind tag so an IRI and a literal with the same lexical form
  // never collide; N-Triples syntax already guarantees this but the tag makes
  // the key self-describing for decode.
  switch (kind_) {
    case TermKind::kIri:
      return "I" + lexical_;
    case TermKind::kBlankNode:
      return "B" + lexical_;
    case TermKind::kLiteral:
      if (!language_.empty()) return "L@" + language_ + "\x1f" + lexical_;
      if (!datatype_.empty()) return "L^" + datatype_ + "\x1f" + lexical_;
      return "L\x1f" + lexical_;
  }
  return "";
}

bool Term::operator==(const Term& other) const {
  return kind_ == other.kind_ && lexical_ == other.lexical_ &&
         language_ == other.language_ && datatype_ == other.datatype_;
}

bool Term::operator<(const Term& other) const {
  return std::tie(kind_, lexical_, language_, datatype_) <
         std::tie(other.kind_, other.lexical_, other.language_,
                  other.datatype_);
}

std::string Triple::ToNTriples() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples() + " .";
}

}  // namespace rdfrel::rdf
