#include "sparql/parser.h"

#include <charconv>
#include <map>

#include "sparql/lexer.h"
#include "util/string_util.h"

namespace rdfrel::sparql {

namespace {

constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    RDFREL_RETURN_NOT_OK(ParsePrologue());
    Query q;
    RDFREL_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    if (PeekKeyword("DISTINCT")) {
      Advance();
      q.distinct = true;
    } else if (PeekKeyword("REDUCED")) {
      Advance();  // treat REDUCED as DISTINCT-less pass-through
    }
    if (ConsumeSymbol("*")) {
      // empty select_vars == all variables
    } else {
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          Projection pr;
          pr.var = Peek().text;
          q.select_vars.push_back(pr.var);
          q.projection.push_back(std::move(pr));
          Advance();
          continue;
        }
        if (PeekSymbol("(")) {
          // (AGG([DISTINCT] ?v | *) AS ?alias)
          Advance();
          RDFREL_ASSIGN_OR_RETURN(Projection pr, ParseAggregate());
          RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
          q.projection.push_back(std::move(pr));
          continue;
        }
        break;
      }
      if (q.projection.empty()) {
        return Error("expected projection variables or *");
      }
      // Mixed plain+aggregate projections keep select_vars in sync only
      // for the non-aggregate case.
      bool has_agg = false;
      for (const auto& pr : q.projection) {
        if (pr.agg != AggKind::kNone) has_agg = true;
      }
      if (has_agg) q.select_vars.clear();
    }
    if (PeekKeyword("WHERE")) Advance();
    RDFREL_ASSIGN_OR_RETURN(q.where, ParseGroup());
    // Solution modifiers.
    if (PeekKeyword("GROUP")) {
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (Peek().kind == TokenKind::kVar) {
        q.group_by.push_back(Peek().text);
        Advance();
      }
      if (q.group_by.empty()) return Error("empty GROUP BY");
    }
    if (PeekKeyword("ORDER")) {
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderCond oc;
        if (PeekKeyword("DESC") || PeekKeyword("ASC")) {
          oc.descending = PeekKeyword("DESC");
          Advance();
          RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
          if (Peek().kind != TokenKind::kVar) {
            return Error("expected variable in ORDER BY");
          }
          oc.var = Peek().text;
          Advance();
          RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
        } else if (Peek().kind == TokenKind::kVar) {
          oc.var = Peek().text;
          Advance();
        } else {
          break;
        }
        q.order_by.push_back(std::move(oc));
      }
      if (q.order_by.empty()) return Error("empty ORDER BY");
    }
    if (PeekKeyword("LIMIT")) {
      Advance();
      RDFREL_ASSIGN_OR_RETURN(q.limit, ParseCount("LIMIT"));
    }
    if (PeekKeyword("OFFSET")) {
      Advance();
      RDFREL_ASSIGN_OR_RETURN(q.offset, ParseCount("OFFSET"));
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input");
    }
    q.num_triples = next_triple_id_ - 1;
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool PeekKeyword(std::string_view kw) const {
    const Token& t = Peek();
    return t.kind == TokenKind::kKeywordOrName &&
           EqualsIgnoreCaseAscii(t.text, kw);
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) {
      return Error("expected " + std::string(kw));
    }
    Advance();
    return Status::OK();
  }
  bool PeekSymbol(std::string_view sym) const {
    const Token& t = Peek();
    return t.kind == TokenKind::kSymbol && t.text == sym;
  }
  bool ConsumeSymbol(std::string_view sym) {
    if (PeekSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!ConsumeSymbol(sym)) {
      return Error("expected '" + std::string(sym) + "'");
    }
    return Status::OK();
  }

  /// Consumes the non-negative integer after LIMIT/OFFSET. Hostile input
  /// (out of range, negative) is a parse error, never an exception.
  Result<int64_t> ParseCount(const char* clause) {
    const Token& t = Peek();
    int64_t v = -1;
    if (t.kind == TokenKind::kInteger) {
      auto [end, ec] =
          std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
      if (ec != std::errc() || end != t.text.data() + t.text.size()) v = -1;
    }
    if (v < 0) {
      return Error(std::string("expected a non-negative ") + clause +
                   " count that fits in 64 bits");
    }
    Advance();
    return v;
  }

  Status Error(std::string msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Peek().offset) + " (near '" +
                              Peek().text + "')");
  }

  /// Parses `AGG([DISTINCT] ?v | *) AS ?alias` (inside parentheses).
  Result<Projection> ParseAggregate() {
    Projection pr;
    const Token& t = Peek();
    if (t.kind != TokenKind::kKeywordOrName) {
      return Error("expected aggregate function");
    }
    if (EqualsIgnoreCaseAscii(t.text, "COUNT")) {
      pr.agg = AggKind::kCount;
    } else if (EqualsIgnoreCaseAscii(t.text, "SUM")) {
      pr.agg = AggKind::kSum;
    } else if (EqualsIgnoreCaseAscii(t.text, "MIN")) {
      pr.agg = AggKind::kMin;
    } else if (EqualsIgnoreCaseAscii(t.text, "MAX")) {
      pr.agg = AggKind::kMax;
    } else if (EqualsIgnoreCaseAscii(t.text, "AVG")) {
      pr.agg = AggKind::kAvg;
    } else {
      return Error("unknown aggregate function '" + t.text + "'");
    }
    Advance();
    RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
    if (PeekKeyword("DISTINCT")) {
      Advance();
      pr.distinct = true;
    }
    if (ConsumeSymbol("*")) {
      if (pr.agg != AggKind::kCount) {
        return Error("only COUNT supports *");
      }
      pr.star = true;
    } else if (Peek().kind == TokenKind::kVar) {
      pr.var = Peek().text;
      Advance();
    } else {
      return Error("expected variable or * in aggregate");
    }
    RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    RDFREL_RETURN_NOT_OK(ExpectKeyword("AS"));
    if (Peek().kind != TokenKind::kVar) {
      return Error("expected ?alias after AS");
    }
    pr.alias = Peek().text;
    Advance();
    return pr;
  }

  Status ParsePrologue() {
    while (true) {
      if (PeekKeyword("PREFIX")) {
        Advance();
        // Expect pname "prefix:" (empty local) or keyword+':'? The lexer
        // emits "prefix:" forms as kPname with empty local.
        const Token& t = Peek();
        if (t.kind != TokenKind::kPname) {
          return Error("expected prefix declaration name");
        }
        std::string pname = t.text;
        size_t colon = pname.find(':');
        std::string prefix = pname.substr(0, colon);
        if (pname.size() != colon + 1) {
          return Error("prefix declaration must end with ':'");
        }
        Advance();
        if (Peek().kind != TokenKind::kIri) {
          return Error("expected IRI in PREFIX declaration");
        }
        prefixes_[prefix] = Peek().text;
        Advance();
        continue;
      }
      if (PeekKeyword("BASE")) {
        Advance();
        if (Peek().kind != TokenKind::kIri) {
          return Error("expected IRI after BASE");
        }
        base_ = Peek().text;
        Advance();
        continue;
      }
      return Status::OK();
    }
  }

  Result<rdf::Term> ExpandPname(const std::string& pname, size_t offset) {
    size_t colon = pname.find(':');
    std::string prefix = pname.substr(0, colon);
    std::string local = pname.substr(colon + 1);
    if (prefix == "_") {
      return rdf::Term::BlankNode(local);
    }
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      // Lexically fine but semantically invalid: distinct machine-readable
      // code so callers can separate "fix your query" from syntax errors.
      return Status::InvalidQuery("undeclared prefix '" + prefix +
                                  "' at offset " + std::to_string(offset));
    }
    return rdf::Term::Iri(it->second + local);
  }

  /// Parses a subject/predicate/object term or variable.
  Result<TermOrVar> ParseTermOrVar(bool allow_a) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVar: {
        std::string name = t.text;
        Advance();
        return TermOrVar::Var(std::move(name));
      }
      case TokenKind::kIri: {
        std::string iri = t.text;
        Advance();
        // Resolve relative IRIs against BASE; absolute ones pass through.
        if (!base_.empty() && iri.find(':') == std::string::npos) {
          iri = base_ + iri;
        }
        return TermOrVar::Of(rdf::Term::Iri(std::move(iri)));
      }
      case TokenKind::kPname: {
        RDFREL_ASSIGN_OR_RETURN(rdf::Term term,
                                ExpandPname(t.text, t.offset));
        Advance();
        return TermOrVar::Of(std::move(term));
      }
      case TokenKind::kString: {
        std::string lex = t.text;
        Advance();
        if (Peek().kind == TokenKind::kLangTag) {
          std::string lang = Peek().text;
          Advance();
          return TermOrVar::Of(
              rdf::Term::LangLiteral(std::move(lex), std::move(lang)));
        }
        if (PeekSymbol("^^")) {
          Advance();
          if (Peek().kind == TokenKind::kIri) {
            std::string dt = Peek().text;
            Advance();
            return TermOrVar::Of(
                rdf::Term::TypedLiteral(std::move(lex), std::move(dt)));
          }
          if (Peek().kind == TokenKind::kPname) {
            RDFREL_ASSIGN_OR_RETURN(rdf::Term dt_term,
                                    ExpandPname(Peek().text, Peek().offset));
            Advance();
            return TermOrVar::Of(
                rdf::Term::TypedLiteral(std::move(lex), dt_term.lexical()));
          }
          return Error("expected datatype IRI after ^^");
        }
        return TermOrVar::Of(rdf::Term::Literal(std::move(lex)));
      }
      case TokenKind::kInteger: {
        std::string lex = t.text;
        Advance();
        return TermOrVar::Of(rdf::Term::TypedLiteral(
            std::move(lex), "http://www.w3.org/2001/XMLSchema#integer"));
      }
      case TokenKind::kDecimal: {
        std::string lex = t.text;
        Advance();
        return TermOrVar::Of(rdf::Term::TypedLiteral(
            std::move(lex), "http://www.w3.org/2001/XMLSchema#decimal"));
      }
      case TokenKind::kKeywordOrName:
        if (allow_a && t.text == "a") {
          Advance();
          return TermOrVar::Of(rdf::Term::Iri(std::string(kRdfType)));
        }
        return Error("unexpected name '" + t.text + "' in triple pattern");
      default:
        return Error("expected term or variable");
    }
  }

  // ------------------------------------------------------ property paths
  struct PathElt {
    TermOrVar pred;
    bool inverse = false;
    PathMod mod = PathMod::kNone;
  };
  using PathSeq = std::vector<PathElt>;

  /// elt := ['^'] (iri | 'a') ['+' | '*']
  Result<PathElt> ParsePathElt() {
    PathElt elt;
    if (ConsumeSymbol("^")) elt.inverse = true;
    RDFREL_ASSIGN_OR_RETURN(elt.pred, ParseTermOrVar(/*allow_a=*/true));
    if (elt.pred.is_var) {
      if (elt.inverse) {
        return Error("variable predicates cannot take path operators");
      }
      return elt;
    }
    if (ConsumeSymbol("+")) {
      elt.mod = PathMod::kPlus;
    } else if (ConsumeSymbol("*")) {
      elt.mod = PathMod::kStar;
    }
    return elt;
  }

  /// seq := elt ('/' elt)* ; alt := seq ('|' seq)*
  Result<std::vector<PathSeq>> ParsePathAlt() {
    std::vector<PathSeq> alts;
    do {
      PathSeq seq;
      do {
        RDFREL_ASSIGN_OR_RETURN(PathElt elt, ParsePathElt());
        if (elt.pred.is_var && (seq.size() > 0 || PeekSymbol("/"))) {
          return Error("variable predicates cannot appear in paths");
        }
        seq.push_back(std::move(elt));
      } while (ConsumeSymbol("/"));
      alts.push_back(std::move(seq));
    } while (ConsumeSymbol("|"));
    return alts;
  }

  /// Expands subject -seq-> object into chained triples (fresh variables
  /// link the steps; inverses swap the step's endpoints).
  std::vector<PatternPtr> ExpandSeq(const TermOrVar& subject,
                                    const PathSeq& seq,
                                    const TermOrVar& object) {
    std::vector<PatternPtr> out;
    TermOrVar current = subject;
    for (size_t i = 0; i < seq.size(); ++i) {
      TermOrVar next =
          i + 1 == seq.size()
              ? object
              : TermOrVar::Var("__p" + std::to_string(next_path_var_++));
      TriplePattern tp;
      tp.predicate = seq[i].pred;
      tp.path_mod = seq[i].mod;
      if (seq[i].inverse) {
        tp.subject = next;
        tp.object = current;
      } else {
        tp.subject = current;
        tp.object = next;
      }
      tp.id = next_triple_id_++;
      out.push_back(MakeTriplePattern(std::move(tp)));
      current = next;
    }
    return out;
  }

  /// Emits the pattern(s) for subject -alt-> object into \p out.
  void ExpandPath(const TermOrVar& subject,
                  const std::vector<PathSeq>& alts, const TermOrVar& object,
                  std::vector<PatternPtr>* out) {
    if (alts.size() == 1) {
      auto triples = ExpandSeq(subject, alts[0], object);
      for (auto& t : triples) out->push_back(std::move(t));
      return;
    }
    auto orp = std::make_unique<Pattern>();
    orp->kind = PatternKind::kOr;
    for (const auto& seq : alts) {
      auto triples = ExpandSeq(subject, seq, object);
      if (triples.size() == 1) {
        orp->children.push_back(std::move(triples[0]));
      } else {
        orp->children.push_back(MakeGroup(std::move(triples)));
      }
    }
    out->push_back(std::move(orp));
  }

  /// Parses one triples block: subject (path obj (, obj)*) (; path obj...)*
  Status ParseTriplesBlock(std::vector<PatternPtr>* out) {
    RDFREL_ASSIGN_OR_RETURN(TermOrVar subject,
                            ParseTermOrVar(/*allow_a=*/false));
    while (true) {
      RDFREL_ASSIGN_OR_RETURN(std::vector<PathSeq> alts, ParsePathAlt());
      bool plain_var = alts.size() == 1 && alts[0].size() == 1 &&
                       alts[0][0].pred.is_var && !alts[0][0].inverse &&
                       alts[0][0].mod == PathMod::kNone;
      while (true) {
        RDFREL_ASSIGN_OR_RETURN(TermOrVar obj, ParseTermOrVar(false));
        if (plain_var) {
          TriplePattern tp;
          tp.subject = subject;
          tp.predicate = alts[0][0].pred;
          tp.object = std::move(obj);
          tp.id = next_triple_id_++;
          out->push_back(MakeTriplePattern(std::move(tp)));
        } else {
          ExpandPath(subject, alts, obj, out);
        }
        if (!ConsumeSymbol(",")) break;
      }
      if (!ConsumeSymbol(";")) break;
      // Allow trailing ';' before '.' or '}'.
      if (PeekSymbol(".") || PeekSymbol("}")) break;
    }
    return Status::OK();
  }

  /// Parses a group graph pattern '{ ... }'.
  Result<PatternPtr> ParseGroup() {
    RDFREL_RETURN_NOT_OK(ExpectSymbol("{"));
    auto group = std::make_unique<Pattern>();
    group->kind = PatternKind::kAnd;
    while (!PeekSymbol("}")) {
      if (Peek().kind == TokenKind::kEnd) return Error("unterminated group");
      if (PeekKeyword("OPTIONAL")) {
        Advance();
        RDFREL_ASSIGN_OR_RETURN(PatternPtr inner, ParseGroup());
        auto opt = std::make_unique<Pattern>();
        opt->kind = PatternKind::kOptional;
        opt->children.push_back(std::move(inner));
        group->children.push_back(std::move(opt));
        ConsumeSymbol(".");
        continue;
      }
      if (PeekKeyword("FILTER")) {
        Advance();
        RDFREL_ASSIGN_OR_RETURN(FilterExprPtr f, ParseFilter());
        group->filters.push_back(std::move(f));
        ConsumeSymbol(".");
        continue;
      }
      if (PeekSymbol("{")) {
        // Nested group, possibly a UNION chain.
        RDFREL_ASSIGN_OR_RETURN(PatternPtr first, ParseGroup());
        if (PeekKeyword("UNION")) {
          auto orp = std::make_unique<Pattern>();
          orp->kind = PatternKind::kOr;
          orp->children.push_back(std::move(first));
          while (PeekKeyword("UNION")) {
            Advance();
            RDFREL_ASSIGN_OR_RETURN(PatternPtr next, ParseGroup());
            orp->children.push_back(std::move(next));
          }
          group->children.push_back(std::move(orp));
        } else {
          group->children.push_back(std::move(first));
        }
        ConsumeSymbol(".");
        continue;
      }
      // Triples block.
      RDFREL_RETURN_NOT_OK(ParseTriplesBlock(&group->children));
      if (!ConsumeSymbol(".")) {
        // '.' optional before '}' / OPTIONAL / FILTER / '{'.
        if (!PeekSymbol("}") && !PeekKeyword("OPTIONAL") &&
            !PeekKeyword("FILTER") && !PeekSymbol("{")) {
          return Error("expected '.' between triple patterns");
        }
      }
    }
    RDFREL_RETURN_NOT_OK(ExpectSymbol("}"));
    // Collapse single-child groups without filters.
    if (group->children.size() == 1 && group->filters.empty()) {
      return std::move(group->children.front());
    }
    return PatternPtr(std::move(group));
  }

  // ------------------------------------------------------------- filters
  Result<FilterExprPtr> ParseFilter() {
    RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
    RDFREL_ASSIGN_OR_RETURN(FilterExprPtr e, ParseFilterOr());
    RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
    return e;
  }

  Result<FilterExprPtr> ParseFilterOr() {
    RDFREL_ASSIGN_OR_RETURN(FilterExprPtr lhs, ParseFilterAnd());
    while (PeekSymbol("||")) {
      Advance();
      RDFREL_ASSIGN_OR_RETURN(FilterExprPtr rhs, ParseFilterAnd());
      auto e = std::make_unique<FilterExpr>();
      e->op = FilterOp::kOr;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<FilterExprPtr> ParseFilterAnd() {
    RDFREL_ASSIGN_OR_RETURN(FilterExprPtr lhs, ParseFilterUnary());
    while (PeekSymbol("&&")) {
      Advance();
      RDFREL_ASSIGN_OR_RETURN(FilterExprPtr rhs, ParseFilterUnary());
      auto e = std::make_unique<FilterExpr>();
      e->op = FilterOp::kAnd;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      lhs = std::move(e);
    }
    return lhs;
  }

  Result<FilterExprPtr> ParseFilterUnary() {
    if (ConsumeSymbol("!")) {
      RDFREL_ASSIGN_OR_RETURN(FilterExprPtr child, ParseFilterUnary());
      auto e = std::make_unique<FilterExpr>();
      e->op = FilterOp::kNot;
      e->lhs = std::move(child);
      return FilterExprPtr(std::move(e));
    }
    return ParseFilterComparison();
  }

  Result<FilterExprPtr> ParseFilterComparison() {
    RDFREL_ASSIGN_OR_RETURN(FilterExprPtr lhs, ParseFilterPrimary());
    struct OpMap {
      std::string_view sym;
      FilterOp op;
    };
    static constexpr OpMap kOps[] = {
        {"<=", FilterOp::kLe}, {">=", FilterOp::kGe}, {"!=", FilterOp::kNe},
        {"=", FilterOp::kEq},  {"<", FilterOp::kLt},  {">", FilterOp::kGt},
    };
    for (const auto& m : kOps) {
      if (PeekSymbol(m.sym)) {
        Advance();
        RDFREL_ASSIGN_OR_RETURN(FilterExprPtr rhs, ParseFilterPrimary());
        auto e = std::make_unique<FilterExpr>();
        e->op = m.op;
        e->lhs = std::move(lhs);
        e->rhs = std::move(rhs);
        return FilterExprPtr(std::move(e));
      }
    }
    return lhs;
  }

  Result<FilterExprPtr> ParseFilterPrimary() {
    if (ConsumeSymbol("(")) {
      RDFREL_ASSIGN_OR_RETURN(FilterExprPtr e, ParseFilterOr());
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    const Token& t = Peek();
    if (t.kind == TokenKind::kVar) {
      auto e = std::make_unique<FilterExpr>();
      e->op = FilterOp::kVar;
      e->var = t.text;
      Advance();
      return FilterExprPtr(std::move(e));
    }
    if (t.kind == TokenKind::kKeywordOrName &&
        EqualsIgnoreCaseAscii(t.text, "BOUND")) {
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
      if (Peek().kind != TokenKind::kVar) {
        return Error("expected variable in BOUND()");
      }
      auto e = std::make_unique<FilterExpr>();
      e->op = FilterOp::kBound;
      e->var = Peek().text;
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
      return FilterExprPtr(std::move(e));
    }
    if (t.kind == TokenKind::kKeywordOrName &&
        EqualsIgnoreCaseAscii(t.text, "REGEX")) {
      Advance();
      RDFREL_RETURN_NOT_OK(ExpectSymbol("("));
      RDFREL_ASSIGN_OR_RETURN(FilterExprPtr arg, ParseFilterPrimary());
      RDFREL_RETURN_NOT_OK(ExpectSymbol(","));
      if (Peek().kind != TokenKind::kString) {
        return Error("expected pattern string in REGEX()");
      }
      auto e = std::make_unique<FilterExpr>();
      e->op = FilterOp::kRegex;
      e->lhs = std::move(arg);
      e->pattern = Peek().text;
      Advance();
      // Optional flags argument, ignored.
      if (ConsumeSymbol(",")) {
        if (Peek().kind != TokenKind::kString) {
          return Error("expected flags string in REGEX()");
        }
        Advance();
      }
      RDFREL_RETURN_NOT_OK(ExpectSymbol(")"));
      return FilterExprPtr(std::move(e));
    }
    // Terms.
    RDFREL_ASSIGN_OR_RETURN(TermOrVar tv, ParseTermOrVar(false));
    auto e = std::make_unique<FilterExpr>();
    e->op = FilterOp::kTerm;
    e->term = std::move(tv.term);
    return FilterExprPtr(std::move(e));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::map<std::string, std::string> prefixes_;
  std::string base_;
  int next_triple_id_ = 1;
  int next_path_var_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view sparql) {
  RDFREL_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSparql(sparql));
  Parser p(std::move(tokens));
  return p.Parse();
}

}  // namespace rdfrel::sparql
